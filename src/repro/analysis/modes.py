"""Declared-mode analyses: the ``TLP5xx`` rule family (§7, after [DH88]).

Where :mod:`repro.analysis.flow` (``TLP301``) *infers* producer
positions to find suspicious supertype→subtype flows, this family takes
``MODE`` declarations (standalone ``MODE p(IN, OUT).`` lines or the §7
inline form ``PRED p(OUT nat).``) as ground truth and checks the
program against them:

* ``TLP501`` — the declarations themselves are inconsistent: a ``MODE``
  whose arity matches no ``PRED``, a ``MODE`` for an undeclared
  predicate, or two declarations that disagree;
* ``TLP502`` — an ill-moded call site: a body goal consumes a variable
  against the declared flow direction (produced at a strict supertype
  of the consumer's ``IN`` type, or consumed before any production).
  Supertype flows carry a machine-applicable fix-it that inserts the §7
  filter predicate (``int2nat``-style) and renames the consuming
  occurrence;
* ``TLP503`` — declared modes contradict the clause dataflow: a head
  ``OUT`` position its clause never produces (or produces at a type
  that cannot flow out).  The unproduced case carries a fix-it that
  flips the declaration to ``IN``;
* ``TLP504`` — the clause is not well-moded: the strict Definition 16
  check fails *and* the directional [DH88]/Smaus–Fages–Deransart
  fallback (:class:`~repro.core.moded_welltyped.ModedWellTypedChecker`)
  rejects it too.  When the rejection is a missing ``MODE`` on a
  predicate carrying a shared variable, the fix-it inserts the inferred
  declaration;
* ``TLP505`` — a declared ``OUT`` position that is **never produced**:
  the predicate has no clauses at that arity, so nothing can ever bind
  it.  For uncalled predicates the fix-it flips the claim to ``IN``.

The whole family is gated on the file actually declaring modes —
unmoded programs are ``TLP301``'s territory and produce no ``TLP5xx``
findings at all.  Rules degrade to silence when the semantic layer
(constraint set, subtype engine, predicate types) cannot be built; the
TLP1xx/2xx rules report those problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..checker.diagnostics import FixIt, Severity
from ..core.declarations import DeclarationError
from ..core.builtins import declare_builtins
from ..core.modes import FLOW, IN, OUT, UNPRODUCED, ModeEnv, ModeReport, ModeViolation
from ..core.moded_welltyped import ModedWellTypedChecker, unmoded_shared
from ..core.predicate_types import PredicateTypeEnv
from ..lang.ast import ClauseDecl, ModeDecl, PredDecl, QueryDecl
from ..lp.clause import Clause, Query
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, variables_of
from .context import LintContext, _is_constraint_goal
from .flow import ModeInference, _filter_name, _suffix
from .registry import register

_Indicator = Tuple[str, int]
_Owner = Union[ClauseDecl, QueryDecl]


# -- the shared semantic world (built once per lint run) ---------------------


@dataclass
class _ModeWorld:
    """Everything the TLP5xx rules share: the moded checker (and the
    mode checker whose walk it runs) over the lint context's best-effort
    constraint set, the pure (declaration-blind) mode inference, and the
    per-item mode reports."""

    moded: ModedWellTypedChecker
    pure: ModeInference
    reports: Dict[int, ModeReport] = field(default_factory=dict)
    flagged: Set[int] = field(default_factory=set)  # items with a TLP502/503 finding


def _world(ctx: LintContext) -> Optional[_ModeWorld]:
    cached = ctx.__dict__.get("_tlp5_world", "unset")
    if cached != "unset":
        return cached
    world: Optional[_ModeWorld] = None
    constraints = ctx.constraints
    engine = ctx.engine
    if ctx.mode_decls and constraints is not None and engine is not None:
        predicate_types = PredicateTypeEnv(constraints)
        for pred in ctx.pred_decls.values():
            try:
                predicate_types.declare(pred.head)
            except DeclarationError:
                continue  # TLP2xx reports the malformed declaration
        mode_env = ModeEnv()
        for (name, _), decl in sorted(ctx.mode_decls.items()):
            try:
                mode_env.declare(name, decl.modes)
            except DeclarationError:
                continue  # conflicting duplicates: TLP501 reports them
        try:
            declare_builtins(
                predicate_types,
                mode_env,
                constraints.symbols.type_constructors,
                (goal for owner in _owners(ctx) for goal in owner.body),
            )
        except DeclarationError:
            pass  # a malformed numeric type: built-in calls stay unchecked
        world = _ModeWorld(
            ModedWellTypedChecker(
                constraints, predicate_types, mode_env, engine=engine
            ),
            ModeInference(ctx, use_declared=False),
        )
    ctx.__dict__["_tlp5_world"] = world
    return world


def _owners(ctx: LintContext) -> List[_Owner]:
    return list(ctx.clause_items) + list(ctx.query_items)


def _goals_of(owner: _Owner) -> Tuple[Struct, ...]:
    if isinstance(owner, ClauseDecl):
        return (owner.head,) + owner.body
    return owner.body


def _checkable(world: _ModeWorld, owner: _Owner) -> bool:
    """Mode semantics are defined only when every atom has a declared
    predicate type of matching arity and no ':' constraint goals opt
    the item out of the static system (mirrors the frontend)."""
    for goal in _goals_of(owner):
        if _is_constraint_goal(goal):
            return False
        if not world.moded.predicate_types.has_type_for(goal):
            return False
        declared = world.moded.predicate_types.type_of(goal)
        if len(declared.args) != len(goal.args):
            return False
    return True


def _report_for(world: _ModeWorld, owner: _Owner) -> ModeReport:
    key = id(owner)
    report = world.reports.get(key)
    if report is None:
        if isinstance(owner, ClauseDecl):
            report = world.moded.mode_checker.check_clause(Clause(owner.head, owner.body))
        else:
            report = world.moded.mode_checker.check_query(Query(owner.body))
        world.reports[key] = report
    return report


# -- rendering helpers for machine fix-its -----------------------------------


def _render_goals(goals) -> str:
    return ", ".join(pretty(goal) for goal in goals)


def _render_owner(owner: _Owner) -> str:
    if isinstance(owner, QueryDecl):
        return f":- {_render_goals(owner.body)}."
    if owner.body:
        return f"{pretty(owner.head)} :- {_render_goals(owner.body)}."
    return f"{pretty(owner.head)}."


def _render_mode_decl(ctx: LintContext, indicator: _Indicator, modes) -> str:
    """The rewritten declaration: a ``MODE`` line, or the whole inline
    ``PRED`` line when the modes came from the §7 inline form."""
    name, _ = indicator
    if indicator in ctx.inline_mode_decls:
        pred = ctx.pred_decls.get(indicator)
        if pred is not None:
            args = ", ".join(
                f"{mode} {pretty(arg)}" for mode, arg in zip(modes, pred.head.args)
            )
            return f"PRED {name}({args})."
    return f"MODE {name}({', '.join(modes)})."


def _fresh_name(owner: _Owner, variable: Var, tau: Term) -> str:
    taken: Set[str] = set()
    for goal in _goals_of(owner):
        taken |= {var.name for var in variables_of(goal)}
    name = f"{variable.name}_{_suffix(tau)}"
    while name in taken:
        name += "_"
    return name


def _rename(term: Term, variable: Var, fresh: Var) -> Term:
    if isinstance(term, Var):
        return fresh if term == variable else term
    if isinstance(term, Struct):
        return Struct(
            term.functor, tuple(_rename(arg, variable, fresh) for arg in term.args)
        )
    return term


def _inferred_modes(world: _ModeWorld, indicator: _Indicator) -> Tuple[str, ...]:
    """The declaration the pure dataflow supports: OUT where every
    clause grounds the position from its body, IN elsewhere."""
    _, arity = indicator
    out = world.pure.out_positions.get(indicator, set())
    return tuple(OUT if position in out else IN for position in range(arity))


def _filter_rewrite(owner: _Owner, violation: ModeViolation) -> Optional[str]:
    """The owner item rewritten with the §7 filter inserted before the
    violating consumer and the consumed occurrence renamed."""
    if violation.produced_type is None or violation.consumer_type is None:
        return None
    goals = owner.body
    index = next((i for i, goal in enumerate(goals) if goal is violation.atom), None)
    if index is None:
        return None
    fresh = Var(_fresh_name(owner, violation.variable, violation.consumer_type))
    filter_goal = Struct(
        _filter_name(violation.produced_type, violation.consumer_type),
        (violation.variable, fresh),
    )
    consumer = violation.atom
    new_consumer = Struct(
        consumer.functor,
        tuple(
            _rename(arg, violation.variable, fresh)
            if position == violation.position
            else arg
            for position, arg in enumerate(consumer.args)
        ),
    )
    new_goals = list(goals)
    new_goals[index] = new_consumer
    new_goals.insert(index, filter_goal)
    if isinstance(owner, QueryDecl):
        return f":- {_render_goals(new_goals)}."
    return f"{pretty(owner.head)} :- {_render_goals(new_goals)}."


# -- TLP501: the declarations themselves -------------------------------------


@register(
    "TLP501",
    "mode-declaration-mismatch",
    Severity.ERROR,
    "a MODE declaration matches no PRED declaration (wrong arity or "
    "undeclared predicate) or conflicts with an earlier mode declaration",
    "§7 (modes, after [DH88])",
)
def check_mode_declarations(ctx: LintContext) -> None:
    if not ctx.mode_decls:
        return
    world = _world(ctx)
    seen: Dict[_Indicator, Tuple[Tuple[str, ...], object]] = {}
    for item in ctx.source.items:
        if isinstance(item, ModeDecl):
            name, modes, inline = item.name, item.modes, False
        elif isinstance(item, PredDecl) and item.modes is not None:
            name, modes, inline = item.head.functor, item.modes, True
        else:
            continue
        indicator = (name, len(modes))
        first = seen.get(indicator)
        if first is not None and first[0] != modes:
            fixits: Tuple[FixIt, ...] = ()
            if item.position.has_span:
                replacement = _render_mode_decl(ctx, indicator, first[0])
                # The later declaration loses; rewriting an inline PRED
                # line keeps its types and only changes the modes.
                if inline:
                    pred_args = ", ".join(
                        f"{mode} {pretty(arg)}"
                        for mode, arg in zip(first[0], item.head.args)
                    )
                    replacement = f"PRED {name}({pred_args})."
                fixits = (
                    FixIt(
                        f"restate the earlier declaration "
                        f"`{name}({', '.join(first[0])})`",
                        replacement,
                        item.position,
                    ),
                )
            ctx.report(
                check_mode_declarations._rule,
                f"conflicting mode declaration for {name}/{len(modes)}: "
                f"{', '.join(modes)} here but {', '.join(first[0])} earlier",
                item.position,
                fixits=fixits,
            )
            continue
        seen.setdefault(indicator, (modes, item))
        if inline:
            continue  # the inline form is arity-correct by construction
        declared_arities = set(ctx.pred_names.get(name, []))
        if not declared_arities:
            ctx.report(
                check_mode_declarations._rule,
                f"MODE declaration for {name}/{len(modes)} but no PRED "
                f"declaration for {name}",
                item.position,
                fixits=(
                    FixIt(
                        f"declare `PRED {name}(...).` with {len(modes)} "
                        f"argument types, or remove the MODE line"
                    ),
                ),
            )
            continue
        if len(modes) in declared_arities:
            continue
        fixits = ()
        if len(declared_arities) == 1 and item.position.has_span:
            arity = next(iter(declared_arities))
            target = (name, arity)
            if world is not None:
                inferred = _inferred_modes(world, target)
            else:
                inferred = tuple(IN for _ in range(arity))
            adjusted = tuple(
                modes[position] if position < len(modes) else inferred[position]
                for position in range(arity)
            )
            fixits = (
                FixIt(
                    f"match the declared arity: `MODE {name}"
                    f"({', '.join(adjusted)}).`",
                    f"MODE {name}({', '.join(adjusted)}).",
                    item.position,
                ),
            )
        ctx.report(
            check_mode_declarations._rule,
            f"MODE declaration for {name}/{len(modes)} does not match the "
            f"declared arity "
            f"{'/'.join(str(a) for a in sorted(declared_arities))} of PRED "
            f"{name}",
            item.position,
            fixits=fixits,
        )


# -- TLP502: ill-moded call sites --------------------------------------------


@register(
    "TLP502",
    "ill-moded-call",
    Severity.ERROR,
    "a call site consumes a variable against the declared flow direction "
    "(supertype production into a subtype IN position, or consumption "
    "before any production)",
    "§7 (modes, after [DH88])",
)
def check_ill_moded_calls(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in _owners(ctx):
        if not _checkable(world, owner):
            continue
        for violation in _report_for(world, owner).violations:
            if violation.at_head:
                continue  # the head's OUT epilogue is TLP503's
            fixits: Tuple[FixIt, ...] = ()
            if violation.kind == FLOW:
                sigma = pretty(violation.produced_type)
                tau = pretty(violation.consumer_type)
                filter_name = _filter_name(
                    violation.produced_type, violation.consumer_type
                )
                description = (
                    f"insert the filter goal `{filter_name}"
                    f"({violation.variable.name}, ...)` before "
                    f"{pretty(violation.atom)} and consume the narrowed "
                    f"variable instead (declare `PRED {filter_name}"
                    f"({sigma}, {tau}).` with `MODE {filter_name}(IN, OUT).` "
                    f"if it does not exist)"
                )
                rewrite = _filter_rewrite(owner, violation)
                if rewrite is not None and owner.position.has_span:
                    fixits = (FixIt(description, rewrite, owner.position),)
                else:
                    fixits = (FixIt(description),)
            else:
                fixits = (
                    FixIt(
                        f"produce {violation.variable.name} before "
                        f"{pretty(violation.atom)} (reorder the body or add "
                        f"a producing goal)"
                    ),
                )
            world.flagged.add(id(owner))
            ctx.report(
                check_ill_moded_calls._rule,
                f"ill-moded call: {violation}",
                owner.position,
                fixits=fixits,
            )


# -- TLP503: declared modes vs the clause dataflow ---------------------------


@register(
    "TLP503",
    "mode-contradicts-dataflow",
    Severity.WARNING,
    "a head OUT position is never produced by its clause (or is produced "
    "at a type that cannot flow out) — the declaration contradicts the "
    "dataflow",
    "§7 (modes, after [DH88])",
)
def check_declaration_vs_dataflow(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in _owners(ctx):
        if not isinstance(owner, ClauseDecl) or not _checkable(world, owner):
            continue
        for violation in _report_for(world, owner).violations:
            if not violation.at_head:
                continue
            indicator = owner.head.indicator
            decl = ctx.mode_decls.get(indicator)
            fixits: Tuple[FixIt, ...] = ()
            if (
                violation.kind == UNPRODUCED
                and decl is not None
                and decl.position.has_span
            ):
                flipped = tuple(
                    IN if position == violation.position else mode
                    for position, mode in enumerate(decl.modes)
                )
                fixits = (
                    FixIt(
                        f"declare the position IN instead: "
                        f"`{_render_mode_decl(ctx, indicator, flipped)}`",
                        _render_mode_decl(ctx, indicator, flipped),
                        decl.position,
                    ),
                )
            world.flagged.add(id(owner))
            ctx.report(
                check_declaration_vs_dataflow._rule,
                f"declared modes contradict the clause dataflow: {violation}",
                owner.position,
                fixits=fixits,
            )


# -- TLP504: well-modedness (the [DH88] directional conditions) --------------


@register(
    "TLP504",
    "not-well-moded",
    Severity.ERROR,
    "the clause fails strict Definition 16 well-typedness and the "
    "directional (moded) fallback rejects it too",
    "§7 (modes; Smaus–Fages–Deransart subject-reduction conditions)",
)
def check_well_modedness(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in _owners(ctx):
        if id(owner) in world.flagged or not _checkable(world, owner):
            continue  # TLP502/503 already explain the failure
        if isinstance(owner, ClauseDecl):
            report = world.moded.check_clause(Clause(owner.head, owner.body))
        else:
            report = world.moded.check_query(Query(owner.body))
        if report.well_typed:
            continue
        fixits: Tuple[FixIt, ...] = ()
        missing = _missing_mode_indicators(world, owner)
        if missing and owner.position.has_span:
            lines = []
            for indicator in missing:
                inferred = _inferred_modes(world, indicator)
                lines.append(f"MODE {indicator[0]}({', '.join(inferred)}).")
            fixits = (
                FixIt(
                    "declare modes for the predicates carrying shared "
                    "variables: " + " ".join(f"`{line}`" for line in lines),
                    "\n".join(lines) + "\n" + _render_owner(owner),
                    owner.position,
                ),
            )
        ctx.report(
            check_well_modedness._rule,
            f"not well-moded: {_render_owner(owner)} — {report.reason}",
            owner.position,
            fixits=fixits,
        )


def _missing_mode_indicators(world: _ModeWorld, owner: _Owner) -> List[_Indicator]:
    """Predicates of ``owner`` that carry a shared (or repeated) variable
    but have no mode declaration, so the fix-it need not parse reasons."""
    missing: List[_Indicator] = []
    for _, atom in unmoded_shared(_goals_of(owner), world.moded.modes):
        if atom.indicator not in missing:
            missing.append(atom.indicator)
    return missing


# -- TLP505: OUT positions nothing can ever produce --------------------------


@register(
    "TLP505",
    "out-never-produced",
    Severity.WARNING,
    "a predicate declares an OUT position but has no clauses at that "
    "arity — the position is never produced",
    "§7 (modes, after [DH88])",
)
def check_unproduced_out(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    defined: Set[_Indicator] = {
        clause.head.indicator for clause in ctx.clause_items
    }
    called: Set[_Indicator] = set()
    for owner in _owners(ctx):
        for goal in _goals_of(owner):
            if isinstance(owner, ClauseDecl) and goal is owner.head:
                continue
            if not _is_constraint_goal(goal):
                called.add(goal.indicator)
    for indicator, decl in sorted(ctx.mode_decls.items()):
        name, arity = indicator
        if indicator in defined or OUT not in decl.modes:
            continue
        if indicator not in ctx.pred_decls:
            continue  # TLP501 reports the dangling declaration
        out_positions = [
            position + 1 for position, mode in enumerate(decl.modes) if mode == OUT
        ]
        fixits: Tuple[FixIt, ...] = ()
        if indicator not in called and decl.position.has_span:
            all_in = tuple(IN for _ in decl.modes)
            fixits = (
                FixIt(
                    f"no caller relies on the OUT claim — declare "
                    f"`{_render_mode_decl(ctx, indicator, all_in)}` (or "
                    f"define clauses for {name}/{arity})",
                    _render_mode_decl(ctx, indicator, all_in),
                    decl.position,
                ),
            )
        else:
            fixits = (
                FixIt(
                    f"define clauses for {name}/{arity} that bind the OUT "
                    f"position(s), or declare them IN"
                ),
            )
        positions = ", ".join(str(p) for p in out_positions)
        ctx.report(
            check_unproduced_out._rule,
            f"{name}/{arity} declares OUT argument(s) {positions} but has "
            f"no clauses — the position is never produced",
            decl.position,
            fixits=fixits,
        )
