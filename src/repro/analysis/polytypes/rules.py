"""The typed-CLP rule family ``TLP601``–``TLP605`` (after Fages & Coquery).

Where the ``TLP3xx``/``TLP5xx`` families check *ground* declared types,
this family handles the polymorphic extension: ``PRED`` declarations
with type variables (``PRED append(list(A), list(A), list(A)).``) and
built-in constraint predicates with declared numeric signatures.  Each
clause or query is compiled to a subtype-constraint graph (see
:mod:`.solver`) and solved against the finite set of ground types the
program mentions:

* ``TLP601`` — the collected bounds on some type variable (a use-site
  instance or a program variable's value type) admit no ground type:
  the clause is unsatisfiable under every instantiation.  Supertype→
  subtype crossings carry the §7 filter-insertion fix-it;
* ``TLP602`` — the same conflict, but caused by a built-in constraint
  signature: an argument of ``<``/``=<``/``=:=``/``is`` cannot be
  numeric;
* ``TLP603`` — a clause *commits* a universally quantified type
  variable of its own head declaration: the declaration promises every
  instantiation, the clause body only works for some.  When the
  committed domain has a maximum, the fix-it rewrites the ``PRED`` line
  with it;
* ``TLP604`` — a type variable that occurs only **once** in its
  declaration constrains nothing (any argument type is accepted there);
  when the defining clauses pin it down, the fix-it substitutes the
  principal (most general) bound;
* ``TLP605`` — a ``PRED``/``MODE``/clause definition shadows a built-in
  constraint predicate, suppressing its signature; the fix-it comments
  the declaration out.

The family is gated on the file actually leaving the paper's
monomorphic fragment — a polymorphic ``PRED`` declaration, an
unshadowed built-in goal, or (for ``TLP605`` alone) a shadowing
declaration.  Variable-free programs produce no ``TLP6xx`` findings and
are linted byte-for-byte as before (the differential the tests pin).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...checker.diagnostics import FixIt, Severity
from ...core.builtins import (
    BUILTIN_PREDICATES,
    is_builtin_goal,
    is_builtin_indicator,
    numeric_type_name,
)
from ...lang.ast import ClauseDecl, ModeDecl, PredDecl, QueryDecl
from ...obs import METRICS
from ...terms.pretty import pretty
from ...terms.term import Struct, Term, Var, variables_of
from ..context import LintContext, _is_constraint_goal
from ..flow import ModeInference, _filter_name
from ..modes import _fresh_name, _goals_of, _owners, _rename, _render_goals
from ..registry import register
from .solver import LOWER, MEMBER, UPPER, ConstraintGraph, Solution, ground_types_in

_Indicator = Tuple[str, int]


# -- the shared semantic world (built once per lint run) ---------------------


@dataclass
class _PolyWorld:
    """Everything the TLP6xx rules share: the candidate ground types,
    the (declaration-aware) mode inference driving constraint
    directions, the built-in signatures, and the per-item solutions."""

    engine: object
    candidates: Tuple[Term, ...]
    inference: ModeInference
    numeric: Optional[str]
    builtin_sig: Dict[str, Tuple[Term, ...]]
    poly_decls: Dict[_Indicator, PredDecl]
    solved: Dict[int, Tuple[ConstraintGraph, Solution]] = field(default_factory=dict)


def _candidates(ctx: LintContext) -> Tuple[Term, ...]:
    """Every ground type the program mentions (Fages & Coquery solve
    over this finite set), deduplicated and sorted for determinism."""
    seen: Dict[str, Term] = {}

    def note(term: Term) -> None:
        for ground in ground_types_in(term, ctx.is_type_name):
            seen.setdefault(pretty(ground), ground)

    for pred in ctx.pred_decls.values():
        for arg in pred.head.args:
            note(arg)
    for item in ctx.constraint_items:
        note(item.lhs)
    numeric = numeric_type_name(ctx.type_decls)
    if numeric is not None:
        seen.setdefault(numeric, Struct(numeric, ()))
    return tuple(seen[key] for key in sorted(seen))


def _world(ctx: LintContext) -> Optional[_PolyWorld]:
    cached = ctx.__dict__.get("_tlp6_world", "unset")
    if cached != "unset":
        return cached
    world: Optional[_PolyWorld] = None
    engine = ctx.engine
    if engine is not None:
        poly = {
            indicator: decl
            for indicator, decl in ctx.pred_decls.items()
            if any(variables_of(arg) for arg in decl.head.args)
        }
        builtin_used = any(
            not _is_constraint_goal(goal)
            and is_builtin_goal(goal)
            and goal.indicator not in ctx.pred_decls
            for owner in _owners(ctx)
            for goal in _goals_of(owner)
        )
        if poly or builtin_used:
            with METRICS.time("analysis.polytypes.build"):
                numeric = numeric_type_name(ctx.type_decls)
                builtin_sig: Dict[str, Tuple[Term, ...]] = {}
                if numeric is not None:
                    tau: Term = Struct(numeric, ())
                    builtin_sig = {
                        name: (tau,) * arity
                        for name, arity in BUILTIN_PREDICATES.items()
                    }
                world = _PolyWorld(
                    engine,
                    _candidates(ctx),
                    ctx.mode_inference,
                    numeric,
                    builtin_sig,
                    poly,
                )
            if METRICS.enabled:
                METRICS.inc("analysis.polytypes.files")
    ctx.__dict__["_tlp6_world"] = world
    return world


def _involved(world: _PolyWorld, ctx: LintContext, owner) -> bool:
    """True iff the item leaves the monomorphic fragment: it calls (or
    is a clause of) a polymorphic predicate, or uses a built-in goal."""
    for goal in _goals_of(owner):
        if _is_constraint_goal(goal):
            continue
        if goal.indicator in world.poly_decls:
            return True
        if is_builtin_goal(goal) and goal.indicator not in ctx.pred_decls:
            return True
    return False


# -- constraint collection ---------------------------------------------------


def _rigid_key(var: Var) -> str:
    return f"type {var.name}"


def _position_types(
    world: _PolyWorld, ctx: LintContext, goal: Struct, is_head: bool, instance: int
):
    """Per-position type entries for ``goal``: ``("ground", τ)``,
    ``("node", key, display)`` for a type-variable position, or ``None``
    for positions the collection skips (compound types carrying
    variables — deliberately coarse).  Returns ``(None, False)`` when
    the goal has no usable signature."""
    decl = ctx.pred_decls.get(goal.indicator)
    if decl is not None:
        if len(decl.head.args) != len(goal.args):
            return None, False
        entries = []
        for arg_type in decl.head.args:
            if not variables_of(arg_type):
                entries.append(("ground", arg_type))
            elif isinstance(arg_type, Var):
                # Head occurrences keep the declaration's (rigid)
                # variable; body occurrences are renamed apart per atom.
                key = (
                    _rigid_key(arg_type)
                    if is_head
                    else f"type {arg_type.name}@{instance}"
                )
                entries.append(("node", key, arg_type.name))
            else:
                entries.append(None)
        return entries, False
    if is_builtin_goal(goal):
        signature = world.builtin_sig.get(goal.functor)
        if signature is None:
            return None, False  # no numeric lattice: nothing to check
        return [("ground", tau) for tau in signature], True
    return None, False


def _collect(world: _PolyWorld, ctx: LintContext, owner) -> ConstraintGraph:
    """Compile one clause/query to its subtype-constraint graph.

    Producer positions contribute lower bounds (values flow *in*),
    consumer positions upper bounds (values must *fit*), ground argument
    terms membership constraints.  The clause head is dual: its IN
    positions are produced by the caller, its OUT positions consumed by
    the caller (the :mod:`..flow` convention)."""
    graph = ConstraintGraph(world.engine, world.candidates)
    head = owner.head if isinstance(owner, ClauseDecl) else None
    if head is not None:
        decl = ctx.pred_decls.get(head.indicator)
        if decl is not None:
            for arg in decl.head.args:
                for var in sorted(variables_of(arg), key=lambda v: v.name):
                    graph.node(_rigid_key(var), var.name, rigid=True)
    instance = 0
    for goal in _goals_of(owner):
        if _is_constraint_goal(goal):
            continue
        is_head = head is not None and goal is head
        if not is_head:
            instance += 1
        entries, builtin = _position_types(world, ctx, goal, is_head, instance)
        if entries is None:
            continue
        producers = world.inference.producer_positions(goal)
        if is_head:
            produced = {
                index for index in range(len(goal.args)) if index not in producers
            }
        else:
            produced = producers
        for position, (entry, arg) in enumerate(zip(entries, goal.args)):
            if entry is None:
                continue
            origin = f"argument {position + 1} of {pretty(goal)}"
            arg_vars = variables_of(arg)
            if entry[0] == "ground":
                tau = entry[1]
                if not arg_vars:
                    graph.check_member(tau, arg, origin, builtin)
                elif isinstance(arg, Var):
                    vkey = f"var {arg.name}"
                    graph.node(vkey, arg.name)
                    if position in produced:
                        graph.add_lower(
                            vkey, tau, origin, builtin, atom=goal, position=position
                        )
                    else:
                        graph.add_upper(
                            vkey, tau, origin, builtin, atom=goal, position=position
                        )
                continue
            _, key, display = entry
            graph.node(key, display, rigid=is_head)
            if not arg_vars:
                graph.add_member(key, arg, origin, builtin, atom=goal, position=position)
            elif isinstance(arg, Var):
                vkey = f"var {arg.name}"
                graph.node(vkey, arg.name)
                if position in produced:
                    graph.add_edge(key, vkey, origin, builtin)
                else:
                    graph.add_edge(vkey, key, origin, builtin)
    return graph


def _solution(world: _PolyWorld, ctx: LintContext, owner) -> Tuple[ConstraintGraph, Solution]:
    key = id(owner)
    found = world.solved.get(key)
    if found is None:
        with METRICS.time("analysis.polytypes.solve"):
            graph = _collect(world, ctx, owner)
            solution = graph.solve()
        if METRICS.enabled:
            METRICS.inc("analysis.polytypes.owners")
            if solution.witnesses:
                METRICS.inc("analysis.polytypes.witnesses", len(solution.witnesses))
        found = (graph, solution)
        world.solved[key] = found
    return found


# -- witness classification and fix-its --------------------------------------


def _admits(engine, gamma: Term, bounds) -> bool:
    for bound in bounds:
        if bound.kind == LOWER and not engine.holds(gamma, bound.type):
            return False
        if bound.kind == UPPER and not engine.holds(bound.type, gamma):
            return False
        if bound.kind == MEMBER and not engine.contains(gamma, bound.term):
            return False
    return True


def _builtin_caused(world: _PolyWorld, witness) -> bool:
    """A conflict is the built-in's fault when some built-in signature
    contributed a bound AND dropping the built-in bounds makes the rest
    satisfiable — otherwise the user-level constraints conflict on
    their own and TLP601 owns the report."""
    if not witness.builtin and not any(b.builtin for b in witness.bounds):
        return False
    user_bounds = [bound for bound in witness.bounds if not bound.builtin]
    if not user_bounds:
        return True
    return any(
        _admits(world.engine, gamma, user_bounds) for gamma in world.candidates
    )


def _render_rewritten(owner, goals) -> str:
    if isinstance(owner, QueryDecl):
        return f":- {_render_goals(goals)}."
    return f"{pretty(owner.head)} :- {_render_goals(goals)}."


def _filter_fix(ctx: LintContext, owner, witness, engine) -> Optional[FixIt]:
    """The §7 remedy for a supertype→subtype crossing: insert the
    ``int2nat``-style filter before the consumer and consume the
    narrowed variable.  Applies when the witness pools a ground lower
    bound σ and a ground upper bound τ with σ ≻ τ strictly and the
    consuming occurrence is a plain variable in the item's body."""
    lowers = [b for b in witness.bounds if b.kind == LOWER and b.type is not None]
    uppers = [
        b
        for b in witness.bounds
        if b.kind == UPPER
        and b.type is not None
        and b.atom is not None
        and b.position is not None
    ]
    for upper in uppers:
        index = next(
            (i for i, goal in enumerate(owner.body) if goal is upper.atom), None
        )
        if index is None:
            continue
        arg = upper.atom.args[upper.position]
        if not isinstance(arg, Var):
            continue
        tau = upper.type
        for lower in lowers:
            sigma = lower.type
            if not engine.holds(sigma, tau) or engine.holds(tau, sigma):
                continue  # not a strict supertype→subtype crossing
            filter_name = _filter_name(sigma, tau)
            fresh = Var(_fresh_name(owner, arg, tau))
            rewritten = Struct(
                upper.atom.functor,
                tuple(
                    _rename(a, arg, fresh) if p == upper.position else a
                    for p, a in enumerate(upper.atom.args)
                ),
            )
            goals = list(owner.body)
            goals[index] = rewritten
            goals.insert(index, Struct(filter_name, (arg, fresh)))
            description = (
                f"insert the filter goal `{filter_name}({arg.name}, "
                f"{fresh.name})` before {pretty(upper.atom)} and consume "
                f"{fresh.name} instead (declare `PRED {filter_name}"
                f"({pretty(sigma)}, {pretty(tau)}).` with "
                f"`MODE {filter_name}(IN, OUT).` if it does not exist)"
            )
            if owner.position.has_span:
                return FixIt(description, _render_rewritten(owner, goals), owner.position)
            return FixIt(description)
    return None


def _principal(engine, domain) -> Optional[Term]:
    """The maximum of ``domain`` under ``⪰_C`` — the most general type
    a committed variable still works at — when one exists."""
    for gamma in domain:
        if all(engine.holds(gamma, other) for other in domain):
            return gamma
    return None


def _decl_var_occurrences(decl: PredDecl) -> Dict[str, int]:
    counts: Dict[str, int] = {}

    def walk(term: Term) -> None:
        if isinstance(term, Var):
            counts[term.name] = counts.get(term.name, 0) + 1
        elif isinstance(term, Struct):
            for arg in term.args:
                walk(arg)

    for arg in decl.head.args:
        walk(arg)
    return counts


def _render_pred_decl(decl: PredDecl, substitution: Dict[str, Term]) -> str:
    """The ``PRED`` line with ``substitution`` applied to its argument
    types, preserving §7 inline modes."""

    def subst(term: Term) -> Term:
        if isinstance(term, Var):
            return substitution.get(term.name, term)
        if isinstance(term, Struct):
            return Struct(term.functor, tuple(subst(arg) for arg in term.args))
        return term

    args = [pretty(subst(arg)) for arg in decl.head.args]
    if decl.modes is not None:
        args = [f"{mode} {arg}" for mode, arg in zip(decl.modes, args)]
    name = decl.head.functor
    if not args:
        return f"PRED {name}."
    return f"PRED {name}({', '.join(args)})."


# -- TLP601: unsolvable type-variable bounds ---------------------------------


@register(
    "TLP601",
    "unsolvable-variable-bounds",
    Severity.ERROR,
    "the subtype constraints collected on a type variable admit no "
    "ground type of the declared lattice — the clause or query is "
    "ill-typed under every instantiation",
    "typed CLP (Fages & Coquery), after §S4–S7",
)
def check_unsolvable_bounds(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in _owners(ctx):
        if not _involved(world, ctx, owner):
            continue
        _, solution = _solution(world, ctx, owner)
        for witness in solution.witnesses:
            if _builtin_caused(world, witness):
                continue  # TLP602's report
            fixits: Tuple[FixIt, ...] = ()
            fix = _filter_fix(ctx, owner, witness, world.engine)
            if fix is not None:
                fixits = (fix,)
            else:
                fixits = (
                    FixIt(
                        "weaken one of the conflicting positions (the bounds "
                        "meet on a shared variable), or split the variable"
                    ),
                )
            ctx.report(
                check_unsolvable_bounds._rule,
                f"unsatisfiable subtype constraints on {witness.node.display}: "
                f"{witness.describe_bounds()}",
                owner.position,
                fixits=fixits,
            )


# -- TLP602: ill-typed built-in constraint calls -----------------------------


@register(
    "TLP602",
    "ill-typed-builtin-call",
    Severity.ERROR,
    "an argument of a built-in constraint predicate (<, =<, =:=, is) "
    "cannot be numeric under the declared lattice",
    "typed CLP (Fages & Coquery): built-in constraint signatures",
)
def check_builtin_calls(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in _owners(ctx):
        if not _involved(world, ctx, owner):
            continue
        _, solution = _solution(world, ctx, owner)
        for witness in solution.witnesses:
            if not _builtin_caused(world, witness):
                continue
            fixits: Tuple[FixIt, ...] = ()
            fix = _filter_fix(ctx, owner, witness, world.engine)
            if fix is not None:
                fixits = (fix,)
            else:
                numeric = world.numeric or "a numeric type"
                fixits = (
                    FixIt(
                        f"built-ins range over `{numeric}` here — produce the "
                        f"argument at a subtype of `{numeric}`, or drop the "
                        f"built-in goal"
                    ),
                )
            ctx.report(
                check_builtin_calls._rule,
                f"ill-typed built-in constraint call: "
                f"{witness.describe_bounds()}",
                owner.position,
                fixits=fixits,
            )


# -- TLP603: clauses committing universally quantified variables -------------


@register(
    "TLP603",
    "polymorphic-declaration-mismatch",
    Severity.ERROR,
    "a clause commits a universally quantified type variable of its own "
    "head declaration to a strict subset of the ground types — the "
    "declaration promises every instantiation",
    "typed CLP (Fages & Coquery): parametric declarations are universal",
)
def check_committed_declarations(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for owner in ctx.clause_items:
        if not _involved(world, ctx, owner):
            continue
        decl = world.poly_decls.get(owner.head.indicator)
        if decl is None:
            continue
        _, solution = _solution(world, ctx, owner)
        if not solution.satisfiable:
            continue  # TLP601/602 already explain the clause
        occurrences = _decl_var_occurrences(decl)
        for name, count in sorted(occurrences.items()):
            if count < 2:
                continue  # single-occurrence variables are TLP604's
            key = _rigid_key(Var(name))
            if not solution.committed(key):
                continue
            domain = solution.domain_of(key)
            rendered = ", ".join(pretty(gamma) for gamma in domain)
            fixits: Tuple[FixIt, ...] = ()
            principal = _principal(world.engine, domain)
            if principal is not None and decl.position.has_span:
                replacement = _render_pred_decl(decl, {name: principal})
                fixits = (
                    FixIt(
                        f"the clause only works at {{{rendered}}} — declare "
                        f"the principal instance instead: `{replacement}`",
                        replacement,
                        decl.position,
                    ),
                )
            else:
                fixits = (
                    FixIt(
                        f"generalize the clause to work at every type, or "
                        f"declare a concrete instance (it only works at "
                        f"{{{rendered}}})"
                    ),
                )
            ctx.report(
                check_committed_declarations._rule,
                f"clause commits the universally quantified type variable "
                f"{name} of PRED {owner.head.functor}/"
                f"{len(owner.head.args)} to {{{rendered}}} — the "
                f"declaration promises every instantiation",
                owner.position,
                fixits=fixits,
            )


# -- TLP604: type variables that constrain nothing ---------------------------


@register(
    "TLP604",
    "unconstrained-type-variable",
    Severity.WARNING,
    "a type variable occurs only once in its PRED declaration — it "
    "links no positions, so any argument type is accepted there",
    "typed CLP (Fages & Coquery): parametric declarations link positions",
)
def check_single_occurrence_variables(ctx: LintContext) -> None:
    world = _world(ctx)
    if world is None:
        return
    for indicator, decl in sorted(world.poly_decls.items()):
        occurrences = _decl_var_occurrences(decl)
        for name, count in sorted(occurrences.items()):
            if count != 1:
                continue
            fixits: Tuple[FixIt, ...] = ()
            principal = _clause_principal(world, ctx, indicator, name)
            if principal is not None and decl.position.has_span:
                replacement = _render_pred_decl(decl, {name: principal})
                fixits = (
                    FixIt(
                        f"the defining clauses pin the position down — "
                        f"declare it concretely: `{replacement}`",
                        replacement,
                        decl.position,
                    ),
                )
            else:
                fixits = (
                    FixIt(
                        f"replace {name} with a concrete type, or repeat it "
                        f"at another argument position to link the two"
                    ),
                )
            ctx.report(
                check_single_occurrence_variables._rule,
                f"type variable {name} occurs only once in PRED "
                f"{indicator[0]}/{indicator[1]} — it links no positions, "
                f"so any argument type is accepted there",
                decl.position,
                fixits=fixits,
            )


def _clause_principal(
    world: _PolyWorld, ctx: LintContext, indicator: _Indicator, name: str
) -> Optional[Term]:
    """The most general type the defining clauses still admit for the
    declaration variable ``name`` — only when they genuinely commit it
    (the intersected domain is a strict, non-empty subset)."""
    key = _rigid_key(Var(name))
    intersection: Optional[Dict[str, Term]] = None
    for owner in ctx.clause_items:
        if owner.head.indicator != indicator:
            continue
        _, solution = _solution(world, ctx, owner)
        if not solution.satisfiable:
            return None
        domain = {pretty(gamma): gamma for gamma in solution.domain_of(key)}
        if intersection is None:
            intersection = domain
        else:
            intersection = {
                rendered: gamma
                for rendered, gamma in intersection.items()
                if rendered in domain
            }
    if not intersection or len(intersection) >= len(world.candidates):
        return None
    return _principal(world.engine, list(intersection.values()))


# -- TLP605: shadowed built-in constraint predicates -------------------------


@register(
    "TLP605",
    "builtin-shadowed",
    Severity.WARNING,
    "a PRED/MODE declaration or clause redefines a built-in constraint "
    "predicate, suppressing its numeric signature",
    "typed CLP (Fages & Coquery): built-ins carry fixed signatures",
)
def check_builtin_shadowing(ctx: LintContext) -> None:
    for item in ctx.source.items:
        if isinstance(item, PredDecl):
            name, arity = item.head.indicator
            if not is_builtin_indicator(name, arity):
                continue
            args = [pretty(arg) for arg in item.head.args]
            if item.modes is not None:
                args = [f"{m} {a}" for m, a in zip(item.modes, args)]
            line = f"PRED {name}({', '.join(args)})."
            _report_shadowing(ctx, item, name, arity, line)
        elif isinstance(item, ModeDecl):
            name, arity = item.name, len(item.modes)
            if not is_builtin_indicator(name, arity):
                continue
            line = f"MODE {name}({', '.join(item.modes)})."
            _report_shadowing(ctx, item, name, arity, line)
        elif isinstance(item, ClauseDecl):
            if not is_builtin_goal(item.head):
                continue
            name, arity = item.head.indicator
            ctx.report(
                check_builtin_shadowing._rule,
                f"clause redefines the built-in constraint predicate "
                f"{name}/{arity} — its numeric signature is suppressed "
                f"for this file",
                item.position,
                fixits=(
                    FixIt(
                        f"rename the predicate (e.g. `my_{_slug(name)}`) so "
                        f"the built-in keeps its signature"
                    ),
                ),
            )


def _slug(name: str) -> str:
    return {"<": "lt", "=<": "leq", "=:=": "eq", "is": "is"}.get(name, name)


# -- the solver as a service (REPL ``:solve``, daemon ``solve`` op) ----------


def solve_text(text: str, path: str = "<text>") -> Optional[dict]:
    """Parse ``text`` and report the solved constraint graphs of every
    polymorphic/built-in item as plain JSON-ready data.

    Returns ``None`` when the file never leaves the monomorphic
    fragment (or the constraint set falls outside uniform+guarded, so
    no subtype engine exists).  Parse errors propagate — callers render
    them.
    """
    from ...lang.parser import parse_file
    from ..modes import _render_owner

    source = parse_file(text)
    ctx = LintContext.build(source, path=path)
    world = _world(ctx)
    if world is None:
        return None
    items = []
    for owner in _owners(ctx):
        if not _involved(world, ctx, owner):
            continue
        _, solution = _solution(world, ctx, owner)
        nodes = []
        for key in sorted(solution.nodes):
            node = solution.nodes[key]
            nodes.append(
                {
                    "key": key,
                    "display": node.display,
                    "rigid": node.rigid,
                    "domain": [pretty(gamma) for gamma in (node.domain or ())],
                }
            )
        items.append(
            {
                "item": _render_owner(owner),
                "line": owner.position.line,
                "satisfiable": solution.satisfiable,
                "nodes": nodes,
                "equalities": [list(group) for group in solution.equalities],
                "witnesses": [
                    {
                        "node": witness.node.display,
                        "builtin": _builtin_caused(world, witness),
                        "bounds": [bound.describe() for bound in witness.bounds],
                        "reason": witness.reason,
                    }
                    for witness in solution.witnesses
                ],
            }
        )
    return {
        "candidates": [pretty(gamma) for gamma in world.candidates],
        "items": items,
    }


def _report_shadowing(ctx: LintContext, item, name: str, arity: int, line: str) -> None:
    fixits: Tuple[FixIt, ...] = ()
    if item.position.has_span:
        fixits = (
            FixIt(
                f"comment the declaration out so the built-in keeps its "
                f"numeric signature: `% {line}`",
                f"% {line}",
                item.position,
            ),
        )
    else:
        fixits = (FixIt("remove the declaration"),)
    ctx.report(
        check_builtin_shadowing._rule,
        f"declaration shadows the built-in constraint predicate "
        f"{name}/{arity} — its numeric signature is suppressed for this "
        f"file",
        item.position,
        fixits=fixits,
    )
