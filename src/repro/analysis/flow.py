"""The subtype information-flow pass: rule ``TLP301`` (§7, after [DH88]).

The paper's concluding remarks observe that with ``PRED p(nat)`` and
``PRED q(int)`` (``int ⪰ nat``), the query ``:- q(X), p(X).`` is a
trap: ``q`` may bind ``X`` to *any* ``int`` — say ``pred(0)`` — which
``p`` must never see.  Information may only flow **sub→super**; the
remedies are mode declarations ([DH88]) or an explicit *filter
predicate* (``int2nat(X, N)``) that narrows the value.

This pass finds exactly those supertype→subtype flows statically:

1. **Mode inference.**  Where ``MODE`` declarations exist they are
   used.  For predicates *defined in the file*, OUT (producer)
   positions are inferred by an optimistic fixpoint dataflow over the
   call graph: every position starts OUT, and a head position loses the
   claim when some clause cannot bind all its variables from the body
   goals' OUT positions (facts bind their ground arguments outright).
   OUT is conditional on success, so optimism about recursive calls is
   sound.  Predicates that are declared but never defined produce
   nothing — their positions consume.
2. **Flow check.**  Each clause / query is replayed left to right by
   the walk the mode checker uses (:func:`repro.core.modes.dataflow`).
   Producer occurrences stamp their variables with the position's
   declared type; a later consumer occurrence at declared type ``τ``
   of a variable stamped ``σ`` is flagged when ``σ ≻ τ`` strictly —
   the value set shrinks along the flow, so some producible values are
   ill-typed at the consumer.  The fix-it suggests the §7 filter
   predicate (``int2nat``-style) by name.

Incomparable type pairs are left to the Definition 16 checker (they are
type errors, not flow errors), and the pass runs only when the
constraint set is uniform and guarded — the subtype engine's
termination guarantee requires both.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..checker.diagnostics import FixIt, Severity
from ..core.builtins import BUILTIN_MODES, is_builtin_indicator
from ..core.modes import IN, OUT, ModedAtom, dataflow
from ..lang.ast import ClauseDecl, QueryDecl
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, variables_of
from .context import LintContext, _is_constraint_goal
from .registry import register

_Indicator = Tuple[str, int]


def _declared_types(ctx: LintContext, atom: Struct) -> Optional[Tuple[Term, ...]]:
    pred = ctx.pred_decls.get(atom.indicator)
    return pred.head.args if pred is not None else None


class ModeInference:
    """IN/OUT positions per predicate: declared when present, otherwise
    inferred by the boundness least fixpoint described in the module
    docstring.

    With ``use_declared=False`` the inference ignores ``MODE``
    declarations for predicates *defined in the file* and reports what
    the dataflow alone supports — the "pure" producer sets the TLP503/
    TLP505 declaration-vs-dataflow rules compare declarations against.
    Declaration-only predicates keep their declared modes either way
    (there are no clauses to infer from).
    """

    def __init__(self, ctx: LintContext, use_declared: bool = True) -> None:
        self.ctx = ctx
        self.use_declared = use_declared
        self.defined: Dict[_Indicator, List[ClauseDecl]] = {}
        for clause in ctx.clause_items:
            self.defined.setdefault(clause.head.indicator, []).append(clause)
        # Optimistic (greatest) fixpoint: every position of a defined
        # predicate starts OUT and loses the claim when some clause
        # cannot bind it.  OUT means "ground *if* the goal succeeds", so
        # optimism about recursive calls is sound — a recursion with no
        # base case never succeeds, vacuously keeping its claim.
        self.out_positions: Dict[_Indicator, Set[int]] = {
            (name, arity): set(range(arity))
            for (name, arity) in self.defined
        }
        self._solve()

    def _declared_out(self, indicator: _Indicator) -> Optional[Set[int]]:
        if not self.use_declared and indicator in self.defined:
            return None
        mode = self.ctx.mode_decls.get(indicator)
        if mode is None:
            # Built-in constraint predicates carry fixed modes ('X is E'
            # produces X; comparisons consume) unless the file shadows
            # them with its own declarations.
            name, arity = indicator
            if (
                is_builtin_indicator(name, arity)
                and indicator not in self.ctx.pred_decls
            ):
                return {
                    i for i, m in enumerate(BUILTIN_MODES[name]) if m == OUT
                }
            return None
        return {i for i, m in enumerate(mode.modes) if m == OUT}

    def producer_positions(self, atom: Struct) -> Set[int]:
        """Positions of ``atom`` that bind their variables when the goal
        succeeds (declared OUT, or inferred for defined predicates;
        undefined predicates bind nothing)."""
        declared = self._declared_out(atom.indicator)
        if declared is not None:
            return declared
        return self.out_positions.get(atom.indicator, set())

    def consumer_positions(self, atom: Struct) -> Set[int]:
        """The complement: positions that read already-bound values."""
        producers = self.producer_positions(atom)
        return {i for i in range(len(atom.args)) if i not in producers}

    def _solve(self) -> None:
        changed = True
        while changed:
            changed = False
            for indicator, clauses in self.defined.items():
                if self._declared_out(indicator) is not None:
                    continue  # declared modes win; nothing to infer
                agreed: Optional[Set[int]] = None
                for clause in clauses:
                    bound: Set[Var] = set()
                    for goal in clause.body:
                        if _is_constraint_goal(goal):
                            continue
                        for position in self.producer_positions(goal):
                            if position < len(goal.args):
                                bound |= variables_of(goal.args[position])
                    ok = {
                        position
                        for position, arg in enumerate(clause.head.args)
                        if variables_of(arg) <= bound
                    }
                    agreed = ok if agreed is None else agreed & ok
                agreed = agreed or set()
                if agreed != self.out_positions[indicator]:
                    self.out_positions[indicator] = agreed
                    changed = True


def _filter_name(supertype: Term, subtype: Term) -> str:
    sup = supertype.functor if isinstance(supertype, Struct) else "super"
    sub = subtype.functor if isinstance(subtype, Struct) else "sub"
    return f"{sup}2{sub}"


@register(
    "TLP301",
    "subtype-information-flow",
    Severity.WARNING,
    "variable flows from a supertype position into a strict-subtype "
    "position without an intervening filter predicate",
    "§7 (the information-flow problem, after [DH88])",
)
def check_information_flow(ctx: LintContext) -> None:
    engine = ctx.engine
    if engine is None:
        return  # no uniform+guarded constraint set: pass does not apply
    for clause in ctx.clause_items:
        _check_flow(ctx, engine, clause, clause.head, clause.body)
    for query in ctx.query_items:
        _check_flow(ctx, engine, query, None, query.body)


def _check_flow(
    ctx: LintContext,
    engine,
    owner,
    head: Optional[Struct],
    goals: Tuple[Struct, ...],
) -> None:
    def moded(atom: Struct, types: Tuple[Term, ...]) -> ModedAtom:
        producers = ctx.mode_inference.producer_positions(atom)
        return atom, [
            (OUT if position in producers else IN, type_)
            for position, type_ in enumerate(types)
        ]

    def body() -> Iterator[ModedAtom]:
        for goal in goals:
            if _is_constraint_goal(goal):
                continue
            types = _declared_types(ctx, goal)
            if types is not None and len(types) == len(goal.args):
                yield moded(goal, types)
            # else: TLP201/TLP202 report the declaration problem

    head_types = _declared_types(ctx, head) if head is not None else None
    head_moded = moded(head, head_types) if head_types else None
    reported: Set[Tuple[str, int, str]] = set()
    for use in dataflow(head_moded, body()):
        tau, atom, var = use.type, use.atom, use.variable
        if variables_of(tau):
            continue  # polymorphic position: the TLP6xx solver's territory
        for sigma, producer, producer_pos in use.productions:
            if variables_of(sigma):
                continue  # polymorphic producer: likewise
            if engine.more_general(tau, sigma):
                continue  # sub→super: the safe direction
            if not engine.more_general(sigma, tau):
                continue  # incomparable: a typing problem, not a flow one
            if (
                producer.indicator in ctx.mode_decls
                and atom.indicator in ctx.mode_decls
            ):
                # Both endpoints carry explicit MODE declarations: the
                # flow is judged by the declared direction, and any
                # violation is TLP502's (with its structured
                # filter-insertion fix-it), not a TLP301 heuristic.
                continue
            key = (var.name, use.position, pretty(atom))
            if key in reported:
                continue
            reported.add(key)
            filter_name = _filter_name(sigma, tau)
            fresh = f"{var.name}_{_suffix(tau)}"
            ctx.report(
                check_information_flow._rule,
                f"variable {var.name} flows from supertype "
                f"{pretty(sigma)} (produced by {pretty(producer)} "
                f"argument {producer_pos + 1}) into the strict-subtype "
                f"position {pretty(atom)} argument {use.position + 1} of "
                f"type {pretty(tau)} without an intervening filter "
                f"predicate",
                owner.position,
                fixits=(
                    FixIt(
                        f"insert a filter goal "
                        f"`{filter_name}({var.name}, {fresh})` before "
                        f"{pretty(atom)} and consume {fresh} instead "
                        f"(declare `PRED {filter_name}"
                        f"({pretty(sigma)}, {pretty(tau)}).` with "
                        f"`MODE {filter_name}(IN, OUT).`)"
                    ),
                ),
            )


def _suffix(tau: Term) -> str:
    return tau.functor if isinstance(tau, Struct) else "narrow"
