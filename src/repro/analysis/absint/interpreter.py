"""Success-set inference: abstract interpretation over the call graph.

``ProgramInference`` computes, for every predicate *defined* in one
source file, an over-approximation of its success set in the type
domain of :mod:`.domain` — a least fixpoint per strongly-connected
component of the call graph (:mod:`.callgraph`), callee-first.

One clause is evaluated abstractly exactly the way the Section 7
checker evaluates it concretely, but with every type variable solvable:

1. each body goal's current success tuple is renamed apart and matched
   against the goal's arguments with the constraint-collecting
   ``match`` (:class:`~repro.core.constraint_match.ConstraintMatcher`);
2. the per-goal typings are merged; disagreements become equations;
3. all equations are solved by one unification (no rigid variables —
   inference has no declaration to hold rigid);
4. cover constraints are resolved with
   :class:`~repro.core.infer.CommonTypeInference` (the name-based-union
   search);
5. the head arguments, with each program variable replaced by its
   solved type (unconstrained variables become ⊤), are the clause's
   contribution, joined into the predicate's abstract value.

**Approximation direction.** The analysis is engineered to only ever
*over*-approximate: ``MATCH_BOTTOM``, unsolvable equations, and
uninferable covers all degrade to "no information" (⊤) — never to
failure.  The only ways a clause contributes nothing are a structural
``MATCH_FAIL`` against a callee's (over-approximated) success set and a
call to a predicate whose success set is still ⊥; both are sound under
a least-fixpoint reading.  Consequently "the final abstract value says
this goal fails" really means the concrete goal has no successful
instance — the TLP401/TLP402 rules built on top report no false
positives.

Predicates that are declared but not defined in the file (a corpus
member calling into a shared prelude's ``PRED``) are assumed to succeed
on their declared types; predicates that are neither declared nor
defined contribute no information at all (open world).

**The loop.** Each component is swept in a fixed order — every clause
of every predicate, then (from sweep ``widen_after`` on) one widening
step — until a sweep changes nothing.  A sweep skips a clause whose
defined callees are in the states its last evaluation saw: every
predicate carries a version, bumped at each state change (a join that
added a member, a widening that truncated one, the ⊤ cap), and each
clause remembers its callees' versions.  The skip is exact.  A clause's
contribution depends only on its callees' folded tuples and ⊥-ness, the
fixed ``PRED`` declarations and fresh names that ``canonical`` removes,
and re-joining a contribution already joined changes nothing, since some
current member (the contribution itself, the member that replaced it,
its widened truncation, or ⊤) subsumes it.  A component whose callees
are all in earlier components thus evaluates each clause once.

**Termination.** Joins are capped and canonically renamed (see the
domain), after ``widen_after`` iterations members are depth-truncated
(the depth-bounded widening that makes recursive *polymorphic*
predicates converge), and a hard iteration cap forces the component to
⊤ — so the fixpoint terminates on every input.

Telemetry (``repro.obs``): ``analysis.absint.fixpoint`` timer plus
``analysis.absint.{predicates,sccs,iterations,widenings}`` counters, and
``analysis.absint.evaluations`` / ``analysis.absint.reused`` — the
clause evaluations run and the ones skipped on unchanged callees.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ...core.constraint_match import ConstraintMatcher
from ...core.declarations import ConstraintSet
from ...core.infer import CommonTypeInference
from ...core.match import MATCH_BOTTOM, MATCH_FAIL
from ...core.subtype import SubtypeEngine
from ...lang.ast import ClauseDecl, PredDecl, QueryDecl
from ...obs import METRICS
from ...terms.pretty import pretty
from ...terms.substitution import Substitution
from ...terms.term import (
    Struct,
    Term,
    Var,
    fresh_variable,
    rename_apart,
    variables_of,
)
from ...terms.unify import unify
from .callgraph import CallGraph, Indicator, _is_constraint_goal
from .domain import SuccessSet, TypeDomain, canonical

__all__ = ["ProgramInference", "GoalVerdict"]


def _shown(renamed: Struct, position: int, beside: Term) -> str:
    """Component ``position`` of a renamed-apart tuple, for a message:
    variables numbered by first appearance in the whole tuple, so the
    text does not depend on the process-wide fresh-variable counter, and
    named apart from the variables of ``beside``, the user's term the
    message shows with it."""
    shown = canonical(renamed, avoid=variables_of(beside))
    return pretty(shown.args[position])  # type: ignore[union-attr]


class GoalVerdict:
    """Outcome of evaluating one body/query goal against the current
    abstract state."""

    __slots__ = ("status", "typing", "equations", "covers", "reason")

    #: goal can never succeed (structural mismatch or ⊥ callee)
    FAIL = "fail"
    #: goal matched; typing information collected
    OK = "ok"
    #: no information (unknown predicate, constraint goal, ⊥-degradation)
    SKIP = "skip"

    def __init__(self, status, typing=None, equations=(), covers=(), reason=""):
        self.status = status
        self.typing = typing or {}
        self.equations = list(equations)
        self.covers = list(covers)
        self.reason = reason


class ProgramInference:
    """Whole-file success-set inference (built once, queried by rules)."""

    def __init__(
        self,
        clauses: Sequence[ClauseDecl],
        queries: Sequence[QueryDecl],
        pred_decls: Dict[Indicator, PredDecl],
        constraints: ConstraintSet,
        engine: SubtypeEngine,
        max_iterations: int = 20,
        widen_after: int = 6,
    ) -> None:
        self.clauses = list(clauses)
        self.queries = list(queries)
        self.pred_decls = dict(pred_decls)
        self.constraints = constraints
        self.engine = engine
        self.domain = TypeDomain(constraints, engine)
        self.matcher = ConstraintMatcher(constraints, validate=False)
        self.common = CommonTypeInference(constraints, self.matcher)
        self.max_iterations = max_iterations
        self.widen_after = widen_after

        self.clauses_by_pred: Dict[Indicator, List[ClauseDecl]] = {}
        for clause in self.clauses:
            self.clauses_by_pred.setdefault(clause.head.indicator, []).append(clause)
        self.graph = CallGraph.from_clauses(self.clauses)

        #: Per-defined-predicate state: None = ⊥, else per-position member lists.
        self._state: Dict[Indicator, Optional[List[List[Term]]]] = {
            indicator: None for indicator in self.clauses_by_pred
        }
        self._fold_memo: Dict[Indicator, Tuple[Term, ...]] = {}
        #: Per-defined-predicate state version, bumped at every change.
        self._version: Dict[Indicator, int] = dict.fromkeys(self.clauses_by_pred, 0)
        self._widened: Set[Indicator] = set()
        self.iterations = 0
        self.widenings = 0
        self.evaluations = 0
        self.reused = 0
        #: Final abstract values, filled by the fixpoint.
        self.success: Dict[Indicator, SuccessSet] = {}
        self._reconstructions = None

        with METRICS.time("analysis.absint.fixpoint"):
            self._run()
        if METRICS.enabled:
            METRICS.inc("analysis.absint.predicates", len(self.clauses_by_pred))
            METRICS.inc("analysis.absint.iterations", self.iterations)
            METRICS.inc("analysis.absint.evaluations", self.evaluations)
            METRICS.inc("analysis.absint.reused", self.reused)
            if self.widenings:
                METRICS.inc("analysis.absint.widenings", self.widenings)

    @classmethod
    def from_context(cls, ctx) -> "ProgramInference":
        """Build from a :class:`~repro.analysis.context.LintContext`
        whose lazy ``engine`` is available (uniform + guarded)."""
        if ctx.engine is None:
            raise ValueError("success-set inference needs a subtype engine")
        return cls(
            ctx.clause_items,
            ctx.query_items,
            ctx.pred_decls,
            ctx.constraints,
            ctx.engine,
        )

    # -- the fixpoint --------------------------------------------------------

    def _run(self) -> None:
        for component in self.graph.sccs():
            defined = [i for i in component if i in self.clauses_by_pred]
            if not defined:
                continue
            if METRICS.enabled:
                METRICS.inc("analysis.absint.sccs")
            work = [
                (indicator, clause, self._defined_callees(clause))
                for indicator in defined
                for clause in self.clauses_by_pred[indicator]
            ]
            # The callee versions each clause was last evaluated under.
            stamps: List[Optional[Tuple[int, ...]]] = [None] * len(work)
            iteration = 0
            while True:
                iteration += 1
                self.iterations += 1
                changed = False
                for index, (indicator, clause, callees) in enumerate(work):
                    stamp = tuple(self._version[callee] for callee in callees)
                    if stamp == stamps[index]:
                        # Same inputs as last time: that contribution is
                        # merged, and some current member subsumes it.
                        self.reused += 1
                        continue
                    stamps[index] = stamp
                    self.evaluations += 1
                    contribution = self._evaluate_clause(clause)
                    if contribution is not None:
                        changed |= self._merge(indicator, contribution)
                if iteration >= self.widen_after:
                    changed |= self._widen(defined)
                if not changed:
                    break
                if iteration >= self.max_iterations:
                    self._force_top(defined)
                    break
        for indicator in self.clauses_by_pred:
            state = self._state[indicator]
            if state is None:
                self.success[indicator] = SuccessSet(
                    indicator, members=(), folded=(), bottom=True
                )
            else:
                self.success[indicator] = SuccessSet(
                    indicator,
                    members=tuple(tuple(position) for position in state),
                    folded=self._folded(indicator),
                    widened=indicator in self._widened,
                )

    def _defined_callees(self, clause: ClauseDecl) -> Tuple[Indicator, ...]:
        """The defined predicates whose states ``clause``'s evaluation
        reads; everything else it reads (declared ``PRED`` types, the
        constraint set) is fixed for the whole fixpoint."""
        return tuple(
            goal.indicator
            for goal in clause.body
            if not _is_constraint_goal(goal) and goal.indicator in self.clauses_by_pred
        )

    def _changed(self, indicator: Indicator) -> None:
        """``indicator``'s state changed: drop its fold and stamp it anew."""
        self._fold_memo.pop(indicator, None)
        self._version[indicator] += 1

    def _merge(self, indicator: Indicator, contribution: Tuple[Term, ...]) -> bool:
        state = self._state[indicator]
        if state is None:
            self._state[indicator] = [
                [canonical(component)] for component in contribution
            ]
            self._changed(indicator)
            return True
        changed = False
        for position, component in enumerate(contribution):
            before = len(state[position])
            if self.domain.add_member(state[position], component):
                changed = True
                if len(state[position]) < before:
                    # The cap collapsed the position to ⊤.
                    self._widened.add(indicator)
                    self.widenings += 1
        if changed:
            self._changed(indicator)
        return changed

    def _widen(self, defined: Iterable[Indicator]) -> bool:
        changed = False
        for indicator in defined:
            state = self._state[indicator]
            if state is None:
                continue
            widened = False
            for position in state:
                if self.domain.widen_members(position):
                    widened = True
                    self._widened.add(indicator)
                    self.widenings += 1
            if widened:
                self._changed(indicator)
                changed = True
        return changed

    def _force_top(self, defined: Iterable[Indicator]) -> None:
        for indicator in defined:
            state = self._state[indicator]
            if state is None:
                continue
            for position in state:
                position[:] = [Var("_A0")]
            self._widened.add(indicator)
            self.widenings += 1
            self._changed(indicator)

    # -- views over the state ------------------------------------------------

    def is_defined(self, indicator: Indicator) -> bool:
        return indicator in self.clauses_by_pred

    def is_bottom(self, indicator: Indicator) -> bool:
        return self.is_defined(indicator) and self._state[indicator] is None

    def _folded(self, indicator: Indicator) -> Tuple[Term, ...]:
        cached = self._fold_memo.get(indicator)
        if cached is None:
            state = self._state[indicator]
            assert state is not None
            # Canonicalize jointly so distinct positions get distinct
            # variable names — per-position renaming would make two
            # independent ⊤ positions accidentally share one variable.
            carrier = canonical(
                Struct("$fold", tuple(self.domain.fold(position) for position in state))
            )
            cached = tuple(carrier.args)
            self._fold_memo[indicator] = cached
        return cached

    def success_tuple(self, indicator: Indicator) -> Optional[Tuple[Term, ...]]:
        """The tuple goals are matched against: the inferred folded view
        for defined predicates, the declared ``PRED`` types for
        declared-but-undefined ones, None when nothing is known (open
        world) *or* the success set is ⊥ (distinguish via
        :meth:`is_bottom`)."""
        if self.is_defined(indicator):
            if self._state[indicator] is None:
                return None
            return self._folded(indicator)
        declaration = self.pred_decls.get(indicator)
        if declaration is not None:
            return tuple(declaration.head.args)
        return None

    # -- abstract clause evaluation ------------------------------------------

    def evaluate_goal(self, goal: Struct, solvable: Set[Var]) -> GoalVerdict:
        """Match one goal's arguments against its predicate's success
        tuple; degradations are ⊤ (never failure), per the module
        docstring's approximation-direction contract."""
        if _is_constraint_goal(goal):
            return GoalVerdict(GoalVerdict.SKIP)
        indicator = goal.indicator
        if self.is_bottom(indicator):
            return GoalVerdict(
                GoalVerdict.FAIL,
                reason=(
                    f"{indicator[0]}/{indicator[1]} has an empty success set: "
                    f"no clause instance can ever succeed"
                ),
            )
        tuple_ = self.success_tuple(indicator)
        if tuple_ is None or len(tuple_) != len(goal.args):
            return GoalVerdict(GoalVerdict.SKIP)
        renamed, _mapping = rename_apart(Struct("$succ", tuple_))
        solvable.update(variables_of(renamed))
        verdict = GoalVerdict(GoalVerdict.OK)
        for position, (component, argument) in enumerate(zip(renamed.args, goal.args)):
            outcome = self.matcher.match(component, argument, solvable)
            if outcome.result is MATCH_FAIL:
                source = "inferred" if self.is_defined(indicator) else "declared"
                return GoalVerdict(
                    GoalVerdict.FAIL,
                    reason=(
                        f"argument {pretty(argument)} never matches the "
                        f"{source} success type "
                        f"{_shown(renamed, position, goal)}"
                    ),
                )
            if outcome.result is MATCH_BOTTOM:
                continue  # conservative: no information from this argument
            for variable, value in outcome.result.items():
                previous = verdict.typing.get(variable)
                if previous is None:
                    verdict.typing[variable] = value
                elif previous != value:
                    verdict.equations.append((previous, value))
            verdict.equations.extend(outcome.equations)
            verdict.covers.extend(outcome.covers)
        return verdict

    def _evaluate_clause(self, clause: ClauseDecl) -> Optional[Tuple[Term, ...]]:
        """One abstract clause evaluation; None when some body goal
        cannot succeed under the current abstract state."""
        solvable: Set[Var] = set()
        typing: Dict[Var, Term] = {}
        equations: List[Tuple[Term, Term]] = []
        covers: List[Tuple[Var, Term]] = []
        for goal in clause.body:
            verdict = self.evaluate_goal(goal, solvable)
            if verdict.status == GoalVerdict.FAIL:
                return None
            if verdict.status == GoalVerdict.SKIP:
                continue
            for variable, value in verdict.typing.items():
                previous = typing.get(variable)
                if previous is None:
                    typing[variable] = value
                elif previous != value:
                    equations.append((previous, value))
            equations.extend(verdict.equations)
            covers.extend(verdict.covers)

        solution = self._solve(equations)
        if solution is None:
            # Unsolvable equations degrade to "no body information" —
            # the over-approximation direction, never a failure.
            typing, covers, solution = {}, [], Substitution()
        solution = self._resolve_covers(covers, solution)

        components: List[Term] = []
        for argument in clause.head.args:
            components.append(self._type_of(argument, typing, solution))
        return tuple(components)

    def _solve(self, equations) -> Optional[Substitution]:
        if not equations:
            return Substitution()
        lefts = Struct("$eqs", tuple(left for left, _right in equations))
        rights = Struct("$eqs", tuple(right for _left, right in equations))
        return unify(lefts, rights)

    def _resolve_covers(self, covers, solution: Substitution) -> Substitution:
        grouped: Dict[Var, List[Term]] = {}
        for variable, covered in covers:
            grouped.setdefault(variable, []).append(covered)
        extra: Dict[Var, Term] = {}
        for variable, terms in grouped.items():
            bound = solution.apply(variable)
            if not isinstance(bound, Var):
                continue  # shape equations already committed it
            inferred = self.common.infer(terms)
            if inferred is not None:
                extra[bound] = inferred
        if not extra:
            return solution
        # Application is simultaneous, so chase the new commitments
        # through the existing bindings before merging.
        chase = Substitution(extra)
        merged = {variable: chase.apply(value) for variable, value in solution.items()}
        merged.update(extra)
        return Substitution(merged)

    def _type_of(
        self, argument: Term, typing: Dict[Var, Term], solution: Substitution
    ) -> Term:
        if isinstance(argument, Var):
            bound = typing.get(argument)
            if bound is None:
                return fresh_variable("_S")
            return solution.apply(bound)
        if not argument.args:
            return argument
        return Struct(
            argument.functor,
            tuple(self._type_of(arg, typing, solution) for arg in argument.args),
        )

    # -- final-state questions (the TLP4xx rules) ----------------------------

    def goal_failure(self, goal: Struct) -> Optional[str]:
        """A human-readable reason why ``goal`` can never succeed under
        the final abstract state, or None."""
        verdict = self.evaluate_goal(goal, set())
        if verdict.status == GoalVerdict.FAIL:
            return verdict.reason
        return None

    def dead_clause_reason(self, clause: ClauseDecl) -> Optional[str]:
        """Why the clause is dead: a body goal that always fails, or a
        head that never matches the declared success set."""
        for goal in clause.body:
            if _is_constraint_goal(goal):
                continue
            reason = self.goal_failure(goal)
            if reason is not None:
                return f"body goal {pretty(goal)} always fails: {reason}"
        declaration = self.pred_decls.get(clause.head.indicator)
        if declaration is not None and len(declaration.head.args) == len(
            clause.head.args
        ):
            renamed, _mapping = rename_apart(Struct("$decl", tuple(declaration.head.args)))
            solvable = set(variables_of(renamed))
            for position, (component, argument) in enumerate(
                zip(renamed.args, clause.head.args)
            ):
                outcome = self.matcher.match(component, argument, solvable)
                if outcome.result is MATCH_FAIL:
                    return (
                        f"head argument {pretty(argument)} never matches its "
                        f"declared type {_shown(renamed, position, argument)}"
                    )
        return None

    def compare_with_declaration(self, indicator: Indicator):
        """Position-wise comparison of the inferred success set with the
        ``PRED`` declaration.

        Returns ``("equivalent" | "loose" | "ok", details)`` or
        ``("incompatible", positions)``:

        * **loose** — every declared position is at least as general as
          the inferred one and some strictly more general (and the
          inferred view is expressible: TLP403's fix-it is the tighter
          declaration);
        * **incompatible** — some position where declared and inferred
          are incomparable *and* no raw member of the inferred set fits
          the declared type (the success set and the declaration share
          no instances there — TLP404).  The member-level fit test is
          what keeps genuinely overlapping-but-incomparable cases (an
          ``int`` predicate whose clauses also accept an open-element
          ``succ(X)``) silent.
        """
        success = self.success.get(indicator)
        declaration = self.pred_decls.get(indicator)
        if success is None or declaration is None or success.bottom:
            return ("ok", None)
        declared = tuple(declaration.head.args)
        if len(declared) != len(success.folded):
            return ("ok", None)
        all_ge, any_strict = True, False
        incompatible: List[int] = []
        for position, (decl, fold, members) in enumerate(
            zip(declared, success.folded, success.members)
        ):
            ge = self.domain.subsumes(decl, fold)
            le = self.domain.subsumes(fold, decl)
            if ge and le:
                continue
            if ge:
                any_strict = True
                continue
            all_ge = False
            if le:
                continue  # inferred strictly more general: clauses are
                # allowed to succeed outside the declaration's reading
            fits = any(
                isinstance(member, Var) or self.domain.subsumes(decl, member)
                for member in members
            )
            if not fits:
                incompatible.append(position)
        if incompatible:
            return ("incompatible", incompatible)
        if all_ge and any_strict:
            return ("loose", success.folded)
        if all_ge:
            return ("equivalent", None)
        return ("ok", None)

    # -- reconstruction ------------------------------------------------------

    def reconstructions(self):
        """Synthesized ``PRED`` declarations for the file's undeclared
        defined predicates (cached; see :mod:`.reconstruct`)."""
        if self._reconstructions is None:
            from .reconstruct import reconstruct_declarations

            self._reconstructions = reconstruct_declarations(self)
        return self._reconstructions

    def declaration_lines(self, include_declared: bool = False) -> List[str]:
        """Rendered inferred declarations (the ``--infer`` surfaces)."""
        lines: List[str] = []
        for indicator, reconstruction in sorted(self.reconstructions().items()):
            line = reconstruction.line
            if not reconstruction.defined:
                line += "  % assumed (called but never defined)"
            lines.append(line)
        if include_declared:
            from .reconstruct import render_declaration

            for indicator in sorted(self.clauses_by_pred):
                if indicator in self.pred_decls and indicator not in self.reconstructions():
                    success = self.success[indicator]
                    if not success.bottom:
                        lines.append(
                            render_declaration(indicator, success.folded)
                            + "  % declared"
                        )
        return lines
