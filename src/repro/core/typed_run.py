"""``--typed-run``: subject reduction asserted per resolution step.

Theorem 6 (Consistency) promises that every resolvent of a well-typed
query against a well-typed program stays well-typed.  For the Section 7
moded extension the corresponding guarantee is Theorem 6 of
Smaus–Fages–Deransart ("Using Modes to Ensure Subject Reduction for
Typed Logic Programs with Subtyping"): a well-*moded* program keeps its
resolvents well-typed even when information widens sub→supertype
through mode declarations.  The corollary of Theorem 6: every computed
answer substitution is type consistent.

:class:`TypedRunner` is the dynamic witness for both, and the one typed
executor behind ``tlp-check --run``/``--typed-run``, the REPL, and the
E7 experiments: it drives the stock SLD engine and re-checks **every**
resolvent through the checker it is given —
:class:`~repro.core.moded_welltyped.ModedWellTypedChecker` when ``MODE``
declarations are present, the strict Definition 16
:class:`~repro.core.welltyped.WellTypedChecker` otherwise.  By default
the runner **aborts** at the first violated resolvent; the recorded
:class:`SubjectReductionViolation` carries the step index, the
offending resolvent, and the checker's reason, and the CLI renders it
as a span-carrying diagnostic under :data:`TYPED_RUN_CODE`, with the
generated variables renumbered so that the same run renders the same
bytes however often it is repeated.  Without the abort it collects every
violation and, on request, re-checks each answer-instantiated query as
well.  :attr:`TypedRunResult.hit_depth_limit` tells a query with no
answer from one whose search the depth bound cut off.

The re-check follows the proof of Theorem 6 rather than re-solving
Definition 16 for the whole goal tuple.  Each SLD frame carries the
accepted resolvent's witness (:class:`~repro.core.welltyped.ResolventTyping`);
the next step hands it, the selected clause's strict typing (computed
once per clause, on first use) and the mgu to ``check_resolvent``, which
instantiates the clause's commitments by the selected goal's ``η``,
matches the new body goals, keeps the witnesses of goals the mgu left
unchanged, and re-types a goal the mgu rebuilt from its bindings alone
(Lemma 2: one ``match`` per bound variable, not per goal), so a step
costs what the mgu bound.  The query itself is checked once, before the
first step, so that its witness seeds the first frame.  A step with
nothing to carry — a clause that is not strictly well-typed, a parent
accepted only directionally or rejected — or whose candidate does not
verify gets the full check, so every verdict is the one the full check
would give wherever that check is complete.

Because the checker is (deliberately, like the paper's ``match``)
conservative in its ``⊥`` corners, a re-check could in principle reject
a genuinely well-typed resolvent; violations therefore carry the
checker's reason.  On the paper's own examples this does not occur.

Telemetry rides under ``typed_run.*`` (steps, violations,
answer_violations, queries, answers, aborts, carried and fallbacks —
resolvents decided by a carried witness or by the full check — rebound,
the tail goals a carried step re-typed from their bindings, and the
``typed_run.query`` timer) and every step emits a
:class:`~repro.obs.events.SubjectReductionEvent` when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from ..lp.clause import Clause, Program, Query
from ..lp.database import Database
from ..lp.resolution import SLDEngine
from ..obs import METRICS, TRACER, SubjectReductionEvent
from ..terms.pretty import pretty, renumber_generated
from ..terms.substitution import Substitution
from ..terms.term import Struct, variables_of
from .moded_welltyped import ModedClauseReport, ModedWellTypedChecker
from .welltyped import ClauseReport, ClauseTyping, ResolventTyping, WellTypedChecker

__all__ = [
    "TYPED_RUN_CODE",
    "SubjectReductionViolation",
    "TypedRunResult",
    "TypedRunner",
]

#: Stable diagnostic code for a dynamic subject-reduction violation —
#: outside the registered TLP5xx *static* rule family on purpose: the
#: verdict comes from execution, not from a lint pass.
TYPED_RUN_CODE = "TLP590"


@dataclass(frozen=True)
class SubjectReductionViolation:
    """A resolvent that failed its per-step re-check."""

    step: int  # 1-based resolution step within the query
    goals: Tuple[Struct, ...]  # the offending resolvent
    reason: str  # the checker's rejection reason
    via: Optional[str] = None  # "strict" | "directional" (moded checker only)
    #: Names of the query's variables: written by the user, never renamed.
    written: FrozenSet[str] = frozenset()

    def render(self) -> str:
        """The diagnostic text.  Generated variables (``_G17``, ``_E575``:
        fresh names whose numbers depend on everything the process ran
        before) are renumbered per stem by first appearance, the same way
        in the resolvent and the reason, skipping the user's names, so a
        run gives the same bytes however often it is repeated."""
        resolvent = ", ".join(pretty(goal) for goal in self.goals)
        text = (
            f"subject reduction violated at resolution step {self.step}: "
            f"resolvent `{resolvent}` is not well-typed — {self.reason}"
        )
        return renumber_generated(text, self.written)


@dataclass
class TypedRunResult:
    """Answers plus the per-step evidence for one query."""

    query: Query
    answers: List[Substitution] = field(default_factory=list)
    steps: int = 0
    violations: List[SubjectReductionViolation] = field(default_factory=list)
    #: Answers whose instantiated query failed its re-check, with the reason.
    answer_violations: List[Tuple[Substitution, str]] = field(default_factory=list)
    #: True iff the depth bound pruned a branch (copied from the SLD engine),
    #: so a missing answer may lie beyond it.
    hit_depth_limit: bool = False

    @property
    def violation(self) -> Optional[SubjectReductionViolation]:
        """The first violated resolvent, or ``None``."""
        return self.violations[0] if self.violations else None

    @property
    def ok(self) -> bool:
        """True iff every resolvent and checked answer passed."""
        return not self.violations and not self.answer_violations

    @property
    def aborted(self) -> bool:
        return self.violation is not None


class _Abort(Exception):
    """Internal: unwinds the SLD engine at the first violated resolvent."""


class TypedRunner:
    """SLD execution in the mode-checked configuration of Theorem 6.

    ``checker`` is whatever the frontend built for the module: the moded
    checker for files with ``MODE`` declarations (so widening clauses
    like ``nat2int(X, X)`` do not trip false alarms), the strict
    Definition 16 checker otherwise.  Both expose ``check_resolvent``.
    Admitting the program and the query is the caller's business.
    """

    def __init__(
        self,
        checker: Union[WellTypedChecker, ModedWellTypedChecker],
        program: Program,
    ) -> None:
        self.checker = checker
        self.database = Database(program)
        self._clause_typings: Dict[Clause, Optional[ClauseTyping]] = {}

    def _clause_typing(self, clause: Clause) -> Optional[ClauseTyping]:
        """The clause's strict body witnesses, checked on first use."""
        try:
            return self._clause_typings[clause]
        except KeyError:
            typing = self._clause_typings[clause] = self.checker.clause_typing(clause)
            return typing

    def run(
        self,
        query: Query,
        max_answers: Optional[int] = None,
        depth_limit: Optional[int] = None,
        abort_on_violation: bool = True,
        check_answers: bool = False,
    ) -> TypedRunResult:
        """Execute ``query``, asserting subject reduction at every step.

        With ``abort_on_violation`` (the default) the run stops at the
        first ill-typed resolvent and the result records it; otherwise
        every violation is recorded and execution continues — useful
        for measuring how far an ill-moded program runs.
        ``check_answers`` also re-checks the query instantiated by each
        answer (the corollary of Theorem 6).
        """
        result = TypedRunResult(query)
        written = frozenset(
            var.name for goal in query.goals for var in variables_of(goal)
        )

        def on_step(
            parent: Optional[ResolventTyping],
            clause: Clause,
            mgu: Substitution,
            goals: Tuple[Struct, ...],
        ) -> Any:
            result.steps += 1
            if METRICS.enabled:
                METRICS.inc("typed_run.steps")
            if not goals:
                return None  # the empty clause: success, trivially well-typed
            clause_typing = None if parent is None else self._clause_typing(clause)
            if clause_typing is None:
                report = self.checker.check_resolvent(goals)
            else:
                report = self.checker.check_resolvent(goals, parent, clause_typing, mgu)
            via = report.via if isinstance(report, ModedClauseReport) else "strict"
            strict = _strict(report)
            if METRICS.enabled:
                carried = strict is not None and strict.carried
                METRICS.inc("typed_run.carried" if carried else "typed_run.fallbacks")
                if carried and strict.rebound:  # type: ignore[union-attr]
                    METRICS.inc("typed_run.rebound", strict.rebound)  # type: ignore[union-attr]
            if TRACER.enabled:
                TRACER.point(
                    SubjectReductionEvent,
                    step=result.steps,
                    size=len(goals),
                    well_typed=bool(report.well_typed),
                    via=via,
                    reason=None if report.well_typed else report.reason,
                )
            if report.well_typed:
                return None if strict is None else strict.witness
            violation = SubjectReductionViolation(
                step=result.steps,
                goals=goals,
                reason=report.reason or "unknown",
                via=via,
                written=written,
            )
            if METRICS.enabled:
                METRICS.inc("typed_run.violations")
            result.violations.append(violation)
            if abort_on_violation:
                raise _Abort
            return None

        engine = SLDEngine(self.database, on_step=on_step)
        if METRICS.enabled:
            METRICS.inc("typed_run.queries")
        detail = (
            ", ".join(pretty(goal) for goal in query.goals)
            if TRACER.enabled
            else ""
        )
        with METRICS.time("typed_run.query"), TRACER.span("typed_run", detail):
            try:
                root = _strict(self.checker.check_resolvent(query.goals))
                for answer in engine.solve(
                    query.goals,
                    depth_limit=depth_limit,
                    note=None if root is None else root.witness,
                ):
                    result.answers.append(answer)
                    if check_answers:
                        self._check_answer(query, answer, result)
                    if max_answers is not None and len(result.answers) >= max_answers:
                        break
            except _Abort:
                if METRICS.enabled:
                    METRICS.inc("typed_run.aborts")
        result.hit_depth_limit = engine.hit_depth_limit
        if METRICS.enabled:
            METRICS.inc("typed_run.answers", len(result.answers))
            METRICS.gauge_max("typed_run.max_steps_per_query", result.steps)
        return result

    def _check_answer(
        self, query: Query, answer: Substitution, result: TypedRunResult
    ) -> None:
        instantiated = tuple(answer.apply(goal) for goal in query.goals)
        report = self.checker.check_resolvent(instantiated)  # type: ignore[arg-type]
        if not report.well_typed:
            result.answer_violations.append((answer, report.reason or "unknown"))
            if METRICS.enabled:
                METRICS.inc("typed_run.answer_violations")


def _strict(report: Union[ClauseReport, ModedClauseReport]) -> Optional[ClauseReport]:
    """The strict Definition 16 report behind a checker's verdict; its
    ``witness`` is set only on a strict acceptance."""
    if isinstance(report, ModedClauseReport):
        return report.strict_report
    return report
