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
as a span-carrying diagnostic under :data:`TYPED_RUN_CODE`.  Without
the abort it collects every violation and, on request, re-checks each
answer-instantiated query as well.

Because the checker is (deliberately, like the paper's ``match``)
conservative in its ``⊥`` corners, a re-check could in principle reject
a genuinely well-typed resolvent; violations therefore carry the
checker's reason.  On the paper's own examples this does not occur.

Telemetry rides under ``typed_run.*`` (steps, violations,
answer_violations, queries, answers, aborts, and the
``typed_run.query`` timer) and every step emits a
:class:`~repro.obs.events.SubjectReductionEvent` when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..lp.clause import Program, Query
from ..lp.database import Database
from ..lp.resolution import SLDEngine
from ..obs import METRICS, TRACER, SubjectReductionEvent
from ..terms.pretty import pretty
from ..terms.substitution import Substitution
from ..terms.term import Struct
from .moded_welltyped import ModedClauseReport, ModedWellTypedChecker
from .welltyped import WellTypedChecker

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

    def render(self) -> str:
        resolvent = ", ".join(pretty(goal) for goal in self.goals)
        return (
            f"subject reduction violated at resolution step {self.step}: "
            f"resolvent `{resolvent}` is not well-typed — {self.reason}"
        )


@dataclass
class TypedRunResult:
    """Answers plus the per-step evidence for one query."""

    query: Query
    answers: List[Substitution] = field(default_factory=list)
    steps: int = 0
    violations: List[SubjectReductionViolation] = field(default_factory=list)
    #: Answers whose instantiated query failed its re-check, with the reason.
    answer_violations: List[Tuple[Substitution, str]] = field(default_factory=list)

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

        def on_resolvent(goals: Tuple[Struct, ...]) -> None:
            result.steps += 1
            if METRICS.enabled:
                METRICS.inc("typed_run.steps")
            if not goals:
                return  # the empty clause: success, trivially well-typed
            report = self.checker.check_resolvent(goals)
            via = report.via if isinstance(report, ModedClauseReport) else "strict"
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
                return
            violation = SubjectReductionViolation(
                step=result.steps,
                goals=goals,
                reason=report.reason or "unknown",
                via=via,
            )
            if METRICS.enabled:
                METRICS.inc("typed_run.violations")
            result.violations.append(violation)
            if abort_on_violation:
                raise _Abort

        engine = SLDEngine(self.database, on_resolvent=on_resolvent)
        if METRICS.enabled:
            METRICS.inc("typed_run.queries")
        detail = (
            ", ".join(pretty(goal) for goal in query.goals)
            if TRACER.enabled
            else ""
        )
        with METRICS.time("typed_run.query"), TRACER.span("typed_run", detail):
            try:
                for answer in engine.solve(query.goals, depth_limit=depth_limit):
                    result.answers.append(answer)
                    if check_answers:
                        self._check_answer(query, answer, result)
                    if max_answers is not None and len(result.answers) >= max_answers:
                        break
            except _Abort:
                if METRICS.enabled:
                    METRICS.inc("typed_run.aborts")
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
