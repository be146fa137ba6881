"""SLD-resolution.

The paper grounds everything in textbook SLD-resolution [Apt88]:
Definition 3 *defines* the subtype relation as the existence of an
SLD-refutation of ``H_C ∪ {:- τ1 >= τ2}``, and Theorem 6 is a statement
about the resolvents produced while executing a well-typed program.  This
module provides the engine both uses.

Design points:

* **Leftmost selection** (as assumed "without loss of generality" in the
  paper's proofs) over an explicit backtracking stack — no Python
  recursion, so very deep derivations (the benchmark families) are fine.
* **Depth bounding + iterative deepening.**  Plain depth-first SLD is
  incomplete (it can dive into an infinite branch); the naive subtype
  prover needs a complete search, which :func:`solve_iterative_deepening`
  provides: if a round is exhausted without hitting the depth bound the
  whole SLD tree was finite and search stops.
* **Resolvent tracing.**  ``on_resolvent`` receives every resolvent (the
  goal list after applying the step's mgu), which is how the Theorem 6
  consistency experiment observes "every atom of every resolvent".
  ``on_step`` sees the whole step instead — the parent frame's note, the
  selected clause, the mgu and the resolvent — and returns the note the
  new frame carries, so a hook can thread per-branch state (the typed
  runner's carried typing η) through backtracking without a side table.
* **Variant loop check** (off by default).  With ``variant_check=True`` a
  branch is pruned when its resolvent is a variant (equal up to variable
  renaming) of an ancestor resolvent on the same branch.  Splicing such a
  loop out of any refutation yields a shorter refutation, so the check is
  *sound for refutation existence*; it may, however, prune alternative
  answer substitutions, so it is only used where existence is the
  question (the naive subtype prover).
* **Statistics** (steps, unification attempts, cutoffs) for the benchmark
  harness.
* **Telemetry mirroring** (``repro.obs``): when enabled, per-run deltas
  of every counter land in the process-wide registry (``sld.*``) and each
  successful resolution step emits an ``sld_step`` trace event that nests
  under whatever span issued the query.  Disabled, the engine pays one
  flag check per run plus one per successful step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import METRICS, TRACER, SldStepEvent
from ..terms.pretty import pretty
from ..terms.substitution import EMPTY_SUBSTITUTION, Substitution
from ..terms.term import Struct, Var, variables_of
from ..terms.unify import unify
from .clause import Clause, rename_clause_apart
from .database import Database

__all__ = ["SLDStats", "SLDResult", "SLDEngine", "solve", "solve_iterative_deepening"]

Resolvent = Tuple[Struct, ...]
ResolventHook = Callable[[Resolvent], None]
#: ``on_step(parent_note, clause, mgu, resolvent) -> note``: ``clause`` is
#: the program clause as stored (before renaming apart); the root frame's
#: note is the one passed to :meth:`SLDEngine.solve`.
StepHook = Callable[[Any, Clause, Substitution, Resolvent], Any]


@dataclass
class SLDStats:
    """Counters accumulated over one or more ``solve`` runs."""

    steps: int = 0
    unification_attempts: int = 0
    unification_failures: int = 0
    depth_cutoffs: int = 0
    step_budget_hits: int = 0
    max_depth_reached: int = 0
    variant_prunes: int = 0


@dataclass
class SLDResult:
    """Outcome of a bounded search: the answers plus exhaustion flags."""

    answers: List[Substitution] = field(default_factory=list)
    hit_depth_limit: bool = False
    hit_step_limit: bool = False

    @property
    def complete(self) -> bool:
        """True iff the SLD tree was fully explored (no bound was hit)."""
        return not (self.hit_depth_limit or self.hit_step_limit)


def _canonical(goals: Resolvent) -> Tuple:
    """A renaming-invariant key for a resolvent (variables numbered in
    first-occurrence order) — the variant check's lookup key."""
    numbering: dict = {}

    def walk(term) -> Tuple:
        if isinstance(term, Var):
            index = numbering.get(term)
            if index is None:
                index = len(numbering)
                numbering[term] = index
            return ("v", index)
        return (term.functor, tuple(walk(a) for a in term.args))

    return tuple(walk(goal) for goal in goals)


class _Frame:
    """One node of the SLD tree: pending goals and remaining clause choices.

    ``answer`` is the query's variable tuple with the accumulated mgus
    applied.  Threading this skeleton instead of composing substitutions
    keeps per-step cost proportional to the answer's size — eager
    composition would re-walk every accumulated binding at every step,
    turning linear derivations cubic.
    """

    __slots__ = ("goals", "answer", "depth", "choices", "position", "canon", "note")

    def __init__(
        self,
        goals: Resolvent,
        answer: Struct,
        depth: int,
        choices: Sequence[Clause],
        canon: Optional[Tuple] = None,
        note: Any = None,
    ) -> None:
        self.goals = goals
        self.answer = answer
        self.depth = depth
        self.choices = choices
        self.position = 0
        self.canon = canon
        self.note = note


class SLDEngine:
    """SLD-resolution over a clause :class:`~repro.lp.database.Database`."""

    def __init__(
        self,
        database: Database,
        occurs_check: bool = True,
        on_resolvent: Optional[ResolventHook] = None,
        variant_check: bool = False,
        on_step: Optional[StepHook] = None,
    ) -> None:
        self.database = database
        self.occurs_check = occurs_check
        self.on_resolvent = on_resolvent
        self.on_step = on_step
        self.variant_check = variant_check
        self.stats = SLDStats()
        # Set while a bounded run is in progress; inspected afterwards.
        self.hit_depth_limit = False
        self.hit_step_limit = False

    def solve(
        self,
        goals: Sequence[Struct],
        depth_limit: Optional[int] = None,
        step_limit: Optional[int] = None,
        note: Any = None,
    ) -> Iterator[Substitution]:
        """Yield answer substitutions for ``goals``, leftmost-first.

        Answers are restricted to the variables of the query.  With
        ``depth_limit`` set, branches longer than that many resolution
        steps are pruned (and :attr:`hit_depth_limit` records that pruning
        happened).  ``step_limit`` bounds total work across the whole
        search.  ``note`` is the root frame's note: what ``on_step``
        receives as the parent note of the first steps.
        """
        self.hit_depth_limit = False
        self.hit_step_limit = False
        goals = tuple(goals)
        if not goals:
            yield EMPTY_SUBSTITUTION
            return
        query_vars: Set[Var] = set()
        for goal in goals:
            query_vars |= variables_of(goal)
        ordered_vars: Tuple[Var, ...] = tuple(sorted(query_vars, key=lambda v: v.name))
        answer_skeleton = Struct("'$answer", ordered_vars)
        on_path: Set[Tuple] = set()
        root = _Frame(
            goals,
            answer_skeleton,
            0,
            self.database.candidates(goals[0]),
            _canonical(goals) if self.variant_check else None,
            note,
        )
        if root.canon is not None:
            on_path.add(root.canon)
        stack: List[_Frame] = [root]

        def pop_frame() -> None:
            frame = stack.pop()
            if frame.canon is not None:
                on_path.discard(frame.canon)

        stats_before = self._stats_snapshot()
        try:
            yield from self._search(
                stack, pop_frame, on_path, ordered_vars,
                depth_limit, step_limit,
            )
        finally:
            self._flush_metrics(stats_before)

    def _stats_snapshot(self) -> Tuple[int, ...]:
        stats = self.stats
        return (
            stats.steps,
            stats.unification_attempts,
            stats.unification_failures,
            stats.depth_cutoffs,
            stats.step_budget_hits,
            stats.variant_prunes,
        )

    def _flush_metrics(self, before: Tuple[int, ...]) -> None:
        """Mirror this run's stat deltas into the telemetry registry."""
        if not METRICS.enabled:
            return
        after = self._stats_snapshot()
        METRICS.inc("sld.runs")
        for name, delta in zip(
            (
                "sld.steps",
                "sld.unification_attempts",
                "sld.unification_failures",
                "sld.depth_cutoffs",
                "sld.step_budget_hits",
                "sld.variant_prunes",
            ),
            (now - then for now, then in zip(after, before)),
        ):
            if delta:
                METRICS.inc(name, delta)
        METRICS.gauge_max("sld.max_depth_reached", self.stats.max_depth_reached)

    def _search(
        self,
        stack: List[_Frame],
        pop_frame: Callable[[], None],
        on_path: Set[Tuple],
        ordered_vars: Tuple[Var, ...],
        depth_limit: Optional[int],
        step_limit: Optional[int],
    ) -> Iterator[Substitution]:
        steps_taken = 0
        while stack:
            frame = stack[-1]
            if depth_limit is not None and frame.depth >= depth_limit:
                self.hit_depth_limit = True
                self.stats.depth_cutoffs += 1
                pop_frame()
                continue
            if frame.position >= len(frame.choices):
                pop_frame()
                continue
            clause = frame.choices[frame.position]
            frame.position += 1
            if step_limit is not None and steps_taken >= step_limit:
                self.hit_step_limit = True
                self.stats.step_budget_hits += 1
                return
            steps_taken += 1
            renamed = rename_clause_apart(clause)
            self.stats.unification_attempts += 1
            theta = unify(frame.goals[0], renamed.head, occurs_check=self.occurs_check)
            if theta is None:
                self.stats.unification_failures += 1
                continue
            self.stats.steps += 1
            new_goals: Resolvent = tuple(
                theta.apply(g) for g in renamed.body + frame.goals[1:]
            )
            new_answer = theta.apply(frame.answer)
            assert isinstance(new_answer, Struct)
            if self.on_resolvent is not None:
                self.on_resolvent(new_goals)
            note = None
            if self.on_step is not None:
                note = self.on_step(frame.note, clause, theta, new_goals)
            depth = frame.depth + 1
            if depth > self.stats.max_depth_reached:
                self.stats.max_depth_reached = depth
            if TRACER.enabled:
                TRACER.point(
                    SldStepEvent,
                    goal=pretty(frame.goals[0]),
                    depth=depth,
                    resolvent_size=len(new_goals),
                )
            if not new_goals:
                yield Substitution(
                    {
                        var: value
                        for var, value in zip(ordered_vars, new_answer.args)
                        if value != var
                    }
                )
                continue
            canon: Optional[Tuple] = None
            if self.variant_check:
                canon = _canonical(new_goals)
                if canon in on_path:
                    self.stats.variant_prunes += 1
                    continue
                on_path.add(canon)
            stack.append(
                _Frame(
                    new_goals,
                    new_answer,
                    depth,
                    self.database.candidates(new_goals[0]),
                    canon,
                    note,
                )
            )

    def has_refutation(
        self,
        goals: Sequence[Struct],
        depth_limit: Optional[int] = None,
        step_limit: Optional[int] = None,
    ) -> bool:
        """True iff at least one answer exists within the given bounds."""
        for _ in self.solve(goals, depth_limit=depth_limit, step_limit=step_limit):
            return True
        return False


def solve(
    database: Database,
    goals: Sequence[Struct],
    depth_limit: Optional[int] = None,
    step_limit: Optional[int] = None,
    max_answers: Optional[int] = None,
    occurs_check: bool = True,
    on_resolvent: Optional[ResolventHook] = None,
    variant_check: bool = False,
) -> SLDResult:
    """One bounded SLD run, collecting up to ``max_answers`` answers."""
    engine = SLDEngine(
        database,
        occurs_check=occurs_check,
        on_resolvent=on_resolvent,
        variant_check=variant_check,
    )
    result = SLDResult()
    for answer in engine.solve(goals, depth_limit=depth_limit, step_limit=step_limit):
        result.answers.append(answer)
        if max_answers is not None and len(result.answers) >= max_answers:
            break
    result.hit_depth_limit = engine.hit_depth_limit
    result.hit_step_limit = engine.hit_step_limit
    return result


def solve_iterative_deepening(
    database: Database,
    goals: Sequence[Struct],
    max_depth: int = 64,
    start_depth: int = 4,
    depth_step: int = 4,
    step_limit_per_round: Optional[int] = None,
    max_answers: Optional[int] = None,
    occurs_check: bool = True,
    variant_check: bool = False,
) -> SLDResult:
    """Complete (up to ``max_depth``) search by iterative deepening.

    Each round re-runs depth-first search with a larger depth bound.  The
    search stops early when a round completes without being cut off — the
    SLD tree is then finite and fully explored, so the result is exact.
    Answers are deduplicated across rounds by their printed form.
    """
    final = SLDResult()
    seen: Set[str] = set()
    depth = start_depth
    while True:
        round_result = solve(
            database,
            goals,
            depth_limit=depth,
            step_limit=step_limit_per_round,
            max_answers=None,
            occurs_check=occurs_check,
            variant_check=variant_check,
        )
        for answer in round_result.answers:
            key = repr(answer)
            if key not in seen:
                seen.add(key)
                final.answers.append(answer)
                if max_answers is not None and len(final.answers) >= max_answers:
                    final.hit_depth_limit = round_result.hit_depth_limit
                    final.hit_step_limit = round_result.hit_step_limit
                    return final
        if round_result.complete:
            final.hit_depth_limit = False
            final.hit_step_limit = False
            return final
        if depth >= max_depth:
            final.hit_depth_limit = round_result.hit_depth_limit
            final.hit_step_limit = round_result.hit_step_limit
            return final
        depth = min(depth + depth_step, max_depth)
