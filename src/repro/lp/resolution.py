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
* **One-pass steps** (:func:`resolve_step`).  The database compiles each
  clause once into a slot-numbered :class:`~repro.lp.clause.ClauseTemplate`.
  A step unifies the selected goal against the head template in a slot
  environment — an unbound slot takes the goal's term as it is — and
  builds the body once from the result, so a failed attempt builds
  nothing and the clause is never renamed apart.  A tail goal that is
  ground or whose variables miss ``dom θ`` stays the same object.
* **Answers read once.**  Each frame keeps the mgu that produced it; at
  the empty resolvent :func:`resolve_answer` resolves the query's
  variables through the branch's mgus in one iterative pass, so neither
  failed branches nor long derivations pay for an answer skeleton.
* **Depth bounding + iterative deepening.**  Plain depth-first SLD is
  incomplete (it can dive into an infinite branch); the naive subtype
  prover needs a complete search, which :func:`solve_iterative_deepening`
  provides: if a round is exhausted without hitting the depth bound the
  whole SLD tree was finite and search stops.
* **Resolvent tracing.**  ``on_resolvent`` receives every resolvent (the
  goal list after applying the step's mgu), which is how the Theorem 6
  consistency experiment observes "every atom of every resolvent".
  ``on_step`` sees the whole step instead — the parent frame's note, the
  selected clause, the goal side of the mgu (see :data:`StepHook`) and
  the resolvent — and returns the note the
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
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import METRICS, TRACER, SldStepEvent
from ..terms.pretty import pretty
from ..terms.substitution import EMPTY_SUBSTITUTION, Substitution
from ..terms.term import Struct, Term, Var, _variables_frozen, fresh_variable, variables_of
from ..terms.unify import _occurs, _resolve
from .clause import Clause, ClauseTemplate, TemplateNode
from .database import Database

__all__ = [
    "SLDStats",
    "SLDResult",
    "SLDEngine",
    "solve",
    "solve_iterative_deepening",
    "resolve_step",
    "resolve_answer",
]

Resolvent = Tuple[Struct, ...]
ResolventHook = Callable[[Resolvent], None]
#: ``on_step(parent_note, clause, mgu, resolvent) -> note``: ``clause`` is
#: the program clause as stored; ``mgu`` is the goal side of the step's
#: most general unifier — its domain is the parent resolvent's variables
#: it binds, never the clause's — and it is idempotent when the occurs
#: check is on.  The root frame's note is the one passed to
#: :meth:`SLDEngine.solve`.
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


def _deref(term: Term, bindings: Dict[Var, Term]) -> Term:
    while isinstance(term, Var):
        value = bindings.get(term)
        if value is None:
            return term
        term = value
    return term


def _build(node: TemplateNode, env: List[Optional[Term]], drawn: Set[Var]) -> Term:
    """The template subterm ``node`` over ``env``; a slot still unbound
    gets a fresh variable (recorded in ``drawn``).  Recursion follows the
    clause's own nesting, never a goal's: slot values are spliced in."""
    kind = type(node)
    if kind is int:
        value = env[node]  # type: ignore[index]
        if value is None:
            value = env[node] = fresh_variable()  # type: ignore[index]
            drawn.add(value)  # type: ignore[arg-type]
        return value
    if kind is tuple:
        functor, children = node  # type: ignore[misc]
        return Struct(functor, tuple([_build(child, env, drawn) for child in children]))
    return node  # type: ignore[return-value]


def _unify_terms(
    left: Term,
    right: Term,
    bindings: Dict[Var, Term],
    drawn: Set[Var],
    occurs_check: bool,
) -> bool:
    """Martelli–Montanari over the step's triangular ``bindings``
    (``repro.terms.unify``'s loop).  Of two variables, one drawn in this
    step is the one bound, so goal variables stay in the resolvent."""
    work = [(left, right)]
    while work:
        a, b = work.pop()
        a = _deref(a, bindings)
        b = _deref(b, bindings)
        if a == b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and b in drawn:
                a, b = b, a
            if occurs_check and _occurs(a, b, bindings):
                return False
            bindings[a] = b
            continue
        if isinstance(b, Var):
            if occurs_check and _occurs(b, a, bindings):
                return False
            bindings[b] = a
            continue
        if a.ground and b.ground:
            return False  # distinct ground terms never unify
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        work.extend(zip(a.args, b.args))
    return True


def _unify_head(
    template: ClauseTemplate,
    goal: Struct,
    env: List[Optional[Term]],
    bindings: Dict[Var, Term],
    drawn: Set[Var],
    occurs_check: bool,
) -> bool:
    """Unify ``goal`` with the template's head, filling ``env`` and the
    goal side of ``bindings``.  An unbound slot takes the goal's term as
    it is; a compound template meeting an unbound goal variable is built
    last, once every slot the rest of the head can bind is bound."""
    pairs: List[Tuple[TemplateNode, Term]] = list(zip(template.head, goal.args))
    deferred: List[Tuple[TemplateNode, Var]] = []
    while True:
        while pairs:
            node, term = pairs.pop()
            kind = type(node)
            if kind is int:
                bound = env[node]  # type: ignore[index]
                if bound is None:
                    env[node] = term  # type: ignore[index]
                elif not _unify_terms(bound, term, bindings, drawn, occurs_check):
                    return False
                continue
            if kind is not tuple:  # a ground template subterm
                if not _unify_terms(node, term, bindings, drawn, occurs_check):
                    return False
                continue
            term = _deref(term, bindings)
            if isinstance(term, Var):
                deferred.append((node, term))
                continue
            functor, children = node  # type: ignore[misc]
            if term.functor != functor or len(term.args) != len(children):
                return False
            pairs.extend(zip(children, term.args))
        if not deferred:
            return True
        node, var = deferred.pop()
        term = _deref(var, bindings)
        if not isinstance(term, Var):
            pairs.append((node, term))
            continue
        built = _build(node, env, drawn)
        if occurs_check and _occurs(term, built, bindings):
            return False
        bindings[term] = built


def resolve_step(
    template: ClauseTemplate,
    goals: Resolvent,
    occurs_check: bool = True,
) -> Optional[Tuple[Substitution, Resolvent]]:
    """One SLD step: resolve ``goals[0]`` against ``template``'s clause.

    Returns ``(θ, resolvent)`` or ``None`` when the head does not unify,
    in which case nothing was built.  ``θ`` is the goal side of the mgu:
    its domain is the variables of ``goals`` it binds.  The resolvent is
    the clause body, built once from the resolved slot environment,
    followed by ``goals[1:]θ``; a tail goal that is ground or whose
    variables miss ``dom θ`` is kept as the same object.
    """
    env: List[Optional[Term]] = [None] * template.slots
    bindings: Dict[Var, Term] = {}
    drawn: Set[Var] = set()
    if not _unify_head(template, goals[0], env, bindings, drawn, occurs_check):
        return None
    rest = goals[1:]
    if not bindings:
        theta = EMPTY_SUBSTITUTION
    else:
        for slot, value in enumerate(env):
            if value is not None:
                env[slot] = _resolve(value, bindings)
        theta = Substitution(
            {var: _resolve(var, bindings) for var in bindings if var not in drawn}
        )
        if theta:
            domain = theta.domain
            rest = tuple(
                [
                    goal
                    if goal.ground or domain.isdisjoint(_variables_frozen(goal))
                    else theta.apply(goal)
                    for goal in rest
                ]
            )
    if not template.body:
        return theta, rest  # type: ignore[return-value]
    body = tuple([_build(node, env, drawn) for node in template.body])
    return theta, body + rest  # type: ignore[return-value]


def resolve_answer(variables: Sequence[Var], path: Sequence[Substitution]) -> Substitution:
    """``variables`` under the mgus ``θ_1 … θ_n`` of a derivation, applied
    in sequence, as a substitution.

    Each binding is resolved once (memoized on the variable and the step
    that bound it), without recursion, so an answer costs its size rather
    than its size times the derivation's length.  A variable the occurs
    check would have refused to bind cyclically (``X ↦ f(X)``) may be
    bound again by a later step; it is then read at each step in turn,
    exactly as applying the mgus one after another would.
    """
    bound: Dict[Var, List[Tuple[int, Term]]] = {}
    for step, theta in enumerate(path):
        for var, value in theta.items():
            entries = bound.get(var)
            if entries is None:
                bound[var] = [(step, value)]
            else:
                entries.append((step, value))
    if not bound:
        return EMPTY_SUBSTITUTION
    memo: Dict[Tuple[Var, int], Term] = {}
    answer: Dict[Var, Term] = {}
    for var in variables:
        answer[var] = _evaluate(var, bound, memo)
    return Substitution(answer)


def _evaluate(
    term: Term,
    bound: Dict[Var, List[Tuple[int, Term]]],
    memo: Dict[Tuple[Var, int], Term],
) -> Term:
    """``term`` at step 0 under :func:`resolve_answer`'s bindings: each
    variable is replaced by the value of its next binding at or after the
    step that reads it, that value being read from the following step on.
    An explicit stack of ``(struct, step, rebuilt args, memo keys)``
    frames replaces recursion."""
    frames: List[Tuple[Struct, int, List[Term], List[Tuple[Var, int]]]] = []
    step = 0
    while True:
        keys: List[Tuple[Var, int]] = []
        while isinstance(term, Var):
            entry = None
            for candidate in bound.get(term, ()):
                if candidate[0] >= step:
                    entry = candidate
                    break
            if entry is None:
                break
            key = (term, entry[0])
            cached = memo.get(key)
            if cached is not None:
                term = cached
                break
            keys.append(key)
            term, step = entry[1], entry[0] + 1
        else:
            if not term.ground:
                frames.append((term, step, [], keys))
                term = term.args[0]
                continue
        value = term
        for key in keys:
            memo[key] = value
        while frames:
            node, step, built, owners = frames[-1]
            built.append(value)
            if len(built) < len(node.args):
                term = node.args[len(built)]
                break
            frames.pop()
            value = node if tuple(built) == node.args else Struct(node.functor, tuple(built))
            for key in owners:
                memo[key] = value
        else:
            return value


class _Frame:
    """One node of the SLD tree: pending goals and remaining clause choices.

    ``theta`` is the goal side of the mgu of the step that produced this
    frame (empty at the root).  The stack of frames is the current branch,
    so an answer is read off it once, by :func:`resolve_answer`, when the
    branch reaches the empty resolvent; a failed branch never pays for it.
    """

    __slots__ = ("goals", "theta", "depth", "choices", "position", "canon", "note")

    def __init__(
        self,
        goals: Resolvent,
        theta: Substitution,
        depth: int,
        choices: Sequence[ClauseTemplate],
        canon: Optional[Tuple] = None,
        note: Any = None,
    ) -> None:
        self.goals = goals
        self.theta = theta
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
        on_path: Set[Tuple] = set()
        root = _Frame(
            goals,
            EMPTY_SUBSTITUTION,
            0,
            self.database.templates(goals[0]),
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
            template = frame.choices[frame.position]
            frame.position += 1
            if step_limit is not None and steps_taken >= step_limit:
                self.hit_step_limit = True
                self.stats.step_budget_hits += 1
                return
            steps_taken += 1
            self.stats.unification_attempts += 1
            resolved = resolve_step(template, frame.goals, self.occurs_check)
            if resolved is None:
                self.stats.unification_failures += 1
                continue
            theta, new_goals = resolved
            self.stats.steps += 1
            if self.on_resolvent is not None:
                self.on_resolvent(new_goals)
            note = None
            if self.on_step is not None:
                note = self.on_step(frame.note, template.clause, theta, new_goals)
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
                path = [node.theta for node in stack[1:]]
                path.append(theta)
                yield resolve_answer(ordered_vars, path)
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
                    theta,
                    depth,
                    self.database.templates(new_goals[0]),
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
