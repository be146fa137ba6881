"""Deterministic subtype derivation (Section 3, Theorems 1–3).

This engine decides ``τ1 ⪰_C τ2`` without searching the full SLD tree of
``H_C``.  It selects "clauses" by the outermost symbol of the *supertype*,
exactly as the paper's refutation strategy prescribes:

* **Theorem 1** (supertype headed by ``f ∈ F``): a refutation exists iff
  the subtype is headed by the same ``f`` and each argument pair is in the
  subtype relation (the substitution axiom, applied componentwise).
  Undeclared constants — the frozen constants of ``τ̄`` — behave like
  0-ary function symbols here.
* **Theorem 2** (supertype headed by ``c ∈ T``): try the substitution
  axiom when the subtype is also ``c``-headed, and the *two-step
  application* of each constraint ``c(α1,...,αn) >= τ ∈ C``, which
  rewrites the supertype to ``τ{α_i ↦ τ_i}`` and recurses.
* **Theorem 3**: guardedness (checked up front via
  ``repro.core.restrictions``) makes every chain of two-step applications
  finite, so the recursion terminates.

Variables are handled by binding (with occurs check): a variable on
either side is unified with the other side, which suffices for the
*existential* question ⪰ asks.  This is complete for the goals the paper
needs (in particular the ``more general`` checks of Definitions 5/10/11,
whose right side is frozen), but deliberately does not enumerate every
answer substitution — when a variable is constrained from two sides whose
least upper bound would require a name-based union the engine, like the
paper's ``match``, can miss solutions.  The differential tests against
the naive prover pin down exactly the regime where both agree.

Ground subgoals are memoised per engine (ablation A1 measures the effect).

Ground goals additionally ride the compiled tree automaton of
``repro.core.automata`` when one exists for this constraint set (uniform
and guarded; the process-wide ``AUTOMATA`` store compiles once per
fingerprint): membership and ground-subtype queries become table walks
over interned node ids, with this module's AND-OR evaluation as the
automatic fallback (non-uniform or unguarded sets, refused roots,
engines built with ``automata=False``).  Verdicts are identical by
construction and pinned by the differential suite.

Observability: every public ``holds`` query is mirrored into
``repro.obs`` when telemetry is enabled — a ``subtype.goals`` counter,
per-goal work deltas (substitution steps, constraint expansions, memo
traffic), a ``subtype.holds`` timer, and a ``subtype_goal`` trace span
under which rule selections, expansions, failure reasons, and memo
probes nest as child events.  With telemetry disabled the only cost is
one flag check in ``holds`` before dispatching to the seed code path
(``_holds_core``); the overhead guard in ``tests/obs`` pins this below
5%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..obs import METRICS, TRACER, CacheProbeEvent, PhaseEvent, SubtypeGoalEvent
from ..terms.freeze import freeze
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var
from .automata import AUTOMATA
from .declarations import ConstraintSet
from .recursion import ensure_recursion_capacity
from .restrictions import validate_restrictions

__all__ = ["SubtypeStats", "SubtypeEngine"]


@dataclass
class SubtypeStats:
    """Work counters for one engine instance."""

    substitution_steps: int = 0
    constraint_expansions: int = 0
    variable_bindings: int = 0
    memo_hits: int = 0
    memo_entries: int = 0
    #: ground goals answered by the compiled tree automaton.
    automaton_hits: int = 0
    #: ground goals that wanted the automaton but fell back to the
    #: AND-OR walk (non-uniform or unguarded set, ...).
    automaton_fallbacks: int = 0


class SubtypeEngine:
    """Decision procedure for ``⪰_C`` over a uniform, guarded set ``C``."""

    def __init__(
        self,
        constraints: ConstraintSet,
        memoize: bool = True,
        validate: bool = True,
        shared_memo: "object" = None,
        automata: bool = True,
    ) -> None:
        if validate:
            validate_restrictions(constraints)
        self.constraints = constraints
        self.symbols = constraints.symbols
        self.memoize = memoize
        self.stats = SubtypeStats()
        self._memo: Dict[Tuple[Term, Term], bool] = {}
        #: True when ``_memo`` is a table borrowed from a process-wide
        #: :class:`repro.core.shared_memo.SharedSubtypeMemo` rather than
        #: this engine's own dict.  Sharing is strictly opt-in: the plain
        #: constructor always starts cold (differential tests and the
        #: engine-sharing regression tests rely on that), the checker
        #: frontend and the batch service pass ``shared_memo=SHARED_MEMO``.
        self._memo_shared = False
        if shared_memo is not None and memoize:
            table = shared_memo.table_for(constraints)
            if table is not None:
                self._memo = table
                self._memo_shared = True
        self._bindings: Dict[Var, Term] = {}
        self._trail: List[Var] = []
        #: Compiled tree automaton for ground goals (None for non-uniform
        #: or unguarded sets, or when built with ``automata=False``).  The
        #: ``_automaton_requested`` flag distinguishes "opted out" from
        #: "wanted one but none exists" so the fallback counter is exact.
        self._automaton = AUTOMATA.automaton_for(constraints) if automata else None
        self._automaton_requested = automata

    # -- public queries ------------------------------------------------------

    def holds(self, supertype: Term, subtype: Term) -> bool:
        """``τ1 ⪰_C τ2`` — existence of a refutation (Definition 3)."""
        if METRICS.enabled or TRACER.enabled:
            return self._holds_observed(supertype, subtype)
        return self._holds_core(supertype, subtype)

    def _holds_observed(self, supertype: Term, subtype: Term) -> bool:
        """The :meth:`holds` telemetry wrapper (only runs while enabled)."""
        stats = self.stats
        before = (
            stats.substitution_steps,
            stats.constraint_expansions,
            stats.memo_hits,
            stats.memo_entries,
            stats.variable_bindings,
            stats.automaton_hits,
            stats.automaton_fallbacks,
        )
        handle = TRACER.begin() if TRACER.enabled else None
        start = time.perf_counter()
        result = self._holds_core(supertype, subtype)
        elapsed = time.perf_counter() - start
        steps = stats.substitution_steps - before[0]
        expansions = stats.constraint_expansions - before[1]
        if METRICS.enabled:
            METRICS.inc("subtype.goals")
            METRICS.inc("subtype.true" if result else "subtype.false")
            if steps:
                METRICS.inc("subtype.substitution_steps", steps)
            if expansions:
                METRICS.inc("subtype.expansions", expansions)
            memo_hits = stats.memo_hits - before[2]
            if memo_hits:
                METRICS.inc("subtype.memo_hits", memo_hits)
            memo_entries = stats.memo_entries - before[3]
            if memo_entries:
                METRICS.inc("subtype.memo_entries", memo_entries)
            bindings = stats.variable_bindings - before[4]
            if bindings:
                METRICS.inc("subtype.variable_bindings", bindings)
            automaton_hits = stats.automaton_hits - before[5]
            if automaton_hits:
                METRICS.inc("subtype.automaton.hits", automaton_hits)
            automaton_fallbacks = stats.automaton_fallbacks - before[6]
            if automaton_fallbacks:
                METRICS.inc("subtype.automaton.fallbacks", automaton_fallbacks)
            if self._memo_shared:
                # Mirror the memo traffic under the shared-memo namespace so
                # cross-engine reuse is visible separately from per-engine
                # memoisation (the per-file engines of a batch run all write
                # into one table; see repro.core.shared_memo).
                shared_hits = stats.memo_hits - before[2]
                if shared_hits:
                    METRICS.inc("subtype.shared_memo.hits", shared_hits)
                shared_entries = stats.memo_entries - before[3]
                if shared_entries:
                    METRICS.inc("subtype.shared_memo.entries", shared_entries)
            METRICS.observe("subtype.holds", elapsed)
        if handle is not None:
            TRACER.end(
                handle,
                SubtypeGoalEvent,
                supertype=pretty(supertype),
                subtype=pretty(subtype),
                engine="strategy",
                result=result,
                substitution_steps=steps,
                expansions=expansions,
                reason=None if result else "no_refutation",
            )
        return result

    def _holds_core(self, supertype: Term, subtype: Term) -> bool:
        """The seed decision procedure, untouched by telemetry."""
        if (
            isinstance(supertype, Struct)
            and isinstance(subtype, Struct)
            and supertype.ground
            and subtype.ground
        ):
            # Variable-free goals — the membership/frozen-comparison case,
            # where terms can be arbitrarily deep — are decided by the
            # compiled tree automaton when one exists, else with an
            # explicit-stack AND-OR evaluation: recursive generators would
            # consume C stack per nesting level and cannot survive terms
            # tens of thousands of symbols deep.
            automaton = self._automaton
            if automaton is not None:
                if supertype == subtype:
                    return True
                memo = self._memo if self.memoize else {}
                root = (supertype, subtype)
                cached = memo.get(root)
                if TRACER.enabled:
                    TRACER.point(
                        CacheProbeEvent,
                        cache="subtype.ground_memo",
                        hit=cached is not None,
                    )
                if cached is not None:
                    self.stats.memo_hits += 1
                    return cached
                verdict = automaton.holds(supertype, subtype)
                self.stats.automaton_hits += 1
                memo[root] = verdict
                self.stats.memo_entries += 1
                return verdict
            if self._automaton_requested:
                self.stats.automaton_fallbacks += 1
            return self._holds_ground(supertype, subtype)
        ensure_recursion_capacity(supertype, subtype)
        self._bindings.clear()
        self._trail.clear()
        for _ in self._prove(supertype, subtype):
            return True
        return False

    def contains(self, type_term: Term, ground_term: Term) -> bool:
        """``t ∈ M_C[[τ]]`` (Definition 4)."""
        return self.holds(type_term, ground_term)

    def more_general(self, general: Term, specific: Term) -> bool:
        """Definition 5: ``τ1 ⪰_C τ̄2``."""
        return self.holds(general, freeze(specific))

    def equivalent(self, left: Term, right: Term) -> bool:
        """Mutual generality (each side more general than the other)."""
        return self.more_general(left, right) and self.more_general(right, left)

    # -- ground goals: iterative AND-OR evaluation --------------------------------

    def _ground_alternatives(
        self, supertype: Struct, subtype: Struct
    ) -> List[Tuple[Tuple[Term, Term], ...]]:
        """The disjuncts for a ground goal, each a conjunction of subgoals.

        Theorem 1 (function symbol): one alternative — componentwise via
        the substitution axiom — or none on a symbol clash.  Theorem 2
        (type constructor): the substitution axiom (same constructor)
        plus one alternative per constraint's two-step application.
        """
        alternatives: List[Tuple[Tuple[Term, Term], ...]] = []
        same_symbol = (
            supertype.functor == subtype.functor
            and len(supertype.args) == len(subtype.args)
        )
        trace_on = TRACER.enabled
        if not self.symbols.is_type_constructor(supertype.functor):
            if same_symbol:
                self.stats.substitution_steps += 1
                alternatives.append(tuple(zip(supertype.args, subtype.args)))
            elif trace_on:
                TRACER.point(
                    PhaseEvent,
                    name="subtype_fail",
                    detail=(
                        f"symbol clash {supertype.functor}/{len(supertype.args)}"
                        f" vs {subtype.functor}/{len(subtype.args)}"
                    ),
                )
            return alternatives
        if same_symbol:
            self.stats.substitution_steps += 1
            alternatives.append(tuple(zip(supertype.args, subtype.args)))
        expansions = self.constraints.expansions(supertype)
        self.stats.constraint_expansions += len(expansions)
        for expansion in expansions:
            if trace_on:
                TRACER.point(
                    PhaseEvent,
                    name="subtype_rule",
                    detail=f"expand {pretty(supertype)} -> {pretty(expansion)}",
                )
            alternatives.append(((expansion, subtype),))
        return alternatives

    def _holds_ground(self, supertype: Struct, subtype: Struct) -> bool:
        """Decide a variable-free goal without Python recursion.

        Evaluates the AND-OR dag rooted at ``(supertype, subtype)`` with
        an explicit stack; guardedness (Theorem 3) makes the dag acyclic,
        and results are memoised across calls when ``memoize`` is set.
        """
        memo = self._memo if self.memoize else {}

        class _GFrame:
            __slots__ = ("key", "alternatives", "alt_index", "pair_index")

            def __init__(self, key: Tuple[Term, Term], alternatives) -> None:
                self.key = key
                self.alternatives = alternatives
                self.alt_index = 0
                self.pair_index = 0

        root = (supertype, subtype)
        if supertype == subtype:
            return True
        cached = memo.get(root)
        if TRACER.enabled:
            # Only the root probe is traced: the inner AND-OR loop probes
            # the memo once per node and would swamp the stream.
            TRACER.point(
                CacheProbeEvent, cache="subtype.ground_memo", hit=cached is not None
            )
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        stack = [_GFrame(root, self._ground_alternatives(supertype, subtype))]
        while stack:
            frame = stack[-1]
            if frame.alt_index >= len(frame.alternatives):
                memo[frame.key] = False
                self.stats.memo_entries += 1
                stack.pop()
                continue
            alternative = frame.alternatives[frame.alt_index]
            if frame.pair_index >= len(alternative):
                memo[frame.key] = True
                self.stats.memo_entries += 1
                stack.pop()
                continue
            child_sup, child_sub = alternative[frame.pair_index]
            if child_sup == child_sub:
                frame.pair_index += 1
                continue
            child_key = (child_sup, child_sub)
            value = memo.get(child_key)
            if value is None:
                assert isinstance(child_sup, Struct) and isinstance(child_sub, Struct)
                stack.append(
                    _GFrame(
                        child_key,
                        self._ground_alternatives(child_sup, child_sub),
                    )
                )
                continue
            self.stats.memo_hits += 1
            if value:
                frame.pair_index += 1
            else:
                frame.alt_index += 1
                frame.pair_index = 0
        return memo[root]

    # -- bindings ------------------------------------------------------------

    def _walk(self, term: Term) -> Term:
        while isinstance(term, Var) and term in self._bindings:
            term = self._bindings[term]
        return term

    def _resolve(self, term: Term) -> Tuple[Term, bool]:
        """Deep-apply current bindings; also report groundness.

        A ground term (O(1) check, cached on the Struct) needs no walk;
        with no bindings at all nothing can change either.  These two
        short-circuits keep the memo path linear on ground queries.
        """
        term = self._walk(term)
        if isinstance(term, Var):
            return term, False
        if term.ground:
            return term, True
        if not self._bindings:
            return term, False
        # Iterative rebuild (deep terms must not exhaust the C stack).
        # Each frame is [node, built_args]; len(built_args) is the index
        # of the next child to process.  A variable child walks to its
        # binding first; a ground child is shared untouched.
        frames: List[List[object]] = [[term, []]]
        result: Term = term
        result_ground = False
        while frames:
            node, built = frames[-1]
            args = node.args  # type: ignore[union-attr]
            index = len(built)  # type: ignore[arg-type]
            if index < len(args):
                child = self._walk(args[index])
                if isinstance(child, Var) or child.ground:
                    built.append(child)  # type: ignore[union-attr]
                else:
                    frames.append([child, []])
                continue
            frames.pop()
            rebuilt: Term = Struct(node.functor, tuple(built))  # type: ignore[union-attr,arg-type]
            if frames:
                frames[-1][1].append(rebuilt)  # type: ignore[union-attr]
            else:
                result = rebuilt
                result_ground = rebuilt.ground
        return result, result_ground

    def _occurs(self, var: Var, term: Term) -> bool:
        stack = [term]
        while stack:
            current = self._walk(stack.pop())
            if current == var:
                return True
            if isinstance(current, Struct):
                stack.extend(current.args)
        return False

    def _bind(self, var: Var, term: Term) -> bool:
        if self._occurs(var, term):
            return False
        self._bindings[var] = term
        self._trail.append(var)
        self.stats.variable_bindings += 1
        return True

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            del self._bindings[self._trail.pop()]

    # -- the strategy ----------------------------------------------------------

    def _prove(self, supertype: Term, subtype: Term) -> Iterator[None]:
        supertype = self._walk(supertype)
        subtype = self._walk(subtype)

        # Reflexivity fast path: t >= t is always derivable from the
        # substitution axioms alone.
        if supertype == subtype:
            yield
            return

        # A variable on either side: unify (existential semantics).
        if isinstance(supertype, Var):
            mark = len(self._trail)
            if self._bind(supertype, subtype):
                yield
            self._undo_to(mark)
            return
        if isinstance(subtype, Var):
            mark = len(self._trail)
            if self._bind(subtype, supertype):
                yield
            self._undo_to(mark)
            return

        # Both sides are structs now.
        if self.memoize:
            resolved_sup, sup_ground = self._resolve(supertype)
            resolved_sub, sub_ground = self._resolve(subtype)
            if sup_ground and sub_ground:
                key = (resolved_sup, resolved_sub)
                cached = self._memo.get(key)
                if TRACER.enabled:
                    TRACER.point(
                        CacheProbeEvent, cache="subtype.memo", hit=cached is not None
                    )
                if cached is not None:
                    self.stats.memo_hits += 1
                    if cached:
                        yield
                    return
                automaton = self._automaton
                if automaton is not None:
                    found = automaton.holds(resolved_sup, resolved_sub)
                    self.stats.automaton_hits += 1
                else:
                    if self._automaton_requested:
                        self.stats.automaton_fallbacks += 1
                    found = False
                    for _ in self._prove_struct(resolved_sup, resolved_sub):
                        found = True
                        break
                self._memo[key] = found
                self.stats.memo_entries += 1
                if found:
                    yield
                return
        yield from self._prove_struct(supertype, subtype)

    def _prove_struct(self, supertype: Struct, subtype: Struct) -> Iterator[None]:
        if not self.symbols.is_type_constructor(supertype.functor):
            # Theorem 1: function symbol (or frozen constant) at the top —
            # only the substitution axiom for that very symbol applies.
            if (
                subtype.functor != supertype.functor
                or len(subtype.args) != len(supertype.args)
            ):
                if TRACER.enabled:
                    TRACER.point(
                        PhaseEvent,
                        name="subtype_fail",
                        detail=(
                            f"symbol clash {supertype.functor}/"
                            f"{len(supertype.args)} vs {subtype.functor}/"
                            f"{len(subtype.args)}"
                        ),
                    )
                return
            self.stats.substitution_steps += 1
            if TRACER.enabled:
                TRACER.point(
                    PhaseEvent,
                    name="subtype_rule",
                    detail=f"substitution {supertype.functor}/{len(supertype.args)}",
                )
            yield from self._prove_pairs(tuple(zip(supertype.args, subtype.args)))
            return
        # Theorem 2: type constructor at the top.
        if (
            subtype.functor == supertype.functor
            and len(subtype.args) == len(supertype.args)
        ):
            self.stats.substitution_steps += 1
            if TRACER.enabled:
                TRACER.point(
                    PhaseEvent,
                    name="subtype_rule",
                    detail=f"substitution {supertype.functor}/{len(supertype.args)}",
                )
            yield from self._prove_pairs(tuple(zip(supertype.args, subtype.args)))
        for expansion in self.constraints.expansions(supertype):
            self.stats.constraint_expansions += 1
            if TRACER.enabled:
                TRACER.point(
                    PhaseEvent,
                    name="subtype_rule",
                    detail=f"expand {pretty(supertype)} -> {pretty(expansion)}",
                )
            yield from self._prove(expansion, subtype)

    def _prove_pairs(self, pairs: Tuple[Tuple[Term, Term], ...]) -> Iterator[None]:
        if not pairs:
            yield
            return
        (sup, sub) = pairs[0]
        rest = pairs[1:]
        for _ in self._prove(sup, sub):
            yield from self._prove_pairs(rest)
