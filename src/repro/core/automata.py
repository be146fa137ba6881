"""Tree-automaton compilation of uniform constraint sets.

A *uniform* (Definition 6) and *guarded* (Definition 9) constraint set is
exactly a regular-type definition in the sense of the set-constraints
line of work (Bueno, Navas & Hermenegildo): every ground type term ``τ``
denotes a regular tree language, and the paper's membership question
``t ∈ M_C[[τ]]`` (Definition 4, via Definition 3's refutation existence)
is acceptance of ``t`` by a bottom-up tree automaton.  This module
compiles one :class:`TreeAutomaton` per constraint-set fingerprint and
turns the three hot ground queries into table walks over hash-consed
node ids:

* ``member(t, τ)`` — a deterministic bottom-up run.  NFA states are
  ground type terms; for each state ``σ`` the *F-closure* of ``σ``
  (everything reachable from ``σ`` by two-step constraint applications
  until a function symbol surfaces) contributes rules
  ``f(σ1,...,σn) → σ``.  The subset construction is performed lazily: a
  determinized state is a frozenset of NFA states, transitions are
  memoized in a table keyed by ``(functor, arity, child-state-tuple)``,
  and every interned term node caches its determinized state — so a
  re-query over shared subtrees is one dict probe per *new* node.  A new
  transition is read off a per-``(functor, arity)`` rule index: for each
  argument position, a bitmask of the rules that accept a given NFA
  state there, so the rules that fire are an AND over positions of ORs
  over each child's determinized state, never a scan of every rule.
* ground ``subtype(σ, τ)`` — a product construction over pairs of
  interned nodes: the same AND-OR dag the deterministic engine walks
  (Theorems 1–2), but memoized in a process-lifetime pair table, with
  every pair whose right side is constructor-free delegated to the
  membership run above.
* ground ``match`` (Definition 13 with ground ``τ`` and ``t``) — with
  both sides ground a typing is necessarily empty, so the result is
  three-valued: typing, fail or ⊥.  The walk's only ⊥ source is a type
  constructor with no expansions.  When none is reachable from ``τ``
  (through expansions and argument positions) every verdict is typing
  or fail: clause 4 is an OR over the expansions and clause 3 an AND
  over the arguments, and fail-dominates (``Matcher``) and
  first-non-typing-wins (the Section 7
  :class:`~repro.core.constraint_match.ConstraintMatcher`) both give
  fail exactly when some argument fails.  So both matchers' verdicts are
  membership, ``t ∈ M_C[[τ]]``, read off ``t``'s node state: one cached
  entry per term node, shared by both modes, with a head filter (``t``'s
  symbol heads no F-closure member of ``τ``: fail) in front.  A
  function-headed ``τ`` is not registered; ``match_ground`` does its
  clause-3 level itself and asks each argument the same way.  Types that
  can reach ⊥, refused roots, terms holding a type constructor and
  nested function heads keep the three-valued walk, memoized per
  ``(τ, t)`` pair in one table per mode, because there the two clause-3
  orders can disagree.

Verdicts are *identical* to the deterministic engine's — the automaton
is a cache/compilation layer, never a semantics change; the naive SLD
prover remains the differential oracle (``tests/core/test_automata.py``).

Scope and fallback
------------------

Compilation refuses non-uniform or unguarded sets (``automaton_for``
returns ``None`` and callers keep the compiled-template expansion path).
Registration of query roots is budgeted: pathological types whose state
closure explodes (possible even for guarded sets, e.g.
``t(A) >= f(t(g(A)))``) and types mentioning frozen constants (fresh per
``freeze``, they would churn the universe) are refused per root — the
product construction then decides those pairs by the plain AND-OR walk,
still memoized.  The store has no off switch: an engine built with
``automata=False`` (``SubtypeEngine``, ``Matcher``, ``ConstraintMatcher``)
never attaches and runs the template-expansion path, which is how the
differential tests and the ``automata.*.fallback`` rows of
``benchmarks/summary.py`` reach it.

Sharing and persistence
-----------------------

:data:`AUTOMATA` is the process-wide store, keyed by
``ConstraintSet.fingerprint()`` and version-fenced alongside the
:class:`~repro.core.shared_memo.SharedSubtypeMemo` — every per-file
engine of a batch/daemon/aserver worker attaches to the same compiled
automaton.  The compiled structure (states and rules) pickles; the batch
runner and the daemon spill it next to the persistent result cache so
fresh *processes* start compiled too.  Per-term caches are deliberately
not spilled: their keys are arbitrarily deep terms (pickle recursion) and
they rebuild in one walk.  One-step expansions are read from the
constraint set's own expansion table, which does not pickle either.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..obs import METRICS
from ..terms.freeze import FROZEN_PREFIX
from ..terms.term import Struct, Term
from .declarations import ConstraintSet

__all__ = [
    "TreeAutomaton",
    "AutomataStore",
    "AUTOMATA",
    "DEFAULT_MAX_STATES",
    "DEFAULT_ROOT_STATE_BUDGET",
    "DEFAULT_MAX_CACHE_ENTRIES",
    "SPILL_FILENAME",
]

#: Global NFA-state cap per automaton; hitting it marks the automaton
#: saturated (further unregistered roots are refused, registered ones
#: keep answering from the tables).
DEFAULT_MAX_STATES = 8192

#: Per-root registration budget: one query type may add at most this many
#: new states, so a single pathological root cannot saturate the store.
DEFAULT_ROOT_STATE_BUDGET = 256

#: Soft cap for each per-term cache (node states, pair table, match
#: tables); an overgrown cache restarts cold.
DEFAULT_MAX_CACHE_ENTRIES = 1_000_000

SPILL_FILENAME = "automata.pickle"
SPILL_SCHEMA = "tlp-automata-spill/2"

#: Node-state sentinel: the term contains a type constructor somewhere,
#: so the membership run does not apply (product construction instead).
_IMPURE = -1

MatchVerdict = str  # "typing" | "fail" | "bottom"

#: Match-root record: the walk decides this type.  No ⊥-free type has an
#: empty F-closure (guardedness ends every expansion chain at a function
#: symbol), so the empty set cannot be a real head set.
_WALK: FrozenSet[Tuple[str, int]] = frozenset()


class _BudgetExceeded(Exception):
    """Internal: root registration ran out of state budget."""


class _Generation:
    """One determinization epoch: flushed wholesale when the NFA grows.

    Lazily-computed determinized structures are only valid against the
    rule universe they were computed from; registering a new root grows
    the universe, so the automaton swaps in a fresh generation (walks
    already in flight keep their captured references and stay internally
    consistent — their answers concern previously registered states,
    which the old tables decide correctly).
    """

    __slots__ = ("node_states", "dstate_ids", "dsets", "transitions", "masks")

    def __init__(self) -> None:
        #: interned term node -> determinized state id (or _IMPURE).
        self.node_states: Dict[Struct, int] = {}
        #: frozenset of NFA states -> determinized state id.
        self.dstate_ids: Dict[FrozenSet[Struct], int] = {}
        #: determinized state id -> frozenset of NFA states.
        self.dsets: List[FrozenSet[Struct]] = []
        #: (functor, arity, child-state-ids) -> determinized state id.
        self.transitions: Dict[Tuple[str, int, Tuple[int, ...]], int] = {}
        #: (functor, arity) -> (the rule index the masks were read from,
        #: per position: determinized state id -> OR of its states' masks).
        self.masks: Dict[Tuple[str, int], Tuple["_RuleIndex", List[Dict[int, int]]]] = {}


class _RuleIndex:
    """Bitmask index over the rules of one ``(functor, arity)``.

    Bit ``i`` stands for the ``i``-th rule of the list; ``by_position[p]``
    maps an NFA state to the mask of the rules whose ``p``-th child type
    is that state.  Built from one ``changes`` value of the rule list and
    rebuilt when that value moves on.
    """

    __slots__ = ("changes", "targets", "by_position", "everything")

    def __init__(
        self,
        rows: List[Tuple[Tuple[Term, ...], Struct]],
        arity: int,
        changes: int,
    ) -> None:
        self.changes = changes
        self.targets = [target for _children, target in rows]
        self.by_position: List[Dict[Term, int]] = [{} for _ in range(arity)]
        for bit, (children, _target) in enumerate(rows):
            mask = 1 << bit
            for table, child in zip(self.by_position, children):
                table[child] = table.get(child, 0) | mask
        #: every rule: the AND over no positions (nullary symbols).
        self.everything = (1 << len(rows)) - 1


class _PairFrame:
    """One node of the product construction's explicit AND-OR stack."""

    __slots__ = ("key", "alternatives", "alt_index", "pair_index")

    def __init__(
        self,
        key: Tuple[Struct, Struct],
        alternatives: List[Tuple[Tuple[Term, Term], ...]],
    ) -> None:
        self.key = key
        self.alternatives = alternatives
        self.alt_index = 0
        self.pair_index = 0


class TreeAutomaton:
    """The compiled form of one uniform, guarded constraint set."""

    def __init__(
        self,
        constraints: ConstraintSet,
        max_states: int = DEFAULT_MAX_STATES,
        root_state_budget: int = DEFAULT_ROOT_STATE_BUDGET,
        max_cache_entries: int = DEFAULT_MAX_CACHE_ENTRIES,
    ) -> None:
        self.constraints = constraints
        self.symbols = constraints.symbols
        self.fingerprint = constraints.fingerprint()
        self.max_states = max_states
        self.root_state_budget = root_state_budget
        self.max_cache_entries = max_cache_entries
        self._lock = threading.RLock()
        #: NFA states: registered ground type terms.
        self._states: Set[Struct] = set()
        #: (functor, arity) -> [(child type tuple, target state), ...].
        self._rules: Dict[Tuple[str, int], List[Tuple[Tuple[Term, ...], Struct]]] = {}
        #: (functor, arity) -> count of appends and removals on its rule
        #: list, and the bitmask index last built from it.
        self._rule_changes: Dict[Tuple[str, int], int] = {}
        self._index: Dict[Tuple[str, int], _RuleIndex] = {}
        self._refused: Set[Struct] = set()
        self._saturated = False
        self._gen = _Generation()
        #: product construction: (supertype, subtype) -> verdict.
        self._pair: Dict[Tuple[Struct, Struct], bool] = {}
        #: ground match walk tables (Definition 13 vs the Section 7
        #: variant), for the pairs node states cannot decide.
        self._match_memo: Dict[Tuple[Struct, Struct], MatchVerdict] = {}
        self._cmatch_memo: Dict[Tuple[Struct, Struct], MatchVerdict] = {}
        #: constructor-headed ground match type -> its F-closure heads, or
        #: _WALK when the walk must decide it.
        self._match_roots: Dict[Struct, FrozenSet[Tuple[str, int]]] = {}
        # traffic counters (stats()/obs gauges)
        self.holds_calls = 0
        self.member_decided = 0
        self.match_calls = 0
        self.match_decided = 0
        self.refusals = 0
        self.flushes = 0
        self.evictions = 0
        self.transitions_computed = 0
        # Seed the universe with every nullary constructor type (cheap,
        # and the common roots — nat, int, ... — start registered).
        for name, arity in self.symbols.type_constructors.items():
            if arity == 0:
                self._register(Struct(name, ()))

    # -- NFA construction ----------------------------------------------------

    def _expansions_of(self, type_term: Struct) -> List[Struct]:
        """One-step expansions of a *ground* constructor type, read from
        the constraint set's expansion table (never changed here)."""
        return self.constraints.expansions(type_term)  # type: ignore[return-value]

    def _f_closure(self, state: Struct, budget: int) -> List[Struct]:
        """Function-symbol-headed members of ``state``'s expansion closure.

        BFS over ``→_C`` from ``state``; guardedness makes every chain
        finite (Theorem 3), so the closure of one root is finite — the
        budget only guards against genuinely huge closures.
        """
        is_tc = self.symbols.is_type_constructor
        if not is_tc(state.functor):
            return [state]
        members: List[Struct] = []
        seen: Set[Struct] = {state}
        frontier: List[Struct] = [state]
        while frontier:
            current = frontier.pop()
            for expansion in self._expansions_of(current):
                if is_tc(expansion.functor):
                    if expansion not in seen:
                        if len(seen) > budget:
                            raise _BudgetExceeded
                        seen.add(expansion)
                        frontier.append(expansion)
                else:
                    members.append(expansion)
        return members

    @staticmethod
    def _mentions_frozen(type_term: Struct) -> bool:
        """True iff a frozen constant occurs anywhere in ``type_term``.

        Frozen constants are fresh per ``freeze`` call, so registering
        types that mention them would grow (and flush) the universe on
        every ``more general`` comparison; such roots stay on the
        product-construction path instead.
        """
        stack: List[Term] = [type_term]
        while stack:
            node = stack.pop()
            if isinstance(node, Struct):
                if node.functor.startswith(FROZEN_PREFIX):
                    return True
                stack.extend(node.args)
        return False

    def _register(self, root: Struct) -> bool:
        """Ensure ``root`` (ground type term) is an NFA state.

        Registration is transactional: when the per-root budget or the
        global state cap is exceeded every rule added for this root is
        rolled back and the root is refused — a partially registered root
        would silently lose rules and turn into wrong (false-negative)
        acceptance answers.  New states are collected locally and
        published into ``_states`` only after their rules and the new
        generation are in place, so a reader that passes the unlocked
        fast path never walks a generation that lacks the root's rules.
        """
        if root in self._states:  # racy fast path; revalidated under lock
            return True
        with self._lock:
            if root in self._states:
                return True
            if root in self._refused or self._saturated:
                self.refusals += 1
                return False
            if self._mentions_frozen(root):
                self._refused.add(root)
                self.refusals += 1
                return False
            states = self._states
            added_states: Set[Struct] = set()
            added_rules: List[Tuple[Tuple[str, int], Tuple[Tuple[Term, ...], Struct]]] = []
            budget = self.root_state_budget
            try:
                stack: List[Struct] = [root]
                while stack:
                    state = stack.pop()
                    if state in states or state in added_states:
                        continue
                    if (
                        len(added_states) >= budget
                        or len(states) + len(added_states) >= self.max_states
                    ):
                        raise _BudgetExceeded
                    added_states.add(state)
                    for member in self._f_closure(state, budget):
                        key = (member.functor, len(member.args))
                        entry = (member.args, state)
                        self._rules.setdefault(key, []).append(entry)
                        self._rule_changes[key] = self._rule_changes.get(key, 0) + 1
                        added_rules.append((key, entry))
                        for child in member.args:
                            assert isinstance(child, Struct)
                            if child not in states and child not in added_states:
                                stack.append(child)
            except _BudgetExceeded:
                for key, entry in added_rules:
                    self._rules[key].remove(entry)
                    self._rule_changes[key] += 1
                if len(states) >= self.max_states:
                    self._saturated = True
                self._refused.add(root)
                self.refusals += 1
                return False
            if added_states:
                # The determinized tables were computed against the old
                # universe; swap in a fresh generation (never mutate the
                # old one — in-flight walks hold references to it), then
                # publish the states.
                self._gen = _Generation()
                self.flushes += 1
                states |= added_states
            return True

    # -- the determinized membership run -------------------------------------

    def _rule_index(self, functor: str, arity: int) -> Optional[_RuleIndex]:
        """The bitmask index of ``(functor, arity)``'s rules, rebuilt when
        the rule list changed since it was built (callers hold the lock);
        ``None`` when no rule has that symbol."""
        key = (functor, arity)
        rows = self._rules.get(key)
        if not rows:
            return None
        changes = self._rule_changes.get(key, 0)
        index = self._index.get(key)
        if index is None or index.changes != changes:
            index = self._index[key] = _RuleIndex(rows, arity, changes)
        return index

    def _transition(
        self,
        gen: _Generation,
        key: Tuple[str, int, Tuple[int, ...]],
    ) -> int:
        """Compute (and memoize) one determinized transition.

        The rules that fire are those whose every child type lies in the
        matching child dstate: per position, the OR of the masks of that
        dstate's NFA states (cached for the generation), ANDed over the
        positions."""
        with self._lock:
            cached = gen.transitions.get(key)
            if cached is not None:
                return cached
            self.transitions_computed += 1
            functor, arity, child_ids = key
            dsets = gen.dsets
            result: Set[Struct] = set()
            index = self._rule_index(functor, arity)
            if index is not None:
                entry = gen.masks.get((functor, arity))
                if entry is None or entry[0] is not index:
                    entry = gen.masks[(functor, arity)] = (
                        index,
                        [{} for _ in range(arity)],
                    )
                fired = index.everything
                for table, cache, child_id in zip(
                    index.by_position, entry[1], child_ids
                ):
                    mask = cache.get(child_id)
                    if mask is None:
                        mask = 0
                        for state in dsets[child_id]:
                            mask |= table.get(state, 0)
                        cache[child_id] = mask
                    fired &= mask
                    if not fired:
                        break
                targets = index.targets
                while fired:
                    low = fired & -fired
                    result.add(targets[low.bit_length() - 1])
                    fired ^= low
            frozen = frozenset(result)
            state_id = gen.dstate_ids.get(frozen)
            if state_id is None:
                state_id = len(dsets)
                dsets.append(frozen)
                gen.dstate_ids[frozen] = state_id
            gen.transitions[key] = state_id
            return state_id

    def _node_state(self, gen: _Generation, term: Struct) -> int:
        """Bottom-up determinized run over ``term`` (iterative: terms can
        be tens of thousands of nodes deep).  Every interned node caches
        its state, so shared subtrees are one dict probe."""
        node_states = gen.node_states
        cached = node_states.get(term)
        if cached is not None:
            return cached
        is_tc = self.symbols.is_type_constructor
        transitions = gen.transitions
        stack: List[Struct] = [term]
        while stack:
            node = stack[-1]
            if node in node_states:
                stack.pop()
                continue
            if is_tc(node.functor):
                node_states[node] = _IMPURE
                stack.pop()
                continue
            args = node.args
            missing = [child for child in args if child not in node_states]
            if missing:
                stack.extend(missing)  # type: ignore[arg-type]
                continue
            stack.pop()
            child_ids = tuple(node_states[child] for child in args)  # type: ignore[index]
            if _IMPURE in child_ids:
                node_states[node] = _IMPURE
                continue
            key = (node.functor, len(args), child_ids)
            state_id = transitions.get(key)
            if state_id is None:
                state_id = self._transition(gen, key)
            node_states[node] = state_id
        return node_states[term]

    def _member(self, supertype: Struct, subtype: Struct) -> Optional[bool]:
        """``supertype ⪰ subtype`` by table walk, or ``None`` when out of
        scope (refused root, or the subtype mentions a type constructor)."""
        if not self._register(supertype):
            return None
        gen = self._gen  # after _register: the current generation
        state_id = self._node_state(gen, subtype)
        if state_id == _IMPURE:
            return None
        self.member_decided += 1
        return supertype in gen.dsets[state_id]

    # -- the product construction (ground subtype) ---------------------------

    def _alternatives(
        self, supertype: Struct, subtype: Struct
    ) -> List[Tuple[Tuple[Term, Term], ...]]:
        """Theorem 1/2 disjuncts for a ground pair — the engine's
        ``_ground_alternatives``, verbatim semantics."""
        alternatives: List[Tuple[Tuple[Term, Term], ...]] = []
        same_symbol = (
            supertype.functor == subtype.functor
            and len(supertype.args) == len(subtype.args)
        )
        if not self.symbols.is_type_constructor(supertype.functor):
            if same_symbol:
                alternatives.append(tuple(zip(supertype.args, subtype.args)))
            return alternatives
        if same_symbol:
            alternatives.append(tuple(zip(supertype.args, subtype.args)))
        for expansion in self._expansions_of(supertype):
            alternatives.append(((expansion, subtype),))
        return alternatives

    def _maybe_evict(self) -> None:
        """Entry-point cache-cap check (never mid-walk: walks rely on
        their tables staying populated until they return)."""
        gen = self._gen
        if len(gen.node_states) > self.max_cache_entries:
            with self._lock:
                if self._gen is gen:
                    self._gen = _Generation()
                    self.evictions += 1
        for table in (
            self._pair, self._match_memo, self._cmatch_memo, self._match_roots
        ):
            if len(table) > self.max_cache_entries:
                table.clear()
                self.evictions += 1

    def holds(self, supertype: Struct, subtype: Struct) -> bool:
        """Ground ``supertype ⪰_C subtype`` — identical to the engine's
        ``_holds_ground`` verdict, decided from the tables."""
        self.holds_calls += 1
        if supertype == subtype:
            return True
        self._maybe_evict()
        pair = self._pair
        root = (supertype, subtype)
        cached = pair.get(root)
        if cached is not None:
            return cached
        quick = self._member(supertype, subtype)
        if quick is not None:
            pair[root] = quick
            return quick
        stack = [_PairFrame(root, self._alternatives(supertype, subtype))]
        while stack:
            frame = stack[-1]
            if frame.alt_index >= len(frame.alternatives):
                pair[frame.key] = False
                stack.pop()
                continue
            alternative = frame.alternatives[frame.alt_index]
            if frame.pair_index >= len(alternative):
                pair[frame.key] = True
                stack.pop()
                continue
            child_sup, child_sub = alternative[frame.pair_index]
            if child_sup == child_sub:
                frame.pair_index += 1
                continue
            assert isinstance(child_sup, Struct) and isinstance(child_sub, Struct)
            child_key = (child_sup, child_sub)
            value = pair.get(child_key)
            if value is None:
                value = self._member(child_sup, child_sub)
                if value is not None:
                    pair[child_key] = value
            if value is None:
                stack.append(
                    _PairFrame(child_key, self._alternatives(child_sup, child_sub))
                )
                continue
            if value:
                frame.pair_index += 1
            else:
                frame.alt_index += 1
                frame.pair_index = 0
        return pair[root]

    # -- the ground match walk ------------------------------------------------

    def match_ground(
        self, type_term: Struct, term: Struct, constraint_mode: bool = False
    ) -> MatchVerdict:
        """Definition 13 restricted to ground ``τ`` and ``t``.

        With both sides ground clause 1 (variable term) and clause 2
        (variable type) never fire, every typing is empty, and the result
        collapses to three-valued logic.  ``constraint_mode`` selects the
        Section 7 matcher's clause-3 evaluation order: it short-circuits
        on the *first* non-typing component (so ⊥ before a later fail
        wins), where Definition 13's matcher lets fail dominate ⊥.  Pairs
        whose type cannot reach ⊥ are answered from node states, the same
        in both modes (module docstring); the rest take the walk.
        """
        self.match_calls += 1
        self._maybe_evict()
        memo = self._cmatch_memo if constraint_mode else self._match_memo
        is_tc = self.symbols.is_type_constructor
        if is_tc(type_term.functor):
            verdict = self._node_verdict(type_term, term)
            if verdict is None:
                return self._match_walk(type_term, term, memo, constraint_mode)
            self.match_decided += 1
            return verdict
        # Clause 3 at the root, one level deep: function-headed types are
        # never registered, so each argument is asked on its own.
        if type_term.functor != term.functor or len(type_term.args) != len(term.args):
            self.match_decided += 1
            return "fail"
        verdict = "typing"
        walked = False
        for tau, sub in zip(type_term.args, term.args):
            inner = self._node_verdict(tau, sub) if is_tc(tau.functor) else None
            if inner is None:
                walked = True
                inner = self._match_walk(tau, sub, memo, constraint_mode)
            if inner == "typing":
                continue
            # Constraint mode stops at the first non-typing argument;
            # Definition 13 lets fail dominate ⊥.
            if constraint_mode or inner == "fail":
                verdict = inner
                break
            verdict = "bottom"
        if not walked:
            self.match_decided += 1
        return verdict

    def _node_verdict(self, type_term: Struct, term: Struct) -> Optional[MatchVerdict]:
        """Ground ``match`` of a constructor-headed ``τ`` as membership:
        ``"typing"`` or ``"fail"``, or ``None`` when the walk must decide
        (``τ`` can reach ⊥ or was refused, or ``t`` holds a type
        constructor below a head that ``τ`` accepts)."""
        heads = self._match_roots.get(type_term)
        if heads is None:
            heads = self._match_root(type_term)
        if not heads:
            return None
        if (term.functor, len(term.args)) not in heads:
            return "fail"
        # The root was registered before its record was written, so the
        # current generation holds its rules.
        gen = self._gen
        state_id = self._node_state(gen, term)
        if state_id == _IMPURE:
            return None
        return "typing" if type_term in gen.dsets[state_id] else "fail"

    def _match_root(self, type_term: Struct) -> FrozenSet[Tuple[str, int]]:
        """Build the record of one constructor-headed match type: the
        ``(functor, arity)`` heads of its F-closure when it registers and
        no ⊥ is reachable from it, else :data:`_WALK`."""
        heads = _WALK
        if self._register(type_term) and self._bottom_free(type_term):
            # Registration already ran this closure within the same budget.
            members = self._f_closure(type_term, self.root_state_budget)
            heads = frozenset((member.functor, len(member.args)) for member in members)
        self._match_roots[type_term] = heads
        return heads

    def _bottom_free(self, root: Struct) -> bool:
        """True iff the walk from ``root`` can never meet a type
        constructor without expansions, its only ⊥ source: the search
        follows expansions of constructor types and the arguments of
        function-headed ones.  Bounded by ``max_states`` types (a closure
        over argument positions can be infinite, ``t(A) >= f(t(g(A)))``);
        a search that outgrows it answers False, so the walk decides."""
        is_tc = self.symbols.is_type_constructor
        seen: Set[Term] = {root}
        stack: List[Struct] = [root]
        while stack:
            tau = stack.pop()
            if is_tc(tau.functor):
                following: Sequence[Term] = self._expansions_of(tau)
                if not following:
                    return False
            else:
                following = tau.args
            for child in following:
                if child not in seen:
                    if len(seen) >= self.max_states:
                        return False
                    seen.add(child)
                    stack.append(child)  # type: ignore[arg-type]
        return True

    def _match_walk(
        self,
        type_term: Struct,
        term: Struct,
        memo: Dict[Tuple[Struct, Struct], MatchVerdict],
        constraint_mode: bool,
    ) -> MatchVerdict:
        """The three-valued walk over an explicit stack, so term depth is
        bounded by memory rather than by the C stack.

        A frame is ``[key, clause3, taus, subs, next, saw_a, saw_b]``: the
        pair, whether clause 3 (function symbol on top) or clause 4 (type
        constructor) applies, the sub-questions as parallel sequences —
        argument types and arguments, or one-step expansions and the term
        itself — the index of the next one to ask, and two outcome flags:
        ⊥ seen (clause 3), or typing and fail seen (clause 4).  Every pair
        is memoized when its verdict is final, exactly as a recursive walk
        would, and a sub-question is asked only if the ones before it left
        its parent open.
        """
        verdict = memo.get((type_term, term))
        if verdict is not None:
            return verdict
        is_tc = self.symbols.is_type_constructor
        expansions_of = self._expansions_of
        stack: List[List[object]] = []
        tau, sub = type_term, term
        while True:
            # Ask (tau, sub): a memo hit, a verdict at once, or a new frame.
            key = (tau, sub)
            verdict = memo.get(key)
            if verdict is None:
                if is_tc(tau.functor):
                    stack.append([key, False, expansions_of(tau), sub, 0, False, False])
                elif tau.functor != sub.functor or len(tau.args) != len(sub.args):
                    verdict = memo[key] = "fail"
                elif not tau.args:
                    verdict = memo[key] = "typing"
                else:
                    stack.append([key, True, tau.args, sub.args, 0, False, False])
            while True:
                if verdict is not None:
                    # Fold the answer into the frame that asked, popping
                    # every frame it decides.
                    if not stack:
                        return verdict
                    frame = stack[-1]
                    if frame[1]:
                        # Clause 3: constraint mode stops at the first
                        # non-typing argument; Definition 13 lets fail
                        # dominate ⊥.
                        if constraint_mode:
                            decided = verdict != "typing"
                        else:
                            decided = verdict == "fail"
                            if verdict == "bottom":
                                frame[5] = True
                    else:
                        # Clause 4: any ⊥ forecloses a unique non-fail
                        # result; typing and fail are only recorded.
                        decided = verdict == "bottom"
                        if verdict == "typing":
                            frame[5] = True
                        elif verdict == "fail":
                            frame[6] = True
                    if decided:
                        memo[frame[0]] = verdict  # type: ignore[index]
                        stack.pop()
                        continue
                    verdict = None
                frame = stack[-1]
                index: int = frame[4]  # type: ignore[assignment]
                taus: Tuple[Struct, ...] = frame[2]  # type: ignore[assignment]
                if index < len(taus):
                    frame[4] = index + 1
                    tau = taus[index]
                    sub = frame[3][index] if frame[1] else frame[3]  # type: ignore[index,assignment]
                    break
                # Every sub-question answered without deciding the frame.
                if frame[1]:
                    verdict = "bottom" if frame[5] else "typing"
                elif frame[5]:
                    verdict = "typing"  # a typing wins over fails
                elif frame[6]:
                    verdict = "fail"
                else:
                    verdict = "bottom"  # no expansions at all
                memo[frame[0]] = verdict  # type: ignore[index]
                stack.pop()

    # -- introspection / persistence ------------------------------------------

    def stats(self) -> Dict[str, int]:
        gen = self._gen
        return {
            "states": len(self._states),
            "rules": sum(len(rows) for rows in self._rules.values()),
            "dstates": len(gen.dsets),
            "transitions": len(gen.transitions),
            "transitions_computed": self.transitions_computed,
            "node_entries": len(gen.node_states),
            "pair_entries": len(self._pair),
            "match_entries": len(self._match_memo) + len(self._cmatch_memo),
            "holds_calls": self.holds_calls,
            "member_decided": self.member_decided,
            "match_calls": self.match_calls,
            "match_decided": self.match_decided,
            "refusals": self.refusals,
            "flushes": self.flushes,
            "evictions": self.evictions,
            "saturated": int(self._saturated),
        }

    def __getstate__(self) -> Dict[str, object]:
        # Spill the compiled structure only.  The per-term caches key on
        # arbitrarily deep terms (recursive pickling) and rebuild in one
        # walk; the rule index rebuilds on first use; the lock is
        # process-local.
        with self._lock:
            return {
                "constraints": self.constraints,
                "max_states": self.max_states,
                "root_state_budget": self.root_state_budget,
                "max_cache_entries": self.max_cache_entries,
                "states": set(self._states),
                "rules": {key: list(rows) for key, rows in self._rules.items()},
                "refused": set(self._refused),
                "saturated": self._saturated,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.constraints = state["constraints"]  # type: ignore[assignment]
        self.symbols = self.constraints.symbols
        self.fingerprint = self.constraints.fingerprint()
        self.max_states = state["max_states"]  # type: ignore[assignment]
        self.root_state_budget = state["root_state_budget"]  # type: ignore[assignment]
        self.max_cache_entries = state["max_cache_entries"]  # type: ignore[assignment]
        self._lock = threading.RLock()
        self._states = state["states"]  # type: ignore[assignment]
        self._rules = state["rules"]  # type: ignore[assignment]
        self._rule_changes = {}
        self._index = {}
        self._refused = state["refused"]  # type: ignore[assignment]
        self._saturated = state["saturated"]  # type: ignore[assignment]
        self._gen = _Generation()
        self._pair = {}
        self._match_memo = {}
        self._cmatch_memo = {}
        self._match_roots = {}
        self.holds_calls = 0
        self.member_decided = 0
        self.match_calls = 0
        self.match_decided = 0
        self.refusals = 0
        self.flushes = 0
        self.evictions = 0
        self.transitions_computed = 0


class AutomataStore:
    """Process-wide compiled automata, keyed by constraint-set fingerprint.

    Mirrors the :class:`~repro.core.shared_memo.SharedSubtypeMemo`
    discipline: version fencing via :meth:`ensure_version` and
    rejection caching — a non-uniform or unguarded fingerprint is
    remembered as ``None`` so repeated attachment attempts stay O(1).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._automata: Dict[str, Optional[TreeAutomaton]] = {}
        self._version: Optional[str] = None
        self.compiles = 0
        self.rejections = 0
        self.attachments = 0
        self.invalidations = 0
        self.spills = 0
        self.loads = 0
        #: Spill directory → ``compiles`` at its last spill here (``None``
        #: when it was only loaded): each directory's spill is read once
        #: per process and rewritten only after a new compile.
        self._spill_dirs: Dict[str, Optional[int]] = {}

    def ensure_version(self, tag: str) -> None:
        """Fence the store on ``tag``; a changed tag drops every automaton."""
        with self._lock:
            if self._version != tag:
                if self._automata:
                    self.invalidations += 1
                self._automata.clear()
                self._spill_dirs.clear()
                self._version = tag

    def automaton_for(self, constraints: ConstraintSet) -> Optional[TreeAutomaton]:
        """The compiled automaton for ``constraints``' declaration scope.

        ``None`` when the set is non-uniform / unguarded (callers fall
        back to the template-expansion path)."""
        key = constraints.fingerprint()
        with self._lock:
            if key in self._automata:
                automaton = self._automata[key]
                if automaton is not None:
                    self.attachments += 1
                return automaton
        automaton = self._compile(constraints)
        with self._lock:
            if key not in self._automata:
                self._automata[key] = automaton
                if automaton is None:
                    self.rejections += 1
                else:
                    self.compiles += 1
            automaton = self._automata[key]
            if automaton is not None:
                self.attachments += 1
            return automaton

    @staticmethod
    def _compile(constraints: ConstraintSet) -> Optional[TreeAutomaton]:
        from .restrictions import is_guarded, is_uniform_polymorphic

        start = time.perf_counter()
        if not is_uniform_polymorphic(constraints) or not is_guarded(constraints):
            return None
        automaton = TreeAutomaton(constraints)
        if METRICS.enabled:
            METRICS.inc("subtype.automaton.compiles")
            METRICS.observe("subtype.automaton.compile", time.perf_counter() - start)
        return automaton

    def clear(self) -> None:
        """Drop every automaton and zero the traffic counters (tests)."""
        with self._lock:
            self._automata.clear()
            self.compiles = 0
            self.rejections = 0
            self.attachments = 0
            self.invalidations = 0
            self.spills = 0
            self.loads = 0
            self._spill_dirs.clear()

    def stats(self) -> Dict[str, int]:
        """A snapshot: scope count, aggregate table sizes, traffic."""
        with self._lock:
            automata = [a for a in self._automata.values() if a is not None]
            per = [a.stats() for a in automata]
            return {
                "scopes": len(automata),
                "rejected_scopes": sum(
                    1 for a in self._automata.values() if a is None
                ),
                "states": sum(s["states"] for s in per),
                "rules": sum(s["rules"] for s in per),
                "dstates": sum(s["dstates"] for s in per),
                "transitions": sum(s["transitions"] for s in per),
                "transitions_computed": sum(
                    s["transitions_computed"] for s in per
                ),
                "cache_entries": sum(
                    s["node_entries"] + s["pair_entries"] + s["match_entries"]
                    for s in per
                ),
                "holds_calls": sum(s["holds_calls"] for s in per),
                "match_calls": sum(s["match_calls"] for s in per),
                "match_decided": sum(s["match_decided"] for s in per),
                "refusals": sum(s["refusals"] for s in per),
                "flushes": sum(s["flushes"] for s in per),
                "compiles": self.compiles,
                "rejections": self.rejections,
                "attachments": self.attachments,
                "invalidations": self.invalidations,
                "spills": self.spills,
                "loads": self.loads,
            }

    # -- persistence alongside the result cache -------------------------------

    def save_spill(self, directory: "os.PathLike[str] | str") -> Optional[str]:
        """Pickle every compiled automaton under ``directory``.

        Skipped when this store has compiled nothing since it last
        spilled there.  Best-effort and atomic (tmp file + rename): a
        failed spill never corrupts an existing one and never fails the
        surrounding batch.  Returns the spill path, or ``None`` when
        nothing was written."""
        where = os.path.abspath(str(directory))
        with self._lock:
            compiles = self.compiles
            if self._spill_dirs.get(where) == compiles:
                return None
            compiled = {
                key: automaton
                for key, automaton in self._automata.items()
                if automaton is not None
            }
            version = self._version
        if not compiled:
            return None
        path = os.path.join(str(directory), SPILL_FILENAME)
        tmp = f"{path}.tmp{os.getpid()}"
        payload = {"schema": SPILL_SCHEMA, "version": version, "automata": compiled}
        try:
            os.makedirs(str(directory), exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
        with self._lock:
            self.spills += 1
            self._spill_dirs[where] = compiles
        return path

    def load_spill(self, directory: "os.PathLike[str] | str") -> int:
        """Adopt automata spilled by an earlier process; returns the count.

        Each directory is read once per process (and version): later
        calls return 0 at once.  The spill must carry the store's current
        version tag (callers :meth:`ensure_version` first) — a stale
        spill is ignored, exactly as the result cache ignores entries
        from an older checker.  Corrupt files are ignored too: the spill
        is a warm-start, never a correctness dependency."""
        where = os.path.abspath(str(directory))
        with self._lock:
            if where in self._spill_dirs:
                return 0
            self._spill_dirs[where] = None
        path = os.path.join(where, SPILL_FILENAME)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, Exception):  # noqa: BLE001 — corrupt spill = cold start
            return 0
        if not isinstance(payload, dict) or payload.get("schema") != SPILL_SCHEMA:
            return 0
        with self._lock:
            if payload.get("version") != self._version:
                return 0
            loaded = 0
            for key, automaton in payload.get("automata", {}).items():
                if key not in self._automata and isinstance(automaton, TreeAutomaton):
                    self._automata[key] = automaton
                    loaded += 1
            self.loads += loaded
        return loaded


#: The process-wide store used by the engine, matchers, and services.
AUTOMATA = AutomataStore()
