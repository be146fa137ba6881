"""The compiled tree automata: table-walk verdicts must be bit-identical
to the template-expansion engine, the naive SLD oracle, and both match
variants — on hand cases, budget-refused roots, frozen constants, random
uniform universes, and across a pickle round trip."""

import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import (
    ConstraintMatcher,
    MATCH_BOTTOM,
    MATCH_FAIL,
    Matcher,
    NaiveSubtypeProver,
    SubtypeEngine,
)
from repro.core.automata import AutomataStore, TreeAutomaton
from repro.core.declarations import ConstraintSet, SymbolTable
from repro.lang import parse_term as T
from repro.terms import Struct, Var
from repro.terms.freeze import freeze
from repro.workloads import (
    constraint,
    deep_int,
    deep_nat,
    ids_nonuniform,
    nat_list,
    paper_universe,
)
from repro.workloads.generators import (
    random_ground_member,
    random_guarded_constraint_set,
    random_subtype_pair,
)


@pytest.fixture()
def store():
    return AutomataStore()


#: Ground (supertype, subtype) pairs over the paper universe covering
#: membership, refutation, unions, deep towers, and list nesting.
PAPER_CASES = [
    ("nat", "0"),
    ("nat", "succ(succ(0))"),
    ("int", "pred(pred(0))"),
    ("nat", "pred(0)"),
    ("int", "succ(0)"),
    ("list(nat)", "cons(0, cons(succ(0), nil))"),
    ("list(int)", "cons(pred(0), nil)"),
    ("list(nat)", "cons(pred(0), nil)"),
    ("int", "nat"),
    ("nat", "int"),
    ("list(int)", "list(nat)"),
    ("list(nat)", "list(int)"),
    ("u(nat, list(nat))", "nil"),
    ("u(nat, list(nat))", "succ(0)"),
    ("u(nat, list(nat))", "pred(0)"),
]


def test_compile_builds_states_and_rules(store):
    automaton = store.automaton_for(paper_universe())
    assert automaton is not None
    stats = automaton.stats()
    # Nullary constructor types (nat, int, ...) are seeded at compile.
    assert stats["states"] > 0 and stats["rules"] > 0
    assert stats["saturated"] == 0


def test_same_fingerprint_compiles_once(store):
    first = store.automaton_for(paper_universe())
    second = store.automaton_for(paper_universe())
    assert first is second
    assert store.compiles == 1 and store.attachments == 2


def test_nonuniform_set_rejected_and_cached(store):
    assert store.automaton_for(ids_nonuniform()) is None
    assert store.automaton_for(ids_nonuniform()) is None
    assert store.rejections == 1
    assert store.stats()["rejected_scopes"] == 1


def test_holds_matches_template_engine_on_paper_cases(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    template = SubtypeEngine(cset, automata=False)
    for sup_text, sub_text in PAPER_CASES:
        sup, sub = T(sup_text), T(sub_text)
        assert automaton.holds(sup, sub) == template.holds(sup, sub), (
            f"{sup_text} >= {sub_text}"
        )


def test_holds_matches_naive_sld_oracle(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    naive = NaiveSubtypeProver(cset)
    for sup_text, sub_text in PAPER_CASES:
        if "u(" in sup_text:  # H_C has no clauses for the union constructor
            continue
        sup, sub = T(sup_text), T(sub_text)
        verdict = naive.holds(sup, sub)
        if verdict is None:  # bounded search exhausted — no oracle
            continue
        assert automaton.holds(sup, sub) == verdict, f"{sup_text} >= {sub_text}"


def test_holds_on_deep_towers(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    assert automaton.holds(T("nat"), deep_nat(512)) is True
    assert automaton.holds(T("int"), deep_int(512)) is True
    assert automaton.holds(T("nat"), deep_int(512)) is False
    assert automaton.holds(T("list(nat)"), nat_list(128)) is True


def _recursive_match_walk(automaton, type_term, term, memo, constraint_mode):
    """The ground match walk as a plain recursion over Definition 13's
    clauses 3 and 4 — the reference for the explicit-stack walk."""
    key = (type_term, term)
    if key in memo:
        return memo[key]
    if not automaton.symbols.is_type_constructor(type_term.functor):
        if type_term.functor != term.functor or len(type_term.args) != len(term.args):
            verdict = "fail"
        else:
            verdict = "typing"
            saw_bottom = False
            for tau, sub in zip(type_term.args, term.args):
                inner = _recursive_match_walk(automaton, tau, sub, memo, constraint_mode)
                if constraint_mode:
                    if inner != "typing":
                        verdict = inner
                        break
                elif inner == "fail":
                    verdict = "fail"
                    break
                elif inner == "bottom":
                    saw_bottom = True
            if verdict == "typing" and saw_bottom:
                verdict = "bottom"
    else:
        outcomes = set()
        for expansion in automaton._expansions_of(type_term):
            inner = _recursive_match_walk(automaton, expansion, term, memo, constraint_mode)
            outcomes.add(inner)
            if inner == "bottom":
                break
        if "bottom" in outcomes or not outcomes:
            verdict = "bottom"
        else:
            verdict = "typing" if "typing" in outcomes else "fail"
    memo[key] = verdict
    return verdict


@pytest.mark.parametrize("constraint_mode", [False, True])
def test_match_walk_matches_the_recursive_walk_entry_for_entry(constraint_mode):
    """Same verdicts AND the same memo entries as the recursive walk: a
    sub-question is asked only when the ones before it left its parent
    open, in both clause-3 orders."""
    rng = random.Random(4242)
    verdicts = set()
    for _ in range(12):
        cset = random_guarded_constraint_set(rng)
        automaton = AutomataStore().automaton_for(cset)
        if automaton is None:
            continue
        types, members = [], []
        for _ in range(8):
            sup, _sub = random_subtype_pair(rng, cset)
            if sup is None or not sup.ground:
                continue
            term = random_ground_member(rng, cset, sup)
            if isinstance(term, Struct):
                types.append(sup)
                members.append(term)
        for sup in types:
            for term in members:
                memo, reference = {}, {}
                verdict = automaton._match_walk(sup, term, memo, constraint_mode)
                expected = _recursive_match_walk(automaton, sup, term, reference, constraint_mode)
                assert verdict == expected
                assert memo == reference
                verdicts.add(verdict)
    assert {"typing", "fail"} <= verdicts


@pytest.mark.parametrize("constraint_mode", [False, True])
def test_match_walk_bottom_cases_match_the_recursive_walk(constraint_mode):
    """``u`` has no expansions, so it answers ⊥; in ``g(u, t)`` against
    ``g(a, b)`` Definition 13 lets the second argument's fail dominate,
    while constraint mode stops at the first argument's ⊥."""
    symbols = SymbolTable()
    for name, arity in (("a", 0), ("b", 0), ("f", 1), ("g", 2)):
        symbols.declare_function(name, arity)
    for name in ("t", "u"):
        symbols.declare_type_constructor(name, 0)
    cset = ConstraintSet(symbols, [constraint("t >= a + f(t)")])
    automaton = AutomataStore().automaton_for(cset)
    cases = [
        (T("g(u, t)"), T("g(a, b)")),
        (T("g(t, u)"), T("g(f(a), a)")),
        (T("g(u, t)"), T("g(a, f(a))")),
        (T("f(u)"), T("f(a)")),
        (T("t"), T("f(f(b))")),
        (T("t"), T("f(f(a))")),
    ]
    for sup, term in cases:
        memo, reference = {}, {}
        verdict = automaton._match_walk(sup, term, memo, constraint_mode)
        assert verdict == _recursive_match_walk(automaton, sup, term, reference, constraint_mode)
        assert memo == reference
    first = automaton._match_walk(T("g(u, t)"), T("g(a, b)"), {}, constraint_mode)
    assert first == ("bottom" if constraint_mode else "fail")


def test_checker_walks_a_20000_deep_fact_and_query_in_a_fresh_interpreter(tmp_path):
    """Before Python 3.11 every Python call also takes C stack, so a
    recursive walk over ``s^20000(0)`` crashed the interpreter; the walk
    runs on an explicit stack.  A fresh interpreter keeps a crash out of
    this process and starts from the default recursion limit."""
    depth = 20_000
    tower = "s(" * depth + "0" + ")" * depth
    path = tmp_path / "deep.tlp"
    path.write_text(
        "FUNC 0, s.\nTYPE nat.\nnat >= 0 + s(nat).\nPRED p(nat).\n"
        f"p({tower}).\n:- p({tower}).\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.checker.cli", str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "well-typed (1 clauses, 1 queries)" in completed.stdout + completed.stderr


def test_random_uniform_universes_differential():
    rng = random.Random(20260808)
    for _ in range(12):
        cset = random_guarded_constraint_set(rng)
        automaton = AutomataStore().automaton_for(cset)
        if automaton is None:  # generator occasionally emits rejected sets
            continue
        template = SubtypeEngine(cset, automata=False)
        for _ in range(8):
            sup, sub = random_subtype_pair(rng, cset)
            if sup is None or sub is None or not (sup.ground and sub.ground):
                continue
            assert automaton.holds(sup, sub) == template.holds(sup, sub)


def test_budget_refused_root_still_answers_correctly():
    # A one-state budget refuses every non-trivial root; the product
    # construction (AND-OR over Theorem 1/2 disjuncts) must take over
    # with identical verdicts.
    cset = paper_universe()
    tiny = TreeAutomaton(cset, max_states=4, root_state_budget=1)
    template = SubtypeEngine(cset, automata=False)
    for sup_text, sub_text in PAPER_CASES:
        sup, sub = T(sup_text), T(sub_text)
        assert tiny.holds(sup, sub) == template.holds(sup, sub), (
            f"{sup_text} >= {sub_text}"
        )
    assert tiny.stats()["refusals"] > 0


def test_reader_never_walks_a_registration_in_progress():
    # A reader whose root another thread is registering must not take the
    # lock-free fast path before the root's rules and generation exist: it
    # would walk the old generation and cache a wrong False in _pair.
    automaton = TreeAutomaton(paper_universe())
    nat, list_nat, term = T("nat"), T("list(nat)"), T("cons(0, nil)")
    # Puts cons(0, nil)'s node state in the current generation, so the
    # reader's walk over it needs no lock.
    assert automaton.holds(nat, term) is False
    paused, release = threading.Event(), threading.Event()
    original = automaton._f_closure

    def pausing_closure(state, budget):
        if state == list_nat:
            paused.set()
            assert release.wait(timeout=10)
        return original(state, budget)

    automaton._f_closure = pausing_closure
    verdicts = []
    writer = threading.Thread(target=automaton._register, args=(list_nat,))
    reader = threading.Thread(
        target=lambda: verdicts.append(automaton.holds(list_nat, term))
    )
    writer.start()
    try:
        assert paused.wait(timeout=10), "writer never reached list(nat)'s closure"
        reader.start()
        reader.join(timeout=0.2)  # the reader blocks on the lock until released
    finally:
        release.set()
    writer.join(timeout=10)
    reader.join(timeout=10)
    assert not writer.is_alive() and not reader.is_alive()
    assert verdicts == [True]
    assert automaton.holds(list_nat, term) is True
    assert TreeAutomaton(paper_universe()).holds(list_nat, term) is True


def test_frozen_constant_roots_are_refused_not_wrong(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    template = SubtypeEngine(cset, automata=False)
    bar = freeze(Var("X"))
    assert automaton.holds(bar, bar) is True  # reflexivity
    cases = [
        (Struct("list", (bar,)), Struct("cons", (bar, Struct("nil", ())))),
        (T("nat"), bar),
        (Struct("list", (bar,)), T("nil")),
    ]
    for sup, sub in cases:
        assert automaton.holds(sup, sub) == template.holds(sup, sub)
    # The frozen-mentioning roots never became states.
    assert all("$frozen" not in str(state) for state in automaton._states)


def test_match_ground_matches_both_matchers(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    matcher = Matcher(cset, automata=False)
    cmatcher = ConstraintMatcher(cset, automata=False)

    def expect(result):
        if result is MATCH_FAIL:
            return "fail"
        if result is MATCH_BOTTOM:
            return "bottom"
        return "typing"

    cases = [(T(a), T(b)) for a, b in PAPER_CASES if "(" in b or b in ("0", "nil")]
    cases += [
        (T("list(nat)"), nat_list(32)),
        (T("nat"), deep_nat(64)),
        (T("nat"), deep_int(8)),
    ]
    for type_term, term in cases:
        if not (type_term.ground and term.ground):
            continue
        assert automaton.match_ground(type_term, term) == expect(
            matcher.match(type_term, term)
        )
        assert automaton.match_ground(type_term, term, constraint_mode=True) == expect(
            cmatcher.match(type_term, term, set()).result
        )


def test_match_random_differential():
    rng = random.Random(77)
    for _ in range(10):
        cset = random_guarded_constraint_set(rng)
        automaton = AutomataStore().automaton_for(cset)
        if automaton is None:
            continue
        matcher = Matcher(cset, automata=False)
        cmatcher = ConstraintMatcher(cset, automata=False)
        for _ in range(6):
            sup, _sub = random_subtype_pair(rng, cset)
            if sup is None or not sup.ground:
                continue
            term = random_ground_member(rng, cset, sup)
            if term is None or not isinstance(term, Struct):
                continue
            plain = matcher.match(sup, term)
            expected = (
                "fail"
                if plain is MATCH_FAIL
                else "bottom" if plain is MATCH_BOTTOM else "typing"
            )
            assert automaton.match_ground(sup, term) == expected
            collected = cmatcher.match(sup, term, set()).result
            cexpected = (
                "fail"
                if collected is MATCH_FAIL
                else "bottom" if collected is MATCH_BOTTOM else "typing"
            )
            assert automaton.match_ground(sup, term, constraint_mode=True) == cexpected


# -- engine integration: hit/fallback counters are exact ----------------------


def test_uniform_engine_counts_one_hit_per_ground_root_query():
    engine = SubtypeEngine(paper_universe())
    assert engine._automaton is not None
    queries = [(T("nat"), deep_nat(d)) for d in (3, 5, 7)]
    for sup, sub in queries:
        engine.holds(sup, sub)
    assert engine.stats.automaton_hits == len(queries)
    assert engine.stats.automaton_fallbacks == 0
    # A repeated query answers from the engine memo, not the automaton.
    engine.holds(*queries[0])
    assert engine.stats.automaton_hits == len(queries)
    assert engine.stats.memo_hits == 1


def test_nonuniform_engine_counts_exact_fallbacks():
    engine = SubtypeEngine(ids_nonuniform(), validate=False)
    assert engine._automaton is None and engine._automaton_requested is True
    assert engine.holds(T("nat"), T("0")) is True
    assert engine.stats.automaton_hits == 0
    assert engine.stats.automaton_fallbacks == 1


def test_opted_out_engine_has_zero_automaton_counters():
    engine = SubtypeEngine(paper_universe(), automata=False)
    engine.holds(T("nat"), deep_nat(5))
    assert engine.stats.automaton_hits == 0
    assert engine.stats.automaton_fallbacks == 0


def test_engine_verdicts_identical_with_and_without_automata():
    cset = paper_universe()
    fast = SubtypeEngine(cset)
    slow = SubtypeEngine(cset, automata=False)
    for sup_text, sub_text in PAPER_CASES:
        sup, sub = T(sup_text), T(sub_text)
        assert fast.holds(sup, sub) == slow.holds(sup, sub)


# -- persistence ---------------------------------------------------------------


def test_pickle_round_trip_preserves_verdicts(store):
    cset = paper_universe()
    automaton = store.automaton_for(cset)
    for sup_text, sub_text in PAPER_CASES:
        automaton.holds(T(sup_text), T(sub_text))
    restored = pickle.loads(pickle.dumps(automaton))
    # Deep-term caches are dropped on pickle; the compiled structure and
    # every verdict survive.
    assert restored.stats()["states"] == automaton.stats()["states"]
    assert restored.stats()["pair_entries"] == 0
    for sup_text, sub_text in PAPER_CASES:
        sup, sub = T(sup_text), T(sub_text)
        assert restored.holds(sup, sub) == automaton.holds(sup, sub)


def test_spill_save_and_load_round_trip(tmp_path):
    writer = AutomataStore()
    writer.ensure_version("test-v1")
    assert writer.automaton_for(paper_universe()) is not None
    path = writer.save_spill(tmp_path)
    assert path is not None and path.endswith("automata.pickle")

    reader = AutomataStore()
    reader.ensure_version("test-v1")
    assert reader.load_spill(tmp_path) == 1
    automaton = reader.automaton_for(paper_universe())
    assert reader.compiles == 0  # adopted from the spill, not recompiled
    assert automaton.holds(T("nat"), deep_nat(16)) is True


def test_spill_with_stale_version_is_ignored(tmp_path):
    writer = AutomataStore()
    writer.ensure_version("old")
    writer.automaton_for(paper_universe())
    writer.save_spill(tmp_path)

    reader = AutomataStore()
    reader.ensure_version("new")
    assert reader.load_spill(tmp_path) == 0


def test_corrupt_spill_is_a_cold_start(tmp_path):
    (tmp_path / "automata.pickle").write_bytes(b"not a pickle")
    reader = AutomataStore()
    reader.ensure_version("v")
    assert reader.load_spill(tmp_path) == 0


def test_ensure_version_change_drops_automata(store):
    store.ensure_version("a")
    store.automaton_for(paper_universe())
    assert store.stats()["scopes"] == 1
    store.ensure_version("b")
    assert store.stats()["scopes"] == 0
    assert store.invalidations == 1


# -- indexed transitions vs the linear rule scan --------------------------------


class _LinearScan(TreeAutomaton):
    """The automaton with each transition computed by scanning every rule
    of its ``(functor, arity)`` — the reference for the bitmask index."""

    def _transition(self, gen, key):
        with self._lock:
            cached = gen.transitions.get(key)
            if cached is not None:
                return cached
            state_id = _dstate_id(gen, _scan(self, gen, key))
            gen.transitions[key] = state_id
            return state_id


def _scan(automaton, gen, key):
    functor, arity, child_ids = key
    result = set()
    for children, target in automaton._rules.get((functor, arity), ()):
        if all(
            child in gen.dsets[child_id]
            for child, child_id in zip(children, child_ids)
        ):
            result.add(target)
    return frozenset(result)


def _dstate_id(gen, states):
    state_id = gen.dstate_ids.get(states)
    if state_id is None:
        state_id = len(gen.dsets)
        gen.dsets.append(states)
        gen.dstate_ids[states] = state_id
    return state_id


def _universes(seed, count=8):
    rng = random.Random(seed)
    for _ in range(count):
        cset = random_guarded_constraint_set(
            rng, type_count=8, max_constructor_arity=3
        )
        if AutomataStore().automaton_for(cset) is not None:
            yield rng, cset


def _query_plan(rng, cset, count=12):
    plan = []
    for _ in range(count):
        sup, sub = random_subtype_pair(rng, cset)
        plan.append((sup, sub))
        member = random_ground_member(rng, cset, sup)
        if member is not None:
            plan.append((sup, member))
    return plan


def _assert_same_transitions(indexed, linear):
    """Key for key, the same dstate id and the same NFA-state set — and
    every indexed entry is what the linear scan computes on its tables."""
    gen, reference = indexed._gen, linear._gen
    assert gen.transitions == reference.transitions
    assert gen.dsets == reference.dsets
    for key, state_id in gen.transitions.items():
        assert gen.dsets[state_id] == _scan(indexed, gen, key), key


def _drive(indexed, linear, plan):
    for sup, sub in plan:
        assert indexed.holds(sup, sub) == linear.holds(sup, sub), (sup, sub)
        _assert_same_transitions(indexed, linear)


def test_indexed_transitions_match_the_linear_scan_across_root_growth():
    flushes = computed = 0
    for rng, cset in _universes(2401):
        indexed, linear = TreeAutomaton(cset), _LinearScan(cset)
        _drive(indexed, linear, _query_plan(rng, cset))
        assert indexed.flushes == linear.flushes
        flushes += indexed.flushes
        computed += indexed.transitions_computed
    # Roots registered after transitions were computed grew the universe
    # (a flush), and the new generation's transitions were recomputed.
    assert flushes > 0 and computed > 0


def test_indexed_transitions_match_the_linear_scan_after_budget_rollbacks():
    rollbacks = 0
    for rng, cset in _universes(2402):
        indexed = TreeAutomaton(cset, root_state_budget=4)
        linear = _LinearScan(cset, root_state_budget=4)
        _drive(indexed, linear, _query_plan(rng, cset))
        assert indexed.refusals == linear.refusals
        # A rule list that was appended to and rolled back has counted
        # more changes than it holds rules.
        rollbacks += sum(
            1
            for key, changes in indexed._rule_changes.items()
            if changes > len(indexed._rules[key])
        )
    assert rollbacks > 0


def test_indexed_transitions_match_the_linear_scan_after_a_spill(tmp_path):
    spilled = 0
    for rng, cset in _universes(2403, count=5):
        writer = AutomataStore()
        writer.ensure_version("differential")
        indexed = writer.automaton_for(cset)
        linear = _LinearScan(cset)
        _drive(indexed, linear, _query_plan(rng, cset, count=6))
        assert indexed._index  # built by the queries above
        assert "_index" not in indexed.__getstate__()
        directory = tmp_path / str(spilled)
        assert writer.save_spill(directory) is not None
        reader = AutomataStore()
        reader.ensure_version("differential")
        assert reader.load_spill(directory) == 1
        restored = reader.automaton_for(cset)
        assert reader.compiles == 0 and not restored._index
        _drive(restored, pickle.loads(pickle.dumps(linear)), _query_plan(rng, cset))
        spilled += 1
    assert spilled > 0
