"""The compiled tree automata: table-walk verdicts must be bit-identical
to the template-expansion engine, the naive SLD oracle, and both match
variants — on hand cases, budget-refused roots, frozen constants, random
uniform universes, and across a pickle round trip."""

import pickle
import random

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
from repro.lang import parse_term as T
from repro.terms import Struct, Var
from repro.terms.freeze import freeze
from repro.workloads import (
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
