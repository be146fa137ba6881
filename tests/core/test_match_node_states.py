"""Ground ``match`` answered from the automaton's node states.

Where no ⊥ is reachable from ``τ``, ``TreeAutomaton.match_ground`` reads
the verdict off ``t``'s determinized node state instead of walking the
``(τ, t)`` pairs.  These tests pin it, in both clause-3 orders, to a
fresh-memo ``_match_walk`` and to the template-expansion matchers, and
check that the walk tables stay empty where node states decide."""

import random

import pytest

from repro.core import ConstraintMatcher, MATCH_BOTTOM, MATCH_FAIL, Matcher
from repro.core.automata import AutomataStore, TreeAutomaton
from repro.core.declarations import ConstraintSet, SymbolTable
from repro.lang import parse_term as T
from repro.terms import Struct
from repro.workloads import constraint, deep_int, deep_nat, nat_list, paper_universe
from repro.workloads.generators import (
    random_ground_member,
    random_guarded_constraint_set,
    random_subtype_pair,
)


def _verdict(result):
    if result is MATCH_FAIL:
        return "fail"
    if result is MATCH_BOTTOM:
        return "bottom"
    return "typing"


def _assert_walk_agrees(automaton, type_term, term):
    """``match_ground`` in both modes equals a fresh-memo walk."""
    for constraint_mode in (False, True):
        expected = automaton._match_walk(type_term, term, {}, constraint_mode)
        assert automaton.match_ground(type_term, term, constraint_mode) == expected, (
            type_term,
            term,
            constraint_mode,
        )


def _assert_matchers_agree(automaton, cset, type_term, term):
    """``match_ground`` in both modes equals both template matchers."""
    matcher = Matcher(cset, automata=False)
    cmatcher = ConstraintMatcher(cset, automata=False)
    assert automaton.match_ground(type_term, term) == _verdict(
        matcher.match(type_term, term)
    )
    assert automaton.match_ground(type_term, term, constraint_mode=True) == _verdict(
        cmatcher.match(type_term, term, set()).result
    )


def _ground_questions(rng, cset, count):
    types, terms = [], []
    for _ in range(count):
        sup, candidate = random_subtype_pair(rng, cset)
        if sup is None or not sup.ground:
            continue
        types.append(sup)
        member = random_ground_member(rng, cset, sup)
        for term in (member, candidate):
            if isinstance(term, Struct) and term.ground:
                terms.append(term)
    return [(sup, term) for sup in types for term in terms]


def test_generated_guarded_universes_agree_with_the_walk_and_both_matchers():
    rng = random.Random(2718)
    verdicts, decided = set(), 0
    for _ in range(14):
        cset = random_guarded_constraint_set(rng)
        automaton = AutomataStore().automaton_for(cset)
        if automaton is None:
            continue
        for sup, term in _ground_questions(rng, cset, 6):
            _assert_walk_agrees(automaton, sup, term)
            _assert_matchers_agree(automaton, cset, sup, term)
            verdicts.add(automaton.match_ground(sup, term))
        decided += automaton.stats()["match_decided"]
    assert {"typing", "fail"} <= verdicts
    assert decided > 0


def _universe_with_an_expansionless_constructor():
    """``u`` has no expansions; ``w`` reaches it under ``h``, ``t`` not."""
    symbols = SymbolTable()
    for name, arity in (("a", 0), ("b", 0), ("f", 1), ("g", 2), ("h", 1)):
        symbols.declare_function(name, arity)
    for name in ("t", "u", "w"):
        symbols.declare_type_constructor(name, 0)
    return ConstraintSet(
        symbols, [constraint("t >= a + f(t)"), constraint("w >= a + h(u)")]
    )


def test_expansionless_constructor_keeps_the_walk():
    cset = _universe_with_an_expansionless_constructor()
    automaton = AutomataStore().automaton_for(cset)
    cases = [
        ("w", "a", "typing"),
        ("w", "h(a)", "bottom"),  # membership alone would say fail
        ("w", "b", "fail"),
        ("u", "a", "bottom"),
        ("t", "f(f(a))", "typing"),
        ("t", "f(b)", "fail"),
        ("g(t, w)", "g(a, h(a))", "bottom"),
        ("g(w, t)", "g(h(a), b)", None),  # the two orders disagree
    ]
    for type_text, term_text, expected in cases:
        sup, term = T(type_text), T(term_text)
        _assert_walk_agrees(automaton, sup, term)
        _assert_matchers_agree(automaton, cset, sup, term)
        if expected is not None:
            assert automaton.match_ground(sup, term) == expected
    assert automaton.match_ground(T("g(w, t)"), T("g(h(a), b)")) == "fail"
    assert (
        automaton.match_ground(T("g(w, t)"), T("g(h(a), b)"), constraint_mode=True)
        == "bottom"
    )
    # t is ⊥-free: decided from node states; w and u walk.
    assert automaton._match_roots[T("t")]
    assert not automaton._match_roots[T("w")]
    assert not automaton._match_roots[T("u")]


def _refusing_universe():
    """``t(A) >= a + f(t(g(A)))``: guarded, but the states of ``t(a)``
    grow without end (``t(g(a))``, ``t(g(g(a)))``, ...)."""
    symbols = SymbolTable()
    for name, arity in (("a", 0), ("f", 1), ("g", 1)):
        symbols.declare_function(name, arity)
    symbols.declare_type_constructor("t", 1)
    return ConstraintSet(symbols, [constraint("t(A) >= a + f(t(g(A)))")])


def test_refused_root_keeps_the_walk_and_terminates():
    cset = _refusing_universe()
    automaton = AutomataStore().automaton_for(cset)
    assert automaton is not None
    sup = T("t(a)")
    cases = ["a", "f(a)", "f(f(a))", "f(f(f(f(a))))", "g(a)"]
    for term_text in cases:
        term = T(term_text)
        _assert_walk_agrees(automaton, sup, term)
        _assert_matchers_agree(automaton, cset, sup, term)
    assert not automaton._match_roots[sup]
    assert sup in automaton._refused
    assert automaton.stats()["match_decided"] == 0


def test_unbounded_bottom_search_answers_walk_without_registration():
    # The ⊥ search is bounded on its own, whatever registration said.
    automaton = TreeAutomaton(_refusing_universe(), max_states=16)
    assert automaton._bottom_free(T("t(a)")) is False


def test_term_holding_a_type_constructor_keeps_the_walk():
    cset = paper_universe()
    automaton = AutomataStore().automaton_for(cset)
    cases = [
        ("list(nat)", "cons(nat, nil)"),  # head accepted, impure below
        ("nat", "nat"),  # head filter: no F-closure member is headed nat
        ("list(nat)", "cons(0, list(nat))"),
        ("int", "succ(int)"),
    ]
    for type_text, term_text in cases:
        sup, term = T(type_text), T(term_text)
        _assert_walk_agrees(automaton, sup, term)
        _assert_matchers_agree(automaton, cset, sup, term)
        assert automaton.match_ground(sup, term) == "fail"
    assert automaton._match_memo and automaton._cmatch_memo


def test_list_whose_last_element_is_wrong():
    cset = paper_universe()
    automaton = AutomataStore().automaton_for(cset)
    good = T("cons(0, cons(succ(0), cons(succ(succ(0)), nil)))")
    bad = T("cons(0, cons(succ(0), cons(pred(0), nil)))")
    for sup_text in ("list(nat)", "list(int)", "nat"):
        for term in (good, bad, nat_list(40)):
            _assert_walk_agrees(automaton, T(sup_text), term)
            _assert_matchers_agree(automaton, cset, T(sup_text), term)
    assert automaton.match_ground(T("list(nat)"), bad) == "fail"
    assert automaton.match_ground(T("list(int)"), bad) == "typing"
    assert automaton.match_ground(T("list(nat)"), good) == "typing"
    assert not automaton._match_memo and not automaton._cmatch_memo


def test_twenty_thousand_deep_succ_tower():
    cset = paper_universe()
    automaton = AutomataStore().automaton_for(cset)
    tower = deep_nat(20_000)
    for sup_text, expected in (("nat", "typing"), ("int", "typing"), ("list(nat)", "fail")):
        _assert_walk_agrees(automaton, T(sup_text), tower)
        assert automaton.match_ground(T(sup_text), tower) == expected
    wrong = Struct("succ", (deep_int(20_000),))
    _assert_walk_agrees(automaton, T("nat"), wrong)
    assert automaton.match_ground(T("nat"), wrong, constraint_mode=True) == "fail"


def test_function_headed_type_folds_its_arguments_in_each_order():
    cset = _universe_with_an_expansionless_constructor()
    automaton = AutomataStore().automaton_for(cset)
    # ⊥ (w against h(a)) before a fail (t against b).
    assert automaton.match_ground(T("g(w, t)"), T("g(h(a), b)")) == "fail"
    assert automaton.match_ground(T("g(w, t)"), T("g(h(a), b)"), True) == "bottom"
    # A fail before a ⊥: both orders say fail.
    assert automaton.match_ground(T("g(t, w)"), T("g(b, h(a))")) == "fail"
    assert automaton.match_ground(T("g(t, w)"), T("g(b, h(a))"), True) == "fail"
    # Nested function head f(t): its argument pair takes the walk.
    assert automaton.match_ground(T("g(f(t), t)"), T("g(f(a), a)")) == "typing"
    # Function-headed types are never registered.
    assert T("g(w, t)") not in automaton._states
    assert T("g(f(t), t)") not in automaton._states


# -- bounded tables -----------------------------------------------------------


def _distinct_nodes(terms):
    seen, stack = set(), list(terms)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node.args)
    return seen


def _questions(count):
    """``count`` distinct ground questions against ⊥-free roots."""
    roots = [T("nat"), T("int"), T("list(nat)"), T("list(int)")]
    questions = []
    depth = 0
    while len(questions) < count:
        terms = (deep_nat(depth), deep_int(depth), nat_list(depth % 64 + 1, depth % 7))
        for root in roots:
            for term in terms:
                questions.append((root, term))
        depth += 1
    return list(dict.fromkeys(questions))[:count]


def test_distinct_questions_leave_the_walk_memos_empty():
    automaton = TreeAutomaton(paper_universe())
    questions = _questions(5_000)
    assert len(questions) == 5_000
    for root in {root for root, _term in questions}:
        automaton.match_ground(root, T("0"))  # register every root first
    before = automaton.stats()
    for index, (root, term) in enumerate(questions):
        automaton.match_ground(root, term, constraint_mode=bool(index % 2))
    after = automaton.stats()
    assert after["match_entries"] == 0
    assert after["flushes"] == before["flushes"]
    nodes = _distinct_nodes(term for _root, term in questions)
    assert after["node_entries"] - before["node_entries"] <= len(nodes)
    assert after["match_decided"] - before["match_decided"] == 5_000


def test_small_cache_cap_evicts_node_states_and_counts_it():
    automaton = TreeAutomaton(paper_universe(), max_cache_entries=200)
    reference = TreeAutomaton(paper_universe())
    for root, term in _questions(600):
        assert automaton.match_ground(root, term) == reference.match_ground(root, term)
    stats = automaton.stats()
    assert stats["evictions"] > 0
    assert stats["match_entries"] == 0
    # The cap is checked at every entry, so the live table overshoots it
    # by at most one question's nodes.
    assert stats["node_entries"] <= 200 + max(
        len(_distinct_nodes([term])) for _root, term in _questions(600)
    )


@pytest.mark.parametrize("constraint_mode", [False, True])
def test_both_modes_share_one_record_and_the_node_states(constraint_mode):
    automaton = TreeAutomaton(paper_universe())
    sup, term = T("list(nat)"), nat_list(16)
    assert automaton.match_ground(sup, term, constraint_mode) == "typing"
    roots, nodes = len(automaton._match_roots), automaton.stats()["node_entries"]
    assert automaton.match_ground(sup, term, not constraint_mode) == "typing"
    assert len(automaton._match_roots) == roots
    assert automaton.stats()["node_entries"] == nodes
