"""Properties of the hash-consing term kernel.

Interning is a representation optimisation, never a semantic one.  Every
term is canonical when built, and :func:`clear_intern_table` starts a new
population of canonical nodes while the old nodes stay alive.  Terms of
the two populations must be indistinguishable to every observer —
printing, parsing, equality/hashing, and above all the subtype and match
engines, down to their exact work counters.  These tests pin that down
on the random workloads the benchmark generators emit.
"""

import random

import pytest

from repro.core.match import Matcher, is_typing_result
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term
from repro.terms.pretty import pretty
from repro.terms.term import Struct, Var, clear_intern_table, intern_stats
from repro.workloads import deep_nat, nat_list, paper_universe
from repro.workloads.generators import (
    random_guarded_constraint_set,
    random_subtype_pair,
    random_type,
)

SEEDS = [7, 23, 101]


def _random_terms(seed, count=20):
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    terms = [random_type(rng, constraints, depth=4) for _ in range(count)]
    terms += [deep_nat(50), nat_list(10, 2)]
    return terms


# -- construction canonicalisation -------------------------------------------------


def test_equal_construction_yields_the_same_object():
    one = Struct("cons", (Struct("0", ()), Struct("nil", ())))
    two = Struct("cons", (Struct("0", ()), Struct("nil", ())))
    assert one is two
    assert Var("X") is Var("X")


def test_intern_table_records_traffic():
    clear_intern_table()
    tower = deep_nat(30)  # held: weak table entries live with the referent
    stats = intern_stats()
    assert stats.misses > 0
    rebuilt = deep_nat(30)  # identical tower: every node is a hit now
    assert rebuilt is tower
    again = intern_stats()
    assert again.hits >= stats.hits + 30
    assert again.size > 0


def test_mixed_populations_compare_and_hash_identically():
    """Terms built before and after ``clear_intern_table()`` are distinct
    objects that mix freely in sets/dicts."""
    before = nat_list(5, 2)
    variable = Var("X")
    clear_intern_table()
    after = nat_list(5, 2)
    assert after is not before
    assert before == after and after == before
    assert hash(before) == hash(after)
    assert len({before, after}) == 1
    table = {before: "value"}
    assert table[after] == "value"
    assert Var("X") is not variable and Var("X") == variable
    assert hash(Var("X")) == hash(variable)


# -- round-trips --------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_intern_pretty_round_trip(seed):
    terms = _random_terms(seed)
    for term in terms:
        text = pretty(term)
        assert parse_term(text) is term
        assert pretty(parse_term(text)) == text
    clear_intern_table()
    for term in terms:
        text = pretty(term)
        assert parse_term(text) == term
        assert pretty(parse_term(text)) == text


def test_pickle_reinterns():
    import pickle

    term = nat_list(4, 3)
    clone = pickle.loads(pickle.dumps(term))
    assert clone is term  # unpickling routes through the intern table


# -- engine agreement ---------------------------------------------------------------


def _subtype_workload(seed, goals=25):
    """(constraints, [(supertype, candidate), ...]) built from the intern
    table as it stands — call once per population with one seed."""
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    pairs = [random_subtype_pair(rng, constraints) for _ in range(goals)]
    return constraints, pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_subtype_verdicts_and_counters_agree(seed):
    """Engines over the populations before and after a table clear agree
    on every ``holds`` verdict AND on the exact SubtypeStats work
    counters — which node represents a term must not change a single
    algorithm step, only the cost of each step."""
    constraints_a, pairs_a = _subtype_workload(seed)
    engine_a = SubtypeEngine(constraints_a)
    verdicts_a = [engine_a.holds(sup, sub) for sup, sub in pairs_a]
    stats_a = engine_a.stats
    clear_intern_table()
    constraints_b, pairs_b = _subtype_workload(seed)
    engine_b = SubtypeEngine(constraints_b)
    verdicts_b = [engine_b.holds(sup, sub) for sup, sub in pairs_b]
    stats_b = engine_b.stats
    assert pairs_a == pairs_b  # same seed, same workload, either way
    assert verdicts_a == verdicts_b
    assert stats_a == stats_b


@pytest.mark.parametrize("seed", SEEDS)
def test_match_verdicts_agree(seed):
    constraints_a, pairs_a = _subtype_workload(seed)
    matcher_a = Matcher(constraints_a)
    results_a = [matcher_a.match(sup, sub) for sup, sub in pairs_a]
    clear_intern_table()
    constraints_b, pairs_b = _subtype_workload(seed)
    matcher_b = Matcher(constraints_b)
    results_b = [matcher_b.match(sup, sub) for sup, sub in pairs_b]
    assert len(results_a) == len(results_b)
    for result_a, result_b in zip(results_a, results_b):
        assert is_typing_result(result_a) == is_typing_result(result_b)
        if is_typing_result(result_a):
            assert dict(result_a.items()) == dict(result_b.items())
        else:
            assert repr(result_a) == repr(result_b)  # fail vs bottom


def test_paper_universe_membership_agrees():
    nat = parse_term("nat")
    towers = [deep_nat(depth) for depth in (0, 1, 7, 40)]
    engine = SubtypeEngine(paper_universe())
    expected = [engine.contains(nat, tower) for tower in towers]
    clear_intern_table()
    engine = SubtypeEngine(paper_universe())
    new_towers = [deep_nat(depth) for depth in (0, 1, 7, 40)]
    assert all(new is not old for new, old in zip(new_towers, towers))
    assert [engine.contains(nat, t) for t in new_towers] == expected
