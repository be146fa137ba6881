"""Properties of the hash-consing term kernel.

Interning is a representation optimisation, never a semantic one.  Every
term is canonical when built, so two live equal terms are one object and
equality is identity.  A workload rebuilt after its first copy was
released must be indistinguishable from it to every observer — printing,
parsing, hashing, and above all the subtype and match engines, down to
their exact work counters.  These tests pin that down on the random
workloads the benchmark generators emit, plus the table's own contract:
weak entries, a removal callback that never takes the table's lock, and
race-free construction from many threads.
"""

import gc
import random
import sys
import threading

import pytest

from repro.core.match import Matcher, is_typing_result
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term
from repro.terms.pretty import pretty
from repro.terms.term import _INTERN, Struct, Var, _drop_struct, intern_stats
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
    before = intern_stats()
    tower = deep_nat(30)  # held: weak table entries live with the referent
    built = intern_stats()
    assert built.misses + built.hits >= before.misses + before.hits + 31
    rebuilt = deep_nat(30)  # identical tower: every node is a hit now
    assert rebuilt is tower
    again = intern_stats()
    assert again.hits >= built.hits + 31
    assert again.misses == built.misses
    assert again.size > 0


def test_equality_is_identity():
    assert "__eq__" not in Struct.__dict__ and "__eq__" not in Var.__dict__
    term = nat_list(3, 2)
    assert term == nat_list(3, 2)
    assert term != nat_list(3, 1) and term != Var("X") and term != "nil"
    assert hash(term) == hash(("cons", term.args))  # structural, not by address


def _released_key(functor):
    """Build ``functor(0)``, release it and collect it; returns the key and
    the weak reference its table entry held."""
    node = Struct(functor, (Struct("0", ()),))
    key = (functor, node.args)
    ref = _INTERN.structs[key]
    assert ref() is node
    del node
    gc.collect()
    assert ref() is None
    return key, ref


def test_released_nodes_leave_the_table():
    key, _ = _released_key("interning_released")
    assert key not in _INTERN.structs
    misses = intern_stats().misses
    fresh = Struct(*key)
    assert intern_stats().misses == misses + 1
    assert Struct(*key) is fresh


def test_late_removal_callback_spares_a_newer_node(monkeypatch):
    """A callback for a dead node that runs after a newer node took its key
    must leave the newer entry in place — and it must not take the table's
    (non-reentrant) lock, since it can fire inside a critical section.  The
    lock is swapped for a test-local one, so a callback that does block
    fails this test without wedging every later construction."""
    key, stale = _released_key("interning_late_callback")
    newer = Struct(*key)
    lock = threading.Lock()
    monkeypatch.setattr(_INTERN, "lock", lock)
    finished = threading.Event()

    def late_callback_under_the_lock():
        with lock:
            _drop_struct(stale)
        finished.set()

    worker = threading.Thread(target=late_callback_under_the_lock, daemon=True)
    worker.start()
    assert finished.wait(10), "the removal callback blocked on the table lock"
    assert _INTERN.structs[key]() is newer
    assert Struct(*key) is newer


def test_threads_building_the_same_terms_get_the_same_objects():
    """8 threads build the same 2,000 new terms at once; every thread must
    get the very same object for each term."""
    threads, count = 8, 2_000
    barrier = threading.Barrier(threads)
    built = [None] * threads

    def build(slot):
        barrier.wait(timeout=60)
        built[slot] = [
            Struct(f"race{i % 17}", (Struct(f"race_leaf{i}", ()), Var(f"Race{i % 5}")))
            for i in range(count)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    first = built[0]
    assert len(first) == count
    for other in built[1:]:
        assert all(mine is theirs for mine, theirs in zip(first, other))


# -- round-trips --------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_intern_pretty_round_trip(seed):
    terms = _random_terms(seed)
    for term in terms:
        text = pretty(term)
        assert parse_term(text) is term
        assert pretty(parse_term(text)) == text


def test_pickle_reinterns():
    import pickle

    term = nat_list(4, 3)
    clone = pickle.loads(pickle.dumps(term))
    assert clone is term  # unpickling routes through the intern table


# -- engine agreement ---------------------------------------------------------------


def _subtype_workload(seed, goals=25):
    """(constraints, [(supertype, candidate), ...]) for one seed."""
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    pairs = [random_subtype_pair(rng, constraints) for _ in range(goals)]
    return constraints, pairs


def _rendered(pairs):
    return [(pretty(sup), pretty(sub)) for sup, sub in pairs]


@pytest.mark.parametrize("seed", SEEDS)
def test_subtype_verdicts_and_counters_agree(seed):
    """An engine over a workload rebuilt after the first copy was released
    agrees with the first on every ``holds`` verdict AND on the exact
    SubtypeStats work counters — whether a node is new or reused must not
    change a single algorithm step, only the cost of each step."""
    constraints, pairs = _subtype_workload(seed)
    engine = SubtypeEngine(constraints)
    verdicts_a = [engine.holds(sup, sub) for sup, sub in pairs]
    stats_a = engine.stats
    rendered_a = _rendered(pairs)
    del constraints, pairs, engine
    gc.collect()
    constraints, pairs = _subtype_workload(seed)
    engine = SubtypeEngine(constraints)
    verdicts_b = [engine.holds(sup, sub) for sup, sub in pairs]
    assert _rendered(pairs) == rendered_a  # same seed, same workload
    assert verdicts_b == verdicts_a
    assert engine.stats == stats_a


@pytest.mark.parametrize("seed", SEEDS)
def test_match_verdicts_agree(seed):
    def outcomes():
        constraints, pairs = _subtype_workload(seed)
        matcher = Matcher(constraints)
        results = [matcher.match(sup, sub) for sup, sub in pairs]
        return [
            ("typing", sorted((pretty(v), pretty(t)) for v, t in result.items()))
            if is_typing_result(result)
            else repr(result)  # fail vs bottom
            for result in results
        ]

    first = outcomes()
    gc.collect()
    assert outcomes() == first


def test_paper_universe_membership_agrees():
    nat = parse_term("nat")
    depths = (0, 1, 7, 40)
    engine = SubtypeEngine(paper_universe())
    expected = [engine.contains(nat, deep_nat(depth)) for depth in depths]
    del engine
    gc.collect()
    engine = SubtypeEngine(paper_universe())
    towers = [deep_nat(depth) for depth in depths]
    assert all(deep_nat(depth) is tower for depth, tower in zip(depths, towers))
    assert [engine.contains(nat, tower) for tower in towers] == expected
