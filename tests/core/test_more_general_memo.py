"""The memoized, canonically frozen ``more_general`` (Definition 5).

A memoizing :class:`~repro.core.subtype.SubtypeEngine` decides each
``τ1 ⪰ τ2`` question once: the verdict is stored in the engine's memo
(the shared table when attached) and a miss freezes ``τ2`` with constants
numbered by first appearance.  These tests pin that the memo is exact —
it agrees with the fresh-``freeze`` reference engine (``memoize=False``)
and with the naive SLD prover wherever that prover terminates — and that
repeating a question leaves nothing behind.
"""

import random

import pytest

from repro import obs
from repro.core import NaiveSubtypeProver
from repro.core.shared_memo import SHARED_MEMO, SharedSubtypeMemo
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term as T
from repro.obs import METRICS, CacheProbeEvent
from repro.terms.term import Var
from repro.workloads import paper_universe
from repro.workloads.generators import random_guarded_constraint_set, random_type

A, B, X = Var("A"), Var("B"), Var("X")


def _questions(seed, count=30):
    """A guarded universe and ``(general, specific)`` pairs over it; every
    other pair shares the variable ``A`` between its two sides."""
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    pairs = []
    for index in range(count):
        general = random_type(rng, constraints, depth=rng.randint(1, 3), variables=(A, B))
        specific_vars = (A, B) if index % 2 == 0 else (X,)
        specific = random_type(
            rng, constraints, depth=rng.randint(1, 3), variables=specific_vars
        )
        pairs.append((general, specific))
    return constraints, pairs


def _automaton_entries(engine):
    stats = engine._automaton.stats()
    return sum(
        stats[name]
        for name in ("states", "transitions", "node_entries", "pair_entries", "match_entries")
    )


# -- no leak -------------------------------------------------------------------


def test_repeated_question_adds_no_memo_or_automaton_entries():
    engine = SubtypeEngine(paper_universe(), shared_memo=SHARED_MEMO)
    general, specific = T("list(nat)"), T("cons(succ(X), cons(Y, nil))")
    first = engine.more_general(general, specific)
    memo_after_first = len(engine._memo)
    automaton_after_first = _automaton_entries(engine)
    for _ in range(1000):
        assert engine.more_general(general, specific) is first
    assert len(engine._memo) - memo_after_first <= 1
    assert _automaton_entries(engine) == automaton_after_first
    assert engine.stats.memo_hits >= 1000


def test_alpha_variants_keep_distinct_keys_but_agree():
    # Keys are exact pairs; a renamed question misses the memo but
    # freezes to the same canonical term, so its verdict is the same.
    engine = SubtypeEngine(paper_universe())
    assert engine.more_general(T("list(A)"), T("nelist(X)"))
    entries = engine.stats.memo_entries
    assert engine.more_general(T("list(A)"), T("nelist(Y)"))
    assert engine.stats.memo_entries > entries
    assert not engine.more_general(T("list(int)"), T("nelist(X)"))
    assert not engine.more_general(T("list(int)"), T("nelist(Y)"))


# -- differential --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_agrees_with_fresh_freeze_and_the_naive_prover(seed):
    constraints, pairs = _questions(seed)
    memoized = SubtypeEngine(constraints, validate=False)
    reference = SubtypeEngine(constraints, validate=False, memoize=False)
    naive = NaiveSubtypeProver(constraints, step_limit=300, max_depth=10)
    decided = 0
    for general, specific in pairs:
        verdict = memoized.more_general(general, specific)
        assert verdict == reference.more_general(general, specific), (general, specific)
        # Asked again, the memo answers — with the same verdict.
        assert memoized.more_general(general, specific) == verdict
        oracle = naive.more_general(general, specific)
        if oracle is not None:
            decided += 1
            assert verdict == oracle, (general, specific)
    assert decided >= 5


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_engines_on_one_shared_memo_agree_with_the_reference(seed):
    constraints, pairs = _questions(seed)
    memo = SharedSubtypeMemo()
    reference = SubtypeEngine(constraints, validate=False, memoize=False)
    expected = [reference.more_general(g, s) for g, s in pairs]
    # Each question is posed by a fresh engine per round; from the second
    # round on every engine answers from the other engines' entries.
    for round_ in range(3):
        engine = SubtypeEngine(constraints, validate=False, shared_memo=memo)
        verdicts = [engine.more_general(g, s) for g, s in pairs]
        assert verdicts == expected
        if round_:
            assert engine.stats.memo_entries == 0
            assert engine.stats.memo_hits > 0


def test_reference_engine_keeps_no_definition5_entries():
    engine = SubtypeEngine(paper_universe(), memoize=False)
    assert engine.more_general(T("list(A)"), T("nelist(X)"))
    assert engine._memo == {}
    assert engine.stats.memo_hits == engine.stats.memo_entries == 0


# -- observability -------------------------------------------------------------


def test_memo_traffic_is_counted_and_traced():
    engine = SubtypeEngine(paper_universe(), shared_memo=SHARED_MEMO)
    general, specific = T("list(A)"), T("nelist(X)")
    with obs.collect() as (metrics, sink):
        engine.more_general(general, specific)
        engine.more_general(general, specific)
    assert metrics.counter("subtype.shared_memo.hits") >= 1
    assert metrics.counter("subtype.shared_memo.entries") >= 1
    assert metrics.counter("subtype.memo_hits") >= 1
    probes = [
        event.hit
        for event in sink.events
        if isinstance(event, CacheProbeEvent) and event.cache == "subtype.more_general"
    ]
    assert probes == [False, True]
    assert not METRICS.enabled
