"""The process-wide shared subtype memo (``repro.core.shared_memo``).

Differential contract: attaching engines to one shared memo table must
never change a verdict — only who pays for the derivation.  Plus the
bookkeeping: per-scope keying by constraint-set fingerprint, version
fencing, the eviction cap, and the private memo of a plain engine.
"""

import random
from pathlib import Path

import pytest

from repro.checker.frontend import check_text
from repro.core.shared_memo import SHARED_MEMO, SharedSubtypeMemo
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term
from repro.workloads import deep_nat, paper_universe
from repro.workloads.generators import (
    random_guarded_constraint_set,
    random_subtype_pair,
)


def _workload(seed, goals=25):
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    return constraints, [random_subtype_pair(rng, constraints) for _ in range(goals)]


# -- verdict agreement --------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_shared_and_private_memo_verdicts_agree(seed):
    constraints, pairs = _workload(seed)
    memo = SharedSubtypeMemo()
    # Two shared engines take turns (each sees the other's entries) and a
    # private engine derives everything from scratch: identical verdicts.
    shared_one = SubtypeEngine(constraints, validate=False, shared_memo=memo)
    shared_two = SubtypeEngine(constraints, validate=False, shared_memo=memo)
    private = SubtypeEngine(constraints, validate=False)
    for index, (sup, sub) in enumerate(pairs):
        turn = shared_one if index % 2 == 0 else shared_two
        assert turn.holds(sup, sub) == private.holds(sup, sub)


def test_second_engine_starts_warm():
    constraints = paper_universe()
    memo = SharedSubtypeMemo()
    nat, tower = parse_term("nat"), deep_nat(200)
    first = SubtypeEngine(constraints, validate=False, shared_memo=memo)
    assert first.holds(nat, tower) is True
    assert first.stats.memo_entries > 0
    second = SubtypeEngine(constraints, validate=False, shared_memo=memo)
    assert second._memo, "second engine must attach to the populated table"
    assert second.holds(nat, tower) is True
    assert second.stats.memo_hits > 0
    assert second.stats.memo_entries == 0, "warm re-query derives nothing new"


def test_scopes_are_keyed_by_fingerprint():
    memo = SharedSubtypeMemo()
    set_a, _ = _workload(3)
    set_b, _ = _workload(17)
    assert set_a.fingerprint() != set_b.fingerprint()
    table_a = memo.table_for(set_a)
    table_b = memo.table_for(set_b)
    assert table_a is not table_b
    # Same scope → same table, and the fingerprint is stable.
    assert memo.table_for(set_a) is table_a
    assert set_a.fingerprint() == set_a.fingerprint()
    assert memo.stats()["scopes"] == 2


# -- invalidation and capping -------------------------------------------------------


def test_version_fence_drops_tables():
    memo = SharedSubtypeMemo()
    constraints = paper_universe()
    memo.ensure_version("v1")
    table = memo.table_for(constraints)
    table[(parse_term("nat"), parse_term("0"))] = True
    memo.ensure_version("v1")  # same tag: nothing dropped
    assert memo.stats()["entries"] == 1
    memo.ensure_version("v2")  # bump: everything dropped
    assert memo.stats()["entries"] == 0
    assert memo.stats()["scopes"] == 0
    assert memo.table_for(constraints) is not table


def test_entry_cap_restarts_the_scope_cold():
    memo = SharedSubtypeMemo(max_entries_per_scope=4)
    constraints = paper_universe()
    table = memo.table_for(constraints)
    for depth in range(6):  # outgrow the cap
        table[(parse_term("nat"), deep_nat(depth))] = True
    fresh = memo.table_for(constraints)
    assert fresh is not table and fresh == {}
    assert memo.stats()["evictions"] == 1


def test_plain_constructor_never_shares():
    """The default engine keeps a private cold memo — sharing is opt-in
    (the frontend and batch service pass ``shared_memo=`` explicitly)."""
    engine = SubtypeEngine(paper_universe())
    assert engine._memo_shared is False
    assert engine._memo == {}


# -- frontend integration -----------------------------------------------------------


MODES_SOURCE = (
    Path(__file__).resolve().parents[2] / "examples" / "programs" / "modes.tlp"
).read_text()


def test_frontend_engines_share_across_modules():
    first = check_text(MODES_SOURCE)
    assert first.ok
    entries_after_first = SHARED_MEMO.stats()["entries"]
    assert entries_after_first > 0, "frontend engine must populate the shared memo"
    second = check_text(MODES_SOURCE)
    assert second.ok
    assert second.engine._memo_shared
    # Same declaration scope → the very same table object.
    assert second.engine._memo is first.engine._memo
    # The second module re-posed goals the first already derived.
    assert second.engine.stats.memo_hits > 0
