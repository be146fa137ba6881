"""Interning/shared-memo benchmarks: the warm-path contract of the term kernel.

The hash-consing layer's pitch is that *re-queries* get cheap: once a
deep ground goal has been derived, asking again — even with the term
rebuilt from scratch, as batch traffic does — costs an intern-table walk
plus one identity-keyed memo probe.  I1 measures that warm re-query;
``check_regression.py`` holds its row to the committed baseline.

I2 tracks the cross-engine story: fresh engines attached to the
process-wide shared memo (the batch service's shape — every engine after
the first starts warm) vs. fresh cold engines per query (the seed
shape).  Both sides are built with ``automata=False``: an engine that
attaches the compiled tree automaton answers the tower from the
automaton's process-lifetime tables whether or not it shares a memo, so
only the template-expansion path shows what the shared memo buys.

Run standalone::

    python benchmarks/bench_intern.py [--quick] [--json OUT]

or let ``benchmarks/summary.py`` pull the rows into the one-shot table.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.recursion import ensure_recursion_capacity
from repro.core.shared_memo import SharedSubtypeMemo
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term as T
from repro.terms.term import intern_stats
from repro.workloads import deep_nat, paper_universe

Row = Tuple[str, str]

ROUNDS = 5


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _best_per_op(thunk: Callable[[], None], iterations: int) -> float:
    """Best-of-N mean seconds per op (N rounds shrug off scheduler noise)."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(iterations):
            thunk()
        best = min(best, time.perf_counter() - start)
    return best / iterations


def _warm_requery(depth: int, iterations: int) -> float:
    """Seconds per warm ground re-query with the tower rebuilt every time.

    One engine, memo warmed once; each iteration rebuilds ``succ^depth(0)``
    from scratch and re-asks ``nat ⪰ tower`` — the shape batch traffic
    produces when many files mention the same deep terms.
    """
    engine = SubtypeEngine(paper_universe())
    nat = T("nat")
    keep = deep_nat(depth)  # pins the interned nodes (weak table)
    ensure_recursion_capacity(keep)
    assert engine.contains(nat, keep) is True
    return _best_per_op(lambda: engine.contains(nat, deep_nat(depth)), iterations)


def _fresh_engines(shared: bool, depth: int, engines: int) -> float:
    """Seconds per query with a *fresh engine* for every query.

    ``shared=True`` attaches each engine to one shared memo (the batch
    service's per-file-engine shape: every engine after the first starts
    warm); ``shared=False`` is the seed shape — each engine derives the
    whole tower from a cold memo.  Neither side attaches the automaton.
    """
    constraints = paper_universe()
    nat = T("nat")
    keep = deep_nat(depth)
    ensure_recursion_capacity(keep)
    memo = SharedSubtypeMemo() if shared else None

    def fresh_engine() -> SubtypeEngine:
        return SubtypeEngine(
            constraints, validate=False, shared_memo=memo, automata=False
        )

    if shared:
        fresh_engine().contains(nat, keep)
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(engines):
            fresh_engine().contains(nat, keep)
        best = min(best, time.perf_counter() - start)
    return best / engines


def intern_measurements(quick: bool = False) -> Tuple[List[Row], List[Dict[str, object]]]:
    """Run the intern benchmarks once.

    Returns human-readable ``(label, measured)`` rows and machine rows
    (``{"id", "label", "ns_per_op"}``) for ``BENCH_subtype.json``.
    """
    depth = 1500 if quick else 3000
    iterations = 20 if quick else 50
    engines = 10 if quick else 25

    before = intern_stats()
    warm_interned = _warm_requery(depth, iterations)
    after = intern_stats()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    shared_per_engine = _fresh_engines(True, depth, engines)
    cold_per_engine = _fresh_engines(False, depth, engines)
    engine_speedup = (
        cold_per_engine / shared_per_engine if shared_per_engine else float("inf")
    )

    rows: List[Row] = [
        (
            f"I1 warm ground re-query, succ^{depth}(0), interned",
            f"{fmt(warm_interned)} (table hit rate {hit_rate:.0%})",
        ),
        (
            f"I2 fresh engines on a shared memo, succ^{depth}(0)",
            f"{fmt(shared_per_engine)}/engine",
        ),
        (
            f"I2 fresh cold engines (seed shape)",
            f"{fmt(cold_per_engine)}/engine (shared {engine_speedup:,.0f}x faster)",
        ),
    ]
    measurements: List[Dict[str, object]] = [
        {
            "id": "intern.warm_requery.interned",
            "label": f"warm ground re-query, succ^{depth}(0), interned",
            "ns_per_op": warm_interned * 1e9,
        },
        {
            "id": "intern.fresh_engines.shared_memo",
            "label": f"fresh engine per query on a shared memo, succ^{depth}(0)",
            "ns_per_op": shared_per_engine * 1e9,
        },
        {
            "id": "intern.fresh_engines.cold",
            "label": f"fresh cold engine per query (seed shape), succ^{depth}(0)",
            "ns_per_op": cold_per_engine * 1e9,
        },
    ]
    return rows, measurements


def intern_rows(quick: bool = False) -> List[Row]:
    """The human-readable rows (``summary.py`` pulls these)."""
    rows, _ = intern_measurements(quick=quick)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-smoke sizes")
    parser.add_argument("--json", metavar="OUT", default=None)
    arguments = parser.parse_args(argv)
    rows, measurements = intern_measurements(quick=arguments.quick)
    width = max(len(label) for label, _ in rows) + 2
    for label, value in rows:
        print(label.ljust(width) + value)
    if arguments.json is not None:
        payload = {"quick": arguments.quick, "measurements": measurements}
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
