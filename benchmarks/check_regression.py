"""Gate CI on perf measurements and batch run reports.

Perf mode — CI runs ``benchmarks/summary.py --quick --json`` (which
rewrites ``BENCH_subtype.json`` at the repo root), then calls this
script with the *committed* baseline and the fresh measurement::

    python benchmarks/check_regression.py baseline.json current.json [--factor 2.0]

A row regresses when ``current_ns > factor * baseline_ns`` for a
measurement ``id`` present in both files.  The default factor is a
deliberately loose 2x — CI runners are noisy shared machines; the gate
exists to catch order-of-magnitude breakage (a dropped memo, a
broken intern table), not 10% drift.  Ids present in only
one file are reported but never fatal, so adding or retiring benchmarks
doesn't break the gate.

Run-report mode — gate a ``tlp-run-report/1`` artifact (written by
``tlp-batch --report`` or ``bench_batch.py --report``) on cache
effectiveness::

    python benchmarks/check_regression.py --run-report run-report.json --min-hit-rate 0.99

Fails when the report's ``cache.hit_rate`` falls below the floor — the
observable symptom of a broken fingerprint, a silently bumped checker
version, or a cache that stopped persisting.  Both modes compose: give
baseline+current *and* ``--run-report`` and the exit status is the
conjunction.

Speedup mode — enforce that one row in the *current* file beats another
by at least a factor (repeatable)::

    python benchmarks/check_regression.py baseline.json current.json \
        --min-speedup automata.member.nat.256:automata.member.nat.256.fallback:3.0

reads ``fast_id:slow_id:factor`` and fails unless
``slow_ns >= factor * fast_ns`` *within the current measurement*.  This
is how the tree-automata win is gated: the committed baseline already
has the automaton on, so a plain regression check could never notice the
fast path silently degrading into the fallback — comparing the enabled
row against the ``.fallback`` row of the same run can.

Overhead mode — the dual ceiling (repeatable)::

    python benchmarks/check_regression.py baseline.json current.json \
        --max-overhead polytypes.lint.corpus:polytypes.lint.corpus.nosolver:1.1

reads ``with_id:base_id:factor`` and fails when
``with_ns > factor * base_ns`` within the current measurement.  This
gates features that must stay within noise of their own off-switch: the
TLP6xx solver's activation gate keeps monomorphic lint runs at most
1.1x the solver-disabled time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional


def load_rows(path: str) -> Dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        str(row["id"]): float(row["ns_per_op"])
        for row in payload.get("measurements", [])
    }


def fmt_ns(ns: float) -> str:
    if ns < 1e3:
        return f"{ns:.0f}ns"
    if ns < 1e6:
        return f"{ns / 1e3:.1f}µs"
    if ns < 1e9:
        return f"{ns / 1e6:.2f}ms"
    return f"{ns / 1e9:.2f}s"


def check_run_report(path: str, min_hit_rate: float) -> int:
    """Gate a ``tlp-run-report/1`` file on its cache hit rate."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"run report {path}: unreadable: {error}", file=sys.stderr)
        return 1
    schema = report.get("schema")
    if schema != "tlp-run-report/1":
        print(f"run report {path}: unknown schema {schema!r}", file=sys.stderr)
        return 1
    cache = report.get("cache", {})
    hit_rate = float(cache.get("hit_rate", 0.0))
    files = report.get("files", {})
    print(
        f"run report: {files.get('total', '?')} files in "
        f"{float(report.get('wall_s', 0.0)) * 1e3:.1f}ms, "
        f"cache {cache.get('hits', '?')}/{cache.get('hits', 0) + cache.get('misses', 0)} "
        f"({hit_rate:.1%} hit rate), "
        f"worker utilisation {float(report.get('worker_utilisation', 0.0)):.0%}"
    )
    for entry in report.get("top_slow_files", [])[:5]:
        print(
            f"  slow: {entry.get('path')}  "
            f"{float(entry.get('duration_s', 0.0)) * 1e3:.2f}ms"
        )
    if hit_rate < min_hit_rate:
        print(
            f"cache hit rate {hit_rate:.1%} below the "
            f"--min-hit-rate floor {min_hit_rate:.1%}",
            file=sys.stderr,
        )
        return 1
    print(f"cache hit rate {hit_rate:.1%} >= floor {min_hit_rate:.1%}")
    return 0


def check_overheads(rows: Dict[str, float], specs: List[str]) -> int:
    """Enforce ``with_id:base_id:factor`` ceilings within one measurement
    set: fail when ``with_ns > factor * base_ns``.

    The dual of :func:`check_speedups` — an *upper* bound on a ratio —
    for features that must stay within noise of their own off-switch
    (e.g. the TLP6xx solver on the monomorphic lint corpus).
    """
    status = 0
    for spec in specs:
        try:
            with_id, base_id, factor_text = spec.rsplit(":", 2)
            factor = float(factor_text)
        except ValueError:
            print(
                f"--max-overhead {spec!r}: expected with_id:base_id:factor",
                file=sys.stderr,
            )
            status = 1
            continue
        missing = [i for i in (with_id, base_id) if i not in rows]
        if missing:
            print(
                f"--max-overhead {spec!r}: id(s) missing from current file: "
                f"{', '.join(missing)}",
                file=sys.stderr,
            )
            status = 1
            continue
        ratio = rows[with_id] / rows[base_id] if rows[base_id] else float("inf")
        if ratio > factor:
            print(
                f"{with_id} is {ratio:.2f}x of {base_id} "
                f"({fmt_ns(rows[with_id])} vs {fmt_ns(rows[base_id])}); "
                f"ceiling is {factor:.2f}x",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"{with_id} is {ratio:.2f}x of {base_id} "
                f"(ceiling {factor:.2f}x)"
            )
    return status


def check_speedups(rows: Dict[str, float], specs: List[str]) -> int:
    """Enforce ``fast_id:slow_id:factor`` floors within one measurement set."""
    status = 0
    for spec in specs:
        try:
            fast_id, slow_id, factor_text = spec.rsplit(":", 2)
            factor = float(factor_text)
        except ValueError:
            print(
                f"--min-speedup {spec!r}: expected fast_id:slow_id:factor",
                file=sys.stderr,
            )
            status = 1
            continue
        missing = [i for i in (fast_id, slow_id) if i not in rows]
        if missing:
            print(
                f"--min-speedup {spec!r}: id(s) missing from current file: "
                f"{', '.join(missing)}",
                file=sys.stderr,
            )
            status = 1
            continue
        speedup = rows[slow_id] / rows[fast_id] if rows[fast_id] else float("inf")
        if speedup < factor:
            print(
                f"{fast_id} only {speedup:.2f}x faster than {slow_id} "
                f"({fmt_ns(rows[fast_id])} vs {fmt_ns(rows[slow_id])}); "
                f"floor is {factor:.1f}x",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"{fast_id} is {speedup:.2f}x faster than {slow_id} "
                f"(floor {factor:.1f}x)"
            )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", nargs="?", default=None, help="committed BENCH_subtype.json"
    )
    parser.add_argument(
        "current", nargs="?", default=None, help="freshly measured BENCH_subtype.json"
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when current > factor * baseline (default 2.0)",
    )
    parser.add_argument(
        "--run-report",
        metavar="FILE",
        default=None,
        help="also gate a tlp-run-report/1 file on cache effectiveness",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.99,
        help=(
            "minimum cache.hit_rate accepted with --run-report "
            "(default 0.99)"
        ),
    )
    parser.add_argument(
        "--min-speedup",
        metavar="FAST:SLOW:FACTOR",
        action="append",
        default=[],
        help=(
            "require measurement FAST to be at least FACTOR times faster "
            "than SLOW within the current file (repeatable)"
        ),
    )
    parser.add_argument(
        "--max-overhead",
        metavar="WITH:BASE:FACTOR",
        action="append",
        default=[],
        help=(
            "require measurement WITH to be at most FACTOR times BASE "
            "within the current file (repeatable)"
        ),
    )
    arguments = parser.parse_args(argv)

    if (arguments.baseline is None) != (arguments.current is None):
        parser.error("give both baseline and current, or neither")
    if arguments.baseline is None and arguments.run_report is None:
        parser.error("nothing to check: give baseline+current or --run-report")
    if arguments.min_speedup and arguments.current is None:
        parser.error("--min-speedup needs a current measurement file")
    if arguments.max_overhead and arguments.current is None:
        parser.error("--max-overhead needs a current measurement file")

    report_status = 0
    if arguments.run_report is not None:
        report_status = check_run_report(
            arguments.run_report, arguments.min_hit_rate
        )
        if arguments.baseline is None:
            return report_status
        print()

    baseline = load_rows(arguments.baseline)
    current = load_rows(arguments.current)
    common = sorted(set(baseline) & set(current))
    if not common:
        print("no common measurement ids between baseline and current", file=sys.stderr)
        return 1

    width = max(len(identifier) for identifier in common) + 2
    print(f"{'id'.ljust(width)}{'baseline':>12}{'current':>12}{'ratio':>8}")
    regressions = []
    for identifier in common:
        ratio = current[identifier] / baseline[identifier]
        marker = ""
        if ratio > arguments.factor:
            regressions.append(identifier)
            marker = f"  REGRESSED (> {arguments.factor:.1f}x)"
        print(
            f"{identifier.ljust(width)}"
            f"{fmt_ns(baseline[identifier]):>12}"
            f"{fmt_ns(current[identifier]):>12}"
            f"{ratio:>7.2f}x{marker}"
        )
    for identifier in sorted(set(baseline) - set(current)):
        print(f"{identifier.ljust(width)}  (missing from current — skipped)")
    for identifier in sorted(set(current) - set(baseline)):
        print(f"{identifier.ljust(width)}  (new — no baseline, skipped)")

    speedup_status = 0
    if arguments.min_speedup:
        print()
        speedup_status = check_speedups(current, arguments.min_speedup)
    overhead_status = 0
    if arguments.max_overhead:
        print()
        overhead_status = check_overheads(current, arguments.max_overhead)

    if regressions:
        print(
            f"\n{len(regressions)} measurement(s) regressed beyond "
            f"{arguments.factor:.1f}x: {', '.join(regressions)}",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(common)} common measurements within {arguments.factor:.1f}x")
    return report_status or speedup_status or overhead_status


if __name__ == "__main__":
    sys.exit(main())
