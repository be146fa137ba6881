"""One-shot experiment summary — regenerates the EXPERIMENTS.md numbers.

Runs a curated subset of every experiment family with single measurements
(no pytest-benchmark statistics) and prints a compact table.  Use the
pytest-benchmark files for rigorous statistics; use this for a quick
paper-vs-measured check:

    python benchmarks/summary.py

Options:

``--quick``
    Shrink every workload to CI-smoke sizes (sub-second total).
``--json OUT``
    Also write the rows as JSON to ``OUT``, with a full ``repro.obs``
    telemetry snapshot (counters/gauges/timers collected while the
    experiments ran) embedded under ``"telemetry"``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.checker import check_text
from repro.core import (
    Matcher,
    NaiveSubtypeProver,
    SubtypeEngine,
    TypedRunner,
    WellTypedChecker,
)
from repro.core.derivation import DerivationBuilder, verify_derivation
from repro.lang import parse_query, parse_term as T
from repro.lp import Database, Query, SLDEngine
from repro.terms import Struct, Var
from repro.workloads import (
    ILL_TYPED_EXAMPLES,
    deep_int,
    deep_nat,
    load,
    nat_list,
    paper_universe,
    synthetic_list_program,
)

Row = Tuple[str, str]

#: Machine-readable ns/op rows collected while ``build_rows`` runs; the
#: stable ``id`` values key the CI regression gate (``BENCH_subtype.json``
#: + ``check_regression.py``).
MEASUREMENTS: List[Dict[str, object]] = []

#: Where the stable perf-trajectory file lands (repo root).
BENCH_SUBTYPE_PATH = Path(__file__).resolve().parent.parent / "BENCH_subtype.json"

#: The warm batch pass's run report (tlp-run-report/1), filled while
#: ``build_rows`` runs and embedded in the ``--json`` payload.
RUN_REPORT: Dict[str, object] = {}


def record(measurement_id: str, label: str, seconds: float, ops: int = 1) -> None:
    """Append one machine row (``ops`` > 1 divides into per-op cost)."""
    MEASUREMENTS.append(
        {"id": measurement_id, "label": label, "ns_per_op": seconds * 1e9 / ops}
    )


def timed(thunk: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def build_rows(quick: bool = False) -> List[Row]:
    """Run every experiment family once; return (label, measured) rows.

    Also refills :data:`MEASUREMENTS` with the machine rows backing
    ``BENCH_subtype.json``.
    """
    MEASUREMENTS.clear()
    rows: List[Row] = []
    cset = paper_universe()

    nat_depths = (64, 256) if quick else (512, 4096, 32768)
    int_depths = (64,) if quick else (512, 4096)
    list_lengths = (64,) if quick else (256, 4096)
    naive_lengths = (1, 2) if quick else (1, 2, 3)
    e3_types = 32 if quick else 128
    e4_lengths = (64,) if quick else (256, 2048)
    e6_clauses = 16 if quick else 128
    e7_elements = 16 if quick else 64

    # -- E1/E2: subtype derivation, deterministic vs naive -----------------
    engine = SubtypeEngine(cset)
    for depth in nat_depths:
        _, dt = timed(lambda: SubtypeEngine(cset).contains(T("nat"), deep_nat(depth)))
        rows.append((f"E1 engine: succ^{depth}(0) ∈ nat", fmt(dt)))
        record(f"subtype.member.nat.{depth}", f"succ^{depth}(0) ∈ nat", dt)
    for depth in int_depths:
        _, dt = timed(lambda: SubtypeEngine(cset).contains(T("nat"), deep_int(depth)))
        rows.append((f"E1 engine: refute pred^{depth}(0) ∈ nat", fmt(dt)))
        record(f"subtype.refute.int.{depth}", f"refute pred^{depth}(0) ∈ nat", dt)
    for length in list_lengths:
        _, dt = timed(lambda: SubtypeEngine(cset).contains(T("list(nat)"), nat_list(length)))
        rows.append((f"E1 engine: {length}-element list ∈ list(nat)", fmt(dt)))
        record(
            f"subtype.member.list.{length}", f"{length}-element list ∈ list(nat)", dt
        )
    naive = NaiveSubtypeProver(cset, max_depth=40, step_limit=4_000_000)
    for length in naive_lengths:
        verdict, dt = timed(
            lambda: naive.holds(T("list(nat)"), nat_list(length, element_depth=0))
        )
        rows.append(
            (f"E2 naive SLD: {length}-element list ∈ list(nat) -> {verdict}", fmt(dt))
        )
    if not quick:
        rows.append(("E2 naive SLD: 4-element list", "diverges (>240s, budget-capped)"))

    # -- E3: restriction analysis ------------------------------------------
    from repro.core import validate_restrictions
    from repro.workloads import random_guarded_constraint_set
    import random

    big = random_guarded_constraint_set(random.Random(7), type_count=e3_types)
    _, dt = timed(lambda: validate_restrictions(big))
    rows.append((f"E3 uniform+guarded analysis, {e3_types}-type universe", fmt(dt)))

    # -- E4: match ------------------------------------------------------------
    matcher = Matcher(cset)
    for length in e4_lengths:
        _, dt = timed(lambda: Matcher(cset).match(T("list(nat)"), nat_list(length)))
        rows.append((f"E4 match(list(nat), {length}-element list)", fmt(dt)))
        record(f"match.list.{length}", f"match(list(nat), {length}-element list)", dt)

    # -- E6/P1: checker throughput --------------------------------------------
    source = synthetic_list_program(e6_clauses)
    module, dt = timed(lambda: check_text(source))
    assert module.ok
    clause_count = len(module.program)
    rows.append(
        (
            f"P1 whole-file check, {clause_count} clauses",
            f"{fmt(dt)} ({clause_count / dt:,.0f} clauses/s)",
        )
    )

    # -- E7: consistency overhead ------------------------------------------------
    append_module = load("append")
    runner = TypedRunner(append_module.checker, append_module.program)
    database = Database(append_module.program)

    def nil_list(n):
        t = Struct("nil", ())
        for _ in range(n):
            t = Struct("cons", (Struct("nil", ()), t))
        return t

    query = Query((Struct("app", (nil_list(e7_elements), nil_list(1), Var("R"))),))
    _, plain_dt = timed(lambda: list(SLDEngine(database).solve(query.goals)))
    result, checked_dt = timed(lambda: runner.run(query, check_answers=True))
    rows.append((f"E7 plain SLD, {e7_elements}-element append", fmt(plain_dt)))
    rows.append(
        (
            f"E7 + per-resolvent re-check ({result.steps} resolvents, "
            f"{len(result.violations)} violations)",
            f"{fmt(checked_dt)} ({checked_dt / plain_dt:.1f}x)",
        )
    )

    # -- E11: the worked derivation ------------------------------------------------
    builder = DerivationBuilder(cset)
    derivation, dt = timed(lambda: builder.derive(T("list(A)"), T("cons(foo,nil)")))
    assert derivation is not None and verify_derivation(derivation)
    rows.append(
        (f"E11 Section 2 refutation regenerated+verified ({derivation.length} steps)", fmt(dt))
    )

    # -- E6: paper verdicts -----------------------------------------------------------
    rejected = sum(1 for s in ILL_TYPED_EXAMPLES.values() if not check_text(s).ok)
    rows.append(
        (f"E6 paper's ill-typed examples rejected", f"{rejected}/{len(ILL_TYPED_EXAMPLES)}")
    )

    # -- B1/B2: the batch checking service ---------------------------------
    from bench_batch import batch_rows

    RUN_REPORT.clear()
    rows.extend(
        batch_rows(quick=quick, measurements=MEASUREMENTS, run_report=RUN_REPORT)
    )

    # -- I1/I2: the interned term kernel and shared memo -------------------
    from bench_intern import intern_measurements

    intern_rows, intern_machine_rows = intern_measurements(quick=quick)
    rows.extend(intern_rows)
    MEASUREMENTS.extend(intern_machine_rows)

    # -- A1-A3: whole-program success-set inference ------------------------
    from bench_absint import absint_measurements

    absint_rows, absint_machine_rows = absint_measurements(quick=quick)
    rows.extend(absint_rows)
    MEASUREMENTS.extend(absint_machine_rows)

    # -- S1/S2: the async multi-client server ------------------------------
    from bench_aserver import aserver_measurements

    aserver_rows, aserver_machine_rows = aserver_measurements(quick=quick)
    rows.extend(aserver_rows)
    MEASUREMENTS.extend(aserver_machine_rows)

    # -- M1-M3: declared modes and --typed-run subject reduction -----------
    from bench_modes import modes_measurements

    modes_rows, modes_machine_rows = modes_measurements(quick=quick)
    rows.extend(modes_rows)
    MEASUREMENTS.extend(modes_machine_rows)

    # -- TA1-TA3: compiled tree automata -----------------------------------
    from bench_automata import automata_measurements

    ta_rows, ta_machine_rows = automata_measurements(quick=quick)
    rows.extend(ta_rows)
    MEASUREMENTS.extend(ta_machine_rows)

    # -- P1-P4: polymorphic subtype-constraint solver ----------------------
    from bench_polytypes import polytypes_measurements

    poly_rows, poly_machine_rows = polytypes_measurements(quick=quick)
    rows.extend(poly_rows)
    MEASUREMENTS.extend(poly_machine_rows)
    return rows


def render(rows: List[Row]) -> str:
    width = max(len(label) for label, _ in rows) + 2
    lines = ["experiment".ljust(width) + "measured", "-" * (width + 24)]
    for label, value in rows:
        lines.append(label.ljust(width) + value)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny CI-smoke workload sizes"
    )
    parser.add_argument(
        "--json",
        metavar="OUT",
        default=None,
        help="write rows + repro.obs telemetry snapshot as JSON to OUT",
    )
    arguments = parser.parse_args(argv)

    telemetry = None
    if arguments.json is not None:
        # Collect a full telemetry snapshot alongside the measurements.
        obs.reset()
        obs.METRICS.enabled = True
        try:
            rows = build_rows(quick=arguments.quick)
            telemetry = obs.summary()
        finally:
            obs.METRICS.enabled = False
    else:
        rows = build_rows(quick=arguments.quick)

    print(render(rows))
    if arguments.json is not None:
        payload = {
            "quick": arguments.quick,
            "rows": [{"experiment": label, "measured": value} for label, value in rows],
            "telemetry": telemetry,
            "run_report": RUN_REPORT or None,
        }
        with open(arguments.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        print(f"\nwrote {arguments.json}", file=sys.stderr)

        from repro.core.automata import AUTOMATA
        from repro.core.shared_memo import SHARED_MEMO
        from repro.terms import intern_stats

        stats = intern_stats()
        bench = {
            "schema": "tlp-bench-subtype/1",
            "quick": arguments.quick,
            "measurements": [
                {**row, "ns_per_op": round(float(row["ns_per_op"]), 1)}
                for row in MEASUREMENTS
            ],
            "intern": {
                "enabled": stats.enabled,
                "size": stats.size,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": round(stats.hit_rate, 4),
            },
            "shared_memo": SHARED_MEMO.stats(),
            "automata": AUTOMATA.stats(),
        }
        with open(BENCH_SUBTYPE_PATH, "w", encoding="utf-8") as handle:
            json.dump(bench, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        print(f"wrote {BENCH_SUBTYPE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
