"""Machine-readable run reports for batch passes.

A *run report* is the JSON artifact one :func:`~repro.service.runner.run_batch`
pass leaves behind for dashboards, CI gates, and the benchmark harness:
wall time and the per-phase split, cache effectiveness, worker
utilisation, the top-N slowest files, and — when the run was observed —
summaries of every latency histogram the registry collected
(p50/p90/p99/min/max per metric, no raw buckets).

Producers: ``tlp-batch --report FILE`` and ``benchmarks/summary.py``
(embeds its warm batch pass's report in its ``--json`` document).
Consumer: ``benchmarks/summary.py --run-report FILE`` (gates on the
cache hit rate).  The ``schema`` field versions the contract; consumers
should reject reports whose major scheme they do not know.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from ..obs.histogram import summarise
from .runner import BatchReport

__all__ = ["SCHEMA", "build_run_report", "write_run_report"]

#: Versioned contract name carried by every report.
SCHEMA = "tlp-run-report/1"


def build_run_report(
    report: BatchReport,
    project: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    top_n: int = 10,
) -> Dict[str, Any]:
    """Assemble the run-report dict for one finished batch pass.

    ``project`` is an optional identity block (name, declaration digest)
    copied in verbatim; ``telemetry`` is a
    :meth:`~repro.obs.registry.TelemetryRegistry.snapshot` — when given,
    its histograms are summarised (quantiles, not buckets) and a few
    headline counters ride along.  ``top_n`` bounds the slow-file list.
    """
    fresh = [result for result in report.results if not result.from_cache]
    ranked = sorted(
        fresh or report.results,
        key=lambda result: result.duration_s,
        reverse=True,
    )
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "wall_s": report.wall_s,
        "jobs": report.jobs,
        "ok": report.ok,
        "files": {
            "total": len(report.results),
            "checked": report.files_checked,
            "cached": report.cache_hits,
            "well_typed": sum(1 for result in report.results if result.ok),
            "ill_typed": sum(1 for result in report.results if not result.ok),
        },
        "cache": {
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "hit_rate": report.hit_rate,
        },
        "phases": dict(report.phases),
        "worker_utilisation": report.worker_utilisation,
        "top_slow_files": [
            {
                "path": result.display,
                "duration_s": result.duration_s,
                "from_cache": result.from_cache,
            }
            for result in ranked[: max(0, top_n)]
        ],
    }
    if project is not None:
        payload["project"] = dict(project)
    if telemetry is not None:
        payload["histograms"] = {
            name: summarise(stat)
            for name, stat in telemetry.get("histograms", {}).items()
        }
        counters = telemetry.get("counters", {})
        payload["counters"] = {
            name: counters[name]
            for name in sorted(counters)
            if name.startswith(("service.", "subtype.shared_memo."))
        }
    return payload


def write_run_report(
    path: str,
    report: BatchReport,
    project: Optional[Dict[str, Any]] = None,
    telemetry: Optional[Dict[str, Any]] = None,
    top_n: int = 10,
) -> Dict[str, Any]:
    """Build the report and write it to ``path`` (returns the dict)."""
    payload = build_run_report(
        report, project=project, telemetry=telemetry, top_n=top_n
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
