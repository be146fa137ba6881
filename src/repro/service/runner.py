"""The execution layer: check a project's files, in parallel, with caching.

``run_batch`` is one batch pass over a :class:`~repro.service.project.Project`:

1. **Probe** — every member is fingerprinted and looked up in the
   persistent :class:`~repro.service.cache.ResultCache` (unless ``force``
   or no cache); hits skip the Definition 16 pipeline entirely and replay
   the stored verdict and diagnostics byte-for-byte.
2. **Check** — the misses run through
   :func:`repro.checker.frontend.check_text`.  With ``jobs > 1`` they are
   distributed over a ``concurrent.futures`` pool: processes by default
   (true parallelism — the checker is pure CPU), threads on request
   (``use="thread"``; handy under test and on platforms where ``fork`` is
   unavailable).
3. **Record** — fresh verdicts are written back to the cache, and worker
   telemetry is folded into the coordinator's registry.

Telemetry under the pool is lossless and double-count-free by
construction: *thread* workers record straight into the process-wide
registry (its lock makes concurrent increments safe), while *process*
workers reset their forked copy of the registry, record locally, and
ship a snapshot back in the result tuple — the coordinator merges each
snapshot exactly once via ``TelemetryRegistry.merge_snapshot``.  The
coordinator additionally publishes ``service.jobs`` and
``service.worker_utilisation`` gauges and ``service.files.*`` counters.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..analysis import LintConfig, lint_text
from ..checker.frontend import check_text
from ..core.shared_memo import SHARED_MEMO
from ..obs import METRICS
from .cache import CHECKER_VERSION, CachedResult, ResultCache
from .project import Project, ProjectFile

__all__ = ["FileResult", "BatchReport", "check_one_text", "run_batch"]


@dataclass(frozen=True)
class FileResult:
    """Outcome for one corpus member (fresh or replayed from cache)."""

    display: str
    digest: str
    ok: bool
    diagnostics: Tuple[str, ...]
    clauses: int
    queries: int
    duration_s: float
    from_cache: bool
    lint: Tuple[str, ...] = ()
    #: Inferred ``PRED`` declarations for undeclared predicates (the
    #: ``--infer`` surfaces); empty when inference was off or the file
    #: declares everything it defines.
    inferred: Tuple[str, ...] = ()

    def summary_line(self) -> str:
        """The per-file line batch surfaces print."""
        suffix = " [cached]" if self.from_cache else ""
        lint_note = f", {len(self.lint)} lint" if self.lint else ""
        if self.ok:
            return (
                f"{self.display}: well-typed ({self.clauses} clauses, "
                f"{self.queries} queries{lint_note}){suffix}"
            )
        return (
            f"{self.display}: ill-typed ({len(self.diagnostics)} "
            f"diagnostics{lint_note}){suffix}"
        )


@dataclass
class BatchReport:
    """Everything one ``run_batch`` pass produced."""

    results: List[FileResult] = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall time per phase: ``{"probe_s": ..., "check_s": ..., "record_s": ...}``.
    phases: Dict[str, float] = field(default_factory=dict)
    #: busy-time / (wall × jobs) over the check phase — 1.0 means every
    #: worker slot was saturated; 0.0 when nothing was checked.
    worker_utilisation: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def files_checked(self) -> int:
        return sum(1 for result in self.results if not result.from_cache)

    @property
    def hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "phases": dict(self.phases),
            "worker_utilisation": self.worker_utilisation,
            "ok": self.ok,
            "files": [
                {
                    "path": result.display,
                    "digest": result.digest,
                    "well_typed": result.ok,
                    "diagnostics": list(result.diagnostics),
                    "lint": list(result.lint),
                    "inferred": list(result.inferred),
                    "clauses": result.clauses,
                    "queries": result.queries,
                    "duration_s": result.duration_s,
                    "from_cache": result.from_cache,
                }
                for result in self.results
            ],
        }


def check_one_text(text: str) -> Tuple[bool, Tuple[str, ...], int, int]:
    """Check one source text; diagnostics come back rendered.

    The rendered form is exactly what the CLIs print and the cache
    stores, which is what makes warm output reproducible byte-for-byte.
    """
    module = check_text(text)
    diagnostics = tuple(str(diagnostic) for diagnostic in module.diagnostics)
    return module.ok, diagnostics, len(module.program), len(module.queries)


_WorkerReturn = Tuple[
    int, bool, Tuple[str, ...], int, int, float,
    Tuple[str, ...], Tuple[str, ...], Optional[Dict[str, Any]],
]


def _check_job(
    job: Tuple[int, str, str, bool, Optional[LintConfig], bool]
) -> _WorkerReturn:
    """Pool worker: check (and optionally lint/infer) one text.

    ``ship_telemetry`` is set only for *process* workers of an observed
    run: the forked child resets its inherited copy of the registry
    (so nothing the parent already recorded is counted again), detaches
    any inherited trace sinks (children must not interleave writes on
    the parent's streams), records into its private copy, and returns a
    snapshot for the coordinator to merge.  Thread workers never ship —
    they share the coordinator's registry directly.

    Each stage is observed per file (``service.file.check`` /
    ``service.file.lint`` / ``service.file.infer`` latency histograms)
    and the whole job runs under a ``check_file`` span whose detail is
    the display path — inline and thread runs attribute time to files
    in ``--profile`` output; process workers detached their sinks, so
    the span guard keeps it free there.

    ``lint`` (a picklable :class:`~repro.analysis.registry.LintConfig`)
    turns the analyzer on; findings travel home rendered, same as the
    checker's diagnostics.  ``infer`` additionally runs success-set
    inference and ships the reconstructed ``PRED`` lines.
    """
    index, display, text, ship_telemetry, lint, infer = job
    snapshot: Optional[Dict[str, Any]] = None
    if ship_telemetry:
        obs.TRACER.clear_sinks()
        METRICS.reset()
        METRICS.enabled = True
    observed = METRICS.enabled
    with obs.TRACER.span("check_file", display):
        start = time.perf_counter()
        ok, diagnostics, clauses, queries = check_one_text(text)
        if observed:
            METRICS.observe("service.file.check", time.perf_counter() - start)
        lint_lines: Tuple[str, ...] = ()
        if lint is not None:
            lint_start = time.perf_counter()
            report = lint_text(text, config=lint)
            lint_lines = tuple(str(finding) for finding in report.diagnostics)
            if observed:
                METRICS.observe(
                    "service.file.lint", time.perf_counter() - lint_start
                )
        inferred_lines: Tuple[str, ...] = ()
        if infer:
            from ..analysis.absint import infer_text

            infer_start = time.perf_counter()
            inference = infer_text(text)
            if inference is not None:
                inferred_lines = tuple(inference.declaration_lines())
            if observed:
                METRICS.observe(
                    "service.file.infer", time.perf_counter() - infer_start
                )
        duration = time.perf_counter() - start
    if ship_telemetry:
        snapshot = METRICS.snapshot()
    return (
        index, ok, diagnostics, clauses, queries, duration,
        lint_lines, inferred_lines, snapshot,
    )


def _make_executor(use: str, jobs: int) -> Executor:
    if use == "thread":
        return ThreadPoolExecutor(max_workers=jobs)
    if use == "process":
        return ProcessPoolExecutor(max_workers=jobs)
    raise ValueError(f"unknown executor kind {use!r} (expected 'process' or 'thread')")


#: ``progress(done, total, result)`` — fired once per corpus member, in
#: completion order (cache hits first, then checks as they finish).
ProgressCallback = Callable[[int, int, FileResult], None]


def run_batch(
    project: Project,
    cache: Optional[ResultCache] = None,
    jobs: int = 1,
    use: str = "process",
    force: bool = False,
    lint: Optional[LintConfig] = None,
    infer: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> BatchReport:
    """One batch pass: probe the cache, check the misses, record verdicts.

    With ``lint`` set, misses also run the static analyzer and the
    findings ride in each :class:`FileResult` (and the cache record).
    Callers enabling lint should build the cache with the matching
    rule-set fingerprint so cached lint output can never go stale.  With
    ``infer`` set, misses also run whole-program success-set inference
    and the reconstructed ``PRED`` declarations ride the same way (the
    cache must be built with ``infer=True`` so keys stay distinct from
    inference-free runs).

    ``progress`` receives ``(done, total, result)`` as members resolve —
    cache hits during the probe phase, fresh verdicts as each worker
    finishes (pooled misses complete out of submission order).  The
    report's ``phases`` dict and ``worker_utilisation`` field carry the
    per-phase wall-time split the run report and ``--progress`` surface.
    """
    jobs = max(1, jobs)
    report = BatchReport(jobs=jobs)
    decls_digest = project.declarations_digest
    # Fence the process-wide subtype memo on the same version that keys
    # the persistent result cache: a checker bump that invalidates cached
    # verdicts also drops every cross-engine memoised subtype verdict.
    # (Process-pool workers fork their own copy of the memo; sharing pays
    # off inline, under thread pools, and across daemon requests.)
    SHARED_MEMO.ensure_version(CHECKER_VERSION)
    # Warm-start the compiled-automata store from a spill in the cache
    # directory (written below; version-fenced through ensure_version
    # above) so a fresh batch process starts with every declaration
    # scope already compiled.  The store reads each directory's spill
    # once per process and rewrites it only after a new compile, so a
    # server's repeated passes over one workspace pay for neither.
    from ..core.automata import AUTOMATA

    if cache is not None:
        AUTOMATA.load_spill(cache.cache_dir)
    start = time.perf_counter()
    total = len(project.files)
    done = 0

    # Phase 1: cache probes (coordinator only — workers never touch disk).
    placeholders: List[Optional[FileResult]] = []
    misses: List[Tuple[int, ProjectFile]] = []
    with obs.TRACER.span("batch.probe", project.name):
        for index, member in enumerate(project.files):
            cached = None
            if cache is not None and not force:
                cached = cache.get(member.digest, decls_digest)
            if cached is not None:
                hit = FileResult(
                    display=member.display,
                    digest=member.digest,
                    ok=cached.ok,
                    diagnostics=cached.diagnostics,
                    clauses=cached.clauses,
                    queries=cached.queries,
                    duration_s=cached.duration_s,
                    from_cache=True,
                    lint=cached.lint,
                    inferred=cached.inferred,
                )
                placeholders.append(hit)
                done += 1
                if progress is not None:
                    progress(done, total, hit)
            else:
                placeholders.append(None)
                misses.append((index, member))
    probe_done = time.perf_counter()

    # Phase 2: check the misses (inline, threads, or processes).
    observed = METRICS.enabled
    ship_telemetry = observed and jobs > 1 and use == "process"
    members_by_index = {index: member for index, member in misses}

    def to_result(outcome: _WorkerReturn) -> FileResult:
        index = outcome[0]
        member = members_by_index[index]
        return FileResult(
            display=member.display,
            digest=member.digest,
            ok=outcome[1],
            diagnostics=outcome[2],
            clauses=outcome[3],
            queries=outcome[4],
            duration_s=outcome[5],
            from_cache=False,
            lint=outcome[6],
            inferred=outcome[7],
        )

    fresh: List[Tuple[int, FileResult, Optional[Dict[str, Any]]]] = []
    with obs.TRACER.span("batch.check", project.name):
        if misses:
            job_list = [
                (
                    index, member.display, project.effective_text(member),
                    ship_telemetry, lint, infer,
                )
                for index, member in misses
            ]
            if jobs == 1 or len(job_list) == 1:
                for index, display, text, _, job_lint, job_infer in job_list:
                    outcome = _check_job(
                        (index, display, text, False, job_lint, job_infer)
                    )
                    fresh.append((index, to_result(outcome), outcome[8]))
                    done += 1
                    if progress is not None:
                        progress(done, total, fresh[-1][1])
            else:
                with _make_executor(use, jobs) as pool:
                    futures = [pool.submit(_check_job, job) for job in job_list]
                    for future in as_completed(futures):
                        outcome = future.result()
                        fresh.append(
                            (outcome[0], to_result(outcome), outcome[8])
                        )
                        done += 1
                        if progress is not None:
                            progress(done, total, fresh[-1][1])
    check_done = time.perf_counter()

    # Phase 3: record — verdicts into the cache, telemetry into obs.
    busy = 0.0
    with obs.TRACER.span("batch.record", project.name):
        for index, result, snapshot in fresh:
            busy += result.duration_s
            placeholders[index] = result
            if cache is not None:
                cache.put(
                    result.digest,
                    decls_digest,
                    CachedResult(
                        ok=result.ok,
                        diagnostics=result.diagnostics,
                        clauses=result.clauses,
                        queries=result.queries,
                        duration_s=result.duration_s,
                        checked_at=ResultCache.now(),
                        lint=result.lint,
                        inferred=result.inferred,
                    ),
                    display=result.display,
                )
            if snapshot is not None:
                METRICS.merge_snapshot(snapshot)
        if cache is not None:
            cache.save()
            AUTOMATA.save_spill(cache.cache_dir)
    record_done = time.perf_counter()

    report.results = [result for result in placeholders if result is not None]
    report.wall_s = record_done - start
    report.cache_hits = sum(1 for result in report.results if result.from_cache)
    report.cache_misses = len(fresh)
    report.phases = {
        "probe_s": probe_done - start,
        "check_s": check_done - probe_done,
        "record_s": record_done - check_done,
    }
    check_wall = report.phases["check_s"]
    if check_wall > 0 and fresh:
        report.worker_utilisation = min(1.0, busy / (check_wall * jobs))
    if observed:
        METRICS.inc("service.files.checked", len(fresh))
        METRICS.inc("service.files.cached", report.cache_hits)
        METRICS.gauge("service.jobs", jobs)
        if fresh:
            METRICS.gauge(
                "service.worker_utilisation", report.worker_utilisation
            )
        obs.publish_runtime_gauges()
    return report
