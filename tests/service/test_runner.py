"""Execution layer: cold/warm runs, parallel workers, telemetry aggregation.

Covers the service's central guarantees: a warm run replays cold-run
diagnostics byte-for-byte without invoking the checker, invalidation is
exactly content/declarations-keyed, and telemetry under the worker pool
is lossless (no lost updates, no cross-worker double counting) for both
the thread and the process flavour.
"""

import pytest

from repro import obs
from repro.obs import METRICS
from repro.service.cache import ResultCache
from repro.service.project import load_project
from repro.service.runner import run_batch


def batch(path, cache=None, **kwargs):
    return run_batch(load_project([str(path)]), cache=cache, **kwargs)


# -- cold vs warm ------------------------------------------------------------


def test_warm_run_replays_cold_run_exactly(corpus_dir, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cold = batch(corpus_dir, cache)
    assert cold.ok and cold.cache_hits == 0 and cold.files_checked == 2

    warm_cache = ResultCache(str(tmp_path / "cache"))  # fresh load from disk
    warm = batch(corpus_dir, warm_cache)
    assert warm.hit_rate == 1.0
    assert warm.files_checked == 0  # Definition 16 pipeline never ran
    assert [r.from_cache for r in warm.results] == [True, True]
    assert [(r.display, r.ok, r.diagnostics) for r in warm.results] == [
        (r.display, r.ok, r.diagnostics) for r in cold.results
    ]
    assert [r.summary_line().replace(" [cached]", "") for r in warm.results] == [
        r.summary_line() for r in cold.results
    ]


def test_ill_typed_diagnostics_cached_byte_identically(mixed_corpus_dir, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cold = batch(mixed_corpus_dir, cache)
    assert not cold.ok and cold.exit_code == 1
    warm = batch(mixed_corpus_dir, cache)
    assert warm.exit_code == 1 and warm.hit_rate == 1.0
    cold_diags = {r.display: r.diagnostics for r in cold.results}
    warm_diags = {r.display: r.diagnostics for r in warm.results}
    assert warm_diags == cold_diags
    assert any(warm_diags.values())  # the ill-typed member kept its messages


def test_force_rechecks_but_keeps_recording(corpus_dir, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    batch(corpus_dir, cache)
    forced = batch(corpus_dir, cache, force=True)
    assert forced.cache_hits == 0 and forced.files_checked == 2
    warm = batch(corpus_dir, cache)
    assert warm.hit_rate == 1.0


def test_no_cache_always_checks(corpus_dir):
    first = batch(corpus_dir)
    second = batch(corpus_dir)
    assert first.files_checked == second.files_checked == 2


# -- invalidation ------------------------------------------------------------


def test_content_change_rechecks_only_that_file(corpus_dir, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    batch(corpus_dir, cache)
    target = corpus_dir / "append.tlp"
    target.write_text(target.read_text() + "% touched\n")
    warm = batch(corpus_dir, cache)
    rechecked = [r.display for r in warm.results if not r.from_cache]
    assert rechecked == [str(target)]
    assert warm.cache_hits == 1


def test_shared_declaration_change_rechecks_whole_corpus(manifest_dir, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_batch(load_project([str(manifest_dir)]), cache=cache)
    assert cold.ok and cold.files_checked == 2
    warm = run_batch(load_project([str(manifest_dir)]), cache=cache)
    assert warm.hit_rate == 1.0
    # Tighten a shared declaration: every member's key moves at once.
    decls = manifest_dir / "decls.tlp"
    decls.write_text(decls.read_text() + "% prelude changed\n")
    invalidated = run_batch(load_project([str(manifest_dir)]), cache=cache)
    assert invalidated.cache_hits == 0
    assert invalidated.files_checked == 2


# -- parallel workers --------------------------------------------------------


@pytest.mark.parametrize("use", ["thread", "process"])
def test_parallel_results_match_sequential(corpus_dir, use):
    sequential = batch(corpus_dir)
    parallel = batch(corpus_dir, jobs=2, use=use)
    assert [(r.display, r.ok, r.diagnostics, r.clauses, r.queries) for r in parallel.results] == [
        (r.display, r.ok, r.diagnostics, r.clauses, r.queries) for r in sequential.results
    ]


def make_corpus(tmp_path, count=6):
    from repro.workloads import APPEND

    root = tmp_path / "many"
    root.mkdir()
    for index in range(count):
        # Distinct texts so every file is real work (no dedup anywhere).
        (root / f"member{index}.tlp").write_text(APPEND + f"% v{index}\n")
    return root


@pytest.mark.parametrize("use", ["thread", "process"])
def test_telemetry_aggregation_under_worker_pool(tmp_path, use):
    """No lost counter updates, no cross-worker double counting.

    The reference is the sequential observed run: whatever the single
    process records, the pooled run must record identically for every
    deterministic counter (timer *counts* too — durations vary).
    """
    root = make_corpus(tmp_path)
    obs.reset()
    METRICS.enabled = True
    try:
        run_batch(load_project([str(root)]), jobs=1)
        reference = METRICS.snapshot()
        obs.reset()
        run_batch(load_project([str(root)]), jobs=3, use=use)
        pooled = METRICS.snapshot()
    finally:
        METRICS.enabled = False
    reference_counters = {
        name: value
        for name, value in reference["counters"].items()
        if not name.startswith("service.")
    }
    pooled_counters = {
        name: value
        for name, value in pooled["counters"].items()
        if not name.startswith("service.")
    }
    assert pooled_counters == reference_counters
    assert pooled_counters["checker.modules_checked"] == 6
    for name, stat in reference["timers"].items():
        assert pooled["timers"][name]["count"] == stat["count"], name


def test_pool_reports_utilisation_and_file_counters(tmp_path):
    root = make_corpus(tmp_path)
    obs.reset()
    METRICS.enabled = True
    try:
        run_batch(load_project([str(root)]), jobs=2, use="thread")
        assert METRICS.counter("service.files.checked") == 6
        assert METRICS.gauge_value("service.jobs") == 2
        utilisation = METRICS.gauge_value("service.worker_utilisation")
        assert utilisation is not None and 0.0 < utilisation <= 1.0
    finally:
        METRICS.enabled = False


def test_cache_plus_process_pool(tmp_path):
    """Cold parallel run populates the cache; warm run needs no workers."""
    root = make_corpus(tmp_path)
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_batch(load_project([str(root)]), cache=cache, jobs=3, use="process")
    assert cold.files_checked == 6
    warm = run_batch(load_project([str(root)]), cache=cache, jobs=3, use="process")
    assert warm.hit_rate == 1.0 and warm.files_checked == 0
    assert {r.display: r.diagnostics for r in warm.results} == {
        r.display: r.diagnostics for r in cold.results
    }


def test_unknown_executor_kind_rejected(corpus_dir):
    with pytest.raises(ValueError):
        batch(corpus_dir, jobs=2, use="fibers")


# -- success-set inference through the batch layer ---------------------------


NODECL = """\
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).
app(nil,L,L).
app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
"""


@pytest.fixture()
def nodecl_corpus_dir(tmp_path):
    """One member that defines app without declaring it."""
    (tmp_path / "nodecl.tlp").write_text(NODECL)
    return tmp_path


def test_infer_results_ride_the_batch_report(nodecl_corpus_dir):
    report = batch(nodecl_corpus_dir, infer=True)
    (result,) = report.results
    assert result.inferred == ("PRED app(list(A), list(A), list(A)).",)
    assert report.to_json()["files"][0]["inferred"] == list(result.inferred)


def test_infer_off_means_no_inferred_lines(nodecl_corpus_dir):
    report = batch(nodecl_corpus_dir)
    assert report.results[0].inferred == ()


def test_infer_results_are_cache_stable(nodecl_corpus_dir, tmp_path):
    """Differential acceptance: a warm --infer run replays the cold
    run's inferred declarations byte-for-byte from the cache."""
    cache = ResultCache(str(tmp_path / "cache"), infer=True)
    cold = batch(nodecl_corpus_dir, cache, infer=True)
    assert cold.cache_hits == 0
    warm_cache = ResultCache(str(tmp_path / "cache"), infer=True)  # reload
    warm = batch(nodecl_corpus_dir, warm_cache, infer=True)
    assert warm.hit_rate == 1.0 and warm.files_checked == 0
    assert [r.inferred for r in warm.results] == [
        r.inferred for r in cold.results
    ]
    assert warm.results[0].inferred == (
        "PRED app(list(A), list(A), list(A)).",
    )


def test_infer_and_plain_runs_do_not_share_cache_entries(
    nodecl_corpus_dir, tmp_path
):
    plain_cache = ResultCache(str(tmp_path / "cache"))
    batch(nodecl_corpus_dir, plain_cache)
    # Same directory, inference on: the plain entry must NOT replay (it
    # has no inferred lines to offer).
    infer_cache = ResultCache(str(tmp_path / "cache"), infer=True)
    report = batch(nodecl_corpus_dir, infer_cache, infer=True)
    assert report.cache_hits == 0
    assert report.results[0].inferred


# -- run reports, progress, histograms ----------------------------------------


def test_run_report_asserts_hit_ratio_and_slow_files(tmp_path):
    from repro.service.report import SCHEMA, build_run_report, write_run_report

    root = make_corpus(tmp_path)
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_batch(load_project([str(root)]), cache=cache)
    cold_report = build_run_report(cold)
    assert cold_report["schema"] == SCHEMA
    assert cold_report["cache"] == {"hits": 0, "misses": 6, "hit_rate": 0.0}
    assert cold_report["files"]["checked"] == 6
    slow = cold_report["top_slow_files"]
    assert slow and len(slow) <= 10
    durations = [entry["duration_s"] for entry in slow]
    assert durations == sorted(durations, reverse=True)
    assert all(not entry["from_cache"] for entry in slow)

    warm = run_batch(load_project([str(root)]), cache=cache)
    warm_report = build_run_report(warm, top_n=3)
    assert warm_report["cache"]["hit_rate"] == 1.0
    assert warm_report["files"]["cached"] == 6
    assert len(warm_report["top_slow_files"]) == 3
    assert all(entry["from_cache"] for entry in warm_report["top_slow_files"])

    out = tmp_path / "report.json"
    write_run_report(str(out), warm, project={"name": "t"})
    import json

    payload = json.loads(out.read_text())
    assert payload["schema"] == SCHEMA
    assert payload["project"] == {"name": "t"}
    assert payload["cache"]["hit_rate"] == 1.0


def test_run_report_phase_totals_are_recorded(corpus_dir):
    from repro.service.report import build_run_report

    report = batch(corpus_dir)
    payload = build_run_report(report)
    assert set(payload["phases"]) == {"probe_s", "check_s", "record_s"}
    assert all(value >= 0.0 for value in payload["phases"].values())
    assert payload["wall_s"] >= payload["phases"]["check_s"]


def test_run_report_embeds_telemetry_histograms(corpus_dir):
    from repro.service.report import build_run_report

    obs.reset()
    METRICS.enabled = True
    try:
        report = batch(corpus_dir)
        payload = build_run_report(report, telemetry=METRICS.snapshot())
    finally:
        METRICS.enabled = False
    histograms = payload["histograms"]
    assert histograms["service.file.check"]["count"] == 2
    assert "buckets" not in histograms["service.file.check"]  # summarised
    assert payload["counters"]["service.files.checked"] == 2


def test_progress_callback_fires_for_hits_and_fresh(tmp_path):
    root = make_corpus(tmp_path, count=4)
    cache = ResultCache(str(tmp_path / "cache"))
    seen = []

    def progress(done, total, result):
        seen.append((done, total, result.display, result.from_cache))

    run_batch(load_project([str(root)]), cache=cache, progress=progress)
    assert [done for done, _, _, _ in seen] == [1, 2, 3, 4]
    assert all(total == 4 for _, total, _, _ in seen)
    assert all(not cached for _, _, _, cached in seen)

    seen.clear()
    run_batch(load_project([str(root)]), cache=cache, progress=progress)
    assert [done for done, _, _, _ in seen] == [1, 2, 3, 4]
    assert all(cached for _, _, _, cached in seen)


@pytest.mark.parametrize("use", ["thread", "process"])
def test_histograms_merge_across_worker_pools(tmp_path, use):
    """Per-file latency histograms recorded inside pool workers land in
    the coordinator's registry with nothing lost: one sample per file."""
    root = make_corpus(tmp_path)
    obs.reset()
    METRICS.enabled = True
    try:
        run_batch(load_project([str(root)]), jobs=3, use=use)
        merged = METRICS.histogram("service.file.check")
    finally:
        METRICS.enabled = False
    assert merged is not None
    assert merged["count"] == 6
    assert sum(merged["buckets"].values()) == 6
    assert 0.0 < merged["min_s"] <= merged["max_s"]
    assert merged["p50_s"] <= merged["p99_s"]


def test_repeat_passes_neither_reload_nor_rewrite_the_automata_spill(
    corpus_dir, tmp_path
):
    from repro.core.automata import AUTOMATA, SPILL_FILENAME

    cache = ResultCache(str(tmp_path / "cache"))
    batch(corpus_dir, cache)
    spill = tmp_path / "cache" / SPILL_FILENAME
    assert spill.exists()  # a first pass into a directory always spills
    written = spill.stat().st_mtime_ns
    spills, loads = AUTOMATA.spills, AUTOMATA.loads

    # An edited member under the same declarations: a fresh check, but
    # no new automaton, so nothing to read back or write out again.
    (corpus_dir / "append.tlp").write_text(
        (corpus_dir / "append.tlp").read_text() + "\n"
    )
    again = batch(corpus_dir, cache)
    assert again.files_checked == 1
    assert (AUTOMATA.spills, AUTOMATA.loads) == (spills, loads)
    assert spill.stat().st_mtime_ns == written
