"""The check service (protocol semantics, hot state) and the
``tlp-aserve --stdio`` transport: subprocess round trips over pipes,
regular files and ``/dev/null``."""

import asyncio
import io
import json
import os
import subprocess
import sys
import threading

from repro import obs
from repro.service.aserver import AsyncCheckServer
from repro.service.daemon import CheckService
from repro.workloads import APPEND, ILL_TYPED_EXAMPLES


# -- CheckService.handle -----------------------------------------------------


def test_check_by_text_then_hot_hit():
    service = CheckService()
    first = service.handle({"op": "check", "text": APPEND})
    assert first["ok"] and first["well_typed"] and first["source"] == "checked"
    assert first["clauses"] == 2
    second = service.handle({"op": "check", "text": APPEND})
    assert second["source"] == "hot"
    assert second["digest"] == first["digest"]
    assert service.hot_hits == 1


def test_check_by_path(tmp_path):
    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    response = CheckService().handle({"op": "check", "path": str(path)})
    assert response["ok"] and response["well_typed"]
    assert response["path"] == str(path)


def test_ill_typed_is_protocol_ok_but_not_well_typed():
    response = CheckService().handle(
        {"op": "check", "text": ILL_TYPED_EXAMPLES["query_two_contexts"]}
    )
    assert response["ok"] is True
    assert response["well_typed"] is False
    assert response["diagnostics"]


def test_check_argument_validation(tmp_path):
    service = CheckService()
    assert not service.handle({"op": "check"})["ok"]
    assert not service.handle({"op": "check", "path": "a", "text": "b"})["ok"]
    missing = service.handle({"op": "check", "path": str(tmp_path / "nope.tlp")})
    assert not missing["ok"] and "cannot read" in missing["error"]


def test_unknown_op_and_non_object_requests():
    service = CheckService()
    assert not service.handle({"op": "frobnicate"})["ok"]
    assert not service.handle(["not", "an", "object"])["ok"]
    assert service.errors == 2


def test_persistent_cache_shared_across_daemon_lifetimes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = CheckService(cache_dir=cache_dir)
    assert first.handle({"op": "check", "text": APPEND})["source"] == "checked"
    # A new daemon process: no hot modules, but the verdict store is warm.
    second = CheckService(cache_dir=cache_dir)
    replayed = second.handle({"op": "check", "text": APPEND})
    assert replayed["source"] == "cache"
    assert replayed["well_typed"] is True


def test_stats_reports_counts_and_telemetry():
    obs.METRICS.enable()
    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    response = service.handle({"op": "stats"})
    assert response["ok"]
    stats = response["stats"]
    assert stats["requests"] == 2 and stats["checks"] == 1
    assert stats["hot_modules"] == 1
    assert response["telemetry"]["counters"]["checker.modules_checked"] == 1


def test_invalidate_drops_hot_and_cached_state(tmp_path):
    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    service = CheckService(cache_dir=str(tmp_path / "cache"))
    service.handle({"op": "check", "path": str(path)})
    response = service.handle({"op": "invalidate", "path": str(path)})
    assert response["dropped_hot"] == 1 and response["dropped_cached"] == 1
    assert service.handle({"op": "check", "path": str(path)})["source"] == "checked"
    assert service.handle({"op": "invalidate"})["dropped_hot"] == 1


# -- the stdio transport -------------------------------------------------------


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


STDIO_SERVER = [sys.executable, "-m", "repro.service.aserver.server", "--stdio"]


def run_session(lines, *arguments):
    """Pipe ``lines`` into one ``tlp-aserve --stdio`` process; its replies."""
    completed = subprocess.run(
        [*STDIO_SERVER, *arguments],
        input="".join(lines),
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return [json.loads(line) for line in completed.stdout.splitlines()]


def test_serve_round_trip_check_stats_shutdown():
    from repro.workloads.generators import synthetic_list_program

    # A first check slow enough that every later line is read while it
    # runs: the line after ``shutdown`` must still go unanswered.
    responses = run_session(
        [
            json.dumps({"op": "check", "text": synthetic_list_program(200)}) + "\n",
            "\n",  # blank lines are skipped
            json.dumps({"op": "stats"}) + "\n",
            json.dumps({"op": "shutdown"}) + "\n",
            json.dumps({"op": "check", "text": APPEND}) + "\n",  # after shutdown
        ]
    )
    assert [r.get("op") for r in responses] == ["check", "stats", "shutdown"]
    assert responses[0]["well_typed"] is True
    assert responses[1]["stats"]["requests"] == 2


def test_serve_survives_malformed_json():
    responses = run_session(
        [
            "this is not json\n",
            json.dumps({"op": "stats"}) + "\n",
        ]
    )
    assert responses[0]["ok"] is False and "malformed JSON" in responses[0]["error"]
    assert responses[1]["ok"] is True


def test_serve_stops_at_eof_without_shutdown():
    responses = run_session([json.dumps({"op": "stats"}) + "\n"])
    assert len(responses) == 1


def test_eof_without_shutdown_answers_every_queued_line():
    # More lines than one client may queue: the end of input must still
    # drain them all, in order, rather than cancel them.
    lines = [
        json.dumps({"id": index, "op": "check", "text": APPEND}) + "\n"
        for index in range(40)
    ]
    responses = run_session(lines, "--max-queue", "2")
    assert [r["id"] for r in responses] == list(range(40))
    assert all(r["well_typed"] for r in responses)


def test_stdio_reads_a_regular_file_and_writes_a_regular_file(tmp_path):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        json.dumps({"op": "check", "text": APPEND}) + "\n"
        + json.dumps({"op": "check", "text": APPEND}) + "\n"
        + json.dumps({"op": "stats"}) + "\n"
    )
    replies = tmp_path / "replies.jsonl"
    with open(requests, "rb") as stdin, open(replies, "wb") as stdout:
        completed = subprocess.run(
            STDIO_SERVER, stdin=stdin, stdout=stdout, stderr=subprocess.PIPE,
            env=_env(), timeout=120,
        )
    assert completed.returncode == 0, completed.stderr
    responses = [json.loads(line) for line in replies.read_text().splitlines()]
    assert [r["op"] for r in responses] == ["check", "check", "stats"]
    assert [r["source"] for r in responses[:2]] == ["checked", "hot"]
    assert b"ready" in completed.stderr


def test_stdio_from_dev_null_exits_cleanly():
    completed = subprocess.run(
        STDIO_SERVER, stdin=subprocess.DEVNULL, capture_output=True,
        env=_env(), timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == b""
    assert b"ready" in completed.stderr


def test_stdio_accepts_a_request_line_over_64_kib():
    text = "% " + "x" * 70_000 + "\n" + APPEND
    request = json.dumps({"op": "check", "text": text}) + "\n"
    assert len(request) > 64 * 1024
    responses = run_session([request, json.dumps({"op": "shutdown"}) + "\n"])
    assert [r["op"] for r in responses] == ["check", "shutdown"]
    assert responses[0]["well_typed"] is True
    assert responses[0]["clauses"] == 2


# -- subprocess smoke --------------------------------------------------------


def test_daemon_subprocess_round_trip(tmp_path):
    """One real ``tlp-aserve --stdio`` process: check + stats over the
    JSON protocol."""
    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    requests = "".join(
        json.dumps(request) + "\n"
        for request in [
            {"op": "check", "path": str(path)},
            {"op": "stats"},
            {"op": "shutdown"},
        ]
    )
    completed = subprocess.run(
        [*STDIO_SERVER, "--cache-dir", str(tmp_path / "c")],
        input=requests,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    responses = [json.loads(line) for line in completed.stdout.splitlines()]
    assert [r["op"] for r in responses] == ["check", "stats", "shutdown"]
    assert responses[0]["well_typed"] is True
    assert responses[1]["stats"]["checks"] == 1
    assert "ready" in completed.stderr


# -- the infer op ------------------------------------------------------------


NODECL_APP = """\
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).
app(nil,L,L).
app(cons(X,L),M,cons(X,N)) :- app(L,M,N).
"""


def test_infer_by_text():
    response = CheckService().handle({"op": "infer", "text": NODECL_APP})
    assert response["ok"] and response["op"] == "infer"
    assert response["declarations"] == ["PRED app(list(A), list(A), list(A))."]
    assert any("app/arg1" in line for line in response["success_sets"])


def test_infer_by_path(tmp_path):
    path = tmp_path / "nodecl.tlp"
    path.write_text(NODECL_APP)
    response = CheckService().handle({"op": "infer", "path": str(path)})
    assert response["ok"] and response["path"] == str(path)
    assert response["declarations"] == ["PRED app(list(A), list(A), list(A))."]


def test_infer_fully_declared_file_reconstructs_nothing():
    response = CheckService().handle({"op": "infer", "text": APPEND})
    assert response["ok"] and response["declarations"] == []
    assert response["success_sets"]


def test_infer_argument_validation():
    service = CheckService()
    assert not service.handle({"op": "infer"})["ok"]
    assert not service.handle({"op": "infer", "path": "a", "text": "b"})["ok"]
    broken = service.handle({"op": "infer", "text": "FUNC ."})
    assert not broken["ok"]


def test_infer_counts_in_stats():
    service = CheckService()
    service.handle({"op": "infer", "text": NODECL_APP})
    stats = service.handle({"op": "stats"})["stats"]
    assert stats["infers"] == 1


# -- metrics and health ops ---------------------------------------------------


def test_metrics_op_returns_parseable_exposition():
    from repro.obs import parse_exposition

    obs.METRICS.enable()
    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    response = service.handle({"op": "metrics"})
    assert response["ok"] and response["op"] == "metrics"
    assert response["content_type"].startswith("text/plain")
    samples = parse_exposition(response["body"])
    # Daemon runtime gauges ride along even without library telemetry.
    assert samples["tlp_daemon_hot_module_limit"] == 256
    assert samples["tlp_daemon_hot_modules"] == 1
    assert samples["tlp_daemon_uptime_seconds"] >= 0
    assert samples["tlp_daemon_requests"] >= 1
    # Library telemetry was enabled, so checker counters appear too.
    assert samples["tlp_checker_modules_checked_total"] == 1


def test_metrics_op_works_with_telemetry_disabled():
    from repro.obs import parse_exposition

    service = CheckService()
    samples = parse_exposition(service.handle({"op": "metrics"})["body"])
    assert samples["tlp_daemon_hot_modules"] == 0
    assert "tlp_checker_modules_checked_total" not in samples


def test_health_op_reports_uptime_lru_and_memo(tmp_path):
    service = CheckService(cache_dir=str(tmp_path / "cache"))
    service.handle({"op": "check", "text": APPEND})
    response = service.handle({"op": "health"})
    assert response["ok"] and response["op"] == "health"
    health = response["health"]
    assert health["uptime_s"] >= 0
    assert health["pid"] == os.getpid()
    assert health["requests"] == 2 and health["errors"] == 0
    assert health["hot_modules"] == {
        "count": 1,
        "limit": 256,
        "occupancy": 1 / 256,
    }
    assert set(health["shared_memo"]) >= {"entries", "scopes"}
    assert health["cache"]["dir"] == str(tmp_path / "cache")
    assert health["cache"]["entries"] == 1


def test_health_without_cache_reports_none():
    health = CheckService().handle({"op": "health"})["health"]
    assert health["cache"] is None
    assert health["telemetry_enabled"] is False


def test_stats_op_carries_histograms_and_uptime():
    """Satellite: {"op": "stats"} embeds latency histograms and daemon
    uptime over the stdio transport, not just via direct handle() calls."""
    responses = run_session(
        [
            json.dumps({"op": "check", "text": APPEND}) + "\n",
            json.dumps({"op": "stats"}) + "\n",
        ],
        "--stats",
    )
    stats_response = responses[1]
    assert stats_response["stats"]["uptime_s"] >= 0
    histograms = stats_response["telemetry"]["histograms"]
    assert histograms  # at least one latency distribution was recorded
    for summary in histograms.values():
        assert summary["count"] >= 1
        assert "p99_s" in summary


# -- the path→digest stat cache (hot-LRU staleness regression) ---------------


def test_edited_file_misses_hot_lru_and_gets_fresh_verdict(tmp_path):
    """The staleness regression: a `check` on a path whose bytes changed
    on disk must never replay the old verdict — verdict state is keyed
    by content digest, and the digest is re-derived once the stat
    signature moves."""
    service = CheckService()
    path = tmp_path / "m.tlp"
    path.write_text(APPEND)
    first = service.handle({"op": "check", "path": str(path)})
    assert first["source"] == "checked" and first["well_typed"]

    # Unchanged file: stat cache + hot LRU serve it without re-checking.
    warm = service.handle({"op": "check", "path": str(path)})
    assert warm["source"] == "hot" and warm["digest"] == first["digest"]

    # Rewrite the file with different (ill-typed) bytes.
    path.write_text(ILL_TYPED_EXAMPLES["query_two_contexts"])
    os.utime(path)  # fresh mtime_ns even on coarse filesystem clocks
    edited = service.handle({"op": "check", "path": str(path)})
    assert edited["digest"] != first["digest"]
    assert edited["source"] == "checked"
    assert edited["well_typed"] is False


def test_stat_cache_counts_and_invalidation(tmp_path):
    service = CheckService()
    path = tmp_path / "m.tlp"
    path.write_text(APPEND)
    service.handle({"op": "check", "path": str(path)})
    stats = service.handle({"op": "stats"})["stats"]
    assert stats["stat_entries"] == 1
    service.handle({"op": "invalidate"})
    stats = service.handle({"op": "stats"})["stats"]
    assert stats["stat_entries"] == 0


def test_same_content_under_two_paths_shares_hot_state(tmp_path):
    service = CheckService()
    first = tmp_path / "a.tlp"
    second = tmp_path / "b.tlp"
    first.write_text(APPEND)
    second.write_text(APPEND)
    cold = service.handle({"op": "check", "path": str(first)})
    warm = service.handle({"op": "check", "path": str(second)})
    assert cold["digest"] == warm["digest"]
    assert warm["source"] == "hot"  # digest-keyed, not path-keyed


# -- cancellation through the service --------------------------------------


def test_handle_reports_cancellation_as_structured_response():
    from repro.checker.cancel import CancelToken
    from repro.workloads.generators import synthetic_list_program

    service = CheckService()
    token = CancelToken()
    token.cancel()
    response = service.handle(
        {"op": "check", "text": synthetic_list_program(10)}, cancel=token
    )
    assert response["ok"] is False
    assert response["cancelled"] is True
    assert "checkpoint" in response["error"]
    assert service.cancellations == 1


# -- graceful drain ----------------------------------------------------------


def test_serve_drains_when_draining_flag_set():
    """A drain that starts while a stdio request is in flight answers it,
    then stops reading: a line written after the drain began is never
    answered."""
    read_fd, write_fd = os.pipe()
    out = io.BytesIO()

    async def session():
        server = AsyncCheckServer()
        server.start_stdio(read_fd, out)
        os.write(write_fd, (json.dumps({"op": "check", "text": APPEND}) + "\n").encode())
        for _ in range(3000):
            if server.service.requests:
                break
            await asyncio.sleep(0.01)
        await server.shutdown()  # sets the server's draining flag
        os.write(write_fd, (json.dumps({"op": "stats"}) + "\n").encode())
        await asyncio.sleep(0.05)

    try:
        asyncio.run(session())
    finally:
        os.close(write_fd)
        for thread in threading.enumerate():
            if thread.name == "tlp-aserve-stdin":
                thread.join(timeout=10)
                assert not thread.is_alive()
        os.close(read_fd)
    responses = [json.loads(line) for line in out.getvalue().splitlines()]
    # The in-flight request's response was written, then the loop stopped.
    assert len(responses) == 1
    assert responses[0]["op"] == "check" and responses[0]["ok"]


def test_daemon_sigterm_drains_and_persists_cache(tmp_path):
    """A real ``tlp-aserve --stdio`` process: SIGTERM → drain message,
    clean exit, persisted cache index."""
    import signal as signal_module
    import time as time_module

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    cache_dir = tmp_path / "cache"
    process = subprocess.Popen(
        [*STDIO_SERVER, "--cache-dir", str(cache_dir)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        process.stdin.write(json.dumps({"op": "check", "path": str(path)}) + "\n")
        process.stdin.flush()
        response = json.loads(process.stdout.readline())
        assert response["well_typed"] is True
        process.send_signal(signal_module.SIGTERM)
        for _ in range(100):
            if process.poll() is not None:
                break
            time_module.sleep(0.1)
        assert process.poll() == 0, "server did not exit cleanly on SIGTERM"
    finally:
        if process.poll() is None:
            process.kill()
        _, stderr = process.communicate(timeout=30)
    assert "draining" in stderr
    assert (cache_dir / "tlp-cache.json").exists()
