"""``tlp-aserve`` — the check server.

One :class:`~repro.service.daemon.CheckService` brain behind every
transport: TCP and unix sockets (many clients) and ``--stdio`` (one
client on stdin/stdout, the zero-setup pipe).  Each connection — the
stdio one included — is served by the same reader, bounded queue,
worker, cancel and drain code:

* **request-level concurrency** — every client gets a bounded queue
  (backpressure: a flooding client suspends its own reads, never other
  clients) and a worker coroutine; the CPU-bound checks run on a shared
  thread-pool executor while the event loop keeps serving everyone else;
* **in-order replies** — a client's responses come back in the order of
  its requests (malformed lines included); only ``cancel`` acks are
  answered out of band;
* **cancellation** — a ``{"op": "cancel", "target": <id>}`` is handled
  by the reader (it never queues behind the work it is cancelling) and
  flips the target request's :class:`~repro.checker.cancel.CancelToken`;
  an in-flight check stops at its next clause-boundary checkpoint and
  the worker is freed;
* **workspace ops** — ``workspace`` opens a corpus, ``didChange``
  re-checks exactly the dependency closure of what changed (see
  :mod:`repro.service.aserver.workspace`), ``closure`` predicts it;
* **graceful drain** — ``{"op": "shutdown"}`` (the client's reader stops
  at that line; later lines are not answered), SIGTERM/SIGINT, or the
  end of stdin under ``--stdio`` stops accepting, finishes every queued
  and in-flight request, writes the responses, persists the cache, and
  closes trace sinks.  A socket client that hangs up instead has its
  queued work cancelled.

Protocol: line-delimited JSON.  One request object per line, one
response object per line; blank lines are skipped.  Requests::

    {"op": "check", "path": "examples/programs/append.tlp"}
    {"op": "check", "text": "FUNC nil. ..."}
    {"op": "lint", "path": "examples/programs/append.tlp"}
    {"op": "lint", "text": "FUNC nil. ...", "disable": "TLP203"}
    {"op": "infer", "path": "examples/programs/append.tlp"}
    {"op": "solve", "path": "examples/corpus/lint/polytypes.tlp"}
    {"op": "stats"}
    {"op": "metrics"}                     # Prometheus text exposition
    {"op": "health"}                      # uptime, LRU occupancy, caches
    {"op": "invalidate"}                  # drop all hot/cached state
    {"op": "invalidate", "path": "..."}   # drop one file's state
    {"id": 1, "op": "check", "path": "m.tlp"}     → response echoes "id": 1
    {"id": 2, "op": "cancel", "target": 1}        → cancels request 1
    {"id": 3, "op": "workspace", "root": "corpus"}
    {"id": 4, "op": "didChange", "path": "corpus/m.tlp"}
    {"id": 5, "op": "closure", "path": "corpus/decls.tlp"}
    {"op": "shutdown"}                            → drain + exit

Responses always carry ``"ok"`` (protocol-level success — an ill-typed
file is still ``"ok": true``), echo ``"op"``, and echo ``"id"`` when the
request had one.  A ``check`` response reports ``"well_typed"``,
``"diagnostics"``, clause/query counts, and ``"source"``: ``"hot"``
(module LRU), ``"cache"`` (persistent store), or ``"checked"`` (full
Definition 16 run).  A ``lint`` response carries the static analyzer's
findings as structured objects (``code``, ``severity``, ``message``,
position fields, fix-it descriptions) plus error/warning counts and the
rule-set ``fingerprint``.  An ``infer`` response carries the success-set
analysis: ``"declarations"`` (reconstructed ``PRED`` lines for
undeclared predicates, checker-validated where possible) and
``"success_sets"`` (the rendered per-predicate inferred types).  A
``solve`` response carries the polymorphic subtype-constraint solver's
view of the file: the candidate ground-type lattice and, per clause or
query that involves a polymorphic declaration or a built-in constraint
predicate, the solved type-variable domains, forced equalities, and
unsatisfiability witnesses.  ``stats`` and ``health`` responses also
carry an ``"aserver"`` block (clients, queue depth, in-flight
requests).  Malformed lines get an ``{"ok": false, "error": ...}``
response rather than ending the session.

Telemetry: with ``--stats`` every request lands in the
``service.aserver.request`` latency histogram and a per-client
``service.aserver.client.c<N>.request`` histogram, with
``service.aserver.requests`` / ``.op.<op>`` / ``.cancelled`` counters
and ``aserver.clients`` / ``aserver.inflight`` gauges on the Prometheus
exposition.  ``--metrics-port`` serves the same exposition over HTTP.

A worked session lives in ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import itertools
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Set, Tuple

from ... import obs
from ...checker.cancel import CancelToken
from ...obs import METRICS
from ..daemon import CheckService
from .protocol import decode_line, encode_line
from .workspace import StatWatcher, Workspace

__all__ = ["AsyncCheckServer", "DEFAULT_MAX_QUEUE", "start_metrics_server", "main"]

#: Requests a single client may have queued before its socket reads are
#: suspended (the backpressure bound).
DEFAULT_MAX_QUEUE = 16

#: Per-connection stream buffer limit.  A whole request line must fit
#: (inline ``text`` payloads included), so this is far above asyncio's
#: 64 KiB default.
STREAM_LIMIT = 16 * 1024 * 1024

#: Ops the server answers itself (workspace layer, augmented telemetry)
#: rather than delegating verbatim to the wrapped CheckService.
_LOCAL_OPS = {"workspace", "didChange", "closure", "metrics", "stats", "health"}


class _StdinReader:
    """``readline()`` over a blocking file descriptor.

    asyncio's pipe transports refuse a regular file or ``/dev/null`` on
    stdin, so a daemon thread does plain blocking reads — the same code
    for a pipe, a file and ``/dev/null`` — and hands the loop one line
    at a time (it waits until the line is taken: backpressure).  The
    thread reads through its own buffer, never ``sys.stdin``, so the
    interpreter can close ``sys.stdin`` at exit while the thread is
    blocked.  End of input reads as ``b""``, like a stream reader at EOF.
    """

    def __init__(self, fd: int) -> None:
        self._loop = asyncio.get_running_loop()
        self._lines: "asyncio.Queue[bytes]" = asyncio.Queue()
        self._taken = threading.Semaphore(1)
        threading.Thread(
            target=self._pump, args=(fd,), name="tlp-aserve-stdin", daemon=True
        ).start()

    def _pump(self, fd: int) -> None:
        stream = io.BufferedReader(io.FileIO(fd, "rb", closefd=False))
        for line in itertools.chain(stream, [b""]):
            # Wait until the previous line is taken; stop once the loop
            # is gone (nobody will take it).
            while not self._taken.acquire(timeout=0.5):
                if self._loop.is_closed():
                    return
            try:
                self._loop.call_soon_threadsafe(self._lines.put_nowait, line)
            except RuntimeError:
                return  # the loop has shut down: nobody is reading any more

    async def readline(self) -> bytes:
        line = await self._lines.get()
        self._taken.release()
        return line


class _StdoutWriter:
    """The part of ``asyncio.StreamWriter`` a client uses, over a
    blocking binary stream (a pipe, a regular file or ``/dev/null``).

    Writes block the loop only while the reader of a pipe stops reading;
    that reader is the stdio client itself, whose replies are all that
    would be waiting."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream

    def write(self, data: bytes) -> None:
        self._stream.write(data)

    async def drain(self) -> None:
        self._stream.flush()

    def close(self) -> None:
        self._stream.flush()  # stdout stays open for the process

    async def wait_closed(self) -> None:
        pass


class _Client:
    """One connection: reader task, bounded queue, worker task."""

    def __init__(
        self,
        server: "AsyncCheckServer",
        reader: Any,
        writer: Any,
        index: int,
        drain_at_eof: bool = False,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.index = index
        #: Queued (request, token) pairs; a ``None`` token marks a ready
        #: error reply, queued so it keeps its place in the reply order.
        self.queue: "asyncio.Queue[Tuple[Any, Optional[CancelToken]]]" = (
            asyncio.Queue(maxsize=server.max_queue)
        )
        #: Whether queued work completes when the reader stops: after a
        #: ``shutdown`` line always, at end of input only for stdio (a
        #: socket client that hangs up has its work cancelled).
        self.drain_when_done = drain_at_eof
        #: request id → token, registered at *enqueue* time so a cancel
        #: can hit a request that has not started yet.
        self.inflight: Dict[Any, CancelToken] = {}
        self._send_lock = asyncio.Lock()
        self.handler_task: Optional["asyncio.Task[None]"] = None
        self.reader_task: Optional["asyncio.Task[None]"] = None
        self.worker_task: Optional["asyncio.Task[None]"] = None
        self.finished = False

    async def send(self, response: Dict[str, Any]) -> None:
        async with self._send_lock:
            self.writer.write(encode_line(response))
            await self.writer.drain()

    # -- reading -------------------------------------------------------------

    async def read_loop(self) -> None:
        while True:
            try:
                line = await self.reader.readline()
            except ValueError:
                # A request line beyond STREAM_LIMIT: unrecoverable on a
                # line protocol (we lost framing) — report and hang up.
                with contextlib.suppress(ConnectionError, OSError):
                    await self.send(
                        {"ok": False, "op": None, "error": "request line too long"}
                    )
                return
            if not line:
                return  # EOF: client went away
            line = line.strip()
            if not line:
                continue
            try:
                request = decode_line(line)
            except json.JSONDecodeError as error:
                await self._queue_error(f"malformed JSON: {error}")
                continue
            if not isinstance(request, dict):
                await self._queue_error("request must be a JSON object")
                continue
            if request.get("op") == "cancel":
                # Out of band: must never queue behind the request it
                # is cancelling.
                await self._op_cancel(request)
                continue
            token = CancelToken()
            request_id = request.get("id")
            if request_id is not None:
                self.inflight[request_id] = token
            # Bounded: a client flooding its queue suspends ITS reads
            # here (TCP backpressure) without touching other clients.
            await self.queue.put((request, token))
            if request.get("op") == "shutdown":
                self.drain_when_done = True
                return  # lines after a shutdown are not answered

    async def _queue_error(self, message: str) -> None:
        """Queue an error reply, so it keeps its place in the reply order."""
        await self.queue.put(({"ok": False, "op": None, "error": message}, None))

    async def _op_cancel(self, request: Dict[str, Any]) -> None:
        target = request.get("target")
        token = self.inflight.get(target)
        if token is not None:
            token.cancel()
            if METRICS.enabled:
                METRICS.inc("service.aserver.cancel_requests")
        response: Dict[str, Any] = {
            "ok": True,
            "op": "cancel",
            "target": target,
            "found": token is not None,
        }
        if request.get("id") is not None:
            response["id"] = request["id"]
        await self.send(response)

    # -- working -------------------------------------------------------------

    async def work(self) -> None:
        while True:
            request, token = await self.queue.get()
            try:
                if token is None:
                    with contextlib.suppress(ConnectionError, OSError):
                        await self.send(request)
                else:
                    await self._process(request, token)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # a bug must not kill the worker
                with contextlib.suppress(Exception):
                    await self.send(
                        {
                            "ok": False,
                            "op": request.get("op"),
                            "id": request.get("id"),
                            "error": f"internal error: {error}",
                        }
                    )
            finally:
                self.queue.task_done()

    async def _process(self, request: Dict[str, Any], token: CancelToken) -> None:
        op = request.get("op")
        request_id = request.get("id")
        started = time.perf_counter()
        if op == "shutdown":
            response: Dict[str, Any] = {"ok": True, "op": "shutdown", "bye": True}
            if request_id is not None:
                response["id"] = request_id
            self.inflight.pop(request_id, None)
            await self.send(response)
            self.server.request_shutdown()
            return
        if token.cancelled:
            response = {
                "ok": False,
                "op": op,
                "cancelled": True,
                "error": "request cancelled before it started",
            }
        else:
            loop = asyncio.get_running_loop()
            if op in _LOCAL_OPS:
                response = await loop.run_in_executor(
                    self.server.executor, self.server.handle_local, request
                )
            else:
                response = await loop.run_in_executor(
                    self.server.executor,
                    self.server.service.handle,
                    request,
                    token,
                )
        if request_id is not None:
            response.setdefault("id", request_id)
            self.inflight.pop(request_id, None)
        self.server.observe_request(op, started, self, response)
        with contextlib.suppress(ConnectionError, OSError):
            await self.send(response)

    # -- teardown ------------------------------------------------------------

    async def finish(self, draining: bool) -> None:
        """Tear the connection down; with ``draining`` the queued and
        in-flight requests complete (and their responses flush) first."""
        if self.finished:
            return
        self.finished = True
        if self.reader_task is not None:
            self.reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self.reader_task
        if draining:
            await self.queue.join()
        else:
            for token in list(self.inflight.values()):
                token.cancel()  # free executor threads promptly
        if self.worker_task is not None:
            self.worker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self.worker_task
        with contextlib.suppress(ConnectionError, OSError):
            self.writer.close()
            await self.writer.wait_closed()
        self.server._clients.discard(self)


class AsyncCheckServer:
    """The asyncio front door around one :class:`CheckService`."""

    def __init__(
        self,
        service: Optional[CheckService] = None,
        cache_dir: Optional[str] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        workers: Optional[int] = None,
    ) -> None:
        self.service = service or CheckService(cache_dir=cache_dir)
        self.cache_dir = cache_dir
        self.max_queue = max(1, max_queue)
        self.executor = ThreadPoolExecutor(
            max_workers=workers or min(32, (os.cpu_count() or 4) + 4),
            thread_name_prefix="tlp-aserve",
        )
        self.workspace: Optional[Workspace] = None
        self.watcher: Optional[StatWatcher] = None
        self._watcher_task: Optional["asyncio.Task[None]"] = None
        self._stdio_task: Optional["asyncio.Task[None]"] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._clients: Set[_Client] = set()
        self._client_counter = 0
        self._draining = False
        self._closed: Optional[asyncio.Event] = None
        self.started_at = time.time()

    # -- transports ----------------------------------------------------------

    def _ensure_event(self) -> asyncio.Event:
        # Created lazily inside the running loop (3.9 compatibility).
        if self._closed is None:
            self._closed = asyncio.Event()
        return self._closed

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Listen on TCP; returns the bound (host, port) — port 0 binds
        an ephemeral port (tests, CI)."""
        self._ensure_event()
        server = await asyncio.start_server(
            self._handle_client, host, port, limit=STREAM_LIMIT
        )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: str) -> str:
        self._ensure_event()
        server = await asyncio.start_unix_server(
            self._handle_client, path, limit=STREAM_LIMIT
        )
        self._servers.append(server)
        return path

    def start_stdio(
        self, stdin_fd: int = 0, stdout: Optional[BinaryIO] = None
    ) -> None:
        """Serve one client on stdin/stdout (a pipe, a regular file or
        ``/dev/null`` each).  The end of stdin drains that client's
        queued requests and then shuts the whole server down."""
        self._ensure_event()
        reader = _StdinReader(stdin_fd)
        writer = _StdoutWriter(stdout or sys.stdout.buffer)

        async def session() -> None:
            await self._serve_client(reader, writer, drain_at_eof=True)
            self.request_shutdown()

        self._stdio_task = asyncio.get_running_loop().create_task(session())

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        await self._serve_client(reader, writer)

    async def _serve_client(
        self, reader: Any, writer: Any, drain_at_eof: bool = False
    ) -> None:
        self._client_counter += 1
        client = _Client(self, reader, writer, self._client_counter, drain_at_eof)
        self._clients.add(client)
        if METRICS.enabled:
            METRICS.gauge("aserver.clients", len(self._clients))
            METRICS.inc("service.aserver.connections")
        client.handler_task = asyncio.current_task()
        client.reader_task = asyncio.create_task(client.read_loop())
        client.worker_task = asyncio.create_task(client.work())
        try:
            # The handler lives until the client hangs up (reader done)
            # or the worker dies; drain cancels the reader task.
            await asyncio.wait(
                {client.reader_task, client.worker_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            await client.finish(draining=self._draining or client.drain_when_done)
            if METRICS.enabled:
                METRICS.gauge("aserver.clients", len(self._clients))

    # -- workspace & augmented ops (run on executor threads) -----------------

    def open_workspace(
        self,
        paths: Sequence[str],
        manifest: Optional[str] = None,
        jobs: int = 1,
    ) -> Workspace:
        """Mount a corpus; its verdict cache lives beside the server's
        (``<cache-dir>/workspace``) or in a private temp directory."""
        workspace_cache = (
            str(Path(self.cache_dir) / "workspace") if self.cache_dir else None
        )
        workspace = Workspace(
            paths, manifest=manifest, cache_dir=workspace_cache, jobs=jobs
        )
        previous, self.workspace = self.workspace, workspace
        if previous is not None:
            previous.close()
        return workspace

    def handle_local(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The aserver-specific ops + telemetry-augmented passthroughs."""
        op = request.get("op")
        try:
            if op == "workspace":
                return self._op_workspace(request)
            if op == "didChange":
                return self._op_did_change(request)
            if op == "closure":
                return self._op_closure(request)
            if op == "metrics":
                body = obs.prometheus_text(
                    extra_gauges={
                        **self.service._runtime_gauges(),
                        **self._runtime_gauges(),
                    }
                )
                return {
                    "ok": True,
                    "op": "metrics",
                    "content_type": obs.PROMETHEUS_CONTENT_TYPE,
                    "body": body,
                }
            response = self.service.handle(request)
            if op in ("stats", "health") and response.get("ok"):
                response["aserver"] = self.stats()
            return response
        except Exception as error:  # never kill a worker
            return {"ok": False, "op": op, "error": f"internal error: {error}"}

    def _op_workspace(self, request: Dict[str, Any]) -> Dict[str, Any]:
        root = request.get("root")
        if not isinstance(root, str):
            return {"ok": False, "op": "workspace", "error": "workspace needs 'root'"}
        manifest = request.get("manifest")
        workspace = self.open_workspace(
            [root], manifest=manifest if isinstance(manifest, str) else None
        )
        report = workspace.check_all()
        return {
            "ok": True,
            "op": "workspace",
            "root": root,
            "files": len(workspace.project.files),
            "shared": [entry.display for entry in workspace.project.shared],
            "well_typed": report.ok,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "wall_s": report.wall_s,
        }

    def _op_did_change(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.workspace is None:
            return {
                "ok": False,
                "op": "didChange",
                "error": "no workspace: send {'op': 'workspace', 'root': ...} first",
            }
        raw = request.get("paths", request.get("path"))
        paths: Optional[List[str]]
        if raw is None:
            paths = None
        elif isinstance(raw, str):
            paths = [raw]
        elif isinstance(raw, list) and all(isinstance(p, str) for p in raw):
            paths = raw
        else:
            return {"ok": False, "op": "didChange", "error": "bad 'path'/'paths'"}
        report = self.workspace.on_change(paths)
        verdicts = {
            display: {
                "well_typed": result.ok,
                "diagnostics": list(result.diagnostics),
            }
            for display, result in self.workspace.results.items()
            if display in set(report.closure)
        }
        response = {"ok": True, "op": "didChange", "results": verdicts}
        response.update(report.to_json())
        return response

    def _op_closure(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.workspace is None:
            return {"ok": False, "op": "closure", "error": "no workspace"}
        path = request.get("path")
        if not isinstance(path, str):
            return {"ok": False, "op": "closure", "error": "closure needs 'path'"}
        return {
            "ok": True,
            "op": "closure",
            "path": path,
            "closure": self.workspace.closure_of(path),
        }

    # -- observability -------------------------------------------------------

    def observe_request(
        self,
        op: Any,
        started: float,
        client: _Client,
        response: Dict[str, Any],
    ) -> None:
        if not METRICS.enabled:
            return
        duration = time.perf_counter() - started
        METRICS.inc("service.aserver.requests")
        METRICS.inc(f"service.aserver.op.{op}")
        METRICS.observe("service.aserver.request", duration)
        METRICS.observe(
            f"service.aserver.client.c{client.index}.request", duration
        )
        if response.get("cancelled"):
            METRICS.inc("service.aserver.cancelled")

    def _runtime_gauges(self) -> Dict[str, float]:
        return {
            "aserver.clients": float(len(self._clients)),
            "aserver.queue_depth": float(
                sum(client.queue.qsize() for client in self._clients)
            ),
            "aserver.inflight": float(
                sum(len(client.inflight) for client in self._clients)
            ),
            "aserver.draining": 1.0 if self._draining else 0.0,
            "aserver.uptime_seconds": time.time() - self.started_at,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "clients": len(self._clients),
            "queue_depth": sum(c.queue.qsize() for c in self._clients),
            "inflight": sum(len(c.inflight) for c in self._clients),
            "max_queue": self.max_queue,
            "draining": self._draining,
            "workspace_files": (
                len(self.workspace.project.files) if self.workspace else 0
            ),
            "cancellations": self.service.cancellations,
        }

    # -- watching ------------------------------------------------------------

    def start_watcher(self, interval_s: float = 0.5) -> StatWatcher:
        """Poll the mounted workspace for on-disk changes (async task)."""
        if self.workspace is None:
            raise RuntimeError("start_watcher needs an open workspace")
        self.watcher = StatWatcher(self.workspace, interval_s=interval_s)
        self._watcher_task = asyncio.get_event_loop().create_task(
            self.watcher.run()
        )
        return self.watcher

    # -- shutdown ------------------------------------------------------------

    def request_shutdown(self) -> None:
        """Schedule a graceful drain from inside the loop (shutdown op)."""
        asyncio.get_event_loop().create_task(self.shutdown())

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, drain every client, persist state, close."""
        closed = self._ensure_event()
        if self._draining:
            await closed.wait()
            return
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._watcher_task is not None:
            self._watcher_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watcher_task
        for client in list(self._clients):
            await client.finish(draining=drain)
        handler_tasks = [
            client.handler_task
            for client in list(self._clients)
            if client.handler_task is not None
        ]
        if handler_tasks:
            await asyncio.gather(*handler_tasks, return_exceptions=True)
        self.executor.shutdown(wait=True)
        if self.workspace is not None:
            self.workspace.close()
        self.service.close()
        closed.set()

    async def wait_closed(self) -> None:
        await self._ensure_event().wait()


def start_metrics_server(service: CheckService, port: int):
    """Serve ``GET /metrics`` (Prometheus) and ``GET /health`` (JSON).

    A stdlib ``ThreadingHTTPServer`` on ``127.0.0.1`` running in a
    daemon thread, beside the event loop.  Handlers only *read* service
    state (the registry locks internally; the LRU/caches are scanned
    without mutation), so no coordination with the request workers is
    needed.  ``port=0`` binds an ephemeral port (tests); the bound port
    is on ``server_address``.  Returns the server — call ``shutdown()``
    then ``server_close()``.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            route = self.path.split("?", 1)[0].rstrip("/") or "/"
            if route == "/metrics":
                body = obs.prometheus_text(
                    extra_gauges=service._runtime_gauges()
                ).encode("utf-8")
                content_type = obs.PROMETHEUS_CONTENT_TYPE
            elif route == "/health":
                body = (
                    json.dumps(service._op_health()["health"]) + "\n"
                ).encode("utf-8")
                content_type = "application/json; charset=utf-8"
            else:
                self.send_error(404, "try /metrics or /health")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args: Any) -> None:
            pass  # scrape chatter must not pollute the protocol streams

    server = ThreadingHTTPServer(("127.0.0.1", port), _MetricsHandler)
    thread = threading.Thread(
        target=server.serve_forever, name="tlp-metrics", daemon=True
    )
    thread.start()
    return server


# -- CLI ---------------------------------------------------------------------


async def _amain(arguments: argparse.Namespace) -> int:
    server = AsyncCheckServer(
        cache_dir=arguments.cache_dir,
        max_queue=arguments.max_queue,
        workers=arguments.workers,
    )
    endpoints: List[str] = []
    if arguments.unix:
        await server.start_unix(arguments.unix)
        endpoints.append(f"unix={arguments.unix}")
    if arguments.port is not None or not (arguments.unix or arguments.stdio):
        host, port = await server.start_tcp(
            arguments.host, arguments.port if arguments.port is not None else 0
        )
        endpoints.append(f"tcp={host}:{port}")
    if arguments.watch:
        server.open_workspace([arguments.watch])
        report = server.workspace.check_all()  # type: ignore[union-attr]
        endpoints.append(
            f"watch={arguments.watch} ({len(report.results)} files)"
        )
        server.start_watcher(arguments.poll_interval)
    metrics_server = None
    if arguments.metrics_port is not None:
        metrics_server = start_metrics_server(
            server.service, arguments.metrics_port
        )
        endpoints.append(
            f"metrics=http://127.0.0.1:{metrics_server.server_address[1]}"
        )
    if arguments.stdio:
        server.start_stdio()
        endpoints.append("stdio")
    print(
        f"tlp-aserve: ready, listening {' '.join(endpoints)} "
        f"(cache: {arguments.cache_dir or 'off'}, pid {os.getpid()})",
        file=sys.stderr,
        flush=True,
    )

    def on_signal(name: str) -> None:
        print(f"tlp-aserve: {name} — draining", file=sys.stderr, flush=True)
        asyncio.ensure_future(server.shutdown())

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, on_signal, signum.name)
    try:
        await server.wait_closed()
    finally:
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (installed as the ``tlp-aserve`` console script)."""
    parser = argparse.ArgumentParser(
        prog="tlp-aserve",
        description=(
            "Type-checking server: line-JSON over stdio or TCP/unix "
            "sockets with request ids, cancellation, workspace closure "
            "re-checking, and graceful drain."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "TCP port (0 = ephemeral; default: ephemeral unless --unix "
            "or --stdio is given)"
        ),
    )
    parser.add_argument(
        "--unix", default=None, metavar="PATH", help="also listen on a unix socket"
    )
    parser.add_argument(
        "--stdio",
        action="store_true",
        help=(
            "serve one client on stdin/stdout (replies only on stdout); "
            "the end of stdin drains and exits"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="share a persistent result cache with tlp-batch",
    )
    parser.add_argument(
        "--stats", action="store_true", help="collect telemetry for stats/metrics ops"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="checker thread-pool size (default: min(32, cores+4))",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help=f"per-client queued-request bound (default {DEFAULT_MAX_QUEUE})",
    )
    parser.add_argument(
        "--watch",
        default=None,
        metavar="DIR",
        help="mount DIR as a workspace and re-check dependency closures on change",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="file-watch stat-poll interval in seconds (default 0.5)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics and /health on 127.0.0.1:PORT (0 = ephemeral)",
    )
    arguments = parser.parse_args(argv)

    was_enabled = METRICS.enabled
    if arguments.stats:
        obs.reset()
        METRICS.enabled = True
    try:
        return asyncio.run(_amain(arguments))
    except KeyboardInterrupt:
        return 0
    finally:
        METRICS.enabled = was_enabled


if __name__ == "__main__":
    sys.exit(main())
