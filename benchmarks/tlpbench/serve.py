"""The serve-edit workload: ``tlp-aserve`` driven over TCP by an open loop.

One generator sends requests on a fixed schedule (request ``i`` is due at
``t0 + i / rate``) over two connections, whatever the server's state, and
times each request from its due time, so a stall also delays the requests
queued behind it.  The schedule runs at the calibration machine's speed
(see :func:`_session`).  The same schedule is served :data:`SESSIONS`
times, each by a fresh server, so every request's latency is a median, like
every other workload's op time.  The request mix is
:data:`corpus.SERVE_ORDER`:

* ``check``  — a freshly edited member text: a cache miss, so a full check,
  a cache put and a save of the whole cache file;
* ``lint``   — a freshly edited lint member text;
* ``hot``    — an unchanged open file by path: a hot-module hit;
* ``change`` — an edit written to a mounted workspace member, then
  ``didChange``: re-load the corpus and re-check the edited member.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from corpus import SERVE_ORDER, Member, ServeInputs
from harness import Speedometer, cpus, on_cpu, pin, scale_around

HERE = Path(__file__).resolve().parent

#: Request rate of the serve-edit session (requests/s at the calibration
#: machine's speed): at about 9 ms of server CPU per request of this mix on
#: the seed commit, the server is about 21-22% busy.  README.md records the
#: measurement and why half capacity was too noisy to gate on.
RATE = 24.0
#: Untimed warm-up requests at the start of each session: one period of
#: :data:`corpus.SERVE_ORDER`, so every kind of request has run once.
WARMUP = len(SERVE_ORDER)
#: Sessions per run, each on a fresh server (fresh caches, fresh workspace).
SESSIONS = 3
#: Reference timings before each server starts, which set its pace.
PRE_SAMPLES = 5
#: Per-request deadline, from the request's due time.
DEADLINE_S = 2.0
#: Stream limit for responses (lint findings of large texts are long lines).
STREAM_LIMIT = 16 * 1024 * 1024


@dataclass
class Request:
    """One sent request and what came back."""

    id: int
    kind: str
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict[str, Any]] = None


@dataclass
class Session:
    """One server's life: set-up, the schedule, drain."""

    setup_s: float
    #: the server's CPU time (s) from the first timed request's due time to
    #: the last response
    cpu_s: float
    rss_kb: int
    requests: List[Request]
    #: (monotonic time, reference-workload timing in ns) on the server's CPU;
    #: the first :data:`PRE_SAMPLES` are taken before the server starts
    refs: List[Tuple[float, int]]
    trace_file: Optional[Path] = None

    @property
    def pace(self) -> float:
        """The machine's speed before the session, for its schedule and
        set-up time."""
        return Speedometer.scale([ns for _, ns in self.refs[:PRE_SAMPLES]])

    def scale_for(self, request: Request) -> float:
        """Speed scale for one request, from its due time to its response."""
        return scale_around(self.refs, request.due, request.received)


@dataclass
class ServeResult:
    sessions: List[Session]
    warmup: int
    errors: List[str] = field(default_factory=list)


class _Connection:
    """One TCP connection with responses routed to futures by request id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            response = json.loads(line)
            future = self.pending.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result((time.monotonic(), response))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def send(self, request: Dict[str, Any]) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[request["id"]] = future
        self.writer.write((json.dumps(request) + "\n").encode("utf-8"))
        return future

    async def call(self, request: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        _, response = await asyncio.wait_for(self.send(request), timeout)
        return response

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(self.task, return_exceptions=True)


class ServerProcess:
    """``tlp-aserve --port 0`` (or its traced twin) as a child process."""

    def __init__(self, root: Path, work: Path, tag: str, trace_out: Optional[Path],
                 cpu: int) -> None:
        cache_dir = work / f"cache.{tag}"
        self.log_path = work / f"server.{tag}.log"
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.service.aserver.server"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out)]
        argv += ["--port", "0", "--cache-dir", str(cache_dir)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = time.monotonic()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                argv, cwd=str(root), env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        pin(self.proc.pid, cpu)
        self.usage: Optional[Any] = None

    async def port(self, timeout: float = 60.0) -> int:
        """The TCP port from the ready line on stderr."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self._exited():
            for line in self.log_path.read_text(encoding="utf-8").splitlines():
                if "listening" in line and "tcp=" in line:
                    return int(line.split("tcp=", 1)[1].split()[0].rsplit(":", 1)[1])
            await asyncio.sleep(0.01)
        self.reap(timeout=0.0)
        raise RuntimeError(f"server did not start: {self.log_path.read_text(encoding='utf-8')}")

    def _exited(self) -> bool:
        """Reap the process if it has exited, keeping its rusage."""
        if self.usage is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.usage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.usage is not None

    def reap(self, timeout: float) -> None:
        """Wait for exit (killing after ``timeout``) and keep its rusage."""
        deadline = time.monotonic() + timeout
        while not self._exited() and time.monotonic() < deadline:
            time.sleep(0.02)
        if not self._exited():
            self.proc.kill()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)

    def cpu_s(self) -> float:
        """CPU time (s) the running server has used so far (Linux ``/proc``)."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            # Fields after the parenthesised command name; utime and stime
            # are fields 14 and 15 of proc(5).
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def write_files(work: Path, inputs: ServeInputs) -> Tuple[Path, List[Path], List[Path]]:
    """The mounted workspace (manifest + shared prelude + members) and the
    open files, on disk under ``work``."""
    workspace = work / "workspace"
    (workspace / "members").mkdir(parents=True)
    (workspace / "tlp-project.json").write_text(
        json.dumps({"name": "serve", "include": ["members"], "shared": ["decls.tlp"]}),
        encoding="utf-8",
    )
    (workspace / "decls.tlp").write_text(inputs.prelude, encoding="utf-8")
    members = []
    for member in inputs.workspace:
        path = workspace / "members" / member.name
        path.write_text(member.text, encoding="utf-8")
        members.append(path)
    (work / "open").mkdir()
    opened = []
    for member in inputs.open_files:
        path = work / "open" / member.name
        path.write_text(member.text, encoding="utf-8")
        opened.append(path)
    return workspace, members, opened


async def _set_up(server: ServerProcess, workspace: Path, opened: List[Path],
                  inputs: ServeInputs) -> Tuple[List[_Connection], List[str]]:
    """Connect twice, mount the workspace, open every open file."""
    port = await server.port()
    connections = []
    for _ in range(2):
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=STREAM_LIMIT)
        connections.append(_Connection(reader, writer))
    errors = []
    mounted = await connections[0].call(
        {"id": -1, "op": "workspace", "root": str(workspace)}, timeout=60.0
    )
    if not (mounted.get("ok") and mounted.get("well_typed")):
        errors.append(f"workspace mount: {mounted}")
    for n, (path, member) in enumerate(zip(opened, inputs.open_files)):
        response = await connections[n % 2].call(
            {"id": -2 - n, "op": "check", "path": str(path)}, timeout=60.0
        )
        if not check_verdict(response, member):
            errors.append(f"open {member.name}: {response}")
    return connections, errors


def check_verdict(response: Dict[str, Any], member: Member) -> bool:
    return bool(
        response.get("ok")
        and response.get("well_typed") == member.ok
        and len(response.get("diagnostics", ())) == member.errors
    )


def judge(request: Request, inputs: ServeInputs, index: int) -> bool:
    """Whether a response carries the known answer."""
    response = request.response
    if response is None or not response.get("ok"):
        return False
    if request.kind == "check":
        return check_verdict(response, inputs.check_pool[index])
    if request.kind == "hot":
        return check_verdict(response, inputs.open_files[index])
    if request.kind == "lint":
        codes = Counter(finding["code"] for finding in response["findings"])
        return tuple(sorted(codes.items())) == inputs.lint_pool[index].expect
    return all(result["well_typed"] for result in response["results"].values())


def answer(request: Request) -> Any:
    """The part of a response the traced run must reproduce exactly."""
    response = request.response or {}
    if request.kind in ("check", "hot"):
        return [response.get("well_typed"), response.get("diagnostics")]
    if request.kind == "lint":
        return [[f["code"], f["severity"], f.get("line"), f["message"]]
                for f in response.get("findings", ())]
    # didChange re-checks whatever changed on disk by the time it runs, so
    # only the verdicts are deterministic.
    return [response.get("ok"), all(r["well_typed"] for r in response.get("results", {}).values())]


async def _session(server: ServerProcess, connections: List[_Connection], inputs: ServeInputs,
                   members: List[Path], opened: List[Path], rate: float, warmup: int,
                   pace: float, sample: Callable[[], None],
                   speed: Speedometer) -> Tuple[List[Request], float]:
    """Serve the schedule; return the requests and the server's CPU time
    over the timed ones.

    ``pace`` is the machine's speed against the calibration machine's, so
    the requests come ``pace`` times as often as :data:`RATE` says: the
    server is as busy as on the calibration machine, and queueing, which
    grows faster than linearly with load, does not turn the machine's speed
    swings into swings of the scaled latencies."""
    loop = asyncio.get_running_loop()
    rate *= pace
    start = loop.time() + 0.05
    requests = [
        Request(i, kind, start + i / rate) for i, (kind, _) in enumerate(inputs.schedule)
    ]
    in_flight = [0]
    cpu_at_start = [0.0]

    async def timed_window_opens() -> None:
        await asyncio.sleep(max(0.0, requests[warmup].due - loop.time()))
        cpu_at_start[0] = server.cpu_s()

    def quiet() -> bool:
        """Nothing in flight and no request due for 20 ms: the server is
        idle, so a reference timing on its CPU measures the CPU alone."""
        slack = (loop.time() - start) * rate % 1.0
        return in_flight[0] == 0 and (1.0 - slack) / rate > 0.02

    async def one(request: Request) -> None:
        await asyncio.sleep(max(0.0, request.due - loop.time()))
        kind, index = inputs.schedule[request.id]
        edit = f"% edit {request.id}\n"
        if kind == "check":
            payload = {"op": "check", "text": inputs.check_pool[index].text + edit}
        elif kind == "lint":
            payload = {"op": "lint", "text": inputs.lint_pool[index].text + edit}
        elif kind == "hot":
            payload = {"op": "check", "path": str(opened[index])}
        else:
            path = members[index]
            path.write_text(inputs.workspace[index].text + edit, encoding="utf-8")
            payload = {"op": "didChange", "path": str(path)}
        payload["id"] = request.id
        request.sent = loop.time()
        in_flight[0] += 1
        future = connections[request.id % 2].send(payload)
        try:
            request.received, request.response = await asyncio.wait_for(
                asyncio.shield(future), request.due + DEADLINE_S + 30.0 - loop.time()
            )
        except (asyncio.TimeoutError, ConnectionError):
            pass
        in_flight[0] -= 1
        if speed.due() and quiet():
            sample()

    window = asyncio.ensure_future(timed_window_opens())
    await asyncio.gather(*(one(request) for request in requests))
    await window
    return requests, server.cpu_s() - cpu_at_start[0]


def run(root: Path, work: Path, inputs: ServeInputs, rate: float, warmup: int,
        traced: bool) -> ServeResult:
    """:data:`SESSIONS` servers that each serve the whole schedule.  Every
    server started is reaped before this returns, killed if it does not
    drain.

    The servers run on one CPU and the generator on another; the reference
    workload is timed on the servers' CPU while no server is busy."""
    server_cpu, generator_cpu = cpus()
    speed = Speedometer(every_s=0.05)
    servers: List[ServerProcess] = []
    errors: List[str] = []

    async def one_server(k: int) -> Session:
        home = work / f"server.{k}"
        home.mkdir()
        workspace, members, opened = write_files(home, inputs)
        session = Session(0.0, 0.0, 0, [], [], home / "trace.json" if traced else None)

        def sample() -> None:
            with on_cpu(server_cpu):
                started = time.monotonic()
                session.refs.append((started, speed.sample()))

        for _ in range(PRE_SAMPLES):
            sample()
        server = ServerProcess(root, home, str(k), session.trace_file, server_cpu)
        servers.append(server)
        connections, problems = await _set_up(server, workspace, opened, inputs)
        session.setup_s = time.monotonic() - server.started
        errors.extend(problems)
        session.requests, session.cpu_s = await _session(
            server, connections, inputs, members, opened, rate, warmup, session.pace,
            sample, speed,
        )
        await _drain(server, connections, errors)
        session.rss_kb = server.usage.ru_maxrss
        return session

    async def main() -> ServeResult:
        sessions = [await one_server(k) for k in range(SESSIONS)]
        return ServeResult(sessions, warmup, errors)

    try:
        with on_cpu(generator_cpu):
            return asyncio.run(main())
    finally:
        for server in servers:
            server.reap(timeout=0.0)


async def _drain(server: ServerProcess, connections: List[_Connection], errors: List[str]) -> None:
    """Ask the server to drain and exit, then reap it."""
    try:
        await connections[0].call({"id": -100, "op": "shutdown"}, timeout=10.0)
    except (asyncio.TimeoutError, ConnectionError) as error:
        errors.append(f"shutdown: {error!r}")
    for connection in connections:
        await connection.close()
    server.reap(timeout=10.0)


def latency_ms(request: Request) -> float:
    """Due time to response (ms); an unanswered request counts as late as
    the end of its wait."""
    if request.response is None:
        return (DEADLINE_S + 30.0) * 1000.0
    return (request.received - request.due) * 1000.0


def requests_per_cpu_s(result: ServeResult) -> float:
    """Timed requests per CPU-second the server spent on them, at the
    calibration machine's speed; the median over sessions."""
    rates = []
    for session in result.sessions:
        timed = session.requests[result.warmup:]
        scale = scale_around(session.refs, timed[0].due, max(req.received for req in timed))
        rates.append(len(timed) / (session.cpu_s * scale))
    return statistics.median(rates)
