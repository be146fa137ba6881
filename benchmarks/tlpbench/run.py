"""tlpbench — one seeded end-to-end benchmark of check, lint, serve and typed-run.

Usage, from the repository root::

    python3 benchmarks/tlpbench/run.py [--workload W] [--seed N] [--seconds S]
                                       [--trace [0|1]] [--smoke]

Without ``--workload`` all four workloads run in turn.  Each generates its
inputs from the seed (``corpus.py``), drives the public entry points users
hit (``run_batch``, ``lint_text``, ``tlp-aserve`` over TCP, ``TypedRunner``),
checks every answer against the answer known from construction, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` (the default) the metrics are the end-to-end ones of
``BENCHMARK.json``.  ``--trace 1`` runs the workload once untraced and once
with the layer wrappers of ``spans.py``, requires identical outputs, and
reports the per-layer metrics instead; the spans go to
``.tlpbench/trace.<workload>.json``.  ``--seconds`` is the measured time a
benchmark runner asks of one workload (``run_seconds`` in ``BENCHMARK.json``);
the sizes are calibrated for :data:`REFERENCE_SECONDS` and scale with it.
``--smoke`` shrinks every size for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".tlpbench"

WORKLOADS = ("check-cold", "lint-corpus", "serve-edit", "typed-run")
#: The seed runs are compared at, and a hold-out seed for checking a claim.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
#: Per-op deadline: an op still running after this is killed and failed.
DEADLINE_S = 2.0
#: Seconds the workloads' sizes are calibrated for.
REFERENCE_SECONDS = 15

#: Each workload's own names for ``work_per_s`` (with its unit) and the
#: ``op_ms`` percentiles.
NAMES = {
    "check-cold": ("check.items_per_s", "items/s", "check.file_ms"),
    "lint-corpus": ("lint.files_per_s", "files/s", "lint.file_ms"),
    "serve-edit": ("serve.requests_per_cpu_s", "req/cpu-s", "serve.latency_ms"),
    "typed-run": ("run.resolvents_per_s", "resolvents/s", "run.query_ms"),
}


def _bootstrap() -> None:
    """Import the benchmark's modules and ``repro`` from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"tlpbench: no repro sources under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


_bootstrap()

import corpus  # noqa: E402
import harness  # noqa: E402
import serve  # noqa: E402
import spans  # noqa: E402
from harness import Row  # noqa: E402
from repro.workloads import SOURCES  # noqa: E402


@dataclass(frozen=True)
class Plan:
    """Sizes for one run, scaled to ``--seconds``."""

    check_members: int
    lint_members: int
    typed_scale: float
    serve_cycles: int  # timed request cycles per session
    rounds: int  # fresh workers, each running every op once (timed)

    @classmethod
    def for_run(cls, seconds: int, smoke: bool) -> "Plan":
        if smoke:
            return cls(6, 5, 0.05, 1, 2)
        f = seconds / REFERENCE_SECONDS
        return cls(
            check_members=max(8, round(42 * f)),
            lint_members=max(5, round(42 * f)),
            typed_scale=0.525 * f,
            serve_cycles=max(1, round(2 * f)),
            rounds=5,
        )


@dataclass
class Inputs:
    """One workload's generated inputs and their known answers."""

    workload: str
    doc: Any  # what the workers read, or the ServeInputs
    expected: List[Any]  # known answer per op of a round
    judges: List[str]
    digest: str
    gen_s: float

    def judge(self, i: int, out: Any) -> bool:
        expected = self.expected[i % len(self.expected)]
        kind = self.judges[i % len(self.judges)]
        if kind == "codes":
            counts = Counter(code for code, _, _ in out)
            return tuple(sorted(counts.items())) == expected
        if kind == "findings":
            return tuple(sorted((code, line) for code, _, line in out)) == expected
        if kind == "no-errors":
            return all(severity != "error" for _, severity, _ in out)
        return out == expected


def build_inputs(workload: str, seed: int, plan: Plan) -> Inputs:
    """The workload's inputs; their generation time, at calibration speed,
    is part of ``setup_s``."""
    started = time.monotonic()
    if workload == "check-cold":
        projects = corpus.check_projects(seed, plan.check_members)
        doc: Any = {
            "projects": [
                {"name": p.name, "prelude": p.prelude,
                 "members": [{"name": m.name, "text": m.text} for m in p.members]}
                for p in projects
            ]
        }
        expected = [[m.ok, m.errors, m.items] for p in projects for m in p.members]
        judges = ["exact"] * len(expected)
    elif workload == "lint-corpus":
        cases = (corpus.lint_cases(seed, plan.lint_members, ROOT)
                 + corpus.canonical_lint_cases(SOURCES))
        doc = {"cases": [{"name": c.name, "text": c.text} for c in cases]}
        expected = [c.expect for c in cases]
        judges = [c.judge for c in cases]
    elif workload == "typed-run":
        queries = corpus.typed_queries(seed, plan.typed_scale)
        doc = {"modules": corpus.typed_modules(SOURCES, ROOT),
               "queries": [asdict(q) for q in queries]}
        expected = [[list(q.answers), q.abort_step] for q in queries]
        judges = ["exact"] * len(expected)
    else:
        doc = corpus.serve_inputs(seed, plan.serve_cycles, serve.WARMUP)
        expected, judges = [], []
    gen_s = time.monotonic() - started
    speed = harness.Speedometer()
    gen_s *= harness.Speedometer.scale([speed.sample() for _ in range(3)])
    return Inputs(workload, doc, expected, judges, corpus.digest(doc), gen_s)


# -- worker rounds -------------------------------------------------------------------


class Worker:
    """A worker process whose JSON lines are read with a deadline."""

    def __init__(self, job_path: Path) -> None:
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=str(ROOT), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        # The worker times its reference workload itself, on this same CPU.
        harness.pin(self.proc.pid, harness.cpus()[0])
        self.buffer = b""
        self.usage: Optional[Any] = None

    def read(self, timeout: float) -> Optional[Dict[str, Any]]:
        """The next line; ``None`` on timeout, ``{}`` at end of output."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return {}
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def finish(self, kill: bool) -> None:
        """Stop (or kill) the worker and keep its resource usage."""
        if kill:
            self.proc.kill()
        _, status, self.usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()


@dataclass
class OpRecord:
    round: int
    i: int
    ns: int
    out: Any
    ok: bool
    t: int = 0  # start, on the worker's clock
    warm: bool = False
    steps: int = 0
    reason: str = ""


@dataclass
class Round:
    """What one round's worker (and any worker resuming it) reported."""

    records: List[OpRecord] = field(default_factory=list)
    setup_s: float = 0.0
    rss_kb: int = 0
    #: (start, ns) reference-workload timings, for the machine-speed scale;
    #: the first three are taken right after set-up
    refs: List[Tuple[int, int]] = field(default_factory=list)
    #: check-cold: project index → (start, end, ns) of its ``run_batch``,
    #: the ns leaving out the reference timings taken inside
    batches: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    trace_files: List[Path] = field(default_factory=list)

    def scaled(self, start: int, end: int, ns: float) -> float:
        """``ns`` of work done over ``[start, end]``, at calibration speed."""
        return ns * harness.scale_around(self.refs, start, end)

    def op_ns(self, rec: OpRecord) -> float:
        return self.scaled(rec.t, rec.t + rec.ns, rec.ns)

    @property
    def setup_scale(self) -> float:
        return harness.Speedometer.scale([ns for _, ns in self.refs[:3]])

    @property
    def speed(self) -> float:
        return harness.Speedometer.scale([ns for _, ns in self.refs])


def run_round(inputs: Inputs, plan: Plan, work: Path, traced: bool, r: int) -> Round:
    """One fresh worker (its set-up timed), resumed in another after any op
    that passes the deadline or crashes the worker."""
    # typed-run is warm: an untimed pass first.
    warmup = 1 if inputs.workload == "typed-run" else 0
    per_round = len(inputs.expected) * (warmup + 1)
    result = Round()
    start, spawn = 0, 0
    while start < per_round:
        job = {
            "workload": inputs.workload, "root": str(ROOT), "inputs": str(work / "inputs.json"),
            "start": start, "stop": per_round, "warmup": warmup,
            "trace": traced, "cache_dir": str(work / f"cache.{r}"),
            "trace_out": str(work / f"trace.{r}.{spawn}.json"),
        }
        job_path = work / f"job.{r}.{spawn}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        worker = Worker(job_path)
        done = False
        try:
            ready = worker.read(timeout=60.0)
            if not ready or not ready.get("ready"):
                raise RuntimeError(f"{inputs.workload} worker did not start")
            if spawn == 0:
                result.setup_s = time.monotonic() - worker.started
            expected_next = start
            while True:
                line = worker.read(timeout=DEADLINE_S)
                if line is None or line == {}:
                    reason = "deadline" if line is None else "worker exited"
                    result.records.append(OpRecord(r, expected_next, 0, None, False,
                                                   reason=reason))
                    start = expected_next + 1
                    break
                if "ref" in line:
                    result.refs.append((line["t"], line["ref"]))
                elif "batch" in line:
                    result.batches[line["batch"]] = (line["t"], line["end"], line["ns"])
                elif "done" in line:
                    result.gauges = line["gauges"]
                    start, done = per_round, True
                    break
                else:
                    i = line["i"]
                    result.records.append(OpRecord(
                        r, i, line["ns"], line["out"], inputs.judge(i, line["out"]),
                        t=line["t"], warm=line.get("warm", False), steps=line.get("steps", 0),
                    ))
                    expected_next = i + 1
        finally:
            worker.finish(kill=not done)
        if spawn == 0:
            result.rss_kb = worker.usage.ru_maxrss
        if traced and Path(job["trace_out"]).exists():
            result.trace_files.append(Path(job["trace_out"]))
        spawn += 1
    return result


# -- metrics ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one (untraced or traced) run of a workload produced."""

    workload: str
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    rows: List[Row]
    outputs: Dict[Any, Any]
    op_ns: int  # summed op time, for the tracing overhead
    layers: Dict[str, List[int]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: the traced processes' span dumps (see spans.Tracer.dump)
    processes: List[Dict[str, Any]] = field(default_factory=list)


def _finish(workload: str, state: str, work: float, n_work: int,
            op_ms: Sequence[float], pooled_ms: Sequence[float], setup_s: Sequence[float],
            gen_s: float, rss_mb: Sequence[float], speed: Tuple[float, int]) -> Tuple[Dict, List[Row]]:
    """The end-to-end metrics and their report rows.  ``op_ms`` holds one
    time per op (its median over repetitions); ``pooled_ms`` every sample,
    for the tail-rule row; ``speed`` the machine-speed scale applied and
    the number of reference timings it rests on."""
    name, unit, base = NAMES[workload]
    ops = harness.summarize(op_ms)
    p95 = harness.percentile(op_ms, 95.0)
    p_tail, tail = harness.tail(pooled_ms)
    setup = gen_s + statistics.median(setup_s)
    rss = statistics.median(rss_mb)
    rows = [
        Row(name, unit, work, state, n_work),
        Row(f"{base}_p50", "ms", ops.median, state, ops.n, ops.iqr),
        Row(f"{base}_p95", "ms", p95, state, ops.n),
        Row(f"{base}_p{p_tail:g} (all samples)", "ms", tail, state, len(pooled_ms)),
        Row("setup_s", "s", setup, "cold", len(setup_s)),
        Row("peak_rss_mb", "MB", rss, state, len(rss_mb)),
        Row("machine.speed_scale", "ratio", speed[0], state, speed[1]),
    ]
    metrics = {
        "work_per_s": (work, "1/s"),
        "op_ms_p50": (ops.median, "ms"),
        "op_ms_p95": (p95, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, rows


def worker_outcome(inputs: Inputs, plan: Plan, traced: bool) -> Outcome:
    """Each op's time is its median over the rounds, which
    keeps one slow second of a shared machine from moving a percentile; each
    duration is scaled by the machine's speed around it."""
    workload = inputs.workload
    work = _fresh(OUT / workload / ("traced" if traced else "plain"))
    (work / "inputs.json").write_text(json.dumps(inputs.doc), encoding="utf-8")
    rounds = harness.repeat(lambda r: run_round(inputs, plan, work, traced, r), plan.rounds)
    records = [rec for rnd in rounds for rec in rnd.records]
    timed = [rec for rec in records if not rec.warm and rec.reason == ""]
    samples: Dict[int, List[OpRecord]] = {}
    for rec in timed:
        samples.setdefault(rec.i % len(inputs.expected), []).append(rec)
    op_ns = {i: statistics.median(rounds[rec.round].op_ns(rec) for rec in recs)
             for i, recs in samples.items()}
    if workload == "check-cold":
        items = sum(recs[0].out[2] for recs in samples.values() if recs[0].ok)
        batch_ns = {k: statistics.median(rnd.scaled(*rnd.batches[k]) for rnd in rounds
                                         if k in rnd.batches)
                    for k in set().union(*(rnd.batches for rnd in rounds))}
        rate, state = items / (sum(batch_ns.values()) / 1e9), "cold"
    elif workload == "typed-run":
        steps = sum(recs[0].steps for recs in samples.values())
        rate, state = steps / (sum(op_ns.values()) / 1e9), "warm"
    else:
        rate, state = len(op_ns) / (sum(op_ns.values()) / 1e9), "cold"
    metrics, rows = _finish(
        workload, state, rate, len(op_ns), [ns / 1e6 for ns in op_ns.values()],
        [rounds[rec.round].op_ns(rec) / 1e6 for rec in timed],
        [rnd.setup_s * rnd.setup_scale for rnd in rounds], inputs.gen_s,
        [rnd.rss_kb / 1024.0 for rnd in rounds],
        (statistics.median(rnd.speed for rnd in rounds), sum(len(rnd.refs) for rnd in rounds)),
    )
    failed = [rec for rec in records if not rec.ok]
    outcome = Outcome(
        workload, len(records), len(failed), metrics, rows,
        {(rec.round, rec.i): rec.out for rec in records},
        int(sum(rounds[rec.round].op_ns(rec) for rec in timed)),
        notes=[f"failed op {rec.i} (round {rec.round}): {rec.reason or 'wrong answer'}"
               for rec in failed],
    )
    # A round whose last op passed the deadline ends without gauges.
    gauges = [rnd.gauges for rnd in rounds if rnd.gauges]
    keys = gauges[0] if gauges else {}
    outcome.gauges = {key: statistics.median(g[key] for g in gauges) for key in keys}
    if traced:
        outcome.processes = [json.loads(path.read_text(encoding="utf-8"))
                             for rnd in rounds for path in rnd.trace_files]
        outcome.layers = _merge_traces(outcome.processes, outcome.gauges)
    return outcome


def _merge_traces(documents: Sequence[Dict[str, Any]], gauges: Dict[str, float],
                  select_op: Optional[Callable[[str], bool]] = None) -> Dict[str, List[int]]:
    """Sum the per-op layer tables of span dumps; fold their gauges (max)
    into ``gauges``; the op wall goes under ``op.wall``."""
    total: Dict[str, List[int]] = {}
    wall = 0
    for document in documents:
        for op_id, table in document["ops"].items():
            if select_op is not None and not select_op(op_id):
                continue
            for key, (value, calls) in table.items():
                merged = total.setdefault(key, [0, 0])
                merged[0] += value
                merged[1] += calls
            wall += document["roots"].get(op_id, 0)
        for key, value in document["gauges"].items():
            gauges[key] = max(gauges.get(key, value), value)
        for key, value in document.get("process_gauges", {}).items():
            gauges.setdefault(key, value)
    total["op.wall"] = [wall, 0]
    return total


def serve_outcome(inputs: Inputs, plan: Plan, traced: bool) -> Outcome:
    """Each request's latency is its median over the sessions, each scaled
    by the machine's speed around it."""
    work = _fresh(OUT / "serve-edit" / ("traced" if traced else "plain"))
    doc: corpus.ServeInputs = inputs.doc
    result = serve.run(ROOT, work, doc, serve.RATE, serve.WARMUP, traced)
    sessions = result.sessions
    timed = [(session, req) for session in sessions for req in session.requests[result.warmup:]]
    latencies: Dict[int, List[float]] = {}
    for session, req in timed:
        latencies.setdefault(req.id, []).append(serve.latency_ms(req) * session.scale_for(req))
    checked = [(k, req, serve.judge(req, doc, doc.schedule[req.id][1])
                and serve.latency_ms(req) <= serve.DEADLINE_S * 1000)
               for k, session in enumerate(sessions) for req in session.requests]
    metrics, rows = _finish(
        "serve-edit", "warm", serve.requests_per_cpu_s(result), len(timed),
        [statistics.median(ms) for ms in latencies.values()],
        [ms for values in latencies.values() for ms in values],
        [session.setup_s * session.pace for session in sessions], inputs.gen_s,
        [session.rss_kb / 1024.0 for session in sessions],
        (statistics.median(harness.Speedometer.scale([ns for _, ns in session.refs])
                           for session in sessions),
         sum(len(session.refs) for session in sessions)),
    )
    late = [max(0.0, req.sent - req.due) * 1000.0 for _, req in timed]
    p_late, late_ms = harness.tail(late)
    rows.append(Row(f"loadgen.late_ms_p{p_late:g}", "ms", late_ms, "warm", len(late)))
    rows.append(Row("serve.rate", "req/s", serve.RATE, "warm", len(timed)))
    hot = [req for _, req in timed if req.kind == "hot" and req.response]
    rows.append(Row("serve.hot_hit_ratio", "ratio",
                    sum(req.response.get("source") == "hot" for req in hot) / max(1, len(hot)),
                    "warm", len(hot)))
    outcome = Outcome(
        "serve-edit", len(checked) + len(result.errors),
        sum(not ok for _, _, ok in checked) + len(result.errors), metrics, rows,
        {(k, req.id): serve.answer(req) for k, req, _ in checked},
        int(sum((req.received - req.sent) * 1e9 * session.scale_for(req)
                for session, req in timed if req.response)),
        notes=[f"session {k} request {req.id} ({req.kind}) failed"
               for k, req, ok in checked if not ok] + result.errors,
    )
    if traced:
        documents, transport, client_total = [], 0, 0
        for session in sessions:
            document = json.loads(session.trace_file.read_text(encoding="utf-8"))
            server_ns = {int(k): v for k, v in document["roots"].items()}
            for req in session.requests[result.warmup:]:
                if req.response:
                    client_ns = int((req.received - req.sent) * 1e9)
                    client_total += client_ns
                    transport += max(0, client_ns - server_ns.get(req.id, 0))
            document["requests"] = [
                {"id": req.id, "kind": req.kind, "due": req.due, "sent": req.sent,
                 "received": req.received} for req in session.requests
            ]
            documents.append(document)
        layers = _merge_traces(documents, outcome.gauges,
                               lambda op_id: int(op_id) >= result.warmup)
        layers["service.transport"] = [transport, len(timed)]
        layers["op.wall"] = [client_total, 0]
        outcome.layers, outcome.processes = layers, documents
    return outcome


def run_once(inputs: Inputs, plan: Plan, traced: bool) -> Outcome:
    if inputs.workload == "serve-edit":
        return serve_outcome(inputs, plan, traced)
    return worker_outcome(inputs, plan, traced)


# -- per-layer report ------------------------------------------------------------------

LAYER_KEYS = tuple(spans.LAYERS) + spans.RULE_FAMILIES + ("service.transport", "unattributed")
RATIOS = (
    ("lang.parse.kb_per_s", "KB/s"),
    ("core.automata.refusal_ratio", "ratio"),
    ("core.shared_memo.entries", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.entries", "count"),
    ("terms.intern.hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer(plain: Outcome, traced: Outcome) -> Tuple[Dict[str, Tuple[float, str]], List[Row]]:
    """Per-layer metrics: every layer's share and calls, then run-level
    ratios.  Self times go to the printed rows and the trace file."""
    layers, gauges = traced.layers, traced.gauges
    wall = layers["op.wall"][0] or 1

    def of(key: str) -> List[int]:
        return layers.get(key, [0, 0])

    metrics: Dict[str, Tuple[float, str]] = {}
    rows: List[Row] = []
    for key in LAYER_KEYS:
        self_ns, calls = of(key)
        metrics[f"{key}.share"] = (self_ns / wall, "ratio")
        metrics[f"{key}.calls"] = (calls, "count")
        rows.append(Row(f"{key}.self_s", "s", self_ns / 1e9, "traced", calls))
        rows.append(Row(f"{key}.share", "ratio", self_ns / wall, "traced", calls))
    parse_ns = of("lang.parse")[0]
    gets = of("service.cache.get")[1]
    stores = of("core.automata_store")[1]
    values = {
        "lang.parse.kb_per_s": of("lang.parse.bytes")[0] / 1024 / (parse_ns / 1e9) if parse_ns else 0.0,
        "core.automata.refusal_ratio": of("core.automata_store.refusals")[0] / stores if stores else 0.0,
        "core.shared_memo.entries": gauges.get("core.shared_memo.entries", 0),
        "service.cache.hit_ratio": of("service.cache.hits")[0] / gets if gets else 0.0,
        "service.cache.entries": gauges.get("service.cache.entries", 0),
        "terms.intern.hit_ratio": gauges.get("terms.intern.hit_ratio", 0.0),
        "trace.coverage": 1.0 - of("unattributed")[0] / wall,
        "trace.overhead_ratio": traced.op_ns / plain.op_ns if plain.op_ns else 0.0,
    }
    for name, unit in RATIOS:
        metrics[name] = (values[name], unit)
        rows.append(Row(name, unit, values[name], "traced", 1))
    return metrics, rows


# -- driver ------------------------------------------------------------------------------


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Report:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]


def run_workload(workload: str, seed: int, plan: Plan, trace: bool,
                 inputs: Optional[Inputs] = None) -> Report:
    inputs = inputs or build_inputs(workload, seed, plan)
    plain = run_once(inputs, plan, traced=False)
    lines = [f"== {workload}  seed={seed}  digest={inputs.digest}  "
             f"ops={plain.attempted}  failed={plain.failed}"]
    lines += [row.render() for row in plain.rows]
    attempted, failed, metrics = plain.attempted, plain.failed, plain.metrics
    notes = list(plain.notes)
    if trace:
        traced = run_once(inputs, plan, traced=True)
        mismatched = sorted(
            str(key) for key in set(plain.outputs) | set(traced.outputs)
            if plain.outputs.get(key) != traced.outputs.get(key)
        )
        metrics, rows = per_layer(plain, traced)
        attempted += traced.attempted
        failed += traced.failed + len(mismatched)
        notes += traced.notes + [f"traced output differs: op {key}" for key in mismatched[:20]]
        lines.append(f"-- traced: ops={traced.attempted} failed={traced.failed} "
                     f"mismatched={len(mismatched)}")
        lines += [row.render() for row in rows]
        trace_path = OUT / f"trace.{workload}.json"
        trace_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "digest": inputs.digest,
            "layers": {key: {"self_s": v[0] / 1e9, "calls": v[1]}
                       for key, v in traced.layers.items()},
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "processes": traced.processes,
        }), encoding="utf-8")
        lines.append(f"-- spans: {trace_path.relative_to(ROOT)}")
    lines += [f"!! {note}" for note in notes[:20]]
    shutil.rmtree(OUT / workload, ignore_errors=True)
    return Report(workload, failed == 0, attempted, failed, metrics, lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS,
                        help="measured time one workload's sizes are scaled to "
                             "(benchmark runners pass run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    plan = Plan.for_run(args.seconds, args.smoke)
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    reports = [run_workload(w, args.seed, plan, bool(args.trace)) for w in workloads]
    for report in reports:
        print("\n".join(report.lines))
    if len(reports) == 1:
        metrics = reports[0].metrics
    else:
        metrics = {f"{r.workload}.{name}": value for r in reports for name, value in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in reports),
        "attempted": sum(r.attempted for r in reports),
        "failed": sum(r.failed for r in reports),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
