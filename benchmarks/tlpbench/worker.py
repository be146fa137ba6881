"""One worker process of the tlpbench driver: one round of one workload.

Usage (the driver writes the job file)::

    python3 benchmarks/tlpbench/worker.py JOB.json

The worker imports ``repro`` from the checkout's ``src/``, loads the round's
inputs, prints ``{"ready": true}``, and then prints one JSON line per op as
soon as the op finishes, so the driver can enforce the per-op deadline and
resume in a fresh worker after the op that overran.  Between ops it prints
``{"ref": ns, "t": start}`` timings of the reference workload
(``harness.Speedometer``); op lines carry their start time ``t`` too, so the
driver can scale each op by the timings taken around it.
With ``"trace": true`` in the job, the layer wrappers of :mod:`spans` are
installed first and the spans are written to the job's ``trace_out`` at
exit.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, Optional

from harness import Speedometer, now_ns, repeat

Op = Callable[[Any], ContextManager[None]]


class Channel:
    """The worker's stdout: one JSON object per line."""

    def __init__(self) -> None:
        self.speed = Speedometer()

    def emit(self, record: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(record) + "\n")
        sys.stdout.flush()

    def tick(self, force: bool = False) -> int:
        """Time the reference workload, if one is due (or ``force``); return
        the ns this took."""
        if not (force or self.speed.due()):
            return 0
        started = now_ns()
        self.emit({"ref": self.speed.sample(), "t": started})
        return now_ns() - started

    def ready(self) -> None:
        """End of set-up: the ready line, then three reference timings."""
        self.emit({"ready": True})
        for _ in range(3):
            self.tick(force=True)


def process_gauges() -> Dict[str, float]:
    from repro.core.shared_memo import SHARED_MEMO
    from repro.terms.term import intern_stats

    return {
        "terms.intern.hit_ratio": intern_stats().hit_rate,
        "core.shared_memo.entries": SHARED_MEMO.stats()["entries"],
    }


def run_check(job: Dict[str, Any], inputs: Dict[str, Any], op: Op, out: Channel) -> None:
    """``run_batch`` per project, inline, into a fresh result cache; one
    line per file from the progress callback, one per project batch.

    Reference timings are taken between files too (untraced only, since in
    a traced run their time would count as unattributed), and a batch's
    time leaves them out."""
    from repro.service import runner
    from repro.service.cache import ResultCache
    from repro.service.project import Project, ProjectFile, fingerprint

    def project_file(name: str, text: str) -> ProjectFile:
        return ProjectFile(Path(name), name, text, fingerprint(text))

    out.ready()
    first = 0
    for k, project in enumerate(inputs["projects"]):
        members = [
            (first + n, member)
            for n, member in enumerate(project["members"])
            if first + n >= job["start"]
        ]
        first += len(project["members"])
        if not members:
            continue
        out.tick()
        batch = Project(
            project["name"],
            Path("."),
            [project_file(m["name"], m["text"]) for _, m in members],
            [project_file("prelude.tlp", project["prelude"])],
        )
        cache = ResultCache(str(Path(job["cache_dir"]) / f"{project['name']}.{members[0][0]}"))
        last = [now_ns()]
        paused = [0]

        def progress(done: int, total: int, result: Any) -> None:
            now = now_ns()
            out.emit({
                "i": members[done - 1][0],
                "t": last[0],
                "ns": now - last[0],
                "out": [result.ok, len(result.diagnostics), result.clauses + result.queries],
            })
            if not job["trace"]:
                paused[0] += out.tick()
            last[0] = now_ns()

        with op(k):
            started = now_ns()
            runner.run_batch(batch, cache=cache, jobs=1, progress=progress)
            end = now_ns()
            out.emit({"batch": k, "t": started, "end": end, "ns": end - started - paused[0]})


def run_lint(job: Dict[str, Any], inputs: Dict[str, Any], op: Op, out: Channel) -> None:
    """``lint_text`` per case; the findings travel home as (code, severity,
    line) triples."""
    from repro.analysis import lint_text

    out.ready()
    for i, case in enumerate(inputs["cases"][: job["stop"]]):
        if i < job["start"]:
            continue
        out.tick()
        with op(i):
            started = now_ns()
            report = lint_text(case["text"], path=case["name"])
            elapsed = now_ns() - started
        findings = [
            [d.code, d.severity, d.position.line if d.position else 0]
            for d in report.diagnostics
        ]
        out.emit({"i": i, "t": started, "ns": elapsed, "out": findings})


def run_typed(job: Dict[str, Any], inputs: Dict[str, Any], op: Op, out: Channel) -> None:
    """``TypedRunner.run`` per query over modules checked once, in set-up:
    ``job["warmup"]`` unmeasured passes, then one timed pass."""
    from repro.checker.frontend import check_text
    from repro.core.typed_run import TypedRunner
    from repro.lang.parser import parse_file
    from repro.lp.clause import Query
    from repro.terms.pretty import pretty
    from repro.terms.term import Var, variables_of

    runners = {}
    for name, text in inputs["modules"].items():
        module = check_text(text)
        runners[name] = TypedRunner(module.moded_checker or module.checker, module.program)
    queries = []
    for case in inputs["queries"]:
        body = parse_file(case["text"]).items[0].body
        names = sorted({v.name for goal in body for v in variables_of(goal)})
        queries.append((runners[case["module"]], Query(body), names))
    out.ready()

    def run_pass(number: int) -> None:
        warm = number < job["warmup"]
        for q, (runner, query, names) in enumerate(queries):
            i = number * len(queries) + q
            if i < job["start"]:
                continue
            out.tick()
            with op(i) if not warm else contextlib.nullcontext():
                started = now_ns()
                result = runner.run(query)
                elapsed = now_ns() - started
            answers = [
                "; ".join(f"{name} = {pretty(answer.apply(Var(name)))}" for name in names)
                for answer in result.answers
            ]
            abort = result.violation.step if result.violation else 0
            out.emit({"i": i, "t": started, "ns": elapsed, "warm": warm,
                      "out": [answers, abort], "steps": result.steps})

    repeat(run_pass, 1, warmup=job["warmup"])


WORKLOADS = {"check-cold": run_check, "lint-corpus": run_lint, "typed-run": run_typed}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    tracer: Optional[Any] = None
    op: Op = lambda op_id: contextlib.nullcontext()
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        op = tracer.op
    inputs = json.loads(Path(job["inputs"]).read_text(encoding="utf-8"))
    out = Channel()
    WORKLOADS[job["workload"]](job, inputs, op, out)
    for _ in range(3):
        out.tick(force=True)
    out.emit({"done": True, "gauges": process_gauges()})
    if tracer is not None:
        tracer.dump(job["trace_out"], {"process_gauges": process_gauges()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
