"""Self-test of the tlpbench driver, at ``--smoke`` sizes.

Run from the repository root (outside the tier-1 ``testpaths``)::

    python -m pytest benchmarks/tlpbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)

ROOT = run.ROOT
SMOKE = run.Plan.for_run(run.REFERENCE_SECONDS, smoke=True)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = "\n".join(lines[:-1])
    return result


def _names(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_every_end_to_end_metric_is_printed_with_its_unit():
    result = _run("--workload", "check-cold")
    assert result["correct"] and result["failed"] == 0
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == _names("end_to_end")
    for name in ("check.items_per_s", "check.file_ms_p50", "check.file_ms_p95", "setup_s"):
        assert name in result["report"]


def test_every_per_layer_metric_is_printed_with_its_unit_and_tracing_changes_no_output():
    result = _run("--workload", "typed-run", "--trace", "1")
    # correct means the traced run reproduced every untraced answer.
    assert result["correct"] and result["failed"] == 0, result["report"]
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == _names("per_layer")
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    assert (ROOT / ".tlpbench" / "trace.typed-run.json").is_file()


def test_an_injected_wrong_expected_verdict_is_a_failed_op():
    inputs = run.build_inputs("check-cold", 1, SMOKE)
    ok, errors, items = inputs.expected[0]
    inputs.expected[0] = [not ok, errors, items]
    report = run.run_workload("check-cold", 1, SMOKE, trace=False, inputs=inputs)
    assert not report.correct
    assert report.failed == SMOKE.rounds  # op 0 runs once per round


def test_an_op_past_the_deadline_is_counted_and_the_run_finishes():
    inputs = run.build_inputs("lint-corpus", 1, SMOKE)
    # The non-terminating lint goes last: each round fails it once, after
    # every other op has run.
    name = run.corpus.HANGING_SOURCE
    inputs.doc["cases"].append({"name": f"sources/{name}", "text": run.SOURCES[name]})
    inputs.expected.append(())
    inputs.judges.append("no-errors")
    report = run.run_workload("lint-corpus", 1, SMOKE, trace=False, inputs=inputs)
    assert report.failed == SMOKE.rounds
    assert report.attempted == SMOKE.rounds * len(inputs.expected)
    assert any("deadline" in line for line in report.lines)


def test_the_corpus_digest_is_a_function_of_the_seed():
    for workload in run.WORKLOADS:
        first = run.build_inputs(workload, 1, SMOKE).digest
        assert run.build_inputs(workload, 1, SMOKE).digest == first
        assert run.build_inputs(workload, 2, SMOKE).digest != first


def test_rule_wrappers_keep_severity_overrides():
    """Lint checks read ``check._rule`` through their module globals; the
    tracing wrapper must forward the per-run rebinding to them."""
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from repro.analysis import LintConfig, lint_text
text = open(sys.argv[3]).read()
config = LintConfig.from_spec(severities="TLP604=error,TLP605=note")
def findings():
    return [str(d) for d in lint_text(text, config=config).diagnostics]
before = findings()
tracer = spans.Tracer()
spans.install(tracer)
with tracer.op(0):
    after = findings()
assert after == before, (before, after)
assert any("error[TLP604]" in line for line in after), after
assert tracer.ops[0]["analysis.tlp6xx"][1] > 0
"""
    subprocess.run(
        [sys.executable, "-c", script, str(HERE), str(ROOT / "src"),
         str(ROOT / "examples" / "corpus" / "lint" / "polytypes.tlp")],
        check=True, timeout=60,
    )
