"""The perf gates of ``benchmarks/summary.py`` on synthetic documents: each
floor and ceiling fails just past its value, a baseline row regresses past
2x, ``/1`` baselines and unknown run reports are refused."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUMMARY_PATH = ROOT / "benchmarks" / "summary.py"


def _summary_module():
    spec = importlib.util.spec_from_file_location("_bench_summary", SUMMARY_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


summary = _summary_module()


def document(medians):
    return {
        "schema": summary.SCHEMA,
        "rows": [
            {"id": id_, "label": id_, "state": "warm", "n": 5, "ns_median": ns, "ns_iqr": 0.0}
            for id_, ns in medians.items()
        ],
    }


def passing_medians():
    """Medians that clear every within-run gate by a small margin."""
    medians = {}
    for fast, slow, floor in summary.FLOORS:
        medians[fast] = 1000.0
        medians[slow] = 1000.0 * floor * 1.001
    for id_, base, ceiling in summary.CEILINGS:
        medians[base] = 1000.0
        medians[id_] = 1000.0 * ceiling * 0.999
    return medians


def failures(verdicts):
    return [message for passed, message in verdicts if not passed]


def test_gate_values():
    assert [floor for _, _, floor in summary.FLOORS] == [3.0, 3.0, 5.0]
    assert [(f, s) for f, s, _ in summary.FLOORS] == [
        ("automata.member.nat.256", "automata.member.nat.256.fallback"),
        ("automata.match.list.64", "automata.match.list.64.fallback"),
        ("batch.warm.per_file", "batch.cold.per_file"),
    ]
    assert summary.CEILINGS == (
        ("polytypes.lint.corpus", "polytypes.lint.corpus.nosolver", 1.1),
    )
    assert summary.MIN_HIT_RATE == 0.99
    assert summary.MAX_REGRESSION == 2.0


def test_ratio_gates_pass_inside_their_values():
    verdicts = summary.ratio_gates(document(passing_medians()))
    assert len(verdicts) == len(summary.FLOORS) + len(summary.CEILINGS)
    assert failures(verdicts) == []


@pytest.mark.parametrize("index", range(3))
def test_each_floor_fails_just_past_its_value(index):
    fast, slow, floor = summary.FLOORS[index]
    medians = passing_medians()
    medians[slow] = medians[fast] * floor * 0.999
    failed = failures(summary.ratio_gates(document(medians)))
    assert len(failed) == 1 and failed[0].startswith(f"{slow} / {fast}")


def test_the_ceiling_fails_just_past_its_value():
    (id_, base, ceiling), = summary.CEILINGS
    medians = passing_medians()
    medians[id_] = medians[base] * ceiling * 1.001
    failed = failures(summary.ratio_gates(document(medians)))
    assert len(failed) == 1 and failed[0].startswith(f"{id_} / {base}")


def test_a_missing_gated_row_fails():
    medians = passing_medians()
    del medians["batch.cold.per_file"]
    failed = failures(summary.ratio_gates(document(medians)))
    assert failed == ["batch.cold.per_file / batch.warm.per_file: row missing"]


def test_baseline_gate_fails_past_twice_the_baseline_median():
    baseline = document({"subtype.member.nat.64": 1000.0, "match.list.64": 1000.0})
    slow = document({"subtype.member.nat.64": 2100.0, "match.list.64": 1900.0})
    failed = failures(summary.baseline_gate(baseline, slow))
    assert len(failed) == 1 and failed[0].startswith("subtype.member.nat.64 = 2.10x")


def test_baseline_gate_lists_unshared_rows_without_failing():
    baseline = document({"a": 1000.0, "retired": 1000.0})
    current = document({"a": 1000.0, "new": 5000.0})
    verdicts = summary.baseline_gate(baseline, current)
    assert failures(verdicts) == []
    messages = " ".join(message for _, message in verdicts)
    assert "only in baseline, not gated: retired" in messages
    assert "only in this run, not gated: new" in messages


def test_a_single_shot_baseline_is_refused():
    old = {
        "schema": "tlp-bench-subtype/1",
        "measurements": [{"id": "a", "label": "a", "ns_per_op": 1000.0}],
    }
    (passed, message), = summary.baseline_gate(old, document({"a": 1000.0}))
    assert not passed
    assert "'tlp-bench-subtype/1'" in message and "re-baseline" in message


def run_report(hit_rate, schema="tlp-run-report/1"):
    return {
        "schema": schema,
        "files": {"total": 8},
        "cache": {"hits": 8, "misses": 0, "hit_rate": hit_rate},
    }


def test_run_report_gate():
    assert failures(summary.run_report_gate(run_report(1.0))) == []
    assert failures(summary.run_report_gate(run_report(0.99))) == []
    assert len(failures(summary.run_report_gate(run_report(0.989)))) == 1
    (passed, message), = summary.run_report_gate(run_report(1.0, "tlp-run-report/9"))
    assert not passed and "tlp-run-report/9" in message


def test_run_report_option_alone_measures_nothing(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(run_report(1.0)))
    bad.write_text(json.dumps(run_report(0.5)))
    assert summary.main(["--run-report", str(good)]) == 0
    assert "experiment" not in capsys.readouterr().out
    assert summary.main(["--run-report", str(bad)]) == 1
    assert summary.main(["--run-report", str(tmp_path / "absent.json")]) == 1


def test_committed_baseline_is_a_median_document():
    baseline = json.loads((ROOT / "BENCH_subtype.json").read_text(encoding="utf-8"))
    assert baseline["schema"] == summary.SCHEMA and baseline["quick"] is True
    assert baseline["rows"]
    for row in baseline["rows"]:
        assert set(row) == {"id", "label", "state", "n", "ns_median", "ns_iqr"}
        assert row["state"] in ("cold", "warm") and row["n"] >= 3
    assert failures(summary.ratio_gates(baseline)) == []
