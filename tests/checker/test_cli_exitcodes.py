"""Exit-code regression matrix for ``tlp-check``, via real subprocesses.

The contract documented in ``repro.checker.cli``: 0 when every file is
well-typed, 1 otherwise, 2 on usage errors (unreadable files, bad
arguments).  Run through the actual console entry point so argument
parsing, stream handling, and interpreter startup are all covered.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import APPEND, ILL_TYPED_EXAMPLES

REPO_ROOT = Path(__file__).resolve().parents[2]
ARITHMETIC = str(REPO_ROOT / "examples" / "programs" / "arithmetic.tlp")


def tlp_check(*arguments, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.checker.cli", *arguments],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.fixture()
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


# -- the 0/1/2 matrix ---------------------------------------------------------


def test_exit_zero_on_well_typed_file(write):
    completed = tlp_check(write("ok.tlp", APPEND))
    assert completed.returncode == 0
    assert "well-typed" in completed.stdout


def test_exit_zero_on_multiple_well_typed_files(write):
    completed = tlp_check(write("a.tlp", APPEND), ARITHMETIC)
    assert completed.returncode == 0
    assert completed.stdout.count("well-typed") == 2


def test_exit_one_on_ill_typed_file(write):
    path = write("bad.tlp", ILL_TYPED_EXAMPLES["query_two_contexts"])
    completed = tlp_check(path)
    assert completed.returncode == 1
    assert "not well-typed" in completed.stdout


def test_exit_one_when_any_file_is_ill_typed(write):
    good = write("good.tlp", APPEND)
    bad = write("bad.tlp", ILL_TYPED_EXAMPLES["query_two_contexts"])
    completed = tlp_check(good, bad)
    assert completed.returncode == 1
    assert "well-typed" in completed.stdout  # the good file still reported


#: Declares ``int`` at arity 1, so the built-in ``'<'(int, int)``
#: signature cannot be formed.
UNARY_INT_WITH_BUILTIN = """\
FUNC c, 0.
TYPE int, nat.
nat >= 0.
int(A) >= c(A).
PRED p(int(nat)).
p(X) :- X < 0.
"""


def test_exit_one_with_a_positioned_diagnostic_when_builtins_cannot_be_typed(write):
    completed = tlp_check(write("unary_int.tlp", UNARY_INT_WITH_BUILTIN))
    assert completed.returncode == 1
    assert "Traceback" not in completed.stderr
    assert "unary_int.tlp:6:1: error: built-in constraint predicates cannot be typed" in (
        completed.stdout
    )
    assert "symbol int used with arity 0" in completed.stdout


def test_check_op_reports_untypable_builtins_as_not_well_typed():
    from repro.service.daemon import CheckService

    response = CheckService().handle({"op": "check", "text": UNARY_INT_WITH_BUILTIN})
    assert response["ok"] is True
    assert response["well_typed"] is False
    assert any(
        "6:1: error: built-in constraint predicates cannot be typed" in diagnostic
        for diagnostic in response["diagnostics"]
    )


def test_exit_two_on_unreadable_file(tmp_path):
    completed = tlp_check(str(tmp_path / "missing.tlp"))
    assert completed.returncode == 2
    assert "cannot read" in completed.stderr


def test_exit_two_on_no_arguments():
    completed = tlp_check()
    assert completed.returncode == 2
    assert "usage" in completed.stderr


def test_exit_two_on_unknown_flag(write):
    completed = tlp_check("--frobnicate", write("ok.tlp", APPEND))
    assert completed.returncode == 2


def test_exit_codes_survive_observability_flags(write):
    good = write("good.tlp", APPEND)
    bad = write("bad.tlp", ILL_TYPED_EXAMPLES["query_two_contexts"])
    assert tlp_check("--stats", good).returncode == 0
    assert tlp_check("--stats", bad).returncode == 1
    assert tlp_check("--stats", "--trace=-", bad).returncode == 1


# -- the --stats acceptance criterion ----------------------------------------


def _counter(stdout, name):
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == name:
            return int(parts[-1].replace(",", ""))
    return 0


def test_stats_reports_nonzero_pipeline_counters():
    completed = tlp_check("--stats", ARITHMETIC)
    assert completed.returncode == 0
    assert "typing witnesses verified respectful" in completed.stdout
    assert _counter(completed.stdout, "subtype.goals") > 0
    assert _counter(completed.stdout, "match.calls") > 0
    assert _counter(completed.stdout, "checker.clauses_checked") > 0
    assert "timers" in completed.stdout


def test_stats_with_run_counts_sld_steps():
    completed = tlp_check("--stats", "--run", "--max-answers", "2", ARITHMETIC)
    assert completed.returncode == 0
    assert _counter(completed.stdout, "sld.steps") > 0
    assert _counter(completed.stdout, "typed_run.steps") > 0


# -- the --trace stream -------------------------------------------------------


def _assert_valid_jsonl(text):
    lines = [line for line in text.splitlines() if line.strip()]
    assert lines, "trace stream is empty"
    for line in lines:
        event = json.loads(line)  # every line must parse
        assert isinstance(event["kind"], str)
        assert isinstance(event["span_id"], int)
        assert "parent_id" in event and "ts" in event
    return [json.loads(line) for line in lines]


def test_trace_to_file_emits_valid_jsonl(tmp_path):
    out = tmp_path / "trace.jsonl"
    completed = tlp_check(f"--trace={out}", ARITHMETIC)
    assert completed.returncode == 0
    events = _assert_valid_jsonl(out.read_text())
    kinds = {event["kind"] for event in events}
    assert "match_call" in kinds
    # Parent links resolve within the stream (orphans only at the roots).
    ids = {event["span_id"] for event in events}
    child_parents = {e["parent_id"] for e in events if e["parent_id"] is not None}
    assert child_parents & ids


def test_bare_trace_streams_jsonl_to_stderr():
    completed = tlp_check(ARITHMETIC, "--trace")
    assert completed.returncode == 0
    _assert_valid_jsonl(completed.stderr)


def test_trace_with_stats_includes_subtype_goals(tmp_path):
    out = tmp_path / "trace.jsonl"
    completed = tlp_check("--stats", f"--trace={out}", ARITHMETIC)
    assert completed.returncode == 0
    events = _assert_valid_jsonl(out.read_text())
    goals = [e for e in events if e["kind"] == "subtype_goal"]
    assert goals and all(goal["result"] is True for goal in goals)


def test_trace_to_unwritable_path_exits_two(tmp_path):
    completed = tlp_check(f"--trace={tmp_path}/no/such/dir/t.jsonl", ARITHMETIC)
    assert completed.returncode == 2
    assert "cannot write trace" in completed.stderr


# -- --typed-run: dynamic subject reduction -----------------------------------

MODES_EXAMPLE = str(REPO_ROOT / "examples" / "programs" / "modes.tlp")

ILL_MODED = """\
TYPE nat, int.
FUNC 0, pred.
int >= nat.
nat >= 0.
int >= pred(int).
PRED makeint(int).
MODE makeint(OUT).
makeint(pred(0)).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
:- makeint(X), usenat(X).
"""


def test_typed_run_well_moded_exits_zero():
    result = tlp_check("--typed-run", MODES_EXAMPLE)
    assert result.returncode == 0
    assert "subject reduction held" in result.stdout
    assert "TLP590" not in result.stdout


def test_typed_run_ill_moded_aborts_with_spanned_tlp590(write):
    path = write("ill.tlp", ILL_MODED)
    result = tlp_check("--typed-run", path)
    assert result.returncode == 1
    assert "TLP590" in result.stdout
    assert "subject reduction violated at resolution step 1" in result.stdout
    # The diagnostic anchors to the query's span (line 12).
    assert f"{path}:12:1" in result.stdout


def test_typed_run_takes_precedence_over_run(write):
    path = write("ill.tlp", ILL_MODED)
    result = tlp_check("--typed-run", "--run", path)
    assert result.returncode == 1
    assert "TLP590" in result.stdout
