"""CLI tests: exit codes, output, --run execution."""

import pytest

from repro.checker.cli import main
from repro.workloads import APPEND, ILL_TYPED_EXAMPLES, SOURCES


@pytest.fixture()
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_well_typed_file_exits_zero(write, capsys):
    path = write("append.tlp", APPEND)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "well-typed" in out
    assert "2 clauses" in out


def test_ill_typed_file_exits_one(write, capsys):
    path = write("bad.tlp", ILL_TYPED_EXAMPLES["query_two_contexts"])
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "not well-typed" in out


def test_missing_file_exits_two(capsys):
    assert main(["/nonexistent/nope.tlp"]) == 2


def test_multiple_files(write, capsys):
    good = write("good.tlp", APPEND)
    bad = write("bad.tlp", ILL_TYPED_EXAMPLES["head_two_contexts"])
    assert main([good, bad]) == 1


def test_run_executes_queries(write, capsys):
    source = APPEND + ":- app(cons(nil,nil), nil, X).\n"
    path = write("run.tlp", source)
    assert main([path, "--run"]) == 0
    out = capsys.readouterr().out
    assert "?- app(" in out
    assert "X = cons(nil, nil)" in out


def test_run_reports_no_answers(write, capsys):
    source = APPEND + ":- app(cons(nil,nil), nil, nil).\n"
    path = write("noanswer.tlp", source)
    assert main([path, "--run"]) == 0
    out = capsys.readouterr().out
    assert "no." in out


#: Insertion sort of a descending list: the first answer lies deeper than a
#: depth bound of 100.
DEEP_SORT = SOURCES["insertion_sort"] + (
    ":- isort(cons(succ(succ(succ(0))), cons(succ(succ(0)), cons(succ(0), cons(0, nil)))), S).\n"
)


@pytest.mark.parametrize("mode", ["--run", "--typed-run"])
def test_a_search_cut_off_by_the_depth_bound_is_not_no(write, capsys, mode):
    path = write("deep.tlp", DEEP_SORT)
    assert main([path, mode, "--depth-limit", "10"]) == 0
    out = capsys.readouterr().out
    assert "no answer within --depth-limit 10: the search was cut off." in out
    assert "no." not in out
    assert main([path, mode, "--depth-limit", "100"]) == 0
    out = capsys.readouterr().out
    assert "S = cons(0, cons(succ(0), " in out
    assert "depth-limit" not in out


def test_run_ground_success_prints_yes(write, capsys):
    source = APPEND + ":- app(nil, nil, nil).\n"
    path = write("yes.tlp", source)
    assert main([path, "--run"]) == 0
    assert "yes." in capsys.readouterr().out


def test_max_answers_limits_output(write, capsys):
    source = APPEND + ":- app(X, Y, cons(nil, cons(nil, nil))).\n"
    path = write("many.tlp", source)
    assert main([path, "--run", "--max-answers", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("X = ") == 2


# -- observability flags -------------------------------------------------------


def test_profile_prints_table_and_machine_line(write, capsys):
    path = write("append.tlp", APPEND)
    assert main([path, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "span profile:" in out
    assert "tlp_check" in out  # the CLI's own root span
    machine = [line for line in out.splitlines() if line.startswith("profile: ")]
    assert len(machine) == 1
    fields = dict(part.split("=") for part in machine[0].split()[1:])
    # Acceptance gate: per-name self times attribute >=90% of wall time.
    assert float(fields["coverage"]) >= 0.9
    assert int(fields["spans"]) >= 2
    assert float(fields["self_total_s"]) <= float(fields["wall_s"]) * 1.001


def test_profile_to_file_writes_collapsed_stacks(write, tmp_path, capsys):
    path = write("append.tlp", APPEND)
    collapsed = tmp_path / "flame.collapsed"
    assert main([path, f"--profile={collapsed}"]) == 0
    capsys.readouterr()
    lines = collapsed.read_text().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack and int(weight) > 0
    # Every stack is rooted at the CLI's own span.
    assert all(line.startswith("tlp_check") for line in lines)


def test_metrics_out_writes_parseable_exposition(write, tmp_path, capsys):
    from repro.obs import parse_exposition

    path = write("append.tlp", APPEND)
    out = tmp_path / "metrics.prom"
    assert main([path, "--metrics-out", str(out)]) == 0
    capsys.readouterr()
    samples = parse_exposition(out.read_text())
    assert samples["tlp_checker_modules_checked_total"] == 1
    assert any(name.endswith('_bucket{le="+Inf"}') for name in samples)


def test_profile_restores_disabled_state(write, capsys):
    from repro import obs

    path = write("append.tlp", APPEND)
    assert main([path, "--profile"]) == 0
    capsys.readouterr()
    assert not obs.METRICS.enabled
    assert not obs.TRACER.enabled
