"""Query answers do not depend on what the process ran before: generated
variables (``_G13``: fresh names from a process-wide counter) are
renumbered per answer by first appearance, skipping the names the query
wrote, in ``tlp-check --run``/``--typed-run`` and in the REPL."""

import pytest

from repro.checker.cli import main
from repro.checker.repl import run_session
from repro.workloads import APPEND, NATURALS_ARITHMETIC

OPEN_APPEND = "".join(
    line for line in APPEND.splitlines(keepends=True) if not line.startswith(":-")
) + ":- app(X, Y, Z).\n"


def _blocks(out: str, paths):
    """The output of ``tlp-check`` over ``paths`` split at each file's
    verdict line, with the paths cut off so that copies compare equal."""
    blocks = []
    for line in out.splitlines():
        for path in paths:
            if line.startswith(f"{path}:"):
                blocks.append([])
                line = line[len(path):]
        blocks[-1].append(line)
    return blocks


@pytest.mark.parametrize("mode", ["--run", "--typed-run"])
def test_two_copies_answer_in_the_same_bytes(tmp_path, capsys, mode):
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "app.tlp"
        path.write_text(OPEN_APPEND)
        paths.append(str(path))
    assert main([*paths, mode, "--max-answers", "2"]) == 0
    first, second = _blocks(capsys.readouterr().out, paths)
    assert first == second
    assert "   X = cons(_G0, nil), Z = cons(_G0, Y)" in first


def test_repl_answers_repeat_exactly():
    out = run_session(APPEND, ["app(X, Y, Z).", "app(X, Y, Z)."])
    assert out[: len(out) // 2] == out[len(out) // 2 :]
    assert out[1] == "X = cons(_G0, nil), Z = cons(_G0, Y)"


def test_a_written_fresh_looking_name_is_kept_and_skipped(tmp_path, capsys):
    path = tmp_path / "app.tlp"
    path.write_text(OPEN_APPEND.replace("app(X, Y, Z)", "app(_G0, Y, Z)"))
    assert main([str(path), "--run", "--max-answers", "2"]) == 0
    assert "   Z = cons(_G1, Y), _G0 = cons(_G1, nil)" in capsys.readouterr().out
    out = run_session(APPEND, ["app(_G0, Y, Z)."])
    assert out[1] == "Z = cons(_G1, Y), _G0 = cons(_G1, nil)"


def test_an_answer_and_its_residue_are_renumbered_together(tmp_path, capsys):
    # One message: the residue names the binding's variable by the same
    # renumbered name.
    out = run_session(NATURALS_ARITHMETIC, ["le(X, Y), Y : nat.", "le(X, Y), Y : nat."])
    assert out[1] == "X = succ(0), Y = succ(_G0)   | succ(_G0) : nat"
    assert out[: len(out) // 2] == out[len(out) // 2 :]
    path = tmp_path / "le.tlp"
    path.write_text(NATURALS_ARITHMETIC + ":- le(X, Y), Y : nat.\n")
    assert main([str(path), "--run", "--max-answers", "2"]) == 0
    assert (
        "   X = succ(0), Y = succ(_G0)\n     | succ(_G0) : nat\n"
        in capsys.readouterr().out
    )
