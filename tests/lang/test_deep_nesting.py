"""Deeply nested terms through the frontend, each in a fresh interpreter.

The term parser runs on an explicit stack, so nesting depth is bounded by
memory, not by the recursion limit.  A fresh interpreter matters: a test
process (or a long-lived server) may already have raised the limit, which
would hide a recursive parser's ``RecursionError``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def deep_program(depth):
    return (
        "FUNC 0, s.\nTYPE nat.\nnat >= 0 + s(nat).\nPRED p(nat).\n"
        "p(" + "s(" * depth + "0" + ")" * depth + ").\n"
    )


def run_python(*arguments, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, *arguments],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("depth", [400, 20_000])
@pytest.mark.parametrize(
    "module, verdict",
    [
        ("repro.checker.cli", "well-typed (1 clauses, 0 queries)"),
        ("repro.analysis.cli", "linted 1 file: 0 error(s)"),
    ],
)
def test_cli_gives_a_verdict_on_deep_nesting(tmp_path, depth, module, verdict):
    path = tmp_path / "deep.tlp"
    path.write_text(deep_program(depth))
    completed = run_python("-m", module, str(path))
    assert "Traceback" not in completed.stderr, completed.stderr[-2000:]
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert verdict in completed.stdout + completed.stderr


def test_parse_file_returns_on_100k_deep_nesting():
    script = (
        "import sys\n"
        "from repro.lang import parse_file\n"
        "from repro.terms import term_depth\n"
        "source = parse_file(sys.stdin.read())\n"
        "print(term_depth(source.items[-1].head))\n"
    )
    completed = run_python("-c", script, stdin=deep_program(100_000))
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.split() == [str(100_000 + 2)]
