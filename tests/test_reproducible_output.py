"""Check and lint output does not depend on what ran before it.

Every ``examples/**/*.tlp`` file (set A) and the lint-corpus cases of
``benchmarks/tlpbench/corpus.py`` (set B) are checked and linted in the
order A, B, A in one process; each set must print the same bytes every
time it runs.  Generated names, the process-wide memos, the interned
terms and the per-file inference tables all persist between the runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_text
from repro.checker import check_text

ROOT = Path(__file__).resolve().parents[1]


def _lint_corpus():
    """The lint-corpus cases for seed 1, from ``corpus.py`` imported by
    path (read-only, as ``benchmarks/summary.py`` imports ``harness.py``)."""
    spec = importlib.util.spec_from_file_location(
        "_tlpbench_corpus", ROOT / "benchmarks" / "tlpbench" / "corpus.py"
    )
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus
    spec.loader.exec_module(corpus)
    return [(case.name, case.text) for case in corpus.lint_cases(1, 42, ROOT)]


def _examples():
    return [
        (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "examples").rglob("*.tlp"))
    ]


def _render(diagnostics):
    lines = []
    for diagnostic in diagnostics:
        lines.append(str(diagnostic))
        lines.extend(f"    fix: {fixit}" for fixit in diagnostic.fixits)
    return lines


def _output(inputs) -> bytes:
    lines = []
    for name, text in inputs:
        lines.append(f"== check {name}")
        lines.extend(_render(check_text(text).diagnostics.diagnostics))
        lines.append(f"== lint {name}")
        lines.extend(_render(lint_text(text, path=name).diagnostics))
    return "\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("order", ["examples-corpus", "corpus-examples"])
def test_check_and_lint_print_the_same_bytes_in_the_order_a_b_a(order):
    examples, corpus = _examples(), _lint_corpus()
    assert examples and corpus
    first, second = (examples, corpus) if order == "examples-corpus" else (corpus, examples)
    a = _output(first)
    b = _output(second)
    assert _output(first) == a
    assert _output(second) == b
    assert b"TLP401" in (a + b) and b"error" in (a + b)
