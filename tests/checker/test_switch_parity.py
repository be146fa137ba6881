"""The fast paths change speed, never verdicts.

The shared subtype memo and the compiled tree automata are each turned
off for one block through the ``fast_path_off`` fixture, which makes
every engine built in the block run the reference path.  With each fast
path off, then on, ``check_text`` diagnostics and ``lint_text`` findings
over every bundled example program and lint-corpus file must be
identical.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import lint_text
from repro.checker.frontend import check_text

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
FILES = sorted(
    [*EXAMPLES.glob("programs/*.tlp"), *EXAMPLES.glob("corpus/lint/*.tlp")]
)

#: Fresh variables (``_G442``) are numbered by a process-wide counter.
FRESH = re.compile(r"\b_[A-Z][A-Za-z]*\d+\b")


def _canonical(rendered):
    """``rendered`` with fresh variables renumbered by first appearance."""
    names = {}
    return FRESH.sub(lambda m: names.setdefault(m.group(), f"_F{len(names)}"), rendered)


def _verdicts():
    verdicts = {}
    for path in FILES:
        text = path.read_text(encoding="utf-8")
        module = check_text(text)
        report = lint_text(text, path=path.name)
        verdicts[path.name] = _canonical(
            repr((module.ok, list(module.diagnostics), list(report.diagnostics)))
        )
    return verdicts


@pytest.mark.parametrize("switch", ["automata", "shared_memo"])
def test_switch_off_keeps_check_and_lint_verdicts(switch, fast_path_off):
    assert len(FILES) >= 10
    with fast_path_off(switch) as asked:
        off = _verdicts()
    assert asked
    assert _verdicts() == off
