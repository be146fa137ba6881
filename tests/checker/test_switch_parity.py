"""The fast paths change speed, never verdicts.

Interning, the shared subtype memo and the compiled tree automata can
each be switched off through their library setters, which restores the
seed code path.  With each switch off, then on, ``check_text``
diagnostics and ``lint_text`` findings over every bundled example
program and lint-corpus file must be identical.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import lint_text
from repro.checker.frontend import check_text
from repro.core.automata import AUTOMATA
from repro.core.shared_memo import SHARED_MEMO
from repro.terms.term import intern_stats, set_interning

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
FILES = sorted(
    [*EXAMPLES.glob("programs/*.tlp"), *EXAMPLES.glob("corpus/lint/*.tlp")]
)

#: Fresh variables (``_G442``) are numbered by a process-wide counter.
FRESH = re.compile(r"\b_[A-Z][A-Za-z]*\d+\b")

#: switch → (setter returning the previous setting, getter)
SWITCHES = {
    "intern": (set_interning, lambda: intern_stats().enabled),
    "shared_memo": (SHARED_MEMO.set_enabled, lambda: SHARED_MEMO.enabled),
    "automata": (AUTOMATA.set_enabled, lambda: AUTOMATA.enabled),
}


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


@pytest.mark.parametrize("switch", sorted(SWITCHES))
def test_switch_off_keeps_check_and_lint_verdicts(switch):
    assert len(FILES) >= 10
    setter, enabled = SWITCHES[switch]
    previous = setter(False)
    try:
        assert enabled() is False
        off = _verdicts()
    finally:
        setter(previous)
    assert enabled() is True
    assert _verdicts() == off
