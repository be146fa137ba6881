"""``tlp-lint`` output does not depend on the subtype fast paths.

Interning, the shared subtype memo and the compiled tree automata are
switched off through their library setters (the CLI has no flags for
them).  With each one off, ``tlp-lint`` must print byte-identical
findings and exit with the same code, and must leave the switch as it
found it.  Case ids name the ablation each setter performs.
"""

import pytest

from repro.analysis.cli import main
from repro.core.automata import AUTOMATA
from repro.core.shared_memo import SHARED_MEMO
from repro.terms.term import intern_stats, set_interning
from repro.workloads import APPEND

POLY_CORPUS = "examples/corpus/lint/polytypes.tlp"

#: (setter returning the previous setting, getter)
SWITCHES = [
    pytest.param(
        (AUTOMATA.set_enabled, lambda: AUTOMATA.enabled), id="--no-automata"
    ),
    pytest.param(
        (set_interning, lambda: intern_stats().enabled), id="--no-intern"
    ),
    pytest.param(
        (SHARED_MEMO.set_enabled, lambda: SHARED_MEMO.enabled),
        id="--no-shared-memo",
    ),
]


@pytest.fixture()
def append_file(tmp_path):
    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    return str(path)


def _lint_switched_off(switch, argv):
    setter, enabled = switch
    previous = setter(False)
    try:
        assert enabled() is False
        code = main(argv)
        assert enabled() is False
    finally:
        setter(previous)
    assert enabled() is True
    return code


@pytest.mark.parametrize("switch", SWITCHES)
def test_flag_output_is_byte_identical(append_file, capsys, switch):
    baseline_code = main([append_file])
    baseline = capsys.readouterr().out
    assert _lint_switched_off(switch, [append_file]) == baseline_code
    assert capsys.readouterr().out == baseline


@pytest.mark.parametrize("switch", SWITCHES)
def test_flag_parity_on_the_polytypes_corpus(capsys, switch):
    # The solver leans on the subtype engine the hardest — its findings
    # must not depend on automata/interning/memo availability.
    baseline_code = main([POLY_CORPUS])
    baseline = capsys.readouterr().out
    assert "TLP601" in baseline
    assert _lint_switched_off(switch, [POLY_CORPUS]) == baseline_code
    assert capsys.readouterr().out == baseline
