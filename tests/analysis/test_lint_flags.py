"""``tlp-lint`` output does not depend on the subtype fast paths.

The compiled tree automata and the shared subtype memo are turned off
for one run through the ``fast_path_off`` fixture (the CLI has no flags
for them).  With each one off, ``tlp-lint`` must print byte-identical
findings and exit with the same code.  Case ids name the ablation.

Lint builds its subtype engine without the shared memo, so the
shared-memo case also pins that lint never consults that store.
"""

import pytest

from repro.analysis.cli import main
from repro.workloads import APPEND

POLY_CORPUS = "examples/corpus/lint/polytypes.tlp"

#: (fast path, whether lint consults its store)
SWITCHES = [
    pytest.param(("automata", True), id="--no-automata"),
    pytest.param(("shared_memo", False), id="--no-shared-memo"),
]


@pytest.fixture()
def append_file(tmp_path):
    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    return str(path)


@pytest.mark.parametrize("switch", SWITCHES)
def test_flag_output_is_byte_identical(append_file, capsys, switch, fast_path_off):
    path, consulted = switch
    baseline_code = main([append_file])
    baseline = capsys.readouterr().out
    with fast_path_off(path) as asked:
        assert main([append_file]) == baseline_code
    assert bool(asked) is consulted
    assert capsys.readouterr().out == baseline


@pytest.mark.parametrize("switch", SWITCHES)
def test_flag_parity_on_the_polytypes_corpus(capsys, switch, fast_path_off):
    # The solver leans on the subtype engine the hardest — its findings
    # must not depend on automata/memo availability.
    baseline_code = main([POLY_CORPUS])
    baseline = capsys.readouterr().out
    assert "TLP601" in baseline
    path, consulted = switch
    with fast_path_off(path) as asked:
        assert main([POLY_CORPUS]) == baseline_code
    assert bool(asked) is consulted
    assert capsys.readouterr().out == baseline
