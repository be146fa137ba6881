"""The automata store's enabled flag as the observability surface shows
it: ``--stats`` lines, daemon gauges and ``health``.  The flag is set
through the library setter, ``AUTOMATA.set_enabled``; library-level
verdict parity with the store off lives in
``tests/checker/test_switch_parity.py``."""

from repro import obs
from repro.core.automata import AUTOMATA
from repro.service.daemon import CheckService
from repro.workloads import APPEND


def test_tlp_check_accepts_and_restores_flag(tmp_path, capsys):
    from repro.checker.cli import main

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    previous = AUTOMATA.set_enabled(False)
    try:
        assert main([str(path)]) == 0
        # tlp-check runs with the store as the caller left it.
        assert AUTOMATA.enabled is False
    finally:
        AUTOMATA.set_enabled(previous)
    switched_off = capsys.readouterr().out
    assert main([str(path)]) == 0
    assert AUTOMATA.enabled is previous
    # Verdict and report are byte-identical either way.
    assert capsys.readouterr().out == switched_off


def test_tlp_check_stats_reports_automata_state(tmp_path, capsys):
    from repro.checker.cli import main

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    previous = AUTOMATA.set_enabled(False)
    try:
        assert main([str(path), "--stats"]) == 0
    finally:
        AUTOMATA.set_enabled(previous)
    assert "tree automata: disabled" in capsys.readouterr().out
    assert main([str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "tree automata:" in out and "compiled scope(s)" in out


# -- observability -------------------------------------------------------------


def test_runtime_stats_lines_cover_automata():
    lines = obs.runtime_stats_lines()
    assert any(line.startswith("tree automata:") for line in lines)
    previous = AUTOMATA.set_enabled(False)
    try:
        assert "tree automata: disabled" in obs.runtime_stats_lines()
    finally:
        AUTOMATA.set_enabled(previous)


def test_publish_runtime_gauges_exports_automaton_gauges():
    obs.METRICS.enable()
    try:
        from repro.core import SubtypeEngine
        from repro.workloads import paper_universe

        SubtypeEngine(paper_universe())  # ensure at least one scope compiled
        obs.publish_runtime_gauges()
        exposition = obs.prometheus_text()
        assert "tlp_subtype_automaton_enabled" in exposition
        assert "tlp_subtype_automaton_states" in exposition
    finally:
        obs.METRICS.disable()


def test_daemon_health_embeds_automata_stats():
    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    health = service.handle({"op": "health"})["health"]
    automata = health["automata"]
    assert set(automata) >= {
        "enabled",
        "scopes",
        "states",
        "transitions",
        "cache_entries",
        "attachments",
    }
    assert automata["enabled"] == int(AUTOMATA.enabled)


def test_daemon_runtime_gauges_include_automata():
    gauges = CheckService()._runtime_gauges()
    assert "subtype.automaton.enabled" in gauges
    assert "subtype.automaton.scopes" in gauges
