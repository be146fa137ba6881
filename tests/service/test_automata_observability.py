"""The automata store as the observability surface shows it: ``--stats``
lines, Prometheus gauges, daemon gauges and ``health``.  Verdict parity
with the automata off lives in ``tests/checker/test_switch_parity.py``."""

from repro import obs
from repro.service.daemon import CheckService
from repro.workloads import APPEND


def test_tlp_check_stats_reports_automata_state(tmp_path, capsys):
    from repro.checker.cli import main

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    assert main([str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "tree automata:" in out and "compiled scope(s)" in out


def test_runtime_stats_lines_cover_automata():
    lines = obs.runtime_stats_lines()
    assert any(line.startswith("tree automata:") for line in lines)
    assert not any(line.endswith(": disabled") for line in lines)


def test_publish_runtime_gauges_exports_automaton_gauges():
    obs.METRICS.enable()
    try:
        from repro.core import SubtypeEngine
        from repro.workloads import paper_universe

        SubtypeEngine(paper_universe())  # ensure at least one scope compiled
        obs.publish_runtime_gauges()
        exposition = obs.prometheus_text()
        assert "tlp_subtype_automaton_scopes" in exposition
        assert "tlp_subtype_automaton_states" in exposition
    finally:
        obs.METRICS.disable()


def test_daemon_health_embeds_automata_stats():
    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    health = service.handle({"op": "health"})["health"]
    automata = health["automata"]
    assert set(automata) >= {
        "scopes",
        "states",
        "transitions",
        "cache_entries",
        "attachments",
    }
    assert automata["scopes"] >= 1


def test_daemon_runtime_gauges_include_automata():
    gauges = CheckService()._runtime_gauges()
    assert "subtype.automaton.scopes" in gauges
    assert "subtype.automaton.states" in gauges
