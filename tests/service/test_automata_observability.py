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
    assert " computed, " in out and "flush(es)" in out


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
        assert "tlp_subtype_automaton_flushes" in exposition
        assert "tlp_subtype_automaton_transitions_computed" in exposition
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
        "flushes",
        "transitions_computed",
    }
    assert automata["scopes"] >= 1


def test_daemon_runtime_gauges_include_automata():
    gauges = CheckService()._runtime_gauges()
    assert "subtype.automaton.scopes" in gauges
    assert "subtype.automaton.states" in gauges
    assert "subtype.automaton.flushes" in gauges
    assert "subtype.automaton.transitions_computed" in gauges


def test_store_stats_add_up_flushes_and_computed_transitions():
    from repro.core.automata import AutomataStore
    from repro.lang import parse_term
    from repro.workloads import deep_nat, paper_universe

    store = AutomataStore()
    automaton = store.automaton_for(paper_universe())
    automaton.holds(parse_term("nat"), deep_nat(4))
    automaton.holds(parse_term("list(nat)"), parse_term("cons(0, nil)"))
    per = automaton.stats()
    total = store.stats()
    assert per["flushes"] > 0  # list(nat) grew the universe
    assert total["flushes"] == per["flushes"]
    assert total["transitions_computed"] == per["transitions_computed"]
    # Every live transition was computed; a flush discarded the others.
    assert total["transitions_computed"] > total["transitions"] > 0


def test_tlp_lint_stats_reports_automaton_gauges(capsys):
    import re

    from repro.analysis.cli import main

    assert main(["--stats", "examples/corpus/lint"]) == 1  # seeded defects
    err = capsys.readouterr().err

    def gauge(name):
        found = re.search(rf"^\s*subtype\.automaton\.{name}\s+([\d,]+)\s*$", err, re.M)
        assert found, f"subtype.automaton.{name} missing from --stats"
        return int(found.group(1).replace(",", ""))

    assert gauge("flushes") > 0
    assert gauge("transitions_computed") >= gauge("transitions") > 0


def test_match_decided_is_counted_summed_and_published():
    from repro.core.automata import AUTOMATA, AutomataStore
    from repro.lang import parse_term
    from repro.workloads import nat_list, paper_universe

    store = AutomataStore()
    automaton = store.automaton_for(paper_universe())
    automaton.match_ground(parse_term("list(nat)"), nat_list(8))
    automaton.match_ground(parse_term("nat"), parse_term("nil"), constraint_mode=True)
    per = automaton.stats()
    assert per["match_calls"] == per["match_decided"] == 2
    assert store.stats()["match_decided"] == 2

    service = CheckService()
    service.handle({"op": "check", "text": APPEND})
    total = AUTOMATA.stats()["match_decided"]
    assert total > 0
    assert service._runtime_gauges()["subtype.automaton.match_decided"] == total
    assert service.handle({"op": "health"})["health"]["automata"]["match_decided"] == total
    assert any(
        "ground match(es) from node states" in line for line in obs.runtime_stats_lines()
    )
    obs.METRICS.enable()
    try:
        obs.publish_runtime_gauges()
        assert "tlp_subtype_automaton_match_decided" in obs.prometheus_text()
    finally:
        obs.METRICS.disable()


def test_tlp_check_stats_reports_match_decided(tmp_path, capsys):
    import re

    from repro.checker.cli import main

    path = tmp_path / "append.tlp"
    path.write_text(APPEND)
    assert main([str(path), "--stats"]) == 0
    out = capsys.readouterr().out
    found = re.search(r"^\s*subtype\.automaton\.match_decided\s+([\d,]+)\s*$", out, re.M)
    assert found and int(found.group(1).replace(",", "")) > 0
