"""Pipeline instrumentation: counters fire, events nest, and —
critically — observability changes no verdicts (the differential half of
the < 5% overhead contract)."""

from repro import check_text, obs
from repro.core import (
    Matcher,
    NaiveSubtypeProver,
    SubtypeEngine,
    TypedRunner,
)
from repro.lang import parse_term as T
from repro.workloads import load, nat_list, paper_universe

APPEND_QUERY_SOURCE = """
FUNC nil, cons, foo.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A, list(A)).
list(A) >= elist + nelist(A).
PRED app(list(A), list(A), list(A)).
app(nil, L, L).
app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
:- app(cons(foo, nil), cons(foo, nil), X).
"""


def run_pipeline():
    """One fixed pass over every instrumented subsystem; returns verdicts."""
    cset = paper_universe()
    engine = SubtypeEngine(cset)
    verdicts = [
        engine.holds(T("nat"), T("succ(succ(0))")),
        engine.holds(T("nat"), T("pred(0)")),
        engine.holds(T("list(A)"), T("cons(foo,nil)")),
    ]
    matcher = Matcher(cset)
    verdicts.append(str(matcher.match(T("list(nat)"), nat_list(3))))
    naive = NaiveSubtypeProver(cset, max_depth=10, step_limit=4_000)
    verdicts.append(naive.holds(T("nat"), T("succ(0)")))
    verdicts.append(naive.holds(T("nat"), T("pred(0)")))
    module = check_text(APPEND_QUERY_SOURCE)
    verdicts.append(module.ok)
    runner = TypedRunner(module.checker, module.program)
    result = runner.run(module.queries[0], max_answers=4, check_answers=True)
    verdicts.append(sorted(str(answer) for answer in result.answers))
    verdicts.append(result.ok)
    verdicts.append(result.steps)
    return verdicts


def test_observability_changes_no_verdicts():
    baseline = run_pipeline()
    with obs.collect():
        observed = run_pipeline()
    again = run_pipeline()  # after restore
    assert observed == baseline
    assert again == baseline


def test_counters_cover_every_subsystem():
    with obs.collect() as (metrics, _):
        run_pipeline()
    counters = metrics.snapshot()["counters"]
    for name in (
        "subtype.goals",
        "subtype.true",
        "subtype.false",
        "match.calls",
        "naive.goals",
        "naive.unknown",
        "sld.runs",
        "sld.steps",
        "checker.modules_checked",
        "checker.clauses_checked",
        "typed_run.queries",
        "typed_run.steps",
    ):
        assert counters.get(name, 0) > 0, f"counter {name} never fired"
    timers = metrics.snapshot()["timers"]
    for name in ("subtype.holds", "match.match", "checker.check_source", "typed_run.query"):
        assert name in timers, f"timer {name} never fired"


def test_trace_event_kinds_and_nesting():
    with obs.collect() as (_, sink):
        run_pipeline()
    kinds = {event.kind for event in sink.events}
    assert {"subtype_goal", "match_call", "sld_step", "typed_run_step", "phase"} <= kinds
    by_id = {event.span_id for event in sink.events}
    assert len(by_id) == len(sink.events)  # every event a fresh span id
    # SLD steps of the typed query nest under its typed_run phase.
    phases = [e for e in sink.events if e.kind == "phase" and e.name == "typed_run"]
    assert phases
    steps = [e for e in sink.events if e.kind == "sld_step"]
    assert steps
    assert any(step.parent_id == phase.span_id for step in steps for phase in phases)


def test_subtype_goal_events_carry_results():
    with obs.collect() as (_, sink):
        SubtypeEngine(paper_universe()).holds(T("nat"), T("succ(0)"))
        SubtypeEngine(paper_universe()).holds(T("nat"), T("pred(0)"))
    goals = [e for e in sink.events if e.kind == "subtype_goal"]
    assert [goal.result for goal in goals] == [True, False]
    assert goals[0].supertype == "nat"
    assert goals[0].subtype == "succ(0)"
    assert goals[1].reason == "no_refutation"
    assert all(goal.dur is not None for goal in goals)


def test_naive_events_carry_exhaustion_reason():
    with obs.collect() as (metrics, sink):
        prover = NaiveSubtypeProver(paper_universe(), max_depth=8, step_limit=4_000)
        verdict = prover.holds_detailed(T("nat"), T("pred(0)"))
    assert verdict.verdict is None
    [goal] = [e for e in sink.events if e.kind == "subtype_goal"]
    assert goal.engine == "naive"
    assert goal.result is None
    assert goal.reason == verdict.exhaustion in ("depth", "steps")
    counters = metrics.snapshot()["counters"]
    assert counters["naive.unknown"] == 1
    assert counters[f"naive.exhausted_{verdict.exhaustion}"] == 1


def test_cache_probe_hits_after_memoisation():
    with obs.collect() as (_, sink):
        engine = SubtypeEngine(paper_universe())
        engine.contains(T("nat"), T("succ(succ(0))"))
        engine.contains(T("nat"), T("succ(succ(0))"))  # memoised now
    probes = [e for e in sink.events if e.kind == "cache_probe"]
    assert any(probe.hit for probe in probes)
    assert any(not probe.hit for probe in probes)


def test_summary_round_trips_through_json():
    import json

    with obs.collect():
        run_pipeline()
    data = json.loads(json.dumps(obs.summary()))
    assert data["counters"]["subtype.goals"] > 0
