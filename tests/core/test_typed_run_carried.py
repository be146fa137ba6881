"""Theorem 6's construction against the full check, resolvent by resolvent.

``TypedRunner`` carries each accepted resolvent's Definition 16 witness
to the next step and re-matches only the goals that are new or changed
(``WellTypedChecker.check_resolvent`` with ``parent``/``clause``/``mgu``).
Here every resolvent of every query is judged twice — by the carried
check and by the full ``check_resolvent`` — and the verdicts must agree.
A carried acceptance must also exhibit a genuine witness: per goal, ``η``
applied to the declared type is the committed type, the typing is what
plain Definition 13 ``match`` computes under it, and the typings agree
(Definition 12).  Whole runs are compared as well: answers, steps and
violations are the same with carrying on and off.

Inputs: the generated ``synthetic_list_program`` family and the
``repro.workloads`` programs under seeded random queries,
``examples/programs/*.tlp``, the E7 contrapositive cases, and forged steps
in which a corrupted clause is resolved under its well-typed twin's
typing — there the construction must fail to verify, so a check that
skipped re-matching new or changed goals would accept what the full
check rejects.
"""

import random
import re
from pathlib import Path

import pytest

from repro import obs
from repro.checker import check_text
from repro.core import ModedWellTypedChecker, PredicateTypeEnv, TypedRunner, WellTypedChecker
from repro.core.typing import agreeing_union
from repro.lang import parse_atom, parse_clause, parse_query
from repro.lp import Clause, Program, Query
from repro.terms import Substitution
from repro.workloads import SOURCES, paper_universe
from repro.workloads.generators import synthetic_list_program

from .test_consistency_contrapositive import DECLARATIONS, E7_CASES

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

#: Bounds that keep backward-mode and generate-and-test queries finite.
RUN = {"max_answers": 6, "depth_limit": 80}


class Differential:
    """The runner's checker, judging every carried step by both checks."""

    def __init__(self, inner):
        self.inner = inner
        self.strict = inner.strict if isinstance(inner, ModedWellTypedChecker) else inner
        self.steps = 0  # resolvents with a parent witness to carry
        self.carried = 0  # ... decided by the carried witness
        self.rejected = 0  # ... rejected by the full check
        self.mismatches = []

    def clause_typing(self, clause):
        return self.inner.clause_typing(clause)

    def check_resolvent(self, goals, parent=None, clause=None, mgu=None):
        full = self.inner.check_resolvent(goals)
        if parent is None:
            return full
        report = self.inner.check_resolvent(goals, parent, clause, mgu)
        self.steps += 1
        self.rejected += not full.well_typed
        strict = report.strict_report if isinstance(self.inner, ModedWellTypedChecker) else report
        if strict is not None and strict.carried:
            self.carried += 1
            self._audit(tuple(goals), strict.witness)
        if report.well_typed != full.well_typed:
            self.mismatches.append((goals, full.reason))
        return report

    def _audit(self, goals, witness):
        """The carried witness is a Definition 16 witness for ``goals``."""
        assert witness.goals == goals
        types = self.strict.predicate_types
        for goal, eta, committed, typing in zip(
            goals, witness.etas, witness.committed, witness.typings
        ):
            assert eta.apply(types.type_of(goal)) == committed
            assert typing == self.strict.matcher.match(committed, goal)
            assert isinstance(typing, Substitution)
        union = agreeing_union(witness.typings)
        assert union is not None
        assert all(witness.merged.get(var) == value for var, value in union.items())


class FullOnly:
    """The runner's checker with nothing carried: every step runs the full check."""

    def __init__(self, inner):
        self.inner = inner

    def clause_typing(self, clause):
        return None

    def check_resolvent(self, goals, parent=None, clause=None, mgu=None):
        return self.inner.check_resolvent(goals)


def _canonical(text):
    """Fresh variables renumbered by first occurrence: their numbers depend
    on how many the checks drew."""
    names = {}
    return re.sub(
        r"_[A-Z]\d+", lambda m: names.setdefault(m.group(), f"_V{len(names)}"), text
    )


def _outcome(result):
    return (
        [_canonical(str(answer)) for answer in result.answers],
        result.steps,
        [(v.step, v.render()) for v in result.violations],
        [(str(answer), _canonical(reason)) for answer, reason in result.answer_violations],
    )


def differential_run(checker, program, query, **options):
    """Run ``query`` judged by both checks; the same run with nothing
    carried must give the same outcome.  Returns the differential."""
    differential = Differential(checker)
    carried = TypedRunner(differential, program).run(query, **options)
    full = TypedRunner(FullOnly(checker), program).run(query, **options)
    assert not differential.mismatches, differential.mismatches[:3]
    assert _outcome(carried) == _outcome(full)
    return differential


def module_runs(text, queries, **options):
    module = check_text(text)
    checker = module.moded_checker or module.checker
    assert checker is not None, module.diagnostics.render()
    totals = [0, 0]
    for query_text in queries:
        query = Query(parse_query(query_text).body)
        differential = differential_run(checker, module.program, query, **options)
        totals[0] += differential.steps
        totals[1] += differential.carried
    return totals


# -- seeded random queries over generated and library programs --------------------


def _nat(n):
    return "succ(" * n + "0" + ")" * n


def _int(rng):
    n = rng.randrange(4)
    return _nat(n) if rng.random() < 0.6 else "pred(" * n + "0" + ")" * n


def _list(items):
    text = "nil"
    for item in reversed(items):
        text = f"cons({item}, {text})"
    return text


def _element(rng, depth=0):
    """A list element: a nat, an int, a nested list or a variable."""
    roll = rng.random()
    if roll < 0.45:
        return _nat(rng.randrange(4))
    if roll < 0.6:
        return _int(rng)
    if roll < 0.75 and depth < 2:
        return _list([_element(rng, depth + 1) for _ in range(rng.randrange(3))])
    return rng.choice(["E", "F"])


def _typed_list(rng, size):
    """A list whose elements share one type (else nothing could type it)."""
    kind = rng.random()
    if kind < 0.4:
        return _list([_nat(rng.randrange(4)) for _ in range(size)])
    if kind < 0.6:
        return _list([_int(rng) for _ in range(size)])
    if kind < 0.8:
        return _list([_list([_nat(rng.randrange(3))] * rng.randrange(2)) for _ in range(size)])
    return _list([_element(rng) for _ in range(size)])


def _nil_lists(rng, size, depth=0):
    """A list over the synthetic program's ``nil``/``cons`` universe."""
    items = [
        _nil_lists(rng, rng.randrange(3), depth + 1) if depth < 2 and rng.random() < 0.5 else "nil"
        for _ in range(size)
    ]
    if rng.random() < 0.2:
        items.append("E")
    return _list(items)


@pytest.mark.parametrize("seed", range(6))
def test_generated_list_programs(seed):
    rng = random.Random(f"carried:{seed}")
    predicates = 2 + seed % 3
    text = synthetic_list_program(predicates, clauses_per_predicate=1 + seed % 2)
    queries = []
    for _ in range(6):
        p = f"p{rng.randrange(predicates)}"
        a, b = _nil_lists(rng, rng.randrange(5)), _nil_lists(rng, rng.randrange(3))
        queries += [
            f":- {p}({a}, {b}, R).",
            f":- {p}(X, Y, {a}).",
            f":- {p}({a}, Y, R).",
        ]
    steps, carried = module_runs(text, queries, **RUN)
    assert steps and carried


@pytest.mark.parametrize("seed", range(6))
def test_list_library(seed):
    rng = random.Random(f"carried-lists:{seed}")
    queries = []
    for _ in range(4):
        a = _typed_list(rng, rng.randrange(6))
        b = _typed_list(rng, rng.randrange(3))
        nats = _list([_nat(rng.randrange(4)) for _ in range(rng.randrange(5))])
        queries += [
            f":- app({a}, {b}, R).",
            f":- app(X, Y, {a}).",
            f":- reverse({a}, R).",
            f":- member(X, {a}).",
            f":- len({a}, N).",
            f":- last({a}, X).",
            f":- sum({nats}, S).",
            f":- app({a}, Y, R), reverse(R, S).",
        ]
    steps, carried = module_runs(SOURCES["list_library"], queries, **RUN)
    assert steps and carried


@pytest.mark.parametrize("seed", range(4))
def test_arithmetic_and_sorting(seed):
    rng = random.Random(f"carried-nats:{seed}")
    arithmetic = []
    for _ in range(4):
        a, b = _nat(rng.randrange(6)), _nat(rng.randrange(6))
        arithmetic += [
            f":- plus({a}, {b}, R).",
            f":- plus(X, Y, {a}).",
            f":- times({_nat(rng.randrange(4))}, {_nat(rng.randrange(4))}, R).",
            f":- le({a}, {b}).",
            f":- even({a}).",
            f":- int2nat({_int(rng)}, N).",
        ]
    sorting = [
        f":- isort({_list([_nat(rng.randrange(5)) for _ in range(rng.randrange(7))])}, S)."
        for _ in range(4)
    ]
    for name, queries in (("naturals_arithmetic", arithmetic), ("insertion_sort", sorting)):
        steps, carried = module_runs(SOURCES[name], queries, **RUN)
        assert steps and carried


# -- examples/programs ---------------------------------------------------------------


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.tlp")), ids=lambda p: p.name)
def test_example_programs(path):
    module = check_text(path.read_text(encoding="utf-8"))
    checker = module.moded_checker or module.checker
    runnable = [
        query
        for query in module.queries
        if not any(goal.functor == ":" and len(goal.args) == 2 for goal in query.goals)
    ]
    for query in runnable:
        differential_run(checker, module.program, query, check_answers=True, **RUN)
        differential_run(
            checker, module.program, query, abort_on_violation=False, check_answers=True, **RUN
        )


def test_ill_moded_run_aborts_at_the_same_step():
    # The TLP590 scenario of ``--typed-run``: a five-step countdown, then
    # an OUT int flowing into an IN nat consumer.
    text = (EXAMPLES / "modes.tlp").read_text(encoding="utf-8") + (
        "PRED down(nat).\nMODE down(IN).\ndown(0).\ndown(succ(N)) :- down(N).\n"
        "PRED makeint(int).\nMODE makeint(OUT).\nmakeint(pred(0)).\n"
        "PRED usenat(nat).\nMODE usenat(IN).\nusenat(0).\n"
        "PRED relay(nat).\nMODE relay(IN).\nrelay(0) :- makeint(X), usenat(X).\n"
    )
    module = check_text(text)
    query = Query(parse_query(":- down(succ(succ(succ(0)))), relay(0).").body)
    differential = differential_run(module.moded_checker, module.program, query)
    assert differential.carried
    result = TypedRunner(module.moded_checker, module.program).run(query)
    assert result.violation.step == 5


# -- the E7 contrapositive cases ----------------------------------------------------------


def _e7_checker():
    cset = paper_universe()
    env = PredicateTypeEnv(cset)
    for decl in DECLARATIONS:
        env.declare(parse_atom(decl))
    return WellTypedChecker(cset, env)


def _clause(text):
    parsed = parse_clause(text)
    return Clause(parsed.head, parsed.body)


@pytest.mark.parametrize("name", sorted(E7_CASES))
def test_e7_contrapositive_cases(name):
    clauses, query_text = E7_CASES[name]
    program = Program([_clause(text) for text in clauses])
    query = Query(parse_query(query_text).body)
    differential_run(
        _e7_checker(), program, query, abort_on_violation=False, check_answers=True
    )


#: A corrupted clause, the well-typed twin whose typing it is run under,
#: and a query whose second step resolves the corrupted clause.
FORGED = {
    # The new body goal app(nil, nil, 0) is ill-typed.
    "new goal": (
        "app(cons(X,L), M, cons(X,N)) :- app(L, M, 0).",
        "app(cons(X,L), M, cons(X,N)) :- app(L, M, N).",
        ":- app(nil, nil, R0), app(cons(nil,nil), nil, S).",
    ),
    # The kept goal q(R) turns into the ill-typed q(0).
    "changed goal": (
        "app(nil, L, 0).",
        "app(nil, L, L).",
        ":- app(nil, nil, R0), app(nil, nil, R), q(R).",
    ),
}


@pytest.mark.parametrize("name", sorted(FORGED))
def test_a_forged_clause_typing_does_not_verify(name):
    corrupted_text, twin_text, query_text = FORGED[name]
    corrupted, twin = _clause(corrupted_text), _clause(twin_text)
    base = [_clause("app(nil, L, L)."), _clause("q(nil).")]
    checker = _e7_checker()
    assert checker.clause_typing(corrupted) is None
    differential = Differential(checker)
    runner = TypedRunner(differential, Program(base + [corrupted]))
    runner._clause_typings[corrupted] = checker.clause_typing(twin)
    result = runner.run(Query(parse_query(query_text).body), abort_on_violation=False)
    assert not differential.mismatches
    assert differential.rejected, "the corrupted step must reach the full check"
    assert result.violations


def test_counters_split_carried_and_fallback_steps():
    module = check_text(SOURCES["list_library"])
    runner = TypedRunner(module.checker, module.program)
    query = Query(parse_query(f":- reverse({_list([_nat(2)] * 5)}, R).").body)
    obs.reset()
    with obs.collect() as (metrics, _):
        result = runner.run(query)
    counters = metrics.snapshot()["counters"]
    # The query's own check seeds the first step; every resolvent but the
    # empty one (never checked) is then carried.
    assert counters.get("typed_run.fallbacks", 0) == 0
    assert counters["typed_run.carried"] == result.steps - 1
    # A clause that is only directionally well-moded has no strict
    # witness to carry: its resolvent falls back to the full check.
    module = check_text((EXAMPLES / "modes.tlp").read_text(encoding="utf-8"))
    runner = TypedRunner(module.moded_checker, module.program)
    obs.reset()
    with obs.collect() as (metrics, _):
        for query in module.queries:
            assert runner.run(query).ok
    counters = metrics.snapshot()["counters"]
    assert counters["typed_run.carried"] == 1
    assert counters["typed_run.fallbacks"] == 2
