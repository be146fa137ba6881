"""Experiment E7: Theorem 6 (consistency) made observable.

Executes well-typed programs through ``TypedRunner``, re-checking every
resolvent's well-typedness; Theorem 6 says violations are impossible,
and the corollary says every computed answer substitution is type
consistent.
"""

import pytest

from repro.core import TypedRunner
from repro.lang import parse_query
from repro.lp import Database, Query, SLDEngine
from repro.terms import Var, pretty
from repro.workloads import load


def query(text):
    return Query(parse_query(text).body)


@pytest.fixture(scope="module")
def append_module():
    return load("append")


@pytest.fixture(scope="module")
def list_module():
    return load("list_library")


@pytest.fixture(scope="module")
def arithmetic_module():
    return load("naturals_arithmetic")


def run(module, goal_query, **options):
    """Execute with resolvent and answer re-checking."""
    runner = TypedRunner(module.checker, module.program)
    return runner.run(goal_query, check_answers=True, **options)


# -- Theorem 6 on the paper's append ------------------------------------------------


def test_append_execution_consistent(append_module):
    result = run(append_module, query(":- app(cons(nil, nil), cons(nil, nil), R)."))
    assert len(result.answers) == 1
    assert result.steps >= 2
    assert result.ok, result.violations


def test_append_backwards_consistent(append_module):
    result = run(append_module, query(":- app(X, Y, cons(nil, cons(nil, nil)))."))
    assert len(result.answers) == 3
    assert result.ok


def test_deep_append_consistent(append_module):
    from repro.terms import Struct

    # Build a longer list over the list-only universe (elements nil).
    def nil_list(n):
        term = Struct("nil", ())
        for _ in range(n):
            term = Struct("cons", (Struct("nil", ()), term))
        return term

    result = run(append_module, Query((Struct("app", (nil_list(15), nil_list(5), Var("R"))),)))
    assert len(result.answers) == 1
    assert result.steps >= 16
    assert result.ok


# -- arithmetic workloads -----------------------------------------------------------------


def test_plus_consistent(arithmetic_module):
    result = run(arithmetic_module, query(":- plus(succ(succ(0)), succ(0), R)."))
    assert len(result.answers) == 1
    assert pretty(result.answers[0].apply(Var("R"))) == "succ(succ(succ(0)))"
    assert result.ok


def test_times_consistent(arithmetic_module):
    result = run(arithmetic_module, query(":- times(succ(succ(0)), succ(succ(0)), R)."))
    assert pretty(result.answers[0].apply(Var("R"))) == "succ(succ(succ(succ(0))))"
    assert result.ok


def test_nondeterministic_le_consistent(arithmetic_module):
    result = run(arithmetic_module, query(":- le(N, succ(succ(0)))."), max_answers=3)
    assert len(result.answers) == 3
    assert result.ok


def test_int2nat_filters(arithmetic_module):
    accepted = run(arithmetic_module, query(":- int2nat(succ(0), Y)."))
    assert len(accepted.answers) == 1
    rejected = run(arithmetic_module, query(":- int2nat(pred(0), Y)."))
    assert rejected.answers == []
    assert accepted.ok and rejected.ok


# -- the list library ------------------------------------------------------------------------


def test_list_library_queries_consistent(list_module):
    cases = [
        ":- len(cons(0, cons(0, nil)), N).",
        ":- reverse(cons(0, cons(succ(0), nil)), R).",
        ":- member(X, cons(0, cons(succ(0), nil))).",
        ":- sum(cons(succ(0), cons(succ(0), nil)), N).",
        ":- last(cons(0, cons(succ(0), nil)), X).",
    ]
    for text in cases:
        result = run(list_module, query(text))
        assert result.answers, text
        assert result.ok, (text, result.violations)


def test_answers_are_type_consistent(list_module):
    # The corollary of Theorem 6: instantiate the query with each answer
    # and re-check.
    result = run(list_module, query(":- member(X, cons(0, cons(succ(0), nil)))."))
    assert len(result.answers) >= 2
    assert not result.answer_violations


# -- guard rails ------------------------------------------------------------------------------


def test_ill_typed_query_refused(append_module):
    # Admitting a query is the checker's job: tlp-check and the REPL
    # consult it before any typed run.
    report = append_module.checker.check_query(query(":- app(nil, 0, 0)."))
    assert not report.well_typed


def test_checks_can_be_disabled_for_benchmarks(append_module):
    # The E7 baseline is the stock SLD engine, called directly; the typed
    # run finds the same answers.
    goal_query = query(":- app(cons(nil, nil), nil, R).")
    plain = list(SLDEngine(Database(append_module.program)).solve(goal_query.goals))
    result = TypedRunner(append_module.checker, append_module.program).run(goal_query)
    assert len(plain) == 1
    assert [str(answer) for answer in result.answers] == [str(answer) for answer in plain]
    assert result.ok and not result.answer_violations
