"""Experiment E7: the cost of observing Theorem 6.

Theorem 6 makes run-time checks redundant for well-typed programs;
:class:`~repro.core.typed_run.TypedRunner` re-checks every resolvent
anyway so the theorem can be *observed*.  These benchmarks measure what
that observation costs: plain SLD execution (the stock engine, called
directly) versus execution with per-resolvent Definition 16 checks,
across derivation lengths.  Expected shape: a constant factor per
resolution step (each re-check is one clause-sized match + solve).

Run:  pytest benchmarks/bench_consistency.py --benchmark-only
"""

import pytest

from repro.core import TypedRunner
from repro.lp import Database, Query, SLDEngine
from repro.terms import Struct, Var
from repro.workloads import load

LENGTHS = [4, 16, 64]


def nil_list(length: int):
    term = Struct("nil", ())
    for _ in range(length):
        term = Struct("cons", (Struct("nil", ()), term))
    return term


def append_query(length: int) -> Query:
    return Query((Struct("app", (nil_list(length), nil_list(1), Var("R"))),))


@pytest.fixture(scope="module")
def append_module():
    return load("append")


@pytest.fixture(scope="module")
def append_runner(append_module):
    return TypedRunner(append_module.checker, append_module.program)


@pytest.mark.parametrize("length", LENGTHS)
def test_plain_execution(benchmark, append_module, length):
    query = append_query(length)
    database = Database(append_module.program)

    def run():
        return list(SLDEngine(database).solve(query.goals))

    answers = benchmark(run)
    assert len(answers) == 1


@pytest.mark.parametrize("length", LENGTHS)
def test_checked_execution(benchmark, append_runner, length):
    query = append_query(length)

    def run():
        return append_runner.run(query, check_answers=True)

    result = benchmark(run)
    assert len(result.answers) == 1
    assert result.ok
    assert result.steps >= length


def test_nondeterministic_checked(benchmark, append_runner):
    """Backwards append: every split's derivation is checked."""
    query = Query((Struct("app", (Var("X"), Var("Y"), nil_list(8))),))

    def run():
        return append_runner.run(query, check_answers=True)

    result = benchmark(run)
    assert len(result.answers) == 9
    assert result.ok


def test_arithmetic_checked(benchmark):
    module = load("naturals_arithmetic")
    runner = TypedRunner(module.checker, module.program)
    from repro.lang import parse_query

    query = Query(parse_query(":- times(succ(succ(succ(0))), succ(succ(0)), R).").body)

    def run():
        return runner.run(query, check_answers=True)

    result = benchmark(run)
    assert result.ok
