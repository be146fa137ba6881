"""Insertion sort under the type discipline, differentially tested
against Python's ``sorted`` on random nat lists."""

import random

import pytest

from repro import TypedRunner, pretty
from repro.lang import parse_query
from repro.lp import Query
from repro.terms import Struct, Var
from repro.workloads import load


@pytest.fixture(scope="module")
def module():
    return load("insertion_sort")


@pytest.fixture(scope="module")
def runner(module):
    return TypedRunner(module.checker, module.program)


def peano(n: int) -> Struct:
    term = Struct("0", ())
    for _ in range(n):
        term = Struct("succ", (term,))
    return term


def nat_list_term(values):
    term = Struct("nil", ())
    for value in reversed(values):
        term = Struct("cons", (peano(value), term))
    return term


def decode_list(term) -> list:
    out = []
    while term.functor == "cons":
        head, term = term.args
        count = 0
        while head.functor == "succ":
            count += 1
            head = head.args[0]
        out.append(count)
    return out


def sort_with_prolog(runner, values):
    goal = Struct("isort", (nat_list_term(values), Var("S")))
    result = runner.run(Query((goal,)), max_answers=1, check_answers=True)
    assert len(result.answers) == 1, values
    assert result.ok
    return decode_list(result.answers[0].apply(Var("S")))


def test_program_well_typed(module):
    assert module.ok
    assert len(module.program) == 9


def test_sorts_small_lists(runner):
    assert sort_with_prolog(runner, []) == []
    assert sort_with_prolog(runner, [2]) == [2]
    assert sort_with_prolog(runner, [3, 1, 2]) == [1, 2, 3]
    assert sort_with_prolog(runner, [1, 1, 0]) == [0, 1, 1]


def test_differential_against_sorted(runner):
    rng = random.Random(17)
    for _ in range(20):
        values = [rng.randint(0, 6) for _ in range(rng.randint(0, 7))]
        assert sort_with_prolog(runner, values) == sorted(values)


def test_sorting_execution_consistent(runner):
    # Theorem 6 observed on a multi-clause nondeterministic program.
    assert sort_with_prolog(runner, [2, 0, 1]) == [0, 1, 2]


def test_untyped_query_rejected(module):
    report = module.checker.check_query(
        Query(parse_query(":- isort(cons(nil, nil), S).").body)
    )
    assert not report.well_typed  # a list of lists is not a list(nat)
