"""The typed expression interpreter, differentially tested against a
Python reference evaluator on randomly generated expressions."""

import random

import pytest

from repro import TypedRunner, pretty
from repro.lang import parse_query
from repro.lp import Query
from repro.terms import Var
from repro.workloads import load


@pytest.fixture(scope="module")
def module():
    return load("expression_interpreter")


@pytest.fixture(scope="module")
def runner(module):
    return TypedRunner(module.checker, module.program)


def peano(n: int) -> str:
    text = "0"
    for _ in range(n):
        text = f"succ({text})"
    return text


def from_peano(text: str) -> int:
    return text.count("succ")


# -- a Python reference implementation -----------------------------------------------


def random_aexp(rng: random.Random, depth: int):
    """Return (source_text, value) pairs built by structural recursion."""
    if depth == 0 or rng.random() < 0.3:
        n = rng.randint(0, 3)
        return f"lit({peano(n)})", n
    choice = rng.choice(["add", "mul", "if_e"])
    if choice == "add":
        left_text, left = random_aexp(rng, depth - 1)
        right_text, right = random_aexp(rng, depth - 1)
        return f"add({left_text}, {right_text})", left + right
    if choice == "mul":
        left_text, left = random_aexp(rng, depth - 1)
        right_text, right = random_aexp(rng, depth - 1)
        return f"mul({left_text}, {right_text})", left * right
    cond_text, cond = random_bexp(rng, depth - 1)
    then_text, then_value = random_aexp(rng, depth - 1)
    else_text, else_value = random_aexp(rng, depth - 1)
    return (
        f"if_e({cond_text}, {then_text}, {else_text})",
        then_value if cond else else_value,
    )


def random_bexp(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.4:
        value = rng.random() < 0.5
        return ("tt" if value else "ff"), value
    left_text, left = random_aexp(rng, depth - 1)
    right_text, right = random_aexp(rng, depth - 1)
    return f"leq({left_text}, {right_text})", left <= right


def evaluate(runner, text: str):
    query = Query(parse_query(f":- aeval({text}, R).").body)
    result = runner.run(query, max_answers=2)
    assert result.ok, text
    assert len(result.answers) == 1, text  # evaluation is deterministic
    return from_peano(pretty(result.answers[0].apply(Var("R"))))


# -- tests ------------------------------------------------------------------------------


def test_program_is_well_typed(module):
    assert module.ok
    assert len(module.program) == 17


def test_simple_evaluations(runner):
    assert evaluate(runner, f"lit({peano(3)})") == 3
    assert evaluate(runner, f"add(lit({peano(1)}), lit({peano(2)}))") == 3
    assert evaluate(runner, f"mul(lit({peano(2)}), lit({peano(3)}))") == 6


def test_conditionals(runner):
    text = f"if_e(leq(lit({peano(1)}), lit({peano(2)})), lit({peano(7)}), lit({peano(0)}))"
    assert evaluate(runner, text) == 7
    text = f"if_e(leq(lit({peano(3)}), lit({peano(2)})), lit({peano(7)}), lit({peano(1)}))"
    assert evaluate(runner, text) == 1


def test_boolean_evaluation(runner):
    query = Query(parse_query(f":- beval(leq(lit({peano(2)}), lit({peano(2)})), B).").body)
    result = runner.run(query)
    assert pretty(result.answers[0].apply(Var("B"))) == "tt"


def test_differential_against_reference(runner):
    rng = random.Random(42)
    for _ in range(25):
        text, expected = random_aexp(rng, 3)
        assert evaluate(runner, text) == expected, text


def test_execution_is_consistent(runner):
    query = Query(
        parse_query(
            f":- aeval(mul(add(lit({peano(1)}), lit({peano(1)})), lit({peano(2)})), R)."
        ).body
    )
    result = runner.run(query, check_answers=True)
    assert result.ok
    assert result.steps > 5


def test_ill_typed_queries_rejected(module):
    for text in [
        ":- aeval(tt, R).",
        ":- beval(lit(0), B).",
        ":- aeval(lit(0), lit(0)).",
        ":- aeval(if_e(lit(0), lit(0), lit(0)), R).",
        ":- aeval(add(tt, lit(0)), R).",
    ]:
        report = module.checker.check_query(Query(parse_query(text).body))
        assert not report.well_typed, text


def test_ast_types_partition(module):
    from repro.core import SubtypeEngine
    from repro.lang import parse_term as T

    engine = SubtypeEngine(module.constraints)
    assert engine.contains(T("aexp"), T("lit(0)"))
    assert engine.contains(T("bexp"), T("leq(lit(0), lit(0))"))
    assert not engine.contains(T("aexp"), T("tt"))
    assert not engine.contains(T("bexp"), T("lit(0)"))
    # tt is both a bexp and a bool (truth value) — by design.
    assert engine.contains(T("bool"), T("tt"))
