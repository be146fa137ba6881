"""Experiment E9: the Section 7 IN/OUT modes extension.

The paper's scenario: with ``PRED p(nat)`` and ``PRED q(int)`` the query
``:- p(X), q(X).`` is dangerous because information may flow int → nat
(``q`` instantiating ``X`` to ``pred(0)``).  Modes fix the direction:
``p(OUT nat), q(IN int)`` is safe (nat flows into int), the reverse is
not.
"""

import pytest

from repro.core import (
    DeclarationError,
    IN,
    OUT,
    ModeChecker,
    ModeEnv,
    PredicateTypeEnv,
)
from repro.lang import parse_atom, parse_clause, parse_query
from repro.lp import Clause, Query
from repro.workloads import paper_universe


@pytest.fixture()
def setting():
    cset = paper_universe()
    predicate_types = PredicateTypeEnv(cset)
    for decl in [
        "p(nat)",
        "q(int)",
        "gen(nat)",
        "use(nat)",
        "plus(nat,nat,nat)",
    ]:
        predicate_types.declare(parse_atom(decl))
    modes = ModeEnv()
    return cset, predicate_types, modes


def checker_for(setting):
    cset, predicate_types, modes = setting
    return ModeChecker(cset, predicate_types, modes)


def query(text):
    return Query(parse_query(text).body)


def clause(text):
    parsed = parse_clause(text)
    return Clause(parsed.head, parsed.body)


# -- the paper's example ---------------------------------------------------------


def test_out_nat_into_in_int_accepted(setting):
    cset, predicate_types, modes = setting
    modes.declare("p", [OUT])
    modes.declare("q", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- p(X), q(X)."))
    assert report.ok, [str(v) for v in report.violations]


def test_out_int_into_in_nat_rejected(setting):
    # The wrong direction: an int producer feeding a nat consumer.
    cset, predicate_types, modes = setting
    modes.declare("p", [IN])
    modes.declare("q", [OUT])
    checker = checker_for(setting)
    report = checker.check_query(query(":- q(X), p(X)."))
    assert not report.ok
    violation = report.violations[0]
    assert "int" in violation.reason and "nat" in violation.reason


def test_consumed_before_produced_rejected(setting):
    cset, predicate_types, modes = setting
    modes.declare("p", [OUT])
    modes.declare("q", [IN])
    checker = checker_for(setting)
    # q consumes X before p produced it.
    report = checker.check_query(query(":- q(X), p(X)."))
    assert not report.ok
    assert "before being produced" in report.violations[0].reason


def test_same_type_flow_accepted(setting):
    cset, predicate_types, modes = setting
    modes.declare("gen", [OUT])
    modes.declare("use", [IN])
    checker = checker_for(setting)
    assert checker.check_query(query(":- gen(X), use(X)."))


def test_unmoded_predicates_are_permissive(setting):
    checker = checker_for(setting)
    # Without declarations every body position produces: no violations.
    assert checker.check_query(query(":- p(X), q(X)."))


# -- clause-level checking -----------------------------------------------------------


def test_clause_head_in_produces(setting):
    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    report = checker.check_clause(clause("plus(0, N, N)."))
    assert report.ok, [str(v) for v in report.violations]


def test_clause_recursive_flow(setting):
    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    report = checker.check_clause(
        clause("plus(succ(M), N, succ(K)) :- plus(M, N, K).")
    )
    assert report.ok, [str(v) for v in report.violations]


def test_clause_head_out_must_be_produced(setting):
    cset, predicate_types, modes = setting
    modes.declare("gen", [OUT])
    checker = checker_for(setting)
    # gen(X). with X never produced anywhere: the head OUT is unfulfilled.
    report = checker.check_clause(clause("gen(X)."))
    assert not report.ok


def test_ground_head_out_is_fine(setting):
    cset, predicate_types, modes = setting
    modes.declare("gen", [OUT])
    checker = checker_for(setting)
    # No variables: nothing to produce.
    report = checker.check_clause(clause("gen(0)."))
    assert report.ok


def test_check_program(setting):
    from repro.lp import Program

    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    program = Program(
        [clause("plus(0, N, N)."), clause("plus(succ(M), N, succ(K)) :- plus(M, N, K).")]
    )
    results = checker.check_program(program)
    assert all(report.ok for _, report in results)


# -- declarations -----------------------------------------------------------------------


def test_mode_env_validates():
    modes = ModeEnv()
    with pytest.raises(DeclarationError):
        modes.declare("p", ["SIDEWAYS"])


def test_mode_env_conflict():
    modes = ModeEnv()
    modes.declare("p", [IN])
    with pytest.raises(DeclarationError):
        modes.declare("p", [OUT])
    modes.declare("p", [IN])  # identical re-declaration is fine


# -- edge cases: non-variable arguments --------------------------------------


def test_ground_argument_in_in_position_is_fine(setting):
    cset, predicate_types, modes = setting
    modes.declare("q", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- q(pred(zero))."))
    assert report.ok


def test_compound_out_argument_produces_its_variables(setting):
    # gen(succ(X)) in an OUT position binds X; the later IN consumption
    # sees a production, not an unproduced variable.
    cset, predicate_types, modes = setting
    modes.declare("gen", [OUT])
    modes.declare("use", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- gen(succ(X)), use(X)."))
    assert report.ok, [str(v) for v in report.violations]


# -- edge cases: repeated variables ------------------------------------------


def test_repeated_variable_in_two_in_positions_unproduced(setting):
    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    report = checker.check_query(query(":- plus(X, X, Y)."))
    assert not report.ok
    # Both IN occurrences are reported, each as an unproduced consumption.
    assert len(report.violations) == 2
    assert all(v.kind == "unproduced" for v in report.violations)
    assert {v.position for v in report.violations} == {0, 1}


def test_repeated_variable_after_production_is_fine(setting):
    cset, predicate_types, modes = setting
    modes.declare("gen", [OUT])
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    report = checker.check_query(query(":- gen(X), plus(X, X, Y)."))
    assert report.ok, [str(v) for v in report.violations]


def test_violation_objects_carry_structured_fields(setting):
    cset, predicate_types, modes = setting
    modes.declare("q", [OUT])
    modes.declare("p", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- q(X), p(X)."))
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind == "flow"
    assert violation.position == 0
    assert violation.at_head is False
    assert str(violation.produced_type) != str(violation.consumer_type)


# -- the exact violation text and order --------------------------------------


def test_violations_in_dataflow_order(setting):
    # Body goals in order (each consumes before it produces), then the
    # head's OUT epilogue.
    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    modes.declare("q", [OUT])
    modes.declare("p", [IN])
    checker = checker_for(setting)
    report = checker.check_clause(
        clause("plus(A, B, C) :- p(D), q(E), p(E), p(A), q(C).")
    )
    assert [(str(v), v.kind, v.at_head) for v in report.violations] == [
        (
            "p(D) argument 1: variable D: consumed in an IN position before "
            "being produced",
            "unproduced",
            False,
        ),
        (
            "p(E) argument 1: variable E: produced at type int, which does "
            "not flow into consumer type nat",
            "flow",
            False,
        ),
        (
            "plus(A, B, C) argument 3: variable C: produced at type int, "
            "which does not flow into consumer type nat",
            "flow",
            True,
        ),
    ]


def test_unproduced_head_out_text(setting):
    cset, predicate_types, modes = setting
    modes.declare("plus", [IN, IN, OUT])
    checker = checker_for(setting)
    report = checker.check_clause(clause("plus(A, B, C)."))
    assert [(str(v), v.kind, v.at_head) for v in report.violations] == [
        (
            "plus(A, B, C) argument 3: variable C: consumed in an IN position "
            "before being produced",
            "unproduced",
            True,
        ),
    ]
