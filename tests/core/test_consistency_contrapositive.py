"""The contrapositive of Theorem 6: running *ill-typed* programs (with
the guard rails bypassed) must produce observable consistency violations.

Every other Theorem 6 test asserts zero violations on well-typed
programs; these tests prove the detector actually detects — the paper's
own failure scenarios (Section 5's ill-typed resolvents, Section 7's
wrong-direction flow) materialise as recorded violations.
"""

import pytest

from repro.core import PredicateTypeEnv, TypedRunner, WellTypedChecker
from repro.lang import parse_atom, parse_clause, parse_query
from repro.lp import Clause, Program, Query
from repro.workloads import paper_universe


#: The predicate types every case runs under.
DECLARATIONS = ("p(list(A))", "q(list(int))", "r(int)", "app(list(A),list(A),list(A))")

#: The programs and queries of the tests below, by name: (clauses, query).
#: ``test_typed_run_carried.py`` replays them step by step.
E7_CASES = {
    "section5_commitment_leak": (("p(cons(nil, nil)).", "q(nil)."), ":- p(X), q(X)."),
    "two_context_query": (("p(nil).", "r(0)."), ":- p(X), r(X)."),
    "type_incorrect_clause": (
        ("app(nil, L, 0).", "app(cons(X,L), M, cons(X,N)) :- app(L, M, N)."),
        ":- app(cons(nil,nil), nil, R).",
    ),
    "well_typed_control": (
        ("app(nil, L, L).", "app(cons(X,L), M, cons(X,N)) :- app(L, M, N)."),
        ":- app(cons(nil,nil), nil, R).",
    ),
}


def clause(text):
    parsed = parse_clause(text)
    return Clause(parsed.head, parsed.body)


def query(text):
    return Query(parse_query(text).body)


@pytest.fixture()
def environment():
    cset = paper_universe()
    env = PredicateTypeEnv(cset)
    for decl in DECLARATIONS:
        env.declare(parse_atom(decl))
    checker = WellTypedChecker(cset, env)
    return cset, env, checker


def run_unchecked(checker, name):
    """Execute case ``name`` without the program/query admission checks
    (the guard rails Theorem 6 relies on) but with resolvent and answer
    re-checking, collecting every violation."""
    clauses, query_text = E7_CASES[name]
    runner = TypedRunner(checker, Program([clause(text) for text in clauses]))
    return runner.run(query(query_text), abort_on_violation=False, check_answers=True)


def test_section5_commitment_leak_is_detected(environment):
    # The paper: p(cons(nil,nil)). "would allow the above query to lead
    # to the ill-typed resolvent :- q(cons(nil,nil))."  Run exactly that.
    _, _, checker = environment
    result = run_unchecked(checker, "section5_commitment_leak")
    assert result.violations, "the ill-typed resolvent must be caught"
    assert any(goal.functor == "q" for goal in result.violations[0].goals)


def test_two_context_query_produces_violation_or_bad_answer(environment):
    # :- p(X), r(X). with p : list(A), r : int — executing it (bypassing
    # the query check) instantiates X at one of the two incompatible
    # types; the run must not look consistent.
    _, _, checker = environment
    result = run_unchecked(checker, "two_context_query")
    # p binds X := nil, leaving the ill-typed resolvent :- r(nil).
    assert not result.ok


def test_type_incorrect_clause_pollutes_answers(environment):
    # A corrupted append whose base case emits a non-list third argument.
    _, _, checker = environment
    result = run_unchecked(checker, "type_incorrect_clause")
    assert result.answers, "execution itself still succeeds"
    # The answer R = cons(nil, 0) is not a list: the answer check flags it.
    assert result.answer_violations


def test_well_typed_control_group(environment):
    # Same harness, correct program: zero violations (the detector is
    # quiet exactly when Theorem 6 says it must be).
    _, _, checker = environment
    result = run_unchecked(checker, "well_typed_control")
    assert result.ok
    assert result.answers
