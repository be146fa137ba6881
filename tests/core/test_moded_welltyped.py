"""Tests for the [DH88]-style moded well-typedness system (Section 7
made concrete): strict Definition 16 with a directional fallback."""

import pytest

from repro.core import IN, OUT, ModeEnv, ModedWellTypedChecker, PredicateTypeEnv
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
        "nat2int(nat, int)",
        "app(list(A), list(A), list(A))",
        "sum_list(list(nat), nat)",
        "make_list(list(nat))",
    ]:
        predicate_types.declare(parse_atom(decl))
    modes = ModeEnv()
    return cset, predicate_types, modes


def checker_for(setting):
    return ModedWellTypedChecker(*setting)


def clause(text):
    parsed = parse_clause(text)
    return Clause(parsed.head, parsed.body)


def query(text):
    return Query(parse_query(text).body)


# -- the paper's motivating query -------------------------------------------------


def test_subtype_flow_accepted_with_modes(setting):
    cset, predicate_types, modes = setting
    modes.declare("p", [OUT])
    modes.declare("q", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- p(X), q(X)."))
    assert report.well_typed
    assert report.via == "directional"


def test_wrong_direction_rejected(setting):
    cset, predicate_types, modes = setting
    modes.declare("p", [IN])
    modes.declare("q", [OUT])
    checker = checker_for(setting)
    report = checker.check_query(query(":- q(X), p(X)."))
    assert not report.well_typed
    assert "does not flow" in (report.reason or "")


def test_unmoded_flow_still_rejected(setting):
    # Without mode declarations the strict verdict stands.
    checker = checker_for(setting)
    report = checker.check_query(query(":- p(X), q(X)."))
    assert not report.well_typed
    assert "no mode declaration" in (report.reason or "")


def test_consume_before_produce_rejected(setting):
    cset, predicate_types, modes = setting
    modes.declare("p", [OUT])
    modes.declare("q", [IN])
    checker = checker_for(setting)
    report = checker.check_query(query(":- q(X), p(X)."))
    assert not report.well_typed
    assert "before being produced" in (report.reason or "")


# -- the widening coercion the strict system cannot express -------------------------


def test_widening_clause_accepted(setting):
    cset, predicate_types, modes = setting
    modes.declare("nat2int", [IN, OUT])
    checker = checker_for(setting)
    report = checker.check_clause(clause("nat2int(X, X)."))
    assert report.well_typed
    assert report.via == "directional"
    # The strict system rejects the same clause.
    assert not report.strict_report.well_typed


def test_narrowing_clause_rejected(setting):
    # int2nat as a no-op must stay rejected: int does not flow into nat.
    cset, predicate_types, modes = setting
    predicate_types.declare(parse_atom("int2natx(int, nat)"))
    modes.declare("int2natx", [IN, OUT])
    checker = checker_for(setting)
    report = checker.check_clause(clause("int2natx(X, X)."))
    assert not report.well_typed


# -- strictly well-typed programs pass through unchanged ------------------------------


def test_strict_acceptance_short_circuits(setting):
    checker = checker_for(setting)
    report = checker.check_clause(clause("app(nil, L, L)."))
    assert report.well_typed
    assert report.via == "strict"


def test_append_recursive_clause_strict(setting):
    checker = checker_for(setting)
    report = checker.check_clause(
        clause("app(cons(X,L),M,cons(X,N)) :- app(L,M,N).")
    )
    assert report.well_typed
    assert report.via == "strict"


# -- commitments still solved in the directional path -----------------------------------


def test_directional_with_polymorphic_commitment(setting):
    cset, predicate_types, modes = setting
    modes.declare("make_list", [OUT])
    modes.declare("sum_list", [IN])
    # make_list produces a list(nat); sum_list consumes list(nat): ok.
    checker = checker_for(setting)
    report = checker.check_query(query(":- make_list(X), sum_list(X, N)."))
    assert report.well_typed


def test_check_program(setting):
    from repro.lp import Program

    cset, predicate_types, modes = setting
    modes.declare("nat2int", [IN, OUT])
    checker = checker_for(setting)
    program = Program([clause("nat2int(X, X)."), clause("app(nil, L, L).")])
    results = checker.check_program(program)
    assert all(report.well_typed for _, report in results)


# -- the commitment solver shared with the strict checker ----------------------


def commitments(setting, equations=(), covers=(), rigid=()):
    """Solve like the directional fallback: the strict checker's equation
    solver, then its cover resolution; ``None`` when either fails."""
    from repro.lang import parse_term as T
    from repro.terms import Var

    strict = checker_for(setting).strict
    to_pairs = lambda pairs: [(Var(n), T(t)) for n, t in pairs]
    rigid_vars = {Var(n) for n in rigid}
    solution = strict._solve(to_pairs(equations), rigid_vars)
    if solution is None:
        return None
    solution, failure = strict._resolve_covers(to_pairs(covers), solution, rigid_vars)
    return None if failure is not None else solution


def test_solve_commitments_unifies_shape_equations(setting):
    from repro.lang import parse_term as T
    from repro.terms import Var

    solution = commitments(setting, equations=[("X", "nat")])
    assert solution is not None
    assert solution.apply(Var("X")) == T("nat")


def test_solve_commitments_conflicting_equations_fail(setting):
    assert commitments(setting, equations=[("X", "nat"), ("X", "int")]) is None


def test_solve_commitments_rejects_covers_on_rigid_variables(setting):
    # A rigid (head-committed) variable may not be re-inferred from
    # body cover constraints.
    assert commitments(setting, covers=[("X", "nat")], rigid=["X"]) is None


def test_solve_commitments_infers_a_common_cover_type(setting):
    from repro.terms import Var

    cset, _, _ = setting
    from repro.core import SubtypeEngine

    solution = commitments(setting, covers=[("X", "nat"), ("X", "int")])
    assert solution is not None
    committed = solution.apply(Var("X"))
    engine = SubtypeEngine(cset)
    from repro.lang import parse_term as T

    # The inferred commitment covers both demanded types.
    assert engine.more_general(committed, T("nat"))
    assert engine.more_general(committed, T("int"))


def test_solve_commitments_bound_cover_is_verified(setting):
    # An equation binds X first; the cover on the now-bound variable must
    # still hold — nothing in the flow conditions looks at a cover whose
    # term has no variables, so solving itself rejects it.
    solution = commitments(
        setting, equations=[("X", "nat")], covers=[("X", "int")]
    )
    assert solution is None


def test_directional_fallback_rejects_a_ground_argument_outside_its_type():
    # Strict Definition 16 rejects the query; the directional fallback
    # must too, although no atom of the query carries a shared variable.
    cset = paper_universe()
    predicate_types = PredicateTypeEnv(cset)
    predicate_types.declare(parse_atom("member(A, list(A))"))
    predicate_types.declare(parse_atom("zero(nat)"))
    modes = ModeEnv()
    modes.declare("zero", [OUT])
    checker = ModedWellTypedChecker(cset, predicate_types, modes)
    report = checker.check_query(query(":- member(succ(Y), cons(nil, nil))."))
    assert not report.well_typed
    assert report.via == "directional"
    assert "does not cover nil" in report.reason


# -- the exact directional rejection text --------------------------------------


@pytest.mark.parametrize(
    "modes, item, reason",
    [
        pytest.param(
            {"p": [IN], "q": [OUT]},
            ":- q(X), p(X).",
            "variable X: produced at int, which does not flow into "
            "consumer type nat at p(X)",
            id="flow-at-body-goal",
        ),
        pytest.param(
            {"p": [OUT], "q": [IN]},
            ":- q(X), p(X).",
            "variable X consumed at q(X) argument 1 before being produced",
            id="unproduced-at-body-goal",
        ),
        pytest.param(
            {"nat2int": [IN, OUT], "q": [IN]},
            "nat2int(X, Y) :- q(X).",
            "variable Y consumed at nat2int(X, Y) argument 2 before being "
            "produced",
            id="unproduced-at-head-out",
        ),
        pytest.param(
            {"int2natx": [IN, OUT]},
            "int2natx(X, X).",
            "variable X: produced at int, which does not flow into "
            "consumer type nat at int2natx(X, X)",
            id="flow-at-head-out",
        ),
    ],
)
def test_directional_rejection_text(setting, modes, item, reason):
    cset, predicate_types, mode_env = setting
    predicate_types.declare(parse_atom("int2natx(int, nat)"))
    for name, declared in modes.items():
        mode_env.declare(name, declared)
    checker = checker_for(setting)
    if item.startswith(":-"):
        report = checker.check_query(query(item))
    else:
        report = checker.check_clause(clause(item))
    assert not report.well_typed
    assert report.via == "directional"
    assert report.reason == reason
