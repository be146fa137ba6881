"""Tests for clauses, programs and standardising apart."""

from repro.lp import Clause, Program, Query, rename_clause_apart
from repro.lp.clause import ClauseTemplate
from repro.terms import Var, atom, struct, variables_of


def test_fact_detection():
    fact = Clause(struct("p", atom("a")))
    rule = Clause(struct("p", Var("X")), (struct("q", Var("X")),))
    assert fact.is_fact
    assert not rule.is_fact


def test_indicator():
    clause = Clause(struct("app", atom("nil"), Var("L"), Var("L")))
    assert clause.indicator == ("app", 3)


def test_clause_variables():
    clause = Clause(struct("p", Var("X")), (struct("q", Var("X"), Var("Y")),))
    assert clause.variables() == {Var("X"), Var("Y")}


def test_clause_atoms():
    head = struct("p", Var("X"))
    body = (struct("q", Var("X")),)
    assert Clause(head, body).atoms() == (head,) + body


def test_clause_str():
    clause = Clause(struct("p", Var("X")), (struct("q", Var("X")),))
    assert str(clause) == "p(X) :- q(X)."
    assert str(Clause(struct("p", atom("a")))) == "p(a)."


def test_query_str_and_variables():
    query = Query((struct("p", Var("X")), struct("q", Var("Y"))))
    assert str(query) == ":- p(X), q(Y)."
    assert query.variables() == {Var("X"), Var("Y")}


def test_program_collects_predicates():
    program = Program(
        [
            Clause(struct("p", atom("a"))),
            Clause(struct("q", Var("X")), (struct("p", Var("X")),)),
        ]
    )
    assert program.predicates() == {("p", 1), ("q", 1)}
    assert len(program) == 2


def test_rename_apart_fresh_and_consistent():
    clause = Clause(
        struct("app", struct("cons", Var("X"), Var("L")), Var("M"), struct("cons", Var("X"), Var("N"))),
        (struct("app", Var("L"), Var("M"), Var("N")),),
    )
    renamed = rename_clause_apart(clause)
    # No variable survives.
    assert renamed.variables().isdisjoint(clause.variables())
    # Sharing is preserved: X in the head appears twice as the same new var.
    head = renamed.head
    assert head.args[0].args[0] == head.args[2].args[0]
    # Body and head share L, M, N consistently.
    assert renamed.body[0].args[0] == head.args[0].args[1]


def test_rename_apart_twice_differs():
    clause = Clause(struct("p", Var("X")))
    first = rename_clause_apart(clause)
    second = rename_clause_apart(clause)
    assert first.variables().isdisjoint(second.variables())


def test_clause_template_numbers_variables_and_shares_ground_terms():
    ground = struct("cons", atom("a"), atom("nil"))
    clause = Clause(
        struct("app", struct("cons", Var("X"), Var("L")), ground, struct("cons", Var("X"), Var("N"))),
        (struct("app", Var("L"), ground, Var("N")),),
    )
    template = ClauseTemplate(clause)
    assert template.clause is clause
    assert template.slots == 3
    assert template.head == (("cons", (0, 1)), ground, ("cons", (0, 2)))
    assert template.head[1] is ground
    assert template.body == (("app", (1, ground, 2)),)
