"""Tests for the clause database and first-argument indexing."""

from repro.lp import Clause, Database, Program
from repro.terms import Var, atom, struct


def _program():
    return [
        Clause(struct("app", atom("nil"), Var("L"), Var("L"))),
        Clause(
            struct("app", struct("cons", Var("X"), Var("L")), Var("M"), struct("cons", Var("X"), Var("N"))),
            (struct("app", Var("L"), Var("M"), Var("N")),),
        ),
        Clause(struct("p", atom("a"))),
    ]


def test_len_and_predicates():
    db = Database(_program())
    assert len(db) == 3
    assert set(db.predicates()) == {("app", 3), ("p", 1)}


def test_clauses_for_in_program_order():
    db = Database(_program())
    clauses = db.clauses_for(("app", 3))
    assert len(clauses) == 2
    assert clauses[0].is_fact


def test_candidates_unknown_predicate():
    db = Database(_program())
    assert db.candidates(struct("unknown", Var("X"))) == []


def test_candidates_variable_first_arg_sees_all():
    db = Database(_program())
    goal = struct("app", Var("A"), Var("B"), Var("C"))
    assert len(db.candidates(goal)) == 2


def test_indexing_filters_by_first_arg():
    db = Database(_program(), first_arg_indexing=True)
    nil_goal = struct("app", atom("nil"), Var("B"), Var("C"))
    cons_goal = struct("app", struct("cons", atom("a"), atom("nil")), Var("B"), Var("C"))
    assert [c.is_fact for c in db.candidates(nil_goal)] == [True]
    assert [c.is_fact for c in db.candidates(cons_goal)] == [False]


def test_indexing_disabled_sees_all():
    db = Database(_program(), first_arg_indexing=False)
    nil_goal = struct("app", atom("nil"), Var("B"), Var("C"))
    assert len(db.candidates(nil_goal)) == 2


def test_indexing_merges_variable_headed_clauses_in_order():
    clauses = [
        Clause(struct("q", atom("a"), atom("first"))),
        Clause(struct("q", Var("X"), atom("second"))),
        Clause(struct("q", atom("a"), atom("third"))),
    ]
    db = Database(clauses, first_arg_indexing=True)
    goal = struct("q", atom("a"), Var("R"))
    ordered = [c.head.args[1].functor for c in db.candidates(goal)]
    assert ordered == ["first", "second", "third"]


def test_indexing_is_complete_overapproximation():
    # Indexed candidates must include every clause that actually unifies.
    from repro.terms.unify import unifiable

    clauses = _program()
    db_indexed = Database(clauses, first_arg_indexing=True)
    db_plain = Database(clauses, first_arg_indexing=False)
    for goal in [
        struct("app", atom("nil"), atom("nil"), Var("C")),
        struct("app", struct("cons", atom("a"), atom("nil")), Var("B"), Var("C")),
        struct("app", Var("A"), Var("B"), Var("C")),
    ]:
        indexed = set(map(id, db_indexed.candidates(goal)))
        for clause in db_plain.candidates(goal):
            from repro.lp.clause import rename_clause_apart

            if unifiable(goal, rename_clause_apart(clause).head):
                assert id(clause) in indexed


def test_from_program():
    program = Program(_program())
    db = Database.from_program(program)
    assert len(db) == 3


def test_templates_are_the_compiled_candidates():
    db = Database(_program())
    for goal in [
        struct("app", atom("nil"), Var("B"), Var("C")),
        struct("app", struct("cons", atom("a"), atom("nil")), Var("B"), Var("C")),
        struct("app", Var("A"), Var("B"), Var("C")),
        struct("unknown", Var("X")),
    ]:
        assert [t.clause for t in db.templates(goal)] == db.candidates(goal)


def test_template_lists_are_built_once_and_follow_additions():
    db = Database(_program())
    goal = struct("app", atom("nil"), Var("B"), Var("C"))
    first = db.templates(goal)
    assert db.templates(goal) is first
    db.add(Clause(struct("app", Var("X"), atom("nil"), atom("nil"))))
    assert len(db.templates(goal)) == 2
    assert [t.clause for t in db.templates(goal)] == db.candidates(goal)
