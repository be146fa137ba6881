"""SLD engine tests: answers, order, bounds, tracing, variant pruning."""

import sys

import pytest

from repro.lang import parse_clause, parse_query
from repro.lp import Clause, Database, SLDEngine, solve, solve_iterative_deepening
from repro.terms import Var, atom, pretty, struct, variables_of


def clauses(*texts):
    return [Clause(c.head, c.body) for c in map(parse_clause, texts)]


def goals(text):
    return parse_query(text).body


APPEND = clauses(
    "app(nil,L,L).",
    "app(cons(X,L),M,cons(X,N)) :- app(L,M,N).",
)


def nat_list(*names):
    term = atom("nil")
    for name in reversed(names):
        term = struct("cons", atom(name), term)
    return term


def test_ground_success():
    db = Database(APPEND)
    result = solve(db, goals(":- app(nil, nil, nil)."))
    assert len(result.answers) == 1
    assert result.complete


def test_ground_failure():
    db = Database(APPEND)
    result = solve(db, goals(":- app(nil, nil, cons(a, nil))."))
    assert result.answers == []
    assert result.complete


def test_computes_append():
    db = Database(APPEND)
    result = solve(db, goals(":- app(cons(a,nil), cons(b,nil), R)."))
    assert len(result.answers) == 1
    answer = result.answers[0]
    assert answer.apply(Var("R")) == nat_list("a", "b")


def test_backwards_append_enumerates_splits():
    db = Database(APPEND)
    result = solve(db, goals(":- app(X, Y, cons(a, cons(b, nil)))."))
    assert len(result.answers) == 3
    splits = {
        (pretty(a.apply(Var("X"))), pretty(a.apply(Var("Y")))) for a in result.answers
    }
    assert ("nil", "cons(a, cons(b, nil))") in splits
    assert ("cons(a, cons(b, nil))", "nil") in splits


def test_empty_goal_list_succeeds_once():
    db = Database(APPEND)
    result = solve(db, [])
    assert len(result.answers) == 1


def test_answers_restricted_to_query_variables():
    db = Database(APPEND)
    result = solve(db, goals(":- app(cons(a,nil), nil, R)."))
    answer = result.answers[0]
    assert set(answer) <= {Var("R")}


def test_conjunction_shares_bindings():
    db = Database(
        APPEND
        + clauses("eq(X,X).")
    )
    result = solve(db, goals(":- app(X, nil, cons(a,nil)), eq(X, cons(a,nil))."))
    assert len(result.answers) == 1


def test_depth_limit_prunes():
    db = Database(APPEND)
    result = solve(db, goals(":- app(cons(a,cons(b,cons(c,nil))), nil, R)."), depth_limit=2)
    assert result.answers == []
    assert result.hit_depth_limit


def test_step_limit():
    loops = clauses("loop :- loop.")
    db = Database(loops)
    result = solve(db, goals(":- loop."), step_limit=100)
    assert result.answers == []
    assert result.hit_step_limit


def test_infinite_left_recursion_bounded():
    db = Database(clauses("p(X) :- p(X).", "p(a)."))
    result = solve(db, goals(":- p(a)."), depth_limit=50, max_answers=1)
    # Depth-first dives into the loop; the bound turns it into cutoffs and
    # the fact is still found on backtracking.
    assert len(result.answers) == 1


def test_variant_check_prunes_left_recursion():
    db = Database(clauses("p(X) :- p(X).", "p(a)."))
    engine = SLDEngine(db, variant_check=True)
    answers = list(engine.solve(goals(":- p(a).")))
    assert len(answers) == 1  # terminates without any depth bound
    assert engine.stats.variant_prunes > 0


def test_variant_check_preserves_existence():
    db = Database(APPEND)
    plain = solve(db, goals(":- app(cons(a,nil), cons(b,nil), R)."))
    pruned = solve(db, goals(":- app(cons(a,nil), cons(b,nil), R)."), variant_check=True)
    assert bool(plain.answers) == bool(pruned.answers)
    assert plain.answers[0].apply(Var("R")) == pruned.answers[0].apply(Var("R"))


def test_on_resolvent_sees_every_resolvent():
    db = Database(APPEND)
    seen = []
    engine = SLDEngine(db, on_resolvent=seen.append)
    list(engine.solve(goals(":- app(cons(a,nil), nil, R).")))
    # Two resolution steps: recursive clause then base clause, plus the
    # final empty resolvent.
    assert () in seen
    assert any(g and g[0].functor == "app" for g in seen)


def test_stats_counters():
    db = Database(APPEND)
    engine = SLDEngine(db)
    list(engine.solve(goals(":- app(cons(a,nil), nil, R).")))
    assert engine.stats.steps >= 2
    assert engine.stats.unification_attempts >= engine.stats.steps
    assert engine.stats.max_depth_reached >= 2


def test_iterative_deepening_finds_deep_answers():
    db = Database(APPEND)
    deep = nat_list(*[f"x{i}" for i in range(10)])
    result = solve_iterative_deepening(
        db, [struct("app", deep, atom("nil"), Var("R"))], max_depth=32
    )
    assert len(result.answers) == 1
    assert result.complete


def test_iterative_deepening_deduplicates_across_rounds():
    db = Database(APPEND)
    result = solve_iterative_deepening(
        db,
        [struct("app", Var("X"), Var("Y"), nat_list("a", "b"))],
        max_depth=16,
    )
    assert len(result.answers) == 3


def test_iterative_deepening_reports_incomplete():
    db = Database(clauses("grow(X) :- grow(f(X))."))
    result = solve_iterative_deepening(db, goals(":- grow(a)."), max_depth=8)
    assert result.answers == []
    assert not result.complete


def test_occurs_check_toggle():
    db = Database(clauses("eq(X,X)."))
    engine_safe = SLDEngine(db, occurs_check=True)
    assert not list(engine_safe.solve(goals(":- eq(X, f(X))."), depth_limit=4))
    engine_fast = SLDEngine(db, occurs_check=False)
    answers = list(engine_fast.solve(goals(":- eq(X, f(X))."), depth_limit=4))
    assert [repr(answer) for answer in answers] == ["{X -> f(X)}"]


def test_step_hook_sees_the_goal_side_mgu_and_shared_tail_goals():
    db = Database(APPEND + clauses("q(Z)."))
    seen = []
    engine = SLDEngine(db, on_step=lambda note, clause, mgu, goals: seen.append((mgu, goals)))
    query = goals(":- app(cons(a,nil), nil, R), q(Z), q(a).")
    (answer,) = engine.solve(query)
    assert answer.apply(Var("R")) == nat_list("a")
    parents = [query] + [resolvent for _, resolvent in seen[:-1]]
    for (mgu, resolvent), parent in zip(seen, parents):
        parent_vars = set().union(*(variables_of(goal) for goal in parent))
        assert mgu.domain <= parent_vars  # never the clause's variables
    first_mgu, first_resolvent = seen[0]
    assert first_mgu.domain == {Var("R")}
    assert first_resolvent[1] is query[1] and first_resolvent[2] is query[2]


PLUS = clauses("plus(0, N, N).", "plus(succ(M), N, succ(K)) :- plus(M, N, K).")


def peano(n):
    term = atom("0")
    for _ in range(n):
        term = struct("succ", term)
    return term


def test_deep_answer_under_the_default_recursion_limit():
    # The answer R = succ^5000(0) is bound one layer per step; reading it
    # off the derivation must not recurse once per layer.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        engine = SLDEngine(Database(PLUS))
        answers = list(engine.solve([struct("plus", peano(5000), atom("0"), Var("R"))]))
    finally:
        sys.setrecursionlimit(limit)
    assert len(answers) == 1
    assert answers[0].apply(Var("R")) == peano(5000)
    assert engine.stats.steps == 5001
