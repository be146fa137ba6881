"""The one-pass SLD step against the step it replaced.

``SLDEngine`` unifies a goal against a clause template in place, shares
the tail goals the mgu cannot touch and reads each answer off the
branch's mgus once (``repro.lp.resolution``).  The reference below is
the textbook loop it replaced: rename the clause apart, ``unify``,
apply θ to every new goal and to an answer skeleton at every step.
Both run the same depth-first search, so on every program and query
they must give the same answers up to variable renaming, in the same
order, with equal ``SLDStats`` and the same bound flags — under the
occurs check on and off, the variant check on and off, and depth and
step limits.

Inputs: ``synthetic_list_program`` and the ``repro.workloads`` programs
under seeded random queries, and ``examples/programs/*.tlp`` with their
own queries and seeded ones.
"""

import random
from pathlib import Path

import pytest

from repro.checker import check_text
from repro.lp import Clause, Database, SLDEngine, SLDStats, rename_clause_apart
from repro.terms import Struct, Var, unify, variables_of
from repro.terms.term import map_variables, variables_in_order
from repro.workloads import SOURCES
from repro.workloads.generators import synthetic_list_program

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "programs"

#: occurs_check × variant_check × (depth_limit, step_limit)
CONFIGS = [
    (occurs, variant, depth, steps)
    for occurs in (True, False)
    for variant in (False, True)
    for depth, steps in ((None, 150), (8, None), (12, 60))
]


def variant_key(terms):
    """``terms`` with variables renamed by first occurrence."""
    tuple_term = Struct("$", tuple(terms))
    names = {var: Var(f"V{i}") for i, var in enumerate(variables_in_order(tuple_term))}
    return map_variables(tuple_term, names)


def reference_solve(database, goals, occurs_check, variant_check, depth_limit, step_limit):
    """Rename apart + ``unify`` + ``θ.apply`` on an answer skeleton."""
    stats, flags, answers, on_path = SLDStats(), {"depth": False, "step": False}, [], set()
    variables = sorted({v for g in goals for v in variables_of(g)}, key=lambda v: v.name)
    root_key = variant_key(goals) if variant_check else None
    on_path.add(root_key)
    stack = [[goals, Struct("'$answer", tuple(variables)), 0, database.candidates(goals[0]), 0, root_key]]
    taken = 0
    while stack:
        frame = stack[-1]
        current, answer, depth, choices, position, _ = frame
        if depth_limit is not None and depth >= depth_limit:
            flags["depth"] = True
            stats.depth_cutoffs += 1
            on_path.discard(stack.pop()[5])
            continue
        if position >= len(choices):
            on_path.discard(stack.pop()[5])
            continue
        frame[4] += 1
        if step_limit is not None and taken >= step_limit:
            flags["step"] = True
            stats.step_budget_hits += 1
            break
        taken += 1
        renamed = rename_clause_apart(choices[position])
        stats.unification_attempts += 1
        theta = unify(current[0], renamed.head, occurs_check=occurs_check)
        if theta is None:
            stats.unification_failures += 1
            continue
        stats.steps += 1
        new_goals = tuple(theta.apply(g) for g in renamed.body + current[1:])
        new_answer = theta.apply(answer)
        stats.max_depth_reached = max(stats.max_depth_reached, depth + 1)
        if not new_goals:
            answers.append(variant_key(new_answer.args))
            continue
        key = variant_key(new_goals) if variant_check else None
        if variant_check:
            if key in on_path:
                stats.variant_prunes += 1
                continue
            on_path.add(key)
        stack.append([new_goals, new_answer, depth + 1, database.candidates(new_goals[0]), 0, key])
    return answers, stats, flags


def engine_solve(database, goals, occurs_check, variant_check, depth_limit, step_limit):
    engine = SLDEngine(database, occurs_check=occurs_check, variant_check=variant_check)
    variables = sorted({v for g in goals for v in variables_of(g)}, key=lambda v: v.name)
    answers = [
        variant_key(answer.apply(var) for var in variables)
        for answer in engine.solve(goals, depth_limit=depth_limit, step_limit=step_limit)
    ]
    flags = {"depth": engine.hit_depth_limit, "step": engine.hit_step_limit}
    return answers, engine.stats, flags


def assert_same_runs(program, queries):
    """Every query under every configuration; returns the steps compared."""
    database = Database(program)
    compared = 0
    for goals in queries:
        for occurs, variant, depth, steps in CONFIGS:
            expected = reference_solve(database, goals, occurs, variant, depth, steps)
            actual = engine_solve(database, goals, occurs, variant, depth, steps)
            assert actual == expected, (goals, occurs, variant, depth, steps)
            compared += actual[1].steps
    return compared


# -- seeded queries over a program's own predicates and symbols ------------------


def symbols(program):
    """The predicates and the argument-position function symbols of ``program``."""
    predicates, functors = set(), set()
    for clause in program:
        for atom in clause.atoms():
            predicates.add(atom.indicator)
            stack = list(atom.args)
            while stack:
                term = stack.pop()
                if isinstance(term, Struct):
                    functors.add(term.indicator)
                    stack.extend(term.args)
    return sorted(predicates), sorted(functors)


def random_term(rng, functors, depth):
    constants = [f for f in functors if f[1] == 0]
    if depth == 0 or rng.random() < 0.35 or not functors:
        if rng.random() < 0.45 or not constants:
            return Var(rng.choice("XYZ"))
        name, _ = rng.choice(constants)
        return Struct(name, ())
    name, arity = rng.choice(functors)
    return Struct(name, tuple(random_term(rng, functors, depth - 1) for _ in range(arity)))


def seeded_queries(program, seed, count):
    rng = random.Random(f"sld-step:{seed}")
    predicates, functors = symbols(program)
    queries = []
    for _ in range(count):
        goals = []
        for _ in range(1 + (rng.random() < 0.3)):
            name, arity = rng.choice(predicates)
            goals.append(
                Struct(name, tuple(random_term(rng, functors, 3) for _ in range(arity)))
            )
        queries.append(tuple(goals))
    return queries


def module_program(text):
    module = check_text(text)
    return module.program, [query.goals for query in module.queries]


@pytest.mark.parametrize("seed", range(4))
def test_generated_list_programs(seed):
    program, _ = module_program(synthetic_list_program(2 + seed % 3, 1 + seed % 2))
    assert assert_same_runs(program, seeded_queries(program, seed, 12))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_workload_programs(name):
    program, _ = module_program(SOURCES[name])
    assert assert_same_runs(program, seeded_queries(program, name, 12))


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.tlp")), ids=lambda p: p.stem)
def test_example_programs(path):
    program, queries = module_program(path.read_text(encoding="utf-8"))
    assert assert_same_runs(program, queries + seeded_queries(program, path.stem, 8))


def test_cyclic_bindings_without_the_occurs_check():
    # app(cons(E, nil), L, L) binds N to cons(E, N) on its second step;
    # eq(Y, f(Y)) binds Y to f(Y), and q(Y) then binds Y again, to b.
    program, _ = module_program(SOURCES["append"])
    program.add(Clause(Struct("eq", (Var("X"), Var("X")))))
    program.add(Clause(Struct("q", (Struct("f", (Struct("b", ()),)),))))
    goals = [
        (Struct("app", (Struct("cons", (Var("E"), Struct("nil", ()))), Var("L"), Var("L"))),),
        (Struct("app", (Var("X"), Var("Y"), Var("X"))),),
        (Struct("eq", (Var("Y"), Struct("f", (Var("Y"),)))), Struct("q", (Var("Y"),))),
    ]
    assert assert_same_runs(program, goals)
    (answer,) = SLDEngine(Database(program), occurs_check=False).solve(goals[2])
    assert repr(answer) == "{Y -> f(b)}"
