"""The moded checker accepts a linear query only if the strict one does.

A query whose atoms share no variable and repeat none gives the
directional fallback nothing to order: no variable is produced at one
position and consumed at another, so the flow conditions hold vacuously
and only the per-position typings and the commitment solving remain.
Those are the strict checker's steps without the agreement equations, and
a linear query has no agreement equations.  So on such a query
``ModedWellTypedChecker`` may not accept what ``WellTypedChecker``
rejects.  The universes, predicate types, modes and queries are drawn at
random from ``repro.workloads.generators``.
"""

import itertools
import random

import pytest

from repro.core import (
    IN,
    OUT,
    ModeEnv,
    ModedWellTypedChecker,
    PredicateTypeEnv,
    WellTypedChecker,
)
from repro.lp import Query
from repro.terms.term import Struct, Var
from repro.workloads.generators import (
    random_ground_member,
    random_guarded_constraint_set,
    random_type,
)

SEEDS = range(150)
QUERIES_PER_UNIVERSE = 12
TYPE_VARIABLES = (Var("A"), Var("B"))


def _universe(rng):
    """A guarded universe, declared predicates ``p0..p3`` and random modes."""
    constraints = random_guarded_constraint_set(
        rng, type_count=4, function_count=5, max_rhs_depth=2
    )
    predicate_types = PredicateTypeEnv(constraints)
    modes = ModeEnv()
    for index in range(4):
        arity = rng.randint(1, 3)
        args = tuple(
            random_type(rng, constraints, depth=2, variables=TYPE_VARIABLES)
            for _ in range(arity)
        )
        predicate_types.declare(Struct(f"p{index}", args))
        if rng.random() < 0.5:
            modes.declare(f"p{index}", [rng.choice((IN, OUT)) for _ in range(arity)])
    return constraints, predicate_types, modes


def _argument(rng, constraints, fresh, depth=2):
    """A random argument: a fresh variable, a ground member of a random
    type, or a function symbol over smaller arguments."""
    kind = rng.random()
    if kind < 0.25:
        return next(fresh)
    if kind < 0.6 or depth <= 0:
        member = random_ground_member(
            rng, constraints, random_type(rng, constraints, allow_variables=False), 3
        )
        return member if member is not None else next(fresh)
    name, arity = rng.choice(sorted(constraints.symbols.functions.items()))
    return Struct(
        name, tuple(_argument(rng, constraints, fresh, depth - 1) for _ in range(arity))
    )


def _linear_query(rng, constraints, predicate_types):
    """One to three atoms over the declared predicates; every variable
    occurs once in the whole query."""
    counter = itertools.count()
    fresh = (Var(f"X{next(counter)}") for _ in itertools.count())
    declared = list(predicate_types)
    goals = []
    for _ in range(rng.randint(1, 3)):
        predicate = rng.choice(declared)
        goals.append(
            Struct(
                predicate.functor,
                tuple(_argument(rng, constraints, fresh) for _ in predicate.args),
            )
        )
    return Query(tuple(goals))


@pytest.mark.parametrize("seed", SEEDS)
def test_moded_accepts_a_linear_query_only_if_strict_does(seed):
    rng = random.Random(seed)
    constraints, predicate_types, modes = _universe(rng)
    moded = ModedWellTypedChecker(constraints, predicate_types, modes)
    strict = WellTypedChecker(constraints, predicate_types)
    for _ in range(QUERIES_PER_UNIVERSE):
        query = _linear_query(rng, constraints, predicate_types)
        if moded.check_query(query).well_typed:
            report = strict.check_query(query)
            assert report.well_typed, (
                f"moded checker accepts {query}; the strict checker "
                f"rejects it: {report.reason}"
            )
