"""End-to-end property test: random queries against the list library.

For every generated query: the checker must return a verdict (never
crash), and every *accepted* query must execute with zero Theorem 6
violations.  Patterns are built by sampling inhabitants of each argument
position's declared type and abstracting random subterms into fresh
variables — so both well-typed and ill-typed queries arise naturally
(a variable is always fine; a subterm swapped across types is not).
"""

import itertools
import random
from typing import List, Tuple

import pytest

from repro.core import GeneralTypeSemantics, TypedRunner
from repro.lp import Query
from repro.terms import Struct, Term, Var
from repro.workloads import load

_counter = itertools.count()


def abstract(rng: random.Random, term: Term, probability: float) -> Term:
    """Randomly replace subterms of a ground term with fresh variables."""
    if rng.random() < probability:
        return Var(f"Q{next(_counter)}")
    if isinstance(term, Struct) and term.args:
        return Struct(
            term.functor,
            tuple(abstract(rng, arg, probability) for arg in term.args),
        )
    return term


def swap_in_foreign(rng: random.Random, term: Term, foreign: Term) -> Term:
    """Replace one random leaf with a term of a different type."""
    if isinstance(term, Struct) and term.args and rng.random() < 0.7:
        index = rng.randrange(len(term.args))
        args = list(term.args)
        args[index] = swap_in_foreign(rng, args[index], foreign)
        return Struct(term.functor, tuple(args))
    return foreign


@pytest.fixture(scope="module")
def setting():
    module = load("list_library")
    runner = TypedRunner(module.checker, module.program)
    semantics = GeneralTypeSemantics(module.constraints)
    return module, runner, semantics


def generate_queries(module, semantics, rng, count) -> List[Tuple[str, Query]]:
    """Random single-atom queries over the module's declared predicates."""
    predicate_types = list(module.predicate_types)
    queries: List[Tuple[str, Query]] = []
    while len(queries) < count:
        declared = rng.choice(predicate_types)
        arguments: List[Term] = []
        feasible = True
        for arg_type in declared.args:
            members = sorted(semantics.inhabitants(arg_type, 4), key=repr)
            if not members:
                feasible = False
                break
            base = rng.choice(members)
            arguments.append(abstract(rng, base, probability=0.3))
        if not feasible:
            continue
        kind = "typed"
        if arguments and rng.random() < 0.4:
            # Corrupt one argument with a foreign term: often ill-typed.
            index = rng.randrange(len(arguments))
            arguments[index] = swap_in_foreign(
                rng, arguments[index], Struct("pred", (Struct("0", ()),))
            )
            kind = "corrupted"
        queries.append((kind, Query((Struct(declared.functor, tuple(arguments)),))))
    return queries


def test_random_queries_check_and_execute_consistently(setting):
    module, runner, semantics = setting
    rng = random.Random(2026)
    accepted = rejected = 0
    for kind, query in generate_queries(module, semantics, rng, 120):
        report = module.checker.check_query(query)  # must not raise
        if not report.well_typed:
            rejected += 1
            continue
        accepted += 1
        result = runner.run(
            query, max_answers=4, depth_limit=64, check_answers=True
        )
        assert result.ok, (str(query), result.violations[:1])
    # Both behaviours must actually be exercised by the generator.
    assert accepted >= 20, (accepted, rejected)
    assert rejected >= 10, (accepted, rejected)


def test_fully_abstract_queries_always_accepted(setting):
    """An atom of distinct fresh variables is always well-typed
    (every position types by clause 1 of match)."""
    module, _, _ = setting
    for declared in module.predicate_types:
        atom = Struct(
            declared.functor,
            tuple(Var(f"V{next(_counter)}") for _ in declared.args),
        )
        report = module.checker.check_query(Query((atom,)))
        assert report.well_typed, declared


def test_ground_members_always_accepted(setting):
    """An atom whose arguments are inhabitants of their declared types is
    always well-typed."""
    module, _, semantics = setting
    rng = random.Random(7)
    for declared in module.predicate_types:
        arguments = []
        for arg_type in declared.args:
            members = sorted(semantics.inhabitants(arg_type, 4), key=repr)
            arguments.append(rng.choice(members))
        report = module.checker.check_query(
            Query((Struct(declared.functor, tuple(arguments)),))
        )
        assert report.well_typed, declared
