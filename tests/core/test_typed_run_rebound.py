"""Lemma 2 re-typing of the goals an mgu rebuilt, against plain ``match``.

A carried step keeps each parent goal's typing ``T = match(τ, A)`` when
the mgu ``θ`` left the goal the same object.  A goal ``θ`` rebuilt is
re-typed from its bindings: ``match(τ, Aθ)`` is the union of
``match(T(x), xθ)`` over the variables ``x`` of ``A`` (Lemma 2).  Here
every such goal of every step is compared with what plain Definition 13
``match`` computes for it, and every verdict with the full check's.

Inputs are seeded: insertion sort on random and descending lists, Peano
``times``, polymorphic ``app``/``revacc`` queries whose selected goal
commits a type variable (a non-empty ``η``), and forged mgus whose
bindings do not verify.
"""

import random

import pytest

from repro import obs
from repro.checker import check_text
from repro.core import ModedWellTypedChecker, TypedRunner
from repro.lang import parse_atom, parse_clause, parse_query
from repro.lp import Clause, Query
from repro.terms import Substitution
from repro.workloads import SOURCES

from .test_typed_run_carried import _e7_checker, _list, _nat


class Rebinding:
    """The runner's checker; on each carried step, audits the re-typed goals."""

    def __init__(self, inner):
        self.inner = inner
        self.strict = inner.strict if isinstance(inner, ModedWellTypedChecker) else inner
        self.rebound = 0  # goals re-typed from their bindings
        self.polymorphic = 0  # ... at a step whose selected goal has a non-empty η
        self.mismatches = []

    def clause_typing(self, clause):
        return self.inner.clause_typing(clause)

    def check_resolvent(self, goals, parent=None, clause=None, mgu=None):
        if parent is None:
            return self.inner.check_resolvent(goals)
        goals = tuple(goals)
        report = self.inner.check_resolvent(goals, parent, clause, mgu)
        full = self.inner.check_resolvent(goals)
        if report.well_typed != full.well_typed:
            self.mismatches.append((goals, full.reason))
        strict = report.strict_report if isinstance(self.inner, ModedWellTypedChecker) else report
        if strict is None or not strict.carried:
            return report
        witness = strict.witness
        body = len(clause.committed)
        changed = [
            index
            for index in range(body, len(goals))
            if goals[index] is not parent.goals[index - body + 1]
        ]
        assert strict.rebound == len(changed)
        for index in changed:
            expected = self.strict.matcher.match(witness.committed[index], goals[index])
            assert isinstance(expected, Substitution)
            assert witness.typings[index] == expected, goals[index]
        self.rebound += len(changed)
        if changed and len(parent.etas[0]):
            self.polymorphic += 1
        return report


def rebinding_runs(source, queries, **options):
    """Run each query under the audit; returns the :class:`Rebinding`."""
    module = check_text(source)
    checker = module.moded_checker or module.checker
    assert checker is not None, module.diagnostics.render()
    audit = Rebinding(checker)
    for text in queries:
        TypedRunner(audit, module.program).run(Query(parse_query(text).body), **options)
    assert not audit.mismatches, audit.mismatches[:3]
    return audit


@pytest.mark.parametrize("seed", range(4))
def test_insertion_sort(seed):
    rng = random.Random(f"rebound-isort:{seed}")
    lists = [[rng.randrange(8) for _ in range(rng.randrange(2, 9))] for _ in range(4)]
    lists.append(list(range(6 + 2 * seed, -1, -1)))  # descending: the worst case
    audit = rebinding_runs(
        SOURCES["insertion_sort"], [f":- isort({_list([_nat(n) for n in a])}, S)." for a in lists]
    )
    assert audit.rebound


@pytest.mark.parametrize("seed", range(3))
def test_times(seed):
    rng = random.Random(f"rebound-times:{seed}")
    queries = [
        f":- times({_nat(rng.randrange(1, 5))}, {_nat(rng.randrange(1, 5))}, R)."
        for _ in range(4)
    ]
    queries.append(f":- times({_nat(rng.randrange(1, 4))}, N, {_nat(rng.randrange(1, 7))}).")
    audit = rebinding_runs(
        SOURCES["naturals_arithmetic"], queries, max_answers=3, depth_limit=80
    )
    assert audit.rebound


@pytest.mark.parametrize("seed", range(4))
def test_polymorphic_append_and_revacc(seed):
    rng = random.Random(f"rebound-poly:{seed}")
    element = rng.choice(
        [lambda: _nat(rng.randrange(4)), lambda: _list([_nat(rng.randrange(3))] * rng.randrange(3))]
    )
    queries = []
    for _ in range(3):
        a = _list([element() for _ in range(rng.randrange(1, 6))])
        b = _list([element() for _ in range(rng.randrange(3))])
        queries += [
            f":- app(X, Y, {a}), revacc(X, {b}, R).",
            f":- app({a}, Y, Z), app(Z, {b}, W).",
            f":- revacc({a}, nil, R), app(R, {b}, S).",
            f":- reverse({a}, R), last(R, E).",
        ]
    audit = rebinding_runs(SOURCES["list_library"], queries, max_answers=6, depth_limit=80)
    assert audit.polymorphic, "some rebuilt goal must sit behind a non-empty selected η"


def _forged_step(query_text, binding):
    """The query's witness, the typing of ``app(nil, L, L)`` and the forged
    mgu ``{R ↦ binding}`` applied to the query's tail."""
    checker = _e7_checker()
    query = parse_query(query_text).body
    parent = checker.check_resolvent(query).witness
    assert parent is not None
    parsed = parse_clause("app(nil, L, L).")
    clause = checker.clause_typing(Clause(parsed.head, parsed.body))
    mgu = Substitution({parse_atom("q(R)").args[0]: parse_atom(f"q({binding})").args[0]})
    goals = tuple(mgu.apply(goal) for goal in query[1:])
    return checker, goals, parent, clause, mgu


@pytest.mark.parametrize(
    "query, binding",
    [
        # match(list(int), 0) fails.
        (":- app(nil, nil, R), q(R).", "0"),
        # R's binding types S at int, which p(S) types at a list.
        (":- app(nil, nil, R), q(R), p(S).", "cons(S, nil)"),
    ],
    ids=["binding fails", "binding disagrees"],
)
def test_a_forged_binding_does_not_verify(query, binding):
    checker, goals, parent, clause, mgu = _forged_step(query, binding)
    report = checker.check_resolvent(goals, parent, clause, mgu)
    assert not report.carried and not report.rebound
    assert not report.well_typed
    assert not checker.check_resolvent(goals).well_typed


def test_a_verified_binding_is_carried():
    checker, goals, parent, clause, mgu = _forged_step(
        ":- app(nil, nil, R), q(R), p(S).", "cons(0, nil)"
    )
    report = checker.check_resolvent(goals, parent, clause, mgu)
    assert report.carried and report.rebound == 1
    assert report.witness.typings == tuple(
        checker.matcher.match(committed, goal)
        for committed, goal in zip(report.witness.committed, goals)
    )


def test_rebound_counter():
    module = check_text(SOURCES["insertion_sort"])
    runner = TypedRunner(module.checker, module.program)
    query = Query(parse_query(f":- isort({_list([_nat(n) for n in range(5, -1, -1)])}, S).").body)
    obs.reset()
    with obs.collect() as (metrics, _):
        runner.run(query)
    counters = metrics.snapshot()["counters"]
    assert 0 < counters["typed_run.rebound"] < counters["typed_run.carried"]
