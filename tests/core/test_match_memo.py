"""The matchers' memo tables: bounded size, and answers a warm memo cannot change.

``Matcher`` memoizes every struct/struct pair; ``ConstraintMatcher``
memoizes public calls whose type is ground.  Both are emptied past
``repro.core.match.MEMO_LIMIT``.  The differential tests pin a warm
``ConstraintMatcher`` to a fresh matcher per call on generated universes.
"""

import random

import pytest

from repro import obs
from repro.core import ConstraintMatcher, Matcher
from repro.core import match as match_module
from repro.lang import parse_term as T
from repro.terms import Struct, Var, is_ground, variables_of
from repro.workloads import deep_nat, ids_nonuniform, paper_universe
from repro.workloads.generators import (
    random_ground_member,
    random_guarded_constraint_set,
    random_type,
)


def _outcome(result):
    return (result.result, result.equations, result.covers)


def test_memos_stay_bounded_and_answers_stay_correct(monkeypatch):
    monkeypatch.setattr(match_module, "MEMO_LIMIT", 8)
    universe = paper_universe()
    matcher = Matcher(universe)
    cmatcher = ConstraintMatcher(universe)
    reference = Matcher(universe, memoize=False)
    pairs = []
    for n in range(30):
        pairs.append((T("list(nat)"), Struct("cons", (Var(f"X{n}"), T("nil")))))
        pairs.append((T("int"), deep_nat(n)))
        pairs.append((T("list(int)"), T(f"cons(succ(Y{n}), cons(0, nil))")))
    seen_c = 0
    for type_term, term in pairs + pairs[::-1]:
        assert matcher.match(type_term, term) == reference.match(type_term, term)
        assert len(matcher._memo) <= 8
        fresh = ConstraintMatcher(universe, validate=False)
        assert _outcome(cmatcher.match(type_term, term, set())) == _outcome(
            fresh.match(type_term, term, set())
        )
        assert len(cmatcher._memo) <= 8
        seen_c = max(seen_c, len(cmatcher._memo))
    # More distinct pairs than the cap went through both memos.
    assert len(pairs) > 8 and seen_c > 0 and matcher._memo


def test_memo_hits_counted_only_for_repeated_ground_types():
    cmatcher = ConstraintMatcher(paper_universe())
    ground, open_type, term = T("list(nat)"), T("list(A)"), T("cons(X, nil)")
    with obs.collect() as (metrics, _sink):
        before = metrics.counter("constraint_match.memo_hits")
        calls = metrics.counter("constraint_match.calls")
        for _ in range(3):
            cmatcher.match(ground, term, set())
            cmatcher.match(open_type, term, {Var("A")})
        assert metrics.counter("constraint_match.memo_hits") - before == 2
        assert metrics.counter("constraint_match.calls") - calls == 6


def _punch_holes(rng, term, names):
    """``term`` with some subterms replaced by variables drawn from ``names``."""
    if isinstance(term, Struct) and term.args and rng.random() < 0.7:
        return Struct(term.functor, tuple(_punch_holes(rng, a, names) for a in term.args))
    if rng.random() < 0.4:
        return Var(rng.choice(names))
    return term


def _universe_case(seed):
    rng = random.Random(seed)
    if seed % 4 == 3:
        constraints = ids_nonuniform()
        types = [T(text) for text in ("id(males)", "id(females)", "person", "int", "id(nat)")]
    else:
        constraints = random_guarded_constraint_set(rng)
        types = [
            random_type(rng, constraints, depth=3, allow_variables=False) for _ in range(6)
        ]
    members = []
    for tau in types:
        for _ in range(2):
            member = random_ground_member(rng, constraints, tau, max_depth=3)
            if member is not None:
                members.append(member)
    names = ["X", "Y", "Z"]
    terms = members + [_punch_holes(rng, m, names) for m in members] + [Var("X")]
    return rng, constraints, types, terms


@pytest.mark.parametrize("seed", range(12))
def test_warm_ground_type_memo_agrees_with_fresh_matchers(seed):
    rng, constraints, types, terms = _universe_case(seed)
    assert any(not is_ground(t) for t in terms)
    warm = ConstraintMatcher(constraints, validate=False)
    pairs = [(tau, term) for tau in types for term in terms]
    # Repeated and interleaved: every pair three times, in three orders.
    schedule = pairs + rng.sample(pairs, len(pairs)) + pairs[::-1]
    bystander = Var("_Unrelated")
    for tau, term in schedule:
        solvable = {bystander}
        got = warm.match(tau, term, solvable)
        fresh = ConstraintMatcher(constraints, validate=False).match(tau, term, set())
        assert _outcome(got) == _outcome(fresh), (tau, term)
        # A ground type never grows shapes, so it never touches ``solvable``.
        assert got.equations == () and got.covers == ()
        assert solvable == {bystander}
    assert len(warm._memo) == len(set(pairs))


@pytest.mark.parametrize("seed", range(8))
def test_non_ground_types_still_grow_solvable_per_call(seed):
    rng, constraints, _types, terms = _universe_case(seed)
    params = (Var("A"), Var("B"))
    types = [
        random_type(rng, constraints, depth=3, variables=params) for _ in range(6)
    ] + [params[0]]
    warm = ConstraintMatcher(constraints, validate=False)
    for tau in types:
        if is_ground(tau):
            continue
        for term in terms:
            grown = []
            outcomes = []
            for matcher in (warm, warm, ConstraintMatcher(constraints, validate=False)):
                solvable = set(params)
                outcome = matcher.match(tau, term, solvable)
                grown.append(solvable - set(params))
                outcomes.append(
                    (type(outcome.result), len(outcome.equations), len(outcome.covers))
                )
            assert outcomes[0] == outcomes[1] == outcomes[2], (tau, term)
            assert len(grown[0]) == len(grown[1]) == len(grown[2])
            # Each call invents its own fresh β: nothing was replayed.
            assert not grown[0] & grown[1]
            for fresh_beta in grown[0]:
                assert fresh_beta not in variables_of(tau)
    assert not warm._memo
