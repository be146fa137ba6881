"""The constraint matcher's typing-free walk over ground terms.

A ground term can only meet fail, ⊥ or a typing whose substitution is
empty and whose cover constraints say everything, so
``ConstraintMatcher`` answers it without building typings.  This pins the
walk to a test-local copy of the general clause 3/4 recursion it replaces
(the reference), on generated guarded universes with open types that mix
solvable and rigid variables, and on hand cases: unions, expansion-less
constructors, rigid variables, duplicate covers and a 20,000-deep tower.
"""

import random
import threading

import pytest

from repro.core import ConstraintMatcher, MATCH_BOTTOM, MATCH_FAIL
from repro.core.constraint_match import ConstraintMatchResult
from repro.core.declarations import ConstraintSet, SymbolTable
from repro.core.recursion import ensure_recursion_capacity
from repro.lang import parse_term as T
from repro.terms import Struct, Substitution, Var
from repro.terms.term import fresh_variable, is_ground, variables_of
from repro.workloads import constraint, paper_universe
from repro.workloads.generators import (
    random_ground_member,
    random_guarded_constraint_set,
    random_type,
)

_FAIL = ConstraintMatchResult(MATCH_FAIL)
_BOTTOM = ConstraintMatchResult(MATCH_BOTTOM)
_EMPTY = ConstraintMatchResult(Substitution())


class _Reference:
    """The general recursion over clauses 1-4, as it ran on every term
    before ground terms had a walk of their own."""

    def __init__(self, matcher: ConstraintMatcher) -> None:
        self.constraints = matcher.constraints
        self.symbols = matcher.symbols
        self.automaton = matcher._automaton

    def match(self, type_term, term, solvable):
        if isinstance(term, Var):
            return ConstraintMatchResult(Substitution({term: type_term}))
        if isinstance(type_term, Var):
            if type_term not in solvable:
                return _BOTTOM
            if is_ground(term):
                return ConstraintMatchResult(Substitution(), covers=((type_term, term),))
            return self._grow_shape(type_term, term, solvable)
        if self.automaton is not None and type_term.ground and term.ground:
            verdict = self.automaton.match_ground(type_term, term, constraint_mode=True)
            if verdict == "typing":
                return _EMPTY
            return _FAIL if verdict == "fail" else _BOTTOM
        if self.symbols.is_type_constructor(type_term.functor):
            return self._match_constructor(type_term, term, solvable)
        return self._match_function(type_term, term, solvable)

    def _grow_shape(self, alpha, term, solvable):
        betas = tuple(fresh_variable("_T") for _ in term.args)
        solvable.update(betas)
        equations = [(alpha, Struct(term.functor, betas))]
        return self._components(zip(betas, term.args), solvable, equations)

    def _match_function(self, type_term, term, solvable):
        if type_term.functor != term.functor or len(type_term.args) != len(term.args):
            return _FAIL
        if not type_term.args:
            return _EMPTY
        return self._components(zip(type_term.args, term.args), solvable, [])

    def _components(self, pairs, solvable, equations):
        typings, covers = [], []
        for tau, sub in pairs:
            inner = self.match(tau, sub, solvable)
            if inner.result is MATCH_FAIL:
                return _FAIL
            if inner.result is MATCH_BOTTOM:
                return _BOTTOM
            typings.append(inner.result)
            equations.extend(inner.equations)
            covers.extend(inner.covers)
        merged = {}
        for typing in typings:
            for var, value in typing.items():
                previous = merged.get(var)
                if previous is None:
                    merged[var] = value
                elif previous != value:
                    if variables_of(previous) & solvable or variables_of(value) & solvable:
                        equations.append((previous, value))
                    else:
                        return _BOTTOM
        return ConstraintMatchResult(Substitution(merged), tuple(equations), tuple(covers))

    def _match_constructor(self, type_term, term, solvable):
        outcomes = []
        for expansion in self.constraints.expansions(type_term):
            outcome = self.match(expansion, term, solvable)
            if outcome not in outcomes:
                outcomes.append(outcome)
        non_fail = [o for o in outcomes if o.result is not MATCH_FAIL]
        if not non_fail:
            return _FAIL if outcomes else _BOTTOM
        if len(non_fail) == 1 and len(outcomes) <= 2:
            return non_fail[0]
        return _BOTTOM


def _assert_same(matcher, type_term, term, solvable):
    before = set(solvable)
    expected = _Reference(matcher).match(type_term, term, set(solvable))
    got = matcher.match(type_term, term, solvable)
    assert got == expected, (type_term, term)
    assert solvable == before
    return got


@pytest.fixture(params=[True, False], ids=["automata", "fallback"])
def automata(request):
    return request.param


# -- generated universes -------------------------------------------------------


def _open_cases(rng, cset, count):
    """``count`` (open type, ground term, solvable) triples: the term is
    an inhabitant of the type under a random ground instantiation half
    the time, and of an unrelated type otherwise."""
    variables = [Var("A"), Var("B"), Var("C")]
    cases = []
    while len(cases) < count:
        tau = random_type(rng, cset, depth=3, variables=variables)
        if isinstance(tau, Var):
            continue
        mapping = {
            var: random_type(rng, cset, depth=2, allow_variables=False)
            for var in variables_of(tau)
        }
        source = Substitution(mapping).apply(tau) if rng.random() < 0.5 else (
            random_type(rng, cset, depth=3, allow_variables=False)
        )
        term = random_ground_member(rng, cset, source, max_depth=4)
        if term is None:
            continue
        solvable = {var for var in variables if rng.random() < 0.5}
        cases.append((tau, term, solvable))
    return cases


@pytest.mark.parametrize("seed", range(12))
def test_walk_matches_the_reference_on_generated_universes(seed, automata):
    rng = random.Random(seed)
    cset = random_guarded_constraint_set(rng, type_count=5, function_count=5)
    matcher = ConstraintMatcher(cset, automata=automata)
    verdicts = set()
    for tau, term, solvable in _open_cases(rng, cset, 40):
        got = _assert_same(matcher, tau, term, solvable)
        verdicts.add("typing" if got.is_typing else repr(got.result))
    assert "typing" in verdicts


# -- hand cases -----------------------------------------------------------------


def _universe(functions, types, constraints):
    symbols = SymbolTable()
    for name, arity in functions:
        symbols.declare_function(name, arity)
    for name, arity in types:
        symbols.declare_type_constructor(name, arity)
    return ConstraintSet(symbols, [constraint(text) for text in constraints])


def test_union_whose_two_expansions_both_type_the_term_is_bottom(automata):
    matcher = ConstraintMatcher(paper_universe(), automata=automata)
    a, b = Var("A"), Var("B")
    got = _assert_same(matcher, T("list(A) + list(B)"), T("cons(0, nil)"), {a, b})
    assert got.result is MATCH_BOTTOM
    # Equal covers collapse to one element of S: a typing.
    got = _assert_same(matcher, T("list(A) + list(A)"), T("cons(0, nil)"), {a})
    assert got.covers == ((a, T("0")),)


def test_expansion_less_constructor_is_bottom(automata):
    cset = _universe([("0", 0), ("box", 1)], [("void", 1), ("nat", 0)], ["nat >= 0"])
    matcher = ConstraintMatcher(cset, automata=automata)
    alpha = Var("A")
    assert _assert_same(matcher, T("void(A)"), T("0"), {alpha}).result is MATCH_BOTTOM
    got = _assert_same(matcher, T("box(void(A))"), T("box(0)"), {alpha})
    assert got.result is MATCH_BOTTOM


def test_rigid_variable_over_a_ground_subterm_is_bottom(automata):
    matcher = ConstraintMatcher(paper_universe(), automata=automata)
    got = _assert_same(matcher, T("list(R)"), T("cons(0, nil)"), set())
    assert got.result is MATCH_BOTTOM
    # ... but the empty list types without ever meeting R.
    assert _assert_same(matcher, T("list(R)"), T("nil"), set()) == _EMPTY


def test_repeated_elements_keep_duplicate_covers_in_order(automata):
    matcher = ConstraintMatcher(paper_universe(), automata=automata)
    alpha = Var("E")
    term = T("cons(0, cons(0, cons(succ(0), cons(0, nil))))")
    got = _assert_same(matcher, T("list(E)"), term, {alpha})
    zero, one = T("0"), T("succ(0)")
    assert got.covers == ((alpha, zero), (alpha, zero), (alpha, one), (alpha, zero))
    assert got.equations == ()


def test_a_20000_deep_tower_walks_without_the_c_stack(automata):
    cset = _universe(
        [("0", 0), ("succ", 1), ("base", 1)],
        [("tower", 1)],
        ["tower(A) >= base(A)", "tower(A) >= succ(tower(A))"],
    )
    matcher = ConstraintMatcher(cset, automata=automata)
    alpha = Var("A")
    term = T("base(0)")
    for _ in range(20_000):
        term = Struct("succ", (term,))
    solvable = {alpha}
    got = matcher.match(T("tower(A)"), term, solvable)
    assert got.covers == ((alpha, T("0")),) and got.is_typing
    assert solvable == {alpha}
    assert matcher.match(T("tower(R)"), term, set()).result is MATCH_BOTTOM

    # The reference recurses a few Python frames per level; before
    # Python 3.11 each of those takes C stack too, so it gets a thread
    # with room for them.
    ensure_recursion_capacity(term)
    expected = {}
    previous = threading.stack_size(512 * 1024 * 1024)
    try:
        worker = threading.Thread(
            target=lambda: expected.update(
                result=_Reference(matcher).match(T("tower(A)"), term, {alpha})
            )
        )
        worker.start()
        worker.join()
    finally:
        threading.stack_size(previous)
    assert expected["result"] == got
