"""Pretty-printer tests, including the parse∘pretty round-trip property."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recursion import ensure_recursion_capacity
from repro.lang import parse_term
from repro.terms import Struct, Var, atom, pretty, struct, term_depth


def test_pretty_variable():
    assert pretty(Var("Xs")) == "Xs"


def test_pretty_constant():
    assert pretty(atom("nil")) == "nil"


def test_pretty_application():
    assert pretty(struct("cons", Var("X"), atom("nil"))) == "cons(X, nil)"


def test_pretty_union_infix():
    assert pretty(struct("+", atom("a"), atom("b"))) == "a + b"


def test_pretty_union_left_associative():
    nested = struct("+", struct("+", atom("a"), atom("b")), atom("c"))
    assert pretty(nested) == "a + b + c"
    assert parse_term(pretty(nested)) == nested


def test_pretty_union_right_nested_parenthesised():
    nested = struct("+", atom("a"), struct("+", atom("b"), atom("c")))
    assert pretty(nested) == "a + (b + c)"
    assert parse_term(pretty(nested)) == nested


def test_pretty_union_inside_application():
    term = struct("list", struct("+", atom("a"), atom("b")))
    assert pretty(term) == "list(a + b)"
    assert parse_term(pretty(term)) == term


# -- round-trip property ---------------------------------------------------------

variables = st.sampled_from([Var("X"), Var("Y"), Var("Zs")])
constants = st.sampled_from([atom("a"), atom("nil"), atom("0")])


def _terms(depth):
    if depth == 0:
        return variables | constants
    smaller = _terms(depth - 1)
    compounds = st.builds(
        lambda functor, args: Struct(functor, tuple(args)),
        st.sampled_from(["f", "cons", "succ"]),
        st.lists(smaller, min_size=1, max_size=3),
    )
    unions = st.builds(lambda l, r: Struct("+", (l, r)), smaller, smaller)
    return variables | constants | compounds | unions


@given(_terms(3))
@settings(max_examples=300)
def test_parse_pretty_round_trip(term):
    assert parse_term(pretty(term)) == term


@st.composite
def _deep_terms(draw, max_depth=50):
    """A spine of up to ``max_depth`` applications and ``+`` unions, with
    small random siblings hanging off it; a union on the right of ``+``
    prints parenthesised."""
    term = draw(_terms(1))
    for _ in range(draw(st.integers(0, max_depth))):
        sibling = draw(_terms(1))
        shape = draw(st.sampled_from(["arg", "left", "right"]))
        if shape == "arg":
            functor = draw(st.sampled_from(["f", "cons", "succ"]))
            term = Struct(functor, (sibling, term) if draw(st.booleans()) else (term,))
        elif shape == "left":
            term = Struct("+", (term, sibling))
        else:
            term = Struct("+", (sibling, term))
    return term


@given(_deep_terms())
@settings(max_examples=300)
def test_parse_pretty_round_trip_deep_unions(term):
    assert parse_term(pretty(term)) == term


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="the recursive printer overflows the C stack before Python 3.11",
)
def test_parse_pretty_round_trip_10k_deep():
    wrappers = [
        lambda t: Struct("cons", (Var("X"), t)),
        lambda t: Struct("succ", (t,)),
        lambda t: Struct("+", (atom("nil"), t)),  # prints as nil + (...)
    ]
    term = atom("0")
    for level in range(10_000):
        term = wrappers[level % 3](term)
    assert term_depth(term) == 10_001
    ensure_recursion_capacity(term)  # pretty() recurses; the parser does not
    assert parse_term(pretty(term)) == term
