"""Unit tests for the term representation and traversals."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terms import (
    Struct,
    Var,
    atom,
    fresh_variable,
    functors_of,
    is_ground,
    occurs_in,
    rename_apart,
    struct,
    subterms,
    symbols_of,
    term_depth,
    term_size,
    variables_in_order,
    variables_of,
)


def test_var_equality_by_name():
    assert Var("X") == Var("X")
    assert Var("X") != Var("Y")


def test_struct_equality_structural():
    assert struct("f", Var("X")) == struct("f", Var("X"))
    assert struct("f", Var("X")) != struct("f", Var("Y"))
    assert struct("f") != struct("g")


def test_atom_is_nullary_struct():
    a = atom("nil")
    assert isinstance(a, Struct)
    assert a.args == ()
    assert a.arity == 0
    assert a.indicator == ("nil", 0)


def test_struct_hash_consistency():
    t1 = struct("cons", Var("X"), atom("nil"))
    t2 = struct("cons", Var("X"), atom("nil"))
    assert hash(t1) == hash(t2)
    assert len({t1, t2}) == 1


def test_str_rendering():
    assert str(struct("cons", Var("X"), atom("nil"))) == "cons(X, nil)"
    assert str(atom("nil")) == "nil"
    assert str(Var("X")) == "X"


def test_subterms_preorder():
    term = struct("f", struct("g", Var("X")), atom("a"))
    listed = list(subterms(term))
    assert listed[0] == term
    assert listed[1] == struct("g", Var("X"))
    assert listed[2] == Var("X")
    assert listed[3] == atom("a")


def test_variables_of():
    term = struct("f", Var("X"), struct("g", Var("Y"), Var("X")))
    assert variables_of(term) == {Var("X"), Var("Y")}
    assert variables_of(atom("a")) == set()


def test_variables_in_order():
    term = struct("f", Var("B"), struct("g", Var("A"), Var("B")))
    assert variables_in_order(term) == [Var("B"), Var("A")]


def test_is_ground():
    assert is_ground(struct("f", atom("a"), atom("b")))
    assert not is_ground(struct("f", Var("X")))
    assert not is_ground(Var("X"))


def test_term_size_and_depth():
    term = struct("f", struct("g", atom("a")), Var("X"))
    assert term_size(term) == 4
    assert term_depth(term) == 3
    assert term_depth(atom("a")) == 1
    assert term_depth(Var("X")) == 1


def test_deep_term_traversal_is_iterative():
    term = atom("z")
    for _ in range(50_000):
        term = struct("s", term)
    assert term_depth(term) == 50_001
    assert term_size(term) == 50_001
    assert is_ground(term)


_shapes = st.recursive(
    st.sampled_from(["X", "Y", "a", "b"]),
    lambda children: st.tuples(
        st.sampled_from(["f", "g"]), st.lists(children, min_size=1, max_size=3)
    ),
    max_leaves=40,
)


def _build(shape):
    if isinstance(shape, str):
        return Var(shape) if shape.isupper() else atom(shape)
    functor, children = shape
    return Struct(functor, tuple(_build(child) for child in children))


def _height(term):
    """Reference height: the recursive definition the cached depth must match."""
    if isinstance(term, Struct):
        return 1 + max((_height(arg) for arg in term.args), default=0)
    return 1


@settings(max_examples=300)
@given(_shapes)
def test_cached_depth_equals_recursive_height(shape):
    term = _build(shape)
    assert term_depth(term) == _height(term)
    restored = pickle.loads(pickle.dumps(term))
    assert restored == term
    assert term_depth(restored) == _height(term)


def test_occurs_in():
    term = struct("f", struct("g", Var("X")))
    assert occurs_in(Var("X"), term)
    assert not occurs_in(Var("Y"), term)
    assert occurs_in(Var("X"), Var("X"))


def test_symbols_and_functors():
    term = struct("f", struct("g", atom("a")), atom("a"))
    assert symbols_of(term) == {("f", 2), ("g", 1), ("a", 0)}
    assert functors_of(term) == {"f", "g", "a"}


def test_fresh_variables_are_distinct():
    seen = {fresh_variable() for _ in range(1000)}
    assert len(seen) == 1000


def test_rename_apart_preserves_structure():
    term = struct("f", Var("X"), struct("g", Var("X"), Var("Y")))
    renamed, mapping = rename_apart(term)
    assert len(mapping) == 2
    assert isinstance(renamed, Struct)
    # Shared variables stay shared after renaming.
    assert renamed.args[0] == renamed.args[1].args[0]
    assert variables_of(renamed).isdisjoint(variables_of(term))


def test_rename_apart_ground_term_unchanged():
    term = struct("f", atom("a"))
    renamed, mapping = rename_apart(term)
    assert renamed == term
    assert mapping == {}
