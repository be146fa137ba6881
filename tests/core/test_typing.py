"""Definitions 10–12: typings, respectfulness, generality, agreement.

The Section 4 examples are replayed verbatim.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SubtypeEngine,
    agreeing_union,
    in_agreement,
    is_respectful_typing,
    is_typing,
    merge_typings,
    more_general_typing,
)
from repro.lang import parse_term as T
from repro.terms import Substitution, Var
from repro.workloads import paper_universe


@pytest.fixture(scope="module")
def engine():
    return SubtypeEngine(paper_universe())


def typing(**bindings):
    return Substitution({Var(name): T(text) for name, text in bindings.items()})


# -- Definition 10: the paper's example list -------------------------------------


def test_typings_for_x_under_list_a(engine):
    # "the following substitutions are typings for X under list(A):
    #  {X ↦ list(A)}, {X ↦ nelist(A)}, {X ↦ list(int)}, and {X ↦ list(B)}."
    for candidate in [
        typing(X="list(A)"),
        typing(X="nelist(A)"),
        typing(X="list(int)"),
        typing(X="list(B)"),
    ]:
        assert is_typing(engine, T("list(A)"), Var("X"), candidate), candidate


def test_only_first_two_are_respectful(engine):
    # "Of these, only the first and second are respectful."
    assert is_respectful_typing(engine, T("list(A)"), Var("X"), typing(X="list(A)"))
    assert is_respectful_typing(engine, T("list(A)"), Var("X"), typing(X="nelist(A)"))
    assert not is_respectful_typing(engine, T("list(A)"), Var("X"), typing(X="list(int)"))
    assert not is_respectful_typing(engine, T("list(A)"), Var("X"), typing(X="list(B)"))


def test_every_substitution_types_fx_under_variable(engine):
    # "every substitution over {X} is a typing for f(X) under A, but none
    # is respectful" (with cons playing the role of f).
    term = T("cons(X, nil)")
    for candidate in [typing(X="nat"), typing(X="list(B)"), typing(X="A")]:
        assert is_typing(engine, T("A"), term, candidate)
        assert not is_respectful_typing(engine, T("A"), term, candidate)


def test_partial_substitution_is_not_a_typing(engine):
    term = T("cons(X, Y)")
    assert not is_typing(engine, T("list(A)"), term, typing(X="A"))


def test_non_member_is_not_a_typing(engine):
    assert not is_typing(engine, T("nat"), Var("X"), typing(X="list(A)"))


# -- Definition 11: more general typings ---------------------------------------------


def test_more_general_typing_paper_example(engine):
    # "{X ↦ list(A)} is a more general typing for X than either
    #  {X ↦ nelist(A)} or {X ↦ list(int)}."
    general = typing(X="list(A)")
    assert more_general_typing(engine, general, typing(X="nelist(A)"), Var("X"))
    assert more_general_typing(engine, general, typing(X="list(int)"), Var("X"))
    assert not more_general_typing(engine, typing(X="nelist(A)"), general, Var("X"))


def test_more_general_typing_componentwise(engine):
    term = T("cons(X, Y)")
    general = typing(X="A", Y="list(A)")
    specific = typing(X="int", Y="list(int)")
    assert more_general_typing(engine, general, specific, term)
    assert not more_general_typing(engine, specific, general, term)


def test_more_general_typing_is_reflexive(engine):
    candidate = typing(X="list(A)", Y="nat")
    assert more_general_typing(engine, candidate, candidate, T("cons(X, Y)"))


# -- Definition 12: agreement ---------------------------------------------------------


def test_agreement_requires_syntactic_equality():
    assert in_agreement([typing(X="list(A)"), typing(X="list(A)")])
    # Name-based: list(A) and list(B) do NOT agree even though equivalent.
    assert not in_agreement([typing(X="list(A)"), typing(X="list(B)")])


def test_agreement_on_disjoint_domains():
    assert in_agreement([typing(X="int"), typing(Y="list(A)")])


def test_agreement_is_pairwise():
    assert not in_agreement(
        [typing(X="int"), typing(Y="nat"), typing(X="nat", Y="nat")]
    )


def test_empty_set_agrees():
    assert in_agreement([])
    assert in_agreement([typing(X="int")])


def _pairwise_agreement(typings):
    """Definition 12 as written: every pair agrees on its common variables."""
    return all(
        first[var] == second[var]
        for first, second in combinations(typings, 2)
        for var in first.domain & second.domain
    )


# Few variables and few types, so clashes and repeats are both common.
_TYPES = [T(text) for text in ("int", "nat", "list(A)", "list(B)", "list(int)", "A")]
_TYPINGS = st.lists(
    st.dictionaries(
        st.sampled_from([Var(name) for name in "XYZ"]),
        st.sampled_from(_TYPES),
        max_size=3,
    ).map(Substitution),
    max_size=6,
)


@settings(max_examples=400)
@given(_TYPINGS)
def test_one_pass_agreement_matches_the_pairwise_definition(typings):
    assert in_agreement(typings) == _pairwise_agreement(typings)
    union = agreeing_union(typings)
    assert (union is not None) == _pairwise_agreement(typings)
    if union is not None:
        assert Substitution(union) == merge_typings(typings)


def test_merge_typings():
    merged = merge_typings([typing(X="int"), typing(Y="list(A)")])
    assert merged[Var("X")] == T("int")
    assert merged[Var("Y")] == T("list(A)")


def test_merge_typings_rejects_clash():
    with pytest.raises(ValueError):
        merge_typings([typing(X="int"), typing(X="nat")])
