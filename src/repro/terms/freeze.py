"""Skolemization — the paper's bar operation ``τ̄``.

Definition 5 ("more general type") and Definition 10 ("respectful typing")
both use ``τ̄``: *"Let τ̄ be τ with each variable replaced by a unique
constant not appearing in any type."*  Replacing variables with fresh
constants turns an existentially quantified subtype question into a
universally quantified one: a refutation of ``:- τ1 >= τ̄2`` cannot
instantiate the (frozen) variables of ``τ2``, so success means ``τ1`` can
be specialised to cover *every* instance of ``τ2``.

Frozen constants are nullary structs with a reserved name prefix that the
parsers reject in user programs, so they genuinely "do not appear in any
type".  :func:`melt` inverts the operation, which the test-suite uses to
round-trip.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .term import Struct, Term, Var, map_variables

__all__ = [
    "FROZEN_PREFIX",
    "freeze",
    "freeze_many",
    "melt",
    "unfreeze",
    "is_frozen_constant",
]

FROZEN_PREFIX = "'$frozen"

_freeze_counter = itertools.count()


def is_frozen_constant(term: Term) -> bool:
    """True iff ``term`` is a constant produced by :func:`freeze`."""
    return isinstance(term, Struct) and not term.args and term.functor.startswith(FROZEN_PREFIX)


def freeze(term: Term) -> Term:
    """``t̄``: replace each variable of ``term`` with a unique fresh constant.

    Distinct variables map to distinct constants; repeated occurrences of
    the same variable map to the same constant (the paper's ``τ̄`` requires
    exactly this — e.g. the frozen ``f(X, X)`` must stay unifiable only
    with terms whose two arguments are equal).
    """
    frozen, _ = freeze_with_mapping(term)
    return frozen


def _fresh_frozen(_variable: Var) -> Struct:
    return Struct(f"{FROZEN_PREFIX}{next(_freeze_counter)}", ())


def freeze_with_mapping(term: Term) -> Tuple[Term, Dict[Var, Struct]]:
    """Like :func:`freeze` but also return the variable → constant mapping.

    A ground term is its own bar (``t̄ = t``) and is returned as-is — an
    O(1) check on the cached groundness flag that makes the Definition
    5/10 "more general" comparisons free on their ground side.  The
    non-ground walk is iterative (``map_variables``) and shares ground
    subtrees instead of rebuilding them.  Results are never cached across
    calls: each freeze must mint *fresh* constants ("not appearing in any
    type"), so two freezes of the same non-ground term are deliberately
    different.
    """
    if isinstance(term, Struct) and term.ground:
        return term, {}
    mapping: Dict[Var, Struct] = {}
    return map_variables(term, mapping, default=_fresh_frozen), mapping


def freeze_many(terms: "list[Term]") -> "list[Term]":
    """Freeze several terms with one *shared* variable → constant mapping.

    Definition 10's respectfulness check compares ``τ̄`` with ``t̄θ`` where
    the two terms may share type variables; the bar operation assigns each
    *variable* a unique constant, so a variable shared between the terms
    must freeze to the same constant in both.  This helper provides that
    consistent freezing.
    """
    mapping: Dict[Var, Struct] = {}
    return [
        term
        if isinstance(term, Struct) and term.ground
        else map_variables(term, mapping, default=_fresh_frozen)
        for term in terms
    ]


def melt(term: Term, mapping: Dict[Var, Struct]) -> Term:
    """Invert :func:`freeze_with_mapping`: constants back to their variables."""
    return unfreeze(term, {const: var for var, const in mapping.items()})


def unfreeze(term: Term, inverse: Dict[Struct, Var]) -> Term:
    """Replace every constant in ``inverse`` by its variable.

    Frozen constants are themselves ground, so — unlike :func:`freeze` —
    melting cannot skip ground subtrees; it walks everything, iteratively.
    """
    if not inverse:
        return term
    if isinstance(term, Var):
        return term
    replacement = inverse.get(term)
    if replacement is not None:
        return replacement
    # Each frame is [node, built_args]; len(built_args) indexes the next child.
    frames: List[List[object]] = [[term, []]]
    result: Term = term
    while frames:
        node, built = frames[-1]
        args = node.args  # type: ignore[union-attr]
        index = len(built)  # type: ignore[arg-type]
        if index < len(args):
            child = args[index]
            if isinstance(child, Struct):
                melted = inverse.get(child)
                if melted is not None:
                    built.append(melted)  # type: ignore[union-attr]
                    continue
                if child.args:
                    frames.append([child, []])
                    continue
            built.append(child)  # type: ignore[union-attr]
            continue
        frames.pop()
        rebuilt: Term = (
            Struct(node.functor, tuple(built)) if args else node  # type: ignore[union-attr,arg-type]
        )
        if frames:
            frames[-1][1].append(rebuilt)  # type: ignore[union-attr]
        else:
            result = rebuilt
    return result
