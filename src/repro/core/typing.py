"""Variable typings (Definitions 10–12).

A *typing* for a term ``t`` under a type ``τ`` is a substitution mapping
each variable of ``t`` to a type such that ``τ ⪰_C t̄θ`` — i.e. freezing
the typed term still leaves it below ``τ`` (possibly after instantiating
``τ``'s own variables).  The typing is *respectful* when even the frozen
``τ̄`` is above ``t̄θ`` (no instantiation of ``τ`` needed), where the bar
freezes variables consistently across both terms.

The paper's Section 4 examples, which the tests replay verbatim:

* ``{X ↦ list(A)}``, ``{X ↦ nelist(A)}``, ``{X ↦ list(int)}`` and
  ``{X ↦ list(B)}`` are all typings for ``X`` under ``list(A)``; only the
  first two are respectful.
* every substitution over ``{X}`` is a typing for ``f(X)`` under a type
  variable ``A``, but none is respectful.

Definition 11 lifts "more general" (Definition 5) pointwise to typings,
and Definition 12 defines *agreement*: typings agree when they give
syntactically equal types to common variables (type equivalence is
name-based, hence syntactic).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..terms.freeze import freeze, freeze_many
from ..terms.substitution import Substitution
from ..terms.term import Term, Var, variables_of
from .subtype import SubtypeEngine

__all__ = [
    "is_typing",
    "is_respectful_typing",
    "more_general_typing",
    "in_agreement",
    "agreeing_union",
    "merge_typings",
]


def is_typing(
    engine: SubtypeEngine, type_term: Term, term: Term, theta: Substitution
) -> bool:
    """Definition 10: ``θ`` types ``t`` under ``τ`` iff ``τ ⪰_C t̄θ``.

    ``θ`` must cover every variable of ``t`` (it "maps each variable in t
    to a type"); a partial substitution is not a typing.
    """
    if not variables_of(term) <= theta.domain:
        return False
    return engine.holds(type_term, freeze(theta.apply(term)))


def is_respectful_typing(
    engine: SubtypeEngine, type_term: Term, term: Term, theta: Substitution
) -> bool:
    """Definition 10 (second half): respectful iff ``τ̄ ⪰_C t̄θ``.

    The two bars share one variable → constant mapping: a type variable
    occurring both in ``τ`` and in ``tθ`` freezes to the same constant
    (otherwise ``{X ↦ list(A)}`` would not be respectful for ``X`` under
    ``list(A)``, contradicting the paper's own example).
    """
    if not variables_of(term) <= theta.domain:
        return False
    frozen_tau, frozen_t_theta = freeze_many([type_term, theta.apply(term)])
    return engine.holds(frozen_tau, frozen_t_theta)


def more_general_typing(
    engine: SubtypeEngine, general: Substitution, specific: Substitution, term: Term
) -> bool:
    """Definition 11: ``θ1`` is more general than ``θ2`` for ``t`` iff for
    all ``x ∈ var(t)``, ``xθ1`` is more general than ``xθ2`` (Definition 5,
    checked per variable)."""
    for var in variables_of(term):
        if not engine.more_general(general.apply(var), specific.apply(var)):
            return False
    return True


def agreeing_union(
    typings: Iterable[Substitution], merged: Optional[Dict[Var, Term]] = None
) -> Optional[Dict[Var, Term]]:
    """The union of ``typings`` as one ``Var → type`` map, or ``None`` when
    two of them give a common variable different types.

    One pass over the bindings decides Definition 12's pairwise condition:
    syntactic equality is transitive, so every typing agrees with every
    other exactly when each binding agrees with the first type recorded
    for its variable.  A map ``merged`` of typings already known to agree
    is extended in place, and the new typings must agree with it too.
    """
    if merged is None:
        merged = {}
    for typing in typings:
        for var, value in typing.items():
            existing = merged.setdefault(var, value)
            if existing is not value and existing != value:
                return None
    return merged


def in_agreement(typings: Iterable[Substitution]) -> bool:
    """Definition 12: pairwise agreement — syntactically equal types for
    common variables (decided in one pass, see :func:`agreeing_union`)."""
    return agreeing_union(typings) is not None


def merge_typings(typings: Iterable[Substitution]) -> Substitution:
    """``∪S`` for a set of typings in agreement (Definition 13, clause 3)."""
    merged = agreeing_union(typings)
    if merged is None:
        raise ValueError("cannot merge typings that do not agree (Definition 12)")
    return Substitution(merged)
