"""Substitutions over first-order terms.

A substitution is a finite mapping from variables to terms.  The paper
relies on two standard properties of most general unifiers — *idempotence*
and *relevance* [Apt88] — and Lemma 2 / Theorem 6 lean on them, so this
module keeps both properties checkable (:meth:`Substitution.is_idempotent`,
:meth:`Substitution.is_relevant_for`) and the unifier in
``repro.terms.unify`` guarantees them.

Substitutions are immutable; ``compose`` returns a new substitution.
Application returns a ground subterm as it is, without walking it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Set, Tuple

from .term import Struct, Term, Var, variables_of

__all__ = ["Substitution", "EMPTY_SUBSTITUTION"]


class Substitution:
    """An immutable substitution ``{x1 ↦ t1, ..., xn ↦ tn}``.

    Bindings with ``x ↦ x`` are dropped at construction so that the domain
    is exactly the set of variables the substitution moves.
    """

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Optional[Mapping[Var, Term]] = None) -> None:
        cleaned: Dict[Var, Term] = {}
        if bindings:
            for var, value in bindings.items():
                if not isinstance(var, Var):
                    raise TypeError(f"substitution domain must be variables, got {var!r}")
                if value != var:
                    cleaned[var] = value
        self._bindings: Dict[Var, Term] = cleaned
        self._hash: Optional[int] = None

    # -- mapping protocol -------------------------------------------------

    def __contains__(self, var: Var) -> bool:
        return var in self._bindings

    def __getitem__(self, var: Var) -> Term:
        return self._bindings[var]

    def get(self, var: Var, default: Optional[Term] = None) -> Optional[Term]:
        """The binding for ``var``, or ``default``."""
        return self._bindings.get(var, default)

    def __iter__(self) -> Iterator[Var]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def items(self) -> Iterator[Tuple[Var, Term]]:
        """Iterate over ``(variable, term)`` bindings."""
        return iter(self._bindings.items())

    @property
    def domain(self) -> Set[Var]:
        """``dom(θ)``: the variables this substitution moves."""
        return set(self._bindings)

    @property
    def range_variables(self) -> Set[Var]:
        """``var(ran(θ))``: variables occurring in the bound terms."""
        out: Set[Var] = set()
        for value in self._bindings.values():
            out |= variables_of(value)
        return out

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {t}" for v, t in sorted(self._bindings.items(), key=lambda p: p[0].name))
        return "{" + inner + "}"

    # -- application ------------------------------------------------------

    def apply(self, term: Term) -> Term:
        """Apply this substitution to ``term`` (written ``tθ``).

        Application is *simultaneous*, not repeated: bindings are not
        re-applied to their own results.  Idempotent substitutions make the
        distinction moot, and the unifier only produces idempotent ones.
        """
        if not self._bindings:
            return term
        return self._apply(term)

    def _apply(self, term: Term) -> Term:
        if isinstance(term, Var):
            return self._bindings.get(term, term)
        if term.ground:
            return term
        new_args = tuple(self._apply(a) for a in term.args)
        if new_args == term.args:
            return term
        return Struct(term.functor, new_args)

    def __call__(self, term: Term) -> Term:
        return self.apply(term)

    # -- algebra ----------------------------------------------------------

    def compose(self, other: "Substitution") -> "Substitution":
        """The composition ``self ; other``: ``t(self.compose(other)) == (t self) other``.

        Standard definition: apply ``other`` to every binding of ``self``,
        then add the bindings of ``other`` for variables not in the domain
        of ``self``.
        """
        combined: Dict[Var, Term] = {
            var: other.apply(value) for var, value in self._bindings.items()
        }
        for var, value in other._bindings.items():
            if var not in self._bindings:
                combined[var] = value
        return Substitution(combined)

    def restrict(self, variables: Set[Var]) -> "Substitution":
        """The restriction of this substitution to ``variables``."""
        return Substitution({v: t for v, t in self._bindings.items() if v in variables})

    def update(self, extra: Mapping[Var, Term]) -> "Substitution":
        """A new substitution with ``extra`` bindings overriding existing ones."""
        merged = dict(self._bindings)
        merged.update(extra)
        return Substitution(merged)

    # -- properties the paper relies on ------------------------------------

    def is_idempotent(self) -> bool:
        """True iff ``θθ = θ``, i.e. ``dom(θ) ∩ var(ran(θ)) = ∅``."""
        return not (self.domain & self.range_variables)

    def is_relevant_for(self, *terms: Term) -> bool:
        """True iff every variable of ``θ`` occurs in one of ``terms``.

        This is *relevance* in the sense of [Apt88]: an mgu of ``t1, t2``
        is relevant when it only mentions variables of ``t1`` or ``t2``.
        """
        allowed: Set[Var] = set()
        for term in terms:
            allowed |= variables_of(term)
        return (self.domain | self.range_variables) <= allowed


EMPTY_SUBSTITUTION = Substitution()
