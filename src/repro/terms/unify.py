"""Unification.

Implements syntactic first-order unification with occurs check, returning
idempotent and relevant most general unifiers — the two properties the
paper assumes throughout ("we assume that most general unifiers are
idempotent and relevant [Apt88]", Section 4).

The algorithm is the classic Martelli–Montanari rule set run over an
explicit work list with a triangular (fully applied) binding map, so the
result is idempotent by construction.

Ground subterms are never descended into: no binding can change them, no
variable occurs in them, and two ground terms unify iff they are equal.
Each struct carries its groundness flag (``Struct.ground``), so a step
that meets a deep ground argument (``succ^128(0)``) costs one flag test
where it used to rebuild the whole argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .substitution import Substitution
from .term import Struct, Term, Var

__all__ = ["unify", "mgu", "unifiable", "UnificationError"]


class UnificationError(Exception):
    """Raised by :func:`mgu` when its arguments do not unify."""

    def __init__(self, left: Term, right: Term, reason: str) -> None:
        super().__init__(f"cannot unify {left} with {right}: {reason}")
        self.left = left
        self.right = right
        self.reason = reason


def _walk(term: Term, bindings: Dict[Var, Term]) -> Term:
    """Dereference ``term`` through ``bindings`` until a non-bound root."""
    while isinstance(term, Var) and term in bindings:
        term = bindings[term]
    return term


def _occurs(var: Var, term: Term, bindings: Dict[Var, Term]) -> bool:
    """Occurs check modulo the current (triangular) bindings."""
    stack: List[Term] = [term]
    while stack:
        current = _walk(stack.pop(), bindings)
        if current == var:
            return True
        if isinstance(current, Struct) and not current.ground:
            stack.extend(current.args)
    return False


def _resolve(term: Term, bindings: Dict[Var, Term], visiting: frozenset = frozenset()) -> Term:
    """Fully apply triangular ``bindings`` to ``term``.

    ``visiting`` guards against the cyclic bindings that can arise with
    the occurs check disabled: a variable reached through its own binding
    is left as a variable (the substitution is then not a true unifier —
    unification without occurs check is unsound by design).  A subterm
    no binding changes is returned as it is.
    """
    seen = set()
    while isinstance(term, Var) and term in bindings:
        if term in visiting or term in seen:
            return term
        seen.add(term)
        term = bindings[term]
    if isinstance(term, Var) or term.ground:
        return term
    guarded = visiting | seen if seen else visiting
    args = tuple([_resolve(a, bindings, guarded) for a in term.args])
    return term if args == term.args else Struct(term.functor, args)


def unify(left: Term, right: Term, occurs_check: bool = True) -> Optional[Substitution]:
    """Compute an mgu of ``left`` and ``right``, or ``None``.

    The returned substitution is idempotent and relevant.  ``occurs_check``
    defaults to on (sound unification); the SLD engine exposes a switch for
    benchmarking the (unsound, Prolog-default) variant.
    """
    bindings: Dict[Var, Term] = {}
    work: List[Tuple[Term, Term]] = [(left, right)]
    while work:
        a, b = work.pop()
        a = _walk(a, bindings)
        b = _walk(b, bindings)
        if a == b:
            continue
        if isinstance(a, Var):
            if occurs_check and _occurs(a, b, bindings):
                return None
            bindings[a] = b
            continue
        if isinstance(b, Var):
            if occurs_check and _occurs(b, a, bindings):
                return None
            bindings[b] = a
            continue
        if a.ground and b.ground:
            return None  # distinct ground terms never unify
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        work.extend(zip(a.args, b.args))
    # Flatten the triangular form into an idempotent substitution.
    return Substitution({var: _resolve(var, bindings) for var in bindings})


def mgu(left: Term, right: Term) -> Substitution:
    """Like :func:`unify` but raises :class:`UnificationError` on failure."""
    result = unify(left, right)
    if result is None:
        raise UnificationError(left, right, "no unifier")
    return result


def unifiable(left: Term, right: Term) -> bool:
    """True iff ``left`` and ``right`` unify (with occurs check)."""
    return unify(left, right) is not None
