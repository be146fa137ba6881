"""The success-set type domain: abstract values in the paper's ``>=`` form.

An abstract value describes one predicate's *success set* — an
over-approximation of the argument tuples the predicate can succeed on —
using the paper's type language itself (Definition 1: function symbols
double as singleton type constructors, so every finite observation is
expressible, and the predefined union ``+`` joins observations that no
declared constructor covers).

Per argument position the domain keeps two views:

* **members** — a finite, canonically-renamed, subsumption-reduced set
  of type terms, one per distinct clause contribution (``{nil,
  cons(_A0, list(_A1))}``).  Members are what the TLP403/TLP404
  declaration comparisons consult: they are exact observations, so an
  "is any part of the success set inside the declared type" question has
  a false-positive-free answer.
* **folded** — the members generalized to a single type term: the
  *tightest* declared constructor that covers them all (``list(A)``
  above), else the ``+``-union of the members.  The folded view is what
  body-goal matching, reconstruction, and fix-its use: it is the
  rendering in the paper's own constraint form ``c(Ā) >= every member``.

⊥ (the empty success set — no clause instance can ever succeed) is
represented by the absence of a member tuple, and ⊤ by a free type
variable (every term is in the denotation of some type, so a free
variable constrains nothing).

Ordering and termination: joins only ever add members; the member count
per position is capped (overflow collapses the position to ⊤); widening
truncates members below a depth bound (subterms beyond it become fresh
variables, i.e. ⊤).  Canonical renaming makes α-equivalent members
syntactically equal, so the per-position state space is finite and every
ascending chain stabilizes.

Folding to a covering constructor ``c(H̄)`` with *free* holes is sound
because of the predefined union: if ``c(H)`` covers each member with
per-member hole instantiations, the single instantiation ``H := τ1 +
… + τk`` (the union of the per-member choices) covers them all — the
union constraints ``A + B >= A`` / ``A + B >= B`` lift each member's
derivation unchanged.  This is precisely the "name-based type union"
completion the paper's concluding remarks call for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from ...core.declarations import ConstraintSet
from ...core.subtype import SubtypeEngine
from ...terms.pretty import UNION_TYPE, pretty
from ...terms.term import Struct, Term, Var, fresh_variable

__all__ = ["SuccessSet", "TypeDomain", "canonical", "truncate_depth"]

#: Member-list cap per argument position; overflow widens to ⊤.
MAX_MEMBERS = 8

#: Depth bound applied by widening: subterms deeper than this become ⊤.
WIDEN_DEPTH = 4

#: The fixed variables of the fold tests: ``_SHARED`` stands for every
#: variable of a member, ``_holes(n)`` are a candidate constructor's
#: holes.  Fixed names make equal fold questions equal ``more_general``
#: questions, which the engine then decides once.
_SHARED = Var("_U")


def _holes(arity: int) -> Tuple[Term, ...]:
    return tuple(Var(f"_H{index}") for index in range(arity))


def canonical(
    term: Term, stem: str = "_A", avoid: AbstractSet[Var] = frozenset()
) -> Term:
    """Rename variables to ``_A0, _A1, …`` in order of first appearance,
    so α-equivalent terms become syntactically equal (the join's dedupe
    and the fixpoint's change detection both rely on this).  Numbers
    whose name is in ``avoid`` are skipped, so a rendered term never
    reuses a variable name shown beside it."""
    mapping: Dict[Var, Var] = {}
    counter = 0

    def walk(node: Term) -> Term:
        nonlocal counter
        if isinstance(node, Var):
            renamed = mapping.get(node)
            if renamed is None:
                renamed = Var(f"{stem}{counter}")
                counter += 1
                while renamed in avoid:
                    renamed = Var(f"{stem}{counter}")
                    counter += 1
                mapping[node] = renamed
            return renamed
        if node.ground:
            return node
        return Struct(node.functor, tuple(walk(arg) for arg in node.args))

    return walk(term)


def truncate_depth(term: Term, bound: int) -> Term:
    """Replace subterms beyond ``bound`` with fresh variables (⊤) — the
    widening operator.  Always an over-approximation: a free variable's
    denotation includes every term."""
    if bound <= 0:
        return fresh_variable("_W")
    if isinstance(term, Var) or not term.args:
        return term
    return Struct(
        term.functor, tuple(truncate_depth(arg, bound - 1) for arg in term.args)
    )


def _share_variables(term: Term) -> Term:
    """Collapse all variables of ``term`` into the one variable ``_U``.

    Used by the fold test: checking ``c(H̄) >= member`` with the member's
    free variables frozen as *distinct* constants is too strong (a
    uniform constructor wants one element type), while one shared frozen
    constant asks exactly "is there a single hole instantiation for this
    member" — the union argument in the module docstring then combines
    the per-member instantiations.
    """
    def walk(node: Term) -> Term:
        if isinstance(node, Var):
            return _SHARED
        if node.ground:
            return node
        return Struct(node.functor, tuple(walk(arg) for arg in node.args))

    return walk(term)


@dataclass(frozen=True)
class SuccessSet:
    """The inferred abstract value for one defined predicate."""

    indicator: Tuple[str, int]
    #: Per-position member sets; empty tuple-of-tuples when ``bottom``.
    members: Tuple[Tuple[Term, ...], ...]
    #: Per-position folded view (the ``>=`` rendering's left sides).
    folded: Tuple[Term, ...]
    #: True when no clause instance can ever succeed (empty success set).
    bottom: bool = False
    #: True when widening (depth truncation or ⊤-collapse) fired.
    widened: bool = False

    def render(self) -> List[str]:
        """The paper-form rendering: one ``τ >= member`` line per
        member, grouped by position (used by ``:infer`` and tests)."""
        name, _arity = self.indicator
        if self.bottom:
            return [f"{name}: bottom (empty success set)"]
        lines: List[str] = []
        for position, (fold, members) in enumerate(zip(self.folded, self.members)):
            for member in members:
                lines.append(
                    f"{name}/arg{position + 1}: {pretty(fold)} >= {pretty(member)}"
                )
        return lines


class TypeDomain:
    """Join/fold/compare operations bound to one constraint set."""

    def __init__(self, constraints: ConstraintSet, engine: SubtypeEngine) -> None:
        self.constraints = constraints
        self.engine = engine
        #: (member, constructor) → whether the constructor's free-hole
        #: instance covers the member.
        self._covers: Dict[Tuple[Term, Tuple[str, int]], bool] = {}

    # -- orderings -----------------------------------------------------------

    def subsumes(self, general: Term, specific: Term) -> bool:
        """``general ⪰ specific`` with the specific side frozen
        (Definition 5's ``more general`` on open type terms)."""
        return self.engine.more_general(general, specific)

    # -- joins ---------------------------------------------------------------

    def add_member(self, members: List[Term], new: Term) -> bool:
        """Join one contribution into a position's member list (mutated);
        returns True when the list changed.  Dedupe is subsumption-based
        and the list is capped: overflow collapses to ⊤."""
        new = canonical(new)
        for existing in members:
            if existing == new or self.subsumes(existing, new):
                return False
        survivors = [m for m in members if not self.subsumes(new, m)]
        survivors.append(new)
        if len(survivors) > MAX_MEMBERS:
            survivors = [Var("_A0")]  # ⊤, canonically named
        if survivors == members:
            return False
        members[:] = survivors
        return True

    def widen_members(self, members: List[Term], depth: int = WIDEN_DEPTH) -> bool:
        """Depth-truncate every member (mutating); True when changed."""
        truncated: List[Term] = []
        for member in members:
            candidate = canonical(truncate_depth(member, depth))
            if not any(
                candidate == kept or self.subsumes(kept, candidate)
                for kept in truncated
            ):
                truncated = [
                    kept for kept in truncated if not self.subsumes(candidate, kept)
                ]
                truncated.append(candidate)
        if truncated == members:
            return False
        members[:] = truncated
        return True

    # -- folding -------------------------------------------------------------

    def _covers_member(self, constructor: Tuple[str, int], member: Term) -> bool:
        verdict = self._covers.get((member, constructor))
        if verdict is None:
            name, arity = constructor
            verdict = self.engine.more_general(
                Struct(name, _holes(arity)), _share_variables(member)
            )
            self._covers[member, constructor] = verdict
        return verdict

    def _covering_constructors(self, members: Sequence[Term]) -> List[Tuple[str, int]]:
        return [
            constructor
            for constructor in self.constraints.symbols.type_constructors.items()
            if constructor[0] != UNION_TYPE
            and all(self._covers_member(constructor, member) for member in members)
        ]

    def _constructor_le(self, tighter: Tuple[str, int], looser: Tuple[str, int]) -> bool:
        """``looser(H̄) ⪰ tighter(U, …, U)`` with the tighter side frozen —
        the partial order used to pick a minimal covering constructor."""
        t_name, t_arity = tighter
        l_name, l_arity = looser
        return self.engine.more_general(
            Struct(l_name, _holes(l_arity)), Struct(t_name, (_SHARED,) * t_arity)
        )

    def fold(self, members: Sequence[Term]) -> Optional[Term]:
        """Generalize a member set to a single type term (None for ⊥).

        Preference: a *minimal* declared constructor covering every
        member (free holes), else the single member itself, else the
        predefined ``+``-union of the members.  A free-variable member
        means ⊤ — the whole position folds to a fresh variable.
        """
        if not members:
            return None
        if any(isinstance(member, Var) for member in members):
            return fresh_variable("_S")
        covering = self._covering_constructors(members)
        if covering:
            # First declaration-order candidate with no strictly-tighter
            # covering alternative (elist beats list for {nil}).
            minimal = next(
                (
                    candidate
                    for candidate in covering
                    if not any(
                        other != candidate
                        and self._constructor_le(other, candidate)
                        and not self._constructor_le(candidate, other)
                        for other in covering
                    )
                ),
                covering[0],
            )
            name, arity = minimal
            return Struct(name, tuple(fresh_variable("_H") for _ in range(arity)))
        if len(members) == 1:
            return members[0]
        union: Term = members[0]
        for member in members[1:]:
            union = Struct(UNION_TYPE, (union, member))
        return union
