"""Type declarations: symbol tables, subtype constraints, constraint sets.

This module implements Section 2 of the paper.

* A :class:`SymbolTable` holds the disjoint symbol alphabets ``F``
  (function symbols) and ``T`` (type constructor symbols), each with a
  fixed arity.  Predicate symbols live in ``repro.core.predicate_types``.
* A :class:`SubtypeConstraint` is ``c(τ1,...,τn) >= τ`` with the
  Definition 2 side condition ``var(τ) ⊆ var(c(τ1,...,τn))``.
* A :class:`ConstraintSet` is the paper's ``C``: the declared constraints
  plus (by default) the predefined polymorphic union type ``+`` with its
  two constraints ``A+B >= A.`` and ``A+B >= B.``

The constraint set also provides the one-step expansion relation
``c(τ1,...,τn) →_C σ`` used by Definition 13's fourth clause and by the
deterministic subtype engine: ``σ = τ{α_i ↦ τ_i}`` for some constraint
``c(α_1,...,α_n) >= τ`` in ``C``.  That notation only makes sense for
*uniform polymorphic* constraints (Definition 6); for non-uniform ones
(which the paper assigns meaning to but excludes from the algorithms) the
expansion falls back to unification against a renamed-apart left-hand
side.  Each set keeps one expansion table, keyed by the interned ``τ``:
both matchers' clause 4, the subtype engine and the compiled automaton
read it, so ``list(_E)`` is instantiated once per declaration scope, not
once per ``cons`` cell of every list it types.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..terms.pretty import UNION_TYPE, pretty
from ..terms.substitution import Substitution
from ..terms.term import Struct, Term, Var, rename_apart, subterms, variables_of
from ..terms.unify import unify

__all__ = [
    "DeclarationError",
    "SymbolKind",
    "SymbolTable",
    "SubtypeConstraint",
    "ConstraintSet",
    "UNION_CONSTRAINTS",
]


class DeclarationError(Exception):
    """Raised for malformed declarations (arity clashes, unknown symbols,
    violated Definition 2 side conditions, ...)."""


class SymbolKind:
    """Classification of a symbol occurrence."""

    FUNCTION = "function"
    TYPE_CONSTRUCTOR = "type"


class SymbolTable:
    """The alphabets ``F`` and ``T`` with fixed arities.

    The paper keeps ``V``, ``F`` and ``T`` disjoint; we enforce that a
    name is declared in at most one alphabet and always with the same
    arity.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, int] = {}
        self.type_constructors: Dict[str, int] = {}

    # -- declaration -------------------------------------------------------

    def declare_function(self, name: str, arity: int) -> None:
        """Add ``name/arity`` to ``F``."""
        self._declare(self.functions, self.type_constructors, name, arity, "function symbol")

    def declare_type_constructor(self, name: str, arity: int) -> None:
        """Add ``name/arity`` to ``T``."""
        self._declare(self.type_constructors, self.functions, name, arity, "type constructor")

    @staticmethod
    def _declare(
        target: Dict[str, int], other: Dict[str, int], name: str, arity: int, what: str
    ) -> None:
        if arity < 0:
            raise DeclarationError(f"negative arity for {what} {name}")
        if name in other:
            raise DeclarationError(f"{name} already declared in the other alphabet")
        existing = target.get(name)
        if existing is not None and existing != arity:
            raise DeclarationError(
                f"{what} {name} redeclared with arity {arity} (was {existing})"
            )
        target[name] = arity

    # -- queries -----------------------------------------------------------

    def kind_of(self, name: str) -> Optional[str]:
        """``SymbolKind`` of ``name``, or ``None`` if undeclared."""
        if name in self.functions:
            return SymbolKind.FUNCTION
        if name in self.type_constructors:
            return SymbolKind.TYPE_CONSTRUCTOR
        return None

    def is_function(self, name: str) -> bool:
        """True iff ``name ∈ F``."""
        return name in self.functions

    def is_type_constructor(self, name: str) -> bool:
        """True iff ``name ∈ T``."""
        return name in self.type_constructors

    def arity_of(self, name: str) -> int:
        """Declared arity of ``name`` (in either alphabet)."""
        if name in self.functions:
            return self.functions[name]
        if name in self.type_constructors:
            return self.type_constructors[name]
        raise DeclarationError(f"undeclared symbol {name}")

    def check_type(self, term: Term) -> None:
        """Check ``term`` is a well-formed type: a term over ``F ∪ T``
        (Definition 1) respecting declared arities."""
        for sub in subterms(term):
            if isinstance(sub, Var):
                continue
            kind = self.kind_of(sub.functor)
            if kind is None:
                raise DeclarationError(f"undeclared symbol {sub.functor} in type {pretty(term)}")
            if self.arity_of(sub.functor) != len(sub.args):
                raise DeclarationError(
                    f"symbol {sub.functor} used with arity {len(sub.args)} "
                    f"but declared with arity {self.arity_of(sub.functor)}"
                )

    def check_object_term(
        self, term: Term, passed: Optional[Set[Struct]] = None
    ) -> None:
        """Check ``term`` is a term over ``F`` only (the object language).

        ``passed`` carries the nodes of terms that already passed against
        this table: their subtrees are skipped, and on success this
        term's nodes join them.  The walk is pre-order, so the first
        offending node is the one a full walk would report.
        """
        visited: List[Struct] = []
        stack: List[Term] = [term]
        while stack:
            sub = stack.pop()
            if isinstance(sub, Var) or (passed is not None and sub in passed):
                continue
            arity = self.functions.get(sub.functor)
            if arity is None:
                raise DeclarationError(
                    f"symbol {sub.functor} is not a declared function symbol"
                )
            if arity != len(sub.args):
                raise DeclarationError(
                    f"function symbol {sub.functor} used with arity {len(sub.args)} "
                    f"but declared with arity {arity}"
                )
            visited.append(sub)
            stack.extend(reversed(sub.args))
        if passed is not None:
            passed.update(visited)

    def copy(self) -> "SymbolTable":
        """An independent copy."""
        out = SymbolTable()
        out.functions = dict(self.functions)
        out.type_constructors = dict(self.type_constructors)
        return out


@dataclass(frozen=True)
class SubtypeConstraint:
    """``lhs >= rhs`` where ``lhs = c(τ1,...,τn)`` for some ``c ∈ T``.

    Definition 2 requires ``var(rhs) ⊆ var(lhs)``; the constructor checks
    it, so an ill-formed constraint cannot be built.
    """

    lhs: Struct
    rhs: Term
    #: Compiled expansion template (lazily built, see ``_template_of``).
    #: Not part of equality/hash — it is derived from lhs/rhs.
    _template: object = field(
        default=None, init=False, repr=False, compare=False
    )
    _template_ready: bool = field(
        default=False, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not variables_of(self.rhs) <= variables_of(self.lhs):
            raise DeclarationError(
                f"constraint {self} violates var(rhs) ⊆ var(lhs) (Definition 2)"
            )
        args = self.lhs.args
        uniform = (
            all(isinstance(a, Var) for a in args) and len(set(args)) == len(args)
        )
        object.__setattr__(self, "_uniform", uniform)

    @property
    def constructor(self) -> str:
        """The defined type constructor ``c``."""
        return self.lhs.functor

    @property
    def is_uniform(self) -> bool:
        """Definition 6: the lhs arguments are distinct variables."""
        return self._uniform  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"{pretty(self.lhs)} >= {pretty(self.rhs)}."


# -- compiled expansion templates ------------------------------------------------
#
# For a *uniform* constraint ``c(α1,...,αn) >= τ`` the one-step expansion of
# ``c(τ1,...,τn)`` is ``τ{α_i ↦ τ_i}`` — a pure positional rewrite.  Instead
# of running a generic substitution walk per expansion (building a mapping
# dict, traversing τ, re-checking groundness along the way), the rhs is
# compiled once per constraint into a *template* tree whose nodes are
#
# * ``int i``   — copy the supertype's i-th argument into this slot,
# * a ``Term``  — a ground subtree of τ, shared verbatim across expansions,
# * ``(functor, children)`` — build a struct around recursively
#   instantiated children.
#
# Instantiating a template is then a handful of tuple builds proportional to
# the *non-ground* part of τ — the inner-loop cost the subtype engine's
# Theorem 2 rule actually pays.  Non-uniform constraints (excluded from the
# paper's algorithms) have no template and keep the rename+unify path.

def _compile_rhs(rhs: Term, slots: Dict[Var, int]) -> object:
    if isinstance(rhs, Var):
        return slots[rhs]
    if rhs.ground:
        return rhs
    return (rhs.functor, tuple(_compile_rhs(arg, slots) for arg in rhs.args))


def _instantiate(node: object, args: Tuple[Term, ...]) -> Term:
    kind = type(node)
    if kind is int:
        return args[node]  # type: ignore[index]
    if kind is tuple:
        functor, children = node  # type: ignore[misc]
        return Struct(
            functor, tuple(_instantiate(child, args) for child in children)
        )
    return node  # type: ignore[return-value]


def _template_of(constraint: SubtypeConstraint) -> object:
    """The compiled template of ``constraint`` (``None`` if non-uniform).

    Cached on the constraint itself: the template depends only on the
    constraint's two sides, so one compilation serves every constraint
    set the object participates in.
    """
    if constraint._template_ready:
        return constraint._template
    if constraint.is_uniform:
        slots = {var: i for i, var in enumerate(constraint.lhs.args)}
        template: object = _compile_rhs(constraint.rhs, slots)
    else:
        template = None
    object.__setattr__(constraint, "_template", template)
    object.__setattr__(constraint, "_template_ready", True)
    return template


def _union_constraints() -> Tuple[SubtypeConstraint, ...]:
    a, b = Var("A"), Var("B")
    union = Struct(UNION_TYPE, (a, b))
    return (SubtypeConstraint(union, a), SubtypeConstraint(union, b))


UNION_CONSTRAINTS = _union_constraints()


class ConstraintSet:
    """The paper's ``C``: a set of subtype constraints over a symbol table."""

    def __init__(
        self,
        symbols: SymbolTable,
        constraints: Iterable[SubtypeConstraint] = (),
        include_union: bool = True,
    ) -> None:
        self.symbols = symbols.copy()
        self.constraints: List[SubtypeConstraint] = []
        self._by_constructor: Dict[str, List[SubtypeConstraint]] = {}
        #: Per-constructor dispatch table for the compiled expansion path:
        #: ``constructor -> [(arity, template-or-None, constraint), ...]``.
        self._compiled: Dict[str, List[Tuple[int, object, SubtypeConstraint]]] = {}
        self._fingerprint: Optional[str] = None
        #: ``expansions`` results by type term; bounded like the matcher
        #: memos, emptied by ``add`` and never pickled.
        self._expansion_table: Dict[Term, List[Term]] = {}
        if include_union and not self.symbols.is_type_constructor(UNION_TYPE):
            self.symbols.declare_type_constructor(UNION_TYPE, 2)
        for constraint in constraints:
            self.add(constraint)
        if include_union:
            for constraint in UNION_CONSTRAINTS:
                if constraint not in self.constraints:
                    self.add(constraint)

    def add(self, constraint: SubtypeConstraint) -> None:
        """Add ``constraint``, checking both sides against the alphabets."""
        if not self.symbols.is_type_constructor(constraint.constructor):
            raise DeclarationError(
                f"constraint head {constraint.constructor} is not a declared type constructor"
            )
        self.symbols.check_type(constraint.lhs)
        self.symbols.check_type(constraint.rhs)
        self.constraints.append(constraint)
        self._by_constructor.setdefault(constraint.constructor, []).append(constraint)
        self._compiled.setdefault(constraint.constructor, []).append(
            (len(constraint.lhs.args), _template_of(constraint), constraint)
        )
        self._fingerprint = None
        self._expansion_table.clear()

    def __getstate__(self) -> Dict[str, object]:
        # The expansion table keys on arbitrarily deep types, and open ones
        # carry fresh variables no other process shares: rebuild it there.
        state = dict(self.__dict__)
        state["_expansion_table"] = {}
        return state

    def fingerprint(self) -> str:
        """A stable digest of the whole declaration scope.

        Covers both alphabets (with arities) and every constraint, in
        insertion order.  Two constraint sets with equal fingerprints
        answer every ``⪰_C`` query identically, which is what lets the
        process-wide shared subtype memo key its tables by this value
        (see ``repro.core.shared_memo``).  Cached until the next ``add``.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        hasher = hashlib.sha256()
        for name in sorted(self.symbols.functions):
            hasher.update(f"f {name}/{self.symbols.functions[name]}\n".encode())
        for name in sorted(self.symbols.type_constructors):
            hasher.update(
                f"t {name}/{self.symbols.type_constructors[name]}\n".encode()
            )
        for constraint in self.constraints:
            hasher.update(f"c {constraint}\n".encode())
        digest = hasher.hexdigest()
        self._fingerprint = digest
        return digest

    def __iter__(self) -> Iterator[SubtypeConstraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def constraints_for(self, constructor: str) -> List[SubtypeConstraint]:
        """All constraints whose lhs constructor is ``constructor``."""
        return self._by_constructor.get(constructor, [])

    def defined_constructors(self) -> Set[str]:
        """Type constructors with at least one constraint."""
        return set(self._by_constructor)

    # -- the one-step expansion relation →_C --------------------------------

    def expansions(self, type_term: Struct) -> List[Term]:
        """All ``σ`` with ``type_term →_C σ``.

        For a uniform constraint ``c(α1,...,αn) >= τ`` this is the direct
        substitution ``τ{α_i ↦ τ_i}`` of Definition 13.  For a non-uniform
        constraint the lhs is renamed apart and unified with ``type_term``
        (this is exactly the "two-step application" resolvent in the
        general case); expansions that would instantiate variables of
        ``type_term`` itself are skipped, conservatively — the algorithms
        of Sections 3-6 are only defined for uniform sets anyway.

        The list is the set's cached copy: callers read it and never
        change it.
        """
        table = self._expansion_table
        cached = table.get(type_term)
        if cached is not None:
            return cached
        compiled = self._compiled.get(type_term.functor)
        if not compiled:
            return []
        args = type_term.args
        arity = len(args)
        out: List[Term] = []
        for expected_arity, template, constraint in compiled:
            if expected_arity != arity:
                continue
            if template is not None:
                out.append(_instantiate(template, args))
                continue
            expansion = self._expand_general(type_term, constraint)
            if expansion is not None:
                out.append(expansion)
        from .match import remember  # match imports this module

        remember(table, type_term, out)
        return out

    def expand_with(
        self, type_term: Struct, constraint: SubtypeConstraint
    ) -> Optional[Term]:
        """``σ`` with ``type_term →_C σ`` via ``constraint``, or ``None``."""
        if constraint.constructor != type_term.functor:
            return None
        if len(constraint.lhs.args) != len(type_term.args):
            return None
        template = _template_of(constraint)
        if template is not None:
            return _instantiate(template, type_term.args)
        return self._expand_general(type_term, constraint)

    @staticmethod
    def _expand_general(
        type_term: Struct, constraint: SubtypeConstraint
    ) -> Optional[Term]:
        """The non-uniform fallback: rename the lhs apart and unify."""
        renamed_lhs, mapping = rename_apart(constraint.lhs)
        renamed_rhs = Substitution(dict(mapping)).apply(constraint.rhs)
        theta = unify(renamed_lhs, type_term)
        if theta is None:
            return None
        if any(var in theta for var in variables_of(type_term)):
            return None
        return theta.apply(renamed_rhs)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.constraints)
