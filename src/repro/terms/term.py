"""First-order terms.

This module provides the term language shared by every layer of the
reproduction: object-level terms of logic programs, *types* (terms over
``F ∪ T`` in the paper's Definition 1) and atoms of clauses (predicate
symbols applied to terms, which Section 6 of the paper deliberately treats
as function symbols so that ``match`` can be applied to atoms).

A term is either

* a :class:`Var` — a logical variable, identified by name, or
* a :class:`Struct` — a symbol applied to zero or more argument terms.

Nullary structs double as constants/atoms; the paper "abuses the notation
slightly by treating 0-ary symbols as if they were arbitrary n-ary
symbols", and so do we.

Terms are immutable and hashable, so they can live in sets, dict keys and
memo tables.  All structural traversals (variables, size, depth, ground
test, renaming) are iterative to stay robust on the deep terms produced
by the benchmark generators.

**Hash-consing.**  By default every ``Var``/``Struct`` construction is
routed through a canonicalizing intern table (weak-valued and
thread-safe), so structurally equal terms built anywhere in the process
are the *same object*.  That turns the deep structural comparisons the
subtype engine's memo tables would otherwise perform into pointer
checks: dictionary lookups on interned terms hit the identity fast path
before ever calling ``__eq__``, and ``__eq__`` itself starts with an
``is`` check.  Per-node derived results (the hash, the groundness flag,
the variable set, short pretty-printings) are computed once per
canonical node instead of once per structurally-equal copy.  Interning
is not a setting: every term is canonical when built.  ``__eq__`` still
falls back to a structural comparison, because after
:func:`clear_intern_table` a node built earlier and a node built later
for the same term can both be alive; they compare and hash equal.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "Var",
    "Struct",
    "Term",
    "atom",
    "struct",
    "variables_of",
    "is_ground",
    "term_size",
    "term_depth",
    "subterms",
    "occurs_in",
    "variables_in_order",
    "map_variables",
    "rename_apart",
    "fresh_variable",
    "symbols_of",
    "functors_of",
    "InternStats",
    "intern_stats",
    "clear_intern_table",
]


class InternStats:
    """A point-in-time snapshot of the intern table's traffic and size."""

    __slots__ = ("structs", "vars", "hits", "misses")

    def __init__(self, structs: int, vars: int, hits: int, misses: int) -> None:
        self.structs = structs
        self.vars = vars
        self.hits = hits
        self.misses = misses

    @property
    def size(self) -> int:
        """Live canonical nodes (structs + variables)."""
        return self.structs + self.vars

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def __repr__(self) -> str:
        return (
            f"InternStats(structs={self.structs}, "
            f"vars={self.vars}, hits={self.hits}, misses={self.misses})"
        )


class _InternTable:
    """The process-wide canonicalizing table behind ``Var``/``Struct``.

    Values are weak: a canonical node lives exactly as long as something
    outside the table references it, so the table never pins memory the
    program has let go of.  All lookups and inserts happen under one
    lock — the critical section is a dict probe plus (on a miss) a plain
    object allocation, so contention stays low even under the batch
    service's thread pools.
    """

    __slots__ = ("lock", "structs", "vars", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.structs: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        self.vars: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        with self.lock:
            self.structs.clear()
            self.vars.clear()
            self.hits = 0
            self.misses = 0


_INTERN = _InternTable()


def intern_stats() -> InternStats:
    """Current intern-table statistics (size, hit/miss traffic)."""
    with _INTERN.lock:
        return InternStats(
            structs=len(_INTERN.structs),
            vars=len(_INTERN.vars),
            hits=_INTERN.hits,
            misses=_INTERN.misses,
        )


def clear_intern_table() -> None:
    """Drop every canonical node and zero the traffic counters.

    Existing terms are unaffected: they stop being the canonical
    representative for new constructions, and still compare and hash
    equal to the new nodes built for the same term.  Mainly for tests
    and for long-lived daemons that want a clean measurement window.
    """
    _INTERN.clear()


class Var:
    """A logical variable.

    Variables are compared by name: two ``Var("X")`` objects are the same
    variable — and, through the intern table, the same *object*.  Scoping
    (keeping the variables of two clauses apart) is the caller's job and
    is normally done with :func:`rename_apart`.
    """

    __slots__ = ("name", "_hash", "__weakref__")

    def __new__(cls, name: str) -> "Var":
        table = _INTERN
        with table.lock:
            existing = table.vars.get(name)
            if existing is not None:
                table.hits += 1
                return existing
            table.misses += 1
            self = object.__new__(cls)
            self.name = name
            self._hash = hash((name,))
            table.vars[name] = self
            return self

    def __setattr__(self, attr: str, value: object) -> None:
        if attr in ("name", "_hash") and not hasattr(self, "_hash"):
            object.__setattr__(self, attr, value)
            return
        raise AttributeError(f"Var is immutable (cannot set {attr!r})")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Var):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Struct:
    """A compound term ``functor(arg1, ..., argn)``.

    ``args`` is a tuple; a nullary struct (``args == ()``) is a constant.
    The hash, the groundness flag and the tree height (``depth``) are
    computed once per canonical node: terms are used heavily as
    dictionary keys in the subtype engine's memo tables, the engine asks
    "is this ground?" at every step, and every matcher entry point asks
    how deep its operands are — all three must be O(1).  Constructing a
    term that already exists returns the existing node without
    recomputing anything.
    """

    __slots__ = (
        "functor", "args", "_hash", "depth", "ground", "_vars", "_pretty", "__weakref__"
    )

    def __new__(cls, functor: str, args: Tuple["Term", ...] = ()) -> "Struct":
        table = _INTERN
        key = (functor, args)
        with table.lock:
            existing = table.structs.get(key)
            if existing is not None:
                table.hits += 1
                return existing
            table.misses += 1
            self = object.__new__(cls)
            _init_struct(self, functor, args, hash(key))
            table.structs[key] = self
            return self

    def __setattr__(self, attr: str, value: object) -> None:
        # The two derived-result caches stay writable (idempotent lazy
        # fills); everything structural is frozen after construction.
        if attr in ("_vars", "_pretty") or not hasattr(self, "ground"):
            object.__setattr__(self, attr, value)
            return
        raise AttributeError(f"Struct is immutable (cannot set {attr!r})")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Struct):
            return (
                self._hash == other._hash
                and self.functor == other.functor
                and self.args == other.args
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Struct, (self.functor, self.args))

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def indicator(self) -> Tuple[str, int]:
        """The ``name/arity`` pair identifying this symbol."""
        return (self.functor, len(self.args))

    def __repr__(self) -> str:
        if not self.args:
            return f"Struct({self.functor!r})"
        return f"Struct({self.functor!r}, {self.args!r})"

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({', '.join(str(a) for a in self.args)})"


def _init_struct(self: Struct, functor: str, args: Tuple["Term", ...], hashed: int) -> None:
    """Populate a freshly allocated struct."""
    object.__setattr__(self, "functor", functor)
    object.__setattr__(self, "args", args)
    object.__setattr__(self, "_hash", hashed)
    ground = True
    depth = 1
    for arg in args:
        if isinstance(arg, Struct):
            if not arg.ground:
                ground = False
            if arg.depth >= depth:
                depth = arg.depth + 1
        else:
            ground = False
            if depth == 1:
                depth = 2
    object.__setattr__(self, "ground", ground)
    object.__setattr__(self, "depth", depth)
    object.__setattr__(self, "_vars", None)
    object.__setattr__(self, "_pretty", None)


Term = Union[Var, Struct]


def atom(name: str) -> Struct:
    """Build a constant (nullary struct)."""
    return Struct(name, ())


def struct(functor: str, *args: Term) -> Struct:
    """Build a compound term from varargs (convenience constructor)."""
    return Struct(functor, tuple(args))


def subterms(term: Term) -> Iterator[Term]:
    """Yield every subterm of ``term`` (including ``term`` itself), pre-order."""
    stack: List[Term] = [term]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Struct):
            stack.extend(reversed(current.args))


def variables_of(term: Term) -> Set[Var]:
    """The set of variables occurring in ``term`` (``var(t)`` in the paper).

    The result is cached per node (a ground struct answers in O(1) from
    its groundness flag; a non-ground struct computes the set once and
    keeps it), so repeated queries — the well-typedness checker poses
    them per atom per clause — do not re-traverse the term.
    """
    if isinstance(term, Var):
        return {term}
    if term.ground:
        return set()
    return set(_variables_frozen(term))


def _variables_frozen(term: Struct) -> "frozenset[Var]":
    """The cached variable set of a non-ground struct."""
    cached = term._vars
    if cached is not None:
        return cached
    # Iterative post-order so children's caches fill first and deep terms
    # cannot exhaust the C stack.
    out: Set[Var] = set()
    stack: List[Term] = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            out.add(current)
            continue
        if current.ground:
            continue
        cached = current._vars
        if cached is not None:
            out |= cached
            continue
        stack.extend(current.args)
    frozen = frozenset(out)
    term._vars = frozen
    return frozen


def variables_in_order(term: Term) -> List[Var]:
    """Variables of ``term`` in first-occurrence (left-to-right) order."""
    seen: Set[Var] = set()
    ordered: List[Var] = []
    for sub in subterms(term):
        if isinstance(sub, Var) and sub not in seen:
            seen.add(sub)
            ordered.append(sub)
    return ordered


def is_ground(term: Term) -> bool:
    """True iff ``term`` contains no variables (O(1): cached on Struct)."""
    return isinstance(term, Struct) and term.ground


def term_size(term: Term) -> int:
    """Number of symbol/variable occurrences in ``term``."""
    return sum(1 for _ in subterms(term))


def term_depth(term: Term) -> int:
    """Height of the term tree; a variable or constant has depth 1.

    O(1): every struct carries its height, filled at construction."""
    return term.depth if isinstance(term, Struct) else 1


def occurs_in(var: Var, term: Term) -> bool:
    """True iff ``var`` occurs in ``term`` (the occurs check)."""
    return any(sub == var for sub in subterms(term))


def symbols_of(term: Term) -> Set[Tuple[str, int]]:
    """All ``name/arity`` indicators of structs occurring in ``term``."""
    return {t.indicator for t in subterms(term) if isinstance(t, Struct)}


def functors_of(term: Term) -> Set[str]:
    """All functor names occurring in ``term``."""
    return {t.functor for t in subterms(term) if isinstance(t, Struct)}


_fresh_counter = itertools.count()


def fresh_variable(stem: str = "_G") -> Var:
    """A globally fresh variable.

    Freshness is process-wide: names drawn here never collide with each
    other.  User-written variables conventionally do not start with ``_G``
    (the parsers enforce nothing, but the workload generators avoid it).
    """
    return Var(f"{stem}{next(_fresh_counter)}")


def map_variables(term: Term, mapping: Dict[Var, Term], default=None) -> Term:
    """Rebuild ``term`` with each variable replaced per ``mapping``.

    ``default`` (if given) is called for variables absent from the
    mapping and its result is recorded there, so shared variables map
    consistently.  Ground subtrees are shared, not rebuilt.  The walk is
    iterative — deep terms from the workload generators cannot exhaust
    the C stack.
    """
    if isinstance(term, Var):
        replacement = mapping.get(term)
        if replacement is None:
            if default is None:
                return term
            replacement = mapping[term] = default(term)
        return replacement
    if term.ground:
        return term
    # Each frame is [node, built_args]; len(built_args) doubles as the
    # index of the next child to process.
    frames: List[List[object]] = [[term, []]]
    result: Optional[Term] = None
    while frames:
        node, built = frames[-1]
        args = node.args  # type: ignore[union-attr]
        index = len(built)  # type: ignore[arg-type]
        if index < len(args):
            child = args[index]
            if isinstance(child, Var):
                replacement = mapping.get(child)
                if replacement is None:
                    if default is None:
                        replacement = child
                    else:
                        replacement = mapping[child] = default(child)
                built.append(replacement)  # type: ignore[union-attr]
            elif child.ground:
                built.append(child)  # type: ignore[union-attr]
            else:
                frames.append([child, []])
            continue
        frames.pop()
        rebuilt: Term = (
            Struct(node.functor, tuple(built)) if args else node  # type: ignore[union-attr,arg-type]
        )
        if frames:
            frames[-1][1].append(rebuilt)  # type: ignore[union-attr]
        else:
            result = rebuilt
    assert result is not None
    return result


def rename_apart(term: Term, taken: Iterable[Var] = ()) -> Tuple[Term, Dict[Var, Var]]:
    """Rename the variables of ``term`` to globally fresh ones.

    Returns the renamed term and the renaming used.  ``taken`` is accepted
    for API symmetry but freshness is global, so no collision with *any*
    existing variable is possible.

    Renaming a clause apart before resolution is the standard way to get
    standardized-apart variants (see ``repro.lp.resolution``); the
    well-typedness checker uses it to produce the per-atom renamings
    ``η_i`` of predicate-type variables (Definition 16).
    """
    del taken  # freshness is global; parameter kept for call-site clarity
    mapping: Dict[Var, Var] = {}
    renamed = map_variables(term, mapping, default=lambda _v: fresh_variable())
    return renamed, mapping
