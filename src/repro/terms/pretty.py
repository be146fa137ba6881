"""Pretty printing of terms, types, and clause parts.

The printer emits the paper's concrete syntax: infix ``+`` for the
predefined union type constructor (left associative, as the parser reads
it) and ordinary ``name(arg, ...)`` application everywhere else.  Output
round-trips through ``repro.lang.parser``: for every term ``t``,
``parse_term(pretty(t)) == t`` (tested property).
"""

from __future__ import annotations

import re
from typing import Collection, Dict, Iterable

from .term import Struct, Term, Var

__all__ = ["pretty", "pretty_args", "renumber_generated", "UNION_TYPE"]

UNION_TYPE = "+"

#: Built-in constraint goal functors rendered infix (2-ary only).
_BUILTIN_GOALS = frozenset({"<", "=<", "=:=", "is"})

#: Renderings at most this long are cached on the node (``Struct._pretty``).
#: The bound keeps deep terms from pinning O(depth²) characters: a
#: 50k-deep ``succ`` tower would otherwise cache every suffix of its own
#: rendering.  Types and atoms — the terms printed over and over in
#: diagnostics and trace events — are far below the limit.
_PRETTY_CACHE_LIMIT = 120


def pretty(term: Term) -> str:
    """Render ``term`` in the paper's concrete syntax.

    Short renderings are cached per node, so with hash-consing on the
    hot printers (trace events, diagnostics) render each distinct type
    once per process rather than once per occurrence.
    """
    if isinstance(term, Var):
        return term.name
    cached = term._pretty
    if cached is not None:
        return cached
    text = _render(term)
    if len(text) <= _PRETTY_CACHE_LIMIT:
        term._pretty = text
    return text


def _render(term: Struct) -> str:
    if term.functor == ">=" and len(term.args) == 2:
        # Subtype atoms of the Horn theory H_C display infix.
        return f"{pretty(term.args[0])} >= {pretty(term.args[1])}"
    if term.functor == ":" and len(term.args) == 2:
        # Typed-unification constraints display infix too.
        return f"{pretty(term.args[0])} : {pretty(term.args[1])}"
    if term.functor in _BUILTIN_GOALS and len(term.args) == 2:
        # Built-in constraint goals (typed-CLP extension) display infix so
        # rewritten clauses and queries re-parse.
        return f"{pretty(term.args[0])} {term.functor} {pretty(term.args[1])}"
    if term.functor == UNION_TYPE and len(term.args) == 2:
        left, right = term.args
        left_str = pretty(left)
        # ``+`` is left associative: a right operand that is itself a union
        # must be parenthesised to round-trip.
        if isinstance(right, Struct) and right.functor == UNION_TYPE and len(right.args) == 2:
            right_str = f"({pretty(right)})"
        else:
            right_str = pretty(right)
        return f"{left_str} + {right_str}"
    if not term.args:
        return term.functor
    return f"{term.functor}({pretty_args(term.args)})"


def pretty_args(args: Iterable[Term]) -> str:
    """Comma-join pretty-printed ``args``, parenthesising top-level unions."""
    rendered = []
    for arg in args:
        text = pretty(arg)
        rendered.append(text)
    return ", ".join(rendered)


#: A generated variable name: ``fresh_variable``'s ``_`` + capital stem +
#: counter, as a whole word.
_GENERATED = re.compile(r"(?<![A-Za-z0-9_])_[A-Z][0-9]+(?![A-Za-z0-9_])")


def renumber_generated(text: str, written: Collection[str] = ()) -> str:
    """``text`` with generated variable names (``_G17``, ``_E575``: fresh
    names whose numbers depend on everything the process ran before)
    renumbered per stem by first appearance, skipping the ``written``
    names (the user's own), so a message reads the same bytes however
    much ran before it."""
    names: Dict[str, str] = {}
    counters: Dict[str, int] = {}

    def rename(found: "re.Match[str]") -> str:
        name = found.group()
        if name in written:
            return name
        renamed = names.get(name)
        if renamed is None:
            stem = name[:2]
            number = counters.get(stem, 0)
            while f"{stem}{number}" in written:
                number += 1
            counters[stem] = number + 1
            renamed = names[name] = f"{stem}{number}"
        return renamed

    return _GENERATED.sub(rename, text)
