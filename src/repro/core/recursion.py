"""Interpreter recursion-limit management for deep terms.

The subtype engine and the matchers recurse structurally over terms (and
over guarded constraint-expansion chains).  Python's default recursion
limit (~1000 frames) is too small for the deep benchmark terms —
``succ^500(0)`` costs several Python frames per ``succ`` layer.  Rather
than rewriting the algorithms iteratively (obscuring their one-to-one
correspondence with the paper's definitions), entry points call
:func:`ensure_recursion_capacity` with the terms involved.

The check is O(1) per term: every ``Struct`` carries its height in its
``depth`` slot, filled at construction from its arguments' heights, so
the public ``match``/``holds``/derivation calls that run it on every
invocation (typed execution makes thousands per query) never walk the
terms they are about to traverse.

The limit is only ever *raised* (never lowered), so concurrent callers
cannot trip each other.
"""

from __future__ import annotations

import sys

from ..terms.term import Term, term_depth

__all__ = ["ensure_recursion_capacity", "FRAMES_PER_LEVEL", "BASE_HEADROOM"]

FRAMES_PER_LEVEL = 24
"""Python frames consumed per term level (generator frames included),
measured with headroom."""

BASE_HEADROOM = 2000
"""Frames reserved for pytest/callers below the engine."""


_QUANTUM = 10_000

MAX_LIMIT = 500_000
"""Hard ceiling for the raised recursion limit.

CPython's C stack bounds how deep *any* structural operation on terms can
go — even built-in equality of nested tuples recurses in C — so raising
the Python limit beyond what the C stack can honour trades a clean
``RecursionError`` for a segfault.  The ceiling corresponds to a practical
term-depth limit of roughly 20k symbols, far beyond anything the paper's
workloads produce; the variable-free subtype path additionally avoids
recursion entirely (``SubtypeEngine._holds_ground``).
"""


def ensure_recursion_capacity(*terms: Term) -> None:
    """Raise ``sys.setrecursionlimit`` so the given terms can be traversed.

    The new limit is rounded up to a multiple of a large quantum so the
    limit changes rarely (tools such as hypothesis warn when the limit
    fluctuates mid-test), and capped at :data:`MAX_LIMIT`.
    """
    deepest = max(map(term_depth, terms), default=0)
    needed = BASE_HEADROOM + FRAMES_PER_LEVEL * deepest
    if sys.getrecursionlimit() < needed:
        quantised = ((needed + _QUANTUM - 1) // _QUANTUM) * _QUANTUM
        sys.setrecursionlimit(min(quantised, MAX_LIMIT))
