"""Built-in constraint predicates of the typed-CLP extension.

"Typing Constraint Logic Programs" (Fages & Coquery) extends the
paper's prescriptive discipline (S4-S7) to constraint logic programs by
giving the built-in constraint predicates *declared subtype signatures*
exactly like user predicates.  We ship the four arithmetic comparators
the surface syntax knows about::

    X < Y      '<'(X, Y)       comparison
    X =< Y     '=<'(X, Y)      comparison
    X =:= Y    '=:='(X, Y)     arithmetic equality
    X is E     'is'(X, E)      evaluation (X takes the value of E)

Each is typed over the *numeric* type of the declared lattice: ``int``
when the program declares it, else ``nat``.  A program that declares
neither numeric type has no built-in signatures — built-in goals are
then flagged by the lint layer rather than silently accepted.

Signatures are injected into the checker's :class:`PredicateTypeEnv`
only when the source actually uses a built-in goal, so programs in the
paper's pure fragment are checked byte-for-byte as before.  A user
declaration for a built-in indicator always wins (the injection skips
it); the lint layer reports the shadowing as TLP605.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..terms import Struct, Term

if TYPE_CHECKING:
    from .modes import ModeEnv
    from .predicate_types import PredicateTypeEnv

__all__ = [
    "BUILTIN_PREDICATES",
    "BUILTIN_MODES",
    "NUMERIC_TYPES",
    "builtin_heads",
    "declare_builtins",
    "is_builtin_goal",
    "is_builtin_indicator",
    "numeric_type_name",
    "uses_builtin_goals",
]

#: name -> arity of every built-in constraint predicate.
BUILTIN_PREDICATES: Dict[str, int] = {"<": 2, "=<": 2, "=:=": 2, "is": 2}

#: Declared modes for the built-ins (Section 7 vocabulary): comparisons
#: consume both arguments; ``X is E`` produces ``X`` from ``E``.
BUILTIN_MODES: Dict[str, Tuple[str, ...]] = {
    "<": ("IN", "IN"),
    "=<": ("IN", "IN"),
    "=:=": ("IN", "IN"),
    "is": ("OUT", "IN"),
}

#: Numeric types a built-in signature ranges over, widest first.
NUMERIC_TYPES: Tuple[str, ...] = ("int", "nat")


def is_builtin_indicator(name: str, arity: int) -> bool:
    """True iff ``name/arity`` is a built-in constraint predicate."""
    return BUILTIN_PREDICATES.get(name) == arity


def is_builtin_goal(goal: Struct) -> bool:
    """True iff ``goal`` is a call to a built-in constraint predicate."""
    return is_builtin_indicator(goal.functor, len(goal.args))


def uses_builtin_goals(goals: Iterable[Struct]) -> bool:
    """True iff any of ``goals`` calls a built-in constraint predicate."""
    return any(is_builtin_goal(goal) for goal in goals)


def numeric_type_name(declared_types: Iterable[str]) -> Optional[str]:
    """The numeric type built-ins range over in this program.

    ``int`` when declared, else ``nat`` when declared, else ``None``
    (the program has no numeric lattice and built-ins stay untyped).
    """
    declared = set(declared_types)
    for name in NUMERIC_TYPES:
        if name in declared:
            return name
    return None


def builtin_heads(declared_types: Iterable[str]) -> Tuple[Struct, ...]:
    """Declared-signature heads for every built-in, as ``PRED``-style
    type applications (e.g. ``'<'(int, int)``) over the program's
    numeric type.  Empty when the program declares no numeric type.
    """
    numeric = numeric_type_name(declared_types)
    if numeric is None:
        return ()
    tau: Term = Struct(numeric, ())
    return tuple(
        Struct(name, (tau,) * arity)
        for name, arity in sorted(BUILTIN_PREDICATES.items())
    )


def declare_builtins(
    predicate_types: "PredicateTypeEnv",
    modes: "ModeEnv",
    type_names: Iterable[str],
    goals: Iterable[Struct],
) -> None:
    """Declare the built-in signatures into ``predicate_types`` when any
    of ``goals`` calls a built-in, so the paper's pure fragment is
    checked byte-for-byte as before.  A user declaration for a built-in
    indicator wins.  :data:`BUILTIN_MODES` join ``modes`` only when the
    program is already moded, so unmoded files never flip into the
    directional fallback."""
    if not uses_builtin_goals(goals):
        return
    for head in builtin_heads(type_names):
        if predicate_types.has_type_for(head):
            continue
        predicate_types.declare(head)
        if len(modes) and modes.modes_of(head) is None:
            modes.declare(head.functor, BUILTIN_MODES[head.functor])
