"""Clauses, programs and queries.

Section 5 of the paper fixes the syntax of logic programs: an *atom* is a
predicate symbol applied to terms over ``F``; a *program clause* is
``h :- b.`` with head atom ``h`` and body atom list ``b``; a *query*
(negative clause) is ``:- b.``; a *program* is a sequence of program
clauses.

These classes are shared between the object level (user programs being
type-checked and executed) and the meta level (the Horn theory ``H_C`` of
the subtype predicate ``>=``, see ``repro.core.horn``) — the paper uses
the very same clause language for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple, Union

from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, fresh_variable, variables_of

__all__ = ["Clause", "ClauseTemplate", "Query", "Program", "rename_clause_apart"]


@dataclass(frozen=True)
class Clause:
    """A program clause ``head :- body`` (a fact when ``body`` is empty)."""

    head: Struct
    body: Tuple[Struct, ...] = ()

    @property
    def is_fact(self) -> bool:
        """True iff the body is empty."""
        return not self.body

    @property
    def indicator(self) -> Tuple[str, int]:
        """``name/arity`` of the head predicate."""
        return self.head.indicator

    def variables(self) -> Set[Var]:
        """All variables occurring in the clause."""
        out = variables_of(self.head)
        for atom_ in self.body:
            out |= variables_of(atom_)
        return out

    def atoms(self) -> Tuple[Struct, ...]:
        """Head followed by body atoms."""
        return (self.head,) + self.body

    def __str__(self) -> str:
        if self.is_fact:
            return f"{pretty(self.head)}."
        body = ", ".join(pretty(a) for a in self.body)
        return f"{pretty(self.head)} :- {body}."


@dataclass(frozen=True)
class Query:
    """A negative clause ``:- goals.``"""

    goals: Tuple[Struct, ...]

    def variables(self) -> Set[Var]:
        """All variables occurring in the goals."""
        out: Set[Var] = set()
        for goal in self.goals:
            out |= variables_of(goal)
        return out

    def __str__(self) -> str:
        return ":- " + ", ".join(pretty(g) for g in self.goals) + "."


class Program:
    """An ordered sequence of program clauses."""

    def __init__(self, clauses: Iterable[Clause] = ()) -> None:
        self.clauses: List[Clause] = list(clauses)

    def add(self, clause: Clause) -> None:
        """Append ``clause`` to the program."""
        self.clauses.append(clause)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def predicates(self) -> Set[Tuple[str, int]]:
        """All predicate indicators defined by this program."""
        return {clause.indicator for clause in self.clauses}

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self.clauses)


def rename_clause_apart(clause: Clause) -> Clause:
    """A variant of ``clause`` with globally fresh variables.

    Used before every resolution step so the clause shares no variables
    with the current resolvent (standardising apart).
    """
    mapping: Dict[Var, Var] = {}

    def walk(term: Term) -> Term:
        if isinstance(term, Var):
            if term not in mapping:
                mapping[term] = fresh_variable()
            return mapping[term]
        if term.ground:
            return term
        return Struct(term.functor, tuple(walk(a) for a in term.args))

    head = walk(clause.head)
    assert isinstance(head, Struct)
    return Clause(head, tuple(walk(a) for a in clause.body))  # type: ignore[arg-type]


#: A compiled clause term: a slot number for a clause variable, a ground
#: struct shared as it is, or ``(functor, children)`` for a non-ground
#: compound — the shape ``repro.core.declarations`` compiles constraint
#: right-hand sides to.
TemplateNode = Union[int, Struct, Tuple[str, tuple]]


class ClauseTemplate:
    """``clause`` compiled once for resolution.

    Variables are numbered by first occurrence, head first, so a
    resolution step never renames the clause apart: it unifies the goal
    against :attr:`head` in a slot environment (``repro.lp.resolution``)
    and builds :attr:`body` from it, drawing fresh variables only for
    slots the head left unbound.
    """

    __slots__ = ("clause", "head", "body", "slots")

    def __init__(self, clause: Clause) -> None:
        numbering: Dict[Var, int] = {}
        self.clause = clause
        #: The head's argument templates (the predicate is the goal's).
        self.head: Tuple[TemplateNode, ...] = tuple(
            _compile(arg, numbering) for arg in clause.head.args
        )
        self.body: Tuple[TemplateNode, ...] = tuple(
            _compile(goal, numbering) for goal in clause.body
        )
        self.slots = len(numbering)


def _compile(term: Term, numbering: Dict[Var, int]) -> TemplateNode:
    if isinstance(term, Var):
        slot = numbering.get(term)
        if slot is None:
            slot = numbering[term] = len(numbering)
        return slot
    if term.ground:
        return term
    return (term.functor, tuple(_compile(arg, numbering) for arg in term.args))
