"""Clause database with optional first-argument indexing.

The SLD engine asks the database for the candidate clauses of a selected
goal.  Without indexing, candidates are simply the clauses whose head has
the goal's predicate indicator, in program order.  With first-argument
indexing (the classic WAM optimisation, on by default), clauses whose
head's first argument is a struct are bucketed by that struct's
``name/arity``; a goal with a struct first argument then only sees the
matching bucket merged (in program order) with the clauses whose head has
a variable first argument.

Indexing never changes the solution set — only how many head-unification
attempts fail — which is exactly what ablation experiment A2 measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..terms.term import Struct, Var
from .clause import Clause, ClauseTemplate, Program

__all__ = ["Database"]

_Indicator = Tuple[str, int]


class _PredicateEntry:
    """Templates of one predicate plus its first-argument index.

    Candidate lists are built once per first-argument symbol and kept
    until the next :meth:`add`; callers must not mutate them.
    """

    __slots__ = ("templates", "by_first_arg", "var_first_arg", "_merged")

    def __init__(self) -> None:
        self.templates: List[ClauseTemplate] = []
        # (sequence number, template) pairs, merged in program order.
        self.by_first_arg: Dict[_Indicator, List[Tuple[int, ClauseTemplate]]] = {}
        self.var_first_arg: List[Tuple[int, ClauseTemplate]] = []
        self._merged: Dict[_Indicator, List[ClauseTemplate]] = {}

    def add(self, seq: int, template: ClauseTemplate) -> None:
        self.templates.append(template)
        self._merged.clear()
        head = template.clause.head
        if not head.args:
            return
        first = head.args[0]
        if isinstance(first, Var):
            self.var_first_arg.append((seq, template))
        else:
            assert isinstance(first, Struct)
            self.by_first_arg.setdefault(first.indicator, []).append((seq, template))

    def indexed(self, indicator: _Indicator) -> List[ClauseTemplate]:
        """The templates whose first head argument may unify with a
        struct of ``indicator``, in program order."""
        merged = self._merged.get(indicator)
        if merged is None:
            # Merge the indexed bucket with variable-headed clauses by
            # sequence number so program order is preserved.
            pairs = sorted(
                self.by_first_arg.get(indicator, []) + self.var_first_arg,
                key=lambda pair: pair[0],
            )
            merged = self._merged[indicator] = [template for _, template in pairs]
        return merged


class Database:
    """An indexed store of program clauses, each compiled to a
    :class:`~repro.lp.clause.ClauseTemplate` when it is added."""

    def __init__(self, clauses: Iterable[Clause] = (), first_arg_indexing: bool = True) -> None:
        self._entries: Dict[_Indicator, _PredicateEntry] = {}
        self._seq = 0
        self.first_arg_indexing = first_arg_indexing
        for clause in clauses:
            self.add(clause)

    @classmethod
    def from_program(cls, program: Program, first_arg_indexing: bool = True) -> "Database":
        """Build a database from a :class:`~repro.lp.clause.Program`."""
        return cls(program, first_arg_indexing=first_arg_indexing)

    def add(self, clause: Clause) -> None:
        """Append ``clause`` (program order is preserved for candidates)."""
        entry = self._entries.setdefault(clause.indicator, _PredicateEntry())
        entry.add(self._seq, ClauseTemplate(clause))
        self._seq += 1

    def __len__(self) -> int:
        return sum(len(entry.templates) for entry in self._entries.values())

    def predicates(self) -> List[_Indicator]:
        """All predicate indicators with at least one clause."""
        return list(self._entries)

    def clauses_for(self, indicator: _Indicator) -> List[Clause]:
        """All clauses of ``indicator`` in program order."""
        entry = self._entries.get(indicator)
        if entry is None:
            return []
        return [template.clause for template in entry.templates]

    def candidates(self, goal: Struct) -> List[Clause]:
        """Clauses whose head might unify with ``goal``, in program order.

        This is an over-approximation filter: every clause that unifies
        with ``goal`` is returned (completeness), some returned clauses
        may still fail to unify.
        """
        return [template.clause for template in self.templates(goal)]

    def templates(self, goal: Struct) -> List[ClauseTemplate]:
        """The compiled :meth:`candidates` of ``goal`` — a shared list,
        not to be mutated."""
        entry = self._entries.get(goal.indicator)
        if entry is None:
            return []
        if not self.first_arg_indexing or not goal.args:
            return entry.templates
        first = goal.args[0]
        if isinstance(first, Var):
            return entry.templates
        return entry.indexed(first.indicator)
