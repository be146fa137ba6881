"""Input/output modes — the Section 7 extension, after [DH88].

The concluding remarks observe that subtypes and logic programming mix
uneasily: with ``PRED p(nat)`` and ``PRED q(int)``, the query
``:- p(X), q(X).`` would be fine when information flows sub→supertype
(``p`` binds ``X`` to a ``nat`` which ``q`` accepts) but unsound the
other way (``q`` binds ``X`` to ``pred(0)`` which ``p`` must never see).
One proposed solution is mode declarations ensuring information flows in
the appropriate direction::

    PRED p(OUT nat).
    PRED q(IN int).

This module is a faithful *reconstruction* of that sketch (the paper only
gives the example above; [DH88] is the reference design).  The rules:

* Goals are processed left to right (the standard computation rule).
* An ``OUT`` argument position of a body goal *produces* its variables at
  the position's declared type; an ``IN`` position *consumes* them.
* In a clause, the head's ``IN`` positions produce (the caller supplies
  well-typed inputs) and its ``OUT`` positions consume at the end of the
  body (the clause must deliver them).
* A consumer occurrence of ``x`` at declared type ``τ`` is direction-safe
  iff ``x`` was already produced and **every** production type ``σ`` of
  ``x`` satisfies ``τ ⪰_C σ`` — information only ever flows from a
  subtype to a supertype.

The check is per-variable and per-argument-position; non-variable
argument terms are treated as produced/consumed atomically using the
clause's typing for their variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..lp.clause import Clause, Program, Query
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, variables_of
from .declarations import ConstraintSet, DeclarationError
from .predicate_types import PredicateTypeEnv
from .subtype import SubtypeEngine

__all__ = [
    "IN",
    "OUT",
    "FLOW",
    "UNPRODUCED",
    "ModeEnv",
    "ModeViolation",
    "ModeChecker",
    "ModeReport",
    "Consumption",
    "dataflow",
]

IN = "IN"
OUT = "OUT"

_Indicator = Tuple[str, int]


class ModeEnv:
    """Mode declarations ``MODE p(IN, ..., OUT).`` — one per predicate."""

    def __init__(self) -> None:
        self._modes: Dict[_Indicator, Tuple[str, ...]] = {}

    def declare(self, name: str, modes: Sequence[str]) -> None:
        for mode in modes:
            if mode not in (IN, OUT):
                raise DeclarationError(f"mode must be IN or OUT, got {mode}")
        indicator = (name, len(modes))
        existing = self._modes.get(indicator)
        if existing is not None and existing != tuple(modes):
            raise DeclarationError(f"conflicting mode declarations for {name}/{len(modes)}")
        self._modes[indicator] = tuple(modes)

    def modes_of(self, atom: Struct) -> Optional[Tuple[str, ...]]:
        """Declared modes for ``atom``'s predicate, or ``None``."""
        return self._modes.get(atom.indicator)

    def items(self) -> List[Tuple[_Indicator, Tuple[str, ...]]]:
        """All declarations as ``((name, arity), modes)`` pairs."""
        return list(self._modes.items())

    def __len__(self) -> int:
        return len(self._modes)


#: :attr:`ModeViolation.kind` values.
FLOW = "flow"  # produced at a type that does not flow into the consumer
UNPRODUCED = "unproduced"  # consumed before any production


@dataclass
class ModeViolation:
    """One direction-safety failure.

    Beyond the human-readable ``reason``, the violation carries the
    structured facts tooling needs to *repair* the program: the failure
    ``kind``, the production type ``produced_type`` / consumer type
    ``consumer_type`` of a :data:`FLOW` failure (the filter predicate to
    insert is ``produced_type``→``consumer_type``), and whether the
    consuming occurrence is the clause head's ``OUT`` epilogue
    (``at_head``) or a body goal.  ``TLP502``'s machine-applicable
    fix-its are generated from exactly these fields.
    """

    atom: Struct
    position: int  # 0-based argument position
    variable: Var
    reason: str
    kind: str = FLOW  # FLOW | UNPRODUCED
    produced_type: Optional[Term] = None  # σ of a FLOW failure
    consumer_type: Optional[Term] = None  # τ of a FLOW failure
    at_head: bool = False  # consumer is the head's OUT epilogue

    def __str__(self) -> str:
        return (
            f"{pretty(self.atom)} argument {self.position + 1}: "
            f"variable {self.variable}: {self.reason}"
        )


@dataclass
class ModeReport:
    """All violations found in one clause/query (empty means mode-correct)."""

    violations: List[ModeViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class Consumption(NamedTuple):
    """One consumer occurrence met by :func:`dataflow`: ``variable`` is
    read at ``atom``'s argument ``position`` (0-based) under ``type``,
    having been produced so far at the listed ``(σ, producing atom,
    position)`` triples (empty: not produced yet)."""

    atom: Struct
    position: int
    variable: Var
    type: Term
    productions: Sequence[Tuple[Term, Struct, int]]
    at_head: bool  # the clause head's OUT epilogue, not a body goal


#: An atom with its per-position ``(mode, type)`` pairs.
ModedAtom = Tuple[Struct, Sequence[Tuple[str, Term]]]


def _occurrences(moded: ModedAtom, mode: str) -> Iterator[Tuple[int, Var, Term]]:
    """``(position, variable, type)`` for every variable at ``moded``'s
    ``mode`` positions, left to right."""
    atom, slots = moded
    for position, (arg, (slot_mode, type_)) in enumerate(zip(atom.args, slots)):
        if slot_mode == mode:
            for var in variables_of(arg):
                yield position, var, type_


def dataflow(head: Optional[ModedAtom], body: Iterable[ModedAtom]) -> Iterator[Consumption]:
    """The left-to-right producer/consumer walk of a clause or query.

    The head's ``IN`` positions produce, each body goal consumes its
    ``IN`` positions and then produces its ``OUT`` positions, and the
    head's ``OUT`` positions consume at the end.  Every consumed
    variable occurrence is yielded with the productions seen so far;
    judging it is the caller's business.
    """
    produced: Dict[Var, List[Tuple[Term, Struct, int]]] = {}

    def produce(moded: ModedAtom, mode: str) -> None:
        for position, var, type_ in _occurrences(moded, mode):
            produced.setdefault(var, []).append((type_, moded[0], position))

    def consume(moded: ModedAtom, mode: str, at_head: bool) -> Iterator[Consumption]:
        for position, var, type_ in _occurrences(moded, mode):
            yield Consumption(moded[0], position, var, type_, produced.get(var, ()), at_head)

    if head is not None:
        produce(head, IN)
    for moded in body:
        yield from consume(moded, IN, False)
        produce(moded, OUT)
    if head is not None:
        yield from consume(head, OUT, True)


class ModeChecker:
    """Direction-safety of clauses and queries under mode declarations.

    Predicates without a mode declaration default to all-``OUT`` on body
    occurrences and all-``IN`` on head occurrences — the permissive
    reading that reproduces the unmoded system's behaviour.
    """

    def __init__(
        self,
        constraints: ConstraintSet,
        predicate_types: PredicateTypeEnv,
        modes: ModeEnv,
        engine: Optional[SubtypeEngine] = None,
    ) -> None:
        self.constraints = constraints
        self.predicate_types = predicate_types
        self.modes = modes
        self.engine = engine or SubtypeEngine(constraints)

    # -- public API ---------------------------------------------------------

    def check_query(self, query: Query) -> ModeReport:
        """Direction-safety of a query's left-to-right execution."""
        body = (self._declared(goal, False) for goal in query.goals)
        return ModeReport(list(self.violations(None, body)))

    def check_clause(self, clause: Clause) -> ModeReport:
        """Direction-safety of one clause: head INs produce, body runs
        left-to-right, head OUTs consume at the end."""
        head = self._declared(clause.head, True)
        body = (self._declared(goal, False) for goal in clause.body)
        return ModeReport(list(self.violations(head, body)))

    def check_program(self, program: Program) -> List[Tuple[Clause, ModeReport]]:
        """Check every clause; returns (clause, report) pairs."""
        return [(clause, self.check_clause(clause)) for clause in program]

    # -- the dataflow pass -----------------------------------------------------

    def moded(self, atom: Struct, types: Sequence[Term], is_head: bool) -> ModedAtom:
        """``atom`` with its declared modes (the permissive default when
        undeclared) paired with the given position types."""
        modes = self.modes.modes_of(atom)
        default = IN if is_head else OUT
        return atom, [
            (modes[position] if modes else default, type_)
            for position, type_ in enumerate(types)
        ]

    def violations(
        self, head: Optional[ModedAtom], body: Iterable[ModedAtom]
    ) -> Iterator[ModeViolation]:
        """Every direction-safety failure of the walk, in walk order."""
        for use in dataflow(head, body):
            if not use.productions:
                yield ModeViolation(
                    use.atom,
                    use.position,
                    use.variable,
                    "consumed in an IN position before being produced",
                    kind=UNPRODUCED,
                    consumer_type=use.type,
                    at_head=use.at_head,
                )
                continue
            for sigma, _, _ in use.productions:
                if not self.engine.more_general(use.type, sigma):
                    yield ModeViolation(
                        use.atom,
                        use.position,
                        use.variable,
                        f"produced at type {pretty(sigma)}, which does not "
                        f"flow into consumer type {pretty(use.type)}",
                        kind=FLOW,
                        produced_type=sigma,
                        consumer_type=use.type,
                        at_head=use.at_head,
                    )

    def _declared(self, atom: Struct, is_head: bool) -> ModedAtom:
        return self.moded(atom, self.predicate_types.type_of(atom).args, is_head)
