"""Moded well-typedness — the [DH88] direction, made concrete.

Section 7 of the paper observes that Definition 16 must *reject* queries
like ``:- p(X), q(X).`` with ``PRED p(nat)`` / ``PRED q(int)`` even
though sub→supertype flow would be harmless, because nothing stops the
information flowing the other way.  "One solution to this problem,
proposed in [DH88], is to require input/output modes which ensure that
information flows in the appropriate direction, e.g. ``PRED p(OUT nat).
PRED q(IN int).``"

This module is a faithful reconstruction of that proposal on top of the
machinery already built:

* A clause is checked with the strict Definition 16 checker first; if it
  accepts, done (strict well-typedness implies moded well-typedness).
* Otherwise, if every atom involved with a shared clause variable has a
  mode declaration, the *directional* conditions are checked instead:

  1. every argument position of every atom must individually have a
     typing under its declared position type (via the
     constraint-collecting ``match``; type-variable commitments are
     solved from the shape equations and cover constraints exactly as in
     the strict checker — only the *agreement* requirement is replaced);
  2. processing the head's ``IN`` positions, then the body left to right
     (each goal consumes its ``IN`` positions before producing its
     ``OUT`` positions), then the head's ``OUT`` positions: every
     consumer occurrence of a variable at type ``τ`` must see only
     producer occurrences at types ``σ`` with ``τ ⪰_C σ`` — information
     flows sub → supertype only — and no variable may be consumed before
     it was produced.

The reward is real expressiveness: the widening clause

    PRED nat2int(nat, int).
    MODE nat2int(IN, OUT).
    nat2int(X, X).

is ill-typed under Definition 16 (``X`` in two type contexts) but moded
well-typed here — the coercion the paper could only express by copying
the term through a filter becomes a no-op predicate.  No analogue of
Theorem 6 is claimed for the moded system (the paper leaves it open;
[DH88] prove their own variant for their language).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..lp.clause import Clause, Program, Query
from ..terms.pretty import pretty
from ..terms.substitution import Substitution
from ..terms.term import Struct, Term, Var, fresh_variable, variables_of
from .constraint_match import ConstraintMatcher
from .declarations import ConstraintSet, DeclarationError
from .infer import CommonTypeInference
from .match import MATCH_BOTTOM, MATCH_FAIL
from .modes import UNPRODUCED, ModeChecker, ModeEnv, ModeViolation
from .predicate_types import PredicateTypeEnv
from .subtype import SubtypeEngine
from .welltyped import ClauseReport, ClauseTyping, ResolventTyping, WellTypedChecker

__all__ = ["ModedClauseReport", "ModedWellTypedChecker", "unmoded_shared"]


@dataclass
class ModedClauseReport:
    """Verdict plus how it was reached (``strict`` or ``directional``)."""

    well_typed: bool
    via: Optional[str] = None  # "strict" | "directional"
    reason: Optional[str] = None
    strict_report: Optional[ClauseReport] = None

    def __bool__(self) -> bool:
        return self.well_typed


def unmoded_shared(atoms: Sequence[Struct], modes: ModeEnv) -> Iterator[Tuple[Var, Struct]]:
    """``(variable, atom)`` pairs, in order, where ``atom`` carries a
    variable shared with another atom (or repeated within it) but has no
    mode declaration — the directional fallback's precondition."""
    variable_atoms: Dict[Var, List[Struct]] = {}
    for atom in atoms:
        for var in variables_of(atom):
            variable_atoms.setdefault(var, []).append(atom)
    for var, touching in variable_atoms.items():
        multi_atom = len(touching) > 1
        multi_position = any(
            sum(1 for arg in atom.args for v in variables_of(arg) if v == var) > 1
            for atom in touching
        )
        if multi_atom or multi_position:
            for atom in touching:
                if modes.modes_of(atom) is None:
                    yield var, atom


def _flow_reason(violation: ModeViolation) -> str:
    if violation.kind == UNPRODUCED:
        return (
            f"variable {violation.variable} consumed at {pretty(violation.atom)} "
            f"argument {violation.position + 1} before being produced"
        )
    return (
        f"variable {violation.variable}: produced at "
        f"{pretty(violation.produced_type)}, which does not flow into consumer "
        f"type {pretty(violation.consumer_type)} at {pretty(violation.atom)}"
    )


class ModedWellTypedChecker:
    """Strict Definition 16 with a directional (moded) fallback."""

    def __init__(
        self,
        constraints: ConstraintSet,
        predicate_types: PredicateTypeEnv,
        modes: ModeEnv,
        engine: Optional[SubtypeEngine] = None,
        strict: Optional[WellTypedChecker] = None,
    ) -> None:
        self.constraints = constraints
        self.predicate_types = predicate_types
        self.modes = modes
        self.strict = strict or WellTypedChecker(constraints, predicate_types)
        # Accepting a caller-owned engine lets the frontend share one memo
        # table across every clause check, mode check, and witness audit
        # of a file instead of re-deriving hot subtype goals per stage.
        self.engine = engine or SubtypeEngine(constraints)
        # The walk condition 2 runs; the frontend's mode pass and the
        # TLP5xx rules reuse this instance.
        self.mode_checker = ModeChecker(constraints, predicate_types, modes, engine=self.engine)
        self.constraint_matcher = self.strict.constraint_matcher
        self.inference = CommonTypeInference(constraints, self.constraint_matcher)

    # -- public API ---------------------------------------------------------------

    def check_clause(self, clause: Clause) -> ModedClauseReport:
        strict_report = self.strict.check_clause(clause)
        if strict_report.well_typed:
            return ModedClauseReport(True, via="strict", strict_report=strict_report)
        return self._directional(clause.head, clause.body, strict_report)

    def check_query(self, query: Query) -> ModedClauseReport:
        strict_report = self.strict.check_query(query)
        if strict_report.well_typed:
            return ModedClauseReport(True, via="strict", strict_report=strict_report)
        return self._directional(None, query.goals, strict_report)

    def check_resolvent(
        self,
        goals: Sequence[Struct],
        parent: Optional[ResolventTyping] = None,
        clause: Optional[ClauseTyping] = None,
        mgu: Optional[Substitution] = None,
    ) -> ModedClauseReport:
        """Well-typedness of a resolvent — lets ``TypedRunner`` use this
        checker for its Theorem 6-style re-checking on moded programs.

        The strict check may carry the parent's witness forward (see
        :meth:`WellTypedChecker.check_resolvent`); only a strict
        acceptance has one, so after a directional acceptance the next
        step runs the full check.
        """
        goals = tuple(goals)
        strict_report = self.strict.check_resolvent(goals, parent, clause, mgu)
        if strict_report.well_typed:
            return ModedClauseReport(True, via="strict", strict_report=strict_report)
        return self._directional(None, goals, strict_report)

    def clause_typing(self, clause: Clause) -> Optional[ClauseTyping]:
        """The strict body witnesses of ``clause`` (``None`` for a clause
        that is only directionally well-moded)."""
        return self.strict.clause_typing(clause)

    def check_program(self, program: Program) -> List[Tuple[Clause, ModedClauseReport]]:
        return [(clause, self.check_clause(clause)) for clause in program]

    # -- the directional conditions ---------------------------------------------------

    def _directional(
        self,
        head: Optional[Struct],
        body: Tuple[Struct, ...],
        strict_report: ClauseReport,
    ) -> ModedClauseReport:
        def rejected(reason: str) -> ModedClauseReport:
            return ModedClauseReport(
                False, via="directional", reason=reason, strict_report=strict_report
            )

        atoms: List[Struct] = ([head] if head is not None else []) + list(body)
        # Shared variables demand modes on every atom they touch.
        unmoded = next(unmoded_shared(atoms, self.modes), None)
        if unmoded is not None:
            var, atom = unmoded
            return rejected(
                f"strict check failed ({strict_report.reason}) and "
                f"predicate {atom.functor}/{len(atom.args)} carrying "
                f"shared variable {var} has no mode declaration"
            )

        # Condition 1: every position types individually; collect the
        # commitment constraints exactly as the strict checker does.
        solvable: Set[Var] = set()
        rigid: Set[Var] = set()
        equations: List[Tuple[Var, Term]] = []
        covers: List[Tuple[Var, Term]] = []
        position_types: List[List[Term]] = []  # per atom, per position
        for index, atom in enumerate(atoms):
            is_head = head is not None and index == 0
            try:
                declared = self.predicate_types.type_of(atom)
            except DeclarationError as error:
                return rejected(str(error))
            if is_head:
                working = declared
                rigid |= variables_of(declared)
            else:
                renaming = {v: fresh_variable("_E") for v in variables_of(declared)}
                solvable.update(renaming.values())
                working_term = Substitution(dict(renaming)).apply(declared)
                assert isinstance(working_term, Struct)
                working = working_term
            atom_position_types: List[Term] = []
            for position, (pos_type, arg) in enumerate(zip(working.args, atom.args)):
                outcome = self.constraint_matcher.match(pos_type, arg, solvable)
                if outcome.result is MATCH_FAIL or outcome.result is MATCH_BOTTOM:
                    return rejected(
                        f"argument {position + 1} of {pretty(atom)} has no typing "
                        f"under {pretty(pos_type)} ({outcome.result!r})"
                    )
                equations.extend(outcome.equations)
                covers.extend(outcome.covers)
                atom_position_types.append(pos_type)
            position_types.append(atom_position_types)

        solution = self._solve_commitments(equations, covers, rigid)
        if solution is None:
            return rejected("type-variable commitment constraints are unsolvable")

        # Condition 2: the dataflow pass over the committed position types.
        moded = [
            self.mode_checker.moded(
                atom,
                [solution.apply(type_) for type_ in types],
                is_head=head is not None and index == 0,
            )
            for index, (atom, types) in enumerate(zip(atoms, position_types))
        ]
        if head is None:
            flow = self.mode_checker.violations(None, moded)
        else:
            flow = self.mode_checker.violations(moded[0], moded[1:])
        violation = next(flow, None)
        if violation is not None:
            return rejected(_flow_reason(violation))
        return ModedClauseReport(True, via="directional", strict_report=strict_report)

    # -- helpers -------------------------------------------------------------------------

    def _solve_commitments(
        self,
        equations: List[Tuple[Var, Term]],
        covers: List[Tuple[Var, Term]],
        rigid: Set[Var],
    ) -> Optional[Substitution]:
        """Shape equations by unification, cover constraints by common-type
        inference — the strict checker's steps 3/3b without the agreement
        equations."""
        from ..terms.unify import unify

        current = Substitution()
        for left, right in equations:
            theta = unify(current.apply(left), current.apply(right))
            if theta is None:
                return None
            current = current.compose(theta)
        groups: Dict[Var, List[Term]] = {}
        for var, term in covers:
            representative = current.apply(var)
            if isinstance(representative, Var):
                if representative in rigid:
                    return None
                groups.setdefault(representative, []).append(term)
            else:
                # Bound: verified implicitly by the flow conditions.
                continue
        inferred: Dict[Var, Term] = {}
        for var, terms in groups.items():
            candidate = self.inference.infer(terms)
            if candidate is None:
                return None
            inferred[var] = candidate
        return current.compose(Substitution(inferred))
