"""Well-typedness of clauses, queries and programs (Definition 16).

A program clause ``A0 :- A1,...,Ak`` is well-typed iff there exist
substitutions ``η_1,...,η_k`` (over the *body* atoms' predicate-type
variables only — the head may not commit its type variables) such that

* ``match(type(A0), A0)`` and
* ``match(type(A_i) η_i, A_i)`` for ``1 ≤ i ≤ k``

are all typings (not ``fail``/``⊥``) and are in agreement.  A query is the
same without the head.  Theorem 6 proves these conditions are preserved by
SLD-resolution.

The checker makes the existential ``η_i`` effective the way the paper's
Section 7 describes:

1. rename each body atom's predicate-type variables apart — those renamed
   variables are *solvable*; the head's predicate-type variables stay
   *rigid*;
2. run the constraint-collecting match of
   ``repro.core.constraint_match`` on every atom, producing a symbolic
   typing plus shape equations;
3. collect all equations — the shape equations and, for every clause
   variable that occurs in several atoms, the agreement equations between
   its symbolic types — and solve them by unification, with rigid
   variables frozen into constants so they cannot be instantiated;
4. re-verify: instantiate each atom's predicate type with the solved
   ``η_i`` and re-run the *plain* ``match`` of Definition 13; accept only
   if every result is a typing and all results agree.  (Lemma 1 —
   instantiation propagates through ``match`` — guarantees this step
   succeeds whenever step 3 did, but running it means an "accepted"
   verdict literally exhibits the Definition 16 witnesses.)

The result object records the witnesses (``η_i`` and the final typings),
which the typed-execution experiment (Theorem 6) and the tests inspect.

**Carried witnesses (Theorem 6's construction).**  The proof of Theorem 6
builds the next resolvent's typing from the current one: the selected
goal's ``η`` instantiates the selected clause's body commitments (Lemma
1: instantiation propagates through ``match``), the goals the mgu leaves
alone keep theirs, and Lemma 2 carries the agreement through the mgu.
:meth:`WellTypedChecker.check_resolvent` accepts the parent resolvent's
:class:`ResolventTyping`, the clause's :class:`ClauseTyping` and the mgu,
builds that candidate, and re-runs the plain Definition 13 ``match`` only
on the goals that are new or changed, checking agreement against the
carried ``Var → type`` map.  Nothing is trusted: every goal of an
accepted resolvent has a typing that ``match`` computed under its
committed type, so the verdict exhibits Definition 16 witnesses exactly
as step 4 does.  Whenever the candidate does not verify, the full
four-step check decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lp.clause import Clause, Program, Query
from ..terms.pretty import pretty
from ..terms.substitution import Substitution
from ..terms.term import Struct, Term, Var, fresh_variable, variables_of
from ..terms.unify import unify
from .constraint_match import ConstraintMatcher, CoverConstraint, ShapeEquation
from .declarations import ConstraintSet, DeclarationError
from .infer import CommonTypeInference
from .match import MATCH_BOTTOM, MATCH_FAIL, Matcher, MatchResult
from .predicate_types import PredicateTypeEnv
from .typing import agreeing_union

__all__ = [
    "AtomCheck",
    "ClauseReport",
    "ClauseTyping",
    "ProgramReport",
    "ResolventTyping",
    "WellTypedChecker",
]

_RIGID_PREFIX = "'$rigid"


@dataclass
class AtomCheck:
    """Per-atom evidence gathered during a clause check."""

    atom: Struct
    declared_type: Struct
    working_type: Struct  # declared type with body renaming applied (η_i domain)
    renaming: Dict[Var, Var]  # declared type var -> solvable fresh var ({} for head)
    symbolic_typing: MatchResult = MATCH_BOTTOM
    equations: Tuple[ShapeEquation, ...] = ()
    covers: Tuple[CoverConstraint, ...] = ()
    eta: Optional[Substitution] = None  # solved commitment η_i (None for head)
    committed: Optional[Struct] = None  # type(A_i)η_i, the type re-verified in step 4
    final_typing: Optional[Substitution] = None


class ResolventTyping:
    """The Definition 16 witness of an accepted resolvent, goal by goal.

    ``etas[i]`` is goal ``i``'s commitment ``η_i``, ``committed[i]`` its
    committed type ``type(A_i)η_i`` and ``typings[i]`` the final typing
    ``match(type(A_i)η_i, A_i)``; ``merged`` is the union of the typings,
    which agree (Definition 12).  The typed runner keeps one per SLD
    frame and hands it to the next step's check.
    """

    __slots__ = ("goals", "etas", "committed", "typings", "merged")

    def __init__(
        self,
        goals: Tuple[Struct, ...],
        etas: Tuple[Substitution, ...],
        committed: Tuple[Struct, ...],
        typings: Tuple[Substitution, ...],
        merged: Dict[Var, Term],
    ) -> None:
        self.goals = goals
        self.etas = etas
        self.committed = committed
        self.typings = typings
        self.merged = merged


class ClauseTyping:
    """The body witnesses of an accepted program clause: per body atom the
    variables of its declared type, its commitment ``η_j`` and its
    committed type ``type(B_j)η_j``.  A clause check keeps the head's type
    variables rigid, so ``η_j`` and the committed type may mention them
    (and ``η_j`` leaves out a variable committed to the head variable of
    the same name); the selected goal's ``η`` instantiates them at each
    resolution step."""

    __slots__ = ("variables", "etas", "committed")

    def __init__(
        self,
        variables: Tuple[Tuple[Var, ...], ...],
        etas: Tuple[Substitution, ...],
        committed: Tuple[Struct, ...],
    ) -> None:
        self.variables = variables
        self.etas = etas
        self.committed = committed


@dataclass
class ClauseReport:
    """Verdict for one clause/query, with the Definition 16 witnesses."""

    well_typed: bool
    reason: Optional[str] = None
    atom_checks: List[AtomCheck] = field(default_factory=list)
    has_head: bool = False
    #: The witness of an accepted query or resolvent.
    witness: Optional[ResolventTyping] = None
    #: True iff the verdict came from a carried witness, not the full check.
    carried: bool = False

    def __bool__(self) -> bool:
        return self.well_typed

    @property
    def typings(self) -> List[Substitution]:
        """Final (agreed) typings, one per atom — only when well-typed."""
        return [c.final_typing for c in self.atom_checks if c.final_typing is not None]

    def explain(self) -> str:
        """A human-readable account of the check: per atom, the working
        predicate type, the solved commitment η (body atoms), and the
        resulting variable typing — or, on rejection, how far the check
        got and why it stopped."""
        lines: List[str] = []
        verdict = "well-typed" if self.well_typed else "NOT well-typed"
        lines.append(f"{verdict}" + (f": {self.reason}" if self.reason else ""))
        for index, check in enumerate(self.atom_checks):
            if self.has_head:
                role = "head" if index == 0 else f"goal {index}"
            else:
                role = f"goal {index + 1}"
            lines.append(f"  {role}: {pretty(check.atom)} : {pretty(check.declared_type)}")
            if check.eta is not None and len(check.eta):
                committed = ", ".join(
                    f"{var} := {pretty(value)}" for var, value in sorted(
                        check.eta.items(), key=lambda p: p[0].name
                    )
                )
                lines.append(f"    commits {committed}")
            typing = check.final_typing
            if typing is None and isinstance(check.symbolic_typing, Substitution):
                typing = check.symbolic_typing
            if isinstance(typing, Substitution) and len(typing):
                rendered = ", ".join(
                    f"{var} : {pretty(value)}" for var, value in sorted(
                        typing.items(), key=lambda p: p[0].name
                    )
                )
                lines.append(f"    types {rendered}")
            elif not isinstance(check.symbolic_typing, Substitution):
                lines.append(f"    match returned {check.symbolic_typing!r}")
        return "\n".join(lines)


@dataclass
class ProgramReport:
    """Verdict for a whole program: per-clause reports in program order."""

    clause_reports: List[Tuple[Clause, ClauseReport]] = field(default_factory=list)

    @property
    def well_typed(self) -> bool:
        return all(report.well_typed for _, report in self.clause_reports)

    def __bool__(self) -> bool:
        return self.well_typed

    def failures(self) -> List[Tuple[Clause, ClauseReport]]:
        """The rejected clauses with their reports."""
        return [(c, r) for c, r in self.clause_reports if not r.well_typed]


class WellTypedChecker:
    """Definition 16, made effective via constraint solving."""

    def __init__(self, constraints: ConstraintSet, predicate_types: PredicateTypeEnv) -> None:
        self.constraints = constraints
        self.predicate_types = predicate_types
        self.matcher = Matcher(constraints)
        self.constraint_matcher = ConstraintMatcher(constraints, validate=False)
        self.inference = CommonTypeInference(constraints, self.constraint_matcher)

    # -- public API -------------------------------------------------------------

    def check_clause(self, clause: Clause) -> ClauseReport:
        """Well-typedness of a program clause (head + body)."""
        return self._check(clause.head, clause.body)

    def check_query(self, query: Query) -> ClauseReport:
        """Well-typedness of a negative clause (body only)."""
        return self._check(None, query.goals)

    def check_resolvent(
        self,
        goals: Sequence[Struct],
        parent: Optional[ResolventTyping] = None,
        clause: Optional[ClauseTyping] = None,
        mgu: Optional[Substitution] = None,
    ) -> ClauseReport:
        """Well-typedness of a resolvent (used by typed execution).

        Given the witness of the ``parent`` resolvent, the selected
        ``clause``'s typing and the step's ``mgu``, the witness is first
        carried forward (Theorem 6's construction, see the module
        docstring); the full check runs only when that does not verify.
        """
        goals = tuple(goals)
        if parent is not None and clause is not None and mgu is not None:
            report = self._carry(goals, parent, clause, mgu)
            if report is not None:
                return report
        return self._check(None, goals)

    def clause_typing(self, clause: Clause) -> Optional[ClauseTyping]:
        """The body witnesses of ``clause``, or ``None`` if it is not
        well-typed."""
        report = self.check_clause(clause)
        if not report.well_typed:
            return None
        body = report.atom_checks[1:]
        return ClauseTyping(
            tuple(tuple(check.renaming) for check in body),
            tuple(check.eta for check in body),  # type: ignore[misc]
            tuple(check.committed for check in body),  # type: ignore[misc]
        )

    def check_program(self, program: Program) -> ProgramReport:
        """Check every clause of ``program``."""
        report = ProgramReport()
        for clause in program:
            report.clause_reports.append((clause, self.check_clause(clause)))
        return report

    # -- the algorithm ------------------------------------------------------------

    def _check(self, head: Optional[Struct], body: Tuple[Struct, ...]) -> ClauseReport:
        report = ClauseReport(well_typed=False, has_head=head is not None)
        solvable: Set[Var] = set()
        rigid: Set[Var] = set()

        # Step 1+2: per-atom constraint matching.
        atoms: List[Tuple[Struct, bool]] = []
        if head is not None:
            atoms.append((head, True))
        atoms.extend((goal, False) for goal in body)
        for atom, is_head in atoms:
            try:
                declared = self.predicate_types.type_of(atom)
            except DeclarationError as error:
                report.reason = str(error)
                return report
            if is_head:
                working = declared
                renaming: Dict[Var, Var] = {}
                rigid |= variables_of(declared)
            else:
                renaming = {
                    var: fresh_variable("_E") for var in variables_of(declared)
                }
                for fresh in renaming.values():
                    solvable.add(fresh)
                working_term = Substitution(dict(renaming)).apply(declared)
                assert isinstance(working_term, Struct)
                working = working_term
            check = AtomCheck(atom, declared, working, renaming)
            outcome = self.constraint_matcher.match(working, atom, solvable)
            check.symbolic_typing = outcome.result
            check.equations = outcome.equations
            check.covers = outcome.covers
            report.atom_checks.append(check)
            if outcome.result is MATCH_FAIL:
                report.reason = (
                    f"atom {pretty(atom)} has no typing under {pretty(working)} (fail)"
                )
                return report
            if outcome.result is MATCH_BOTTOM:
                report.reason = (
                    f"match cannot determine a typing for {pretty(atom)} "
                    f"under {pretty(working)} (⊥)"
                )
                return report

        # Step 3: collect and solve the equations.
        equations: List[Tuple[Term, Term]] = []
        for check in report.atom_checks:
            equations.extend(check.equations)
        occurrences: Dict[Var, List[Tuple[Struct, Term]]] = {}
        for check in report.atom_checks:
            typing = check.symbolic_typing
            assert isinstance(typing, Substitution)
            for var, type_term in typing.items():
                occurrences.setdefault(var, []).append((check.atom, type_term))
        for var, typed_at in occurrences.items():
            for (_, first), (_, second) in zip(typed_at, typed_at[1:]):
                equations.append((first, second))
        solution = self._solve(equations, rigid)
        if solution is None:
            clashes = self._describe_clashes(occurrences)
            report.reason = (
                "type-variable constraints are unsolvable"
                + (f": {clashes}" if clashes else "")
            )
            return report

        # Step 3b: resolve the cover constraints.  A committed variable
        # still free after unification but required to cover ground terms
        # gets a common type inferred (name-based union, see
        # ``repro.core.infer``); an already-bound one is verified.
        covers = [cover for check in report.atom_checks for cover in check.covers]
        solution, failure = self._resolve_covers(covers, solution, rigid)
        if failure is not None:
            report.reason = failure
            return report

        # Step 4: re-verify with the plain Definition 13 match.
        final_typings: List[Substitution] = []
        for check in report.atom_checks:
            eta = Substitution(
                {
                    declared_var: solution.apply(fresh)
                    for declared_var, fresh in check.renaming.items()
                }
            )
            check.eta = eta
            committed = eta.apply(check.declared_type)
            assert isinstance(committed, Struct)
            check.committed = committed
            result = self.matcher.match(committed, check.atom)
            if not isinstance(result, Substitution):
                report.reason = (
                    f"re-verification failed for {pretty(check.atom)} under "
                    f"{pretty(committed)}: match returned {result!r}"
                )
                return report
            check.final_typing = result
            final_typings.append(result)
        merged = agreeing_union(final_typings)
        if merged is None:
            report.reason = "final typings do not agree"
            return report
        report.well_typed = True
        if head is None:
            checks = report.atom_checks
            report.witness = ResolventTyping(
                body,
                tuple(check.eta for check in checks),  # type: ignore[misc]
                tuple(check.committed for check in checks),  # type: ignore[misc]
                tuple(final_typings),
                merged,
            )
        return report

    def _carry(
        self,
        goals: Tuple[Struct, ...],
        parent: ResolventTyping,
        clause: ClauseTyping,
        mgu: Substitution,
    ) -> Optional[ClauseReport]:
        """Theorem 6's construction, verified: the accepted report, or
        ``None`` when the carried witness does not check out.

        ``goals`` is ``(B_1..B_k, A_2..A_n)θ`` for the parent ``A_1..A_n``
        and a clause with ``k`` body atoms.  A new goal ``B_jθ`` is matched
        under the clause's committed type instantiated by the selected
        goal's ``η_1``; a parent goal keeps its committed type and, when
        ``θ`` left it the same object, its typing."""
        body = len(clause.committed)
        parent_goals = parent.goals
        if len(goals) != body + len(parent_goals) - 1:
            return None
        merged = dict(parent.merged)
        for var in mgu:  # bound variables no longer occur in the resolvent
            merged.pop(var, None)
        match = self.matcher.match
        selected = parent.etas[0]
        etas: List[Substitution] = []
        committed: List[Struct] = []
        typings: List[Substitution] = []
        for index in range(body):
            eta = clause.etas[index]
            type_term = clause.committed[index]
            if len(selected):
                eta = Substitution(
                    {
                        var: selected.apply(eta.get(var, var))  # type: ignore[arg-type]
                        for var in clause.variables[index]
                    }
                )
                type_term = selected.apply(type_term)  # type: ignore[assignment]
            typing = match(type_term, goals[index])
            if not _verified(typing, merged):
                return None
            etas.append(eta)
            committed.append(type_term)
            typings.append(typing)
        for index in range(1, len(parent_goals)):
            goal = goals[body + index - 1]
            type_term = parent.committed[index]
            typing = parent.typings[index]
            if goal is not parent_goals[index]:
                typing = match(type_term, goal)
                if not _verified(typing, merged):
                    return None
            etas.append(parent.etas[index])
            committed.append(type_term)
            typings.append(typing)
        witness = ResolventTyping(
            goals, tuple(etas), tuple(committed), tuple(typings), merged
        )
        return ClauseReport(well_typed=True, witness=witness, carried=True)

    # -- cover-constraint resolution ---------------------------------------------------

    def _resolve_covers(
        self,
        covers: Sequence[CoverConstraint],
        solution: Substitution,
        rigid: Set[Var],
    ) -> Tuple[Substitution, Optional[str]]:
        """Infer or verify the covers collected by the constraint match.

        Returns the (possibly extended) solution and an error message, or
        ``None`` on success.
        """
        if not covers:
            return solution, None
        # Group the covered terms by the representative of each variable
        # under the current solution.
        free_groups: Dict[Var, List[Term]] = {}
        bound_targets: List[Tuple[Term, Term]] = []
        for var, term in covers:
            representative = solution.apply(var)
            if isinstance(representative, Var):
                if representative in rigid:
                    return solution, (
                        f"head type variable {representative} would have to be "
                        f"committed to cover {pretty(term)}"
                    )
                free_groups.setdefault(representative, []).append(term)
            else:
                bound_targets.append((representative, term))
        if free_groups:
            inferred_bindings: Dict[Var, Term] = {}
            for var, terms in free_groups.items():
                inferred = self.inference.infer(terms)
                if inferred is None:
                    listing = ", ".join(pretty(t) for t in terms)
                    return solution, (
                        f"no common type found covering {{{listing}}} for a "
                        "committed type variable"
                    )
                inferred_bindings[var] = inferred
            solution = solution.compose(Substitution(inferred_bindings))
        for target, term in bound_targets:
            resolved = solution.apply(target)
            result = self.matcher.match(resolved, term)
            if not isinstance(result, Substitution):
                return solution, (
                    f"committed type {pretty(resolved)} does not cover "
                    f"{pretty(term)} ({result!r})"
                )
        return solution, None

    # -- equation solving -----------------------------------------------------------

    def _solve(
        self, equations: List[Tuple[Term, Term]], rigid: Set[Var]
    ) -> Optional[Substitution]:
        """Unify all equations with ``rigid`` variables treated as constants.

        Rigid variables are temporarily replaced by reserved constants, so
        unification can bind only solvable variables; afterwards the
        constants are melted back into the original variables so solved
        types may still mention the head's type variables.
        """
        rigid_to_const = {var: Struct(f"{_RIGID_PREFIX}:{var.name}", ()) for var in rigid}
        const_to_rigid = {const: var for var, const in rigid_to_const.items()}
        hardening = Substitution(dict(rigid_to_const))

        current = Substitution()
        for left, right in equations:
            theta = unify(
                current.apply(hardening.apply(left)),
                current.apply(hardening.apply(right)),
            )
            if theta is None:
                return None
            current = current.compose(theta)

        def melt(term: Term) -> Term:
            if isinstance(term, Var):
                return term
            if term in const_to_rigid:
                return const_to_rigid[term]
            if not term.args:
                return term
            return Struct(term.functor, tuple(melt(a) for a in term.args))

        return Substitution({var: melt(value) for var, value in current.items()})

    @staticmethod
    def _describe_clashes(
        occurrences: Dict[Var, List[Tuple[Struct, Term]]]
    ) -> str:
        """Human-readable summary of variables typed differently by
        different atoms (best-effort, for diagnostics only)."""
        fragments: List[str] = []
        for var, typed_at in occurrences.items():
            distinct = []
            for _, type_term in typed_at:
                if type_term not in distinct:
                    distinct.append(type_term)
            if len(distinct) > 1:
                rendered = " vs ".join(pretty(t) for t in distinct)
                fragments.append(f"{var} appears in type contexts {rendered}")
        return "; ".join(fragments)


def _verified(result: MatchResult, merged: Dict[Var, Term]) -> bool:
    """True iff ``result`` is a typing that agrees with ``merged``, which
    it then joins."""
    return isinstance(result, Substitution) and agreeing_union((result,), merged) is not None
