"""Whole-file type checker: the artifact Section 7 says the authors were
building ("We are currently implementing a type checker that determines
whether a program satisfies these conditions").

Pipeline, in source order over a parsed :class:`~repro.lang.ast.SourceFile`:

1. **Arity inference.**  ``FUNC``/``TYPE`` declarations introduce names
   without arities (as in the paper's examples); each name's arity is
   inferred from its uses across the whole file and must be consistent.
   Unused symbols default to arity 0.
2. **Declaration processing.**  Build the :class:`SymbolTable`, the
   :class:`ConstraintSet` (with the predefined ``+``), the
   :class:`PredicateTypeEnv` and the :class:`ModeEnv`, diagnosing
   malformed items instead of crashing.
3. **Restriction checks.**  Uniform polymorphism (Definition 6) and
   guardedness (Definition 9); violations are errors because the
   well-typedness algorithm is only defined under them.
4. **Clause/query checks.**  Every program clause and query goes through
   the Definition 16 checker; rejections become positioned errors carrying
   the checker's reason.  If mode declarations are present, the Section 7
   mode checker runs too.

The result object bundles everything later stages need (constraint set,
predicate types, program, queries, a ready :class:`WellTypedChecker`) so
callers can go straight from source text to typed execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Union

from ..core.builtins import declare_builtins, uses_builtin_goals
from ..core.declarations import ConstraintSet, DeclarationError, SubtypeConstraint, SymbolTable
from ..obs import METRICS, TRACER
from ..core.moded_welltyped import ModedWellTypedChecker
from ..core.modes import ModeEnv
from ..core.predicate_types import PredicateTypeEnv
from ..core.restrictions import non_uniform_constraints, unguarded_constructors
from ..core.shared_memo import SHARED_MEMO
from ..core.subtype import SubtypeEngine
from ..core.welltyped import WellTypedChecker
from ..lang.ast import (
    ClauseDecl,
    ConstraintDecl,
    FuncDecl,
    ModeDecl,
    Position,
    PredDecl,
    QueryDecl,
    SourceFile,
    TypeDecl,
)
from ..lang.lexer import LexError
from ..lang.parser import ParseError, parse_file, syntax_error_site
from ..lp.clause import Clause, Program, Query
from ..terms.pretty import renumber_generated
from ..terms.term import Struct, Term
from .cancel import CancelToken, CheckCancelled, checkpoint
from .diagnostics import DiagnosticBag

__all__ = [
    "CheckedModule",
    "ClauseVerdict",
    "CancelToken",
    "CheckCancelled",
    "check_source",
    "check_text",
]


class ClauseVerdict(NamedTuple):
    """Step 4's verdict on one program clause — what is kept of its report."""

    well_typed: bool
    via: Optional[str]  # "strict" | "directional"
    reason: Optional[str]


@dataclass
class CheckedModule:
    """Everything produced by checking one source file."""

    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    symbols: Optional[SymbolTable] = None
    constraints: Optional[ConstraintSet] = None
    predicate_types: Optional[PredicateTypeEnv] = None
    modes: Optional[ModeEnv] = None
    program: Program = field(default_factory=Program)
    queries: List[Query] = field(default_factory=list)
    checker: Optional[WellTypedChecker] = None
    moded_checker: Optional[ModedWellTypedChecker] = None
    #: Source positions parallel to ``program`` / ``queries`` — the
    #: spans typed execution (``--typed-run``) anchors its abort
    #: diagnostics to.  Entries are ``None`` for programmatically built
    #: modules.
    clause_positions: List[Optional["Position"]] = field(default_factory=list)
    query_positions: List[Optional["Position"]] = field(default_factory=list)
    #: Step 4's verdict per program clause, parallel to ``program``:
    #: ``None`` for a constrained clause (checked dynamically).  Empty when
    #: an earlier step failed.
    clause_verdicts: List[Optional[ClauseVerdict]] = field(default_factory=list)
    #: One subtype engine for the whole module: every pipeline stage that
    #: issues ``⪰_C`` goals (moded checking, mode analysis, witness audits,
    #: typed/constrained execution) shares this instance, so its ground
    #: memo table is populated once per file rather than once per stage.
    engine: Optional[SubtypeEngine] = None

    @property
    def ok(self) -> bool:
        """True iff no errors were diagnosed."""
        return not self.diagnostics.has_errors


def _infer_arities(source: SourceFile, bag: DiagnosticBag) -> Dict[str, int]:
    """Infer each declared symbol's arity from its uses (paper style)."""
    uses: Dict[str, Set[int]] = {}
    # Interned terms share subtrees across items: a node seen once has
    # had its whole subtree recorded.
    seen: Set[Struct] = set()

    def record(term: Term) -> None:
        stack = [term]
        while stack:
            sub = stack.pop()
            if isinstance(sub, Struct) and sub not in seen:
                seen.add(sub)
                uses.setdefault(sub.functor, set()).add(len(sub.args))
                stack.extend(sub.args)

    for item in source.items:
        if isinstance(item, ConstraintDecl):
            record(item.lhs)
            record(item.rhs)
        elif isinstance(item, PredDecl):
            for arg in item.head.args:
                record(arg)
        elif isinstance(item, ClauseDecl):
            for atom in (item.head,) + item.body:
                for arg in atom.args:
                    record(arg)
        elif isinstance(item, QueryDecl):
            for atom in item.body:
                for arg in atom.args:
                    record(arg)

    arities: Dict[str, int] = {}
    for item in source.items:
        if isinstance(item, (FuncDecl, TypeDecl)):
            for name in item.names:
                observed = uses.get(name, set())
                if len(observed) > 1:
                    bag.error(
                        f"symbol {name} used with multiple arities "
                        f"{sorted(observed)}",
                        item.position,
                    )
                    continue
                arities[name] = next(iter(observed)) if observed else 0
    return arities


def _is_constraint_goal(goal: Struct) -> bool:
    """True for Section 7 typed-unification constraints ``':'(t, τ)``."""
    return goal.functor == ":" and len(goal.args) == 2


def check_source(
    source: SourceFile, cancel: Optional[CancelToken] = None
) -> CheckedModule:
    """Run the full pipeline over a parsed source file.

    With ``repro.obs`` enabled the whole run is timed
    (``checker.check_source``) and every Definition 16 clause/query check
    gets its own timing sample (``checker.clause_check`` /
    ``checker.query_check``) and trace span, so per-clause cost is
    visible in ``tlp-check --stats`` output.

    ``cancel`` threads a :class:`CancelToken` through the pipeline: the
    checker calls ``cancel.checkpoint()`` before every Definition 16
    clause/query check (and every Section 7 mode check), so a token
    cancelled mid-run raises :class:`CheckCancelled` within one clause
    boundary of the request.
    """
    with METRICS.time("checker.check_source"):
        module = _check_source(source, cancel)
    if METRICS.enabled:
        METRICS.inc("checker.modules_checked")
        if module.diagnostics.has_errors:
            METRICS.inc("checker.modules_rejected")
    return module


def _check_source(
    source: SourceFile, cancel: Optional[CancelToken] = None
) -> CheckedModule:
    module = CheckedModule()
    bag = module.diagnostics

    # Step 1: arities.
    arities = _infer_arities(source, bag)

    # Step 2: symbol table.
    symbols = SymbolTable()
    for item in source.items:
        names_kind = None
        if isinstance(item, FuncDecl):
            names_kind = "function"
        elif isinstance(item, TypeDecl):
            names_kind = "type"
        if names_kind is None:
            continue
        for name in item.names:
            if name not in arities:
                continue  # arity error already diagnosed
            try:
                if names_kind == "function":
                    symbols.declare_function(name, arities[name])
                else:
                    symbols.declare_type_constructor(name, arities[name])
            except DeclarationError as error:
                bag.error(str(error), item.position)
    module.symbols = symbols

    # Step 2b: constraints.
    constraints = ConstraintSet(symbols)
    for item in source.of_kind(ConstraintDecl):
        assert isinstance(item, ConstraintDecl)
        if not isinstance(item.lhs, Struct):
            bag.error("constraint left-hand side must be c(τ1,...,τn)", item.position)
            continue
        try:
            constraints.add(SubtypeConstraint(item.lhs, item.rhs))
        except DeclarationError as error:
            bag.error(str(error), item.position)
    module.constraints = constraints

    # Step 2c: predicate types and modes.  The Section 7 inline form
    # ``PRED p(OUT nat).`` is sugar for ``PRED`` + ``MODE``: the inline
    # tuple is declared into the same ModeEnv, so a conflicting
    # standalone ``MODE`` line (either order) is a positioned error.
    modes = ModeEnv()
    predicate_types = PredicateTypeEnv(constraints)
    for item in source.of_kind(PredDecl):
        assert isinstance(item, PredDecl)
        try:
            predicate_types.declare(item.head)
        except DeclarationError as error:
            bag.error(str(error), item.position)
        if item.modes is not None:
            try:
                modes.declare(item.head.functor, item.modes)
            except DeclarationError as error:
                bag.error(str(error), item.position)
    module.predicate_types = predicate_types

    for item in source.of_kind(ModeDecl):
        assert isinstance(item, ModeDecl)
        try:
            modes.declare(item.name, item.modes)
        except DeclarationError as error:
            bag.error(str(error), item.position)
    module.modes = modes

    # Step 2c-bis: built-in constraint predicate signatures (typed-CLP
    # extension).  The lint layer reports a user declaration that
    # shadows one.  A numeric type declared at a non-zero arity cannot
    # type them: that is reported at the first built-in call.
    caller = next(
        (
            item
            for item in source.items
            if isinstance(item, (ClauseDecl, QueryDecl))
            and uses_builtin_goals(item.body)
        ),
        None,
    )
    if caller is not None:
        try:
            declare_builtins(
                predicate_types, modes, symbols.type_constructors, caller.body
            )
        except DeclarationError as error:
            bag.error(
                f"built-in constraint predicates cannot be typed: {error}",
                caller.position,
            )

    # Step 2d: clauses and queries (object-level syntax checks).
    checked_terms: Set[Struct] = set()
    for item in source.of_kind(ClauseDecl):
        assert isinstance(item, ClauseDecl)
        ok = True
        for atom in (item.head,) + item.body:
            if atom is not item.head and _is_constraint_goal(atom):
                term_side, type_side = atom.args
                try:
                    constraints.symbols.check_object_term(term_side, checked_terms)
                    constraints.symbols.check_type(type_side)
                except DeclarationError as error:
                    bag.error(str(error), item.position)
                    ok = False
                continue
            for arg in atom.args:
                try:
                    constraints.symbols.check_object_term(arg, checked_terms)
                except DeclarationError as error:
                    bag.error(str(error), item.position)
                    ok = False
        if ok:
            module.program.add(Clause(item.head, item.body))
            module.clause_positions.append(item.position)
    for item in source.of_kind(QueryDecl):
        assert isinstance(item, QueryDecl)
        ok = True
        for goal in item.body:
            if goal.functor == ":" and len(goal.args) == 2:
                # Section 7 typed-unification constraint: object term on
                # the left (variables allowed), a type on the right.
                term_side, type_side = goal.args
                try:
                    constraints.symbols.check_object_term(term_side, checked_terms)
                    constraints.symbols.check_type(type_side)
                except DeclarationError as error:
                    bag.error(str(error), item.position)
                    ok = False
                continue
            for arg in goal.args:
                try:
                    constraints.symbols.check_object_term(arg, checked_terms)
                except DeclarationError as error:
                    bag.error(str(error), item.position)
                    ok = False
        if ok:
            module.queries.append(Query(item.body))
            module.query_positions.append(item.position)

    # Step 3: restrictions.
    offenders = non_uniform_constraints(constraints)
    for constraint in offenders:
        bag.error(
            f"constraint is not uniform polymorphic (Definition 6): {constraint}"
        )
    cyclic = unguarded_constructors(constraints)
    if cyclic:
        bag.error(
            "declarations are not guarded (Definition 9): "
            f"self-dependent constructors {', '.join(cyclic)}"
        )
    if bag.has_errors:
        return module

    # Step 4: well-typedness of every clause and query.  With MODE
    # declarations present the [DH88]-style directional fallback applies
    # (``repro.core.moded_welltyped``); otherwise strict Definition 16.
    checker = WellTypedChecker(constraints, predicate_types)
    module.checker = checker
    # Restrictions were just validated (step 3), so the module-wide shared
    # engine skips re-validation.  The engine also attaches to the
    # process-wide subtype memo: modules over the same declaration scope
    # (batch corpora with a shared prelude, daemon re-checks) start with
    # every verdict earlier engines already derived.
    engine = SubtypeEngine(constraints, validate=False, shared_memo=SHARED_MEMO)
    module.engine = engine
    moded: Optional[ModedWellTypedChecker] = None
    if len(modes):
        moded = ModedWellTypedChecker(
            constraints, predicate_types, modes, engine=engine, strict=checker
        )
        module.moded_checker = moded
    clause_items = source.of_kind(ClauseDecl)
    for clause, item in zip(module.program, clause_items):
        checkpoint(cancel)
        if any(_is_constraint_goal(goal) for goal in clause.body):
            module.clause_verdicts.append(None)
            continue  # constrained-model clause: checked dynamically
        detail = str(clause) if TRACER.enabled else ""
        with METRICS.time("checker.clause_check"), TRACER.span("check_clause", detail):
            report = moded.check_clause(clause) if moded else checker.check_clause(clause)
        module.clause_verdicts.append(
            ClauseVerdict(report.well_typed, getattr(report, "via", "strict"), report.reason)
        )
        METRICS.inc("checker.clauses_checked")
        if not report.well_typed:
            METRICS.inc("checker.clauses_rejected")
            bag.error(
                _stable_names(f"clause is not well-typed: {clause} — {report.reason}", clause),
                item.position,
            )
    query_items = source.of_kind(QueryDecl)
    for query, item in zip(module.queries, query_items):
        checkpoint(cancel)
        if any(_is_constraint_goal(goal) for goal in query.goals):
            # A query with ``X : τ`` constraints opts into the
            # typed-unification execution model (Section 7): Definition 16
            # does not apply — well-typedness is enforced dynamically by
            # the constraint store of the constrained interpreter.
            continue
        detail = str(query) if TRACER.enabled else ""
        with METRICS.time("checker.query_check"), TRACER.span("check_query", detail):
            report = moded.check_query(query) if moded else checker.check_query(query)
        METRICS.inc("checker.queries_checked")
        if not report.well_typed:
            METRICS.inc("checker.queries_rejected")
            bag.error(
                _stable_names(f"query is not well-typed: {query} — {report.reason}", query),
                item.position,
            )

    # Step 4b: modes, when declared.
    if moded is not None:
        mode_checker = moded.mode_checker
        for clause, item in zip(module.program, clause_items):
            checkpoint(cancel)
            if any(_is_constraint_goal(goal) for goal in clause.body):
                continue
            mode_report = mode_checker.check_clause(clause)
            for violation in mode_report.violations:
                bag.error(f"mode violation: {violation}", item.position)
        for query, item in zip(module.queries, query_items):
            if any(_is_constraint_goal(goal) for goal in query.goals):
                continue  # constrained queries live outside the mode system
            mode_report = mode_checker.check_query(query)
            for violation in mode_report.violations:
                bag.error(f"mode violation: {violation}", item.position)
    return module


def _stable_names(message: str, item: Union[Clause, Query]) -> str:
    """A rejection message whose generated variable names (``_T5``,
    ``_E12``) are renumbered by first appearance, leaving the names the
    user wrote in ``item`` alone: the same file checks to the same text
    whatever the process checked before it."""
    return renumber_generated(message, {var.name for var in item.variables()})


def check_text(text: str, cancel: Optional[CancelToken] = None) -> CheckedModule:
    """Parse and check source ``text`` (parse errors become diagnostics)."""
    module = CheckedModule()
    try:
        with METRICS.time("checker.parse"):
            source = parse_file(text)
    except (ParseError, LexError) as error:
        module.diagnostics.error(*syntax_error_site(error))
        return module
    checkpoint(cancel)
    return check_source(source, cancel)
