"""Shared state for one lint run over one parsed source file.

The context is built **once** per file and handed to every rule:
declaration indices (who declared what, where), inferred arities, the
item lists in source order, and — lazily — the semantic objects the
dataflow passes need (a :class:`~repro.core.declarations.ConstraintSet`
and a :class:`~repro.core.subtype.SubtypeEngine`).  The lazy pieces are
*best-effort*: the linter runs before the type checker, on programs the
checker may reject, so every construction failure degrades to "that
analysis is skipped" rather than an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..checker.diagnostics import DiagnosticBag, FixIt, Severity
from ..core.declarations import ConstraintSet, DeclarationError, SubtypeConstraint, SymbolTable
from ..core.restrictions import is_guarded, is_uniform_polymorphic
from ..core.shared_memo import SHARED_MEMO
from ..core.subtype import SubtypeEngine
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
from ..terms.pretty import UNION_TYPE
from ..terms.term import Struct, Term

__all__ = ["LintContext"]

_Indicator = Tuple[str, int]


def _is_constraint_goal(goal: Struct) -> bool:
    """Section 7 typed-unification goals ``':'(t, τ)`` (not predicates)."""
    return goal.functor == ":" and len(goal.args) == 2


@dataclass
class LintContext:
    """Everything a rule's check function can see."""

    source: SourceFile
    path: str = "<text>"
    bag: DiagnosticBag = field(default_factory=DiagnosticBag)

    # Declaration indices, filled by ``build``.
    func_decls: Dict[str, Position] = field(default_factory=dict)
    type_decls: Dict[str, Position] = field(default_factory=dict)
    pred_decls: Dict[_Indicator, PredDecl] = field(default_factory=dict)
    pred_names: Dict[str, List[int]] = field(default_factory=dict)
    mode_decls: Dict[_Indicator, ModeDecl] = field(default_factory=dict)
    #: Indicators whose entry in ``mode_decls`` was synthesized from the
    #: §7 inline form ``PRED p(OUT nat).`` — fix-its that rewrite the
    #: declaration must rewrite the PRED line, not emit a MODE line.
    inline_mode_decls: Set[_Indicator] = field(default_factory=set)
    arities: Dict[str, Set[int]] = field(default_factory=dict)
    constraint_items: List[ConstraintDecl] = field(default_factory=list)
    clause_items: List[ClauseDecl] = field(default_factory=list)
    query_items: List[QueryDecl] = field(default_factory=list)

    # Lazy semantic layer (None until requested, False-y on failure).
    _constraints: Optional[ConstraintSet] = field(default=None, repr=False)
    _constraints_failed: bool = field(default=False, repr=False)
    _engine: Optional[SubtypeEngine] = field(default=None, repr=False)
    _engine_failed: bool = field(default=False, repr=False)
    _inference: Optional[object] = field(default=None, repr=False)
    _inference_failed: bool = field(default=False, repr=False)
    _mode_inference: Optional[object] = field(default=None, repr=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, source: SourceFile, path: str = "<text>") -> "LintContext":
        ctx = cls(source=source, path=path)
        for item in source.items:
            if isinstance(item, FuncDecl):
                for name in item.names:
                    ctx.func_decls.setdefault(name, item.position)
            elif isinstance(item, TypeDecl):
                for name in item.names:
                    ctx.type_decls.setdefault(name, item.position)
            elif isinstance(item, PredDecl):
                indicator = item.head.indicator
                ctx.pred_decls.setdefault(indicator, item)
                ctx.pred_names.setdefault(item.head.functor, []).append(
                    len(item.head.args)
                )
                if item.modes is not None:
                    # Inline modes are sugar for a MODE declaration; the
                    # synthesized item points at the PRED line.
                    if indicator not in ctx.mode_decls:
                        ctx.mode_decls[indicator] = ModeDecl(
                            item.head.functor, item.modes, item.position
                        )
                        ctx.inline_mode_decls.add(indicator)
            elif isinstance(item, ModeDecl):
                ctx.mode_decls.setdefault((item.name, len(item.modes)), item)
            elif isinstance(item, ConstraintDecl):
                ctx.constraint_items.append(item)
            elif isinstance(item, ClauseDecl):
                ctx.clause_items.append(item)
            elif isinstance(item, QueryDecl):
                ctx.query_items.append(item)
        ctx._record_arities()
        return ctx

    def _record_arities(self) -> None:
        # Interned terms share subtrees across items: a node seen once has
        # had its whole subtree recorded.
        seen: Set[Struct] = set()

        def record(term: Term) -> None:
            stack = [term]
            while stack:
                sub = stack.pop()
                if isinstance(sub, Struct) and sub not in seen:
                    seen.add(sub)
                    self.arities.setdefault(sub.functor, set()).add(len(sub.args))
                    stack.extend(sub.args)

        for item in self.constraint_items:
            record(item.lhs)
            record(item.rhs)
        for indicator, pred in self.pred_decls.items():
            for arg in pred.head.args:
                record(arg)
        for clause in self.clause_items:
            for atom in (clause.head,) + clause.body:
                for arg in atom.args:
                    record(arg)
        for query in self.query_items:
            for goal in query.body:
                for arg in goal.args:
                    record(arg)

    # -- views ---------------------------------------------------------------

    def is_type_name(self, name: str) -> bool:
        return name in self.type_decls or name == UNION_TYPE

    def is_func_name(self, name: str) -> bool:
        return name in self.func_decls

    def predicate_goals(self):
        """Every (owner item, goal atom, is_head) triple in source order,
        skipping Section 7 ``':'`` constraint goals."""
        for clause in self.clause_items:
            yield clause, clause.head, True
            for goal in clause.body:
                if not _is_constraint_goal(goal):
                    yield clause, goal, False
        for query in self.query_items:
            for goal in query.body:
                if not _is_constraint_goal(goal):
                    yield query, goal, False

    # -- the lazy semantic layer ---------------------------------------------

    @property
    def constraints(self) -> Optional[ConstraintSet]:
        """A best-effort constraint set (None when it cannot be built).

        Malformed constraints are *skipped* (the checker reports them);
        the set carries everything well-formed so downstream analyses
        see as much of the program as possible.
        """
        if self._constraints is None and not self._constraints_failed:
            try:
                symbols = SymbolTable()
                for name, position in self.func_decls.items():
                    observed = self.arities.get(name, set())
                    if len(observed) > 1:
                        continue
                    symbols.declare_function(
                        name, next(iter(observed)) if observed else 0
                    )
                for name, position in self.type_decls.items():
                    observed = self.arities.get(name, set())
                    if len(observed) > 1:
                        continue
                    symbols.declare_type_constructor(
                        name, next(iter(observed)) if observed else 0
                    )
                constraints = ConstraintSet(symbols)
                for item in self.constraint_items:
                    if not isinstance(item.lhs, Struct):
                        continue
                    try:
                        constraints.add(SubtypeConstraint(item.lhs, item.rhs))
                    except DeclarationError:
                        continue
                self._constraints = constraints
            except DeclarationError:
                self._constraints_failed = True
        return self._constraints

    @property
    def engine(self) -> Optional[SubtypeEngine]:
        """A deterministic subtype engine, or None when the constraint
        set is absent, non-uniform, or unguarded (the engine's
        termination guarantee — Theorems 1-3 — needs both).  Like the
        checker frontend's engine it attaches to the process-wide subtype
        memo, so files over one declaration scope share verdicts."""
        if self._engine is None and not self._engine_failed:
            constraints = self.constraints
            if (
                constraints is None
                or not is_uniform_polymorphic(constraints)
                or not is_guarded(constraints)
            ):
                self._engine_failed = True
                return None
            self._engine = SubtypeEngine(
                constraints, validate=False, shared_memo=SHARED_MEMO
            )
        return self._engine

    @property
    def inference(self):
        """Whole-file success-set inference
        (:class:`~repro.analysis.absint.ProgramInference`), or None when
        the engine is unavailable or the fixpoint cannot be built.  Like
        the other lazy pieces this is best-effort: the TLP4xx rules and
        the reconstruction-backed fix-its all degrade to silence."""
        if self._inference is None and not self._inference_failed:
            if self.engine is None:
                self._inference_failed = True
                return None
            from .absint import ProgramInference

            try:
                self._inference = ProgramInference.from_context(self)
            except (DeclarationError, RecursionError, ValueError):
                self._inference_failed = True
        return self._inference

    @property
    def mode_inference(self):
        """Declaration-aware producer positions for every predicate
        (:class:`~repro.analysis.flow.ModeInference`), shared by TLP301
        and the TLP6xx solver."""
        if self._mode_inference is None:
            from .flow import ModeInference

            self._mode_inference = ModeInference(self)
        return self._mode_inference

    # -- reporting -----------------------------------------------------------

    def report(
        self,
        rule,
        message: str,
        position: Optional[Position] = None,
        fixits: Tuple[FixIt, ...] = (),
    ) -> None:
        """Emit one finding under ``rule``'s code and severity."""
        if rule.severity == Severity.ERROR:
            self.bag.error(message, position, code=rule.code, fixits=fixits)
        elif rule.severity == Severity.WARNING:
            self.bag.warning(message, position, code=rule.code, fixits=fixits)
        else:
            self.bag.note(message, position, code=rule.code, fixits=fixits)
