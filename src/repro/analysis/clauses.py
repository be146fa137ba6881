"""Clause/query analyses: rules ``TLP201``-``TLP204``.

These passes walk program clauses and queries (the object level) against
the declaration indices — they are the "does the program even fit its
declarations" checks that run before any Definition 16 typing:

* **TLP201** goals on predicates with no ``PRED`` declaration — the set
  ``D`` must assign a type to every predicate (Definition 14);
* **TLP202** arity mismatches: symbols used at several arities, and
  calls whose arity disagrees with the ``PRED`` declaration;
* **TLP203** singleton variables — almost always a typo in logic
  programs (a misspelt variable silently becomes unconstrained);
* **TLP204** undeclared function symbols in object terms (and type
  constructors smuggled into object positions).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set, Tuple

from ..checker.diagnostics import FixIt, Severity
from ..core.builtins import is_builtin_indicator
from ..lang.ast import ClauseDecl, QueryDecl
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, subterms, variables_of
from .context import LintContext, _is_constraint_goal
from .registry import register


@register(
    "TLP201",
    "undeclared-predicate",
    Severity.ERROR,
    "predicate has no PRED declaration: the checker cannot assign "
    "type(A) to its atoms",
    "§6, Definitions 14-15",
)
def check_undeclared_predicates(ctx: LintContext) -> None:
    reported: Set[Tuple[str, int]] = set()
    for owner, goal, _is_head in ctx.predicate_goals():
        indicator = goal.indicator
        if indicator in ctx.pred_decls or indicator in reported:
            continue
        if is_builtin_indicator(*indicator):
            continue  # built-in constraint predicates carry their own signatures
        if goal.functor in ctx.pred_names:
            continue  # declared at another arity: TLP202's business
        reported.add(indicator)
        name, arity = indicator
        fixit = _declaration_fixit(ctx, indicator)
        ctx.report(
            check_undeclared_predicates._rule,
            f"no PRED declaration for {name}/{arity}: declare its "
            f"argument types before using it",
            owner.position,
            fixits=(fixit,),
        )


def _declaration_fixit(ctx: LintContext, indicator: Tuple[str, int]) -> FixIt:
    """The TLP201 fix-it: the *reconstructed* declaration when the
    success-set inference produced a checker-validated one for this
    predicate, else the generic placeholder."""
    inference = ctx.inference
    if inference is not None:
        reconstruction = inference.reconstructions().get(indicator)
        if reconstruction is not None and reconstruction.defined:
            if reconstruction.validated:
                return FixIt(
                    f"declare `{reconstruction.line}` (inferred from the "
                    f"predicate's clauses and accepted by the checker)",
                    replacement=reconstruction.line,
                )
            return FixIt(
                f"declare it; the inferred success set suggests "
                f"`{reconstruction.line}` as a starting point",
                replacement=reconstruction.line,
            )
    name, arity = indicator
    placeholder = ", ".join(f"T{i + 1}" for i in range(arity))
    suggestion = f"PRED {name}({placeholder})." if arity else f"PRED {name}."
    return FixIt(f"add `{suggestion}` with the intended types")


@register(
    "TLP202",
    "arity-mismatch",
    Severity.ERROR,
    "symbol or predicate used with an arity different from its "
    "declaration (or used at several arities)",
    "§2 (fixed-arity alphabets F, T, P)",
)
def check_arity_mismatches(ctx: LintContext) -> None:
    for name in sorted(set(ctx.func_decls) | set(ctx.type_decls)):
        observed = ctx.arities.get(name, set())
        if len(observed) > 1:
            position = ctx.func_decls.get(name) or ctx.type_decls.get(name)
            ctx.report(
                check_arity_mismatches._rule,
                f"symbol {name} is used with multiple arities "
                f"{sorted(observed)}: every symbol has one fixed arity",
                position,
            )
    reported: Set[Tuple[str, int]] = set()
    for owner, goal, _is_head in ctx.predicate_goals():
        indicator = goal.indicator
        if indicator in ctx.pred_decls or indicator in reported:
            continue
        declared = ctx.pred_names.get(goal.functor)
        if not declared:
            continue  # fully undeclared: TLP201's business
        reported.add(indicator)
        arities = ", ".join(str(a) for a in sorted(set(declared)))
        ctx.report(
            check_arity_mismatches._rule,
            f"predicate {goal.functor} called with arity "
            f"{len(goal.args)} but declared with arity {arities}",
            owner.position,
        )


def _variable_occurrences(item) -> Counter:
    """Occurrence counts of every variable in a clause or query."""
    counts: Counter = Counter()
    atoms = (
        (item.head,) + item.body if isinstance(item, ClauseDecl) else item.body
    )
    for atom in atoms:
        for arg in atom.args:
            for sub in subterms(arg):
                if isinstance(sub, Var):
                    counts[sub] += 1
    return counts


@register(
    "TLP203",
    "singleton-variable",
    Severity.WARNING,
    "variable occurs exactly once in its clause: likely a typo "
    "(prefix with _ to mark it intentional)",
    "lint hygiene (standard Prolog practice)",
)
def check_singleton_variables(ctx: LintContext) -> None:
    for item in ctx.clause_items + ctx.query_items:
        what = "clause" if isinstance(item, ClauseDecl) else "query"
        for var, count in sorted(
            _variable_occurrences(item).items(), key=lambda pair: pair[0].name
        ):
            if count != 1 or var.name.startswith("_"):
                continue
            ctx.report(
                check_singleton_variables._rule,
                f"singleton variable {var.name} in this {what}: it is "
                f"never constrained elsewhere",
                item.position,
                fixits=(
                    FixIt(
                        f"rename {var.name} to _{var.name} if the "
                        f"single occurrence is intentional",
                        replacement=f"_{var.name}",
                    ),
                ),
            )


@register(
    "TLP204",
    "undeclared-symbol",
    Severity.ERROR,
    "object term uses a symbol that is not a declared function symbol",
    "§2, Definition 1 (object terms range over F only)",
)
def check_undeclared_symbols(ctx: LintContext) -> None:
    reported: Set[str] = set()
    # Interned object terms share subtrees across items: every symbol
    # under a node checked once is declared or already reported.
    checked: Set[Struct] = set()

    def check_object(term: Term, owner) -> None:
        stack = [term]
        while stack:
            sub = stack.pop()
            if not isinstance(sub, Struct) or sub in checked:
                continue
            checked.add(sub)
            stack.extend(reversed(sub.args))
            if sub.functor in reported or ctx.is_func_name(sub.functor):
                continue
            reported.add(sub.functor)
            if ctx.is_type_name(sub.functor):
                ctx.report(
                    check_undeclared_symbols._rule,
                    f"type constructor {sub.functor} used in an object "
                    f"term ({pretty(term)}): object terms range over "
                    f"function symbols only",
                    owner.position,
                )
            else:
                ctx.report(
                    check_undeclared_symbols._rule,
                    f"symbol {sub.functor} is not a declared function "
                    f"symbol",
                    owner.position,
                    fixits=(
                        FixIt(
                            f"declare it with `FUNC {sub.functor}.`",
                            replacement=f"FUNC {sub.functor}.",
                        ),
                    ),
                )

    def check_type_term(term: Term, owner) -> None:
        for sub in subterms(term):
            if not isinstance(sub, Struct) or sub.functor in reported:
                continue
            if ctx.is_func_name(sub.functor) or ctx.is_type_name(sub.functor):
                continue
            reported.add(sub.functor)
            ctx.report(
                check_undeclared_symbols._rule,
                f"symbol {sub.functor} in type {pretty(term)} is neither "
                f"a declared function symbol nor a type constructor",
                owner.position,
                fixits=(
                    FixIt(
                        f"declare it with `TYPE {sub.functor}.` (or "
                        f"`FUNC {sub.functor}.`)",
                        replacement=f"TYPE {sub.functor}.",
                    ),
                ),
            )

    for item in ctx.clause_items + ctx.query_items:
        atoms = (
            (item.head,) + item.body
            if isinstance(item, ClauseDecl)
            else item.body
        )
        for atom in atoms:
            if _is_constraint_goal(atom) and atom is not getattr(item, "head", None):
                term_side, type_side = atom.args
                check_object(term_side, item)
                check_type_term(type_side, item)
                continue
            for arg in atom.args:
                check_object(arg, item)
