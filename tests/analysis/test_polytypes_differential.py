"""Differential pin: the TLP6xx solver is invisible on the monomorphic
fragment.

Two guarantees the solver's integration must not erode:

* **byte-identical lint** — on a variable-free program that never
  mentions a built-in constraint predicate, the linter's rendered output
  with the TLP6xx family enabled equals the output with it disabled,
  byte for byte (the solver never activates, and activation is the only
  way the family can report);
* **ground verdicts match the engine** — on ground-ground constraints
  the constraint graph's verdicts (``add_ground`` witnesses,
  ``check_member``) coincide with the deterministic subtype engine's
  ``holds``/``contains``, so compiling the monomorphic fragment through
  the solver path cannot flip a match-based verdict.
"""

from pathlib import Path

import pytest

from repro import workloads
from repro.analysis import LintConfig, lint_text
from repro.analysis.polytypes import ConstraintGraph, solve_text
from repro.core.builtins import is_builtin_indicator, uses_builtin_goals
from repro.core.subtype import SubtypeEngine
from repro.lang.ast import ClauseDecl, ModeDecl, PredDecl, QueryDecl
from repro.lang.parser import parse_file
from repro.terms.pretty import pretty
from repro.terms.term import Struct, variables_of

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

TLP6XX = frozenset({"TLP601", "TLP602", "TLP603", "TLP604", "TLP605"})


def _is_monomorphic(text: str) -> bool:
    """Variable-free declarations, no built-in goals, and no predicate
    that borrows a built-in's name — the fragment the pre-solver linter
    understood completely."""
    try:
        source = parse_file(text)
    except Exception:
        return False
    for item in source.items:
        if isinstance(item, PredDecl):
            if any(variables_of(argument) for argument in item.head.args):
                return False
            if is_builtin_indicator(item.head.functor, len(item.head.args)):
                return False
        elif isinstance(item, ModeDecl):
            if is_builtin_indicator(item.name, len(item.modes)):
                return False
        elif isinstance(item, ClauseDecl):
            if is_builtin_indicator(item.head.functor, len(item.head.args)):
                return False
            if uses_builtin_goals(item.body):
                return False
        elif isinstance(item, QueryDecl):
            if uses_builtin_goals(item.body):
                return False
    return True


def monomorphic_examples():
    found = []
    for path in sorted(EXAMPLES.rglob("*.tlp")):
        text = path.read_text(encoding="utf-8")
        if _is_monomorphic(text):
            found.append(pytest.param(path, id=str(path.relative_to(EXAMPLES))))
    assert found, "the examples tree lost its monomorphic corpus"
    return found


def render(report) -> str:
    """Rendered findings with their fix-its, compared byte for byte:
    generated names are numbered per message, so two successive lint
    runs print the same text."""
    lines = []
    for diagnostic in report.diagnostics:
        lines.append(str(diagnostic))
        lines.extend(f"    fix: {fixit}" for fixit in diagnostic.fixits)
    return "\n".join(lines)


@pytest.mark.parametrize("path", monomorphic_examples())
def test_monomorphic_lint_is_byte_identical_without_tlp6xx(path):
    text = path.read_text(encoding="utf-8")
    with_solver = lint_text(text, path=str(path))
    without = lint_text(
        text, path=str(path), config=LintConfig(disabled=TLP6XX)
    )
    assert render(with_solver) == render(without)
    assert not any(d.code in TLP6XX for d in with_solver.diagnostics)


@pytest.mark.parametrize("path", monomorphic_examples())
def test_solver_declines_monomorphic_files(path):
    # ``solve_text`` returning None is the activation gate: the family
    # cannot fire on a file the solver never looks at.
    assert solve_text(path.read_text(encoding="utf-8"), path=str(path)) is None


#: Workloads that stay inside the monomorphic fragment (APPEND and
#: LIST_LIBRARY are polymorphic — ``app``/``len`` over ``list(A)`` —
#: and belong to the solver's fragment, not this pin).
MONO_WORKLOADS = ("NATURALS_ARITHMETIC", "INSERTION_SORT")


@pytest.mark.parametrize("name", MONO_WORKLOADS)
def test_workload_lint_unchanged_by_solver(name):
    text = getattr(workloads, name)
    assert _is_monomorphic(text)
    assert render(lint_text(text)) == render(
        lint_text(text, config=LintConfig(disabled=TLP6XX))
    )


def test_ground_subtype_verdicts_match_engine():
    constraints = workloads.paper_universe()
    engine = SubtypeEngine(constraints)
    candidates = [
        Struct("nat", ()),
        Struct("int", ()),
        Struct("list", (Struct("nat", ()),)),
        Struct("list", (Struct("int", ()),)),
    ]
    for sub in candidates:
        for sup in candidates:
            graph = ConstraintGraph(engine, candidates)
            graph.add_ground(sub, sup, "differential")
            witnessed = bool(graph.witnesses)
            assert witnessed != engine.holds(sup, sub), (
                f"solver and engine disagree on "
                f"{pretty(sub)} ⊑ {pretty(sup)}"
            )


def test_ground_membership_verdicts_match_engine():
    constraints = workloads.paper_universe()
    engine = SubtypeEngine(constraints)
    types = [
        Struct("nat", ()),
        Struct("int", ()),
        Struct("list", (Struct("nat", ()),)),
    ]
    zero = Struct("0", ())
    terms = [
        zero,
        Struct("s", (zero,)),
        Struct("pred", (zero,)),
        Struct("nil", ()),
        Struct("cons", (zero, Struct("nil", ()))),
    ]
    for tau in types:
        for term in terms:
            graph = ConstraintGraph(engine, types)
            verdict = graph.check_member(tau, term, "differential")
            assert verdict == engine.contains(tau, term)
            assert bool(graph.witnesses) != verdict
