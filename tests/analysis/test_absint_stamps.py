"""Stamped sweeps in success-set inference.

The fixpoint re-evaluates a clause only when the states of the defined
predicates its body calls changed since its last evaluation, and the
domain answers each (member, constructor) cover question once per file.
Both are pure savings: these tests pin the results (members, folds, ⊥-ness,
widening, rendered findings and ``--infer`` lines) to a test-local
full-sweep reference that re-evaluates every clause in every sweep, on
generated programs, the lint-corpus cases and the examples tree.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_text
from repro.analysis import absint
from repro.analysis.absint import ProgramInference, TypeDomain, canonical, infer_text
from repro.analysis.absint.domain import SuccessSet, _holes, _share_variables
from repro.core.subtype import SubtypeEngine
from repro.terms.pretty import UNION_TYPE, pretty
from repro.terms.term import Struct, Var
from repro.workloads.generators import (
    random_guarded_constraint_set,
    random_type,
    synthetic_list_program,
)

ROOT = Path(__file__).resolve().parents[2]


def _load_corpus():
    """``benchmarks/tlpbench/corpus.py``, imported by path (read-only)."""
    spec = importlib.util.spec_from_file_location(
        "_tlpbench_corpus", ROOT / "benchmarks" / "tlpbench" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class FullSweep(ProgramInference):
    """Reference fixpoint: every sweep re-evaluates every clause of the
    component, whatever its callees did."""

    def _run(self):
        for component in self.graph.sccs():
            defined = [i for i in component if i in self.clauses_by_pred]
            if not defined:
                continue
            iteration = 0
            while True:
                iteration += 1
                self.iterations += 1
                changed = False
                for indicator in defined:
                    for clause in self.clauses_by_pred[indicator]:
                        self.evaluations += 1
                        contribution = self._evaluate_clause(clause)
                        if contribution is not None:
                            changed |= self._merge(indicator, contribution)
                if iteration >= self.widen_after:
                    changed |= self._widen(defined)
                if not changed:
                    break
                if iteration >= self.max_iterations:
                    self._force_top(defined)
                    break
        for indicator in self.clauses_by_pred:
            state = self._state[indicator]
            if state is None:
                self.success[indicator] = SuccessSet(
                    indicator, members=(), folded=(), bottom=True
                )
            else:
                self.success[indicator] = SuccessSet(
                    indicator,
                    members=tuple(tuple(position) for position in state),
                    folded=self._folded(indicator),
                    widened=indicator in self._widened,
                )


class Logged(ProgramInference):
    """Records every clause evaluation and every state change, in order,
    and each change's state beside the state of the change before."""

    def _run(self):
        self.log = []
        self.states = {}
        super()._run()

    def _evaluate_clause(self, clause):
        self.log.append(("evaluate", clause))
        return super()._evaluate_clause(clause)

    def _changed(self, indicator):
        state = tuple(tuple(position) for position in self._state[indicator])
        self.log.append(("changed", indicator))
        self.states.setdefault(indicator, [None]).append(state)
        super()._changed(indicator)


# -- generated programs -------------------------------------------------------

PRELUDE = """\
FUNC nil, cons, zero, succ, pair, leaf.
TYPE elist, nelist, list, nat.
elist >= nil.
nelist(A) >= cons(A, list(A)).
list(A) >= elist + nelist(A).
nat >= zero + succ(nat).
PRED ext(list(A), nat).
"""

_VARIABLES = ("A", "B", "C", "D")


def _term(rng, depth):
    """A random object term over the prelude's symbols; ``pair`` and
    ``leaf`` have no declared type, so their success sets fold to unions
    and recursive predicates over them run into widening."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(_VARIABLES + ("nil", "zero", "leaf"))
    functor = rng.choice(("cons", "succ", "pair", "pair"))
    arity = 1 if functor == "succ" else 2
    args = ", ".join(_term(rng, depth - 1) for _ in range(arity))
    return f"{functor}({args})"


def _atom(rng, name, arity):
    return f"{name}({', '.join(_term(rng, 2) for _ in range(arity))})"


def generated_program(seed):
    """A seeded program of mutually recursive predicates, some declared,
    with facts, recursive clauses, calls to the declared-only ``ext/2``
    and Section 7 constraint goals."""
    rng = random.Random(seed)
    count = rng.randint(2, 6)
    arities = [rng.randint(1, 2) for _ in range(count)]
    lines = [PRELUDE]
    for index, arity in enumerate(arities):
        if rng.random() < 0.3:
            declared = ", ".join(rng.choice(("list(A)", "nat")) for _ in range(arity))
            lines.append(f"PRED p{index}({declared}).")
    for index, arity in enumerate(arities):
        for _ in range(rng.randint(1, 3)):
            head = _atom(rng, f"p{index}", arity)
            body = []
            for _ in range(rng.choice((0, 1, 1, 2))):
                roll = rng.random()
                if roll < 0.1:
                    body.append(_atom(rng, "ext", 2))
                elif roll < 0.2:
                    body.append(f"{rng.choice(_VARIABLES)} : {rng.choice(('nat', 'list(nat)'))}")
                else:
                    callee = rng.randrange(count)
                    body.append(_atom(rng, f"p{callee}", arities[callee]))
            lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    # A recursive list walker, and a component whose pair builder must
    # widen while its list partner has long converged.
    lines.append("walk(nil).")
    lines.append("walk(cons(X, L)) :- walk(L).")
    lines.append("grow(leaf).")
    lines.append("grow(pair(X, Y)) :- grow(X), grow(Y), zeros(L).")
    lines.append("zeros(nil).")
    lines.append("zeros(cons(zero, nil)) :- grow(leaf).")
    return "\n".join(lines) + "\n"


def _corpus_texts():
    corpus = _load_corpus()
    texts = [(f"corpus/{case.name}", case.text) for case in corpus.lint_cases(1, 12, ROOT)]
    texts += [
        (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "examples").rglob("*.tlp"))
    ]
    return texts


def _inputs():
    texts = [(f"generated/{seed}", generated_program(seed)) for seed in range(40)]
    texts.append(("synthetic/8", synthetic_list_program(8)))
    return texts + _corpus_texts()


def _success(inference):
    return {
        indicator: (
            success.bottom,
            success.widened,
            [[pretty(member) for member in position] for position in success.members],
            [pretty(fold) for fold in success.folded],
        )
        for indicator, success in inference.success.items()
    }


def _rendered(report):
    lines = []
    for diagnostic in report.diagnostics:
        lines.append(str(diagnostic))
        lines.extend(f"    fix: {fixit}" for fixit in diagnostic.fixits)
    return "\n".join(lines)


def _infer(text, monkeypatch, cls):
    monkeypatch.setattr(absint, "ProgramInference", cls)
    inference = infer_text(text)
    lint = _rendered(lint_text(text))
    monkeypatch.undo()
    return inference, lint


def test_stamped_sweeps_equal_the_full_sweep_reference(monkeypatch):
    widened = skipped = 0
    for name, text in _inputs():
        stamped, stamped_lint = _infer(text, monkeypatch, ProgramInference)
        full, full_lint = _infer(text, monkeypatch, FullSweep)
        assert (stamped is None) == (full is None), name
        assert stamped_lint == full_lint, name
        if stamped is None:
            continue
        assert type(full) is FullSweep and type(stamped) is ProgramInference
        assert _success(stamped) == _success(full), name
        assert stamped.declaration_lines(True) == full.declaration_lines(True), name
        assert (stamped.iterations, stamped.widenings) == (full.iterations, full.widenings), name
        assert stamped.evaluations + stamped.reused == full.evaluations, name
        widened += any(s.widened for s in stamped.success.values())
        skipped += stamped.reused
    # The inputs reach widening and give the stamps something to skip.
    assert widened >= 5 and skipped > 0


def _arguments(text):
    inference = infer_text(text)
    assert inference is not None
    return (
        inference.clauses,
        inference.queries,
        inference.pred_decls,
        inference.constraints,
        inference.engine,
    )


def test_non_recursive_predicates_evaluate_each_clause_once():
    text = PRELUDE + (
        "base(nil).\n"
        "base(cons(zero, nil)).\n"
        "two(X, Y) :- base(X), base(Y).\n"
        "three(X) :- two(X, nil), ext(X, N).\n"
        "never(X) :- base(succ(X)).\n"
        "top(X) :- three(X), never(X).\n"
    )
    inference = Logged(*_arguments(text))
    evaluated = [clause for event, clause in inference.log if event == "evaluate"]
    assert sorted(map(id, evaluated)) == sorted(map(id, inference.clauses))
    assert inference.evaluations == len(inference.clauses) == 6
    assert inference.is_bottom(("never", 1)) and inference.is_bottom(("top", 1))


@pytest.mark.parametrize("seed", range(12))
def test_recursive_clauses_reevaluate_only_after_a_callee_changed(seed):
    text = generated_program(seed) + (
        "even(zero).\n"
        "even(succ(N)) :- odd(N).\n"
        "odd(succ(N)) :- even(N).\n"
        "app(nil, L, L).\n"
        "app(cons(X, L), M, cons(X, N)) :- app(L, M, N).\n"
    )
    inference = Logged(*_arguments(text))
    callees = {
        id(clause): {
            goal.indicator for goal in clause.body if goal.indicator in inference.clauses_by_pred
        }
        for clause in inference.clauses
    }
    changed_since = {}
    reevaluations = 0
    for event, subject in inference.log:
        if event == "changed":
            for moved in changed_since.values():
                moved.add(subject)
            continue
        moved = changed_since.get(id(subject))
        if moved is not None:
            assert moved & callees[id(subject)], f"{subject} re-evaluated on unchanged callees"
            reevaluations += 1
        changed_since[id(subject)] = set()
    assert reevaluations > 0
    # A change is stamped only where the state really changed (widening
    # one predicate of a component leaves the others' stamps alone).
    for indicator, states in inference.states.items():
        assert all(before != after for before, after in zip(states, states[1:])), indicator
    assert inference.evaluations == len(
        [event for event, _subject in inference.log if event == "evaluate"]
    )


# -- cover verdicts ----------------------------------------------------------


def _covering_by_pairs(domain, members):
    """The per-(constructor, member) definition of a covering constructor."""
    shared = [_share_variables(member) for member in members]
    return [
        (name, arity)
        for name, arity in domain.constraints.symbols.type_constructors.items()
        if name != UNION_TYPE
        and all(
            domain.engine.more_general(Struct(name, _holes(arity)), s) for s in shared
        )
    ]


@pytest.mark.parametrize("seed", range(8))
def test_covering_constructors_equal_the_per_pair_definition(seed):
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng, type_count=5, function_count=5)
    domain = TypeDomain(constraints, SubtypeEngine(constraints))
    variables = [Var("X"), Var("Y")]
    pool = [
        canonical(random_type(rng, constraints, depth=3, variables=variables))
        for _ in range(12)
    ]
    nonempty = 0
    for _ in range(30):
        members = rng.sample(pool, rng.randint(1, 4))
        expected = _covering_by_pairs(domain, members)
        assert domain._covering_constructors(members) == expected, members
        nonempty += bool(expected)
    assert nonempty > 0
