"""The constraint set's expansion table: ``ConstraintSet.expansions``
memoizes ``τ →_C σ`` per type term for every reader (both matchers'
clause 4, the subtype engine, the compiled automaton).  A cached list
must always equal a fresh instantiation, ``add`` must empty the table,
the table is bounded like the matcher memos and never pickles."""

import importlib.util
import pickle
import random
import sys
from pathlib import Path

from repro.checker.frontend import check_text
from repro.core import match as match_module
from repro.core.automata import AUTOMATA, AutomataStore
from repro.lang import parse_term as T
from repro.terms import Struct, Var
from repro.workloads import constraint, paper_universe
from repro.workloads.generators import random_guarded_constraint_set, random_type

CORPUS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "tlpbench" / "corpus.py"


def _fresh(cset, type_term):
    """``type_term``'s expansions instantiated anew, constraint by
    constraint, without the table."""
    out = []
    for rule in cset.constraints_for(type_term.functor):
        expansion = cset.expand_with(type_term, rule)
        if expansion is not None:
            out.append(expansion)
    return out


def _assert_table_is_fresh(cset):
    for type_term, cached in list(cset._expansion_table.items()):
        assert cached == _fresh(cset, type_term), type_term


def test_results_equal_a_fresh_instantiation_and_are_reused():
    cset = paper_universe()
    for text in ["list(nat)", "list(E)", "nelist(list(A))", "int", "nat + list(B)"]:
        first = cset.expansions(T(text))
        assert first == _fresh(cset, T(text))
        assert cset.expansions(T(text)) is first
    rng = random.Random(3)
    for _ in range(5):
        generated = random_guarded_constraint_set(rng)
        for _ in range(30):
            tau = random_type(rng, generated, depth=3, variables=[Var("A"), Var("B")])
            if isinstance(tau, Struct) and generated.symbols.is_type_constructor(tau.functor):
                assert generated.expansions(tau) == _fresh(generated, tau)
        _assert_table_is_fresh(generated)


def test_add_clears_the_table():
    cset = paper_universe()
    before = cset.expansions(T("list(nat)"))
    assert cset._expansion_table
    cset.add(constraint("list(A) >= A"))
    assert not cset._expansion_table
    after = cset.expansions(T("list(nat)"))
    assert after == before + [T("nat")]


def test_the_table_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(match_module, "MEMO_LIMIT", 8)
    cset = paper_universe()
    tau = T("nat")
    for _ in range(50):
        tau = Struct("list", (tau,))
        assert cset.expansions(tau) == _fresh(cset, tau)
        assert len(cset._expansion_table) <= 8


def test_a_pickled_automaton_carries_no_table():
    cset = paper_universe()
    automaton = AutomataStore().automaton_for(cset)
    automaton.holds(T("list(int)"), T("cons(pred(0), nil)"))
    assert automaton.constraints._expansion_table
    restored = pickle.loads(pickle.dumps(automaton))
    assert restored.constraints._expansion_table == {}
    assert restored.holds(T("list(int)"), T("cons(pred(0), nil)")) is True


def _corpus_module():
    spec = importlib.util.spec_from_file_location("_tlpbench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_no_caller_changes_a_cached_list_over_a_check_cold_pass():
    corpus = _corpus_module()
    scopes = []
    for project in corpus.check_projects(1, 24):
        for member in project.members:
            module = check_text(project.prelude + member.text)
            if module.constraints is not None:
                scopes.append(module.constraints)
    scopes.extend(
        automaton.constraints
        for automaton in AUTOMATA._automata.values()
        if automaton is not None
    )
    assert sum(len(cset._expansion_table) for cset in scopes) > 0
    for cset in scopes:
        _assert_table_is_fresh(cset)
