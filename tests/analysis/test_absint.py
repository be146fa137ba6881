"""Whole-program success-set inference: call graph, domain, fixpoint,
declaration reconstruction, and the TLP401-404 rules built on top."""

import pytest

from repro.analysis import lint_text
from repro.analysis.absint import (
    CallGraph,
    ProgramInference,
    TypeDomain,
    canonical,
    infer_text,
    truncate_depth,
)
from repro.analysis.absint.domain import MAX_MEMBERS, SuccessSet
from repro.analysis.context import LintContext
from repro.checker.frontend import check_text
from repro.lang.ast import ClauseDecl
from repro.lang.parser import parse_file, parse_term
from repro.terms.term import Struct, Var

LISTS = """\
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A, list(A)).
list(A) >= elist + nelist(A).
"""

NATS = """\
FUNC zero, succ.
TYPE nat.
nat >= zero + succ(nat).
"""

APPEND = LISTS + """\
PRED app(list(A), list(A), list(A)).
app(nil, L, L).
app(cons(X, L), M, cons(X, N)) :- app(L, M, N).
"""


def build(text):
    inference = infer_text(text)
    assert inference is not None
    return inference


def folded(inference, name, arity):
    return inference.success[(name, arity)].folded


def codes(text, *wanted):
    return [
        d for d in lint_text(text).diagnostics if d.code in wanted
    ]


# -- call graph ---------------------------------------------------------------


def test_call_graph_edges_and_nodes():
    source = parse_file(APPEND + "rev(nil, nil).\nrev(cons(X, L), R) :- rev(L, S), app(S, cons(X, nil), R).\n")
    graph = CallGraph.from_clauses(source.of_kind(ClauseDecl))
    assert ("app", 3) in graph.nodes
    assert ("rev", 2) in graph.nodes
    assert ("app", 3) in graph.callees(("rev", 2))
    assert ("app", 3) in graph.callees(("app", 3))  # self loop


def test_sccs_emit_callees_first():
    source = parse_file(APPEND + "rev(nil, nil).\nrev(cons(X, L), R) :- rev(L, S), app(S, cons(X, nil), R).\n")
    graph = CallGraph.from_clauses(source.of_kind(ClauseDecl))
    components = graph.sccs()
    order = {component: index for index, component in enumerate(components)}
    assert order[(("app", 3),)] < order[(("rev", 2),)]


def test_constraint_goals_are_not_call_edges():
    source = parse_file(LISTS + "PRED p(list(A)).\np(X) :- X : elist.\n")
    graph = CallGraph.from_clauses(source.of_kind(ClauseDecl))
    assert graph.callees(("p", 1)) == set()


def test_recursive_detection():
    source = parse_file(APPEND)
    graph = CallGraph.from_clauses(source.of_kind(ClauseDecl))
    assert graph.recursive((("app", 3),))
    lone = parse_file(LISTS + "PRED e(elist).\ne(nil).\n")
    lone_graph = CallGraph.from_clauses(lone.of_kind(ClauseDecl))
    assert not lone_graph.recursive((("e", 1),))


# -- the domain ---------------------------------------------------------------


def domain():
    inference = build(LISTS + NATS + "PRED d(nat).\nd(zero).\n")
    return TypeDomain(inference.constraints, inference.engine)


def test_canonical_alpha_equivalence():
    left = canonical(parse_term("cons(X, cons(Y, X))"))
    right = canonical(parse_term("cons(A, cons(B, A))"))
    assert left == right
    assert canonical(parse_term("cons(X, X)")) != canonical(
        parse_term("cons(X, Y)")
    )


def test_truncate_depth_replaces_deep_subterms_with_variables():
    deep = parse_term("succ(succ(succ(succ(zero))))")
    cut = truncate_depth(deep, 2)
    assert cut.functor == "succ"
    assert isinstance(cut.args[0].args[0], Var)
    # Within the bound the term is untouched.
    assert truncate_depth(deep, 10) == deep


def test_add_member_dedupes_by_subsumption():
    d = domain()
    members = []
    assert d.add_member(members, parse_term("list(A)"))
    # elist is an instance of list(A): no new information.
    assert not d.add_member(members, parse_term("elist"))
    assert len(members) == 1


def test_add_member_replaces_subsumed_entries():
    d = domain()
    members = [parse_term("elist")]
    assert d.add_member(members, parse_term("list(A)"))
    assert [canonical(m) for m in members] == [canonical(parse_term("list(A)"))]


def test_add_member_cap_collapses_to_top():
    d = domain()
    members = []
    # succ^k(zero) towers are pairwise incomparable observations.
    term = "zero"
    for _ in range(MAX_MEMBERS + 1):
        d.add_member(members, parse_term(term))
        term = f"succ({term})"
    assert len(members) == 1 and isinstance(members[0], Var)


def test_fold_prefers_minimal_constructor():
    d = domain()
    # {nil} folds to elist, not to the looser list(A).
    fold = d.fold([parse_term("nil")])
    assert fold == Struct("elist", ())


def test_fold_covers_all_members():
    d = domain()
    fold = d.fold([parse_term("nil"), parse_term("cons(A, list(A))")])
    assert fold is not None and fold.functor == "list"


def test_fold_singleton_and_union_fallback():
    d = domain()
    # A single member with no covering constructor folds to itself
    # (no declared type contains succ-of-a-list terms).
    assert d.fold([parse_term("succ(elist)")]) == parse_term("succ(elist)")
    # Incomparable members with no covering constructor fold to a union.
    fold = d.fold([parse_term("zero"), parse_term("nil")])
    assert fold is not None and fold.functor == "+"


def test_fold_variable_member_is_top():
    d = domain()
    assert isinstance(d.fold([Var("X")]), Var)


# -- the fixpoint -------------------------------------------------------------


def test_append_success_set():
    inference = build(APPEND)
    first, second, third = folded(inference, "app", 3)
    assert first.functor == "list"
    # Nothing constrains the other positions: they stay open.
    assert isinstance(second, Var) and isinstance(third, Var)


def test_plus_grounds_first_argument_only():
    text = NATS + "PRED plus(nat, nat, nat).\nplus(0, Y, Y).\n"
    text = NATS + (
        "PRED plus(nat, nat, nat).\n"
        "plus(zero, Y, Y).\n"
        "plus(succ(X), Y, succ(Z)) :- plus(X, Y, Z).\n"
    )
    inference = build(text)
    first, second, third = folded(inference, "plus", 3)
    assert first == Struct("nat", ())
    assert isinstance(second, Var) and isinstance(third, Var)


def test_empty_success_set_is_bottom():
    text = NATS + (
        "PRED loop(nat).\n"
        "loop(X) :- loop(X).\n"
    )
    inference = build(text)
    assert inference.success[("loop", 1)].bottom


def test_callee_bottom_propagates():
    text = NATS + (
        "PRED loop(nat).\nPRED use(nat).\n"
        "loop(X) :- loop(X).\n"
        "use(X) :- loop(X).\n"
    )
    inference = build(text)
    assert inference.success[("use", 1)].bottom


def test_widening_terminates_on_unfoldable_growth():
    # box-towers grow without any declared type covering them: only the
    # depth widening (then the iteration cap) stops the ascent.
    text = (
        "FUNC a, box.\n"
        "TYPE t.\n"
        "t >= a + box(t).\n"
        "PRED w(t).\n"
        "w(a).\n"
        "w(box(W)) :- w(W).\n"
    )
    inference = build(text)  # must not hang
    success = inference.success[("w", 1)]
    assert not success.bottom
    assert inference.iterations <= inference.max_iterations


def test_open_world_predicate_is_skipped_not_failed():
    # q is declared but has no clauses: its declaration is trusted, so
    # callers are NOT dead.
    text = NATS + (
        "PRED q(nat).\nPRED p(nat).\n"
        "p(X) :- q(X).\n"
    )
    inference = build(text)
    assert not inference.success[("p", 1)].bottom
    assert folded(inference, "p", 1)[0] == Struct("nat", ())


def test_compare_with_declaration_equivalent_and_loose():
    loose = NATS + LISTS + (
        "PRED e(list(nat)).\n"
        "e(nil).\n"
    )
    inference = build(loose)
    verdict, _details = inference.compare_with_declaration(("e", 1))
    assert verdict == "loose"
    exact = NATS + "PRED z(nat).\nz(zero).\nz(succ(X)) :- z(X).\n"
    verdict, _ = build(exact).compare_with_declaration(("z", 1))
    assert verdict in ("equivalent", "ok")


def test_member_fit_suppresses_false_incompatibility():
    # int2nat's success set folds to the union 0+succ(A), which is not
    # comparable with the declared int/nat pair positionwise — but every
    # member fits, so the declaration is NOT incompatible.
    text = open("examples/programs/arithmetic.tlp").read()
    inference = build(text)
    verdict, _ = inference.compare_with_declaration(("int2nat", 2))
    assert verdict != "incompatible"


# -- reconstruction -----------------------------------------------------------


def strip_preds(text):
    return "\n".join(
        line for line in text.splitlines()
        if not line.strip().startswith("PRED")
    ) + "\n"


def test_reconstructs_append_declaration():
    inference = build(strip_preds(APPEND))
    reconstruction = inference.reconstructions()[("app", 3)]
    assert reconstruction.validated
    assert reconstruction.line == "PRED app(list(A), list(A), list(A))."


def test_reconstructed_declarations_are_accepted_by_the_checker():
    stripped = strip_preds(APPEND)
    inference = build(stripped)
    block = "\n".join(inference.declaration_lines()) + "\n"
    module = check_text(stripped + block)
    assert module.ok, module.diagnostics.render()


def test_open_world_callee_gets_top_declaration():
    text = LISTS + (
        "rev(nil, nil).\n"
        "rev(cons(X, L), R) :- rev(L, S), app(S, cons(X, nil), R).\n"
    )
    inference = build(text)
    reconstructions = inference.reconstructions()
    assert reconstructions[("rev", 2)].defined
    app = reconstructions[("app", 3)]
    assert not app.defined and app.validated
    assert app.line == "PRED app(A, B, C)."
    # The whole reconstructed block makes the file well-typed.
    block = "\n".join(
        r.line for r in reconstructions.values()
    ) + "\n"
    assert check_text(text + block).ok


def test_every_corpus_member_reconstructs_checkably():
    """Acceptance: strip the PRED declarations from each corpus member
    (against the shared prelude) and the reconstructed block must be
    accepted by the existing well-typedness checker."""
    import pathlib

    decls = pathlib.Path("examples/corpus/decls.tlp").read_text()
    members_dir = pathlib.Path("examples/corpus/members")
    members = sorted(members_dir.glob("*.tlp"))
    assert members
    for member in members:
        body = member.read_text()
        stripped = strip_preds(decls + body)
        inference = build(stripped)
        block = "\n".join(inference.declaration_lines()) + "\n"
        module = check_text(stripped + block)
        assert module.ok, f"{member}: {module.diagnostics.render()}"


# -- the TLP4xx rules ---------------------------------------------------------

SEEDED = NATS + LISTS + (
    "PRED mk(nat).\n"
    "mk(zero).\n"
    "PRED caller(list(nat)).\n"
    "caller(L) :- mk(cons(zero, L)).\n"
)


def test_tlp402_always_failing_goal():
    found = codes(SEEDED, "TLP402")
    assert len(found) == 1
    assert "mk(cons(zero, L))" in found[0].message


def test_tlp401_dead_clause():
    found = codes(SEEDED, "TLP401")
    assert len(found) == 1
    assert "caller/1" in found[0].message


def test_tlp401_dead_head():
    text = NATS + LISTS + "PRED p(nat).\np(nil).\n"
    found = codes(text, "TLP401")
    assert len(found) == 1 and "head argument" in found[0].message


def test_tlp403_loose_declaration_with_fixit():
    text = NATS + LISTS + "PRED e(list(nat)).\ne(nil).\n"
    found = codes(text, "TLP403")
    assert len(found) == 1
    fixit = found[0].fixits[0]
    assert fixit.replacement == "PRED e(elist)."


def test_tlp404_incompatible_declaration():
    text = NATS + LISTS + "PRED p(nat).\np(nil).\n"
    found = codes(text, "TLP404")
    assert len(found) == 1
    assert "share no instances" in found[0].message


def test_clean_program_has_no_tlp4xx():
    assert codes(APPEND, "TLP401", "TLP402", "TLP403", "TLP404") == []


def test_arithmetic_examples_only_flag_the_failing_query():
    text = open("examples/programs/arithmetic.tlp").read()
    found = codes(text, "TLP401", "TLP402", "TLP403", "TLP404")
    assert [d.code for d in found] == ["TLP402"]
    assert "int2nat(pred(0)" in found[0].message


def test_success_type_in_messages_does_not_depend_on_earlier_runs():
    arithmetic = open("examples/programs/arithmetic.tlp").read()
    other = open("examples/corpus/lint/success_sets.tlp").read()
    first = lint_text(arithmetic).render().encode("utf-8")
    lint_text(other)  # draws more fresh variables from the process counter
    again = lint_text(arithmetic).render().encode("utf-8")
    assert first == again
    assert b"the inferred success type 0 + succ(_A0)" in first


def test_success_type_names_never_reuse_a_user_variable_in_the_message():
    arithmetic = open("examples/programs/arithmetic.tlp").read()
    text = arithmetic + (
        ":- int2nat(pred(_A0), R).\n"
        "PRED wrap(nat).\n"
        "wrap(R) :- int2nat(pred(_A0), R).\n"
    )
    messages = [
        d.message
        for d in codes(text, "TLP401", "TLP402")
        if "pred(_A0)" in d.message
    ]
    assert len(messages) == 3 and all(
        message.endswith("the inferred success type 0 + succ(_A1)")
        for message in messages
    ), messages
    # The query without a user _A0 keeps the first-appearance numbering.
    assert any(
        d.message.endswith("success type 0 + succ(_A0)")
        and "pred(0)" in d.message
        for d in codes(text, "TLP402")
    )


def test_declared_type_names_never_reuse_a_user_variable_in_the_message():
    text = (
        "FUNC nil, cons, 0.\n"
        "TYPE list.\n"
        "list(A) >= nil + cons(A, list(A)).\n"
        "PRED first(list(A), list(A)).\n"
        "first(nil, nil).\n"
        "first(X, cons(_A0, 0)).\n"
    )
    [dead] = codes(text, "TLP401")
    assert dead.message.endswith(
        "head argument cons(_A0, 0) never matches its declared type list(_A1)"
    ), dead.message


def test_modes_and_constrained_examples_are_clean():
    for path in ("examples/programs/modes.tlp", "examples/programs/constrained.tlp"):
        text = open(path).read()
        assert codes(text, "TLP401", "TLP402", "TLP403", "TLP404") == []


def test_seeded_lint_fixture_fires_every_rule():
    text = open("examples/corpus/lint/success_sets.tlp").read()
    found = codes(text, "TLP401", "TLP402", "TLP403", "TLP404")
    assert sorted(d.code for d in found) == [
        "TLP401", "TLP401", "TLP402", "TLP403", "TLP404",
    ]


def test_tlp201_fixit_carries_inferred_declaration():
    report = lint_text(strip_preds(APPEND))
    tlp201 = [d for d in report.diagnostics if d.code == "TLP201"]
    assert tlp201
    fixit = tlp201[0].fixits[0]
    assert fixit.replacement == "PRED app(list(A), list(A), list(A))."
    assert "accepted by the checker" in fixit.description


def test_rules_stay_silent_when_inference_unavailable():
    # A non-uniform constraint set falls outside the engine's fragment:
    # ctx.inference is None and the TLP4xx rules must not crash or fire.
    text = (
        "FUNC a.\n"
        "TYPE t.\n"
        "t(A) >= a.\n"
        "t(a) >= a.\n"
        "PRED p(t(a)).\n"
        "p(a).\n"
    )
    report = lint_text(text)
    assert all(not d.code.startswith("TLP4") for d in report.diagnostics)


# -- telemetry ----------------------------------------------------------------


def test_fixpoint_emits_telemetry():
    from repro.obs import METRICS

    was = METRICS.enabled
    METRICS.reset()
    METRICS.enabled = True
    try:
        build(APPEND)
        snapshot = METRICS.snapshot()
        counters = snapshot.get("counters", snapshot)
        assert any("analysis.absint" in key for key in counters)
    finally:
        METRICS.enabled = was
        METRICS.reset()


def test_from_context_requires_engine():
    source = parse_file("FUNC a.\nTYPE t.\nt(A) >= a.\nt(a) >= a.\n")
    ctx = LintContext.build(source)
    if ctx.engine is None:
        with pytest.raises(ValueError):
            ProgramInference.from_context(ctx)
    assert ctx.inference is None
