"""Whole-file checker tests: arity inference, diagnostics, the paper's
programs end to end (experiment E6's frontend half)."""

import pytest

from repro.checker import check_text
from repro.workloads import APPEND, ILL_TYPED_EXAMPLES, LIST_LIBRARY, NATURALS_ARITHMETIC


def test_append_checks_clean():
    module = check_text(APPEND)
    assert module.ok, module.diagnostics.render()
    assert len(module.program) == 2
    assert module.symbols.is_function("cons")
    assert module.symbols.is_type_constructor("list")


def test_arity_inference_from_use():
    module = check_text(APPEND)
    assert module.symbols.functions["cons"] == 2
    assert module.symbols.functions["nil"] == 0
    assert module.symbols.type_constructors["list"] == 1
    assert module.symbols.type_constructors["elist"] == 0


def test_unused_symbol_defaults_to_constant():
    module = check_text("FUNC lonely.\nTYPE t.\nt >= lonely.")
    assert module.ok
    assert module.symbols.functions["lonely"] == 0


def test_conflicting_arities_diagnosed():
    module = check_text(
        """
        FUNC f.
        TYPE t.
        t >= f(t).
        t >= f(t, t).
        """
    )
    assert not module.ok
    assert "multiple arities" in module.diagnostics.render()


def test_parse_error_becomes_diagnostic():
    module = check_text("FUNC .")
    assert not module.ok
    assert len(module.diagnostics.errors) == 1


def test_lex_error_becomes_diagnostic():
    module = check_text("FUNC a?b.")
    assert not module.ok


def test_undeclared_symbol_in_clause():
    module = check_text(
        """
        FUNC nil.
        TYPE elist.
        elist >= nil.
        PRED p(elist).
        p(zork).
        """
    )
    assert not module.ok
    assert "zork" in module.diagnostics.render()


def test_object_term_errors_survive_shared_subterms():
    # Interned subterms recur across clauses; a subterm that passed is
    # skipped, but every clause holding an offender is still reported,
    # and with the first offender in pre-order.
    module = check_text(
        """
        FUNC nil, cons.
        TYPE elist.
        elist >= nil.
        PRED p(elist).
        p(cons(nil, nil)).
        p(cons(cons(nil, nil), zork)).
        p(cons(blip, zork)).
        p(cons(cons(nil, nil), zork)).
        """
    )
    messages = [d.message for d in module.diagnostics.errors]
    assert messages == [
        "symbol zork is not a declared function symbol",
        "symbol blip is not a declared function symbol",
        "symbol zork is not a declared function symbol",
    ]
    assert len(module.program) == 1


def test_type_constructor_in_object_term_rejected():
    module = check_text(
        """
        FUNC nil.
        TYPE elist.
        elist >= nil.
        PRED p(elist).
        p(elist).
        """
    )
    assert not module.ok


def test_nonuniform_declarations_diagnosed():
    module = check_text(
        """
        FUNC m, 0, succ.
        TYPE id, males, nat.
        nat >= 0 + succ(nat).
        id(males) >= m(nat).
        """
    )
    assert not module.ok
    assert "uniform" in module.diagnostics.render()


def test_unguarded_declarations_diagnosed():
    module = check_text(
        """
        FUNC f.
        TYPE c.
        c >= c.
        """
    )
    assert not module.ok
    assert "guarded" in module.diagnostics.render()


def test_duplicate_pred_declaration():
    module = check_text(
        """
        FUNC nil.
        TYPE elist.
        elist >= nil.
        PRED p(elist).
        PRED p(elist + elist).
        """
    )
    assert not module.ok
    assert "declared twice" in module.diagnostics.render()


@pytest.mark.parametrize("name", sorted(ILL_TYPED_EXAMPLES))
def test_paper_ill_typed_examples_rejected(name):
    module = check_text(ILL_TYPED_EXAMPLES[name])
    assert not module.ok, f"{name} should be rejected"
    assert "not well-typed" in module.diagnostics.render()


def test_canonical_programs_accepted():
    for source in (APPEND, NATURALS_ARITHMETIC, LIST_LIBRARY):
        module = check_text(source)
        assert module.ok, module.diagnostics.render()


def test_diagnostics_carry_positions():
    # In the list-only universe `0` is an undeclared symbol; both of its
    # occurrences are diagnosed at the query's source line.
    source = APPEND + ":- app(nil, 0, 0).\n"
    module = check_text(source)
    assert not module.ok
    for error in module.diagnostics.errors:
        assert error.position is not None
        assert error.position.line == len(APPEND.splitlines()) + 1


def test_mode_declarations_checked():
    source = """
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED p(nat).
PRED q(int).
MODE p(IN).
MODE q(OUT).
p(0).
q(0).
:- q(X), p(X).
"""
    module = check_text(source)
    assert not module.ok
    assert "mode violation" in module.diagnostics.render()


def test_mode_declarations_accept_good_flow():
    # With modes declared, the [DH88]-style directional fallback accepts
    # the sub→supertype flow that strict Definition 16 rejects.
    source = """
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED p(nat).
PRED q(int).
MODE p(OUT).
MODE q(IN).
p(0).
q(0).
:- p(X), q(X).
"""
    module = check_text(source)
    assert module.ok, module.diagnostics.render()
    assert module.moded_checker is not None


def test_constrained_query_opts_out_of_definition16():
    # The Section 7 typed-unification form: Definition 16 would reject
    # p(X), q(X) (nat vs int contexts); the X : nat constraint moves the
    # query into the dynamic model and the frontend accepts it.
    source = """
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED p(nat).
PRED q(int).
p(0).
q(0).
:- p(X), X : nat, q(X).
"""
    module = check_text(source)
    assert module.ok, module.diagnostics.render()
    assert len(module.queries) == 1


def test_constraint_type_side_still_validated():
    source = """
FUNC 0, succ.
TYPE nat.
nat >= 0 + succ(nat).
PRED p(nat).
p(0).
:- p(X), X : zork.
"""
    module = check_text(source)
    assert not module.ok
    assert "zork" in module.diagnostics.render()


def test_moded_widening_clause_accepted_end_to_end():
    source = """
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED nat2int(nat, int).
MODE nat2int(IN, OUT).
nat2int(X, X).
"""
    module = check_text(source)
    assert module.ok, module.diagnostics.render()


def test_inline_pred_modes_thread_into_the_mode_environment():
    source = """
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
PRED nat2int(IN nat, OUT int).
nat2int(X, X).
"""
    module = check_text(source)
    assert module.ok, module.diagnostics.render()
    assert module.modes is not None
    assert dict(module.modes.items())[("nat2int", 2)] == ("IN", "OUT")
    assert module.moded_checker is not None


def test_conflicting_inline_and_standalone_modes_rejected():
    source = """
FUNC 0.
TYPE nat.
nat >= 0.
PRED p(IN nat).
MODE p(OUT).
p(0).
"""
    module = check_text(source)
    assert not module.ok
    assert "p" in module.diagnostics.render()


def test_clause_and_query_positions_are_recorded():
    source = """\
FUNC nil.
TYPE t.
t >= nil.
PRED p(t).
p(nil).
:- p(nil).
"""
    module = check_text(source)
    assert module.ok
    assert len(module.clause_positions) == len(module.program)
    assert len(module.query_positions) == len(module.queries)
    assert module.clause_positions[0].line == 5
    assert module.query_positions[0].line == 6
