"""The TLP5xx declared-mode rule family (§7, after [DH88])."""

from repro.analysis import LintConfig, lint_text
from repro.analysis.fixes import apply_fixits

BASE = """\
TYPE nat, int.
FUNC 0, s, pred.
int >= nat.
nat >= 0 + s(nat).
int >= pred(int).
"""

MODED_LIBRARY = BASE + """\
PRED int2nat(int, nat).
MODE int2nat(IN, OUT).
int2nat(0, 0).
int2nat(s(X), s(Y)) :- int2nat(X, Y).
PRED makeint(int).
MODE makeint(OUT).
makeint(0).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
"""


def findings(text, prefix="TLP5"):
    return [
        d for d in lint_text(text, config=LintConfig()).diagnostics
        if d.code.startswith(prefix)
    ]


def codes(text):
    return [d.code for d in findings(text)]


# -- gating -------------------------------------------------------------------


def test_family_is_gated_on_mode_declarations():
    # The same dangerous query that seeds TLP502, minus every MODE line:
    # TLP301 territory, no TLP5xx findings at all.
    text = BASE + (
        "PRED makeint(int).\nmakeint(0).\n"
        "PRED usenat(nat).\nusenat(0).\n"
        ":- makeint(X), usenat(X).\n"
    )
    assert codes(text) == []


def test_well_moded_module_is_silent():
    assert codes(MODED_LIBRARY) == []
    assert codes(MODED_LIBRARY + ":- makeint(X), int2nat(X, N), usenat(N).\n") == []


def test_echo_clause_out_fed_by_head_in_is_not_flagged():
    # nat2int(X, X) delivers its OUT from the head IN — well-moded via
    # the directional conditions, not a TLP503/505 false positive.
    text = BASE + (
        "PRED nat2int(nat, int).\nMODE nat2int(IN, OUT).\nnat2int(X, X).\n"
    )
    assert codes(text) == []


# -- TLP501: the declarations themselves --------------------------------------


def test_tlp501_arity_mismatch_with_machine_fixit():
    text = MODED_LIBRARY + "PRED len(int, nat).\nMODE len(IN).\nlen(0, 0).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP501"]
    fixed = apply_fixits(text, found)
    assert "MODE len(IN, OUT)." in fixed
    assert codes(fixed) == []


def test_tlp501_conflicting_declarations():
    text = MODED_LIBRARY + (
        "PRED p(nat).\nMODE p(IN).\nMODE p(OUT).\np(0).\n"
    )
    found = findings(text)
    assert [d.code for d in found] == ["TLP501"]
    assert "conflicting" in found[0].message
    # The later declaration loses: the fix restates the earlier one.
    fixed = apply_fixits(text, found)
    assert fixed.count("MODE p(IN).") == 2
    assert codes(fixed) == []


def test_tlp501_inline_vs_standalone_conflict():
    text = BASE + "PRED p(IN nat).\nMODE p(OUT).\np(0).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP501"]


def test_tlp501_mode_for_undeclared_predicate_is_advisory():
    text = MODED_LIBRARY + "MODE ghost(IN).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP501"]
    assert "no PRED declaration" in found[0].message
    assert all(not fixit.replacement for fixit in found[0].fixits)


# -- TLP502: ill-moded call sites ---------------------------------------------


def test_tlp502_supertype_flow_fixit_inserts_the_filter():
    text = MODED_LIBRARY + ":- makeint(X), usenat(X).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP502"]
    assert found[0].severity == "error"
    fixed = apply_fixits(text, found)
    assert ":- makeint(X), int2nat(X, X_nat), usenat(X_nat)." in fixed
    assert codes(fixed) == []


def test_tlp502_consumed_before_produced_is_advisory():
    text = MODED_LIBRARY + ":- usenat(X), makeint(X).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP502"]
    assert "before being produced" in found[0].message
    assert all(not fixit.replacement for fixit in found[0].fixits)


def test_tlp502_reaches_clauses_that_call_a_builtin():
    # The built-in signatures and modes are declared for lint exactly as
    # for tlp-check, so calling `is` no longer hides the whole clause.
    relay = "PRED relay(int, int).\nMODE relay(IN, OUT).\n"
    without = MODED_LIBRARY + relay + "relay(N, N) :- makeint(X), usenat(X).\n"
    with_builtin = (
        MODED_LIBRARY + relay + "relay(N, Y) :- makeint(X), usenat(X), Y is N.\n"
    )
    assert codes(without) == ["TLP502"]
    found = findings(with_builtin)
    assert [d.code for d in found] == ["TLP502"]
    assert "usenat(X) argument 1: variable X" in found[0].message


# -- TLP503: head OUT the clause never delivers -------------------------------


def test_tlp503_unproduced_head_out_flips_declaration_to_in():
    text = MODED_LIBRARY + "PRED mk(nat).\nMODE mk(OUT).\nmk(X).\n"
    found = [d for d in findings(text) if d.code == "TLP503"]
    assert len(found) == 1
    assert found[0].severity == "warning"
    fixed = apply_fixits(text, found)
    assert "MODE mk(IN)." in fixed
    assert codes(fixed) == []


def test_tlp503_rewrites_the_inline_pred_form():
    text = MODED_LIBRARY + "PRED mk(OUT nat).\nmk(X).\n"
    found = [d for d in findings(text) if d.code == "TLP503"]
    assert len(found) == 1
    fixed = apply_fixits(text, found)
    assert "PRED mk(IN nat)." in fixed
    assert codes(fixed) == []


# -- TLP504: not well-moded ---------------------------------------------------


def test_tlp504_missing_modes_fixit_inserts_inferred_declarations():
    # The widening clause needs the directional fallback, which needs a
    # mode on every atom carrying the shared variable.
    text = MODED_LIBRARY + "PRED widen(nat, int).\nwiden(X, X).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP504"]
    fixed = apply_fixits(text, found)
    assert "MODE widen(" in fixed
    assert codes(fixed) == []


def test_tlp504_skipped_when_tlp502_already_explains_the_item():
    text = MODED_LIBRARY + ":- makeint(X), usenat(X).\n"
    assert codes(text) == ["TLP502"]


# -- TLP505: OUT positions nothing can produce --------------------------------


def test_tlp505_uncalled_predicate_fixit_flips_to_all_in():
    text = MODED_LIBRARY + "PRED reserve(nat).\nMODE reserve(OUT).\n"
    found = findings(text)
    assert [d.code for d in found] == ["TLP505"]
    fixed = apply_fixits(text, found)
    assert "MODE reserve(IN)." in fixed
    assert codes(fixed) == []


def test_tlp505_called_predicate_keeps_an_advisory_only():
    text = MODED_LIBRARY + (
        "PRED reserve(nat).\nMODE reserve(OUT).\n:- reserve(X), usenat(X).\n"
    )
    found = [d for d in findings(text) if d.code == "TLP505"]
    assert len(found) == 1
    assert all(not fixit.replacement for fixit in found[0].fixits)


# -- the seeded corpus round trip ---------------------------------------------


def test_seed_corpus_fires_one_finding_per_rule_and_fixes_clean():
    path = "examples/corpus/lint/modes.tlp"
    text = open(path).read()
    found = findings(text)
    assert sorted(d.code for d in found) == [
        "TLP501", "TLP502", "TLP503", "TLP504", "TLP505",
    ]
    fixed = apply_fixits(text, found)
    assert findings(fixed) == []
