"""Checker rejections do not depend on what the process checked before:
generated type variables (``_T5``, ``_E12``: fresh names from a
process-wide counter) are renumbered per message by first appearance,
skipping the names the user wrote."""

from pathlib import Path

from repro.checker.frontend import check_text
from repro.terms.pretty import renumber_generated

POLYTYPES = Path(__file__).resolve().parents[2] / "examples" / "corpus" / "lint" / "polytypes.tlp"

MEMBER = """\
FUNC 0, succ, nil, cons.
TYPE list, nat.
nat >= 0 + succ(nat).
list(A) >= nil + cons(A, list(A)).
PRED member(A, list(A)).
member(X, cons(X, L)).
:- member(succ(Y), cons(0, nil)).
"""


def _messages(text):
    return [str(diagnostic) for diagnostic in check_text(text).diagnostics]


def test_a_repeated_check_prints_the_same_rejection():
    first = _messages(MEMBER)
    assert first == _messages(MEMBER) == _messages(MEMBER)
    assert len(first) == 1 and "committed type succ(_T0) does not cover 0" in first[0]


def test_two_copies_of_a_file_check_to_the_same_text():
    text = POLYTYPES.read_text(encoding="utf-8")
    first = _messages(text)
    assert first == _messages(text)
    assert any("_E0" in message for message in first)


def test_written_names_are_kept_and_skipped():
    assert renumber_generated("_T5 vs _T0, then _T5 and _E9", {"_T0"}) == (
        "_T1 vs _T0, then _T1 and _E0"
    )
    # Whole words only: a user's ``X_T5`` or ``_T5a`` is not a fresh name.
    assert renumber_generated("X_T5 _T5a _T5", ()) == "X_T5 _T5a _T0"


def test_a_user_variable_named_like_a_fresh_one_is_not_renamed():
    text = MEMBER.replace("succ(Y)", "succ(_T0)")
    first = _messages(text)
    assert first == _messages(text)
    assert "member(succ(_T0), cons(0, nil))" in first[0]
    assert "committed type succ(_T1) does not cover 0" in first[0]
