"""Lexer tests: token kinds, positions, keyword/variable disambiguation,
and the contract of the regex scanner against the ``str`` predicates that
define the token language."""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import LexError, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]  # drop EOF


def test_empty_input_yields_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == TokenKind.EOF


def test_simple_fact():
    assert kinds("app(nil,L,L).") == [
        TokenKind.NAME,
        TokenKind.LPAREN,
        TokenKind.NAME,
        TokenKind.COMMA,
        TokenKind.VARIABLE,
        TokenKind.COMMA,
        TokenKind.VARIABLE,
        TokenKind.RPAREN,
        TokenKind.DOT,
        TokenKind.EOF,
    ]


def test_keywords_recognised():
    assert kinds("FUNC TYPE PRED MODE IN OUT")[:-1] == [TokenKind.KEYWORD] * 6


def test_uppercase_identifier_is_variable_not_keyword():
    tokens = tokenize("FUNCX Fred INX")
    assert [t.kind for t in tokens[:-1]] == [TokenKind.VARIABLE] * 3


def test_numerals_are_names():
    tokens = tokenize("0 42")
    assert [t.kind for t in tokens[:-1]] == [TokenKind.NAME, TokenKind.NAME]


def test_underscore_starts_variable():
    tokens = tokenize("_x _G12")
    assert [t.kind for t in tokens[:-1]] == [TokenKind.VARIABLE] * 2


def test_operators():
    assert kinds(":- >= +")[:-1] == [TokenKind.IMPLIES, TokenKind.GEQ, TokenKind.PLUS]


def test_comment_skipped():
    tokens = tokenize("a. % comment with FUNC and :- inside\nb.")
    assert texts("a. % c\nb.") == ["a", ".", "b", "."]
    assert [t.text for t in tokens[:-1]] == ["a", ".", "b", "."]


def test_positions_tracked():
    tokens = tokenize("ab\n  cd")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_constraint_line():
    assert texts("nat >= 0 + succ(nat).") == [
        "nat", ">=", "0", "+", "succ", "(", "nat", ")", ".",
    ]


def test_unexpected_character():
    with pytest.raises(LexError) as info:
        tokenize("a ? b")
    assert info.value.line == 1
    assert info.value.column == 3


def test_cased_non_alphanumeric_codepoint_is_lex_error():
    # U+24B6 CIRCLED LATIN CAPITAL LETTER A passes str.isupper() without
    # being alphanumeric; it must surface as a LexError, not an
    # IndexError from a zero-length identifier (found by the fuzzer).
    with pytest.raises(LexError) as info:
        tokenize("Ⓐ")
    assert "unexpected character" in str(info.value)


def test_bare_colon_is_constraint_token():
    tokens = tokenize("X : nat")
    assert [t.kind for t in tokens[:-1]] == [
        TokenKind.VARIABLE,
        TokenKind.COLON,
        TokenKind.NAME,
    ]


def test_greater_without_equals_is_error():
    with pytest.raises(LexError):
        tokenize("a > b")


# -- the lexer contract ------------------------------------------------------------

ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))


def test_regex_whitespace_class_is_str_isspace():
    assert set(re.findall(r"\s", ALL_CODE_POINTS)) == {
        ch for ch in ALL_CODE_POINTS if ch.isspace()
    }


def test_regex_word_class_is_isalnum_or_underscore():
    assert set(re.findall(r"\w", ALL_CODE_POINTS)) == {
        ch for ch in ALL_CODE_POINTS if ch.isalnum() or ch == "_"
    }


def _skip_layout(text, start, end):
    """Assert ``text[start:end]`` is only white space and ``%`` comments."""
    i = start
    while i < end:
        if text[i] == "%":
            newline = text.find("\n", i, end)
            assert newline != -1 or end == len(text), "lexeme inside a comment"
            i = end if newline == -1 else newline
        else:
            assert text[i].isspace(), (text[start:end], i)
            i += 1


LEXER_TEXT = st.text(
    alphabet=st.characters() | st.sampled_from(list("aZ_0 \n%(),.+:-<>=")), max_size=80
)


@given(LEXER_TEXT)
@example("Ⓐ")
@example("中文 a中")
@example("a\x1cb\x85c\nd")
@example("ǅ aǅ")
@settings(max_examples=1000)
def test_tokens_slice_the_source_and_errors_point_at_it(text):
    lines = text.split("\n")
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line) + 1)
    try:
        tokens = tokenize(text)
    except LexError as error:
        bad = lines[error.line - 1][error.column - 1]
        assert f"unexpected character {bad!r}" in str(error)
        assert not bad.isspace() and bad != "%"
        offset = offsets[error.line - 1] + error.column - 1
        tokens = tokenize(text[:offset])  # everything before it lexes
    else:
        offset = len(text)
    previous_end = 0
    for token in tokens[:-1]:
        assert token.end_line == token.line
        assert lines[token.line - 1][token.column - 1 : token.end_column - 1] == token.text
        start = offsets[token.line - 1] + token.column - 1
        _skip_layout(text, previous_end, start)
        previous_end = start + len(token.text)
    _skip_layout(text, previous_end, offset)


def test_layout_characters_advance_the_column_not_the_line():
    tokens = tokenize("a\x1cb\x85c")
    assert [(t.text, t.line, t.column) for t in tokens[:-1]] == [
        ("a", 1, 1),
        ("b", 1, 3),
        ("c", 1, 5),
    ]


@pytest.mark.parametrize("text, column", [("中文", 1), ("ǅ", 1), ("x ǅ", 3)])
def test_alphanumerics_that_cannot_start_an_identifier(text, column):
    with pytest.raises(LexError) as info:
        tokenize(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_alphanumerics_continue_an_identifier():
    assert texts("a中 aǅ x²") == ["a中", "aǅ", "x²"]
