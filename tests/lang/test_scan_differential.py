"""The one-pass scanner against a frozen copy of the per-token lexer.

``Scan`` runs one regular expression over the text and keeps no per-token
positions; the parser computes positions only at item boundaries and
error sites.  The reference below is the lexer it replaced, kept verbatim
in this file: it stamped every token with its line and column as it went.
On generated surface text, on random noise and on the check-cold
benchmark corpora, both must give the same ``tokenize()`` output, the
same item ``Position``s and the same ``LexError``/``ParseError`` text and
line/column.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_text
from repro.checker import check_text
from repro.lang import LexError, ParseError, parse_file, syntax_error_site, tokenize

# -- the reference lexer (frozen) ----------------------------------------------------


class RefToken(NamedTuple):
    kind: str
    text: str
    line: int
    column: int
    end_line: int
    end_column: int


class RefLexError(Exception):
    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_REF_SCAN = re.compile(
    r"(\w+|:-|>=|=:=|=<|[(),.+:<])"
    r"|(\n)[^\S\n]*"
    r"|[^\S\n]+|%[^\n]*"
    r"|(.)"
).finditer

_REF_OPERATOR_KINDS: Dict[str, str] = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "+": "PLUS",
    ":-": "IMPLIES",
    ":": "COLON",
    ">=": "GEQ",
    "=:=": "EQARITH",
    "=<": "LEQ",
    "<": "LT",
}


def _ref_word_kind(word: str) -> str:
    if word in {"FUNC", "TYPE", "PRED", "MODE", "IN", "OUT"}:
        return "KEYWORD"
    first = word[0]
    if first.isupper() or first == "_":
        return "VARIABLE"
    if first.islower() or first.isdigit():
        return "NAME"
    return ""


def ref_tokenize(text: str) -> List[RefToken]:
    kinds = dict(_REF_OPERATOR_KINDS)
    tokens: List[RefToken] = []
    line = 1
    base = -1
    for match in _REF_SCAN(text):
        group = match.lastindex
        if group == 1:
            lexeme = match.group()
            kind = kinds.get(lexeme)
            if kind is None:
                kind = kinds[lexeme] = _ref_word_kind(lexeme)
            start, end = match.span()
            if not kind:
                raise RefLexError(f"unexpected character {lexeme[0]!r}", line, start - base)
            tokens.append(RefToken(kind, lexeme, line, start - base, line, end - base))
        elif group == 2:
            line += 1
            base = match.start()
        elif group == 3:
            start = match.start()
            raise RefLexError(f"unexpected character {text[start]!r}", line, start - base)
    column = len(text) - base
    tokens.append(RefToken("EOF", "", line, column, line, column))
    return tokens


# -- the comparison ------------------------------------------------------------------


def assert_same_as_reference(text: str) -> None:
    try:
        expected = ref_tokenize(text)
    except RefLexError as reference:
        for entry in (tokenize, parse_file):
            with pytest.raises(LexError) as info:
                entry(text)
            assert str(info.value) == str(reference)
            assert (info.value.line, info.value.column) == (reference.line, reference.column)
        return
    assert [tuple(token) for token in tokenize(text)] == [tuple(t) for t in expected]
    try:
        source = parse_file(text)
    except ParseError as error:
        # The error names one of the reference tokens, whole, and the
        # message is built from it.
        at = {(t.line, t.column): t for t in expected}
        token = error.token
        assert tuple(token) == tuple(at[(token.line, token.column)])
        assert str(error).startswith(f"{token.line}:{token.column}: ")
        assert str(error).endswith(f" (found {token.text!r})")
        return
    # Items end at their closing dot, and no other token is a dot: each
    # item spans the reference tokens from just after the previous dot.
    spans = []
    first = 0
    for index, token in enumerate(expected):
        if token.kind == "DOT":
            spans.append((expected[first], token))
            first = index + 1
    assert [
        (
            item.position.line,
            item.position.column,
            item.position.end_line,
            item.position.end_column,
        )
        for item in source.items
    ] == [(start.line, start.column, end.end_line, end.end_column) for start, end in spans]


# -- generated surface text and noise ------------------------------------------------

#: The surface grammar's lexemes (``tests/lang/test_fuzz.py``'s token soup
#: plus the goal operators), joined by generated layout.
LEXEMES = st.sampled_from(
    [
        "FUNC", "TYPE", "PRED", "MODE", "IN", "OUT", "is",
        "nat", "cons", "0", "X", "A", "_Y", "x²", "a中",
        "(", ")", ",", ".", ":-", ">=", "+", ":", "<", "=<", "=:=",
    ]
)
LAYOUT = st.sampled_from(["", " ", "\n", "  \n\t", "% note :- FUNC.\n", "\r\n", "\x85", "\x1c"])
NOISE = st.text(alphabet=st.characters() | st.sampled_from(list("aZ_0 \n%(),.+:-<>=")), max_size=6)


@st.composite
def surface_text(draw):
    parts = []
    for _ in range(draw(st.integers(0, 40))):
        parts.append(draw(LEXEMES))
        parts.append(draw(LAYOUT))
        if draw(st.integers(0, 9)) == 0:
            parts.append(draw(NOISE))
    return "".join(parts)


@given(surface_text())
@example("FUNC 0, s.\nTYPE nat.\nnat >= 0 + s(nat).\nPRED p(nat).\np(s(0)).\n:- p(X).\n")
@example("p(X) :-\n    q(X), X : nat. % done")
@example("p(a) :- X is Y, X =:= Y, X < Y, X =< Y.")
@example("p(a) ? q.")
@example("p(a)\n  q.")
@example("ǅ")
# Item spans come from the terminating dots: dots and '%' in comments,
# layout before items and a last item without a newline.
@example("FUNC a. % not. an. item.\nTYPE t.\n")
@example("FUNC a.\nTYPE t.\n% trailing. dots.")
@example("FUNC a.\nTYPE t.")
@example("FUNC a.% c.\nTYPE t.%.")
@example("% ... . .. .\n%.\n\nFUNC a.\n")
@example("\r\n\x85FUNC a.\r\n\x85 TYPE t.\x85\r\np(a).")
@settings(max_examples=1500, deadline=None)
def test_generated_text_matches_the_reference(text):
    assert_same_as_reference(text)


@given(surface_text())
@example("FUNC a.\np(a) :- .\n")
@example("FUNC a.\np(a) :- ?.\n")
@settings(max_examples=300, deadline=None)
def test_checker_and_lint_place_syntax_errors_alike(text):
    try:
        parse_file(text)
        return
    except (LexError, ParseError) as error:
        rendered = str(error)
        message, position = syntax_error_site(error)
    assert rendered == f"{position}: {message}"

    def sites(diagnostics):
        return [
            (d.message, d.position.line, d.position.column,
             d.position.end_line, d.position.end_column)
            for d in diagnostics
        ]

    expected = [(message, position.line, position.column, position.end_line, position.end_column)]
    assert sites(check_text(text).diagnostics) == sites(lint_text(text).diagnostics) == expected


@given(st.text(max_size=120))
@settings(max_examples=500, deadline=None)
def test_random_noise_matches_the_reference(text):
    assert_same_as_reference(text)


# -- the check-cold benchmark corpora ------------------------------------------------

CORPUS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "tlpbench" / "corpus.py"


def _corpus_module():
    spec = importlib.util.spec_from_file_location("_tlpbench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7])
def test_check_cold_corpus_matches_the_reference(seed):
    corpus = _corpus_module()
    for project in corpus.check_projects(seed, 42):
        assert_same_as_reference(project.prelude)
        for member in project.members:
            assert_same_as_reference(project.prelude + member.text)
