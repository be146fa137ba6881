"""Lexer for the paper's concrete syntax.

The token language covers everything appearing in the paper:

* declarations keywords ``FUNC``, ``TYPE``, ``PRED`` plus the ``MODE`` /
  ``IN`` / ``OUT`` extension of Section 7;
* names (lowercase-initial identifiers and numerals — ``0`` is an ordinary
  function symbol in the paper);
* variables (uppercase- or underscore-initial identifiers);
* punctuation ``( ) , .`` and the operators ``:-`` ``>=`` ``+`` ``:``
  (the last for Section 7's typed-unification constraints ``X : nat``),
  plus the built-in constraint comparators ``<`` ``=<`` ``=:=`` of the
  typed-CLP extension (Fages & Coquery);
* ``%`` line comments.

Keywords are spelled in all caps in the paper, which collides with the
uppercase-initial convention for variables.  We resolve the collision the
way the paper's examples implicitly do: the *exact* words ``FUNC``,
``TYPE``, ``PRED``, ``MODE``, ``IN``, ``OUT`` are keywords, every other
uppercase-initial identifier is a variable.

Tokens carry line/column positions for the checker's diagnostics.  Only
``\\n`` starts a new line; every other white-space character (``\\r``,
``\\x1c``, ``\\x85``, ...) advances the column like any other character.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple

__all__ = ["Token", "TokenKind", "LexError", "tokenize", "KEYWORDS"]


class TokenKind:
    """Token kind constants (plain strings, grouped for discoverability)."""

    NAME = "NAME"  # lowercase-initial identifier or numeral
    VARIABLE = "VARIABLE"  # uppercase/underscore-initial identifier
    KEYWORD = "KEYWORD"  # FUNC TYPE PRED MODE IN OUT
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    DOT = "DOT"
    IMPLIES = "IMPLIES"  # :-
    GEQ = "GEQ"  # >=
    PLUS = "PLUS"
    COLON = "COLON"  # type constraints in queries: X : nat
    LT = "LT"  # <   (built-in comparison goal)
    LEQ = "LEQ"  # =<  (built-in comparison goal)
    EQARITH = "EQARITH"  # =:= (built-in arithmetic equality goal)
    EOF = "EOF"


KEYWORDS = frozenset({"FUNC", "TYPE", "PRED", "MODE", "IN", "OUT"})


class Token(NamedTuple):
    """A single lexeme with its source position (1-based line/column).

    ``end_line``/``end_column`` bound the lexeme as a half-open span
    (``end_column`` points just past the last character).  Tokens never
    span lines, so ``end_line == line``.
    """

    kind: str
    text: str
    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.text!r} at {self.line}:{self.column}"


class LexError(Exception):
    """Raised on characters outside the token language."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


#: One alternative per lexeme class, tried in order at every position.
#: ``\w`` is exactly ``str.isalnum() or "_"`` and ``\s`` exactly
#: ``str.isspace()`` (both pinned by an exhaustive test), so a word is a
#: maximal identifier run; whether it may *start* an identifier is decided
#: per word by :func:`_word_kind`.  ``:-`` precedes ``:`` so the longer
#: operator wins.
_SCAN = re.compile(
    r"(\w+|:-|>=|=:=|=<|[(),.+:<])"  # 1: a token
    r"|(\n)[^\S\n]*"  # 2: a newline and the next line's indentation
    r"|[^\S\n]+|%[^\n]*"  # white space or a comment: skipped
    r"|(.)"  # 3: anything else is an error
).finditer

_OPERATOR_KINDS: Dict[str, str] = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "+": TokenKind.PLUS,
    ":-": TokenKind.IMPLIES,
    ":": TokenKind.COLON,
    ">=": TokenKind.GEQ,
    "=:=": TokenKind.EQARITH,
    "=<": TokenKind.LEQ,
    "<": TokenKind.LT,
}


def _word_kind(word: str) -> str:
    """The kind of an identifier run, or ``""`` if its first character
    cannot start one (a cased letter or digit, or ``_``, must)."""
    if word in KEYWORDS:
        return TokenKind.KEYWORD
    first = word[0]
    if first.isupper() or first == "_":
        return TokenKind.VARIABLE
    if first.islower() or first.isdigit():
        return TokenKind.NAME
    return ""


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; the result always ends with an ``EOF`` token."""
    new = tuple.__new__
    kinds = dict(_OPERATOR_KINDS)  # grows a word -> kind cache per call
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    base = -1  # offset of the character before column 1 of ``line``
    for match in _SCAN(text):
        group = match.lastindex
        if group == 1:
            lexeme = match.group()
            kind = kinds.get(lexeme)
            if kind is None:
                kind = kinds[lexeme] = _word_kind(lexeme)
            start, end = match.span()
            if not kind:
                raise LexError(
                    f"unexpected character {lexeme[0]!r}", line, start - base
                )
            append(new(Token, (kind, lexeme, line, start - base, line, end - base)))
        elif group == 2:
            line += 1
            base = match.start()
        elif group == 3:
            start = match.start()
            raise LexError(f"unexpected character {text[start]!r}", line, start - base)
    column = len(text) - base
    append(new(Token, (TokenKind.EOF, "", line, column, line, column)))
    return tokens
