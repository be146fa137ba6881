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

The scanner (:class:`Scan`) is one regular expression whose every match is
a lexeme and the white space and comments after it; ``findall`` hands the
parser the lexemes as a list of strings, and a small table gives each
distinct lexeme its kind.  No per-token object is built and no position is
stored per token.  Line/column positions are computed only where something
reads them — item boundaries and error sites: a token's offset is the sum
of the lexeme and layout lengths before it, and its line and column come
from one list of newline offsets per text, searched with
:func:`bisect.bisect_left`.  :func:`tokenize` derives the public
:class:`Token` list from the same scan.

Only ``\\n`` starts a new line; every other white-space character (``\\r``,
``\\x1c``, ``\\x85``, ...) advances the column like any other character.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Token", "TokenKind", "LexError", "Scan", "tokenize", "KEYWORDS"]


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


#: A lexeme: a token, or any other single character (an error).  ``\w`` is
#: exactly ``str.isalnum() or "_"`` and ``\s`` exactly ``str.isspace()``
#: (both pinned by an exhaustive test), so a word is a maximal identifier
#: run; whether it may *start* an identifier is decided per word by
#: :func:`_word_kind`.  ``:-`` precedes ``:`` so the longer operator wins.
_LEXEME = r"(?:\w+|:-|>=|=:=|=<|[(),.+:<]|\S)"
#: The white space and ``%`` comments between lexemes.
_LAYOUT = r"(?:\s+|%[^\n]*)*"
#: The scan: one match per lexeme and the layout after it, so the next
#: match starts at the next lexeme.  Nothing can fail after the lexeme, so
#: the scanner never backtracks.  ``findall`` returns the lexemes, or on
#: demand the layouts, as plain strings — no per-token object.
_LEXEMES = re.compile(f"({_LEXEME}){_LAYOUT}").findall
_LAYOUTS = re.compile(f"{_LEXEME}({_LAYOUT})").findall
_LEADING_LAYOUT = re.compile(_LAYOUT).match
_NEWLINE = re.compile("\n").finditer

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


class _Kinds(dict):
    """Lexeme -> kind, filled on first sight.  Operators come pre-filled, so
    a new lexeme is a word or a single character outside the token
    language; the latter, and words that cannot start an identifier, map
    to ``""``."""

    def __missing__(self, lexeme: str) -> str:
        first = lexeme[0]
        kind = self[lexeme] = _word_kind(lexeme) if first.isalnum() or first == "_" else ""
        return kind


class Scan:
    """One scan of ``text``: parallel lexeme and kind lists.

    ``lexemes[i]``/``kinds[i]`` describe the ``i``-th token; both lists
    end with an ``EOF`` entry (lexeme ``""``).  Offsets are not stored:
    :meth:`start` adds up the lengths of the lexemes and layouts before a
    token, resuming from the last offset it computed, so the parser's
    in-order queries cost one pass over the text in all.  Raises
    :class:`LexError` at the first character outside the token language.
    """

    __slots__ = ("text", "lexemes", "kinds", "_lead", "_layouts", "_cursor", "_newlines")

    def __init__(self, text: str) -> None:
        lead = _LEADING_LAYOUT(text).end()
        lexemes: List[str] = _LEXEMES(text, lead)
        kinds = list(map(_Kinds(_OPERATOR_KINDS).__getitem__, lexemes))
        self.text = text
        self.lexemes = lexemes
        self._lead = lead
        self._layouts: Optional[List[str]] = None
        self._cursor = (0, lead)
        self._newlines: Optional[List[int]] = None
        if "" in kinds:
            start = self.start(kinds.index(""))
            line, column = self.line_column(start)
            raise LexError(f"unexpected character {text[start]!r}", line, column)
        lexemes.append("")
        kinds.append(TokenKind.EOF)
        self.kinds = kinds

    def start(self, index: int) -> int:
        """The offset of token ``index`` (``EOF``: the end of the text)."""
        layouts = self._layouts
        if layouts is None:
            layouts = self._layouts = _LAYOUTS(self.text, self._lead)
        done, offset = self._cursor
        if index < done:
            done, offset = 0, self._lead
        if index > done:
            offset += sum(map(len, self.lexemes[done:index]))
            offset += sum(map(len, layouts[done:index]))
            self._cursor = (index, offset)
        return offset

    def line_column(self, offset: int) -> Tuple[int, int]:
        """The 1-based line and column of character ``offset``."""
        newlines = self._newlines
        if newlines is None:
            newlines = self._newlines = [m.start() for m in _NEWLINE(self.text)]
        before = bisect_left(newlines, offset)
        return before + 1, offset - (newlines[before - 1] if before else -1)

    def token(self, index: int) -> Token:
        """Token ``index`` with its position."""
        line, column = self.line_column(self.start(index))
        text = self.lexemes[index]
        return Token(self.kinds[index], text, line, column, line, column + len(text))


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; the result always ends with an ``EOF`` token."""
    scan = Scan(text)
    return [scan.token(index) for index in range(len(scan.kinds))]
