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
stored per token.  Positions are computed only where something reads
them.  An item's span comes from the item terminators: outside a ``%``
comment every ``.`` is a ``DOT`` token, so :meth:`Scan.item_spans`, one
lazy scan for ``.`` that steps over comments, ends each item at its
closing dot and starts it where the layout after the previous dot
stops.  Error sites and :func:`tokenize` re-run the lexeme scan with
``finditer`` to get token offsets.  Line and column come from one list
of newline offsets per text, searched with :func:`bisect.bisect_left`.

Only ``\\n`` starts a new line; every other white-space character (``\\r``,
``\\x1c``, ``\\x85``, ...) advances the column like any other character.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

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
#: the scanner never backtracks.  ``findall`` returns the lexemes as plain
#: strings — no per-token object; ``finditer`` gives their offsets where
#: something asks for them.
_TOKENS = re.compile(f"({_LEXEME}){_LAYOUT}")
_LEXEMES = _TOKENS.findall
_TOKEN_MATCHES = _TOKENS.finditer
_LEADING_LAYOUT = re.compile(_LAYOUT).match
#: Item terminators: a ``.`` outside a comment (group 1).  A comment is
#: matched whole so that the dots inside it are stepped over.
_TERMINATORS = re.compile(r"%[^\n]*|(\.)").finditer
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
    :meth:`item_spans` finds item boundaries from the terminating dots,
    and :meth:`start` rescans for the offset of one token (error sites
    only).  Raises :class:`LexError` at the first character outside the
    token language.
    """

    __slots__ = ("text", "lexemes", "kinds", "lead", "_newlines")

    def __init__(self, text: str) -> None:
        lead = _LEADING_LAYOUT(text).end()
        lexemes: List[str] = _LEXEMES(text, lead)
        kinds = list(map(_Kinds(_OPERATOR_KINDS).__getitem__, lexemes))
        self.text = text
        self.lexemes = lexemes
        self.lead = lead
        self._newlines: Optional[List[int]] = None
        if "" in kinds:
            start = self.start(kinds.index(""))
            line, column = self.line_column(start)
            raise LexError(f"unexpected character {text[start]!r}", line, column)
        lexemes.append("")
        kinds.append(TokenKind.EOF)
        self.kinds = kinds

    def start(self, index: int) -> int:
        """The offset of token ``index`` (``EOF``: the end of the text).
        Rescans the text up to the token."""
        match = next(islice(_TOKEN_MATCHES(self.text, self.lead), index, None), None)
        return len(self.text) if match is None else match.start()

    def line_column(self, offset: int) -> Tuple[int, int]:
        """The 1-based line and column of character ``offset``."""
        newlines = self._newlines
        if newlines is None:
            newlines = self._newlines = [m.start() for m in _NEWLINE(self.text)]
        before = bisect_left(newlines, offset)
        return before + 1, offset - (newlines[before - 1] if before else -1)

    def item_spans(self) -> Iterator[Tuple[int, int, int, int]]:
        """The ``(line, column, end_line, end_column)`` of each item in
        turn, read off as the parser finishes them.

        Outside a comment every ``.`` is a ``DOT`` token and only item
        ends consume one, so in a text that parses item ``k`` ends at the
        ``k``-th such dot and starts where the layout after the previous
        dot (or the leading layout) stops.
        """
        text = self.text
        line_column = self.line_column
        after = 0
        for match in _TERMINATORS(text):
            if match.lastindex:
                dot = match.start()
                line, column = line_column(_LEADING_LAYOUT(text, after).end())
                end_line, end_column = line_column(dot)
                yield line, column, end_line, end_column + 1
                after = dot + 1

    def token(self, index: int) -> Token:
        """Token ``index`` with its position."""
        return self._token(index, self.start(index))

    def _token(self, index: int, offset: int) -> Token:
        line, column = self.line_column(offset)
        text = self.lexemes[index]
        return Token(self.kinds[index], text, line, column, line, column + len(text))


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; the result always ends with an ``EOF`` token."""
    scan = Scan(text)
    tokens = [
        scan._token(index, match.start())
        for index, match in enumerate(_TOKEN_MATCHES(text, scan.lead))
    ]
    tokens.append(scan._token(len(tokens), len(text)))
    return tokens
