"""Parser for the paper's concrete syntax.

Grammar (items end with ``.``):

.. code-block:: text

   file        := item* EOF
   item        := 'FUNC' namelist '.'
                | 'TYPE' namelist '.'
                | 'PRED' name ( '(' predarg (',' predarg)* ')' )? '.'
                | 'MODE' name '(' mode (',' mode)* ')' '.'
                | ':-' goals '.'                     (query)
                | union '>=' union '.'               (subtype constraint)
                | atom (':-' goals)? '.'             (program clause)
   namelist    := name (',' name)*
   goals       := goal (',' goal)*
   goal        := atom | union infix union           (infix: ':' '<' '=<' '=:=' 'is')
   atom        := name ( '(' union (',' union)* ')' )?
   union       := primary ('+' primary)*             (left associative)
   primary     := variable
                | atom
                | '(' union ')'
   predarg     := mode? union                        (§7 inline modes)
   mode        := 'IN' | 'OUT'

Items are parsed by recursive descent; terms (``union`` and everything
below it) by one loop over an explicit stack, so term nesting depth is
bounded by memory, not by the interpreter's recursion limit.

The parser tracks no token positions.  Every item ends with the one
``.`` it consumes, so item ``k``'s span runs from the end of the layout
after the ``(k-1)``-th terminating dot through the ``k``-th
(:meth:`~repro.lang.lexer.Scan.item_spans`); a token's offset is looked
up only for a :class:`ParseError`.

``predarg`` is the paper's Section 7 surface form ``PRED p(OUT nat).``:
an optional ``IN``/``OUT`` keyword before each argument type.  Either
every argument carries a mode or none does — a partial annotation is a
parse error.  The annotated form is sugar for the plain ``PRED`` plus a
``MODE`` declaration.

``union`` builds the predefined binary ``+`` type constructor; it is
accepted in every term position (the core layer rejects ``+`` where it is
not meaningful).  Clause heads and body atoms must be plain applications —
a union or a variable head is a parse error.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..terms.term import Struct, Term, Var
from ..terms.pretty import UNION_TYPE
from .ast import (
    ClauseDecl,
    ConstraintDecl,
    FuncDecl,
    Item,
    ModeDecl,
    Position,
    PredDecl,
    QueryDecl,
    SourceFile,
    TypeDecl,
)
from .lexer import LexError, Scan, Token, TokenKind

#: An open ``name(`` or ``(`` during term parsing: functor (``None`` for a
#: parenthesised union), arguments so far (``None`` likewise), and the
#: enclosing level's pending left ``+`` operand.
_Frame = Tuple[Optional[str], Optional[List[Term]], Optional[Term]]

__all__ = [
    "ParseError",
    "parse_file",
    "parse_term",
    "parse_type",
    "parse_atom",
    "parse_clause",
    "parse_query",
    "syntax_error_site",
]

#: The kinds the term loop compares per token, as module globals.
_NAME = TokenKind.NAME
_VARIABLE = TokenKind.VARIABLE
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_COMMA = TokenKind.COMMA
_PLUS = TokenKind.PLUS


class ParseError(Exception):
    """Raised on any syntax error; carries the offending position."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.column}: {message} (found {token.text!r})")
        self.token = token


def syntax_error_site(error: Union[ParseError, LexError]) -> Tuple[str, Position]:
    """A syntax error's message without its ``line:col:`` prefix, and the
    span it names (the offending token, or the one bad character): what a
    diagnostic, which carries its own position, needs."""
    if isinstance(error, ParseError):
        token = error.token
        position = Position(token.line, token.column, token.end_line, token.end_column)
    else:
        position = Position(error.line, error.column, error.line, error.column + 1)
    prefix = f"{position.line}:{position.column}: "
    return str(error)[len(prefix):], position


class _Parser:
    """Recursive descent over one :class:`Scan`.  The cursor is the index
    ``index`` into the scan's parallel ``lexemes``/``kinds`` lists;
    ``spans`` hands out the source range of each finished item in turn."""

    def __init__(self, text: str) -> None:
        scan = Scan(text)
        self.scan = scan
        self.lexemes = scan.lexemes
        self.kinds = scan.kinds
        self.index = 0
        self.spans = scan.item_spans()

    # -- token plumbing ---------------------------------------------------

    def error(self, message: str, index: Optional[int] = None) -> ParseError:
        """A :class:`ParseError` at token ``index`` (default: the cursor)."""
        return ParseError(message, self.scan.token(self.index if index is None else index))

    def advance(self) -> str:
        """Consume the token under the cursor; return its lexeme."""
        index = self.index
        if self.kinds[index] != TokenKind.EOF:
            self.index = index + 1
        return self.lexemes[index]

    def end_item(self) -> Position:
        """Consume the current item's closing ``.`` and return the item's
        source range: the next one :meth:`Scan.item_spans` yields, since
        items end in order and only their ends consume a dot."""
        self.expect(TokenKind.DOT, "'.'")
        return Position(*next(self.spans))

    def check(self, kind: str, text: str = "") -> bool:
        index = self.index
        return self.kinds[index] == kind and (not text or self.lexemes[index] == text)

    def accept(self, kind: str, text: str = "") -> bool:
        if self.check(kind, text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> str:
        if self.kinds[self.index] != kind:
            raise self.error(f"expected {what}")
        return self.advance()

    # -- terms -------------------------------------------------------------

    def union(self) -> Term:
        """A ``union``: ``+``-joined primaries, left associative."""
        return self._term([])

    def atom(self) -> Struct:
        """A predicate application ``name`` or ``name(union, ...)``."""
        index = self.index
        if self.kinds[index] != _NAME:
            raise self.error("expected an atom (predicate application)")
        name = self.lexemes[index]
        if self.kinds[index + 1] != _LPAREN:
            self.advance()
            return Struct(name, ())
        self.index = index + 2
        return self._term([(name, [], None)])  # type: ignore[return-value]

    def _term(self, frames: List[_Frame]) -> Term:
        """Parse a union, or with one open application frame in ``frames``
        (its ``name(`` already consumed) the rest of that application.

        One loop over an explicit stack of open frames, so nesting costs
        heap rather than interpreter frames and has no depth limit.
        """
        lexemes = self.lexemes
        kinds = self.kinds
        i = self.index
        whole_atom = bool(frames)
        left: Optional[Term] = None  # pending left '+' operand at this level
        while True:
            kind = kinds[i]
            i += 1
            if kind == _NAME:
                if kinds[i] == _LPAREN:
                    frames.append((lexemes[i - 1], [], left))
                    left = None
                    i += 1
                    continue
                term: Term = Struct(lexemes[i - 1], ())
            elif kind == _VARIABLE:
                term = Var(lexemes[i - 1])
            elif kind == _LPAREN:
                frames.append((None, None, left))
                left = None
                continue
            else:
                raise self.error("expected a term", i - 1)
            # A primary is complete: fold it into its level's union, then
            # close each frame that the following ')' tokens end.
            while True:
                if left is not None:
                    term = Struct(UNION_TYPE, (left, term))
                kind = kinds[i]
                if kind == _PLUS:
                    left = term
                    i += 1
                    break
                if not frames:
                    self.index = i
                    return term
                functor, args, left = frames[-1]
                if kind == _COMMA and args is not None:
                    args.append(term)
                    left = None
                    i += 1
                    break
                if kind != _RPAREN:
                    raise self.error("expected ')'", i)
                i += 1
                frames.pop()
                if args is not None:
                    args.append(term)
                    term = Struct(functor, tuple(args))  # type: ignore[arg-type]
                    if whole_atom and not frames:
                        self.index = i
                        return term

    #: Infix goals: Section 7's typed-unification constraint ``X : nat``
    #: and the typed-CLP built-ins ``X < Y``, ``X =< Y``, ``X =:= Y``
    #: (token kind -> goal functor); ``X is Y`` is matched by its text.
    _INFIX_GOALS = {
        TokenKind.COLON: ":",
        TokenKind.LT: "<",
        TokenKind.LEQ: "=<",
        TokenKind.EQARITH: "=:=",
    }

    def query_goal(self) -> Struct:
        """An atom, a Section 7 type constraint ``term : type``, or an
        infix built-in constraint goal ``term < term`` / ``term =< term``
        / ``term =:= term`` / ``term is term``.

        Constraints travel as ``':'(term, type)`` structs; built-in goals
        travel as ordinary ``'<'(lhs, rhs)``-style structs so downstream
        passes treat them like any other atom.
        """
        lhs = self.union()
        index = self.index
        kind = self.kinds[index]
        functor = self._INFIX_GOALS.get(kind)
        if functor is None and kind == _NAME and self.lexemes[index] == "is":
            functor = "is"
        if functor is not None:
            self.advance()
            return Struct(functor, (lhs, self.union()))
        if not isinstance(lhs, Struct) or lhs.functor == UNION_TYPE:
            raise self.error("expected an atom or a ':' type constraint")
        return lhs

    def query_goals(self) -> Tuple[Struct, ...]:
        out = [self.query_goal()]
        while self.accept(_COMMA):
            out.append(self.query_goal())
        return tuple(out)

    # -- items -------------------------------------------------------------

    def namelist(self) -> Tuple[str, ...]:
        names = [self.expect(_NAME, "a symbol name")]
        while self.accept(_COMMA):
            names.append(self.expect(_NAME, "a symbol name"))
        return tuple(names)

    def item(self) -> Item:
        start = self.index
        if self.kinds[start] == TokenKind.KEYWORD:
            keyword = self.lexemes[start]
            if keyword == "FUNC":
                self.advance()
                names = self.namelist()
                return FuncDecl(names, self.end_item())
            if keyword == "TYPE":
                self.advance()
                names = self.namelist()
                return TypeDecl(names, self.end_item())
            if keyword == "PRED":
                self.advance()
                head, inline_modes = self.pred_head()
                return PredDecl(head, self.end_item(), inline_modes)
            if keyword == "MODE":
                self.advance()
                name = self.expect(_NAME, "a predicate name")
                modes: List[str] = []
                if self.accept(_LPAREN):
                    modes.append(self.mode())
                    while self.accept(_COMMA):
                        modes.append(self.mode())
                    self.expect(_RPAREN, "')'")
                return ModeDecl(name, tuple(modes), self.end_item())
            raise self.error("keyword not allowed here")
        if self.accept(TokenKind.IMPLIES):
            body = self.query_goals()
            return QueryDecl(body, self.end_item())
        # Constraint or clause: both start with a term.
        lhs = self.union()
        if self.accept(TokenKind.GEQ):
            rhs = self.union()
            return ConstraintDecl(lhs, rhs, self.end_item())
        if not isinstance(lhs, Struct) or lhs.functor == UNION_TYPE:
            raise self.error("clause head must be a predicate application", start)
        body: Tuple[Struct, ...] = ()
        if self.accept(TokenKind.IMPLIES):
            # Clause bodies may carry ':' constraints too (they then opt
            # into the constrained execution model, like queries).
            body = self.query_goals()
        return ClauseDecl(lhs, body, self.end_item())

    def pred_head(self) -> Tuple[Struct, Optional[Tuple[str, ...]]]:
        """A ``PRED`` declaration head, with optional §7 inline modes.

        ``PRED p(OUT nat, IN int).`` returns ``(p(nat, int),
        ("OUT", "IN"))``; the plain form returns ``(head, None)``.
        Mixing annotated and unannotated positions is a parse error.
        """
        anchor = self.index
        name = self.expect(_NAME, "a predicate name")
        if not self.accept(_LPAREN):
            return Struct(name, ()), None
        args: List[Term] = []
        modes: List[Optional[str]] = []
        while True:
            if self.check(TokenKind.KEYWORD, "IN") or self.check(
                TokenKind.KEYWORD, "OUT"
            ):
                modes.append(self.advance())
            else:
                modes.append(None)
            args.append(self.union())
            if not self.accept(_COMMA):
                break
        self.expect(_RPAREN, "')'")
        annotated = sum(1 for mode in modes if mode is not None)
        if annotated == 0:
            return Struct(name, tuple(args)), None
        if annotated != len(modes):
            raise self.error(
                "either every PRED argument carries an IN/OUT mode or none does",
                anchor,
            )
        return Struct(name, tuple(args)), tuple(modes)  # type: ignore[arg-type]

    def mode(self) -> str:
        if self.check(TokenKind.KEYWORD, "IN") or self.check(TokenKind.KEYWORD, "OUT"):
            return self.advance()
        raise self.error("expected IN or OUT")

    def file(self) -> SourceFile:
        source = SourceFile()
        while not self.check(TokenKind.EOF):
            source.items.append(self.item())
        return source

    def expect_eof(self) -> None:
        if not self.check(TokenKind.EOF):
            raise self.error("trailing input")


# -- public entry points ----------------------------------------------------


def parse_file(text: str) -> SourceFile:
    """Parse a whole source file (declarations, clauses, queries)."""
    parser = _Parser(text)
    return parser.file()


def parse_term(text: str) -> Term:
    """Parse a single term (variables allowed, infix ``+`` allowed)."""
    parser = _Parser(text)
    term = parser.union()
    parser.expect_eof()
    return term


def parse_type(text: str) -> Term:
    """Parse a type expression — alias of :func:`parse_term` (Definition 1:
    a type is just a term over ``F ∪ T``)."""
    return parse_term(text)


def parse_atom(text: str) -> Struct:
    """Parse a single atom (predicate application)."""
    parser = _Parser(text)
    result = parser.atom()
    parser.expect_eof()
    return result


def parse_clause(text: str) -> ClauseDecl:
    """Parse a single program clause ``h :- b.`` or fact ``h.``"""
    parser = _Parser(text)
    item = parser.item()
    parser.expect_eof()
    if not isinstance(item, ClauseDecl):
        raise parser.error("expected a program clause")
    return item


def parse_query(text: str) -> QueryDecl:
    """Parse a single query ``:- b1, ..., bk.``"""
    parser = _Parser(text)
    item = parser.item()
    parser.expect_eof()
    if not isinstance(item, QueryDecl):
        raise parser.error("expected a query")
    return item
