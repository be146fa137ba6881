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

from typing import List, Optional, Tuple

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
from .lexer import Token, TokenKind, tokenize

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
]


class ParseError(Exception):
    """Raised on any syntax error; carries the offending position."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"{token.line}:{token.column}: {message} (found {token.text!r})")
        self.token = token


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.index = 0
        self.previous: Token = self.tokens[0]

    # -- token plumbing ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != TokenKind.EOF:
            self.index += 1
        self.previous = token
        return token

    def _span(self, start: Token) -> Position:
        """The source range from ``start`` through the last consumed token."""
        end = self.previous
        return Position(start.line, start.column, end.end_line, end.end_column)

    def check(self, kind: str, text: str = "") -> bool:
        token = self.current
        return token.kind == kind and (not text or token.text == text)

    def accept(self, kind: str, text: str = "") -> bool:
        if self.check(kind, text):
            self.advance()
            return True
        return False

    def expect(self, kind: str, what: str) -> Token:
        if not self.check(kind):
            raise ParseError(f"expected {what}", self.current)
        return self.advance()

    # -- terms -------------------------------------------------------------

    def union(self) -> Term:
        """A ``union``: ``+``-joined primaries, left associative."""
        return self._term([])

    def atom(self) -> Struct:
        """A predicate application ``name`` or ``name(union, ...)``."""
        token = self.current
        if token.kind != TokenKind.NAME:
            raise ParseError("expected an atom (predicate application)", token)
        if self.tokens[self.index + 1].kind != TokenKind.LPAREN:
            self.advance()
            return Struct(token.text, ())
        self.index += 2
        return self._term([(token.text, [], None)])  # type: ignore[return-value]

    def _term(self, frames: List[_Frame]) -> Term:
        """Parse a union, or with one open application frame in ``frames``
        (its ``name(`` already consumed) the rest of that application.

        One loop over an explicit stack of open frames, so nesting costs
        heap rather than interpreter frames and has no depth limit.
        """
        tokens = self.tokens
        i = self.index
        whole_atom = bool(frames)
        left: Optional[Term] = None  # pending left '+' operand at this level
        while True:
            token = tokens[i]
            kind = token.kind
            i += 1
            if kind == TokenKind.NAME:
                if tokens[i].kind == TokenKind.LPAREN:
                    frames.append((token.text, [], left))
                    left = None
                    i += 1
                    continue
                term: Term = Struct(token.text, ())
            elif kind == TokenKind.VARIABLE:
                term = Var(token.text)
            elif kind == TokenKind.LPAREN:
                frames.append((None, None, left))
                left = None
                continue
            else:
                raise ParseError("expected a term", token)
            # A primary is complete: fold it into its level's union, then
            # close each frame that the following ')' tokens end.
            while True:
                if left is not None:
                    term = Struct(UNION_TYPE, (left, term))
                kind = tokens[i].kind
                if kind == TokenKind.PLUS:
                    left = term
                    i += 1
                    break
                if not frames:
                    self.index = i
                    self.previous = tokens[i - 1]
                    return term
                functor, args, left = frames[-1]
                if kind == TokenKind.COMMA and args is not None:
                    args.append(term)
                    left = None
                    i += 1
                    break
                if kind != TokenKind.RPAREN:
                    raise ParseError("expected ')'", tokens[i])
                i += 1
                frames.pop()
                if args is not None:
                    args.append(term)
                    term = Struct(functor, tuple(args))  # type: ignore[arg-type]
                    if whole_atom and not frames:
                        self.index = i
                        self.previous = tokens[i - 1]
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
        token = self.current
        functor = self._INFIX_GOALS.get(token.kind)
        if functor is None and token.kind == TokenKind.NAME and token.text == "is":
            functor = "is"
        if functor is not None:
            self.advance()
            return Struct(functor, (lhs, self.union()))
        if not isinstance(lhs, Struct) or lhs.functor == UNION_TYPE:
            raise ParseError("expected an atom or a ':' type constraint", token)
        return lhs

    def query_goals(self) -> Tuple[Struct, ...]:
        out = [self.query_goal()]
        while self.accept(TokenKind.COMMA):
            out.append(self.query_goal())
        return tuple(out)

    # -- items -------------------------------------------------------------

    def namelist(self) -> Tuple[str, ...]:
        names = [self.expect(TokenKind.NAME, "a symbol name").text]
        while self.accept(TokenKind.COMMA):
            names.append(self.expect(TokenKind.NAME, "a symbol name").text)
        return tuple(names)

    def item(self) -> Item:
        token = self.current
        if token.kind == TokenKind.KEYWORD:
            if token.text == "FUNC":
                self.advance()
                names = self.namelist()
                self.expect(TokenKind.DOT, "'.'")
                return FuncDecl(names, self._span(token))
            if token.text == "TYPE":
                self.advance()
                names = self.namelist()
                self.expect(TokenKind.DOT, "'.'")
                return TypeDecl(names, self._span(token))
            if token.text == "PRED":
                self.advance()
                head, inline_modes = self.pred_head()
                self.expect(TokenKind.DOT, "'.'")
                return PredDecl(head, self._span(token), inline_modes)
            if token.text == "MODE":
                self.advance()
                name = self.expect(TokenKind.NAME, "a predicate name").text
                modes: List[str] = []
                if self.accept(TokenKind.LPAREN):
                    modes.append(self.mode())
                    while self.accept(TokenKind.COMMA):
                        modes.append(self.mode())
                    self.expect(TokenKind.RPAREN, "')'")
                self.expect(TokenKind.DOT, "'.'")
                return ModeDecl(name, tuple(modes), self._span(token))
            raise ParseError("keyword not allowed here", token)
        if self.accept(TokenKind.IMPLIES):
            body = self.query_goals()
            self.expect(TokenKind.DOT, "'.'")
            return QueryDecl(body, self._span(token))
        # Constraint or clause: both start with a term.
        lhs = self.union()
        if self.accept(TokenKind.GEQ):
            rhs = self.union()
            self.expect(TokenKind.DOT, "'.'")
            return ConstraintDecl(lhs, rhs, self._span(token))
        if not isinstance(lhs, Struct) or lhs.functor == UNION_TYPE:
            raise ParseError("clause head must be a predicate application", token)
        body: Tuple[Struct, ...] = ()
        if self.accept(TokenKind.IMPLIES):
            # Clause bodies may carry ':' constraints too (they then opt
            # into the constrained execution model, like queries).
            body = self.query_goals()
        self.expect(TokenKind.DOT, "'.'")
        return ClauseDecl(lhs, body, self._span(token))

    def pred_head(self) -> Tuple[Struct, Optional[Tuple[str, ...]]]:
        """A ``PRED`` declaration head, with optional §7 inline modes.

        ``PRED p(OUT nat, IN int).`` returns ``(p(nat, int),
        ("OUT", "IN"))``; the plain form returns ``(head, None)``.
        Mixing annotated and unannotated positions is a parse error.
        """
        anchor = self.current
        name = self.expect(TokenKind.NAME, "a predicate name").text
        if not self.accept(TokenKind.LPAREN):
            return Struct(name, ()), None
        args: List[Term] = []
        modes: List[Optional[str]] = []
        while True:
            if self.check(TokenKind.KEYWORD, "IN") or self.check(
                TokenKind.KEYWORD, "OUT"
            ):
                modes.append(self.advance().text)
            else:
                modes.append(None)
            args.append(self.union())
            if not self.accept(TokenKind.COMMA):
                break
        self.expect(TokenKind.RPAREN, "')'")
        annotated = sum(1 for mode in modes if mode is not None)
        if annotated == 0:
            return Struct(name, tuple(args)), None
        if annotated != len(modes):
            raise ParseError(
                "either every PRED argument carries an IN/OUT mode or none does",
                anchor,
            )
        return Struct(name, tuple(args)), tuple(modes)  # type: ignore[arg-type]

    def mode(self) -> str:
        token = self.current
        if token.kind == TokenKind.KEYWORD and token.text in ("IN", "OUT"):
            self.advance()
            return token.text
        raise ParseError("expected IN or OUT", token)

    def file(self) -> SourceFile:
        source = SourceFile()
        while not self.check(TokenKind.EOF):
            source.items.append(self.item())
        return source

    def expect_eof(self) -> None:
        if not self.check(TokenKind.EOF):
            raise ParseError("trailing input", self.current)


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
        raise ParseError("expected a program clause", parser.current)
    return item


def parse_query(text: str) -> QueryDecl:
    """Parse a single query ``:- b1, ..., bk.``"""
    parser = _Parser(text)
    item = parser.item()
    parser.expect_eof()
    if not isinstance(item, QueryDecl):
        raise ParseError("expected a query", parser.current)
    return item
