"""S-expression reader: source text to a small abstract syntax tree.

The surface syntax is minimal Lisp: parenthesized lists, bare atoms,
signed integer literals, and line comments introduced by ``;``.  The
empty list ``()`` reads as the atom ``nil``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

__all__ = [
    "Token",
    "SExpr",
    "Atom",
    "IntLiteral",
    "ListExpr",
    "tokenize",
    "parse_program",
    "parse_one",
]


@dataclass(frozen=True)
class Token:
    """One lexeme with its character offset in the source."""

    text: str
    position: int


class SExpr:
    """Base class for parsed expressions."""


@dataclass(frozen=True)
class Atom(SExpr):
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


@dataclass(frozen=True)
class IntLiteral(SExpr):
    value: int

    def __repr__(self) -> str:
        return f"IntLiteral({self.value})"


@dataclass(frozen=True)
class ListExpr(SExpr):
    items: tuple[SExpr, ...]

    def __repr__(self) -> str:
        return f"ListExpr({list(self.items)!r})"


_TOKEN_RE = re.compile(r"\(|\)|;[^\n]*|[^\s();]+")
_INT_RE = re.compile(r"^[+-]?\d+$")


def tokenize(source: str) -> list[Token]:
    """Split source into parens and atoms; comments run ``;`` to newline.

    Unbalanced parentheses are not detected here; the parser reports them
    with positions.
    """
    tokens = []
    for match in _TOKEN_RE.finditer(source):
        text = match.group(0)
        if text.startswith(";"):
            continue
        tokens.append(Token(text, match.start()))
    return tokens


def _atom_from(token: Token) -> SExpr:
    if _INT_RE.match(token.text):
        try:
            return IntLiteral(int(token.text))
        except ValueError:  # past Python's int-conversion digit limit
            raise ParseError(
                f"integer literal of {len(token.text)} characters is too long",
                token.position,
            ) from None
    return Atom(token.text)


class _Parser:
    def __init__(self, tokens: list[Token], source_len: int) -> None:
        self._tokens = tokens
        self._pos = 0
        self._source_len = source_len

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expression(self) -> SExpr:
        """One form.

        Open lists wait on an explicit stack, so nesting depth is bounded
        by memory rather than by the Python stack.
        """
        open_lists: list[list[SExpr]] = []
        while True:
            if self.at_end():
                if open_lists:
                    raise ParseError("unbalanced parenthesis", self._source_len)
                raise ParseError("unexpected end of input", self._source_len)
            tok = self._next()
            if tok.text == "(":
                open_lists.append([])
                continue
            if tok.text != ")":
                expr = _atom_from(tok)
            elif not open_lists:
                raise ParseError("unexpected )", tok.position)
            else:
                items = open_lists.pop()
                expr = ListExpr(tuple(items)) if items else Atom("nil")
            if not open_lists:
                return expr
            open_lists[-1].append(expr)


def parse_program(source: str) -> list[SExpr]:
    """All top-level forms of ``source``, in order."""
    parser = _Parser(tokenize(source), len(source))
    forms: list[SExpr] = []
    while not parser.at_end():
        forms.append(parser.expression())
    return forms


def parse_one(source: str) -> SExpr:
    """Exactly one form; trailing tokens are an error."""
    parser = _Parser(tokenize(source), len(source))
    expr = parser.expression()
    if not parser.at_end():
        tok = parser._peek()
        raise ParseError(f"trailing token {tok.text!r}", tok.position)
    return expr
