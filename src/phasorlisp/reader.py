"""S-expression reader: source text to a small abstract syntax tree.

The surface syntax is minimal Lisp 1.5: parenthesized lists, bare atoms,
signed integer literals, dot notation, and line comments introduced by
``;``.  The empty list ``()`` reads as the atom ``nil``.  A ``.`` token
inside a list, after at least one item and before exactly one more,
gives the list that last item as its tail: ``(a b . c)`` is the chain of
cells ``a`` and ``b`` ending in ``c`` instead of ``nil``, and
``(a . (b c))`` and ``(a . ())`` read as ``(a b c)`` and ``(a)``.  A ``.``
anywhere else is a parse error at its offset; ``a.b``, ``eval.`` and
``.5`` are one token each and read as symbols.

One generator walks the tokens once and yields each top-level form with
the index of the token after it, so that ``parse_program`` and
``parse_one`` share one loop and ``parse_one`` reports the first token it
does not read.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
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
    """A list as the reader makes it: one or more items, and ``tail``,
    the atom other than ``nil`` a dotted list ends in, or ``None`` for a
    proper list, which ends in ``nil``.  A dotted tail that is a list or
    ``nil`` is folded into the items, so one S-expression has one form."""

    items: tuple[SExpr, ...]
    tail: SExpr | None = None

    def __repr__(self) -> str:
        tail = "" if self.tail is None else f", tail={self.tail!r}"
        return f"ListExpr({list(self.items)!r}{tail})"


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


def _forms(tokens: list[Token]) -> Iterator[tuple[SExpr, int]]:
    """Each top-level form of ``tokens``, with the index of the token after it.

    Open lists wait on an explicit stack, so nesting depth is bounded by
    memory rather than by the Python stack.  Each frame is headed by the
    token that opened it: a ``(``, or a ``.`` after an item, whose frame
    takes the list's tail and leaves the stack with it when the list
    closes.  Input that ends inside a list reports its innermost open
    ``(``.
    """
    open_lists: list[tuple[Token, list]] = []
    for i, tok in enumerate(tokens):
        if tok.text == ".":
            # only after an item, in a list that holds no dot yet
            head, items = open_lists[-1] if open_lists else (tok, [])
            if not items or head.text == ".":
                raise ParseError("unexpected .", tok.position)
        if tok.text in ("(", "."):
            open_lists.append((tok, []))
            continue
        if tok.text != ")":
            expr = _atom_from(tok)
        elif not open_lists:
            raise ParseError("unexpected )", tok.position)
        else:
            head, items = open_lists.pop()
            tail = None
            if head.text == ".":
                if len(items) != 1:
                    raise ParseError("unexpected .", head.position)
                tail, items = items[0], open_lists.pop()[1]
                # one S-expression, one form: (a . (b . c)) is (a b . c),
                # and (a . nil) is (a)
                if isinstance(tail, ListExpr):
                    items, tail = items + list(tail.items), tail.tail
                elif tail == Atom("nil"):
                    tail = None
            expr = ListExpr(tuple(items), tail) if items else Atom("nil")
        if open_lists:
            open_lists[-1][1].append(expr)
        else:
            yield expr, i + 1
    if open_lists:
        head = next(h for h, _ in reversed(open_lists) if h.text == "(")
        raise ParseError("unbalanced parenthesis", head.position)


def parse_program(source: str) -> list[SExpr]:
    """All top-level forms of ``source``, in order."""
    return [form for form, _ in _forms(tokenize(source))]


def parse_one(source: str) -> SExpr:
    """Exactly one form; trailing tokens are an error."""
    tokens = tokenize(source)
    for form, end in _forms(tokens):
        if end < len(tokens):
            tok = tokens[end]
            raise ParseError(f"trailing token {tok.text!r}", tok.position)
        return form
    raise ParseError("unexpected end of input", len(source))
