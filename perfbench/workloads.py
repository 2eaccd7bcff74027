"""Seeded workloads for the phasorlisp benchmark, with their expected output.

A workload is a sequence of session plans.  Each plan is a list of
top-level forms evaluated in one fresh ``Session`` with the default
``Config``, plus one check form evaluated after a save/restore round trip
of that session.  Every form carries the exact string the session should
print for it, computed here in plain Python.  This module must not import
phasorlisp: the expected output is a reference the interpreter is checked
against, not something it produced.

The seed chooses literal values, list contents and which defined name a
read touches.  It never chooses sizes, recursion depths or the form mix,
so the work a run does is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Product of the default moduli (3, 5, 7): integers wrap at this range.
RANGE = 3 * 5 * 7

#: Largest magnitude of an integer literal; the whole display window.
MAX_LITERAL = RANGE // 2

#: Plain symbols for data.  None of them is a keyword, constant or
#: primitive, and none collides with a name the workloads define.
SYMBOLS = tuple(f"s{i}" for i in range(100))


def show(x: int) -> str:
    """How a session prints the integer ``x``: mod RANGE, symmetric window."""
    x %= RANGE
    return str(x if x < (RANGE + 1) // 2 else x - RANGE)


def show_list(items: list[str]) -> str:
    return "(" + " ".join(items) + ")"


def quoted(items: list[str]) -> str:
    return "(quote " + show_list(items) + ")"


@dataclass(frozen=True)
class Form:
    source: str
    expected: str


@dataclass(frozen=True)
class SessionPlan:
    forms: tuple[Form, ...]
    #: evaluated on the session restored from a save of this one
    check: Form


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], SessionPlan]
    #: sessions in the fixed traced pass
    traced_sessions: int

    def plan(self, seed: int, index: int | str) -> SessionPlan:
        return self.make(random.Random(f"{self.name}:{seed}:{index}"))


# -- programs: integer closure recursion, decode-heavy -------------------

PROGRAM_DEFINES = (
    ("fact", "(define fact (lambda (n) (cond ((eq? n 0) 1) "
             "(t (* n (fact (- n 1)))))))"),
    ("fib", "(define fib (lambda (n) (cond ((eq? n 0) 0) ((eq? n 1) 1) "
            "(t (+ (fib (- n 1)) (fib (- n 2)))))))"),
    ("length", "(define length (lambda (l) (cond ((eq? l nil) 0) "
               "(t (+ 1 (length (cdr l)))))))"),
    ("sum", "(define sum (lambda (l) (cond ((eq? l nil) 0) "
            "(t (+ (car l) (sum (cdr l)))))))"),
)
PROGRAM_ROUNDS = 3
LENGTH_ITEMS = 6
SUM_ITEMS = 4


def _fact(n: int) -> int:
    return 1 if n == 0 else n * _fact(n - 1)


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _literal(rng: random.Random) -> int:
    return rng.randint(-MAX_LITERAL, MAX_LITERAL)


def programs_session(rng: random.Random) -> SessionPlan:
    """Four defines, then three rounds of one call to each closure.

    Four call kinds in equal shares, behind a quarter of cheap defines,
    keep the median and the 90th percentile inside a cluster of like
    forms instead of on the edge between two.
    """
    forms = [Form(src, name) for name, src in PROGRAM_DEFINES]
    symbols = rng.sample(SYMBOLS, PROGRAM_ROUNDS * LENGTH_ITEMS)
    for r in range(PROGRAM_ROUNDS):
        a = _literal(rng)
        forms.append(Form(f"(+ {a} (fact 4))", show(a + _fact(4))))
        b = _literal(rng)
        forms.append(Form(f"(- (fib 4) {b})", show(_fib(4) - b)))
        items = symbols[r * LENGTH_ITEMS:(r + 1) * LENGTH_ITEMS]
        forms.append(Form(f"(length {quoted(items)})", show(len(items))))
        nums = [_literal(rng) for _ in range(SUM_ITEMS)]
        forms.append(
            Form(f"(sum {quoted([str(x) for x in nums])})", show(sum(nums)))
        )
    return SessionPlan(tuple(forms), check=forms[len(PROGRAM_DEFINES)])


# -- lists: symbol-only list recursion, no integer anywhere --------------

LIST_DEFINES = (
    ("append", "(define append (lambda (a b) (cond ((eq? a nil) b) "
               "(t (cons (car a) (append (cdr a) b))))))"),
    ("revacc", "(define revacc (lambda (l acc) (cond ((eq? l nil) acc) "
               "(t (revacc (cdr l) (cons (car l) acc))))))"),
    ("reverse", "(define reverse (lambda (l) (revacc l nil)))"),
    ("member", "(define member (lambda (x l) (cond ((eq? l nil) f) "
               "((eq? x (car l)) t) (t (member x (cdr l))))))"),
)
LIST_ROUNDS = 3
#: symbols one round uses: append 3 + 2, reverse 4, hit 4, miss 4 + 1
LIST_ROUND_SYMBOLS = 18
#: the searched symbol sits at this index of the hit list
HIT_INDEX = 2


def lists_session(rng: random.Random) -> SessionPlan:
    """Four defines, then three rounds of append, reverse and two searches.

    All symbols of a session are distinct, so the number of interned
    symbols, and with it memory size, is the same for every seed.
    """
    forms = [Form(src, name) for name, src in LIST_DEFINES]
    pool = rng.sample(SYMBOLS, LIST_ROUNDS * LIST_ROUND_SYMBOLS)
    for r in range(LIST_ROUNDS):
        s = pool[r * LIST_ROUND_SYMBOLS:(r + 1) * LIST_ROUND_SYMBOLS]
        front, back = s[0:3], s[3:5]
        forms.append(Form(f"(append {quoted(front)} {quoted(back)})",
                          show_list(front + back)))
        rev = s[5:9]
        forms.append(Form(f"(reverse {quoted(rev)})", show_list(rev[::-1])))
        hit = s[9:13]
        forms.append(Form(f"(member (quote {hit[HIT_INDEX]}) {quoted(hit)})",
                          "t"))
        miss, absent = s[13:17], s[17]
        forms.append(Form(f"(member (quote {absent}) {quoted(miss)})", "f"))
    return SessionPlan(tuple(forms), check=forms[len(LIST_DEFINES) + 1])


# -- repl: one long session, half writes, half reads ---------------------

#: rounds of eight forms after the opening define; the session ages to
#: roughly two thousand memory entries
REPL_ROUNDS = 40
#: small on purpose: every symbol is interned early, so later writes add
#: only chunks and the entry count does not depend on the seed
REPL_SYMBOLS = SYMBOLS[:24]
ARITH_MAX = 30


def repl_session(rng: random.Random) -> SessionPlan:
    """A closure define, then rounds of write, read, write, read, ...

    Writes define a three-element quoted list (symbol, integer, symbol).
    The four reads of a round are ``car``, ``cdr``, a call of the
    closure, and one ``+`` or ``-`` of two literals, in that order.
    """
    forms = [Form("(define second (lambda (l) (car (cdr l))))", "second")]
    data: list[tuple[str, int, str]] = []
    for r in range(REPL_ROUNDS):
        for read in ("car", "cdr", "call", "arith"):
            a, c = rng.choice(REPL_SYMBOLS), rng.choice(REPL_SYMBOLS)
            n = _literal(rng)
            name = f"d{len(data)}"
            data.append((a, n, c))
            forms.append(
                Form(f"(define {name} (quote ({a} {n} {c})))", name)
            )
            j = rng.randrange(len(data))
            a, n, c = data[j]
            if read == "car":
                forms.append(Form(f"(car d{j})", a))
            elif read == "cdr":
                forms.append(Form(f"(cdr d{j})", show_list([show(n), c])))
            elif read == "call":
                forms.append(Form(f"(second d{j})", show(n)))
            else:
                x, y = (rng.randint(-ARITH_MAX, ARITH_MAX) for _ in range(2))
                op, val = ("+", x + y) if r % 2 == 0 else ("-", x - y)
                forms.append(Form(f"({op} {x} {y})", show(val)))
    last = len(data) - 1
    check = Form(f"(second d{last})", show(data[last][1]))
    return SessionPlan(tuple(forms), check=check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("programs", programs_session, traced_sessions=2),
        Workload("lists", lists_session, traced_sessions=2),
        Workload("repl", repl_session, traced_sessions=1),
    )
}
