"""A Lisp whose every value is a complex phasor hypervector.

Programs are parsed to S-expressions, encoded into the phasor algebra
(integers as residue codes plus a type tag, symbols as interned random
vectors, lists as tagged role-filler chunks behind pointer symbols), and
evaluated entirely over vectors: the evaluator recovers structure by
dereferencing pointers, unbinding roles, and cleaning up through memory.

Special forms: quote, cond, lambda, define.  Primitives: cons, car, cdr,
atom?, eq?, int?, and binary +, -, *, /.  Arithmetic is carry-free
modular arithmetic over the configured moduli; conditionals and equality
are similarity tests against the threshold theta.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import (
    ArityError,
    ConfigError,
    DanglingPointerError,
    DecodeError,
    EvalError,
    InvalidModuliError,
    LispTypeError,
    NoMatchError,
    NotApplicableError,
    RecursionDepthError,
    SessionIOError,
    UnboundSymbolError,
)
from .fhrr import bind, new_rng, normalize, random_symbol, similarity, unbind
from .memory import CleanupMemory, Environment
from .reader import Atom, IntLiteral, ListExpr, SExpr, parse_program
from .residue import (
    DECODE_METHODS,
    ModuliSet,
    ResidueCodebook,
    add_bind,
    decode_residue,
    div_bind,
    encode_residue,
    make_codebook,
    mul_bind,
    nearest_code,
)

__all__ = ["Config", "Resolved", "Session", "SPECIAL_FORMS", "PRIMITIVES"]

SPECIAL_FORMS = ("quote", "cond", "lambda", "define")

#: primitive name -> (argument count, ``Session`` method that applies it);
#: the one list of primitives, all fixed-arity
PRIMITIVES = {
    "cons": (2, "cons"),
    "car": (1, "car"),
    "cdr": (1, "cdr"),
    "atom?": (1, "prim_atom"),
    "eq?": (2, "prim_eq"),
    "int?": (1, "prim_int_test"),
    "+": (2, "prim_add"),
    "-": (2, "prim_sub"),
    "*": (2, "prim_mul"),
    "/": (2, "prim_div"),
}

#: name of the memory entry that stores the bare integer type tag
_INT_NAME = "int"
_ROLE_NAMES = ("#head", "#tail", "#params", "#body", "#env")
_TAG_NAMES = ("#cons", "#lambda")
#: name of the global scope's handle
_GLOBAL = "env-0"
#: name and kind of each bootstrap entry drawn after the codebook, in order
_DRAWN = (
    *((name, "symbol") for name in ("t", "f", "nil")),
    *((name, "role") for name in _ROLE_NAMES + _TAG_NAMES),
    (_GLOBAL, "env"),
)

#: name prefix of a top-level form's spine cells; see ``Session.encode``
_SPINE = "code"

#: The first bytes of a session file; see ``Session.save``
_MAGIC = b"RHC2"

#: Kinds of the memory rows a session file names by stream position.
_ROW_KINDS = ("symbol", "pointer", "env")

#: Slack of ``_MODULUS_BOUND`` for float64 rounding: a drawn row's
#: components lie within a few ulps of modulus 1.
_UNIT_TOL = 1e-9

#: Entry prefix -> most a restored vector's component may reach in
#: modulus, past ``_UNIT_TOL``.  A value a session binds is a unit row, or
#: an integer code (a unit row) plus the unit tag: at most 2.  A chunk is
#: the unit tag plus one role binding per part, and at most two of its
#: fillers are values that are not unit rows (both parts of ``(cons 1 2)``,
#: the body of ``(lambda (x) 5)``): at most 1 + 2 + 2 = 5.
_MODULUS_BOUND = {"bind": 2.0, "chunk": 5.0}

#: Most runtime values one session keeps resolved; the least recently used
#: goes first.  A key is a whole vector's bytes (16 KB at dim 1000).
VALUE_MEMO_SIZE = 64


@dataclass(frozen=True)
class Config:
    """Session parameters.

    ``decode`` selects the integer readout: ``resonator`` factorizes per
    modulus and reassembles via the CRT, ``exhaustive`` scores every
    code of the range with one FFT.
    """

    dim: int = 1000
    moduli: tuple[int, ...] = (3, 5, 7)
    theta: float = 0.2
    seed: int = 42
    decode: str = "resonator"

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(m) for m in self.moduli))
        if self.dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dim}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if self.decode not in DECODE_METHODS:
            raise ConfigError(f"unknown decode method {self.decode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Resolved:
    """A vector snapped back to what the session knows it to be.

    ``kind`` is one of int, bool, nil, symbol, cons, lambda, pointer,
    env, role, or unknown.  A pointer whose chunk carries the ``#cons`` or
    ``#lambda`` tag resolves as ``cons`` or ``lambda``; ``pointer`` is left
    for a chunk with neither.  ``vector`` is the exact stored (or
    re-encoded) form, free of the noise the query may have carried, and
    read-only unless the kind is ``unknown``.
    ``similarity`` is the recall score of the winning memory entry, or
    ``None`` for an integer or an unknown vector.  The evaluator hands
    code from step to step as ``Resolved``, and the session's memos hand
    out the very ``Resolved`` they stored (see
    ``Session._memoized_resolve``).
    """

    kind: str
    name: str | None
    value: int | None
    vector: np.ndarray
    similarity: float | None = None


@contextmanager
def _depth_guard(what: str) -> Iterator[None]:
    """Report Python stack exhaustion as the typed ``depth`` error."""
    try:
        yield
    except RecursionError:
        raise RecursionDepthError(
            f"{what} nested too deeply for the Python stack"
        ) from None


#: Rows per complex128 block of a stream.  A block is never reallocated,
#: so a row handed out keeps no dropped buffer alive.  Blocks rather than
#: one copy per row: storing every row as its own array read 3-4% more
#: peak RSS on the ``repl`` and ``lists`` benchmarks.
_BLOCK_ROWS = 64


class _Stream:
    """A session's codebook and the rows of the generator stream after it,
    by stream position, each drawn once.

    Row p is the ``random_symbol`` that the generator in ``state`` makes
    after p draws of ``dim`` doubles.  PCG64 spends one 64-bit output per
    double, so ``advance(p * dim)`` from ``state`` reaches p, whatever
    positions were drawn or skipped before: a row is a pure function of
    (state, dim, p), and every owner of the stream reads the same bytes
    at p.  A missing row is drawn under the lock, from the generator set
    to ``state`` and advanced to p, which costs a small part of the draw
    itself; it is written into the next free row of a block before it is
    published, and handed out read-only, and a draw that fails stores
    nothing.  A position no owner asks for is never drawn, and takes no
    room.  The stream keeps every row it drew for as long as anything
    holds it: a thread keeps the stream of the last key it built a
    session of (see ``_start``), and every session keeps its own.
    """

    def __init__(self, codebook: ResidueCodebook, rng: np.random.Generator) -> None:
        self.codebook = codebook
        self.dim = codebook.dim
        #: the generator's ``bit_generator.state`` at position 0
        self.state = rng.bit_generator.state
        self._rng = rng
        self._lock = threading.Lock()
        #: position -> read-only row, for every position drawn so far
        self._rows: dict[int, np.ndarray] = {}
        #: the block rows are being written to, in the order they are
        #: drawn, and its read-only view
        self._block: np.ndarray | None = None
        self._frozen: np.ndarray | None = None

    def row(self, p: int) -> np.ndarray:
        """The read-only row at stream position ``p``."""
        row = self._rows.get(p)
        if row is not None:
            return row
        with self._lock:
            row = self._rows.get(p)
            if row is None:
                bits = self._rng.bit_generator
                bits.state = self.state
                bits.advance(p * self.dim)
                drawn = random_symbol(self._rng, self.dim)
                i = len(self._rows) % _BLOCK_ROWS
                if i == 0:
                    shape = (_BLOCK_ROWS, self.dim)
                    self._block = np.empty(shape, dtype=np.complex128)
                    self._frozen = self._block.view()
                    self._frozen.flags.writeable = False
                self._block[i] = drawn
                row = self._rows[p] = self._frozen[i]
        return row


#: each thread's (key, stream) of the last session it built, fresh or
#: restored; see ``Session``
_streams = threading.local()


def _start(config: Config) -> _Stream:
    """This thread's stream for ``config``, built if its key is new."""
    key = (config.dim, config.moduli, config.seed)
    last = getattr(_streams, "last", None)
    if last is not None and last[0] == key:
        return last[1]
    rng = new_rng(config.seed)
    stream = _Stream(make_codebook(ModuliSet(config.moduli), config.dim, rng), rng)
    # drawn here, so that a stream whose rows cannot be drawn is not kept
    for p in range(len(_DRAWN)):
        stream.row(p)
    _streams.last = key, stream
    return stream


class Session:
    """One interpreter world: codebook, memory, environments, evaluator.

    All evaluation happens over vectors; host Python holds names,
    environment frames, the chunk inventory, and the memos of what chunk
    roles and runtime values read as.

    A session is built by ``_setup`` from a ``_Stream``: a codebook and
    the rows of the generator stream after it.  A fresh session's stream
    is fixed by its key (dim, moduli, seed), its codebook drawn from
    ``new_rng(seed)``.  Each thread builds a key's stream once and keeps
    the last one it built; a session of another key replaces it.  So
    every fresh session of a key shares its codebook, with the class
    tables, factor books and decode memo its earlier sessions built, and
    every row they drew.  A restored session is built the same way, from
    the key its file holds (see ``restore``).

    Every fresh vector a session stores (a symbol, a pointer, a scope
    handle, a bootstrap entry) is the stream's row at the session's draw
    counter, which then moves on by one; a spine cell that a form takes
    again moves it on too, as the draw it skips.  The 12 bootstrap
    entries are the integer tag as ``int`` and then, at positions 0-10,
    the boolean and nil constants, the chunk roles and tags, and the
    global scope handle.  That is exact.  The codebook is a pure function
    of the key, and a row of the key's stream a pure function of the key
    and its position, so every vector a session stores is the one a cold
    session stores; the codebook's caches are pure functions of its phase
    tables; and a decode reading is a pure function of (method, dtype,
    bytes), because restarts use fixed seeds.  So every vector,
    transcript and saved byte equals a cold session's.  ``theta`` and
    ``decode`` enter neither the codebook nor the rows.  Nothing shared
    can be written: the phase tables, the tag and the rows are read-only,
    and memory keeps a read-only row by reference, so the sessions of a
    key hold one copy of each row.
    """

    def __init__(self, config: Config | None = None) -> None:
        config = config if config is not None else Config()
        try:
            self._setup(config, _start(config))
            self._bootstrap()
        except MemoryError:
            raise ConfigError(
                f"a session at dimension {config.dim} needs more memory than "
                f"is available"
            ) from None

    # -- construction ---------------------------------------------------

    def _setup(self, config: Config, stream: _Stream) -> None:
        """A fresh or restored session's fields, memory empty."""
        self.config = config
        self.codebook = stream.codebook
        self.moduli = self.codebook.moduli
        #: the stream every fresh vector comes from, and the position of
        #: the next one
        self._stream = stream
        self._drawn = 0
        #: entry name -> the stream position of its row; see _draw
        self._positions: dict[str, int] = {}
        self.memory = CleanupMemory(config.dim)
        self.environments: dict[str, Environment] = {}
        self.display_raw = False
        #: name prefix -> lowest number the next cell-, closure-, env- or
        #: code- entry may take; a restored session starts from 0 and skips
        #: what it holds, and code- restarts from 0 each form
        self._counts = {"cell": 0, "closure": 0, "env": 0, _SPINE: 0}
        #: spine cell name -> the chunk it names in the latest form that
        #: stored one; the cell's pointer is its memory row (_spine_pointer)
        self._spine: dict[str, np.ndarray] = {}
        #: (written-once chunk name, role) -> (reading, memory rows then);
        #: see _unbind_role
        self._readings: dict[tuple[str, str], tuple[Resolved, int]] = {}
        #: exact value bytes -> (reading, memory rows then); see
        #: _resolve_value
        self._values: dict[bytes, tuple[Resolved, int]] = {}

    def _bootstrap(self) -> None:
        self.memory.add(_INT_NAME, self.codebook.tag, kind="role")
        for name, kind in _DRAWN:
            self._mint(name, kind)
        self.global_env = self.environments[_GLOBAL] = Environment()
        self.global_env.handle = _GLOBAL

    def _draw(self, name: str) -> np.ndarray:
        """The next fresh random vector of the session's stream, read-only,
        for entry ``name``, whose position it records for ``save``."""
        row = self._stream.row(self._drawn)
        self._positions[name] = self._drawn
        self._drawn += 1
        return row

    def _mint(self, name: str, kind: str) -> None:
        """Store a fresh random vector under ``name``."""
        self.memory.add(name, self._draw(name), kind=kind)

    def _next_name(self, prefix: str) -> str:
        """Lowest free ``<prefix>-<n>``, past any stored entry of that name
        but a spine cell, which every form takes again."""
        n = self._counts[prefix]
        name = f"{prefix}-{n}"
        while name in self.memory and name not in self._spine:
            n += 1
            name = f"{prefix}-{n}"
        self._counts[prefix] = n + 1
        return name

    def _register_env(self, env: Environment) -> str:
        name = self._next_name("env")
        self._mint(name, "env")
        self.environments[name] = env
        env.handle = name
        return name

    def _handle_for(self, env: Environment) -> str:
        if env.handle is None:
            self._register_env(env)
        return env.handle

    # -- convenient vector accessors ------------------------------------

    @property
    def int_tag(self) -> np.ndarray:
        return self.codebook.tag

    def symbol(self, name: str) -> np.ndarray:
        """Interned vector for ``name``, minting a fresh one if unknown.

        The name of a pointer, scope handle or role is reserved: a program
        that names one would forge a reference to it.  That includes a
        spine cell ``code-<n>`` once a form has stored it, as it does a
        ``cell-<n>``, and ``int``, the role entry that stores the integer
        type tag.
        """
        if name not in self.memory:
            self._mint(name, "symbol")
        elif self.memory.kind(name) != "symbol":
            raise EvalError(f"{name!r} names an internal entry, not a symbol")
        return self.memory.vector(name)

    def _role(self, name: str) -> np.ndarray:
        return self.memory.vector(name)

    # -- encoding -------------------------------------------------------

    def encode_int(self, x: int) -> np.ndarray:
        """Residue code of x with the integer type tag superposed.

        The code is read-only: an integer reading hands it out as its
        ``Resolved.vector``, and the session's memos hand that reading out
        again on every hit.
        """
        code = encode_residue(self.codebook, x) + self.int_tag
        code.flags.writeable = False
        return code

    def cons(self, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Store a pair chunk and return its fresh pointer symbol."""
        return self._store_chunk("cell", "#cons", ("#head", head), ("#tail", tail))

    def _store_chunk(
        self, prefix: str, tag: str, *parts: tuple[str, np.ndarray]
    ) -> np.ndarray:
        """Store a chunk and return its fresh pointer symbol.

        The chunk is ``tag`` plus one role (x) filler binding per part,
        summed left to right; the pointer entry is named ``<prefix>-<n>``.
        A spine cell's chunk stays with the session, in ``_spine``, and
        replaces the one the cell named in an earlier form.
        """
        composite = self._role(tag)
        for role, filler in parts:
            # ``+``, not ``+=``: the first operand is the tag's read-only row
            composite = composite + bind(self._role(role), filler)
        name = self._next_name(prefix)
        if prefix == _SPINE:
            pointer = self._spine_pointer(name)
            self._spine[name] = composite
        else:
            pointer = self._draw(name)
            self.memory.add_chunk(name, pointer, composite)
        return pointer

    def _spine_pointer(self, name: str) -> np.ndarray:
        """The read-only pointer of spine cell ``name``: its memory row,
        drawn and stored by the first form that needs it.  A later form
        moves the draw counter on by the draw it saves (see ``encode``).
        A restored session holds the spine cells and chunks of the saved
        one.
        """
        if name in self._spine:
            self._drawn += 1
        else:
            self._mint(name, "pointer")
        return self.memory.vector(name)

    def encode(self, expr: SExpr, *, code: bool = False) -> np.ndarray:
        """Encode an AST as data, the vector ``quote`` would return, or,
        with ``code``, as a top-level form.

        A list folds right to left into cons cells ending in ``nil``, or
        in the list's dotted tail, which is encoded as data.  A data cell
        is a fresh ``cell-<n>`` chunk, stored by ``cons``.  In code, the
        items after the head of a list headed by ``quote`` or ``lambda``
        are data: they outlive the form, as the value ``quote`` returns
        and as a closure's parameters and body.  Every other cell
        of a form is its *spine*, named ``code-<n>`` in the order it is
        stored.  No value refers to a spine cell once the form ends
        (``define`` returns its symbol and no primitive returns code), so
        the next form numbers its spine from ``code-0`` again and takes
        the same entries with chunks of its own.  Special forms are known
        by their head's name alone, so the split is exact.  A spine cell
        keeps the pointer its first form drew, and one taken again moves
        the draw counter on by the draw it saves (``_spine_pointer``), so
        the stream is drawn as with a fresh draw per cell.  So every vector
        a value keeps is what a fresh draw would give, and a sub-form of
        spine cells, symbols and integers that repeats an earlier one at
        the same cell numbers is rebuilt bit for bit, and so are the
        readings of its parts.
        """
        if isinstance(expr, IntLiteral):
            return self.encode_int(expr.value)
        if isinstance(expr, Atom):
            return self.symbol(expr.name)
        if not isinstance(expr, ListExpr):
            raise EvalError(f"cannot encode {expr!r}")
        items = expr.items
        head = items[0] if items else None
        data = isinstance(head, Atom) and head.name in ("quote", "lambda")
        v = self.symbol("nil") if expr.tail is None else self.encode(expr.tail)
        for i in range(len(items) - 1, -1, -1):
            item = self.encode(items[i], code=code and not (data and i > 0))
            if code:
                v = self._store_chunk(_SPINE, "#cons", ("#head", item), ("#tail", v))
            else:
                v = self.cons(item, v)
        return v

    # -- recovery -------------------------------------------------------

    def resolve(self, v: np.ndarray) -> Resolved:
        """Snap a possibly noisy vector to its exact known form.

        Integer-tagged vectors are decoded and re-encoded, so one cleanup
        pass removes all accumulated unbinding noise.  A tagged vector
        that fails the decode check, as a symbol or cell whose crosstalk
        with the tag clears ``theta`` does, falls through to recall, and
        raises the ``DecodeError`` if recall finds only the bare type tag;
        a vector matching nothing is returned as kind ``unknown``.
        """
        failed = None
        if similarity(v, self.int_tag) > self.config.theta:
            try:
                x = decode_residue(
                    self.codebook, v - self.int_tag, method=self.config.decode
                )
                return Resolved("int", None, x, self.encode_int(x))
            except DecodeError as exc:
                failed = exc
        try:
            hit = self.memory.recall(v)
        except NoMatchError:
            return Resolved("unknown", None, None, v)
        if failed is not None and hit.name == _INT_NAME:
            raise failed
        return self._named(hit.name, hit.similarity)

    def _named(self, name: str, score: float) -> Resolved:
        """The reading of memory entry ``name`` as the winner of a recall
        that scored ``score``.  A pointer's kind comes from the chunk it
        names at the time of the call: the tag, of ``#cons`` and
        ``#lambda``, more similar to it, if that similarity clears
        ``theta``."""
        kind = self.memory.kind(name)
        if kind == "symbol":
            if name in ("t", "f"):
                kind = "bool"
            elif name == "nil":
                kind = "nil"
        elif kind == "pointer":
            chunk = self._chunk(name)
            best = self.config.theta
            for tag in _TAG_NAMES:
                sim = similarity(chunk, self._role(tag))
                if sim > best:
                    kind, best = tag[1:], sim
        return Resolved(kind, name, None, self.memory.vector(name), score)

    def _chunk(self, name: str) -> np.ndarray:
        """The chunk pointer ``name`` names now; a spine cell's is the one
        its latest form stored."""
        chunk = self._spine.get(name)
        return self.memory.chunk(name) if chunk is None else chunk

    def _memoized_resolve(
        self, memo: dict, key: object, vector: Callable[[], np.ndarray]
    ) -> Resolved:
        """``resolve(vector())``, answered from ``memo[key]`` while exact.

        ``key`` must stand for one vector for as long as the memo holds
        it.  A hit returns exactly what a fresh ``resolve`` would.  An
        integer reading is final: it depends only on the vector and on the
        session's codebook and config.  Any other reading, with winner W
        and score s, is marked with the memory's size M0.  Memory is
        append-only and recall returns the first of equal best matches
        under one per-row float64 kernel, so W stays the first best while
        every row added since, from M0 on, scores below s; one scan of
        those rows with s as its bar tells, and none is needed while
        nothing was added.  Then the reading is served, and marked with
        the size now.  A reading whose winner is a spine cell is rebuilt
        by ``_named``, its kind from the chunk the cell names in the
        current form; W's row and score are those of the reading.  The
        int-first test and the decode check depend on the vector alone.
        Anything else, and every miss, goes through ``resolve``; unknown
        readings are not kept.  A hit otherwise returns the very
        ``Resolved`` that ``resolve`` returned; its read-only vector is a
        memory row, never reallocated, or an integer's own code.
        """
        rows = len(self.memory)
        out, seen = memo.get(key, (None, rows))
        if out is not None and out.kind == "int":
            return out
        v = None
        if out is not None and seen < rows:
            v = vector()
            if self.memory.best_since(v, seen, out.similarity) >= out.similarity:
                out = None
        if out is None:
            out = self.resolve(vector() if v is None else v)
            if out.kind == "unknown":
                return out
        elif out.name in self._spine:
            out = self._named(out.name, out.similarity)
        memo[key] = (out, rows)
        return out

    def _unbind_role(self, r: Resolved, role: str) -> Resolved:
        """``resolve`` of what ``role`` holds in the chunk ``r`` names.

        A chunk in memory is written once, so the vector unbound from it
        never changes: its parts are memoized per (chunk name, role).  A
        spine cell names another chunk, kept in ``_spine``, in every form,
        so its parts go through the value memo, keyed by their bytes,
        whose readings serve a repeated sub-form across forms (see
        ``encode``).
        """
        chunk = self._spine.get(r.name)
        if chunk is not None:
            return self._resolve_value(unbind(chunk, self._role(role)))
        return self._memoized_resolve(
            self._readings,
            (r.name, role),
            lambda: unbind(self.memory.chunk(r.name), self._role(role)),
        )

    def _resolve_value(self, v: np.ndarray) -> Resolved:
        """``resolve`` of a runtime value, memoized by its exact bytes.

        A session meets the same value again and again: the closure it
        applies, the list ``car`` and ``cdr`` walk, the operands of
        ``eq?``.  The key is the vector's whole byte string, with no
        digest, so only a bit-identical vector hits, and
        ``_memoized_resolve`` keeps the hit exact.  The least recently
        used of more than ``VALUE_MEMO_SIZE`` values goes first.
        """
        memo = self._values
        key = v.tobytes()
        if key in memo:
            memo[key] = memo.pop(key)
        out = self._memoized_resolve(memo, key, lambda: v)
        if len(memo) > VALUE_MEMO_SIZE:
            del memo[next(iter(memo))]
        return out

    def _chain(self, r: Resolved) -> tuple[list[Resolved], Resolved]:
        """Heads of the cons chain starting at ``r`` and the value ending it.

        Each cell of a chain is its own memory entry, so a chain longer
        than memory revisits a cell, as a corrupt session file can make
        one do: that raises ``EvalError`` instead of walking forever.
        """
        heads: list[Resolved] = []
        while r.kind == "cons":
            if len(heads) == len(self.memory):
                raise EvalError("a cons chain loops: it is longer than memory")
            heads.append(self._unbind_role(r, "#head"))
            r = self._unbind_role(r, "#tail")
        return heads, r

    def _chain_items(self, r: Resolved) -> list[Resolved]:
        """A proper list's elements, each cleaned up once."""
        items, end = self._chain(r)
        if end.kind != "nil":
            raise EvalError("expected a proper list")
        return items

    # -- evaluation -----------------------------------------------------

    def eval_expr(self, expr: SExpr) -> np.ndarray:
        """Encode and evaluate one top-level form in the global scope.

        The form is encoded as code (see ``encode``), so memory grows by
        a spine cell only when the form's spine is longer than every
        earlier one.  Its pointer is read through the value memo (see
        ``_memoized_resolve``).  Evaluation recurses on the Python stack,
        so a program nested or recursing too deeply raises
        ``RecursionDepthError``.
        """
        self._counts[_SPINE] = 0
        with _depth_guard("evaluation"):
            code = self._resolve_value(self.encode(expr, code=True))
            return self.eval_vec(code, self.global_env)

    def eval_source(self, source: str) -> Iterator[str]:
        """Evaluate every form in ``source``, yielding printed results."""
        for expr in parse_program(source):
            yield self.print_value(self.eval_expr(expr))

    def eval_vec(self, r: Resolved, env: Environment) -> np.ndarray:
        """Value of the code ``r`` in ``env``."""
        if r.kind in ("int", "bool", "nil", "lambda"):
            return r.vector
        if r.kind == "symbol":
            return env.lookup(r.name)
        if r.kind == "cons":
            return self._eval_combination(r, env)
        if r.kind == "pointer":
            raise NotApplicableError(f"cannot evaluate chunk {r.name}")
        if r.kind in ("env", "role"):
            raise EvalError(f"cannot evaluate internal symbol {r.name!r}")
        raise EvalError("cannot evaluate an unrecognized vector")

    def _eval_combination(self, r: Resolved, env: Environment) -> np.ndarray:
        head = self._unbind_role(r, "#head")
        rest = self._chain_items(self._unbind_role(r, "#tail"))
        if head.kind == "symbol":
            name = head.name
            if name in SPECIAL_FORMS:
                return self._special_form(name, rest, env)
            try:
                operator = env.lookup(name)
            except UnboundSymbolError:
                if name not in PRIMITIVES:
                    raise
                arity, method = PRIMITIVES[name]
                if len(rest) != arity:
                    raise ArityError(
                        f"{name} expects {arity} arguments, got {len(rest)}"
                    )
                # through the instance, so a class-level wrapper sees the call
                return getattr(self, method)(*[self.eval_vec(a, env) for a in rest])
        else:
            operator = self.eval_vec(head, env)
        args = [self.eval_vec(a, env) for a in rest]
        return self.apply(operator, args)

    def _special_form(
        self, name: str, rest: list[Resolved], env: Environment
    ) -> np.ndarray:
        if name == "quote":
            if len(rest) != 1:
                raise ArityError(f"quote expects 1 argument, got {len(rest)}")
            return rest[0].vector
        if name == "lambda":
            if len(rest) != 2:
                raise ArityError(
                    f"lambda expects parameters and a body, got {len(rest)} parts"
                )
            return self._make_closure(rest[0], rest[1], env)
        if name == "define":
            if len(rest) != 2:
                raise ArityError(f"define expects 2 arguments, got {len(rest)}")
            target = rest[0]
            if target.kind in ("bool", "nil"):
                raise EvalError(
                    f"cannot redefine the constant {target.name!r}"
                )
            if target.kind != "symbol":
                raise EvalError("define expects a symbol to bind")
            env.define(target.name, self.eval_vec(rest[1], env))
            return target.vector
        # cond: first clause whose test is similar to t selects the result
        for clause_r in rest:
            clause = self._chain_items(clause_r)
            if len(clause) != 2:
                raise EvalError("cond clause needs exactly a test and a result")
            test_val = self.eval_vec(clause[0], env)
            if similarity(test_val, self.symbol("t")) > self.config.theta:
                return self.eval_vec(clause[1], env)
        return self.symbol("nil")

    def _param_names(self, params: Resolved) -> list[str]:
        names = []
        for p in self._chain_items(params):
            if p.kind in ("bool", "nil"):
                raise EvalError(
                    f"{p.name!r} is a reserved constant, not a parameter name"
                )
            if p.kind != "symbol":
                raise EvalError("parameter list must hold symbols")
            names.append(p.name)
        return names

    def _make_closure(
        self, params: Resolved, body: Resolved, env: Environment
    ) -> np.ndarray:
        self._param_names(params)  # reject malformed parameter lists now
        handle = self._handle_for(env)
        return self._store_chunk(
            "closure",
            "#lambda",
            ("#params", params.vector),
            ("#body", body.vector),
            ("#env", self.memory.vector(handle)),
        )

    def apply(self, operator: np.ndarray, args: list[np.ndarray]) -> np.ndarray:
        """Apply a closure value to already-evaluated arguments."""
        r = self._resolve_value(operator)
        if r.kind == "lambda":
            return self._apply_closure(r, args)
        raise NotApplicableError(f"cannot apply a value of kind {r.kind}")

    def _apply_closure(self, r: Resolved, args: list[np.ndarray]) -> np.ndarray:
        params = self._param_names(self._unbind_role(r, "#params"))
        body = self._unbind_role(r, "#body")
        env_ref = self._unbind_role(r, "#env")
        if env_ref.kind != "env" or env_ref.name not in self.environments:
            raise DanglingPointerError(
                "closure environment is not present in this session"
            )
        if len(args) != len(params):
            raise ArityError(
                f"closure expects {len(params)} arguments, got {len(args)}"
            )
        frame = self.environments[env_ref.name].child()
        for pname, arg in zip(params, args):
            frame.define(pname, arg)
        return self.eval_vec(body, frame)

    # -- primitives -----------------------------------------------------

    def _bool(self, flag: bool) -> np.ndarray:
        return self.symbol("t") if flag else self.symbol("f")

    def prim_atom(self, v: np.ndarray) -> np.ndarray:
        return self._bool(self._resolve_value(v).kind != "cons")

    def prim_eq(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        ru = self._resolve_value(u)
        rv = self._resolve_value(v)
        if ru.kind == "int" and rv.kind == "int":
            # The shared int tag alone puts any two integers above the
            # threshold, so integers are compared by their tag-stripped
            # codes instead.
            u = ru.vector - self.int_tag
            v = rv.vector - self.int_tag
        return self._bool(similarity(u, v) > self.config.theta)

    def _select(self, v: np.ndarray, role: str, who: str) -> np.ndarray:
        r = self._resolve_value(v)
        if r.kind != "cons":
            raise LispTypeError(f"{who} expects a pair")
        return self._unbind_role(r, role).vector

    def car(self, v: np.ndarray) -> np.ndarray:
        return self._select(v, "#head", "car")

    def cdr(self, v: np.ndarray) -> np.ndarray:
        return self._select(v, "#tail", "cdr")

    def is_nil(self, v: np.ndarray) -> bool:
        return self._resolve_value(v).kind == "nil"

    def force_decode(self, v: np.ndarray) -> tuple[int, float]:
        """Best integer reading of a vector and its confidence.

        Ignores the type tag test and the decode check; meant for
        inspecting values that print as something other than an integer.
        """
        return nearest_code(self.codebook, v - self.int_tag)

    def prim_int_test(self, v: np.ndarray) -> np.ndarray:
        """Integer discriminator over similarity to the type tag.

        Superposes t weighted by sim(v, int) and f weighted by
        (2*theta - sim(v, int)), then cleans the blend up through memory;
        above-threshold similarity makes t dominate, anything else f.
        """
        s = similarity(v, self.int_tag)
        blend = s * self.symbol("t") + (2.0 * self.config.theta - s) * self.symbol("f")
        return self.memory.recall(blend).vector

    def _require_int(self, v: np.ndarray, who: str) -> np.ndarray:
        """Strip the integer tag, renormalizing to restore phasor form."""
        if similarity(v, self.int_tag) <= self.config.theta:
            raise LispTypeError(f"{who} expects integer operands")
        return normalize(v - self.int_tag)

    def prim_add(self, u, v) -> np.ndarray:
        a = self._require_int(u, "+")
        b = self._require_int(v, "+")
        return add_bind(a, b) + self.int_tag

    def prim_sub(self, u, v) -> np.ndarray:
        a = self._require_int(u, "-")
        b = self._require_int(v, "-")
        return add_bind(a, np.conj(b)) + self.int_tag

    def prim_mul(self, u, v) -> np.ndarray:
        a = self._require_int(u, "*")
        b = self._require_int(v, "*")
        return mul_bind(self.codebook, a, b, method=self.config.decode) + self.int_tag

    def prim_div(self, u, v) -> np.ndarray:
        a = self._require_int(u, "/")
        b = self._require_int(v, "/")
        return div_bind(self.codebook, a, b, method=self.config.decode) + self.int_tag

    # -- printing -------------------------------------------------------

    def display_int(self, x: int) -> int:
        """Map a raw residue value into the symmetric display window."""
        if self.display_raw:
            return x
        r = self.moduli.range
        return x if x < (r + 1) // 2 else x - r

    def print_value(self, v: np.ndarray) -> str:
        """Human-readable rendering of a value vector.

        Printing recurses on the Python stack once per nesting level, so
        a list nested too deeply raises ``RecursionDepthError``.
        """
        with _depth_guard("printing"):
            return self._format(self._resolve_value(v))

    def _format(self, r: Resolved) -> str:
        if r.kind == "int":
            return str(self.display_int(r.value))
        if r.kind in ("bool", "nil", "symbol", "env", "role"):
            return r.name
        if r.kind == "lambda":
            return "#<lambda>"
        if r.kind == "cons":
            heads, end = self._chain(r)
            text = " ".join([self._format(h) for h in heads])
            if end.kind != "nil":
                text += " . " + self._format(end)
            return "(" + text + ")"
        if r.kind == "pointer":
            return f"#<chunk {r.name}>"
        # not a recall: a session always holds its bootstrap entries
        return f"#<vector sim={self.memory.best_since(r.vector, 0):.3f}>"

    # -- persistence ----------------------------------------------------

    def save(self, dest: IO[bytes] | str | Path) -> None:
        """Write the session to a file that ``restore`` reopens.

        The key (dim, moduli, seed) fixes the codebook and every row of
        the stream, so a row is written as its stream position, and only
        chunks and bindings as floats.  Layout, little-endian: the magic
        ``RHC2``; u32 dim, u32 modulus count, a u32 per modulus, u64 seed,
        u64 draw counter and u32 entry count; then per entry a u32 length,
        a UTF-8 name ``<kind>:<rest>`` and a payload its kind fixes: a u64
        position for a ``symbol:``, ``pointer:`` or ``env:`` row,
        interleaved re/im float64 for a ``chunk:`` or ``bind:`` vector,
        nothing for a ``parent:`` link.  First come the rows past
        the 12 bootstrap entries, which the key makes, in memory order and
        spine cells included; then every pointer's chunk; then each scope's
        parent link and bindings.
        """
        if isinstance(dest, (str, Path)):
            with open(dest, "wb") as fh:
                self.save(fh)
            return
        cfg = self.config
        if cfg.seed >= 1 << 64:
            raise SessionIOError(f"a session file holds a u64 seed, not {cfg.seed}")
        rows = self.memory.names()[len(_DRAWN) + 1:]
        entries = [
            (f"{self.memory.kind(n)}:{n}", struct.pack("<Q", self._positions[n]))
            for n in rows
        ]
        # a vector is written from its own buffer, not from a copy, so a
        # save holds no second copy of the session's chunks and bindings
        entries += [
            (f"chunk:{n}", np.ascontiguousarray(self._chunk(n), dtype="<c16"))
            for n in rows
            if self.memory.kind(n) == "pointer"
        ]
        for handle, env in self.environments.items():
            if env.parent is not None:
                entries.append((f"parent:{handle}:{env.parent.handle}", b""))
            entries += [
                (f"bind:{handle}:{bname}", np.ascontiguousarray(vec, dtype="<c16"))
                for bname, vec in env.frame.items()
            ]
        n = len(self.moduli)
        key = (cfg.dim, n, *self.moduli, cfg.seed, self._drawn)
        dest.write(_MAGIC + struct.pack(f"<II{n}IQQI", *key, len(entries)))
        for name, payload in entries:
            raw = name.encode("utf-8")
            dest.write(struct.pack("<I", len(raw)) + raw)
            dest.write(payload)

    @classmethod
    def restore(
        cls, src: IO[bytes] | str | Path, config: Config | None = None
    ) -> "Session":
        """Reopen a file that ``save`` wrote.

        The file's key overrides the passed config's.  The whole file is
        read and checked first, each vector's length following from the
        dim, so a corrupt dim fails as a truncated file.  Then the session
        is built as ``Session()`` builds one, from the key's stream; each
        row is minted at its saved position, in file order, and the draw
        counter goes on from its saved value.  So the restored session
        holds what the saved one held and mints what it would have minted.
        Entries are applied in one pass, in ``save`` order.  A file raises
        ``SessionIOError`` for: an entry that names a pointer or scope the
        file has not yet stored, or a name stored twice; a position at or
        past the draw counter, or one that another row or a bootstrap
        entry takes; a ``bind:`` or ``chunk:`` component beyond its
        ``_MODULUS_BOUND``, since no session binds or stores one, and it
        would read as another value or overflow a float32 score; a pointer
        without its chunk; a parent link that closes a loop of scopes; and
        a key that is not valid or cannot be allocated.
        """
        if isinstance(src, (str, Path)):
            with open(src, "rb") as fh:
                return cls.restore(fh, config)
        magic = _read_exact(src, 4)
        if magic != _MAGIC:
            raise SessionIOError(
                f"session file starts with {magic!r}; this version reads "
                f"only the {_MAGIC.decode()} format"
            )
        dim, n = struct.unpack("<II", _read_exact(src, 8))
        moduli = struct.unpack(f"<{n}I", _read_exact(src, 4 * n))
        seed, drawn, count = struct.unpack("<QQI", _read_exact(src, 20))
        base = config if config is not None else Config()
        try:
            cfg = replace(base, dim=dim, moduli=moduli, seed=seed)
            entries = _read_entries(src, count, dim, drawn)
            sess = cls(cfg)
        except (ConfigError, InvalidModuliError, UnicodeDecodeError) as exc:
            # a bad key, or a name that is not UTF-8
            raise SessionIOError(f"malformed session file: {exc}") from None
        envs = sess.environments
        try:
            for name, payload in entries:
                prefix, _, rest = name.partition(":")
                if prefix in _ROW_KINDS:
                    sess._drawn = payload
                    sess._mint(rest, prefix)
                    if prefix == "env":
                        env = envs[rest] = Environment()
                        env.handle = rest
                elif prefix == "chunk" and rest.startswith(f"{_SPINE}-"):
                    # a spine cell's chunk stays with the session
                    if sess.memory.kind(rest) != "pointer" or rest in sess._spine:
                        raise ValueError(f"{name!r} is no spine cell's one chunk")
                    sess._spine[rest] = payload
                elif prefix == "chunk":
                    sess.memory.attach_chunk(rest, payload)
                elif prefix == "parent":
                    handle, _, parent = rest.partition(":")
                    env, scope = envs[handle], envs[parent]
                    while scope is not None:
                        if scope is env:
                            raise ValueError(f"{name!r} closes a loop of scopes")
                        scope = scope.parent
                    env.parent = envs[parent]
                else:
                    handle, _, bname = rest.partition(":")
                    envs[handle].define(bname, payload)
            for name in sess.memory.names(kind="pointer"):
                sess._chunk(name)  # every pointer names a stored chunk
        except (KeyError, ValueError) as exc:
            # a name stored twice, or one that refers to an entry the file
            # does not hold
            raise SessionIOError(f"malformed session entry: {exc}") from None
        sess._drawn = drawn
        return sess


def _read_entries(
    src: IO[bytes], count: int, dim: int, drawn: int
) -> list[tuple[str, int | np.ndarray | None]]:
    """The ``count`` names and payloads of a session file, the positions
    and vectors checked as ``Session.restore`` says."""
    if drawn < len(_DRAWN):
        raise SessionIOError(
            f"session file's draw counter {drawn} is below the "
            f"{len(_DRAWN)} bootstrap draws"
        )
    taken = set(range(len(_DRAWN)))
    entries = []
    for _ in range(count):
        (length,) = struct.unpack("<I", _read_exact(src, 4))
        name = _read_exact(src, length).decode("utf-8")
        prefix = name.partition(":")[0]
        bound = _MODULUS_BOUND.get(prefix)
        if prefix in _ROW_KINDS:
            (payload,) = struct.unpack("<Q", _read_exact(src, 8))
            if payload >= drawn or payload in taken:
                raise SessionIOError(
                    f"session entry {name!r} takes stream position {payload}, "
                    f"taken or not below the draw counter {drawn}"
                )
            taken.add(payload)
        elif bound is not None:
            # a copy, so the bytes read are freed at once: held as views, they
            # miss the slightly smaller buffers that freed vectors leave, and
            # a repl benchmark round trip took 2-7 MB more resident memory
            payload = np.frombuffer(_read_exact(src, 16 * dim), dtype="<c16").copy()
            # NaN and infinity fail the test too; abs warns on no part
            if not np.abs(payload).max() <= bound + _UNIT_TOL:
                raise SessionIOError(
                    f"session entry {name!r} has a component beyond "
                    f"modulus {bound:g}"
                )
        elif prefix == "parent":
            payload = None
        else:
            raise SessionIOError(f"unknown session entry {name!r}")
        entries.append((name, payload))
    return entries


#: Largest single read from a session file.  Reading in bounded pieces
#: means a corrupt length or dim can never allocate more than the file
#: actually holds.
_READ_CHUNK = 1 << 20


def _read_exact(src: IO[bytes], n: int) -> bytes:
    """Exactly ``n`` bytes from ``src``; a short read raises ``SessionIOError``."""
    parts = []
    while n > 0:
        part = src.read(min(n, _READ_CHUNK))
        if not part:
            raise SessionIOError("truncated session file")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)
