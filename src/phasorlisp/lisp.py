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
    LispTypeError,
    MemoryEmptyError,
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
    load_codebook,
    make_codebook,
    mul_bind,
    nearest_code,
    read_exact,
    read_vector,
    save_codebook,
    write_vector,
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

#: name prefix of the cells of a top-level form's spine, numbered afresh
#: each form; ``code-<n>`` is stored once, by the first form that needs it,
#: and every form after takes the same entry with a chunk of its own
_SPINE = "code"

#: Most a restored memory row's component may differ from modulus 1.  A
#: drawn row's components lie within a few float64 ulps of it.
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
    modulus and reassembles via the CRT, ``exhaustive`` scans the whole
    codebook.
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
    code from step to step as ``Resolved``.  ``Session._unbind_role``
    resolves each part of a written-once chunk once per session, and
    ``Session._resolve_value`` each recent runtime value and spine part
    by its bytes.  Both hand out the very ``Resolved`` they stored, so a
    vector the session has already cleaned up is not cleaned up, or
    rebuilt, again; only a reading whose winner is a spine cell is
    rebuilt on every hit, since its kind comes from the cell's chunk in
    the current form.
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
    holds it: a thread keeps the stream of its last fresh session's key
    (see ``_start``), and every session keeps its own.
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


#: each thread's (key, stream) of the last fresh session it built; see
#: ``Session``
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
    every row they drew.  A restored session has a stream of its own.

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
        self.memory.add(_INT_NAME, self.codebook.tag)
        for name, kind in _DRAWN:
            self._mint(name, kind)
        self.global_env = self.environments[_GLOBAL] = Environment()
        self.global_env.handle = _GLOBAL

    def _draw(self) -> np.ndarray:
        """The next fresh random vector of the session's stream, read-only."""
        row = self._stream.row(self._drawn)
        self._drawn += 1
        return row

    def _mint(self, name: str, kind: str) -> None:
        """Store a fresh random vector under ``name``."""
        self.memory.add(name, self._draw(), kind=kind)

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
        ``cell-<n>``.  So is ``int``, the entry that stores the integer
        type tag.
        """
        if name == _INT_NAME:
            raise EvalError(f"{name!r} names the integer type tag, not a symbol")
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
            pointer = self._draw()
            self.memory.add_chunk(name, pointer, composite)
        return pointer

    def _spine_pointer(self, name: str) -> np.ndarray:
        """The read-only pointer of spine cell ``name``: its memory row.

        The first form that needs ``name`` draws its pointer, as any other
        pointer is drawn, and stores it for good; every later form reuses
        the row and skips the stream position a fresh draw would take.
        So the draw counter, and every vector a value keeps, is what it
        would be with a fresh draw per cell, and a sub-form that repeats
        an earlier one at the same cell numbers rebuilds its chunks bit
        for bit.  A restored session holds no spine cell.
        """
        if name in self._spine:
            self._drawn += 1
        else:
            self._mint(name, "pointer")
        return self.memory.vector(name)

    def encode(self, expr: SExpr) -> np.ndarray:
        """Encode an AST as data: the vector form quote would return."""
        if isinstance(expr, IntLiteral):
            return self.encode_int(expr.value)
        if isinstance(expr, Atom):
            return self.symbol(expr.name)
        if isinstance(expr, ListExpr):
            v = self.symbol("nil")
            for item in reversed(expr.items):
                v = self.cons(self.encode(item), v)
            return v
        raise EvalError(f"cannot encode {expr!r}")

    def _encode_code(self, expr: SExpr) -> np.ndarray:
        """``encode`` a top-level form, its spine as ``code-<n>`` cells.

        The spine is every cons cell outside a ``quote`` argument and
        outside a ``lambda`` parameter list or body.  Those arguments
        outlive the form, as the value ``quote`` returns and as a
        closure's parts, so ``encode`` stores them as ``cell-<n>`` chunks.
        No value refers to a spine cell once the form ends: ``define``
        returns its symbol and no primitive returns code.  So the next
        form numbers its cells from 0 again and takes the same entries
        with chunks of its own.  Special forms are known by their head's
        name alone, so the split is exact.  The stream is drawn in the
        order ``encode`` draws it (see ``_spine_pointer``), so a sub-form
        that repeats an earlier form's at the same cell numbers is rebuilt
        bit for bit, and so are the readings of its parts.
        """
        if not isinstance(expr, ListExpr):
            return self.encode(expr)
        items = expr.items
        head = items[0] if items else None
        data = isinstance(head, Atom) and head.name in ("quote", "lambda")
        v = self.symbol("nil")
        for i in range(len(items) - 1, -1, -1):
            encode = self.encode if data and i > 0 else self._encode_code
            v = self._store_chunk(
                _SPINE, "#cons", ("#head", encode(items[i])), ("#tail", v)
            )
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
        except (MemoryEmptyError, NoMatchError):
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
        so its parts go through the value memo, keyed by their bytes; a
        sub-form that repeats an earlier one rebuilds them bit for bit,
        and their readings serve it across forms.
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

        The form's spine (see ``_encode_code``) takes the cells
        ``code-0``, ``code-1``, ... again: memory grows by a spine cell
        only when a form's spine is longer than every earlier one, and
        otherwise only by what the form's values keep.  The form's
        pointer and its spine's parts are read through the value memo,
        whose readings outlive the form exactly (see
        ``_memoized_resolve``).  Evaluation recurses on the Python stack,
        so a program nested or recursing too deeply raises
        ``RecursionDepthError``.
        """
        self._counts[_SPINE] = 0
        with _depth_guard("evaluation"):
            code = self._resolve_value(self._encode_code(expr))
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
        """Dump codebook and memory so the session can be reopened.

        The payload after the codebook block is a flat inventory of
        length-prefixed UTF-8 names and interleaved re/im float64
        vectors; entry kinds, chunk payloads, and environment structure
        ride in name prefixes.  Spine cells are not written: no value
        refers to one, and the next form that needs one stores it again.
        """
        if isinstance(dest, (str, Path)):
            with open(dest, "wb") as fh:
                self.save(fh)
            return
        kept = [name for name in self.memory.names() if name not in self._spine]
        entries = [
            (f"{self.memory.kind(name)}:{name}", self.memory.vector(name))
            for name in kept
        ]
        for name in kept:
            if self.memory.kind(name) == "pointer":
                entries.append((f"chunk:{name}", self.memory.chunk(name)))
        for handle, env in self.environments.items():
            if env.parent is not None:
                parent = env.parent.handle
                entries.append(
                    (f"parent:{handle}:{parent}", self.memory.vector(parent))
                )
            for bname, vec in env.frame.items():
                entries.append((f"bind:{handle}:{bname}", vec))
        save_codebook(self.codebook, dest)
        dest.write(struct.pack("<I", len(entries)))
        for name, vec in entries:
            raw = name.encode("utf-8")
            dest.write(struct.pack("<I", len(raw)))
            dest.write(raw)
            write_vector(dest, vec)

    @classmethod
    def restore(
        cls, src: IO[bytes] | str | Path, config: Config | None = None
    ) -> "Session":
        """Reopen a saved session.

        The file's dimension and moduli override the passed config.  The
        session is built by ``_setup``, as a fresh one is, from a stream of
        its own: the file's codebook and the generator
        ``default_rng((seed, count))`` for the file's entry count, so
        freshly minted symbols cannot replay vectors the saved session
        already used; a file restored twice draws the same rows.  Entries
        are applied in one pass, in the order ``save`` writes them: an
        entry that names a pointer or scope the file has not yet stored
        raises ``SessionIOError``.  So does a memory row that is not a
        unit phasor: every row a session stores is drawn by
        ``random_symbol``, and one with a large component would win every
        recall.  So does a ``bind:`` vector with a component beyond
        modulus 2, or a ``chunk:`` vector with one beyond 5 (see
        ``_MODULUS_BOUND``): no session binds or stores such a vector, and
        one would read as another value or overflow a float32 score.  A
        ``parent:`` entry is read by its name alone; its vector is never
        used, so it has no bound.  A file that lacks one of the 12
        bootstrap entries, or holds one as another kind, raises too.
        """
        if isinstance(src, (str, Path)):
            with open(src, "rb") as fh:
                return cls.restore(fh, config)
        codebook = load_codebook(src)
        base = config if config is not None else Config()
        cfg = replace(base, dim=codebook.dim, moduli=tuple(codebook.moduli))
        (count,) = struct.unpack("<I", read_exact(src, 4))
        sess = cls.__new__(cls)
        sess._setup(cfg, _Stream(codebook, np.random.default_rng((cfg.seed, count))))
        envs = sess.environments
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<I", read_exact(src, 4))
                name = read_exact(src, name_len).decode("utf-8")
                vec = read_vector(src, cfg.dim)
                prefix, _, rest = name.partition(":")
                bound = _MODULUS_BOUND.get(prefix)
                if bound is not None and not np.abs(vec).max() <= bound + _UNIT_TOL:
                    raise SessionIOError(
                        f"session entry {name!r} has a component beyond "
                        f"modulus {bound:g}"
                    )
                if prefix in ("symbol", "pointer", "role", "env"):
                    if not np.abs(np.abs(vec) - 1.0).max() <= _UNIT_TOL:
                        raise SessionIOError(
                            f"session entry {name!r} is not a unit phasor"
                        )
                    sess.memory.add(rest, vec, kind=prefix)
                    if prefix == "env":
                        env = envs[rest] = Environment()
                        env.handle = rest
                elif prefix == "chunk":
                    sess.memory.attach_chunk(rest, vec)
                elif prefix == "parent":
                    handle, _, parent = rest.partition(":")
                    envs[handle].parent = envs[parent]
                elif prefix == "bind":
                    handle, _, bname = rest.partition(":")
                    envs[handle].define(bname, vec)
                else:
                    raise SessionIOError(f"unknown session entry {name!r}")
            for name in sess.memory.names(kind="pointer"):
                sess.memory.chunk(name)  # every pointer names a stored chunk
        except (KeyError, ValueError) as exc:
            # a name that is not UTF-8 (a ValueError), is stored twice, or
            # refers to an entry the file does not hold
            raise SessionIOError(f"malformed session entry: {exc}") from None
        for name, kind in ((_INT_NAME, "symbol"), *_DRAWN):
            if name not in sess.memory or sess.memory.kind(name) != kind:
                raise SessionIOError(f"session file lacks the {kind} {name!r}")
        sess.global_env = sess.environments[_GLOBAL]
        return sess
