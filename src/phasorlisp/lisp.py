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
    encode_residue,
    load_codebook,
    make_codebook,
    mod_inverse,
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

#: name prefix of the cells of a top-level form's spine, numbered afresh
#: each form; they live in the memory's segment until the form ends, and
#: each ``code-<n>`` takes the same pooled pointer in every form
_SPINE = "code"

#: Most runtime values one session keeps resolved; the oldest goes first.
#: A key is a whole vector's bytes (16 KB at dim 1000).
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
    resolves each part of a main chunk once per session, and
    ``Session._resolve_value`` each recent runtime value and spine part
    by its bytes.  Both hand out the very ``Resolved`` they stored, so a
    vector the session has already cleaned up is not cleaned up, or
    rebuilt, again; only a reading whose winner is a spine cell is
    rebuilt, from the cell's current row and chunk, in a later form.
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


class Session:
    """One interpreter world: codebook, memory, environments, evaluator.

    Construction is deterministic in the seed: the codebook, the boolean
    and nil constants, the chunk roles and tags, and the global scope
    handle are minted in a fixed order.  All evaluation happens over
    vectors; host Python holds names, environment frames, the chunk
    inventory, and the memos of what chunk roles and runtime values read as.
    """

    def __init__(self, config: Config | None = None) -> None:
        config = config if config is not None else Config()
        rng = new_rng(config.seed)
        try:
            codebook = make_codebook(ModuliSet(config.moduli), config.dim, rng)
            self._setup(config, codebook, rng)
            self._bootstrap()
        except MemoryError:
            raise ConfigError(
                f"a session at dimension {config.dim} needs more memory than "
                f"is available"
            ) from None

    # -- construction ---------------------------------------------------

    def _setup(
        self, config: Config, codebook: ResidueCodebook, rng: np.random.Generator
    ) -> None:
        """Fields shared by a fresh and a restored session, memory empty."""
        self.config = config
        self.moduli = codebook.moduli
        self.rng = rng
        self.codebook = codebook
        self.memory = CleanupMemory(config.dim)
        self.environments: dict[str, Environment] = {}
        self.display_raw = False
        #: name prefix -> lowest number the next cell-, closure-, env- or
        #: code- entry may take; a restored session starts from 0 and skips
        #: what it holds, and code- restarts from 0 each form
        self._counts = {"cell": 0, "closure": 0, "env": 0, _SPINE: 0}
        #: spine cell name -> its read-only pointer; see _spine_pointer
        self._pool: dict[str, np.ndarray] = {}
        #: (main chunk name, role) -> (reading, main rows then, memory
        #: changes then, whether the winner was a segment entry); see
        #: _unbind_role
        self._readings: dict[tuple[str, str], tuple[Resolved, int, int, bool]] = {}
        #: exact value bytes -> (reading, main rows then, memory changes
        #: then, whether the winner was a segment entry); see _resolve_value
        self._values: dict[bytes, tuple[Resolved, int, int, bool]] = {}

    def _bootstrap(self) -> None:
        self.memory.add(_INT_NAME, self.codebook.tag)
        for name in ("t", "f", "nil"):
            self._mint(name, "symbol")
        for name in _ROLE_NAMES + _TAG_NAMES:
            self._mint(name, "role")
        self.global_env = Environment()
        self._register_env(self.global_env)

    def _mint(self, name: str, kind: str) -> None:
        """Store a fresh random vector under ``name``."""
        self.memory.add(name, random_symbol(self.rng, self.config.dim), kind=kind)

    def _next_name(self, prefix: str) -> str:
        """Lowest free ``<prefix>-<n>``, past any stored entry of that name."""
        n = self._counts[prefix]
        while f"{prefix}-{n}" in self.memory:
            n += 1
        self._counts[prefix] = n + 1
        return f"{prefix}-{n}"

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
        that names one would forge a reference to it.  That includes the
        ``code-<n>`` cells of the form being evaluated.  So is ``int``, the
        entry that stores the integer type tag.
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
        summed left to right; the pointer entry is named ``<prefix>-<n>``,
        and a spine cell's goes to the memory's segment.
        """
        composite = self._role(tag)
        for role, filler in parts:
            # ``+``, not ``+=``: the first operand is the tag's read-only row
            composite = composite + bind(self._role(role), filler)
        name = self._next_name(prefix)
        spine = prefix == _SPINE
        if spine:
            pointer = self._spine_pointer(name)
        else:
            pointer = random_symbol(self.rng, self.config.dim)
        self.memory.add_chunk(name, pointer, composite, segment=spine)
        return pointer

    def _spine_pointer(self, name: str) -> np.ndarray:
        """The read-only pointer of spine cell ``name``, from the pool.

        The first form that needs ``name`` draws its pointer from the
        session's generator, as any other pointer is drawn; every later
        form reuses it and advances the generator past the draw it skips
        (PCG64 spends one 64-bit output per double, and the session draws
        only doubles once its codebook is made).  So the generator's
        stream, and every vector that outlives a form, is what it would
        be with a fresh draw per cell, and a sub-form that repeats an
        earlier one at the same cell numbers rebuilds its chunks bit for
        bit.  A restored session starts with an empty pool.
        """
        pointer = self._pool.get(name)
        if pointer is None:
            pointer = self._pool[name] = random_symbol(self.rng, self.config.dim)
            pointer.flags.writeable = False
        else:
            self.rng.bit_generator.advance(self.config.dim)
        return pointer

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
        """``encode`` a top-level form, its spine as segment cells.

        The spine is every cons cell outside a ``quote`` argument and
        outside a ``lambda`` parameter list or body.  Those arguments
        outlive the form, as the value ``quote`` returns and as a
        closure's parts, so ``encode`` stores them in main memory.  Nothing
        can refer to a spine cell once the form ends: ``define`` returns
        its symbol and no primitive returns code.  Special forms are known
        by their head's name alone, so the split is exact.  The generator
        is drawn in the order ``encode`` draws it, but cell ``code-<n>``
        takes the session's pooled pointer for n (see ``_spine_pointer``),
        so a sub-form that repeats an earlier form's at the same cell
        numbers is rebuilt bit for bit, and so are the readings of its
        parts.
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
        that fails to decode falls through to symbol recall, and raises
        the ``DecodeError`` if recall finds only the bare type tag; a
        vector matching nothing is returned as kind ``unknown``.
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
        that scored ``score``; a pointer's kind comes from the chunk it
        names at the time of the call."""
        kind = self.memory.kind(name)
        if kind == "symbol":
            if name in ("t", "f"):
                kind = "bool"
            elif name == "nil":
                kind = "nil"
        elif kind == "pointer":
            chunk = self.memory.chunk(name)
            for tag in _TAG_NAMES:
                if similarity(chunk, self._role(tag)) > self.config.theta:
                    kind = tag[1:]
                    break
        return Resolved(kind, name, None, self.memory.vector(name), score)

    def _memoized_resolve(
        self, memo: dict, key: object, vector: Callable[[], np.ndarray]
    ) -> Resolved:
        """``resolve(vector())``, answered from ``memo[key]`` while exact.

        ``key`` must stand for one vector for as long as the memo holds
        it.  A hit returns exactly what a fresh ``resolve`` would.  An
        integer reading is final: it depends only on the vector and on the
        session's codebook and config.  Any other reading, with winner W
        and score s, is marked with the main memory size M0 and the
        memory's change count, and with whether W was a segment entry.
        While the memory has not changed since, the reading is served as
        it is.  Otherwise the main rows from M0 on and the current segment
        are scanned once; recall keeps the first of equal best matches
        under one per-row float64 kernel, main rows first, main memory is
        append-only, and a dropped segment row cannot win.  The reading is
        served when:

        - W was a main entry and that scan's best score is below s: no
          row that could tie or beat W was added since.
        - W was a segment entry, the scan's first best is W, and W is
          live in the segment.  When the reading was taken or last
          served, a main row that tied W would have come first, since
          main rows lead the scan, so every main row before M0 scores
          below s.  The pool gives a live
          ``code-<n>`` the vector it had then, so W still scores s and is
          the first best of the whole scan: a fresh recall returns it.
          The hit is rebuilt from W's current row, and its kind from W's
          current chunk, since a spine cell's chunk changes with its form.

        The int-first test and the floor depend on the vector alone.
        Without the recorded flag, a symbol named ``code-<n>`` interned
        after the reading would pass for a main winner.  Anything else,
        and every miss, goes through ``resolve``; unknown readings are not
        kept.  A hit otherwise returns the very ``Resolved`` that
        ``resolve`` returned; its read-only vector is a main memory row,
        never reallocated, an integer's own code, or the copy of a spine
        row, which the memo keeps alive after its segment is dropped.
        """
        rows, changes = self.memory.main_rows, self.memory.changes
        out, seen, seen_changes, spine = memo.get(key, (None, 0, -1, False))
        if out is not None and (out.kind == "int" or seen_changes == changes):
            return out
        v = vector()
        if out is not None:
            name, score = self.memory.best_since(v, seen)
            if not spine and score < out.similarity:
                memo[key] = (out, rows, changes, False)
                return out
            if spine and name == out.name and self.memory.in_segment(name):
                out = self._named(name, score)
                memo[key] = (out, rows, changes, True)
                return out
        out = self.resolve(v)
        if out.kind != "unknown":
            memo[key] = (out, rows, changes, self.memory.in_segment(out.name))
        return out

    def _unbind_role(self, r: Resolved, role: str) -> Resolved:
        """``resolve`` of what ``role`` holds in the chunk ``r`` names.

        A main chunk is written once, so the vector unbound from it never
        changes: its parts are memoized per (chunk name, role).  A spine
        cell's name stands for another chunk in every form, so its parts
        go through the value memo, keyed by their bytes; with pooled
        pointers, a sub-form that repeats an earlier one rebuilds them bit
        for bit, and their readings serve it across forms.
        """
        def unbound() -> np.ndarray:
            return unbind(self.memory.chunk(r.name), self._role(role))

        if self.memory.in_segment(r.name):
            return self._resolve_value(unbound())
        return self._memoized_resolve(self._readings, (r.name, role), unbound)

    def _resolve_value(self, v: np.ndarray) -> Resolved:
        """``resolve`` of a runtime value, memoized by its exact bytes.

        A session meets the same value again and again: the closure it
        applies, the list ``car`` and ``cdr`` walk, the operands of
        ``eq?``.  The key is the vector's whole byte string, with no
        digest, so only a bit-identical vector hits, and
        ``_memoized_resolve`` keeps the hit exact.  At most
        ``VALUE_MEMO_SIZE`` values are kept; the oldest goes first.
        """
        memo = self._values
        out = self._memoized_resolve(memo, v.tobytes(), lambda: v)
        if len(memo) > VALUE_MEMO_SIZE:
            del memo[next(iter(memo))]
        return out

    def _chain(self, r: Resolved) -> tuple[list[Resolved], Resolved]:
        """Heads of the cons chain starting at ``r`` and the value ending it."""
        heads: list[Resolved] = []
        while r.kind == "cons":
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

        The form's spine (see ``_encode_code``) lives in the memory's
        segment for the form only: when the form returns or raises, the
        segment is dropped.  So memory grows only by what the form's
        values keep.  The form's pointer and its spine's parts are read
        through the value memo, whose readings outlive the form exactly
        (see ``_memoized_resolve``), so nothing is dropped from the memos.
        Evaluation recurses on the Python stack, so a program nested or
        recursing too deeply raises ``RecursionDepthError``.
        """
        self._counts[_SPINE] = 0
        try:
            with _depth_guard("evaluation"):
                code = self._resolve_value(self._encode_code(expr))
                return self.eval_vec(code, self.global_env)
        finally:
            self.memory.drop_segment()

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

        Ignores the type tag test and the confidence floor; meant for
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
        method = self.config.decode
        inv = mod_inverse(self.codebook, b, method=method)
        quotient = mul_bind(self.codebook, a, inv, method=method)
        return quotient + self.int_tag

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
        return f"#<vector sim={self.memory.best_since(r.vector, 0)[1]:.3f}>"

    # -- persistence ----------------------------------------------------

    def save(self, dest: IO[bytes] | str | Path) -> None:
        """Dump codebook and memory so the session can be reopened.

        The payload after the codebook block is a flat inventory of
        length-prefixed UTF-8 names and interleaved re/im float64
        vectors; entry kinds, chunk payloads, and environment structure
        ride in name prefixes.
        """
        if isinstance(dest, (str, Path)):
            with open(dest, "wb") as fh:
                self.save(fh)
            return
        entries: list[tuple[str, np.ndarray]] = []
        for name in self.memory.names():
            entries.append(
                (f"{self.memory.kind(name)}:{name}", self.memory.vector(name))
            )
        for name in self.memory.names(kind="pointer"):
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

        The file's dimension and moduli override the passed config; the
        generator is reseeded on a stream derived from the seed and the
        restored entry count so freshly minted symbols cannot replay
        vectors the saved session already used.  Entries are applied in
        one pass, in the order ``save`` writes them: an entry that names a
        pointer or scope the file has not yet stored raises
        ``SessionIOError``.
        """
        if isinstance(src, (str, Path)):
            with open(src, "rb") as fh:
                return cls.restore(fh, config)
        codebook = load_codebook(src)
        base = config if config is not None else Config()
        cfg = replace(base, dim=codebook.dim, moduli=tuple(codebook.moduli))
        (count,) = struct.unpack("<I", read_exact(src, 4))
        sess = cls.__new__(cls)
        sess._setup(cfg, codebook, np.random.default_rng((cfg.seed, count)))
        envs = sess.environments
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<I", read_exact(src, 4))
                name = read_exact(src, name_len).decode("utf-8")
                vec = read_vector(src, cfg.dim)
                prefix, _, rest = name.partition(":")
                if prefix in ("symbol", "pointer", "role", "env"):
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
        if "env-0" not in sess.environments:
            raise SessionIOError("session file lacks the global scope")
        sess.global_env = sess.environments["env-0"]
        return sess
