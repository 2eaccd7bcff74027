"""Cleanup memory: snap noisy vectors back to known atoms and chunks.

A ``CleanupMemory`` stores named unit-phasor vectors and answers nearest
neighbour queries under the real-part similarity kernel.  Entries carry a
kind: plain symbols, or pointers that name a stored composite chunk,
which ``chunk`` returns for unbinding.  The memory is append-only: every
entry is kept for good.  It keeps one index of its entries, from name
to scan row; each row's kind and vector sit at the same position in
lists beside it.  Lexical scopes are
chains of plain name -> vector dicts linked by parent pointers; they are
only ever read by name, so they need no cleanup memory of their own.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    MemoryEmptyError,
    NoMatchError,
    UnboundSymbolError,
)
from .fhrr import FLOOR, similarity

__all__ = ["RecallResult", "CleanupMemory", "Environment"]

#: Unit roundoffs of float32 and float64: 2**-24 and 2**-53.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2


#: Largest magnitude a stored component may have: recall scans rows in
#: complex64, so a larger one, like NaN or infinity, would poison every score.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def storable(x: np.ndarray) -> bool:
    """Whether every component of ``x`` is finite and within float32 range,
    the rule for a vector memory stores; a complex ``x`` is judged by its
    real and imaginary parts."""
    if np.iscomplexobj(x):
        return storable(x.real) and storable(x.imag)
    # the maximum of an array holding NaN is NaN, which fails the test too
    return bool(np.abs(x).max() <= _FLOAT32_MAX)


def _blocks(rows: int, h: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unset head and tail scan blocks of ``rows`` rows, the first ``h``
    columns and the rest, as two C-contiguous views of one allocation.

    Not two: blocks grown apart made a memory growing to 600 rows at dim
    1000 take 3.5 times the page faults, and an add 10-11 us instead of 6
    (2-vCPU machine, numpy 2.4.6), likely because numpy asks for huge
    pages only for a buffer of 4 MiB or more.
    """
    buf = np.empty(rows * dim, dtype=np.complex64)
    return buf[: rows * h].reshape(rows, h), buf[rows * h :].reshape(rows, dim - h)


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k: relative error bound of a k-term float sum."""
    return k * u / (1 - k * u)


@dataclass(frozen=True, eq=False)
class RecallResult:
    """Best-matching entry for a query vector."""

    name: str
    vector: np.ndarray
    similarity: float
    kind: str


class CleanupMemory:
    """Named phasor vectors with nearest neighbour recall.

    The memory is one append-only store: entries are unique by name,
    never rewritten and never dropped, so the scan row an entry gets is
    its place in the order entries came.  Pointer entries may carry a
    composite chunk vector, retrieved by ``chunk`` and, like the entries,
    written once; a pointer whose chunk changes, as a session's spine
    cells do, carries none here.  Recalls are counted so benchmarks can report memory
    traffic.  A vector whose components are not all finite and within
    float32 range is refused (see ``storable``).

    One index maps each name to its scan row, and the row's name, kind
    and complex128 vector sit at that position in three lists.  Vectors
    are handed out read-only.  A read-only complex128 vector is kept by
    reference, so a row stored in many memories, as the sessions of one
    key store the rows of their shared stream, is held once; its owner
    must never write it.  Any other vector is copied once, and the copy
    is made read-only.  No stored vector is ever moved, so one kept by a
    caller pins no dropped buffer.  With n = dim and h = ceil(n/2), two
    C-contiguous complex64 blocks hold each vector rounded, not
    conjugated, in the order the rows came: the head block its first h
    columns and the tail block the rest.  Both grow by doubling, and no
    view of them leaves the memory.  Rows of a block are scored as the
    float32 dot product of the block's float32 view, each component as
    its real and imaginary parts, with the query's, since
    Re(conj(m)*v) = Re m*Re v + Im m*Im v.

    Every scan is ``_best``, against a bar b: the first-half leader's
    score for ``recall``, the score of the reading a memo checks for
    ``best_since``, and -inf for display.  It answers exactly the first
    scan row with the highest float64 similarity, as ``fhrr.similarity``
    gives it, when that similarity reaches b.  A range of one row is
    scored by ``similarity`` alone, exact by definition, and with no bar
    given its score is the bar.  A longer range is first scored on the
    head block alone, a quarter of the bytes of a complex128 scan.  Let
    P_m be row m's float32 score there, w the first row with the largest
    P, v_t the query past column h, max|m_t| the largest 2-norm of a
    stored row past column h, and, in unscaled sums,
    delta = (gamma_2n(u32) + 3*u32 + gamma_2n(u64) + u64) * max|m| * |v|.
    A row with P_m < n*b - max|m_t|*|v_t| - 2*delta scores below b in
    float64, so it can neither reach nor tie the bar: P_m lies within
    delta_h = (gamma_2h(u32) + 3*u32) * max|m_h| * |v_h| of the row's
    exact sum over the first h columns (the score is a real dot of 2h
    products, 3*u32 covers rounding both operands to complex64, and
    Cauchy-Schwarz bounds sum |m_k||v_k|), Cauchy-Schwarz bounds the rest
    of the sum by max|m_t|*|v_t|, n*similarity lies within
    delta_64 = (gamma_2n(u64) + u64) * max|m| * |v| of the whole exact
    sum, and delta_h + delta_64 <= delta leaves a delta to spare for
    rounding the cut.  The same inequalities keep w when b is w's own
    score.  When no row is kept, none reaches b; when w is the only one,
    its float64 score decides, and the tail block is never read.
    Otherwise ``_best`` adds the tail block's product to P, the same 2n
    products summed in another order, so P_m lies within delta of n times
    the row's similarity, and rescores the rows within 2*delta of the
    float32 maximum: the float64 winner scores at least top - 2*delta
    there, and every row left out scores below top - delta in float64,
    under the winner.  On a tie the row stored first wins.

    The bound assumes that the scan neither overflows nor underflows
    float32, which holds while |v| * max(max|m|, 1), a bound on every
    score and on every component of v, lies in [2**-64, 2**64]; a query
    outside that range (no session builds one) is scored row by row with
    ``similarity``, as a range of one row always is.

    The split is not a tuned knob.  A cons-cell unbinding is its filler
    plus two crosstalk terms, so |v_t| is about sqrt(3t) for t = n - h,
    and for unit rows the unread half's bound is about sqrt(3)*t.  A
    clean winner scores about n, so at h = n/2 the cut sits near 0.13n,
    five standard deviations of a random row's partial score; at h = 0.4n
    the bound passes n and nothing is dropped.  On the benchmark's plans
    at dim 1000, recall stops after the first half 86-96% of the time and
    the memos' check 90-97% of the time; at dim 256 recall does about
    half the time.
    """

    def __init__(self, dim: int, floor: float = FLOOR) -> None:
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.floor = floor
        self.recalls = 0
        #: name -> scan row of every entry, in the order they came
        self._index: dict[str, int] = {}
        #: name, kind and read-only complex128 vector of each scan row
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._rows: list[np.ndarray] = []
        self._chunks: dict[str, np.ndarray] = {}
        #: columns a scan reads before it tries to stop
        self._half = h = -(-dim // 2)
        # room for 64 rows at first; rows past the stored ones are never
        # read, so no buffer is zeroed
        self._head, self._tail = _blocks(64, h, dim)
        #: largest 2-norm stored of a whole row and of the columns from
        #: ``_half`` on; rows need not be unit phasors
        self._max_norm = self._max_tail = 0.0
        n = 2 * dim
        # twice delta per unit of max|m| * |v|; past 2n * u32 >= 1 no
        # bound holds and every row is rescored (a finite stand-in for
        # infinity, so that a zero norm gives a zero margin, not NaN)
        self._slack = (
            2 * (_gamma(n, _U32) + 3 * _U32 + _gamma(n, _U64) + _U64)
            if n * _U32 < 1
            else sys.float_info.max
        )

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._index)
        return [n for n, i in self._index.items() if self._kinds[i] == kind]

    def vector(self, name: str) -> np.ndarray:
        """Stored vector for ``name``, read-only; KeyError if absent."""
        return self._rows[self._index[name]]

    def chunk(self, name: str) -> np.ndarray:
        """Stored composite for pointer ``name``; KeyError if absent."""
        return self._chunks[name]

    def kind(self, name: str) -> str:
        """Stored kind for ``name``; KeyError if absent."""
        return self._kinds[self._index[name]]

    def add(self, name: str, v: np.ndarray, kind: str = "symbol") -> None:
        """Store ``v`` under ``name``; a duplicate name raises ValueError.

        A read-only complex128 ``v`` is kept by reference, and its owner
        must never write it; any other is copied once.  A vector of the
        wrong length, or with a component that is not finite or lies
        beyond float32 range (see ``storable``), raises
        ``DimensionError``; nothing is written then.
        """
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"vector dimension {v.shape[0]} != memory dimension {self.dim}"
            )
        norm = math.sqrt(np.vdot(v, v).real)
        # No component exceeds the 2-norm, whose rounding error is far below
        # a factor of two, so only a rare vector is checked one by one.
        if not (norm <= _FLOAT32_MAX / 2 or storable(v)):
            raise DimensionError(
                f"vector for {name!r} has a non-finite or huge component"
            )
        if name in self._index:
            raise ValueError(f"entry {name!r} already stored")
        i = len(self._names)
        if i == self._head.shape[0]:
            head, tail = _blocks(2 * i, self._half, self.dim)
            head[:i], tail[:i] = self._head, self._tail
            self._head, self._tail = head, tail
        if v.flags.writeable or v.dtype != np.complex128:
            v = v.astype(np.complex128)
            v.flags.writeable = False
        self._names.append(name)
        self._kinds.append(kind)
        self._rows.append(v)
        self._index[name] = i
        h = self._half
        self._head[i] = v[:h]
        tail = v[h:]
        self._tail[i] = tail
        self._max_norm = max(self._max_norm, norm)
        self._max_tail = max(self._max_tail, math.sqrt(np.vdot(tail, tail).real))

    def add_chunk(self, name: str, pointer: np.ndarray, composite: np.ndarray) -> None:
        """Store a pointer entry together with the chunk it names."""
        self.add(name, pointer, kind="pointer")
        self.attach_chunk(name, composite)

    def attach_chunk(self, name: str, composite: np.ndarray) -> None:
        """Attach a composite to a stored pointer entry that has none yet.

        Chunks are write-once: a second attach raises ValueError.
        """
        if composite.shape[0] != self.dim:
            raise DimensionError(
                f"chunk dimension {composite.shape[0]} != memory dimension {self.dim}"
            )
        if self.kind(name) != "pointer":
            raise ValueError(f"entry {name!r} is not a pointer")
        if name in self._chunks:
            raise ValueError(f"pointer {name!r} already has a chunk")
        self._chunks[name] = composite

    def _best(
        self, v: np.ndarray, start: int = 0, bar: float | None = None
    ) -> tuple[int, float]:
        """First scan row from ``start`` on with the highest similarity to
        ``v``, and that similarity, when it reaches ``bar``; ``(-1, -inf)``
        when none does or no row lies past ``start``.  The default bar is
        the first-half leader's score, so some row always reaches it.  See
        the class docstring for the bound that drops rows below the bar,
        and for the queries scored row by row.
        """
        stored = len(self._names)
        if stored - start < 2:
            return self._first_best(v, range(start, stored), bar)
        h = self._half
        norm = math.sqrt(np.vdot(v, v).real)
        if not 2.0**-64 <= norm * max(self._max_norm, 1.0) <= 2.0**64:
            return self._first_best(v, range(start, stored), bar)
        v32 = v.astype(np.complex64)
        # Re(conj(m) v) = Re m Re v + Im m Im v, a dot of float32 views
        f32 = np.float32
        scores = self._head[start:stored].view(f32) @ v32[:h].view(f32)
        lead = start + int(scores.argmax())
        known = -1
        if bar is None:
            known, bar = lead, similarity(self._rows[lead], v)
        slack = self._slack * self._max_norm * norm
        tail = self._max_tail * math.sqrt(np.vdot(v[h:], v[h:]).real)
        # a float64 cut: against float32 scores a Python float would be
        # rounded to float32, and one past its range would overflow
        cut = np.float64(self.dim * bar - tail - slack)
        kept = np.count_nonzero(scores >= cut)
        if kept == 0:
            return -1, -math.inf
        rows = [lead]
        if kept > 1:
            scores += self._tail[start:stored].view(f32) @ v32[h:].view(f32)
            # the float32 maximum less the slack stays within float32 range,
            # and rounding it to float32 is monotone, so no row within the
            # slack drops out
            top = float(scores.max())
            rows = (start + np.flatnonzero(scores >= top - slack)).tolist()
        return self._first_best(v, rows, bar, known)

    def _first_best(
        self, v: np.ndarray, rows: Iterable[int], bar: float | None, known: int = -1
    ) -> tuple[int, float]:
        """First of ``rows`` with the highest float64 similarity to ``v``,
        and that similarity, when it reaches ``bar`` (any score does when
        ``bar`` is None); ``(-1, -inf)`` otherwise.  Row ``known`` scores
        ``bar``, its similarity, without being scored again.
        """
        best, best_score = -1, -math.inf
        for row in rows:
            s = bar if row == known else similarity(self._rows[row], v)
            if s > best_score:
                best, best_score = row, s
        if bar is None:
            bar = best_score
        return (best, best_score) if best_score >= bar else (-1, -math.inf)

    def recall(self, v: np.ndarray) -> RecallResult:
        """Best entry for ``v``.

        Raises ``MemoryEmptyError`` when nothing is stored and
        ``NoMatchError`` when the best similarity is below the floor.
        """
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"query dimension {v.shape[0]} != memory dimension {self.dim}"
            )
        self.recalls += 1
        if not self._index:
            raise MemoryEmptyError("memory is empty")
        i, score = self._best(v)
        name = self._names[i]
        if score < self.floor:
            raise NoMatchError(
                f"best match {name!r} at {score:.3f} is below "
                f"the {self.floor} floor"
            )
        return RecallResult(
            name=name, vector=self._rows[i], similarity=score, kind=self._kinds[i]
        )

    def best_since(
        self, v: np.ndarray, row: int, bar: float = -math.inf
    ) -> float:
        """Best similarity to ``v`` among the entries from scan row ``row``
        on, the score ``recall`` would give the best of them, when it
        reaches ``bar``; ``-inf`` when it does not or no such entry exists.

        Not a recall: nothing is counted and no floor applies.
        """
        return self._best(v, row, bar)[1]

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._index),
            "chunks": len(self._chunks),
            "recalls": self.recalls,
        }


class Environment:
    """Chain of binding frames, innermost first.

    Each frame is a dict from name to value vector.  Lookup walks
    outward; define always writes the innermost frame, and redefinition
    in the same frame replaces the binding in place.
    """

    def __init__(self, parent: "Environment | None" = None) -> None:
        self.frame: dict[str, np.ndarray] = {}
        self.parent = parent
        # name of the handle symbol minted for this scope, once one exists
        self.handle: str | None = None

    def define(self, name: str, v: np.ndarray) -> None:
        self.frame[name] = v

    def lookup(self, name: str) -> np.ndarray:
        env: Environment | None = self
        while env is not None:
            if name in env.frame:
                return env.frame[name]
            env = env.parent
        raise UnboundSymbolError(f"symbol {name!r} is not bound")

    def child(self) -> "Environment":
        return Environment(parent=self)
