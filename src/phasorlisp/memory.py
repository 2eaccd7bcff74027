"""Cleanup memory: snap noisy vectors back to known atoms and chunks.

A ``CleanupMemory`` stores named unit-phasor vectors and answers nearest
neighbour queries under the real-part similarity kernel.  Entries carry a
kind: plain symbols, or pointers that name a stored composite chunk,
which ``chunk`` returns for unbinding.  Main entries are kept for good;
entries added to the segment are dropped together, which is how a
session forgets a top-level form's own cells.  Lexical scopes are chains of
plain name -> vector dicts linked by parent pointers; they are only ever
read by name, so they need no cleanup memory of their own.
"""

from __future__ import annotations

import math
import sys
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

#: Main rows per complex128 block.  A block is never reallocated, so a
#: row handed out by ``vector`` or ``recall`` keeps no dropped buffer alive.
_BLOCK_ROWS = 64

#: Unit roundoffs of float32 and float64: 2**-24 and 2**-53.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k: relative error bound of a k-term float sum."""
    return k * u / (1 - k * u)


class _VectorTable:
    """Keyed rows: main rows, append-only, then a segment dropped whole.

    Each row is stored once in complex128: a main row in a fixed block of
    ``_BLOCK_ROWS``, a segment row as its own copy.  Rows are handed out
    as read-only arrays, so a row kept by a caller pins no dropped buffer.
    The scan matrix holds each row's conjugate rounded to complex64: the
    main rows in the order they came, then the segment's rows.  A main
    append while the segment holds rows moves the segment's first scan
    row to the segment's end, so the live rows always form one range and
    one product scans them.  The matrix grows by doubling; no view of it
    leaves the table.

    ``best`` scans in complex64 and rescores in float64, with
    ``fhrr.similarity``, only the rows whose complex64 score lies within
    2*delta of the complex64 maximum.  In unscaled sums with n = dim,
    delta = (gamma_2n(u32) + 3*u32 + gamma_2n(u64) + u64) * max|m| * |v|
    bounds the distance between a row's complex64 score and n times its
    float64 similarity.  The real part of a complex dot is a real dot of
    2n products, 3*u32 covers rounding both operands to complex64, and
    Cauchy-Schwarz bounds sum |m_k||v_k|.  The float64 winner scores at
    least top - 2*delta in complex64, so it is rescored; every row left
    out scores below top - delta in float64, under the winner.  So the
    answer is exactly the first scan row with the highest float64
    similarity: on a tie, main rows win first, in the order they came.
    """

    def __init__(self, dim: int) -> None:
        self._dim = dim
        #: number of main rows; scan rows from here on are the segment's
        self.main = 0
        #: the block main rows are being written to, and its read-only view
        self._block: np.ndarray | None = None
        self._frozen: np.ndarray | None = None
        #: key and complex128 row of each live scan row
        self._keys: list[str] = []
        self._rows: list[np.ndarray] = []
        #: key -> scan row
        self._index: dict[str, int] = {}
        # rows past the live ones are never read, so no buffer is zeroed
        self._scan = np.empty((_BLOCK_ROWS, dim), dtype=np.complex64)
        #: largest row 2-norm stored; rows need not be unit phasors
        self._max_norm = 0.0
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
        return len(self._keys)

    def row(self, key: str) -> np.ndarray:
        """Read-only complex128 row stored under ``key``; KeyError if absent."""
        return self._rows[self._index[key]]

    def in_segment(self, key: str) -> bool:
        i = self._index.get(key)
        return i is not None and i >= self.main

    def append(self, key: str, v: np.ndarray, segment: bool = False) -> None:
        """Store ``v`` under a new ``key``, as a main row or in the segment."""
        n = len(self._keys)
        if n == self._scan.shape[0]:
            grown = np.empty((2 * n, self._dim), dtype=np.complex64)
            grown[:n] = self._scan
            self._scan = grown
        if segment:
            i = n
            row = np.array(v, dtype=np.complex128)
            row.flags.writeable = False
        else:
            i = self.main
            if i % _BLOCK_ROWS == 0:
                self._block = np.empty((_BLOCK_ROWS, self._dim), dtype=np.complex128)
                self._frozen = self._block.view()
                self._frozen.flags.writeable = False
            self._block[i % _BLOCK_ROWS] = v
            row = self._frozen[i % _BLOCK_ROWS]
            self.main = i + 1
        keys, rows = self._keys, self._rows
        keys.append(key)
        rows.append(row)
        if i < n:  # main rows come first: the segment row at ``i`` moves to the end
            keys[i], keys[n] = key, keys[i]
            rows[i], rows[n] = row, rows[i]
            self._index[keys[n]] = n
            self._scan[n] = self._scan[i]
        self._index[key] = i
        scan_row = self._scan[i]
        scan_row[:] = v
        np.conjugate(scan_row, out=scan_row)
        self._max_norm = max(self._max_norm, math.sqrt(np.vdot(v, v).real))

    def drop(self) -> list[str]:
        """Drop every segment row; returns their keys."""
        dropped = self._keys[self.main :]
        del self._keys[self.main :]
        del self._rows[self.main :]
        for key in dropped:
            del self._index[key]
        return dropped

    def best(self, v: np.ndarray, start: int) -> tuple[str | None, float]:
        """First scan row from ``start`` on with the highest similarity to ``v``.

        Returns its key and its ``fhrr.similarity``, or ``(None, -inf)``
        when no row lies past ``start``.
        """
        if start >= len(self._keys):
            return None, -math.inf
        scores = (self._scan[start : len(self._keys)] @ v.astype(np.complex64)).real
        top = float(scores.max())
        cut = top - self._slack * self._max_norm * math.sqrt(np.vdot(v, v).real)
        # comparing float32 scores with ``cut`` rounds ``cut`` to float32;
        # rounding is monotone, so no score at or above ``cut`` drops out
        best, best_score = -1, -math.inf
        for i in np.flatnonzero(scores >= cut).tolist():
            s = similarity(self._rows[start + i], v)
            if s > best_score:
                best, best_score = start + i, s
        return self._keys[best], best_score


@dataclass(frozen=True, eq=False)
class RecallResult:
    """Best-matching entry for a query vector."""

    name: str
    vector: np.ndarray
    similarity: float
    kind: str


class CleanupMemory:
    """Named phasor vectors with nearest neighbour recall.

    Entries are unique by name and never rewritten.  Pointer entries
    additionally carry a composite chunk vector, retrieved by ``chunk``
    and, like the entries, written once.  Main entries are append-only;
    an entry added with ``segment=True`` joins the segment instead, which
    ``drop_segment`` forgets whole, chunks included.  Recall scans both,
    and on equal scores a main entry wins over a segment entry.
    Recalls are counted so benchmarks can report memory traffic.
    """

    def __init__(self, dim: int, floor: float = FLOOR) -> None:
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.floor = floor
        self.recalls = 0
        self._table = _VectorTable(dim)
        #: name -> kind, in the order the live entries came
        self._kinds: dict[str, str] = {}
        self._chunks: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        """Live entries: the main ones and the segment's."""
        return len(self._kinds)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    @property
    def main_rows(self) -> int:
        """Number of main entries; it never falls."""
        return self._table.main

    def in_segment(self, name: str | None) -> bool:
        return self._table.in_segment(name)

    def names(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._kinds)
        return [n for n, k in self._kinds.items() if k == kind]

    def vector(self, name: str) -> np.ndarray:
        """Stored vector for ``name``, read-only; KeyError if absent."""
        return self._table.row(name)

    def chunk(self, name: str) -> np.ndarray:
        """Stored composite for pointer ``name``; KeyError if absent."""
        return self._chunks[name]

    def kind(self, name: str) -> str:
        """Stored kind for ``name``; KeyError if absent."""
        return self._kinds[name]

    def add(
        self, name: str, v: np.ndarray, kind: str = "symbol", segment: bool = False
    ) -> None:
        """Store ``v`` under ``name``; a duplicate name raises ValueError."""
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"vector dimension {v.shape[0]} != memory dimension {self.dim}"
            )
        if name in self._kinds:
            raise ValueError(f"entry {name!r} already stored")
        self._table.append(name, v, segment)
        self._kinds[name] = kind

    def add_chunk(
        self,
        name: str,
        pointer: np.ndarray,
        composite: np.ndarray,
        segment: bool = False,
    ) -> None:
        """Store a pointer entry together with the chunk it names."""
        self.add(name, pointer, kind="pointer", segment=segment)
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

    def drop_segment(self) -> None:
        """Forget every segment entry and its chunk."""
        for name in self._table.drop():
            del self._kinds[name]
            self._chunks.pop(name, None)

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
        if not self._kinds:
            raise MemoryEmptyError("memory is empty")
        best, score = self._table.best(v, 0)
        if score < self.floor:
            raise NoMatchError(
                f"best match {best!r} at {score:.3f} is below "
                f"the {self.floor} floor"
            )
        return RecallResult(
            name=best,
            vector=self._table.row(best),
            similarity=score,
            kind=self._kinds[best],
        )

    def best_since(self, v: np.ndarray, row: int) -> float:
        """Highest similarity of ``v`` to the main entries from ``row`` on
        and to every segment entry.

        Not a recall: nothing is counted and no floor applies.  With no
        such entry it is ``-inf``.
        """
        return self._table.best(v, row)[1]

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._kinds),
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
