"""Cleanup memory: snap noisy vectors back to known atoms and chunks.

A ``CleanupMemory`` stores named unit-phasor vectors and answers nearest
neighbour queries under the real-part similarity kernel.  Entries carry a
kind: plain symbols, or pointers that name a stored composite chunk,
which ``chunk`` returns for unbinding.  Lexical scopes are chains of
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
from .fhrr import similarity

__all__ = ["RecallResult", "CleanupMemory", "Environment"]

#: Default similarity floor for recall.  Matches the decoding floor:
#: random phasors score O(1/sqrt(dim)), far below 0.1 at dim=1000.
RECALL_FLOOR = 0.1


#: Rows per complex128 block.  A block is never reallocated, so a row
#: handed out by ``vector`` or ``recall`` keeps no dropped buffer alive.
_BLOCK_ROWS = 64

#: Unit roundoffs of float32 and float64: 2**-24 and 2**-53.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k: relative error bound of a k-term float sum."""
    return k * u / (1 - k * u)


class _VectorTable:
    """Append-only rows, stored once in complex128, scanned in complex64.

    The complex128 rows live in fixed blocks of ``_BLOCK_ROWS``.  The
    scan matrix holds each row's conjugate rounded to complex64 and
    grows by doubling; no view of it leaves the table.

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
    answer is exactly the first row with the highest float64 similarity.
    """

    def __init__(self, dim: int) -> None:
        self._dim = dim
        self._rows = 0
        self._blocks: list[np.ndarray] = []
        #: read-only views of ``_blocks``, the arrays rows are handed out of
        self._frozen: list[np.ndarray] = []
        # rows past ``_rows`` are never read, so no buffer is zeroed
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
        return self._rows

    def row(self, i: int) -> np.ndarray:
        """Read-only view of row ``i``; no copy."""
        return self._frozen[i // _BLOCK_ROWS][i % _BLOCK_ROWS]

    def append(self, v: np.ndarray) -> int:
        i = self._rows
        if i % _BLOCK_ROWS == 0:
            block = np.empty((_BLOCK_ROWS, self._dim), dtype=np.complex128)
            frozen = block.view()
            frozen.flags.writeable = False
            self._blocks.append(block)
            self._frozen.append(frozen)
        if i == self._scan.shape[0]:
            grown = np.empty((2 * i, self._dim), dtype=np.complex64)
            grown[:i] = self._scan
            self._scan = grown
        self._blocks[-1][i % _BLOCK_ROWS] = v
        scan_row = self._scan[i]
        scan_row[:] = v
        np.conjugate(scan_row, out=scan_row)
        self._max_norm = max(self._max_norm, math.sqrt(np.vdot(v, v).real))
        self._rows = i + 1
        return i

    def best(self, v: np.ndarray, start: int) -> tuple[int, float]:
        """First row from ``start`` on with the highest similarity to ``v``.

        Returns the row and its ``fhrr.similarity``.  There must be at
        least one such row.
        """
        scores = (self._scan[start : self._rows] @ v.astype(np.complex64)).real
        top = float(scores.max())
        cut = top - self._slack * self._max_norm * math.sqrt(np.vdot(v, v).real)
        # comparing float32 scores with ``cut`` rounds ``cut`` to float32;
        # rounding is monotone, so no score at or above ``cut`` drops out
        best, best_score = -1, -math.inf
        for i in np.flatnonzero(scores >= cut).tolist():
            s = similarity(self.row(start + i), v)
            if s > best_score:
                best, best_score = start + i, s
        return best, best_score


@dataclass(frozen=True)
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
    and, like the entries, written once.
    Recalls are counted so benchmarks can report memory traffic.
    """

    def __init__(self, dim: int, floor: float = RECALL_FLOOR) -> None:
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.floor = floor
        self.recalls = 0
        self._table = _VectorTable(dim)
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._index: dict[str, int] = {}
        self._chunks: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def names(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return list(self._names)
        return [n for n, k in zip(self._names, self._kinds) if k == kind]

    def vector(self, name: str) -> np.ndarray:
        """Stored vector for ``name``, read-only; KeyError if absent."""
        return self._table.row(self._index[name])

    def chunk(self, name: str) -> np.ndarray:
        """Stored composite for pointer ``name``; KeyError if absent."""
        return self._chunks[name]

    def kind(self, name: str) -> str:
        """Stored kind for ``name``; KeyError if absent."""
        return self._kinds[self._index[name]]

    def add(self, name: str, v: np.ndarray, kind: str = "symbol") -> None:
        """Store ``v`` under ``name``; a duplicate name raises ValueError."""
        if v.shape[0] != self.dim:
            raise DimensionError(
                f"vector dimension {v.shape[0]} != memory dimension {self.dim}"
            )
        if name in self._index:
            raise ValueError(f"entry {name!r} already stored")
        row = self._table.append(v)
        self._names.append(name)
        self._kinds.append(kind)
        self._index[name] = row

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
        if not self._names:
            raise MemoryEmptyError("memory is empty")
        best, score = self._table.best(v, 0)
        if score < self.floor:
            raise NoMatchError(
                f"best match {self._names[best]!r} at {score:.3f} is below "
                f"the {self.floor} floor"
            )
        return RecallResult(
            name=self._names[best],
            vector=self._table.row(best),
            similarity=score,
            kind=self._kinds[best],
        )

    def best_since(self, v: np.ndarray, row: int) -> float:
        """Highest similarity of ``v`` to the entries stored from ``row`` on.

        Not a recall: nothing is counted and no floor applies.  There must
        be at least one such entry.
        """
        return self._table.best(v, row)[1]

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._names),
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
