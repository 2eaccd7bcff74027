"""Cleanup memory: snap noisy vectors back to known atoms and chunks.

A ``CleanupMemory`` stores named unit-phasor vectors and answers nearest
neighbour queries under the real-part similarity kernel.  Entries carry a
kind: plain symbols, or pointers that name a stored composite chunk,
which ``chunk`` returns for unbinding.  Lexical scopes are chains of
plain name -> vector dicts linked by parent pointers; they are only ever
read by name, so they need no cleanup memory of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    MemoryEmptyError,
    NoMatchError,
    UnboundSymbolError,
)
from .fhrr import similarities

__all__ = ["RecallResult", "CleanupMemory", "Environment"]

#: Default similarity floor for recall.  Matches the decoding floor:
#: random phasors score O(1/sqrt(dim)), far below 0.1 at dim=1000.
RECALL_FLOOR = 0.1


class _VectorTable:
    """Append-only matrix of row vectors with amortized growth."""

    def __init__(self, dim: int, capacity: int = 64) -> None:
        self._dim = dim
        self._rows = 0
        self._data = np.zeros((capacity, dim), dtype=np.complex128)

    def __len__(self) -> int:
        return self._rows

    @property
    def matrix(self) -> np.ndarray:
        """View of the filled rows; no copy."""
        return self._data[: self._rows]

    def append(self, v: np.ndarray) -> int:
        if self._rows == self._data.shape[0]:
            grown = np.zeros(
                (2 * self._data.shape[0], self._dim), dtype=np.complex128
            )
            grown[: self._rows] = self._data[: self._rows]
            self._data = grown
        self._data[self._rows] = v
        self._rows += 1
        return self._rows - 1


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
        """Stored vector for ``name``; KeyError if absent."""
        return self._table.matrix[self._index[name]]

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
        matrix = self._table.matrix
        sims = similarities(matrix, v)
        best = int(np.argmax(sims))
        score = float(sims[best])
        if score < self.floor:
            raise NoMatchError(
                f"best match {self._names[best]!r} at {score:.3f} is below "
                f"the {self.floor} floor"
            )
        return RecallResult(
            name=self._names[best],
            vector=matrix[best],
            similarity=score,
            kind=self._kinds[best],
        )

    def best_since(self, v: np.ndarray, row: int) -> float:
        """Highest similarity of ``v`` to the entries stored from ``row`` on.

        Not a recall: nothing is counted and no floor applies.  There must
        be at least one such entry.
        """
        return float(similarities(self._table.matrix[row:], v).max())

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
