"""Cleanup memory: snap noisy vectors back to known atoms and chunks.

A ``CleanupMemory`` stores named unit-phasor vectors and answers nearest
neighbour queries under the real-part similarity kernel.  Entries carry a
kind: plain symbols, or pointers that name a stored composite chunk,
which ``chunk`` returns for unbinding.  Main entries are kept for good;
entries added to the segment are dropped together, which is how a
session forgets a top-level form's own cells.  The memory keeps one
index of its live entries, from name to scan row; each row's kind and
vector sit at the same position in lists beside it.  Lexical scopes are
chains of plain name -> vector dicts linked by parent pointers; they are
only ever read by name, so they need no cleanup memory of their own.
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
#: Blocks rather than one copy per row: storing every main row as its own
#: array read 3-4% more peak RSS on the ``repl`` and ``lists`` benchmarks.
_BLOCK_ROWS = 64

#: Unit roundoffs of float32 and float64: 2**-24 and 2**-53.
_U32 = float(np.finfo(np.float32).eps) / 2
_U64 = float(np.finfo(np.float64).eps) / 2


#: Largest magnitude a stored component may have: recall scans rows in
#: complex64, so a larger one, like NaN or infinity, would poison every score.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def storable(x: np.ndarray) -> bool:
    """Whether every component of ``x`` is finite and within float32 range,
    the rule for a vector memory stores or a session file holds; a complex
    ``x`` is judged by its real and imaginary parts."""
    if np.iscomplexobj(x):
        return storable(x.real) and storable(x.imag)
    # the maximum of an array holding NaN is NaN, which fails the test too
    return bool(np.abs(x).max() <= _FLOAT32_MAX)


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

    Entries are unique by name and never rewritten.  Pointer entries
    additionally carry a composite chunk vector, retrieved by ``chunk``
    and, like the entries, written once.  Main entries are append-only;
    an entry added with ``segment=True`` joins the segment instead, which
    ``drop_segment`` forgets whole, chunks included.  Recall scans both,
    and on equal scores a main entry wins over a segment entry.
    Recalls are counted so benchmarks can report memory traffic, and adds
    and segment drops so a caller can tell nothing has changed since it
    last looked.  A vector whose components are not all finite and within
    float32 range is refused (see ``storable``).

    One index maps each live name to its scan row, and the row's name,
    kind and complex128 vector sit at that position in three lists.  A
    main vector is stored in a fixed block of ``_BLOCK_ROWS``, a segment
    vector as its own copy; both are handed out read-only, so a vector
    kept by a caller pins no dropped buffer.  The scan matrix holds each
    vector's conjugate rounded to complex64: the main rows in the order
    they came, then the segment's rows.  A main append while the segment
    holds rows moves the segment's first scan row to the segment's end,
    so the live rows always form one range and one product scans them.
    The matrix grows by doubling; no view of it leaves the memory.

    ``_best`` scans in complex64 and rescores in float64, with
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
    similarity.  On a tie a main row wins over a segment row, and of two
    main rows the one stored first; of two segment rows the one whose
    scan row comes first, which need not be the one stored first, since
    every main append moves the segment's first scan row to its end.

    ``recall`` first reads only the first h = ceil(n/2) columns of the
    scan rows, a quarter of the bytes of a complex128 scan.  Let P_m be
    row m's complex64 score over them, w the first row with the largest
    P, s_w its float64 similarity, v_t the query past column h and
    max|m_t| the largest 2-norm of a stored row past column h.  A row
    with P_m < n*s_w - max|m_t|*|v_t| - 2*delta scores below s_w in
    float64, so it can neither win nor tie: P_m lies within
    delta_h = (gamma_2h(u32) + 3*u32) * max|m_h| * |v_h| of the row's
    exact sum over the first h columns, Cauchy-Schwarz bounds the rest
    of the sum by max|m_t|*|v_t|, n*similarity lies within
    delta_64 = (gamma_2n(u64) + u64) * max|m| * |v| of the whole exact
    sum, and delta_h + delta_64 <= delta leaves a delta to spare for
    rounding the cut.  The same inequalities keep w.  When w is the only
    row kept, recall returns it without reading the other columns;
    otherwise it adds their product to P, the same 2n products summed in
    another order, so delta still holds, and goes on as ``_best`` does,
    with s_w reused.  A cons-cell unbinding is its filler plus two
    crosstalk terms, so |v_t| is about sqrt(3t) for t = n - h, and for
    unit rows the unread half's bound is about sqrt(3)*t.  A clean winner
    scores about n, so at h = n/2 the cut sits near 0.13n, five standard
    deviations of a random row's partial score; at h = 0.4n the bound
    passes n and nothing is dropped.  On the benchmark's plans at dim
    1000 recall stops after the first half 87-96% of the time; at dim
    256 about half the time.  ``best_since`` keeps the one pass: its rows
    are the few added since a reading and the segment, whose best score
    is far below the remembered winner, so the bound would drop nothing.
    """

    def __init__(self, dim: int, floor: float = FLOOR) -> None:
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.floor = floor
        self.recalls = 0
        #: number of main entries, which never falls; scan rows from here
        #: on are the segment's
        self.main_rows = 0
        #: entries added and segments dropped so far: while it holds, every
        #: recall answers as before
        self.changes = 0
        #: name -> scan row of every live entry, in the order they came
        self._index: dict[str, int] = {}
        #: name, kind and read-only complex128 vector of each scan row
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._rows: list[np.ndarray] = []
        self._chunks: dict[str, np.ndarray] = {}
        #: the block main rows are being written to, and its read-only view
        self._block: np.ndarray | None = None
        self._frozen: np.ndarray | None = None
        # rows past the live ones are never read, so no buffer is zeroed
        self._scan = np.empty((_BLOCK_ROWS, dim), dtype=np.complex64)
        #: largest 2-norm stored of a whole row and of the columns from
        #: ``_half`` on; rows need not be unit phasors, and neither falls
        #: when the segment is dropped
        self._max_norm = self._max_tail = 0.0
        #: columns ``recall`` reads before it tries to stop
        self._half = -(-dim // 2)
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
        """Live entries: the main ones and the segment's."""
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def in_segment(self, name: str | None) -> bool:
        return self._index.get(name, -1) >= self.main_rows

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

    def add(
        self, name: str, v: np.ndarray, kind: str = "symbol", segment: bool = False
    ) -> None:
        """Store ``v`` under ``name``; a duplicate name raises ValueError.

        A vector of the wrong length, or with a component that is not
        finite or lies beyond float32 range (see ``storable``), raises
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
        n = len(self._names)
        if n == self._scan.shape[0]:
            grown = np.empty((2 * n, self.dim), dtype=np.complex64)
            grown[:n] = self._scan
            self._scan = grown
        if segment:
            i = n
            row = np.array(v, dtype=np.complex128)
            row.flags.writeable = False
        else:
            i = self.main_rows
            if i % _BLOCK_ROWS == 0:
                self._block = np.empty((_BLOCK_ROWS, self.dim), dtype=np.complex128)
                self._frozen = self._block.view()
                self._frozen.flags.writeable = False
            self._block[i % _BLOCK_ROWS] = v
            row = self._frozen[i % _BLOCK_ROWS]
            self.main_rows = i + 1
        names, kinds, rows = self._names, self._kinds, self._rows
        names.append(name)
        kinds.append(kind)
        rows.append(row)
        if i < n:  # main rows come first: the segment row at ``i`` moves to the end
            names[i], names[n] = name, names[i]
            kinds[i], kinds[n] = kind, kinds[i]
            rows[i], rows[n] = row, rows[i]
            self._index[names[n]] = n
            self._scan[n] = self._scan[i]
        self._index[name] = i
        scan_row = self._scan[i]
        scan_row[:] = v
        np.conjugate(scan_row, out=scan_row)
        tail = v[self._half:]
        self._max_norm = max(self._max_norm, norm)
        self._max_tail = max(self._max_tail, math.sqrt(np.vdot(tail, tail).real))
        self.changes += 1

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
        main = self.main_rows
        for name in self._names[main:]:
            del self._index[name]
            self._chunks.pop(name, None)
        del self._names[main:], self._kinds[main:], self._rows[main:]
        self.changes += 1

    def _rescore(
        self, v: np.ndarray, start: int, scores: np.ndarray, norm: float,
        known: int = -1, known_score: float = 0.0,
    ) -> tuple[int, float]:
        """First row with the highest similarity among those whose
        complex64 score in ``scores`` (rows from ``start`` on) lies within
        2*delta of the top; ``norm`` is |v|.  Row ``known``'s similarity,
        ``known_score``, is reused rather than computed again."""
        top = float(scores.max())
        cut = top - self._slack * self._max_norm * norm
        # comparing float32 scores with ``cut`` rounds ``cut`` to float32;
        # rounding is monotone, so no score at or above ``cut`` drops out
        best, best_score = -1, -math.inf
        for i in np.flatnonzero(scores >= cut).tolist():
            row = start + i
            s = known_score if row == known else similarity(self._rows[row], v)
            if s > best_score:
                best, best_score = row, s
        return best, best_score

    def _best(self, v: np.ndarray, start: int) -> tuple[int, float]:
        """First scan row from ``start`` on with the highest similarity to
        ``v``, in one pass over whole rows.

        Returns the row and its ``fhrr.similarity``, or ``(-1, -inf)``
        when no row lies past ``start``.
        """
        live = len(self._names)
        if start >= live:
            return -1, -math.inf
        scores = (self._scan[start:live] @ v.astype(np.complex64)).real
        return self._rescore(v, start, scores, math.sqrt(np.vdot(v, v).real))

    def _best_by_halves(self, v: np.ndarray) -> tuple[int, float]:
        """``_best(v, 0)``, reading the scan rows past column ``_half``
        only when the bound in the class docstring says they can change
        the winner."""
        h = self._half
        scan = self._scan[: len(self._names)]
        v32 = v.astype(np.complex64)
        norm = math.sqrt(np.vdot(v, v).real)
        scores = (scan[:, :h] @ v32[:h]).real
        lead = int(scores.argmax())
        lead_score = similarity(self._rows[lead], v)
        cut = (
            self.dim * lead_score
            - self._max_tail * math.sqrt(np.vdot(v[h:], v[h:]).real)
            - self._slack * self._max_norm * norm
        )
        # as in ``_rescore``, no score at or above ``cut`` drops out
        if np.count_nonzero(scores >= cut) == 1:
            return lead, lead_score
        scores += (scan[:, h:] @ v32[h:]).real
        return self._rescore(v, 0, scores, norm, lead, lead_score)

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
        i, score = self._best_by_halves(v)
        name = self._names[i]
        if score < self.floor:
            raise NoMatchError(
                f"best match {name!r} at {score:.3f} is below "
                f"the {self.floor} floor"
            )
        return RecallResult(
            name=name, vector=self._rows[i], similarity=score, kind=self._kinds[i]
        )

    def best_since(self, v: np.ndarray, row: int) -> tuple[str | None, float]:
        """Name and similarity of the first best match for ``v`` among the
        main entries from ``row`` on and every segment entry, in scan order.

        Not a recall: nothing is counted and no floor applies.  With no
        such entry it is ``(None, -inf)``.  The score is the one ``recall``
        would give that entry.
        """
        i, score = self._best(v, row)
        return (self._names[i] if i >= 0 else None), score

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
