"""Iterative factorization of Hadamard-bound composites.

Given ``s = x_a * y_b * z_c`` (elementwise) with each factor drawn from a
known codebook, the network keeps one running estimate per factor slot.
Each update unbinds the other slots' current estimates from ``s``, projects
the residual onto the span of the slot's codebook (complex coefficients,
so phase alignment is retained), and re-normalizes every element to the
unit circle.  The slots are swept sequentially so each update sees the
freshest estimates of the others.

Convergence is declared when the winning atom index of every slot has been
stable for ``PATIENCE`` consecutive sweeps; the winning indices are the
decoded output, so vector-level oscillation with a stable argmax is benign.

The network runs in *class space*.  Group the elements by their joint
column, the values every atom of every codebook holds there.  Each
estimate starts as a function of its codebook's column and each update
rebuilds it from the atoms elementwise, so every estimate is constant on
each class.  The input then enters an update only through the sum of its
elements over each class, and a similarity through class-size-weighted
sums.  So one entry per class carries the whole network: the same
quantities, summed in a different order.  Codebooks whose phases are
multiples of 2*pi/m, such as the residue codebooks, have few classes
(at most 105 for moduli 3, 5, 7); random ones have about ``dim``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .errors import DimensionError
from .fhrr import normalize, similarities

__all__ = [
    "ColumnClasses",
    "FactorBooks",
    "FactorCodebook",
    "ResonatorState",
    "column_classes",
    "factorize",
    "cleanup",
]

#: Sweeps the winning atom indices must hold unchanged to converge
PATIENCE = 3


@dataclass(frozen=True, eq=False)
class ColumnClasses:
    """The elements of a table grouped by the exact bits of their column.

    ``reps`` holds one element of each class, ``of`` the class of every
    element, and ``sizes`` the element count of each class (as floats,
    to weight sums).
    """

    reps: np.ndarray
    of: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return self.reps.shape[0]

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Sum of the elements of complex ``v`` over each class."""
        n = len(self)
        return (np.bincount(self.of, weights=v.real, minlength=n)
                + 1j * np.bincount(self.of, weights=v.imag, minlength=n))


def column_classes(table: np.ndarray) -> ColumnClasses:
    """Group the columns of a 2-D ``table`` that hold the same bits."""
    cols = np.ascontiguousarray(table.T)
    keys = cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1])))
    _, reps, of, sizes = np.unique(
        keys.ravel(), return_index=True, return_inverse=True, return_counts=True
    )
    return ColumnClasses(reps=reps, of=of, sizes=sizes.astype(np.float64))


@dataclass(frozen=True, eq=False)
class FactorCodebook:
    """Candidate atoms for one factor slot.

    ``atoms`` is an (N, dim) complex matrix, one unit-modulus atom per row.
    The codebook is immutable, so the default starting estimate of
    ``factorize`` (the normalized superposition of the atoms) and its
    winning atom index are computed once here.  ``factorize`` reads the
    atoms at one element per column class of the codebooks it factors
    against: the estimates it builds from them are constant on each class,
    so the other elements of a class add nothing new (see the module
    docstring).
    """

    atoms: np.ndarray
    label: str = ""
    start: np.ndarray = field(init=False, repr=False)
    start_index: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.complex128)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise DimensionError(
                f"codebook {self.label!r} needs at least one atom row"
            )
        object.__setattr__(self, "atoms", atoms)
        start = normalize(atoms.sum(axis=0))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "start_index", cleanup(start, self)[0])

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


class FactorBooks(Sequence[FactorCodebook]):
    """Codebooks factored together, read at one element per column class.

    ``books`` is one or more codebooks of one dimension, as ``factorize``
    checks.  ``classes`` defaults to the classes of the stacked atoms; a
    caller that knows the columns by a smaller table (the residue phase
    table) passes its classes.  Per slot it keeps the atoms at the class
    representatives, their conjugates, the atoms weighted by class size
    (for cleanup) and the default start.  Immutable, like the codebooks.
    """

    def __init__(
        self,
        books: Sequence[FactorCodebook],
        classes: ColumnClasses | None = None,
    ) -> None:
        self._books = tuple(books)
        if classes is None:
            classes = column_classes(np.vstack([cb.atoms for cb in self._books]))
        self.classes = classes
        reps = classes.reps
        self.atoms = [cb.atoms[:, reps] for cb in self._books]
        self.conj_atoms = [a.conj() for a in self.atoms]
        self.weighted = [a * classes.sizes for a in self.atoms]
        self.starts = [cb.start[reps] for cb in self._books]
        self.dim = self._books[0].dim

    def __len__(self) -> int:
        return len(self._books)

    def __getitem__(self, k):
        return self._books[k]

    def cleanup(self, k: int, conj_estimate: np.ndarray) -> tuple[int, float]:
        """``cleanup`` of slot ``k`` for a class-space estimate, given conjugated."""
        sims = (self.weighted[k] @ conj_estimate).real / self.dim
        idx = int(sims.argmax())
        return idx, float(sims[idx])


@dataclass
class ResonatorState:
    """Outcome of a factorization run."""

    estimates: list[np.ndarray]
    iterations: int
    converged: bool
    history: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def indices(self) -> tuple[int, ...]:
        return self.history[-1]


def cleanup(s: np.ndarray, codebook: FactorCodebook) -> tuple[int, float]:
    """Nearest atom by the similarity kernel; ties go to the lowest index."""
    if s.shape[0] != codebook.dim:
        raise DimensionError(
            f"probe dimension {s.shape[0]} != codebook dimension {codebook.dim}"
        )
    sims = similarities(codebook.atoms, s)
    idx = int(np.argmax(sims))
    return idx, float(sims[idx])


def _initial_estimates(
    books: FactorBooks, seed: int | None
) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Class-space starting estimates, as a fresh list, and their winners."""
    if seed is None:
        return list(books.starts), tuple(cb.start_index for cb in books)
    estimates = []
    for slot, cb in enumerate(books):
        rng = np.random.default_rng((seed, slot))
        weights = rng.standard_normal(len(cb)) + 1j * rng.standard_normal(len(cb))
        estimates.append(normalize(weights @ books.atoms[slot]))
    winners = tuple(
        books.cleanup(k, e.conj())[0] for k, e in enumerate(estimates)
    )
    return estimates, winners


def factorize(
    s: np.ndarray,
    codebooks: Sequence[FactorCodebook],
    max_iters: int = 100,
    *,
    trace: IO[str] | None = None,
    seed: int | None = None,
) -> ResonatorState:
    """Factor ``s`` into one atom per codebook.

    Estimates start from the normalized superposition of each codebook's
    atoms.  Pass ``seed`` to start from a reproducible random mixture
    instead; callers use that to retry when the default basin fails on a
    noisy input.  Returns the final state; if the winning indices never
    settled within ``max_iters`` sweeps the state is flagged unconverged
    and holds the best indices found so far.

    The sweeps run over one entry per column class of the codebooks, and
    the final estimates are gathered back to ``dim`` elements.  This is
    the same network as sweeping all ``dim`` elements: every estimate is
    constant on each class, so each coefficient is a sum over classes of
    the atom, the other estimates and the class sum of ``s``, and each
    winner a class-size-weighted similarity.  Only the summation order
    differs.  Pass a ``FactorBooks`` to reuse its classes; a plain
    sequence of codebooks has them computed afresh.
    """
    if not codebooks:
        raise DimensionError("factorize needs at least one codebook")
    if max_iters < 1:
        raise DimensionError(f"max_iters must be >= 1, got {max_iters}")
    for cb in codebooks:
        if cb.dim != s.shape[0]:
            raise DimensionError(
                f"codebook {cb.label!r} dimension {cb.dim} != input {s.shape[0]}"
            )
    books = codebooks if isinstance(codebooks, FactorBooks) else FactorBooks(codebooks)
    sums = books.classes.sums(s)

    estimates, start = _initial_estimates(books, seed)
    # each estimate is used only conjugated until the end; the sweeps
    # rebind the list's elements, never the arrays in it
    conj_estimates = [e.conj() for e in estimates]
    winners = list(start)
    history: list[tuple[int, ...]] = [start]
    converged = False
    iteration = 0

    for iteration in range(1, max_iters + 1):
        for k in range(len(books)):
            residual = sums
            for j, other in enumerate(conj_estimates):
                if j != k:
                    residual = residual * other
            coeffs = books.conj_atoms[k] @ residual
            # The update is invariant under a global phase rotation of the
            # estimate (the composite constrains only the product), and a
            # rotated estimate defeats the real-part readout.  Fix the
            # gauge: rotate so the dominant coefficient is positive real.
            win = int(np.abs(coeffs).argmax())
            gauge = coeffs[win]
            if abs(gauge) > 0.0:
                gauge = gauge / abs(gauge)
            else:
                gauge = 1.0
            estimate = normalize((coeffs @ books.atoms[k]) * np.conj(gauge))
            conj_estimates[k] = estimate.conj()
            # slot k's estimate is final for this sweep, so its winner is too
            idx, sim = books.cleanup(k, conj_estimates[k])
            winners[k] = idx
            if trace is not None:
                label = books[k].label or str(k)
                trace.write(f"iter {iteration} slot {label} -> {idx} sim {sim:.4f}\n")
        history.append(tuple(winners))
        if len(history) > PATIENCE and all(
            history[-1] == history[-1 - i] for i in range(1, PATIENCE + 1)
        ):
            converged = True
            break

    of = books.classes.of
    return ResonatorState(
        estimates=[c.conj()[of] for c in conj_estimates],
        iterations=iteration,
        converged=converged,
        history=history,
    )
