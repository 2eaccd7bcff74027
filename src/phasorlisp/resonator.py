"""Iterative factorization of Hadamard-bound composites.

Given ``s = x_a * y_b * z_c`` (elementwise) with each factor drawn from a
known codebook, the network keeps one running estimate per factor slot.
Each update unbinds the other slots' current estimates from ``s``, projects
the residual onto the span of the slot's codebook (complex coefficients,
so phase alignment is retained), and re-normalizes every element to the
unit circle.  The slots are swept sequentially so each update sees the
freshest estimates of the others.

Convergence is declared when the winning atom index of every slot has been
stable for ``patience`` consecutive sweeps; the winning indices are the
decoded output, so vector-level oscillation with a stable argmax is benign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .errors import DimensionError
from .fhrr import normalize, similarities

__all__ = ["FactorCodebook", "ResonatorState", "factorize", "cleanup"]


@dataclass(frozen=True, eq=False)
class FactorCodebook:
    """Candidate atoms for one factor slot.

    ``atoms`` is an (N, dim) complex matrix, one unit-modulus atom per row.
    The codebook is immutable, so the per-sweep constants of ``factorize``
    are computed once here: the conjugated atoms, the default starting
    estimate (the normalized superposition of the atoms) and its winning
    atom index.
    """

    atoms: np.ndarray
    label: str = ""
    conj_atoms: np.ndarray = field(init=False, repr=False)
    start: np.ndarray = field(init=False, repr=False)
    start_index: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.complex128)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise DimensionError(
                f"codebook {self.label!r} needs at least one atom row"
            )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "conj_atoms", atoms.conj())
        start = normalize(atoms.sum(axis=0))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "start_index", cleanup(start, self)[0])

    def __len__(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


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


def _winning(estimates: Sequence[np.ndarray],
             codebooks: Sequence[FactorCodebook]) -> tuple[int, ...]:
    return tuple(cleanup(e, cb)[0] for e, cb in zip(estimates, codebooks))


def _initial_estimates(
    codebooks: Sequence[FactorCodebook], seed: int | None
) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Starting estimates, as a fresh list, and their winning indices."""
    if seed is None:
        return (
            [cb.start for cb in codebooks],
            tuple(cb.start_index for cb in codebooks),
        )
    estimates = []
    for slot, cb in enumerate(codebooks):
        rng = np.random.default_rng((seed, slot))
        weights = rng.standard_normal(len(cb)) + 1j * rng.standard_normal(len(cb))
        estimates.append(normalize(weights @ cb.atoms))
    return estimates, _winning(estimates, codebooks)


def factorize(
    s: np.ndarray,
    codebooks: Sequence[FactorCodebook],
    max_iters: int = 100,
    patience: int = 3,
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

    # the sweeps rebind the list's elements, never the arrays in it
    estimates, start = _initial_estimates(codebooks, seed)
    history: list[tuple[int, ...]] = [start]
    converged = False
    iteration = 0

    for iteration in range(1, max_iters + 1):
        for k, cb in enumerate(codebooks):
            residual = s
            for j, other in enumerate(estimates):
                if j != k:
                    residual = residual * np.conj(other)
            coeffs = cb.conj_atoms @ residual
            # The update is invariant under a global phase rotation of the
            # estimate (the composite constrains only the product), and a
            # rotated estimate defeats the real-part readout.  Fix the
            # gauge: rotate so the dominant coefficient is positive real.
            win = int(np.argmax(np.abs(coeffs)))
            gauge = coeffs[win]
            if abs(gauge) > 0.0:
                gauge = gauge / abs(gauge)
            else:
                gauge = 1.0
            estimates[k] = normalize((coeffs @ cb.atoms) * np.conj(gauge))
            if trace is not None:
                idx, sim = cleanup(estimates[k], cb)
                label = cb.label or str(k)
                trace.write(f"iter {iteration} slot {label} -> {idx} sim {sim:.4f}\n")
        history.append(_winning(estimates, codebooks))
        if len(history) > patience and all(
            history[-1] == history[-1 - i] for i in range(1, patience + 1)
        ):
            converged = True
            break

    return ResonatorState(
        estimates=estimates,
        iterations=iteration,
        converged=converged,
        history=history,
    )
