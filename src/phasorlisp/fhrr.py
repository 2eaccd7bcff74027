"""Complex phasor hypervector algebra.

A hypervector is a 1-D ``numpy`` array of ``complex128`` values, each of
modulus one (a phasor).  Binding is the Hadamard product, unbinding is the
Hadamard product with the conjugate, and the similarity kernel is the real
part of the normalized Hermitian inner product.  Superposition leaves the
unit-modulus invariant behind on purpose; ``normalize`` restores it.

All operations are pure; vectors may be shared freely.  The only stateful
object is the ``numpy.random.Generator`` used to mint fresh symbols.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "FLOOR",
    "new_rng",
    "random_symbol",
    "identity",
    "bind",
    "unbind",
    "superpose",
    "normalize",
    "similarity",
    "similarities",
    "phase_angles",
]


def new_rng(seed: int) -> np.random.Generator:
    """Create a seeded generator; equal seeds give equal symbol streams."""
    return np.random.default_rng(seed)


def _check_dims(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != v.shape:
        raise DimensionError(
            f"operands have dimensions {u.shape[0]} and {v.shape[0]}"
        )


def random_symbol(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a fresh atomic symbol: phases uniform on (0, 2*pi].

    Independently drawn symbols are quasi-orthogonal: their similarity
    concentrates around zero with spread O(1/sqrt(dim)).
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    theta = 2.0 * np.pi * (1.0 - rng.random(dim))
    return np.exp(1j * theta)


def identity(dim: int) -> np.ndarray:
    """The binding identity: the all-ones vector."""
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    return np.ones(dim, dtype=np.complex128)


def bind(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hadamard product.  Commutative, associative, modulus-preserving."""
    _check_dims(u, v)
    return u * v


def unbind(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert a binding: multiply by the conjugate of ``u``.

    For unit phasors this inverse is exact: unbind(bind(u, v), u) == v
    up to float rounding, not merely correlated.
    """
    _check_dims(w, u)
    return w * np.conj(u)


def superpose(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise sum.  The result is generally not unit-modulus."""
    _check_dims(u, v)
    return u + v


#: Magnitude at or below which ``normalize`` treats an element as zero.
_ZERO_TOL = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Project every element back onto the unit circle, keeping its phase.

    Elements at (or within ``_ZERO_TOL`` of) zero carry no meaningful
    phase; by convention they become 1+0j so the operation is total and
    deterministic.  The tolerance matters for structured superpositions
    that cancel exactly in theory but leave float dust in practice, such
    as the sum of a complete roots-of-unity codebook.
    """
    mag = np.abs(v)
    zero = mag <= _ZERO_TOL
    if not np.count_nonzero(zero):
        return v / mag
    safe = np.where(zero, 1.0, mag)
    out = v / safe
    out[zero] = 1.0 + 0.0j
    return out


#: Confidence floor of cleanup recall, not of integer decoding: random
#: phasors score O(1/sqrt(dim)), about 0.03 at dim 1000, far below 0.1.
FLOOR = 0.1


def similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Re(<u, v>) / dim, conjugating the first argument.

    Lies in [-1, 1] for unit-modulus inputs; superpositions may exceed
    that range and are accepted as-is (callers weight bundles by design).
    """
    _check_dims(u, v)
    return float(np.vdot(u, v).real / u.shape[0])


def similarities(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Similarity of ``v`` to every row of ``matrix``, as one product.

    Conjugating the probe instead of the matrix gives the same real part
    (Re(conj(a)*b) == Re(a*conj(b)) exactly) without copying the matrix.
    """
    return (matrix @ v.conj()).real / matrix.shape[1]


def phase_angles(v: np.ndarray) -> np.ndarray:
    """Principal phase of each element, in (-pi, pi]."""
    return np.angle(v)
