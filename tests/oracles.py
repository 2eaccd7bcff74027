"""Reference implementations the tests check the package against.

Everything here is deliberately naive: extended-gcd inverses, brute-force
residue reconstruction, full scans over candidate sets.  None of it calls
into phasorlisp, so a bug in the package cannot hide behind a shared
helper.
"""

from __future__ import annotations

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_mod(a: int, m: int) -> int:
    g, s, _ = xgcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return s % m


def crt_scan(residues: list[int], moduli: list[int]) -> int:
    """Smallest nonnegative x with x = r_i (mod m_i), by exhaustive scan."""
    total = 1
    for m in moduli:
        total *= m
    for x in range(total):
        if all(x % m == r % m for r, m in zip(residues, moduli)):
            return x
    raise ValueError("no solution; moduli not co-prime?")


def nearest_product(s: np.ndarray, books: list[np.ndarray]) -> tuple[int, ...]:
    """Best factorization of s by scanning every atom combination.

    Each book is an (N_k, D) complex matrix.  Returns the index tuple
    whose elementwise product has the highest real inner product with s.
    """
    best = None
    best_sim = -np.inf
    shapes = [b.shape[0] for b in books]
    idx = [0] * len(books)
    while True:
        prod = books[0][idx[0]].copy()
        for k in range(1, len(books)):
            prod = prod * books[k][idx[k]]
        sim = float(np.vdot(prod, s).real)
        if sim > best_sim:
            best_sim = sim
            best = tuple(idx)
        k = len(idx) - 1
        while k >= 0:
            idx[k] += 1
            if idx[k] < shapes[k]:
                break
            idx[k] = 0
            k -= 1
        if k < 0:
            return best


def resonate(
    s: np.ndarray,
    books: list[np.ndarray],
    max_iters: int = 100,
    patience: int = 3,
    seed: int | None = None,
) -> tuple[list[tuple[int, ...]], int, bool]:
    """The resonator network swept over all D elements of every vector.

    Each book is an (N_k, D) complex matrix.  Estimates start from each
    book's normalized atom sum, or, given ``seed``, from the random
    mixture drawn by ``default_rng((seed, slot))``.  Returns the winning
    indices after the start and after each sweep, the sweep count and
    whether the winners held for ``patience`` sweeps.
    """

    def unit(v: np.ndarray) -> np.ndarray:
        mag = np.abs(v)
        zero = mag <= 1e-12
        out = v / np.where(zero, 1.0, mag)
        out[zero] = 1.0
        return out

    def winners(estimates: list[np.ndarray]) -> tuple[int, ...]:
        return tuple(
            int(np.argmax((a @ e.conj()).real / a.shape[1]))
            for a, e in zip(books, estimates)
        )

    if seed is None:
        estimates = [unit(a.sum(axis=0)) for a in books]
    else:
        estimates = []
        for slot, a in enumerate(books):
            rng = np.random.default_rng((seed, slot))
            w = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
            estimates.append(unit(w @ a))
    history = [winners(estimates)]
    for sweep in range(1, max_iters + 1):
        for k, a in enumerate(books):
            residual = s
            for j, e in enumerate(estimates):
                if j != k:
                    residual = residual * np.conj(e)
            coeffs = a.conj() @ residual
            gauge = coeffs[int(np.argmax(np.abs(coeffs)))]
            gauge = gauge / abs(gauge) if abs(gauge) > 0.0 else 1.0
            estimates[k] = unit((coeffs @ a) * np.conj(gauge))
        history.append(winners(estimates))
        if len(history) > patience and all(
            history[-1] == history[-1 - i] for i in range(1, patience + 1)
        ):
            return history, sweep, True
    return history, max_iters, False
