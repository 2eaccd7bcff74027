"""Integer encoding over co-prime moduli with carry-free arithmetic.

An integer ``x`` is encoded by sampling, for each modulus ``m``, a base
vector whose element phases are random ``m``-th roots of unity, raising
each base to the ``x``-th power elementwise, and multiplying the results
together (Hadamard product).  Addition of encoded integers is then a
single elementwise multiply, with no carries and no decoding; negation is
the complex conjugate.  Multiplication decodes one operand and raises the
other to that power elementwise.

Decoding runs either as an exhaustive scan over all codes in the range or
by factorizing the vector per modulus with a resonator network and
reassembling the residues through the Chinese Remainder Theorem.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DecodeError,
    DimensionError,
    InvalidModuliError,
    NoInverseError,
)
from .fhrr import bind, phase_angles, random_symbol, similarities, similarity
from .resonator import (
    ColumnClasses,
    FactorBooks,
    FactorCodebook,
    column_classes,
    factorize,
)

__all__ = [
    "ModuliSet",
    "ResidueCodebook",
    "make_codebook",
    "encode_residue",
    "add_bind",
    "negate",
    "mul_bind",
    "div_bind",
    "mod_inverse",
    "decode_residue",
    "nearest_code",
    "crt_reconstruct",
    "DECODE_METHODS",
]

#: The integer readouts ``decode_residue`` offers.
DECODE_METHODS = ("exhaustive", "resonator")

#: Most readings one codebook keeps; the oldest goes first.  A key holds a
#: whole vector's bytes (16 KB at dim 1000).
DECODE_MEMO_SIZE = 64


@dataclass(frozen=True)
class ModuliSet:
    """Ordered pairwise co-prime moduli, each at least 2."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        ms = tuple(int(m) for m in self.moduli)
        object.__setattr__(self, "moduli", ms)
        if not ms:
            raise InvalidModuliError("at least one modulus is required")
        for m in ms:
            if m < 2:
                raise InvalidModuliError(f"modulus {m} is below 2")
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                g = math.gcd(ms[i], ms[j])
                if g != 1:
                    raise InvalidModuliError(
                        f"moduli {ms[i]} and {ms[j]} share factor {g}"
                    )

    @property
    def range(self) -> int:
        """Product of the moduli: the number of distinct codes."""
        return reduce(lambda a, b: a * b, self.moduli, 1)

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)


@dataclass(eq=False)
class ResidueCodebook:
    """Per-modulus phase tables and base vectors for integer codes.

    ``phases[i]`` holds dim angles, each an exact multiple of 2*pi/m_i,
    so ``exp(1j * phases[i])`` is the base vector of modulus ``m_i``.
    ``tag`` is the atomic symbol superposed onto encoded integers by the
    interpreter to mark their type.  Codebooks are immutable after
    construction: ``phases`` and ``tag`` are read-only.  What they cache
    (the column classes, the code matrix, the per-modulus factor
    codebooks, recent readings) is built on first use and is a pure
    function of the phase tables, so any number of sessions in one thread
    may share one, and do: every ``Session`` of one (dim, moduli, seed)
    in a thread takes the codebook of that thread's start, with whatever
    tables and readings earlier sessions left on it.  A copy made by
    ``dataclasses.replace`` shares the tables it is given but starts with
    empty caches.

    Every code and every factor atom is, at element k, a function of the
    phase column ``phases[:, k]`` alone, and there are at most ``range``
    distinct columns.  So encoding and factorizing compute one entry per
    column class (``classes()``) and gather it to ``dim`` elements.
    """

    moduli: ModuliSet
    dim: int
    phases: np.ndarray
    tag: np.ndarray
    _classes: ColumnClasses | None = field(init=False, repr=False, default=None)
    #: sum of the phase table's rows at the class representatives
    _class_phase_sum: np.ndarray | None = field(
        init=False, repr=False, default=None
    )
    _candidates: np.ndarray | None = field(init=False, repr=False, default=None)
    _factor_books: FactorBooks | None = field(
        init=False, repr=False, default=None
    )
    #: (method, dtype, exact bytes) -> integer; see decode_residue
    _decoded: dict[tuple, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.phases.flags.writeable = False
        self.tag.flags.writeable = False

    def classes(self) -> ColumnClasses:
        """The elements grouped by phase column; built on first use."""
        if self._classes is None:
            self._classes = column_classes(self.phases)
            self._class_phase_sum = self.phases[:, self._classes.reps].sum(axis=0)
        return self._classes

    def candidates(self) -> np.ndarray:
        """(range, dim) matrix of every integer code; built once, cached."""
        if self._candidates is None:
            of = self.classes().of
            with self._table(self.moduli.range):
                xs = np.arange(self.moduli.range)
                codes = np.exp(1j * np.outer(xs, self._class_phase_sum))
                self._candidates = codes[:, of]
        return self._candidates

    def factor_codebooks(self) -> FactorBooks:
        """One codebook per modulus: the codes of its residues 0..m-1."""
        if self._factor_books is None:
            classes = self.classes()
            books = []
            with self._table(sum(self.moduli)):
                for i, m in enumerate(self.moduli):
                    rs = np.arange(m)
                    phases = self.phases[i, classes.reps]
                    atoms = np.exp(1j * np.outer(rs, phases))[:, classes.of]
                    books.append(FactorCodebook(atoms=atoms, label=f"mod{m}"))
            self._factor_books = FactorBooks(books, classes)
        return self._factor_books

    @contextmanager
    def _table(self, rows: int) -> Iterator[None]:
        """Report a decode table of ``rows`` codes that cannot be allocated."""
        try:
            yield
        except MemoryError:
            raise ConfigError(
                f"moduli {','.join(map(str, self.moduli))} at dim {self.dim} "
                f"need a {rows} x {self.dim} decode table "
                f"({16 * rows * self.dim / 2**30:.1f} GiB), more than memory allows"
            ) from None


def make_codebook(
    moduli: ModuliSet, dim: int, rng: np.random.Generator
) -> ResidueCodebook:
    """Sample fresh per-modulus phase tables and a fresh type tag.

    For each modulus m every one of the ``dim`` angles is drawn uniformly
    from {2*pi*k/m : k = 1..m}, so every base element is an exact m-th
    root of unity and the codes repeat with period ``moduli.range``.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    phases = np.empty((len(moduli), dim), dtype=np.float64)
    for i, m in enumerate(moduli):
        ks = rng.integers(1, m + 1, size=dim)
        phases[i] = 2.0 * np.pi * ks / m
    tag = random_symbol(rng, dim)
    return ResidueCodebook(moduli=moduli, dim=dim, phases=phases, tag=tag)


def encode_residue(cb: ResidueCodebook, x: int) -> np.ndarray:
    """The code of ``x``: the product over moduli of each base to the x-th.

    Phases are periodic, so any Python integer works; negative values land
    on the range-complement code.  An ``x`` beyond ``range`` in magnitude
    is first reduced mod ``range``: float64 cannot carry its product with
    a phase sum, which loses the phase or overflows.  Smaller values are
    encoded as they stand, so their codes keep their bits.  Each distinct
    element is computed once per column class and gathered.
    """
    x = int(x)
    r = cb.moduli.range
    if abs(x) > r:
        x %= r
    of = cb.classes().of
    return np.exp(1j * (x * cb._class_phase_sum))[of]


#: Carry-free addition is binding: code(a) * code(b) == code(a + b mod range).
add_bind = bind


def negate(v: np.ndarray) -> np.ndarray:
    """Additive inverse: the conjugate encodes -x mod range."""
    return np.conj(v)


RESONATOR_RESTARTS = 10

#: Re-encode check an integer reading must reach, under either method.  A
#: true code scores about 1 under chunk crosstalk or added noise and a
#: wrong one about 0, so the midpoint separates them.
RESONATOR_ACCEPT = 0.5


def nearest_code(cb: ResidueCodebook, v: np.ndarray) -> tuple[int, float]:
    """Scan every code: the best-matching integer and its similarity."""
    sims = similarities(cb.candidates(), v)
    x = int(np.argmax(sims))
    return x, float(sims[x])


def decode_residue(
    cb: ResidueCodebook, v: np.ndarray, method: str = "exhaustive"
) -> int:
    """Recover the integer whose code matches ``v``.

    ``exhaustive`` scans every code in [0, range) and takes the argmax of
    the similarity kernel.  ``resonator`` factorizes ``v`` against the
    per-modulus codebooks and reassembles the residues via the CRT,
    retrying from up to ``RESONATOR_RESTARTS`` reproducible random
    starting mixtures.  Either way a reading is accepted only when the
    similarity of its code to ``v`` (for ``exhaustive``, the best match
    itself) reaches ``RESONATOR_ACCEPT``; otherwise ``DecodeError`` is
    raised rather than an arbitrary integer returned.

    A reading is a pure function of the codebook, ``method`` and the exact
    bytes of ``v`` (restarts draw from fixed seeds, never from a caller's
    generator), so the codebook keeps the last ``DECODE_MEMO_SIZE``
    successful readings under the key (method, dtype, bytes) and answers a
    bit-identical repeat without decoding again.  A failure is not kept:
    it raises afresh each time.
    """
    if v.shape[0] != cb.dim:
        raise DimensionError(
            f"vector dimension {v.shape[0]} != codebook dimension {cb.dim}"
        )
    memo = cb._decoded
    key = (method, v.dtype.str, v.tobytes())
    x = memo.get(key)
    if x is None:
        x = memo[key] = _decode(cb, v, method)
        if len(memo) > DECODE_MEMO_SIZE:
            del memo[next(iter(memo))]
    return x


def _decode(cb: ResidueCodebook, v: np.ndarray, method: str) -> int:
    """``decode_residue`` without its memo."""
    if method == "exhaustive":
        x, check = nearest_code(cb, v)
        if check >= RESONATOR_ACCEPT:
            return x
    elif method == "resonator":
        books = cb.factor_codebooks()
        for attempt in range(RESONATOR_RESTARTS + 1):
            state = factorize(v, books, seed=None if attempt == 0 else attempt)
            x = crt_reconstruct(list(state.indices), cb.moduli)
            check = similarity(encode_residue(cb, x), v)
            if check >= RESONATOR_ACCEPT:
                return x
    else:
        raise ValueError(f"unknown decode method {method!r}")
    raise DecodeError(f"reading {x} checks at {check:.3f}, below {RESONATOR_ACCEPT}")


def _power(u: np.ndarray, x: int) -> np.ndarray:
    """``u`` raised elementwise to the integer ``x``: code(a) -> code(a*x)."""
    return np.exp(1j * (phase_angles(u) * x))


def _inverse(cb: ResidueCodebook, v: np.ndarray, method: str) -> int:
    """The inverse modulo the range of the integer ``v`` decodes to."""
    x, r = decode_residue(cb, v, method=method), cb.moduli.range
    g = math.gcd(x, r)
    if g != 1:
        raise NoInverseError(f"{x} has no inverse modulo {r}: shared factor {g}")
    return pow(x, -1, r)


def mul_bind(
    cb: ResidueCodebook, u: np.ndarray, v: np.ndarray, method: str = "exhaustive"
) -> np.ndarray:
    """code(a) * code(b) -> code(a*b mod range), by decode-then-exponentiate.

    ``v`` is decoded to its integer value with ``method``, under
    ``decode_residue``'s check, and ``u`` is raised elementwise to that
    power.  An undecodable ``v`` propagates ``DecodeError``.
    """
    return _power(u, decode_residue(cb, v, method=method))


def div_bind(
    cb: ResidueCodebook, u: np.ndarray, v: np.ndarray, method: str = "exhaustive"
) -> np.ndarray:
    """code(a) / code(b) -> code(a * b^-1 mod range), for b co-prime with it.

    ``v`` is decoded as by ``mul_bind``, and ``u`` is raised to the inverse
    of that integer, which is never encoded and decoded again.
    """
    return _power(u, _inverse(cb, v, method))


def mod_inverse(
    cb: ResidueCodebook, v: np.ndarray, method: str = "exhaustive"
) -> np.ndarray:
    """Code of the multiplicative inverse of the integer encoded by ``v``.

    ``v`` is decoded as by ``mul_bind``, under ``decode_residue``'s check.
    Defined only when the decoded value is co-prime with the range.
    """
    return encode_residue(cb, _inverse(cb, v, method))


def crt_reconstruct(residues: Sequence[int], moduli: ModuliSet) -> int:
    """The unique x in [0, range) with x = residues[i] mod m_i for all i."""
    if len(residues) != len(moduli):
        raise InvalidModuliError(
            f"{len(residues)} residues for {len(moduli)} moduli"
        )
    for r, m in zip(residues, moduli):
        if not 0 <= r < m:
            raise InvalidModuliError(f"residue {r} out of range for modulus {m}")
    total = moduli.range
    x = 0
    for r, m in zip(residues, moduli):
        n_i = total // m
        x += r * n_i * pow(n_i, -1, m)
    return x % total
