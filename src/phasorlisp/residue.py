"""Integer encoding over co-prime moduli with carry-free arithmetic.

An integer ``x`` is encoded by sampling, for each modulus ``m``, a base
vector whose element phases are random ``m``-th roots of unity, raising
each base to the ``x``-th power elementwise, and multiplying the results
together (Hadamard product).  Addition of encoded integers is then a
single elementwise multiply, with no carries and no decoding; negation is
the complex conjugate.  Multiplication decodes one operand and raises the
other to that power elementwise.

Decoding runs either exhaustively, scoring every code in the range at
once with one FFT, or by factorizing the vector per modulus with a
resonator network and reassembling the residues through the Chinese
Remainder Theorem.
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
from .fhrr import bind, phase_angles, random_symbol, similarity
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

#: Most readings one codebook keeps; the least recently used goes first.  A
#: key holds a whole vector's bytes (16 KB at dim 1000).
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
    """Per-modulus exponent tables and base vectors for integer codes.

    ``exponents[i]`` holds the dim integers k in 1..m_i that
    ``make_codebook`` drew for modulus ``m_i``, and ``phases[i]``, derived
    from them, the angles 2*pi*k/m_i, so ``exp(1j * phases[i])`` is the
    base vector of ``m_i``.  ``tag`` is the atomic symbol superposed onto
    encoded integers by the interpreter to mark their type.  Codebooks are
    immutable after construction: ``exponents``, ``phases`` and ``tag``
    are read-only.  What they cache (the column classes, each element's
    frequency, the per-modulus factor codebooks, recent readings) is built
    on first use and is a pure function of the exponent tables, so any
    number of sessions in one thread may share one, and do: every
    ``Session`` of one (dim, moduli, seed) in a thread takes the codebook
    of that thread's start, with whatever tables and readings earlier
    sessions left on it.  A copy made by ``dataclasses.replace`` shares the
    tables it is given but starts with empty caches.

    Every code and every factor atom is, at element k, a function of the
    phase column ``phases[:, k]`` alone, and there are at most ``range``
    distinct columns.  So encoding and factorizing compute one entry per
    column class (``classes()``) and gather it to ``dim`` elements.
    """

    moduli: ModuliSet
    dim: int
    exponents: np.ndarray
    tag: np.ndarray
    phases: np.ndarray = field(init=False, repr=False)
    _classes: ColumnClasses | None = field(init=False, repr=False, default=None)
    #: sum of the phase table's rows at the class representatives
    _class_phase_sum: np.ndarray | None = field(
        init=False, repr=False, default=None
    )
    _frequencies: np.ndarray | None = field(init=False, repr=False, default=None)
    _factor_books: FactorBooks | None = field(
        init=False, repr=False, default=None
    )
    #: (method, dtype, exact bytes) -> integer; see decode_residue
    _decoded: dict[tuple, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.phases = 2.0 * np.pi * self.exponents / np.array([self.moduli.moduli]).T
        for table in (self.exponents, self.phases, self.tag):
            table.flags.writeable = False

    def classes(self) -> ColumnClasses:
        """The elements grouped by phase column; built on first use."""
        if self._classes is None:
            self._classes = column_classes(self.phases)
            self._class_phase_sum = self.phases[:, self._classes.reps].sum(axis=0)
        return self._classes

    def frequencies(self) -> np.ndarray:
        """Each element's c_k, where code(x) is exp(2j*pi*x*c/range).

        c_k is the sum over moduli of exponents[i, k] * range / m_i, mod
        range, summed in Python integers so that no product overflows,
        and built on first use.  A range past int64 raises
        ``OverflowError``.
        """
        if self._frequencies is None:
            ks, r = self.exponents.astype(object), self.moduli.range
            c = sum(k * (r // m) for k, m in zip(ks, self.moduli)) % r
            self._frequencies = c.astype(np.int64)
        return self._frequencies

    def factor_codebooks(self) -> FactorBooks:
        """One codebook per modulus: the codes of its residues 0..m-1."""
        if self._factor_books is None:
            classes = self.classes()
            books = []
            rows = sum(self.moduli)
            with self._table(f"a {rows} x {self.dim} factor table", rows * self.dim):
                for i, m in enumerate(self.moduli):
                    rs = np.arange(m)
                    phases = self.phases[i, classes.reps]
                    atoms = np.exp(1j * np.outer(rs, phases))[:, classes.of]
                    books.append(FactorCodebook(atoms=atoms, label=f"mod{m}"))
            self._factor_books = FactorBooks(books, classes)
        return self._factor_books

    @contextmanager
    def _table(self, what: str, entries: int) -> Iterator[None]:
        """Report a decode table of ``entries`` phasors as a ``ConfigError``
        when it cannot be built: out of memory, or a size past an array's."""
        try:
            yield
        except (MemoryError, OverflowError, ValueError):
            raise ConfigError(
                f"moduli {','.join(map(str, self.moduli))} at dim {self.dim} need "
                f"{what} ({16 * entries / 2**30:.3g} GiB), more than memory allows"
            ) from None


def make_codebook(
    moduli: ModuliSet, dim: int, rng: np.random.Generator
) -> ResidueCodebook:
    """Sample fresh per-modulus exponent tables and a fresh type tag.

    For each modulus m every one of the ``dim`` exponents k is drawn
    uniformly from 1..m, making the angle 2*pi*k/m, so every base element
    is an exact m-th root of unity and the codes repeat with period
    ``moduli.range``.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    exponents = np.array([rng.integers(1, m + 1, size=dim) for m in moduli])
    tag = random_symbol(rng, dim)
    return ResidueCodebook(moduli=moduli, dim=dim, exponents=exponents, tag=tag)


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
    """The first best-matching integer of the range, and its similarity.

    Element k of code(x) is exp(2j*pi*x*c_k/range) (``frequencies()``), so
    the scores of all the codes are one length-range DFT of ``v`` binned
    by c_k.  The similarity is ``fhrr.similarity`` of the reading's code
    and ``v``, the kernel of the resonator's check.
    """
    r = cb.moduli.range
    with cb._table(f"a length-{r} transform", r):
        c = cb.frequencies()
        binned = np.bincount(c, v.real, r) + 1j * np.bincount(c, v.imag, r)
        x = int(np.argmax(np.fft.fft(binned).real))
    return x, similarity(encode_residue(cb, x), v)


def decode_residue(
    cb: ResidueCodebook, v: np.ndarray, method: str = "exhaustive"
) -> int:
    """Recover the integer whose code matches ``v``.

    ``exhaustive`` scores every code in [0, range) with one FFT and takes
    the first best (``nearest_code``).  ``resonator`` factorizes ``v``
    against the per-modulus codebooks and reassembles the residues via
    the CRT, retrying from up to ``RESONATOR_RESTARTS`` reproducible
    random starting mixtures.  Either way a reading is accepted only when
    the similarity of its code to ``v`` reaches ``RESONATOR_ACCEPT``;
    otherwise ``DecodeError`` is raised rather than an arbitrary integer
    returned.

    A reading is a pure function of the codebook, ``method`` and the exact
    bytes of ``v`` (restarts draw from fixed seeds, never from a caller's
    generator), so the codebook keeps ``DECODE_MEMO_SIZE`` successful
    readings under the key (method, dtype, bytes) and answers a
    bit-identical repeat without decoding again; the least recently used
    reading goes first.  A failure is not kept: it raises afresh each time.
    """
    if v.shape[0] != cb.dim:
        raise DimensionError(
            f"vector dimension {v.shape[0]} != codebook dimension {cb.dim}"
        )
    memo = cb._decoded
    key = (method, v.dtype.str, v.tobytes())
    x = memo.pop(key, None)
    if x is None:
        x = _decode(cb, v, method)
        if len(memo) >= DECODE_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[key] = x
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
