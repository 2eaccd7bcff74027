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
import struct
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import (
    DecodeError,
    DimensionError,
    InvalidModuliError,
    NoInverseError,
    SessionIOError,
)
from .fhrr import bind, phase_angles, random_symbol, similarities, similarity
from .resonator import FactorCodebook, factorize

__all__ = [
    "ModuliSet",
    "ResidueCodebook",
    "make_codebook",
    "encode_residue",
    "add_bind",
    "negate",
    "mul_bind",
    "mod_inverse",
    "decode_residue",
    "nearest_code",
    "crt_reconstruct",
    "save_codebook",
    "load_codebook",
    "CODEBOOK_MAGIC",
]

CODEBOOK_MAGIC = b"RHC1"

#: Similarity floor below which decoding reports failure instead of an
#: arbitrary integer.  Random vectors score O(1/sqrt(dim)) ~ 0.03 at
#: dim=1000, so 0.1 separates noise from signal with margin.
DECODE_FLOOR = 0.1

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


@dataclass
class ResidueCodebook:
    """Per-modulus phase tables and base vectors for integer codes.

    ``phases[i]`` holds dim angles, each an exact multiple of 2*pi/m_i,
    so ``exp(1j * phases[i])`` is the base vector of modulus ``m_i``.
    ``tag`` is the atomic symbol superposed onto encoded integers by the
    interpreter to mark their type.  Codebooks are immutable after
    construction, and what they cache (the code matrix, the per-modulus
    factor codebooks, recent readings) is a pure function of the phase
    tables, so any number of sessions in one thread may share one.
    """

    moduli: ModuliSet
    dim: int
    phases: np.ndarray
    tag: np.ndarray
    _phase_sum: np.ndarray = field(init=False, repr=False)
    _candidates: np.ndarray | None = field(init=False, repr=False, default=None)
    _factor_books: list[FactorCodebook] | None = field(
        init=False, repr=False, default=None
    )
    #: (method, floor, dtype, exact bytes) -> integer; see decode_residue
    _decoded: dict[tuple, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._phase_sum = self.phases.sum(axis=0)

    def candidates(self) -> np.ndarray:
        """(range, dim) matrix of every integer code; built once, cached."""
        if self._candidates is None:
            xs = np.arange(self.moduli.range)
            self._candidates = np.exp(1j * np.outer(xs, self._phase_sum))
        return self._candidates

    def factor_codebooks(self) -> list[FactorCodebook]:
        """One codebook per modulus: the codes of its residues 0..m-1."""
        if self._factor_books is None:
            books = []
            for i, m in enumerate(self.moduli):
                rs = np.arange(m)
                atoms = np.exp(1j * np.outer(rs, self.phases[i]))
                books.append(FactorCodebook(atoms=atoms, label=f"mod{m}"))
            self._factor_books = books
        return self._factor_books


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
    encoded as they stand, so their codes keep their bits.
    """
    x = int(x)
    r = cb.moduli.range
    if abs(x) > r:
        x %= r
    return np.exp(1j * (x * cb._phase_sum))


#: Carry-free addition is binding: code(a) * code(b) == code(a + b mod range).
add_bind = bind


def negate(v: np.ndarray) -> np.ndarray:
    """Additive inverse: the conjugate encodes -x mod range."""
    return np.conj(v)


RESONATOR_RESTARTS = 10

#: Re-encode check at which a resonator reading is accepted without
#: restarting.  A true code scores about 1 under chunk crosstalk or added
#: noise and a wrong one about 0, so the midpoint separates them; a wrong
#: fixed point can still clear the much lower ``floor``.
RESONATOR_ACCEPT = 0.5


def nearest_code(cb: ResidueCodebook, v: np.ndarray) -> tuple[int, float]:
    """Scan every code: the best-matching integer and its similarity."""
    sims = similarities(cb.candidates(), v)
    x = int(np.argmax(sims))
    return x, float(sims[x])


def decode_residue(
    cb: ResidueCodebook,
    v: np.ndarray,
    method: str = "exhaustive",
    floor: float = DECODE_FLOOR,
) -> int:
    """Recover the integer whose code best matches ``v``.

    ``exhaustive`` scans every code in [0, range) and takes the argmax of
    the similarity kernel.  ``resonator`` factorizes ``v`` against the
    per-modulus codebooks and reassembles the residues via the CRT; the
    reassembled integer is verified by re-encoding it.  A check below
    ``RESONATOR_ACCEPT`` (or ``floor``, if higher) retries the
    factorization from up to ``RESONATOR_RESTARTS`` reproducible random
    starting mixtures, and the best-checking reading wins.  Either way, a
    best match below ``floor`` raises ``DecodeError`` rather than
    returning an arbitrary integer.

    A reading is a pure function of the codebook, ``method``, ``floor``
    and the exact bytes of ``v`` (restarts draw from fixed seeds, never
    from a caller's generator), so the codebook keeps the last
    ``DECODE_MEMO_SIZE`` successful readings under that key and answers a
    bit-identical repeat without decoding again.  A failure is not kept:
    it raises afresh each time.
    """
    if v.shape[0] != cb.dim:
        raise DimensionError(
            f"vector dimension {v.shape[0]} != codebook dimension {cb.dim}"
        )
    memo = cb._decoded
    key = (method, floor, v.dtype.str, v.tobytes())
    x = memo.get(key)
    if x is None:
        x = memo[key] = _decode(cb, v, method, floor)
        if len(memo) > DECODE_MEMO_SIZE:
            del memo[next(iter(memo))]
    return x


def _decode(cb: ResidueCodebook, v: np.ndarray, method: str, floor: float) -> int:
    """``decode_residue`` without its memo."""
    if method == "exhaustive":
        x, best = nearest_code(cb, v)
        if best < floor:
            raise DecodeError(
                f"best integer match {best:.3f} is below the {floor} floor"
            )
        return x
    if method == "resonator":
        books = cb.factor_codebooks()
        accept = max(floor, RESONATOR_ACCEPT)
        best, best_check = -1, -np.inf
        for attempt in range(RESONATOR_RESTARTS + 1):
            state = factorize(v, books, seed=None if attempt == 0 else attempt)
            x = crt_reconstruct(list(state.indices), cb.moduli)
            check = similarity(encode_residue(cb, x), v)
            if check >= accept:
                return x
            if check > best_check:
                best, best_check = x, check
        if best_check >= floor:
            return best
        raise DecodeError(
            f"reconstructed {best} matches at {best_check:.3f}, below the "
            f"{floor} floor"
        )
    raise ValueError(f"unknown decode method {method!r}")


def mul_bind(
    cb: ResidueCodebook,
    u: np.ndarray,
    v: np.ndarray,
    method: str = "exhaustive",
    floor: float = DECODE_FLOOR,
) -> np.ndarray:
    """code(a) * code(b) -> code(a*b mod range), by decode-then-exponentiate.

    ``v`` is decoded to its integer value with ``method`` and ``floor`` and
    ``u`` is raised elementwise to that power.  An undecodable ``v``
    propagates ``DecodeError``.
    """
    x2 = decode_residue(cb, v, method=method, floor=floor)
    return np.exp(1j * (phase_angles(u) * x2))


def mod_inverse(
    cb: ResidueCodebook,
    v: np.ndarray,
    method: str = "exhaustive",
    floor: float = DECODE_FLOOR,
) -> np.ndarray:
    """Code of the multiplicative inverse of the integer encoded by ``v``.

    ``v`` is decoded as by ``mul_bind``.  Defined only when the decoded
    value is co-prime with the range.
    """
    x2 = decode_residue(cb, v, method=method, floor=floor)
    r = cb.moduli.range
    g = math.gcd(x2, r)
    if g != 1:
        raise NoInverseError(
            f"{x2} has no inverse modulo {r}: shared factor {g}"
        )
    return encode_residue(cb, pow(x2, -1, r))


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


def save_codebook(cb: ResidueCodebook, dest: IO[bytes] | str | Path) -> None:
    """Write the codebook in its binary file format.

    Layout: magic ``RHC1``; little-endian u32 dim, u32 modulus count, u32
    per modulus; then the phase table as row-major float64 and the tag
    vector as interleaved re/im float64.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") as fh:
            save_codebook(cb, fh)
        return
    n = len(cb.moduli)
    dest.write(CODEBOOK_MAGIC)
    dest.write(struct.pack(f"<II{n}I", cb.dim, n, *cb.moduli))
    dest.write(np.ascontiguousarray(cb.phases, dtype="<f8").tobytes())
    write_vector(dest, cb.tag)


def write_vector(dest: IO[bytes], v: np.ndarray) -> None:
    """Write ``v`` as interleaved little-endian re/im float64."""
    buf = np.empty(2 * v.shape[0], dtype="<f8")
    buf[0::2] = v.real
    buf[1::2] = v.imag
    dest.write(buf.tobytes())


#: Largest single read from a session stream.  Reading in bounded pieces
#: means a corrupt length prefix can never allocate more than the stream
#: actually holds.
_READ_CHUNK = 1 << 20


def read_exact(src: IO[bytes], n: int) -> bytes:
    """Exactly ``n`` bytes from ``src``; a short read raises ``SessionIOError``."""
    parts = []
    while n > 0:
        part = src.read(min(n, _READ_CHUNK))
        if not part:
            raise SessionIOError("truncated session file")
        parts.append(part)
        n -= len(part)
    return b"".join(parts)


def read_vector(src: IO[bytes], dim: int) -> np.ndarray:
    """Read a vector written by ``write_vector``."""
    raw = np.frombuffer(read_exact(src, 16 * dim), dtype="<f8")
    return raw[0::2] + 1j * raw[1::2]


def load_codebook(src: IO[bytes] | str | Path) -> ResidueCodebook:
    """Read a codebook written by ``save_codebook``."""
    if isinstance(src, (str, Path)):
        with open(src, "rb") as fh:
            return load_codebook(fh)
    magic = read_exact(src, 4)
    if magic != CODEBOOK_MAGIC:
        raise SessionIOError(f"bad codebook magic {magic!r}")
    dim, n = struct.unpack("<II", read_exact(src, 8))
    if dim < 1 or n < 1:
        raise SessionIOError(f"bad codebook shape {n} x {dim}")
    ms = struct.unpack(f"<{n}I", read_exact(src, 4 * n))
    phases = np.frombuffer(read_exact(src, 8 * n * dim), dtype="<f8")
    tag = read_vector(src, dim)
    return ResidueCodebook(
        moduli=ModuliSet(ms),
        dim=dim,
        phases=phases.reshape(n, dim).astype(np.float64),
        tag=tag,
    )
