import math
import tracemalloc

import numpy as np
import pytest

from phasorlisp import (
    DecodeError,
    DimensionError,
    InvalidModuliError,
    ModuliSet,
    NoInverseError,
    RecallResult,
    Resolved,
    add_bind,
    crt_reconstruct,
    decode_residue,
    encode_residue,
    make_codebook,
    mod_inverse,
    mul_bind,
    negate,
    new_rng,
    random_symbol,
)
from phasorlisp.residue import nearest_code

from oracles import code_table, crt_scan, inverse_mod, nearest_row, xgcd

D = 512


@pytest.fixture(scope="module")
def cb():
    return make_codebook(ModuliSet((3, 5, 7)), D, new_rng(42))


# -- moduli ------------------------------------------------------------


def test_moduli_range_is_the_product():
    ms = ModuliSet((3, 5, 7))
    assert ms.range == 105
    assert len(ms) == 3
    assert list(ms) == [3, 5, 7]


def test_moduli_reject_shared_factor():
    with pytest.raises(InvalidModuliError) as e:
        ModuliSet((4, 6))
    assert "4" in str(e.value) and "6" in str(e.value) and "2" in str(e.value)


def test_moduli_reject_unit_modulus():
    with pytest.raises(InvalidModuliError):
        ModuliSet((1, 5))


# -- codebook structure ------------------------------------------------


def test_codebook_phases_are_roots_of_unity(cb):
    for i, m in enumerate(cb.moduli):
        k = cb.phases[i] * m / (2 * np.pi)
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert np.all(np.round(k) >= 1)
        assert np.all(np.round(k) <= m)


def test_codebook_bases_power_back_to_ones(cb):
    for i, m in enumerate(cb.moduli):
        cycle = np.exp(1j * cb.phases[i]) ** m
        assert np.max(np.abs(cycle - 1.0)) < 1e-9


def test_codebook_tag_is_unit_phasor(cb):
    assert np.max(np.abs(np.abs(cb.tag) - 1.0)) < 1e-12


# -- encode / decode ---------------------------------------------------


def test_encode_zero_is_all_ones(cb):
    assert np.allclose(encode_residue(cb, 0), np.ones(D))


def test_encode_is_the_product_of_base_powers(cb):
    x = 58
    bases = np.exp(1j * cb.phases)
    manual = np.prod(np.stack([b ** x for b in bases]), axis=0)
    assert np.allclose(encode_residue(cb, x), manual, atol=1e-9)


def test_roundtrip_exhaustive_full_range(cb):
    for x in range(cb.moduli.range):
        assert decode_residue(cb, encode_residue(cb, x)) == x


def test_roundtrip_resonator_full_range(cb):
    for x in range(cb.moduli.range):
        v = encode_residue(cb, x)
        assert decode_residue(cb, v, method="resonator") == x


def test_decode_rejects_junk(cb):
    junk = random_symbol(new_rng(1), D)
    with pytest.raises(DecodeError):
        decode_residue(cb, junk)
    with pytest.raises(DecodeError):
        decode_residue(cb, junk, method="resonator")


def test_decode_unknown_method(cb):
    with pytest.raises(ValueError):
        decode_residue(cb, encode_residue(cb, 1), method="guess")


def test_decode_dimension_mismatch(cb):
    with pytest.raises(DimensionError):
        decode_residue(cb, np.ones(D + 1, dtype=np.complex128))


def test_resonator_decode_survives_superposed_noise(cb):
    rng = new_rng(8)
    for _ in range(40):
        x = int(rng.integers(0, cb.moduli.range))
        v = encode_residue(cb, x)
        for _ in range(3):
            v = v + random_symbol(rng, D)
        assert decode_residue(cb, v, method="resonator") == x


def test_a_value_beyond_the_range_encodes_its_residue(cb):
    r = cb.moduli.range
    for x in (r + 1, -r - 1, 10**17, -(10**17), 10**17 + 1, 10**21, 10**400 - 1):
        assert np.array_equal(encode_residue(cb, x), encode_residue(cb, x % r))
        assert decode_residue(cb, encode_residue(cb, x)) == x % r


def test_a_value_within_the_range_keeps_its_bits(cb):
    r = cb.moduli.range
    for x in range(-r, r + 1):
        expected = np.exp(1j * (x * cb.phases.sum(axis=0)))
        assert encode_residue(cb, x).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "moduli,dim", [((3, 5, 7), 1000), ((3, 5, 7), 256), ((7, 11, 13), 1000)]
)
def test_codes_computed_per_column_class_keep_the_elementwise_bytes(moduli, dim):
    book = make_codebook(ModuliSet(moduli), dim, new_rng(42))
    r = book.moduli.range
    assert len(book.classes()) <= r
    phase_sum = book.phases.sum(axis=0)
    values = list(range(-r - 5, r + 6))
    values += [r * 1000 + 3, -(r * 1000) - 3, 10**17 + 1, -(10**21), 10**400 - 1]
    for x in values:
        x_used = x % r if abs(x) > r else x
        expected = np.exp(1j * (x_used * phase_sum))
        assert encode_residue(book, x).tobytes() == expected.tobytes(), x
    # element k of code(x) is exp(2j*pi*x*c_k/range), as the FFT readout
    # assumes, within the rounding of a phase up to about 2*pi*x*len(moduli)
    c = book.frequencies()
    assert c.dtype == np.int64 and 0 <= c.min() and c.max() < r
    for x in range(r):
        code = np.exp(2j * np.pi * x * c / r)
        assert np.abs(code - encode_residue(book, x)).max() < 1e-10
    for i, (m, factor) in enumerate(zip(book.moduli, book.factor_codebooks())):
        atoms = np.exp(1j * np.outer(np.arange(m), book.phases[i]))
        assert factor.atoms.tobytes() == atoms.tobytes()


# -- the exhaustive readout --------------------------------------------


def _probes(book, rng):
    """Clean codes, codes plus 2 to 4 random phasors, and random vectors."""
    r, dim = book.moduli.range, book.dim
    xs = [0, 1, r - 1, *rng.integers(0, r, size=5)]
    for x in xs:
        yield encode_residue(book, int(x))
    for x, k in zip(xs, [2, 3, 4] * 3):
        yield encode_residue(book, int(x)) + sum(
            random_symbol(rng, dim) for _ in range(k)
        )
    for _ in range(6):
        yield random_symbol(rng, dim)


@pytest.mark.parametrize("dim", [1000, 256])
@pytest.mark.parametrize("moduli", [(3, 5, 7), (7, 11, 13)])
def test_nearest_code_is_the_first_best_row_of_a_code_table(moduli, dim):
    book = make_codebook(ModuliSet(moduli), dim, new_rng(42))
    table = code_table(book.phases, book.moduli.range)
    for v in _probes(book, np.random.default_rng(dim)):
        x, score = nearest_row(table, v)
        got, confidence = nearest_code(book, v)
        assert got == x
        assert confidence == pytest.approx(score, abs=1e-12)


def test_nearest_code_at_four_moduli_builds_no_code_table():
    # R = 46,189: a code table would hold 739 MB at dim 1000
    book = make_codebook(ModuliSet((11, 13, 17, 19)), 1000, new_rng(42))
    v = encode_residue(book, 12345) + random_symbol(new_rng(1), 1000)
    tracemalloc.start()
    try:
        x, confidence = nearest_code(book, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x == 12345 and confidence > 0.5
    assert peak < 16 << 20


# -- the decode memo ---------------------------------------------------


def _fresh_codebook():
    return make_codebook(ModuliSet((3, 5, 7)), D, new_rng(42))


def _count_factorize(monkeypatch):
    import phasorlisp.residue

    calls = []
    real = phasorlisp.residue.factorize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(phasorlisp.residue, "factorize", counting)
    return calls


def test_a_repeated_input_is_decoded_once(monkeypatch):
    fresh = _fresh_codebook()
    calls = _count_factorize(monkeypatch)
    v = encode_residue(fresh, 17) + random_symbol(new_rng(2), D)
    assert decode_residue(fresh, v, method="resonator") == 17
    first = len(calls)
    assert first >= 1
    # keyed by the bytes, not by the array
    assert decode_residue(fresh, v.copy(), method="resonator") == 17
    assert len(calls) == first
    # the same values in another dtype are another key
    assert decode_residue(fresh, v.astype(np.complex64), method="resonator") == 17
    assert len(calls) > first


@pytest.mark.parametrize("method", ["exhaustive", "resonator"])
def test_a_reading_below_the_check_raises_under_either_method(method):
    fresh = _fresh_codebook()
    v = 0.3 * encode_residue(fresh, 5) + random_symbol(new_rng(3), D)
    # the code of 5 scores about 0.3 here: above recall's 0.1 floor, below
    # the 0.5 check, so neither method may read it, first or again
    assert 0.1 < np.vdot(encode_residue(fresh, 5), v).real / D < 0.5
    for _ in range(2):
        with pytest.raises(DecodeError):
            decode_residue(fresh, v, method=method)
    assert not fresh._decoded


def test_decode_memo_keeps_readings_only_and_at_most_its_bound():
    from phasorlisp.residue import DECODE_MEMO_SIZE

    fresh = _fresh_codebook()
    junk = random_symbol(new_rng(1), D)
    with pytest.raises(DecodeError):
        decode_residue(fresh, junk)
    assert not fresh._decoded
    codes = [encode_residue(fresh, x) for x in range(DECODE_MEMO_SIZE + 8)]
    for x, v in enumerate(codes):
        assert decode_residue(fresh, v) == x
        assert len(fresh._decoded) <= DECODE_MEMO_SIZE
    # the oldest went first
    kept = [key[2] for key in fresh._decoded]
    assert kept == [v.tobytes() for v in codes[8:]]


def test_a_reading_used_between_new_decodes_is_never_decoded_again(monkeypatch):
    import phasorlisp.residue
    from phasorlisp.residue import DECODE_MEMO_SIZE

    fresh = _fresh_codebook()
    decodes = []
    real = phasorlisp.residue._decode

    def counting(*args):
        decodes.append(1)
        return real(*args)

    monkeypatch.setattr(phasorlisp.residue, "_decode", counting)
    hot = encode_residue(fresh, 0)
    assert decode_residue(fresh, hot) == 0
    # a memo that forgot the oldest reading, not the least recently used,
    # would drop ``hot`` at the last of these new decodes
    for x in range(1, DECODE_MEMO_SIZE + 1):
        assert decode_residue(fresh, encode_residue(fresh, x)) == x
        assert decode_residue(fresh, hot) == 0
        assert len(decodes) == x + 1


# -- arithmetic homomorphisms ------------------------------------------


def test_add_bind_matches_modular_sum(cb):
    rng = new_rng(5)
    for _ in range(100):
        a = int(rng.integers(0, 105))
        b = int(rng.integers(0, 105))
        v = add_bind(encode_residue(cb, a), encode_residue(cb, b))
        assert decode_residue(cb, v) == (a + b) % 105


def test_negate_matches_modular_negation(cb):
    for a in (0, 1, 17, 104):
        v = negate(encode_residue(cb, a))
        assert decode_residue(cb, v) == (-a) % 105


def test_mul_bind_matches_modular_product(cb):
    rng = new_rng(6)
    for _ in range(50):
        a = int(rng.integers(0, 105))
        b = int(rng.integers(0, 105))
        v = mul_bind(cb, encode_residue(cb, a), encode_residue(cb, b))
        assert decode_residue(cb, v) == (a * b) % 105


def test_mod_inverse_matches_xgcd_oracle(cb):
    for b in range(1, 105):
        if math.gcd(b, 105) == 1:
            got = decode_residue(cb, mod_inverse(cb, encode_residue(cb, b)))
            assert got == inverse_mod(b, 105)


def test_mod_inverse_rejects_shared_factor(cb):
    with pytest.raises(NoInverseError) as e:
        mod_inverse(cb, encode_residue(cb, 21))
    assert "21" in str(e.value)


def test_add_bind_dimension_mismatch(cb):
    with pytest.raises(DimensionError):
        add_bind(encode_residue(cb, 1), np.ones(D + 1, dtype=np.complex128))


# -- chinese remainder reconstruction ----------------------------------


def test_crt_matches_brute_force_scan():
    ms = ModuliSet((3, 5, 7))
    rng = new_rng(13)
    for _ in range(50):
        x = int(rng.integers(0, 105))
        residues = [x % m for m in ms]
        assert crt_reconstruct(residues, ms) == crt_scan(residues, [3, 5, 7])
        assert crt_reconstruct(residues, ms) == x


def test_crt_with_other_moduli():
    ms = ModuliSet((4, 9, 25))
    for x in (0, 1, 899, 123):
        residues = [x % m for m in ms]
        assert crt_reconstruct(residues, ms) == x


def test_crt_validates_residues():
    ms = ModuliSet((3, 5))
    with pytest.raises(InvalidModuliError):
        crt_reconstruct([1], ms)
    with pytest.raises(InvalidModuliError):
        crt_reconstruct([3, 0], ms)


def test_xgcd_oracle_self_check():
    # the oracle itself must satisfy the bezout identity
    for a, b in ((12, 18), (35, 64), (1, 1), (105, 4)):
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


def _small_codebook():
    return make_codebook(ModuliSet((3, 5, 7)), 64, new_rng(1))


@pytest.mark.parametrize(
    "make",
    [
        _small_codebook,
        lambda: _small_codebook().factor_codebooks()[0],
        lambda: RecallResult("a", np.ones(4, dtype=complex), 1.0, "symbol"),
        lambda: Resolved("int", None, 3, np.ones(4, dtype=complex)),
    ],
    ids=["ResidueCodebook", "FactorCodebook", "RecallResult", "Resolved"],
)
def test_records_holding_arrays_compare_by_identity(make):
    x, twin = make(), make()
    assert (x == x) is True
    assert (x == twin) is False
    assert hash(x) == hash(x)
