import numpy as np
import pytest

from phasorlisp import (
    DimensionError,
    bind,
    identity,
    new_rng,
    normalize,
    phase_angles,
    random_symbol,
    similarity,
    superpose,
    unbind,
)

D = 512


@pytest.fixture
def rng():
    return new_rng(11)


def test_random_symbol_is_unit_phasor(rng):
    v = random_symbol(rng, D)
    assert v.shape == (D,)
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_random_symbol_phases_cover_the_circle(rng):
    v = random_symbol(rng, 4096)
    ang = np.angle(v)
    # uniform on (0, 2pi]: mean angle-as-vector should be near zero
    assert abs(np.mean(np.exp(1j * ang))) < 0.1
    assert ang.min() > -np.pi - 1e-12


def test_identity_binds_as_neutral_element(rng):
    v = random_symbol(rng, D)
    assert np.allclose(bind(identity(D), v), v)


def test_unbind_inverts_bind_exactly(rng):
    u = random_symbol(rng, D)
    v = random_symbol(rng, D)
    w = unbind(bind(u, v), u)
    assert np.max(np.abs(w - v)) < 1e-12


def test_bind_preserves_unit_modulus_over_chains(rng):
    v = random_symbol(rng, D)
    for _ in range(50):
        v = bind(v, random_symbol(rng, D))
    assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-9


def test_bind_is_commutative(rng):
    u = random_symbol(rng, D)
    v = random_symbol(rng, D)
    assert np.allclose(bind(u, v), bind(v, u))


def test_bind_dimension_mismatch(rng):
    with pytest.raises(DimensionError):
        bind(random_symbol(rng, D), random_symbol(rng, D + 1))


def test_similarity_self_is_one(rng):
    v = random_symbol(rng, D)
    assert similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_similarity_symmetric_in_real_part(rng):
    u = random_symbol(rng, D)
    v = random_symbol(rng, D)
    assert similarity(u, v) == pytest.approx(similarity(v, u), abs=1e-12)


def test_similarity_of_random_pairs_is_small(rng):
    sims = [
        similarity(random_symbol(rng, D), random_symbol(rng, D))
        for _ in range(200)
    ]
    assert abs(float(np.mean(sims))) < 0.02
    assert max(abs(s) for s in sims) < 0.3


def test_binding_is_an_isometry_of_the_kernel(rng):
    u = random_symbol(rng, D)
    v = random_symbol(rng, D)
    w = random_symbol(rng, D)
    assert similarity(bind(u, w), bind(v, w)) == pytest.approx(
        similarity(u, v), abs=1e-9
    )


def test_superpose_is_similar_to_each_constituent(rng):
    parts = [random_symbol(rng, D) for _ in range(4)]
    bundle = parts[0]
    for p in parts[1:]:
        bundle = superpose(bundle, p)
    bundle = normalize(bundle)
    others = [random_symbol(rng, D) for _ in range(4)]
    worst_in = min(similarity(bundle, p) for p in parts)
    best_out = max(similarity(bundle, q) for q in others)
    assert worst_in > best_out


def test_normalize_projects_to_unit_modulus(rng):
    v = superpose(random_symbol(rng, D), random_symbol(rng, D))
    n = normalize(v)
    assert np.max(np.abs(np.abs(n) - 1.0)) < 1e-12


def test_normalize_maps_cancelled_elements_to_one(rng):
    v = random_symbol(rng, D)
    # antipodal superposition cancels exactly
    out = normalize(superpose(v, -v))
    assert np.allclose(out, np.ones(D, dtype=np.complex128))


def test_normalize_tolerance_catches_float_dust(rng):
    v = np.full(D, 1e-14 + 1e-14j)
    assert np.allclose(normalize(v), np.ones(D, dtype=np.complex128))


def _normalize_by_mask(v, zero_tol=1e-12):
    mag = np.abs(v)
    zero = mag <= zero_tol
    out = v / np.where(zero, 1.0, mag)
    out[zero] = 1.0 + 0.0j
    return out


@pytest.mark.parametrize("zeros", [0, 1, 17])
def test_normalize_gives_the_bytes_of_the_masked_formula(rng, zeros):
    v = superpose(random_symbol(rng, D), random_symbol(rng, D))
    v[:zeros] = 1e-13  # within zero_tol
    assert normalize(v).tobytes() == _normalize_by_mask(v).tobytes()


def test_phase_angles_roundtrip(rng):
    v = random_symbol(rng, D)
    assert np.allclose(np.exp(1j * phase_angles(v)), v)


def test_new_rng_is_reproducible():
    a = random_symbol(new_rng(5), D)
    b = random_symbol(new_rng(5), D)
    assert np.array_equal(a, b)
