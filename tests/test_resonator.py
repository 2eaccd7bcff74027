import io

import numpy as np
import pytest

from phasorlisp import (
    DimensionError,
    FactorCodebook,
    ModuliSet,
    bind,
    cleanup,
    encode_residue,
    factorize,
    make_codebook,
    new_rng,
    random_symbol,
)
from phasorlisp.resonator import FactorBooks, column_classes

from oracles import nearest_product, resonate

D = 512


def make_books(rng, sizes):
    return [
        FactorCodebook(
            np.stack([random_symbol(rng, D) for _ in range(n)]),
            label=f"slot{k}",
        )
        for k, n in enumerate(sizes)
    ]


def compose(books, idx):
    out = books[0].atoms[idx[0]]
    for k in range(1, len(books)):
        out = bind(out, books[k].atoms[idx[k]])
    return out


def test_cleanup_finds_the_stored_atom():
    rng = new_rng(3)
    book = make_books(rng, [6])[0]
    idx, sim = cleanup(book.atoms[4], book)
    assert idx == 4
    assert sim == pytest.approx(1.0, abs=1e-12)


def test_cleanup_rejects_wrong_dimension():
    rng = new_rng(3)
    book = make_books(rng, [6])[0]
    with pytest.raises(DimensionError):
        cleanup(random_symbol(rng, D + 1), book)


def test_factorize_recovers_known_composition():
    rng = new_rng(9)
    books = make_books(rng, [5, 5, 5])
    s = compose(books, (1, 3, 0))
    state = factorize(s, books)
    assert state.indices == (1, 3, 0)
    assert state.converged


def test_factorize_estimates_stay_unit_modulus():
    rng = new_rng(9)
    books = make_books(rng, [4, 4])
    state = factorize(compose(books, (2, 1)), books)
    for est in state.estimates:
        assert np.max(np.abs(np.abs(est) - 1.0)) < 1e-9


def test_factorize_matches_exhaustive_oracle_on_random_inputs():
    rng = new_rng(21)
    books = make_books(rng, [6, 6, 6])
    raw = [b.atoms for b in books]
    hits = 0
    for _ in range(30):
        target = tuple(int(rng.integers(0, 6)) for _ in range(3))
        s = compose(books, target)
        want = nearest_product(s, raw)
        assert want == target
        state = factorize(s, books)
        hits += state.indices == want
    assert hits >= 29


def test_factorize_single_codebook_is_plain_cleanup():
    rng = new_rng(2)
    books = make_books(rng, [8])
    state = factorize(books[0].atoms[5], books)
    assert state.indices == (5,)
    assert state.iterations <= 4


def test_factorize_seeded_init_is_reproducible():
    rng = new_rng(14)
    books = make_books(rng, [5, 5])
    s = compose(books, (3, 2))
    a = factorize(s, books, seed=1)
    b = factorize(s, books, seed=1)
    assert a.indices == b.indices == (3, 2)
    assert a.iterations == b.iterations


def test_factorize_trace_reports_each_sweep():
    rng = new_rng(14)
    books = make_books(rng, [4, 4])
    buf = io.StringIO()
    factorize(compose(books, (0, 3)), books, trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines
    assert lines[0].startswith("iter 1 slot slot0 -> ")


def test_factorize_flags_nonconvergence():
    rng = new_rng(14)
    books = make_books(rng, [4, 4])
    s = random_symbol(rng, D)  # unrelated input has no stable answer owed
    state = factorize(s, books, max_iters=2)
    assert state.iterations <= 2
    assert len(state.history) == state.iterations + 1


def test_factorize_validates_inputs():
    rng = new_rng(14)
    books = make_books(rng, [4, 4])
    with pytest.raises(DimensionError):
        factorize(random_symbol(rng, D), [])
    with pytest.raises(DimensionError):
        factorize(random_symbol(rng, D + 2), books)
    with pytest.raises(DimensionError):
        factorize(random_symbol(rng, D), books, max_iters=0)


# -- class space against the dim-length reference ------------------------

STARTS = (None,) + tuple(range(1, 11))


def assert_same_network(s, books):
    raw = [b.atoms for b in books]
    for seed in STARTS:
        state = factorize(s, books, seed=seed)
        history, iterations, converged = resonate(s, raw, seed=seed)
        assert state.history == history, seed
        assert state.iterations == iterations, seed
        assert state.converged == converged, seed
        assert all(e.shape == s.shape for e in state.estimates)


def noisy_inputs(rng, code, dim):
    """``code`` plus 0 to 5 superposed random symbols."""
    out = [code]
    for _ in range(5):
        out.append(out[-1] + random_symbol(rng, dim))
    return out


@pytest.mark.parametrize(
    "moduli,dim",
    [((3, 5, 7), 1000), ((3, 5, 7), 384), ((3, 5, 7), 256), ((7, 11, 13), 1000)],
)
def test_class_space_sweeps_match_the_dim_length_network_on_residue_books(
    moduli, dim
):
    rng = new_rng(dim)
    cb = make_codebook(ModuliSet(moduli), dim, rng)
    books = cb.factor_codebooks()
    assert len(books.classes) <= cb.moduli.range
    for x in (0, 17, cb.moduli.range - 1):
        for s in noisy_inputs(rng, encode_residue(cb, x), dim):
            assert_same_network(s, books)


def test_class_space_sweeps_match_the_dim_length_network_on_random_books():
    rng = new_rng(31)
    books = make_books(rng, [5, 6, 4])
    assert len(FactorBooks(books).classes) == D
    for s in noisy_inputs(rng, compose(books, (4, 0, 2)), D):
        assert_same_network(s, books)


def test_class_space_sweeps_match_the_dim_length_network_on_repeated_columns():
    rng = new_rng(32)
    # 64 distinct columns, each filling an unequal share of the elements
    base = np.stack([random_symbol(rng, 64) for _ in range(12)])
    cols = rng.integers(0, 64, size=D)
    atoms = base[:, cols]
    books = [FactorCodebook(atoms[:5], "a"), FactorCodebook(atoms[5:], "b")]
    classes = FactorBooks(books).classes
    assert len(classes) == len(set(cols.tolist()))
    assert classes.sizes.min() < classes.sizes.max()
    for s in noisy_inputs(rng, compose(books, (3, 6)), D):
        assert_same_network(s, books)


def test_column_classes_group_exactly_the_equal_columns():
    table = np.array([[1.0, 2.0, 1.0, 1.0], [5.0, 6.0, 5.0, 7.0]])
    classes = column_classes(table)
    assert len(classes) == 3
    assert np.array_equal(table[:, classes.reps[classes.of]], table)
    # the classes come in no promised order: read them through ``of``
    assert classes.sizes[classes.of].tolist() == [2.0, 1.0, 2.0, 1.0]
    v = np.array([1 + 1j, 2, 3j, 4])
    assert classes.sums(v)[classes.of].tolist() == [1 + 4j, 2, 1 + 4j, 4]
