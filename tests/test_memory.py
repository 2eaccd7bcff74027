import math
import warnings

import numpy as np
import pytest

from phasorlisp import (
    CleanupMemory,
    DimensionError,
    Environment,
    MemoryEmptyError,
    NoMatchError,
    UnboundSymbolError,
    bind,
    new_rng,
    random_symbol,
    similarity,
    superpose,
    unbind,
)

D = 256


@pytest.fixture
def rng():
    return new_rng(17)


@pytest.fixture
def mem():
    return CleanupMemory(D)


def test_recall_returns_the_stored_entry(mem, rng):
    v = random_symbol(rng, D)
    mem.add("alpha", v)
    hit = mem.recall(v)
    assert hit.name == "alpha"
    assert hit.kind == "symbol"
    assert hit.similarity == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(hit.vector, v)


def test_recall_cleans_up_a_noisy_probe(mem, rng):
    vs = {n: random_symbol(rng, D) for n in ("a", "b", "c")}
    for n, v in vs.items():
        mem.add(n, v)
    probe = superpose(vs["b"], random_symbol(rng, D))
    assert mem.recall(probe).name == "b"


def test_recall_empty_memory(mem, rng):
    with pytest.raises(MemoryEmptyError):
        mem.recall(random_symbol(rng, D))


def test_recall_below_floor(rng):
    mem = CleanupMemory(D, floor=0.5)
    mem.add("a", random_symbol(rng, D))
    with pytest.raises(NoMatchError):
        mem.recall(random_symbol(rng, D))


def test_recall_kind_mask(mem, rng):
    role_v = random_symbol(rng, D)
    mem.add("val", random_symbol(rng, D), kind="symbol")
    mem.add("role", role_v, kind="role")
    probe = superpose(role_v, random_symbol(rng, D))
    # recall searches every kind and reports the kind of the entry it hit
    hit = mem.recall(probe)
    assert hit.kind == "role"
    assert hit.name == "role"


def test_duplicate_name_rejected_without_replace(mem, rng):
    mem.add("a", random_symbol(rng, D))
    v1 = mem.vector("a").copy()
    with pytest.raises(ValueError):
        mem.add("a", random_symbol(rng, D))
    assert np.array_equal(mem.vector("a"), v1)
    assert len(mem) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, 1e39j, np.nan * 1j])
@pytest.mark.parametrize("chunk", [False, True])
def test_a_vector_with_a_bad_component_is_rejected_whole(mem, rng, bad, chunk):
    def add(name, v):
        # a pointer stored with its chunk takes the same test
        if chunk:
            mem.add_chunk(name, v, random_symbol(rng, D))
        else:
            mem.add(name, v)

    a = random_symbol(rng, D)
    mem.add("a", a)
    v = random_symbol(rng, D)
    v[7] = bad
    with pytest.raises(DimensionError):
        add("b", v)
    assert len(mem) == 1
    assert "b" not in mem and mem.stats()["chunks"] == 0
    assert mem.recall(a).name == "a"
    # the rule is a session file's: each component finite and within
    # float32 range, whatever the vector's norm
    add("edge", np.full(D, 3e38 + 0j))
    assert len(mem) == 2


def test_vector_and_kind_lookup(mem, rng):
    v = random_symbol(rng, D)
    mem.add("x", v, kind="env")
    assert np.array_equal(mem.vector("x"), v)
    assert mem.kind("x") == "env"
    with pytest.raises(KeyError):
        mem.vector("missing")


def test_names_filtered_by_kind(mem, rng):
    mem.add("s1", random_symbol(rng, D))
    mem.add("p1", random_symbol(rng, D), kind="pointer")
    assert mem.names() == ["s1", "p1"]
    assert mem.names(kind="pointer") == ["p1"]


def test_chunk_storage_and_deref(mem, rng):
    ptr = random_symbol(rng, D)
    payload = superpose(random_symbol(rng, D), random_symbol(rng, D))
    mem.add_chunk("cell-0", ptr, payload)
    assert mem.kind("cell-0") == "pointer"
    name = mem.recall(ptr).name
    assert name == "cell-0"
    assert np.array_equal(mem.chunk(name), payload)


def test_chunks_are_write_once(mem, rng):
    payload = random_symbol(rng, D)
    mem.add_chunk("cell-0", random_symbol(rng, D), payload)
    with pytest.raises(ValueError):
        mem.attach_chunk("cell-0", random_symbol(rng, D))
    assert np.array_equal(mem.chunk("cell-0"), payload)


def test_best_since_scores_only_later_entries(mem, rng):
    early, late = random_symbol(rng, D), random_symbol(rng, D)
    mem.add("early", early)
    mem.add("late", late)
    before = mem.recalls
    assert mem.best_since(early, 1) == similarity(late, early)
    assert mem.best_since(late, 1) == pytest.approx(1.0)
    assert mem.best_since(late, 2) == -np.inf
    # with a bar, a score below it reads as -inf and one reaching it as itself
    score = similarity(late, early)
    assert mem.best_since(early, 1, np.nextafter(score, np.inf)) == -np.inf
    assert mem.best_since(early, 1, score) == score
    assert mem.recalls == before


def test_deref_without_attached_chunk(mem, rng):
    ptr = random_symbol(rng, D)
    mem.add("stray", ptr, kind="pointer")
    assert mem.recall(ptr).name == "stray"
    with pytest.raises(KeyError):
        mem.chunk("stray")


def test_recall_counters(mem, rng):
    v = random_symbol(rng, D)
    mem.add_chunk("cell-0", v, superpose(v, v))
    mem.chunk("cell-0")
    mem.recall(v)
    assert mem.stats() == {"entries": 1, "chunks": 1, "recalls": 1}


def test_growth_past_initial_capacity(rng):
    mem = CleanupMemory(D)
    names = [f"n{i}" for i in range(300)]
    vecs = {n: random_symbol(rng, D) for n in names}
    for n in names:
        mem.add(n, vecs[n])
    assert mem.recall(vecs["n250"]).name == "n250"


def test_a_vector_bound_before_growth_is_still_the_stored_row(mem, rng):
    mem.add("a", random_symbol(rng, D))
    bound = mem.vector("a")
    for i in range(300):  # several growths of the table
        mem.add(f"n{i}", random_symbol(rng, D))
    # the binding holds a view of the live row, not of a dropped buffer
    assert np.shares_memory(bound, mem.vector("a"))
    assert np.shares_memory(mem.recall(bound).vector, bound)


def test_stored_rows_are_read_only(session):
    v = session.memory.vector("#cons")
    before = v.copy()
    with pytest.raises(ValueError):
        v += 1
    assert np.array_equal(session.memory.vector("#cons"), before)
    hit = session.memory.recall(before)
    with pytest.raises(ValueError):
        hit.vector[0] = 0


# -- exactness of the complex64 scan -----------------------------------


def test_a_near_tie_inside_the_bound_goes_to_the_float64_winner(mem, rng):
    a = random_symbol(rng, D)
    # an element whose complex64 rounding a 1e-9 phase nudge leaves alone
    k = next(
        i for i in range(D)
        if np.complex64(a[i]) == np.complex64(a[i] * np.exp(1e-9j))
    )
    b = a.copy()
    b[k] = a[k] * np.exp(1e-9j)
    query = a.copy()
    query[k] = a[k] * -1j  # makes the nudge cost b about 1e-9 / D
    mem.add("b", b)
    mem.add("a", a)
    # complex64 alone sees two equal rows and would keep the first, b
    assert np.array_equal(b.astype(np.complex64), a.astype(np.complex64))
    assert similarity(b, query) < similarity(a, query)
    hit = mem.recall(query)
    assert hit.name == "a"
    assert hit.similarity == similarity(a, query)
    assert mem.best_since(query, 0) == similarity(a, query)


def test_a_row_complex64_ranks_first_loses_to_the_float64_winner():
    # Two non-zero elements, chosen so that rounding to complex64 lifts b
    # one float32 step above a while float64 scores b below a.
    ulp = 2.0**-23  # float32 spacing in [1, 2)
    a = np.zeros(D, dtype=np.complex128)
    b = np.zeros(D, dtype=np.complex128)
    query = np.zeros(D, dtype=np.complex128)
    query[:2] = 1.0
    a[:2] = 1.0, 2.0 + 2 * ulp
    b[:2] = 1.0 + 0.51 * ulp, 2.0 + 2 * ulp - 0.9 * ulp
    scan64 = (np.conj(np.stack([b, a])).astype(np.complex64)
              @ query.astype(np.complex64)).real
    assert scan64[0] > scan64[1]
    assert similarity(b, query) < similarity(a, query)
    mem = CleanupMemory(D, floor=0.0)
    mem.add("b", b)
    mem.add("a", a)
    hit = mem.recall(query)
    assert hit.name == "a"
    assert hit.similarity == similarity(a, query)


def test_the_first_of_two_identical_rows_wins(mem, rng):
    v = random_symbol(rng, D)
    mem.add("first", v)
    mem.add("second", v.copy())
    assert mem.recall(v).name == "first"
    assert mem.best_since(v, 1) == similarity(v, v)


def _stored_rows(gen, dim, count):
    """Vectors in the order they are added: non-unit rows,
    superpositions near earlier rows, exact duplicates, rows equal to an
    earlier one on the first half only, and first-half-only nudges of
    1e-7."""
    h = -(-dim // 2)  # the columns recall reads first
    rows = []
    while len(rows) < count:
        v = random_symbol(gen, dim) * gen.uniform(0.2, 3.0)
        kind = gen.integers(6)
        if rows and kind > 0:
            old = rows[gen.integers(len(rows))]
            if kind == 1:  # a superposition near an earlier row
                v = v * 0.1 + old
            elif kind == 2:  # an exact duplicate
                v = old.copy()
            elif kind == 3:  # the same first half, a different second half
                v[:h] = old[:h]
            elif kind == 4:  # a first-half-only nudge
                v = old.copy()
                v[gen.integers(h)] += 1e-7
        rows.append(v)
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_recall_and_best_since_follow_the_float64_kernel(seed):
    """The scan's answers equal a per-row float64 argmax over the rows in
    the order they came, at odd and even dims, one-column ones among
    them, and queries with 0-5 crosstalk terms."""
    gen = np.random.default_rng(seed)
    for dim in (1, 2, 3, 7, 64, 257, 1000, 1001):
        mem = CleanupMemory(dim, floor=-np.inf)
        rows = _stored_rows(gen, dim, 150)
        for i, v in enumerate(rows):
            mem.add(f"r{i}", v)
        for _ in range(30):
            query = rows[gen.integers(len(rows))] * gen.uniform(0.5, 2.0)
            for _ in range(gen.integers(6)):
                query = query + random_symbol(gen, dim) * gen.uniform(0.2, 1.5)
            sims = [similarity(v, query) for v in rows]
            hit = mem.recall(query)
            assert hit.name == f"r{int(np.argmax(sims))}"
            assert hit.similarity == max(sims)
            for start in (0, len(rows) // 2, len(rows) - 1):
                best = max(sims[start:])
                assert mem.best_since(query, start) == best
                # a bar the best reaches returns it; one just above, -inf
                assert mem.best_since(query, start, best) == best
                assert mem.best_since(query, start, best - 1e-9) == best
                above = np.nextafter(best, np.inf)
                assert mem.best_since(query, start, above) == -np.inf


def test_a_row_leading_on_the_first_half_loses_to_the_whole_row_winner():
    gen = np.random.default_rng(3)
    h = D // 2
    query = random_symbol(gen, D)
    lead = random_symbol(gen, D)
    lead[:h] = query[:h]  # all of the first half, none of the second
    winner = query.copy()
    winner[: h // 4] = random_symbol(gen, h // 4)  # most of both halves
    mem = CleanupMemory(D)
    mem.add("lead", lead)
    mem.add("winner", winner)
    for i in range(50):
        mem.add(f"n{i}", random_symbol(gen, D))
    conj = np.conj(np.stack([lead, winner]))
    first_half = (conj[:, :h] @ query[:h]).real
    assert first_half[0] > first_half[1]
    assert similarity(winner, query) > similarity(lead, query)
    hit = mem.recall(query)
    assert hit.name == "winner"
    assert hit.similarity == similarity(winner, query)


def test_near_ties_on_rows_with_an_empty_second_half_go_to_the_float64_winner():
    # Rows that are zero past their first three columns bound the unread
    # half at 0, so only the 2*delta margin keeps the float64 winner in
    # when complex64 ranks its near-twin first.
    gen = np.random.default_rng(11)
    ulp = 2.0**-23  # float32 spacing in [1, 2)
    for _ in range(1000):
        query = np.zeros(D, dtype=np.complex128)
        query[:3] = gen.uniform(1.0, 2.0, 3)
        base = gen.uniform(1.0, 2.0, 3)
        mem = CleanupMemory(D, floor=0.0)
        rows = []
        for i in range(2):
            row = np.zeros(D, dtype=np.complex128)
            row[:3] = base + gen.integers(-4, 5, 3) * gen.uniform(0, ulp, 3)
            rows.append(row)
            mem.add(f"r{i}", row)
        sims = [similarity(row, query) for row in rows]
        hit = mem.recall(query)
        assert hit.name == f"r{int(np.argmax(sims))}"
        assert hit.similarity == max(sims)


def test_a_clean_winner_is_recalled_from_the_first_half_of_the_scan():
    # Poisoning the tail block of every other scan row with NaN leaves
    # recall's answer alone only if it never reads those columns.
    dim = 1000
    gen = np.random.default_rng(7)
    mem = CleanupMemory(dim)
    atoms = [random_symbol(gen, dim) for _ in range(300)]
    for i, v in enumerate(atoms):
        mem.add(f"a{i}", v)
    roles = atoms[:3]
    chunk = sum(bind(r, atoms[10 + k]) for k, r in enumerate(roles))
    query = unbind(chunk, roles[0])  # a10 plus two crosstalk terms
    winner = mem._index["a10"]
    others = np.arange(len(mem)) != winner
    mem._tail[np.flatnonzero(others)] = np.nan
    hit = mem.recall(query)
    assert hit.name == "a10"
    assert hit.similarity == similarity(atoms[10], query)


def test_a_one_row_range_follows_the_float64_kernel_at_its_bar():
    """A range of one row is scored by ``similarity`` alone: its score
    comes back for a bar at it or one ulp below, and -inf one ulp above;
    a NaN query matches nothing, as over a longer range."""
    gen = np.random.default_rng(5)
    for dim in (1, 2, 3, 257, 1000):
        mem = CleanupMemory(dim)
        rows = [random_symbol(gen, dim) for _ in range(3)]
        for i, v in enumerate(rows):
            mem.add(f"r{i}", v)
            query = v + random_symbol(gen, dim) * 0.8
            s = similarity(v, query)
            assert mem.best_since(query, i) == s
            assert mem.best_since(query, i, s) == s
            assert mem.best_since(query, i, np.nextafter(s, -np.inf)) == s
            assert mem.best_since(query, i, np.nextafter(s, np.inf)) == -np.inf
        nan = np.full(dim, np.nan, dtype=np.complex128)
        assert mem.best_since(nan, len(rows) - 1) == -np.inf
        assert mem.best_since(nan, len(rows) - 1, -np.inf) == -np.inf
    one = CleanupMemory(D)
    one.add("only", random_symbol(gen, D))
    query = one.vector("only") + random_symbol(gen, D)
    hit = one.recall(query)
    assert hit.name == "only"
    assert hit.similarity == similarity(one.vector("only"), query)
    with pytest.raises(NoMatchError):
        one.recall(np.full(D, np.nan, dtype=np.complex128))


def _first_best(rows, query, start, bar):
    """``_best``'s contract, row by row in float64: the first best row
    from ``start`` on and its score when it reaches ``bar``."""
    best, score = -1, -math.inf
    for i in range(start, len(rows)):
        s = similarity(rows[i], query)
        if s > score:
            best, score = i, s
    if bar is None:
        bar = score
    return (best, score) if score >= bar else (-1, -math.inf)


@pytest.mark.parametrize("factor", [1e39, 1e300, 1e-300, 0.0, 1.0, "nan", "inf"])
def test_a_query_past_float32_range_follows_the_float64_kernel(factor):
    """A query 1e39 or 1e300 times a stored row overflows complex64, and
    one 1e-300 or 0 times a row underflows it; each is scored row by row,
    so every answer is the per-row float64 first best and no warning is
    raised.  NaN- and inf-filled queries match nothing."""
    answers = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in (1, 2, 3, 17, 64, 256, 1000):
            gen = np.random.default_rng(dim)
            for n in range(1, 5):
                mem = CleanupMemory(dim)
                rows = [random_symbol(gen, dim) for _ in range(n)]
                for i, v in enumerate(rows):
                    mem.add(f"r{i}", v)
                for row in rows:
                    if isinstance(factor, str):
                        query = np.full(dim, float(factor), dtype=np.complex128)
                    else:
                        query = row * factor
                    for start in range(n):
                        for bar in (None, -math.inf, 0.0, 0.5):
                            got = mem._best(query, start, bar)
                            assert got == _first_best(rows, query, start, bar)
                            if isinstance(factor, str):
                                assert got == (-1, -math.inf)
                            answers += 1
    assert answers == 840


def test_a_bar_past_float32_range_is_compared_in_float64(mem, rng):
    # cast to float32 for the comparison, a cut of 256 * 1e39 overflowed
    rows = [random_symbol(rng, D) for _ in range(3)]
    for i, v in enumerate(rows):
        mem.add(f"r{i}", v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bar in (1e39, 1e300, math.inf):
            assert mem.best_since(rows[1], 0, bar) == -math.inf
        s = similarity(rows[1], rows[1])
        assert mem.best_since(rows[1], 0, s) == s


# -- environments ------------------------------------------------------


def test_environment_define_and_lookup(rng):
    env = Environment()
    v = random_symbol(rng, D)
    env.define("x", v)
    assert np.array_equal(env.lookup("x"), v)


def test_environment_lookup_walks_to_parent(rng):
    root = Environment()
    v = random_symbol(rng, D)
    root.define("x", v)
    leaf = root.child().child()
    assert np.array_equal(leaf.lookup("x"), v)


def test_environment_shadowing(rng):
    root = Environment()
    outer = random_symbol(rng, D)
    inner = random_symbol(rng, D)
    root.define("x", outer)
    kid = root.child()
    kid.define("x", inner)
    assert np.array_equal(kid.lookup("x"), inner)
    assert np.array_equal(root.lookup("x"), outer)


def test_environment_unbound(rng):
    env = Environment()
    with pytest.raises(UnboundSymbolError) as e:
        env.lookup("ghost")
    assert "ghost" in str(e.value)


def test_environment_redefine_replaces(rng):
    env = Environment()
    env.define("x", random_symbol(rng, D))
    v2 = random_symbol(rng, D)
    env.define("x", v2)
    assert np.array_equal(env.lookup("x"), v2)


def test_environment_frames_and_names(rng):
    root = Environment()
    root.define("a", random_symbol(rng, D))
    kid = root.child()
    kid.define("b", random_symbol(rng, D))
    assert kid.parent is root and root.parent is None
