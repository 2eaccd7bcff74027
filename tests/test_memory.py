import numpy as np
import pytest

from phasorlisp import (
    CleanupMemory,
    Environment,
    MemoryEmptyError,
    NoMatchError,
    UnboundSymbolError,
    new_rng,
    random_symbol,
    similarity,
    superpose,
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
    assert mem.best_since(early, 1) == pytest.approx(similarity(late, early))
    assert mem.best_since(late, 1) == pytest.approx(1.0)
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


@pytest.mark.parametrize("seed", range(4))
def test_recall_and_best_since_follow_the_float64_kernel(seed):
    """Non-unit rows and queries: the scan's answers equal a per-row argmax."""
    gen = np.random.default_rng(seed)
    mem = CleanupMemory(D, floor=0.0)
    rows = []
    for i in range(150):
        v = random_symbol(gen, D) * gen.uniform(0.2, 3.0)
        if i % 3 == 0 and rows:  # superpositions, near earlier rows
            v = v * 0.1 + rows[gen.integers(len(rows))]
        rows.append(v)
        mem.add(f"r{i}", v)
    for _ in range(30):
        query = rows[gen.integers(len(rows))] * gen.uniform(0.5, 2.0)
        query = query + 0.8 * random_symbol(gen, D)
        sims = [similarity(r, query) for r in rows]
        hit = mem.recall(query)
        assert hit.name == f"r{int(np.argmax(sims))}"
        assert hit.similarity == max(sims)
        for start in (0, 64, 149):
            assert mem.best_since(query, start) == max(sims[start:])


# -- the segment -------------------------------------------------------


def test_segment_entries_are_recalled_counted_and_dropped(mem, rng):
    a, b, c = (random_symbol(rng, D) for _ in range(3))
    mem.add("a", a)
    mem.add_chunk("s", b, superpose(b, a), segment=True)
    assert mem.in_segment("s") and not mem.in_segment("a")
    assert (len(mem), mem.main_rows) == (2, 1)
    assert mem.recall(b).name == "s"
    assert np.array_equal(mem.chunk("s"), superpose(b, a))
    mem.add("c", c)  # a main append while the segment holds a row
    assert mem.names() == ["a", "s", "c"]
    for name, v in (("a", a), ("s", b), ("c", c)):
        assert mem.recall(v).name == name
        assert np.array_equal(mem.vector(name), v)
    assert mem.best_since(b, 2) == pytest.approx(1.0)
    mem.drop_segment()
    assert (len(mem), mem.main_rows) == (2, 2)
    assert "s" not in mem and mem.names() == ["a", "c"]
    with pytest.raises(KeyError):
        mem.chunk("s")
    with pytest.raises(NoMatchError):
        mem.recall(b)
    # nothing past the main rows is scanned once the segment is gone
    assert mem.best_since(b, 2) == -np.inf
    mem.add("s", b)  # the name is free again
    assert mem.recall(b).name == "s"


def test_a_main_row_wins_a_tie_with_an_earlier_segment_row(mem, rng):
    v = random_symbol(rng, D)
    mem.add("seg", v, segment=True)
    mem.add("main", v.copy())
    assert mem.recall(v).name == "main"


def test_segment_rows_survive_many_main_appends(rng):
    mem = CleanupMemory(D)
    seg = [random_symbol(rng, D) for _ in range(5)]
    for i, v in enumerate(seg):
        mem.add(f"s{i}", v, segment=True)
    main = [random_symbol(rng, D) for _ in range(150)]  # past two growths
    for i, v in enumerate(main):
        mem.add(f"m{i}", v)
    for prefix, rows in (("s", seg), ("m", main)):
        for i, v in enumerate(rows):
            assert mem.recall(v).name == f"{prefix}{i}"
            assert np.array_equal(mem.vector(f"{prefix}{i}"), v)
    assert mem.best_since(seg[3], 150) == similarity(seg[3], seg[3])
    mem.drop_segment()
    assert len(mem) == mem.main_rows == 150
    assert mem.recall(main[149]).name == "m149"


def test_segment_rows_are_read_only_copies(mem, rng):
    v = random_symbol(rng, D)
    mem.add("s", v, segment=True)
    row = mem.vector("s")
    assert not np.shares_memory(row, v)
    with pytest.raises(ValueError):
        row[0] = 0


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
