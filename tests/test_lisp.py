import io
import math
import signal
import struct
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasorlisp import (
    ArityError,
    Config,
    ConfigError,
    DecodeError,
    EvalError,
    LispTypeError,
    ModuliSet,
    NoInverseError,
    NotApplicableError,
    ParseError,
    PhasorError,
    RecursionDepthError,
    Session,
    SessionIOError,
    UnboundSymbolError,
    bind,
    decode_residue,
    encode_residue,
    make_codebook,
    new_rng,
    normalize,
    parse_one,
    parse_program,
    random_symbol,
    similarity,
)

from phasorlisp.lisp import PRIMITIVES

from oracles import inverse_mod

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def run(session, source):
    return session.print_value(session.eval_expr(parse_one(source)))


@contextmanager
def _within(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- encoding and resolution -------------------------------------------


def test_integer_value_carries_the_tag(session):
    v = session.encode_int(0)
    assert similarity(v, session.int_tag) > session.config.theta


def test_tag_strip_roundtrip(session):
    v = session.encode_int(42) - session.int_tag
    assert decode_residue(session.codebook, v) == 42


def test_symbol_interning_returns_identical_vectors(session):
    a1 = session.symbol("spoon")
    a2 = session.symbol("spoon")
    assert np.array_equal(a1, a2)


def test_resolve_classifies_values(session):
    assert session.resolve(session.encode_int(9)).kind == "int"
    assert session.resolve(session.encode_int(9)).value == 9
    assert session.resolve(session.symbol("t")).kind == "bool"
    assert session.resolve(session.symbol("nil")).kind == "nil"
    assert session.resolve(session.symbol("zebra")).kind == "symbol"
    junk = random_symbol(new_rng(0), session.config.dim)
    assert session.resolve(junk).kind == "unknown"


def test_resolve_names_cons_and_lambda_chunks(session):
    pair = session.eval_expr(parse_one("(quote (a))"))
    closure = session.eval_expr(parse_one("(lambda (x) x)"))
    assert session.resolve(pair).kind == "cons"
    assert session.resolve(closure).kind == "lambda"


@pytest.mark.parametrize(
    "source, recalls, printed",
    [
        # 1 for the form, 2 for + and the first cell, 1 per later cell
        ("(+ 2 3)", 5, "5"),
        # 1 for the form, 3 for its head and the chain (2); 6 for the
        # lambda form's head and parts, 2 to check (x); 1 to resolve the
        # closure, 3 for params, body and env (walking (x) again reads
        # the session's memo); 5 for (+ x 1)
        ("((lambda (x) (+ x 1)) 2)", 21, "3"),
    ],
)
def test_each_code_vector_is_resolved_once(
    session, monkeypatch, source, recalls, printed
):
    import phasorlisp.lisp

    decodes = []
    real = phasorlisp.lisp.decode_residue

    def counting(*args, **kwargs):
        decodes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(phasorlisp.lisp, "decode_residue", counting)
    before = session.memory.recalls
    value = session.eval_expr(parse_one(source))
    # one decode per integer literal, none when its value is evaluated
    assert len(decodes) == 2
    assert session.memory.recalls - before == recalls
    assert session.print_value(value) == printed


FACT = (
    "(define fact (lambda (n) (cond ((eq? n 0) 1)"
    " (t (* n (fact (- n 1)))))))"
)


def test_a_chunk_part_is_read_once_while_memory_does_not_grow(
    session, monkeypatch
):
    import phasorlisp.lisp

    run(session, FACT)
    assert run(session, "(fact 4)") == "24"
    code = session.resolve(session.encode(parse_one("(fact 4)")))
    unbinds = Counter()
    real = phasorlisp.lisp.unbind

    def counting(w, u):
        # a stored chunk is one array, so its identity names it; the
        # chunks ending ((eq? n 0) 1) and (- n 1) are equal but distinct
        unbinds[(id(w), u.tobytes())] += 1
        return real(w, u)

    monkeypatch.setattr(phasorlisp.lisp, "unbind", counting)
    rows = len(session.memory)
    # memory grew by the new form's cells, so each memo entry is checked
    # against them once; the recursion below reads the memo only
    value = session.eval_vec(code, session.global_env)
    assert session.print_value(value) == "24"
    assert len(session.memory) == rows
    assert unbinds and max(unbinds.values()) == 1
    unbinds.clear()
    session.eval_vec(code, session.global_env)
    assert not unbinds


def test_memo_sees_entries_added_later(session):
    nil = session.symbol("nil")
    # no entry matches the head: unknown until the head itself is stored
    head = random_symbol(new_rng(5), session.config.dim)
    pair = session.cons(head, nil)
    assert session.print_value(pair).startswith("(#<vector sim=")
    assert session.print_value(head).startswith("#<vector sim=")
    session.memory.add("late", head)
    assert session.print_value(pair) == "(late)"
    assert session.print_value(head) == "late"
    # a head near the symbol a reads as a until a closer entry is stored
    noise = random_symbol(new_rng(6), session.config.dim)
    near = normalize(session.symbol("a") + noise)
    pair = session.cons(near, nil)
    assert session.print_value(pair) == "(a)"
    assert session.print_value(near) == "a"
    session.memory.add("closer", near)
    assert session.print_value(pair) == "(closer)"
    assert session.print_value(near) == "closer"


def test_memo_misses_go_through_resolve(session, monkeypatch):
    code = session.resolve(session.encode(parse_one("(a b)")))
    calls = []
    real = Session.resolve

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(Session, "resolve", counting)
    head = session._unbind_role(code, "#head")
    assert head.name == "a"
    assert len(calls) == 1
    # a hit hands out the very Resolved stored
    assert session._readings[(code.name, "#head")][0] is head
    assert session._unbind_role(code, "#head") is head
    assert len(calls) == 1
    value = session.symbol("b")
    b = session._resolve_value(value)
    assert b.name == "b"
    assert len(calls) == 2
    assert session._values[value.tobytes()][0] is b
    # keyed by the bytes, not by the array
    assert session._resolve_value(value.copy()) is b
    assert len(calls) == 2


def test_a_repeated_value_is_decoded_once_per_session(session, monkeypatch):
    import phasorlisp.lisp

    run(session, "(define z (- 7 2))")
    decodes = []
    real = phasorlisp.lisp.decode_residue

    def counting(*args, **kwargs):
        decodes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(phasorlisp.lisp, "decode_residue", counting)
    # eq? resolves both operands: the first reading of z decodes it, the
    # three later ones read the session's memo
    assert run(session, "(eq? z z)") == "t"
    assert run(session, "(eq? z z)") == "t"
    assert len(decodes) == 1


def test_value_memo_keeps_at_most_its_bound(session):
    from phasorlisp.lisp import VALUE_MEMO_SIZE

    values = [session.symbol(f"s{i}") for i in range(VALUE_MEMO_SIZE + 8)]
    for v in values:
        assert not session.is_nil(v)
        assert len(session._values) <= VALUE_MEMO_SIZE
    assert len(session._values) == VALUE_MEMO_SIZE
    # the oldest went first
    assert values[7].tobytes() not in session._values
    assert values[8].tobytes() in session._values


def test_a_value_read_again_survives_newer_values(session):
    from phasorlisp.lisp import VALUE_MEMO_SIZE

    kept, *newer = [session.symbol(f"s{i}") for i in range(VALUE_MEMO_SIZE + 1)]
    assert not session.is_nil(kept)
    for v in newer[:-1]:
        assert not session.is_nil(v)
    # a hit makes ``kept`` the most recently used, so the value stored
    # after it goes first when the memo overflows
    assert not session.is_nil(kept)
    assert not session.is_nil(newer[-1])
    recalls = session.memory.recalls
    assert session._resolve_value(kept).name == "s0"
    assert session.memory.recalls == recalls
    assert newer[0].tobytes() not in session._values


def test_a_repeated_product_does_not_factorize_its_operand_again(
    session, monkeypatch
):
    import phasorlisp.residue

    factorized = []
    real = phasorlisp.residue.factorize

    def counting(*args, **kwargs):
        factorized.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(phasorlisp.residue, "factorize", counting)
    three, four = session.encode_int(3), session.encode_int(4)
    session.prim_mul(three, four)
    assert factorized
    factorized.clear()
    session.prim_mul(three, four)
    assert not factorized
    assert run(session, "(* 3 4)") == "12"
    factorized.clear()
    # Encoding the form again takes the same pooled spine pointers, so it
    # rebuilds every chunk of the form bit for bit: each part, the head of
    # (3 4) included, is a memo hit and no operand is decoded again.
    assert run(session, "(* 3 4)") == "12"
    assert not factorized


def test_division_does_not_decode_the_inverse_it_computes(monkeypatch):
    import phasorlisp.residue

    factorized = []
    real = phasorlisp.residue.factorize

    def counting(*args, **kwargs):
        factorized.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(phasorlisp.residue, "factorize", counting)
    # each reads its two literals, its second operand and its result; the
    # inverse of 2 (53) is raised to, never encoded and factorized again.
    # A seed of its own gives each session a cold codebook, whose decode
    # memo is empty.
    assert run(Session(Config(seed=101)), "(* 6 2)") == "12"
    product = len(factorized)
    factorized.clear()
    assert run(Session(Config(seed=102)), "(/ 6 2)") == "3"
    assert len(factorized) == product == 4


def test_each_spine_cell_takes_one_pooled_pointer(session):
    assert run(session, "(car (quote (a)))") == "a"
    cells = ["code-0", "code-1", "code-2", "code-3"]
    assert sorted(session._spine) == cells
    rows = [session.memory.vector(name) for name in cells]
    assert not any(row.flags.writeable for row in rows)
    assert run(session, "(cdr (quote (a b)))") == "(b)"
    # the second form takes the same four entries, with chunks of its own
    spine = [n for n in session.memory.names() if n.startswith("code-")]
    assert spine == cells
    assert all(session.memory.vector(n) is row for n, row in zip(cells, rows))


def test_a_spine_reading_is_served_only_while_its_cell_wins():
    session = Session()
    # the form's own pointer, read as its outermost cell, code-3
    assert run(session, "(car (quote (a)))") == "a"
    pointer = session.memory.vector("code-3")
    # the cell outlives its form, and so does the reading
    reading = session._resolve_value(pointer)
    assert (reading.kind, reading.name) == ("cons", "code-3")
    # once stored, the cell's name is reserved, as a cell-<n> is
    with pytest.raises(EvalError, match="'code-3' names an internal entry"):
        run(session, "(quote code-3)")
    # an entry added since that ties the cell loses to it, as in a
    # recall: the row stored first wins
    session.memory.add("twin", pointer.copy())
    assert session.memory.recall(pointer).name == "code-3"
    assert session._resolve_value(pointer).name == "code-3"
    assert run(session, "(car (quote (b)))") == "b"


def test_a_saved_session_holds_its_spine_cells_as_positions_and_their_chunks(
    session,
):
    assert run(session, "(define xs (quote (a (b 2) c)))") == "xs"
    spine = sorted(session._spine)
    assert spine == [f"code-{i}" for i in range(5)]
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    for name in spine:
        assert data.count(f"pointer:{name}".encode()) == 1
        assert data.count(f"chunk:{name}".encode()) == 1
    other = Session.restore(io.BytesIO(data))
    assert other.memory.names() == session.memory.names()
    for name in spine:
        assert other.memory.vector(name) is session.memory.vector(name)
        assert other._spine[name].tobytes() == session._spine[name].tobytes()
    for check in ("(car (cdr xs))", "(cdr (car (cdr xs)))"):
        assert run(other, check) == run(session, check)
    # the check forms took the same cells again in both sessions
    assert other.memory.names() == session.memory.names()
    assert sorted(other._spine) == sorted(session._spine)
    assert other._drawn == session._drawn


def test_the_column_classes_wait_for_the_first_integer():
    # a seed no other session of the thread takes: a cold codebook
    session = Session(Config(seed=103))
    book = session.codebook
    assert book._classes is None
    assert book._factor_books is None
    assert run(session, "(+ 2 3)") == "5"
    assert book._classes is not None
    # the resonator reads the codebook's own classes
    assert book.factor_codebooks().classes is book._classes


def test_every_tabled_code_is_read_only_and_exact(session):
    r = session.moduli.range
    for x in range(-r, r + 1):
        code = session.encode_int(x)
        expected = encode_residue(session.codebook, x) + session.int_tag
        assert code.tobytes() == expected.tobytes()
        assert not code.flags.writeable
    # -52 and 53 name one residue but are encoded apart, each with its own bits
    assert session.encode_int(-52) is not session.encode_int(53)
    with pytest.raises(ValueError):
        session.encode_int(r)[0] = 0


def test_force_decode_confidence(session):
    x, conf = session.force_decode(session.encode_int(33))
    assert x == 33
    assert conf == pytest.approx(1.0, abs=1e-9)


# -- a session's start ---------------------------------------------------


#: integers, a product, a quotient, lists and closures
MIXED = (
    "(define sq (lambda (x) (* x x)))"
    "(sq 7)"
    "(/ 44 4)"
    "(define xs (cons 3 (quote (a b))))"
    "(car (cdr xs))"
    "(define add (lambda (n) (lambda (x) (+ x n))))"
    "((add 5) (car xs))"
)


def _cold(config):
    """A session of ``config`` whose thread's start had another key."""
    Session(replace(config, seed=config.seed + 1))
    return Session(config)


def _entries(session):
    return [
        (name, session.memory.kind(name), session.memory.vector(name).tobytes())
        for name in session.memory.names()
    ]


def test_a_warm_start_gives_the_entries_and_state_a_cold_one_does():
    config = Config(seed=201)
    cold = _cold(config)
    warm = Session(config)
    assert warm.codebook is cold.codebook
    assert warm._stream is cold._stream
    assert _entries(warm) == _entries(cold)
    # both drew positions 0-10 of the stream, and hold those very rows
    assert warm._drawn == cold._drawn == 11
    names = warm.memory.names()
    assert all(warm.memory.vector(n) is cold.memory.vector(n) for n in names)
    # and both hold what new_rng(seed) draws, in the documented order
    rng = new_rng(config.seed)
    book = make_codebook(ModuliSet(config.moduli), config.dim, rng)
    assert cold._stream.state == rng.bit_generator.state
    drawn = [book.tag] + [random_symbol(rng, config.dim) for _ in range(11)]
    assert [row for _, _, row in _entries(cold)] == [v.tobytes() for v in drawn]
    assert names == [
        "int", "t", "f", "nil", "#head", "#tail", "#params", "#body", "#env",
        "#cons", "#lambda", "env-0",
    ]


def test_a_warm_session_prints_and_saves_what_a_cold_one_does():
    config = Config(seed=202)
    runs = []
    for session in (_cold(config), Session(config)):
        printed = list(session.eval_source(MIXED))
        buf = io.BytesIO()
        session.save(buf)
        runs.append((printed, buf.getvalue(), session._drawn, _entries(session)))
    # the second session's codebook came with the first one's tables and
    # decode memo
    assert runs[0] == runs[1]
    assert runs[0][0] == ["sq", "49", "11", "xs", "a", "add", "8"]


@pytest.mark.parametrize(
    "change", [{"dim": 512}, {"moduli": (3, 5, 11)}, {"seed": 204}]
)
def test_another_key_in_between_rebuilds_the_start(change):
    config = Config(seed=203)
    first = Session(config)
    assert Session(config).codebook is first.codebook
    Session(replace(config, **change))
    again = Session(config)
    assert again.codebook is not first.codebook
    assert _entries(again) == _entries(first)


def test_theta_and_decode_share_the_start():
    first = Session(Config(seed=205))
    other = Session(Config(seed=205, theta=0.3, decode="exhaustive"))
    assert other.codebook is first.codebook


def test_each_thread_builds_its_own_start():
    config = Config(seed=206)
    here = Session(config)
    there = []
    thread = threading.Thread(target=lambda: there.append(Session(config)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert there[0].codebook is not here.codebook
    assert _entries(there[0]) == _entries(here)
    # the other thread's start did not replace this one's
    assert Session(config).codebook is here.codebook


def test_nothing_a_start_shares_can_be_written():
    from phasorlisp.lisp import _start

    config = Config(seed=207)
    session = Session(config)
    stream = _start(config)
    assert stream is session._stream
    assert stream.codebook is session.codebook
    rows = [session.memory.vector(name) for name in session.memory.names()]
    assert rows[0] is session.codebook.tag
    # memory holds the stream's rows themselves, not copies of them
    assert all(rows[1 + p] is stream.row(p) for p in range(11))
    for array in [session.codebook.phases, *rows]:
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_start_that_cannot_be_built_is_a_config_error_and_is_not_kept(
    monkeypatch,
):
    import phasorlisp.lisp

    config = Config(seed=208)
    kept = Session(config).codebook

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(phasorlisp.lisp, "random_symbol", no_memory)
    with pytest.raises(ConfigError):
        Session(Config(seed=209))
    monkeypatch.undo()
    assert Session(config).codebook is kept


# -- the stream --------------------------------------------------------


def _lists_transcript(session, plan):
    """What ``session`` prints for each form of ``plan``, and its save."""
    printed = []
    for form in plan.forms:
        try:
            printed.extend(session.eval_source(form.source))
        except PhasorError as exc:
            printed.append(type(exc).__name__)
    buf = io.BytesIO()
    session.save(buf)
    return printed, buf.getvalue()


@pytest.mark.parametrize("dim", [16, 1000])
def test_every_row_a_session_draws_is_its_streams_row_at_that_position(dim):
    config = Config(dim=dim, seed=210)
    session = _cold(config)
    _lists_transcript(session, WORKLOADS["lists"].plan(1, 0))
    rows = session._stream._rows
    # a reused spine cell skips its position: every other entry but int
    # was drawn once, and no position was drawn that nothing stored
    assert len(rows) == len(session.memory) - 1
    assert set(rows) <= set(range(session._drawn))
    # position p is the p-th symbol new_rng(seed) draws after the codebook
    rng = new_rng(config.seed)
    make_codebook(ModuliSet(config.moduli), dim, rng)
    for p in range(session._drawn):
        expected = random_symbol(rng, dim)
        if p in rows:
            assert rows[p].tobytes() == expected.tobytes()


def test_sessions_sharing_a_source_in_threads_print_what_cold_ones_do():
    config = Config(seed=211)
    plans = [WORKLOADS["lists"].plan(1, i) for i in range(3)]
    expected = [_lists_transcript(_cold(config), plan) for plan in plans]
    # built in this thread from one stream, which holds only the
    # bootstrap rows, so three threads that switch often draw every later
    # position afresh
    sessions = [_cold(config)] + [Session(config) for _ in plans[1:]]
    assert all(s._stream is sessions[0]._stream for s in sessions)
    barrier = threading.Barrier(len(plans))
    results = [None] * len(plans)

    def drive(i):
        barrier.wait(timeout=60)
        results[i] = _lists_transcript(sessions[i], plans[i])

    threads = [
        threading.Thread(target=drive, args=(i,)) for i in range(len(plans))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def test_another_keys_start_frees_the_old_rows_once_no_session_holds_them():
    import gc
    import weakref

    from phasorlisp.lisp import _start

    config = Config(seed=212)
    session = Session(config)
    block = weakref.ref(_start(config)._block)
    Session(replace(config, seed=213))
    gc.collect()
    assert block() is not None  # the session's memory holds its rows
    del session
    gc.collect()
    assert block() is None


def test_a_restored_session_takes_its_keys_stream_and_mints_what_the_unsaved_session_mints():
    config = Config(seed=214)
    session = Session(config)
    list(session.eval_source("(define xs (quote (a b)))"))
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    rows = len(session.memory)
    for _ in range(2):
        other = Session.restore(io.BytesIO(data), config)
        assert other._stream is session._stream
        assert other.codebook is session.codebook
        assert _entries(other) == _entries(session)
        assert other._drawn == session._drawn
        assert list(other.eval_source("(define ys (cons (quote c) xs))")) == ["ys"]
        assert len(other.memory) > rows
    # the unsaved session mints the very rows the restored ones minted
    assert list(session.eval_source("(define ys (cons (quote c) xs))")) == ["ys"]
    assert _entries(other) == _entries(session)
    assert other._drawn == session._drawn


def test_a_draw_that_fails_stores_nothing_and_the_stream_stays_exact(
    monkeypatch,
):
    import phasorlisp.lisp
    from phasorlisp.lisp import _start

    config = Config(dim=64, seed=215)
    stream = _start(config)
    held = dict(stream._rows)
    real = phasorlisp.lisp.random_symbol
    failed = []

    def fails_once(rng, dim):
        if not failed:
            failed.append(rng.random(dim // 2))  # part of a draw, then none
            raise MemoryError
        return real(rng, dim)

    monkeypatch.setattr(phasorlisp.lisp, "random_symbol", fails_once)
    p = 20  # past the bootstrap rows
    with pytest.raises(MemoryError):
        stream.row(p)
    assert stream._rows == held
    # p + 1 first: a generator left where the failed draw stopped would
    # draw it wrong
    late = stream.row(p + 1)
    got = [stream.row(p), late]
    # what new_rng(seed) draws after the codebook, advanced by hand
    rng = new_rng(config.seed)
    make_codebook(ModuliSet(config.moduli), config.dim, rng)
    rng.bit_generator.advance(p * config.dim)
    expected = [real(rng, config.dim) for _ in range(2)]
    assert [row.tobytes() for row in got] == [row.tobytes() for row in expected]


# -- arithmetic --------------------------------------------------------


def test_addition_example(session):
    assert run(session, "(+ 2 3)") == "5"


def test_subtraction_wraps_to_symmetric_window(session):
    assert run(session, "(- 2 3)") == "-1"
    r = session.resolve(session.eval_expr(parse_one("(- 2 3)")))
    assert r.value == 104


def test_division_by_modular_inverse(session):
    # frozen: inverse of 4 mod 105 is 79, and 44 * 79 = 11 mod 105
    assert inverse_mod(4, 105) == 79
    assert 44 * 79 % 105 == 11
    assert run(session, "(/ 44 4)") == "11"


def test_arithmetic_matches_modular_oracle(session):
    rng = new_rng(31)
    for _ in range(25):
        a = int(rng.integers(0, 105))
        b = int(rng.integers(0, 105))
        got = session.resolve(session.eval_expr(parse_one(f"(+ {a} {b})")))
        assert got.value == (a + b) % 105
        got = session.resolve(session.eval_expr(parse_one(f"(* {a} {b})")))
        assert got.value == (a * b) % 105


def test_multiplication_and_division_decode_with_the_session_floor(session):
    noise = random_symbol(new_rng(7), session.config.dim)
    weak = 0.05 * (session.encode_int(2) - session.int_tag) + noise + session.int_tag
    # the code of 2 scores under the 0.5 check: resolve will not read weak
    # as an integer, nor as the bare type tag its recall lands on, nor
    # may * or /
    with pytest.raises(DecodeError):
        session.resolve(weak)
    three = session.encode_int(3)
    with pytest.raises(DecodeError):
        session.prim_mul(three, weak)
    with pytest.raises(DecodeError):
        session.prim_div(three, weak)


def test_a_symbol_after_arithmetic_at_dim_64_is_not_read_as_an_integer():
    # After (+ 3 4), the head of (* 3 4) clears theta against the integer
    # tag by crosstalk; no integer reading of it reaches the 0.5 check, so
    # it is recalled as the symbol * instead.
    session = Session(Config(dim=64))
    assert run(session, "(+ 3 4)") == "7"
    assert run(session, "(* 3 4)") == "12"


#: seeds of 1-40 at which the script below misreads a symbol as an integer
#: at dims 128 and 192, under either decode method, when a reading whose
#: check clears 0.1 but not 0.5 is accepted
_THREE_FORM_SEEDS = {
    128: (1, 3, 4, 12, 21, 24, 27, 28, 29, 30, 32, 33, 35, 36, 40),
    192: (11, 12, 16),
}


@pytest.mark.parametrize("method", ["exhaustive", "resonator"])
@pytest.mark.parametrize("dim", sorted(_THREE_FORM_SEEDS))
def test_small_dims_read_integers_and_symbols_apart(dim, method):
    for seed in _THREE_FORM_SEEDS[dim]:
        session = Session(Config(dim=dim, seed=seed, decode=method))
        printed = [run(session, s) for s in ("(+ 3 4)", "(* 3 4)")]
        printed.append(run(session, "(car (quote (a b)))"))
        assert printed == ["7", "12", "a"], seed


def test_division_without_inverse_raises(session):
    with pytest.raises(NoInverseError):
        session.eval_expr(parse_one("(/ 10 21)"))


def test_arithmetic_rejects_non_integer_operand(session):
    with pytest.raises(LispTypeError):
        session.eval_expr(parse_one("(+ 1 t)"))
    with pytest.raises(LispTypeError):
        session.eval_expr(parse_one("(* nil 2)"))


def test_negative_literals_encode_modularly(session):
    assert run(session, "(+ -1 2)") == "1"
    assert run(session, "-50") == "-50"


@pytest.mark.parametrize(
    "source, printed",
    [
        ("(+ 0 100000000000000000)", "40"),
        ("(+ 0 -100000000000000000)", "-40"),
        ("(* 2 100000000000000001)", "-23"),
        ("(+ 0 1000000000000000000000)", "-50"),
        ("(+ 0 " + "9" * 400 + ")", "24"),
    ],
)
def test_a_literal_beyond_the_range_reads_as_its_residue(session, source, printed):
    assert run(session, source) == printed


@pytest.mark.parametrize(
    "source",
    [
        "(eq? (quote int) 0)",
        "(+ (quote int) 1)",
        "(int? (quote int))",
        "(define int 1)",
        "(lambda (int) int)",
    ],
)
def test_a_program_cannot_name_the_integer_tag(session, source):
    with pytest.raises(EvalError, match="'int' names an internal entry"):
        session.eval_expr(parse_one(source))


def test_display_window_boundaries(session):
    assert session.display_int(52) == 52
    assert session.display_int(53) == -52
    assert session.display_int(104) == -1
    assert session.display_int(0) == 0


# -- pairs and predicates ----------------------------------------------


def test_car_cdr_of_cons(session):
    assert run(session, "(car (cons 1 nil))") == "1"
    assert run(session, "(cdr (cons 1 2))") == "2"


def test_constructor_selector_laws_on_random_pairs(session):
    rng = new_rng(12)
    for _ in range(20):
        a = int(rng.integers(0, 105))
        b = int(rng.integers(0, 105))
        assert run(session, f"(car (cons {a} {b}))") == str(
            session.display_int(a)
        )
        assert run(session, f"(cdr (cons {a} {b}))") == str(
            session.display_int(b)
        )


def test_car_of_non_pair_is_a_type_error(session):
    with pytest.raises(LispTypeError):
        session.eval_expr(parse_one("(car 5)"))


def test_atom_predicate(session):
    assert run(session, "(atom? 5)") == "t"
    assert run(session, "(atom? nil)") == "t"
    assert run(session, "(atom? (quote x))") == "t"
    assert run(session, "(atom? (cons 1 2))") == "f"


def test_eq_on_symbols_and_constants(session):
    assert run(session, "(eq? (quote a) (quote a))") == "t"
    assert run(session, "(eq? (quote a) (quote b))") == "f"
    assert run(session, "(eq? nil nil)") == "t"
    assert run(session, "(eq? t f)") == "f"


def test_eq_on_integers_compares_values(session):
    assert run(session, "(eq? 4 4)") == "t"
    assert run(session, "(eq? 4 5)") == "f"
    assert run(session, "(eq? 5 (+ 2 3))") == "t"
    # the range wraps, so 105 is another name for 0
    assert run(session, "(eq? 0 105)") == "t"


def test_eq_mixed_types(session):
    assert run(session, "(eq? 1 t)") == "f"
    assert run(session, "(eq? nil 0)") == "f"


def test_int_predicate_truth_table(session):
    assert run(session, "(int? 7)") == "t"
    assert run(session, "(int? 0)") == "t"
    assert run(session, "(int? t)") == "f"
    assert run(session, "(int? f)") == "f"
    assert run(session, "(int? nil)") == "f"
    assert run(session, "(int? (quote x))") == "f"
    assert run(session, "(int? (cons 1 2))") == "f"


def test_int_predicate_on_raw_random_vector(session):
    junk = random_symbol(new_rng(2), session.config.dim)
    out = session.prim_int_test(junk)
    assert session.print_value(out) == "f"


# -- special forms -----------------------------------------------------


def test_quote_returns_data_unevaluated(session):
    assert run(session, "(quote foo)") == "foo"
    assert run(session, "(quote (1 2 3))") == "(1 2 3)"
    assert run(session, "(quote (+ 1 2))") == "(+ 1 2)"


def test_quote_arity(session):
    with pytest.raises(ArityError):
        session.eval_expr(parse_one("(quote a b)"))


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_arity(session, name):
    arity = PRIMITIVES[name][0]
    for count in (arity - 1, arity + 1):
        form = "(" + " ".join([name] + ["1"] * count) + ")"
        with pytest.raises(ArityError) as exc:
            session.eval_expr(parse_one(form))
        assert str(exc.value) == f"{name} expects {arity} arguments, got {count}"


def test_cond_picks_first_truthy_clause(session):
    assert run(session, "(cond ((eq? 1 1) 10) (t 20))") == "10"
    assert run(session, "(cond ((eq? 1 2) 10) (t 20))") == "20"


def test_cond_without_match_is_nil(session):
    assert run(session, "(cond ((eq? 1 2) 10))") == "nil"


def test_cond_malformed_clause(session):
    with pytest.raises(EvalError):
        session.eval_expr(parse_one("(cond (t))"))


def test_lambda_application(session):
    assert run(session, "((lambda (x) (* x x)) 6)") == "36"


def test_lambda_of_no_arguments(session):
    assert run(session, "((lambda () 41))") == "41"


def test_lexical_scoping_through_nested_closures(session):
    assert run(session, "((lambda (x) ((lambda (y) (+ x y)) 2)) 3)") == "5"


def test_closure_captures_definition_environment(session):
    run(session, "(define make-adder (lambda (n) (lambda (x) (+ x n))))")
    run(session, "(define add3 (make-adder 3))")
    assert run(session, "(add3 4)") == "7"


def test_closure_arity_mismatch(session):
    with pytest.raises(ArityError):
        session.eval_expr(parse_one("((lambda (x y) x) 1)"))


def test_applying_a_non_closure(session):
    with pytest.raises(NotApplicableError):
        session.eval_expr(parse_one("(7 8)"))


def test_lambda_params_must_be_symbols(session):
    with pytest.raises(EvalError):
        session.eval_expr(parse_one("(lambda (1) 2)"))


def test_define_returns_the_symbol(session):
    assert run(session, "(define nine 9)") == "nine"
    assert run(session, "nine") == "9"


def test_value_read_before_a_redefinition_keeps_its_value(session):
    # arguments evaluate left to right: x is read as 1 before it is rebound
    run(session, "(define x 1)")
    run(session, "(define y (cons x (define x 2)))")
    assert run(session, "(car y)") == "1"
    assert run(session, "x") == "2"


def test_define_can_shadow_a_primitive(session):
    run(session, "(define + (lambda (a b) 42))")
    assert run(session, "(+ 1 2)") == "42"


def test_unbound_symbol(session):
    with pytest.raises(UnboundSymbolError):
        session.eval_expr(parse_one("ghost"))


def test_constants_cannot_be_redefined(session):
    for name in ("t", "f", "nil"):
        with pytest.raises(EvalError):
            session.eval_expr(parse_one(f"(define {name} 1)"))


def test_constants_cannot_be_parameters(session):
    with pytest.raises(EvalError):
        session.eval_expr(parse_one("(lambda (f) f)"))


def test_recursive_function_via_define(session):
    run(
        session,
        "(define length (lambda (l) (cond ((eq? l nil) 0)"
        " (t (+ 1 (length (cdr l)))))))",
    )
    assert run(session, "(length (quote (10 20 30 40 50)))") == "5"


def test_recursive_factorial_wraps_modularly(session):
    run(
        session,
        "(define fact (lambda (n) (cond ((eq? n 0) 1)"
        " (t (* n (fact (- n 1)))))))",
    )
    assert run(session, "(fact 4)") == "24"
    # 5! = 120 = 15 mod 105
    assert run(session, "(fact 5)") == "15"


def test_deep_recursion_is_a_typed_error_and_the_session_survives(session):
    run(
        session,
        "(define length (lambda (l) (cond ((eq? l nil) 0)"
        " (t (+ 1 (length (cdr l)))))))",
    )
    items = " ".join(f"a{i}" for i in range(160))
    with pytest.raises(RecursionDepthError) as excinfo:
        run(session, f"(length (quote ({items})))")
    assert excinfo.value.kind == "depth"
    assert run(session, "(length (quote (a b)))") == "2"


# -- printing ----------------------------------------------------------


def test_print_list_chain(session):
    assert run(session, "(cons 1 (cons 2 nil))") == "(1 2)"


def test_a_cell_that_is_its_own_tail_raises_instead_of_printing_forever(session):
    pointer = random_symbol(new_rng(8), session.config.dim)
    chunk = (
        session._role("#cons")
        + bind(session._role("#head"), session.symbol("a"))
        + bind(session._role("#tail"), pointer)
    )
    session.memory.add_chunk("cell-0", pointer, chunk)
    with _within(10), pytest.raises(EvalError, match="loops"):
        session.print_value(pointer)


def test_print_dotted_pair(session):
    assert run(session, "(cons (quote a) (quote b))") == "(a . b)"


def test_dotted_pairs_read_the_way_they_print(session):
    # A reader that took `.` for a symbol would print the first four the
    # same, as proper lists of three or four items; the cdrs below tell
    # the two readings apart.
    for source, printed in [
        ("(quote (a . b))", "(a . b)"),
        ("(quote (a b . c))", "(a b . c)"),
        ("(car (quote ((x . 1) (y . 2))))", "(x . 1)"),
        ("(quote ((a . b) . c))", "((a . b) . c)"),
        ("(cdr (quote (a . b)))", "b"),
        ("(cdr (cdr (quote (a b . c))))", "c"),
        ("(cdr (car (quote ((x . 1) (y . 2)))))", "1"),
        ("(cdr (quote ((a . b) . c)))", "c"),
        ("(quote (a . (b c)))", "(a b c)"),
        ("(quote (a . ()))", "(a)"),
        ("(eq? (cdr (quote (a . b))) (quote b))", "t"),
    ]:
        assert run(session, source) == printed, source


def test_a_call_written_with_a_list_after_its_dot_is_the_plain_call(session):
    # (+ 1 . (2)) reads as (+ 1 2), so its cells are the spine's and
    # running it again stores no entry
    assert run(session, "(+ 1 . (2))") == "3"
    rows = len(session.memory)
    assert run(session, "(+ 1 . (2))") == "3"
    assert len(session.memory) == rows


def test_a_dotted_list_in_code_position_is_not_a_call(session):
    with pytest.raises(EvalError, match="expected a proper list"):
        run(session, "(car . x)")
    with pytest.raises(EvalError, match="expected a proper list"):
        run(session, "(lambda (x . y) x)")


def test_a_lone_dot_is_no_symbol(session):
    with pytest.raises(ParseError):
        list(session.eval_source("(quote .)"))
    assert "." not in session.memory


def test_print_closure(session):
    assert run(session, "(lambda (x) x)") == "#<lambda>"


def test_printing_deep_nesting_is_a_typed_error_and_the_session_survives(session):
    depth = 600
    value = session.eval_expr(
        parse_one("(quote " + "(" * depth + "a" + ")" * depth + ")")
    )
    with pytest.raises(RecursionDepthError):
        session.print_value(value)
    assert run(session, "(car (quote (a b)))") == "a"


def test_print_unknown_vector(session):
    junk = random_symbol(new_rng(3), session.config.dim)
    out = session.print_value(junk)
    assert out.startswith("#<vector sim=")


def test_print_raw_integer_mode(session):
    session.display_raw = True
    try:
        assert run(session, "(- 2 3)") == "104"
    finally:
        session.display_raw = False
    assert run(session, "(- 2 3)") == "-1"


def test_eval_source_yields_one_line_per_form(session):
    lines = list(session.eval_source("(define two 2)\n(+ two two)\n"))
    assert lines == ["two", "4"]


# -- determinism and persistence ---------------------------------------


def test_same_program_identical_output_in_fresh_sessions():
    source = (
        "(define square (lambda (x) (* x x)))\n"
        "(square 7)\n"
        "(cons 1 (cons 2 nil))\n"
    )
    a = list(Session().eval_source(source))
    b = list(Session().eval_source(source))
    assert a == b


def test_sessions_with_different_seeds_agree_on_results():
    a = list(Session(Config(seed=1)).eval_source("(+ 40 50)"))
    b = list(Session(Config(seed=2)).eval_source("(+ 40 50)"))
    assert a == b == ["-15"]


def test_exhaustive_decode_config(session):
    s = Session(Config(decode="exhaustive"))
    assert list(s.eval_source("(+ 2 3)")) == ["5"]


#: seven form shapes over operands a and b, with the integer each prints
_FOUR_MODULI_SHAPES = (
    ("{a}", lambda a, b: a),
    ("(quote {a})", lambda a, b: a),
    ("(+ {a} {b})", lambda a, b: a + b),
    ("(- {a} {b})", lambda a, b: a - b),
    ("(* {a} {s})", lambda a, b: a * (b % 7 + 2)),
    ("(car (cons {a} {b}))", lambda a, b: a),
    ("((lambda (y) (+ y {b})) {a})", lambda a, b: a + b),
)


def test_exhaustive_decoding_reads_every_form_at_four_moduli():
    # R = 46,189: the one FFT scores every code without a code table, and
    # chunk crosstalk misreads none of the 105 forms (the resonator
    # misreads about four in ten of them)
    moduli = (11, 13, 17, 19)
    r = math.prod(moduli)
    session = Session(Config(moduli=moduli, decode="exhaustive"))
    rng = np.random.default_rng(11)
    wrong = []
    with _within(10):
        for source, value in _FOUR_MODULI_SHAPES:
            for _ in range(15):
                a, b = (int(v) for v in rng.integers(-(r // 2), r // 2, size=2))
                form = source.format(a=a, b=b, s=b % 7 + 2)
                try:
                    printed = list(session.eval_source(form))
                except PhasorError as exc:
                    printed = [f"{type(exc).__name__}: {exc}"]
                if printed != [str(session.display_int(value(a, b) % r))]:
                    wrong.append((form, printed))
    assert wrong == []


def test_save_restore_roundtrip(session, tmp_path):
    for form in parse_program(
        "(define square (lambda (x) (* x x)))"
        "(define pair (cons 1 (cons 2 nil)))"
    ):
        session.eval_expr(form)
    path = tmp_path / "dump.vls"
    session.save(path)

    other = Session.restore(path)
    assert run(other, "(square 7)") == "49"
    assert run(other, "(car pair)") == "1"
    assert run(other, "(cdr pair)") == "(2)"
    assert np.array_equal(other.symbol("t"), session.symbol("t"))
    assert np.array_equal(other.codebook.phases, session.codebook.phases)


def test_restored_session_keeps_defining(session, tmp_path):
    run(session, "(define a (cons 1 2))")
    run(session, "(define make-adder (lambda (n) (lambda (x) (+ x n))))")
    run(session, "(define add1 (make-adder 1))")
    path = tmp_path / "dump.vls"
    session.save(path)
    other = Session.restore(path)
    run(other, "(define b (cons 3 4))")
    assert run(other, "(car a)") == "1"
    assert run(other, "(car b)") == "3"
    # a closure over a new scope mints the next closure- and env- names
    run(other, "(define add3 (make-adder 3))")
    assert run(other, "(add3 4)") == "7"
    assert run(other, "(add1 4)") == "5"
    assert other.memory.names(kind="env") == ["env-0", "env-1", "env-2"]
    assert "closure-2" in other.memory


def test_a_restored_session_names_cells_as_the_live_one_does(session):
    # a user symbol that looks like a cell name does not move the counter
    assert run(session, "(quote cell-40)") == "cell-40"
    buf = io.BytesIO()
    session.save(buf)
    other = Session.restore(io.BytesIO(buf.getvalue()))
    for s in (session, other):
        # the source's own cells are code- cells, not cell- ones
        assert run(s, "(cons 1 2)") == "(1 . 2)"
        with pytest.raises(EvalError, match="'cell-0' names an internal entry"):
            run(s, "(quote cell-0)")
    # both mint the same next cell, closure and env names
    rows = len(session.memory)
    assert len(other.memory) == rows
    for s in (session, other):
        run(s, "(define k ((lambda (x) (lambda (y) x)) 1))")
    minted = session.memory.names()[rows:]
    assert other.memory.names()[rows:] == minted
    assert {n.partition("-")[0] for n in minted} >= {"cell", "closure", "env"}


def test_memory_size_holds_while_one_form_repeats(session):
    # each form takes the spine cells again, so memory keeps only what
    # values refer to: here, after the first call, nothing new
    run(session, "(define sq (lambda (x) (* x x)))")
    assert run(session, "(sq (+ 1 2))") == "9"
    size = len(session.memory)
    for _ in range(199):
        assert run(session, "(sq (+ 1 2))") == "9"
        assert len(session.memory) == size


def test_restore_rejects_a_binding_ahead_of_its_scope(session):
    # n is bound in env-1, the scope of the call that made add3
    run(session, "(define add3 ((lambda (n) (lambda (x) (+ x n))) 3))")
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    key = b"bind:env-1:n"
    start = data.index(key) - 4
    entry = data[start:start + 4 + len(key) + 16 * session.config.dim]
    # the header: magic, dim, modulus count, 3 moduli, seed, draw counter
    # and entry count; the entry table starts with the rows
    first = 4 + 8 + 4 * 3 + 8 + 8 + 4
    assert data[first + 4:first + 12] == b"pointer:"
    moved = data[:first] + entry + data[first:start] + data[start + len(entry):]
    assert len(moved) == len(data)
    with pytest.raises(SessionIOError):
        Session.restore(io.BytesIO(moved))


def test_save_to_buffer(session):
    run(session, "(define x 5)")
    buf = io.BytesIO()
    session.save(buf)
    other = Session.restore(io.BytesIO(buf.getvalue()))
    assert run(other, "x") == "5"


def test_save_restore_save_is_byte_identical(session):
    # a closure capturing its call frame, a call, and a nested quoted list
    list(
        session.eval_source(
            "(define make-adder (lambda (n) (lambda (x) (+ x n))))"
            "(define add3 (make-adder 3))"
            "(define xs (quote (a (b 2) c)))"
            "(add3 4)"
            "(car (cdr xs))"
        )
    )
    first = io.BytesIO()
    session.save(first)
    second = io.BytesIO()
    Session.restore(io.BytesIO(first.getvalue())).save(second)
    assert second.getvalue() == first.getvalue()


def test_restore_rejects_a_role_row_that_save_never_writes(session):
    # every role is a bootstrap entry, which the key makes
    run(session, "(quote zz)")
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    assert data.count(b"symbol:zz") == 1
    # a name of the same length, so the entry's length prefix still holds
    data = data.replace(b"symbol:zz", b"role:zzzz")
    with pytest.raises(SessionIOError, match="unknown session entry 'role:zzzz'"):
        Session.restore(io.BytesIO(data))


def test_restore_rejects_a_reference_to_a_missing_scope(session):
    run(session, "(define add3 ((lambda (n) (lambda (x) (+ x n))) 3))")
    buf = io.BytesIO()
    session.save(buf)
    good = b"parent:env-1:env-0"
    data = buf.getvalue()
    assert data.count(good) == 1
    data = data.replace(good, b"parent:env-1:env-9")
    with pytest.raises(SessionIOError):
        Session.restore(io.BytesIO(data))


def test_restore_rejects_a_parent_link_that_closes_a_loop_of_scopes(session):
    # a scope that is its own parent: a lookup of an unbound name, such as
    # a primitive's, would walk the loop for ever
    run(session, "(define add3 ((lambda (n) (lambda (x) (+ x n))) 3))")
    buf = io.BytesIO()
    session.save(buf)
    good = b"parent:env-1:env-0"
    data = buf.getvalue()
    assert data.count(good) == 1
    data = data.replace(good, b"parent:env-1:env-1")
    with _within(10), pytest.raises(SessionIOError, match="loop of scopes"):
        Session.restore(io.BytesIO(data))


def test_save_rejects_a_seed_past_64_bits():
    session = Session(Config(dim=64, seed=1 << 64))
    with pytest.raises(SessionIOError, match="u64 seed"):
        session.save(io.BytesIO())


@pytest.mark.parametrize("drawn", [0, 10])
def test_restore_rejects_a_draw_counter_below_the_bootstrap_draws(session, drawn):
    # unchecked, the next fresh symbol would take a bootstrap row: at 10,
    # the global scope's handle
    buf = io.BytesIO()
    session.save(buf)
    data = bytearray(buf.getvalue())
    counter = 4 + 8 + 4 * 3 + 8  # past the magic, dim, count, moduli, seed
    assert struct.unpack_from("<Q", data, counter) == (11,)
    struct.pack_into("<Q", data, counter, drawn)
    with pytest.raises(SessionIOError, match="bootstrap draws"):
        Session.restore(io.BytesIO(bytes(data)))


@pytest.mark.parametrize(
    "entry, index, value",
    [
        # within float32 range: unbounded, the first makes xs print as (c)
        # and the second overflows a float32 score when xs prints
        (b"bind:env-0:xs", 0, 8.6e37),
        (b"chunk:cell-4", 459, 1.7e38),
        # just past each bound
        (b"bind:env-0:ys", 0, 2.01),
        (b"chunk:cell-0", 0, 5.01),
    ],
)
def test_restore_rejects_a_binding_or_chunk_beyond_its_bound(
    fast_session, entry, index, value
):
    list(fast_session.eval_source(
        "(define xs (quote (a 2 (b c))))(define ys (quote (a b c d)))"
    ))
    buf = io.BytesIO()
    fast_session.save(buf)
    data = bytearray(buf.getvalue())
    key = struct.pack("<I", len(entry)) + entry
    assert data.count(key) == 1
    at = data.index(key) + len(key) + 8 * index
    data[at:at + 8] = struct.pack("<d", value)
    with pytest.raises(SessionIOError, match="beyond modulus"):
        Session.restore(io.BytesIO(bytes(data)))


def test_the_widest_bindings_and_chunks_restore_as_they_were(session):
    # both parts of a pair and a closure's body may be integers, each a
    # code plus the tag, and a binding may be one
    run(session, "(define p (cons 1 2))")
    run(session, "(define k (lambda (x) 5))")
    run(session, "(define n 7)")
    buf = io.BytesIO()
    session.save(buf)
    other = Session.restore(io.BytesIO(buf.getvalue()))
    forms = ("p", "(k 1)", "n", "k")
    expected = ["(1 . 2)", "5", "7", "#<lambda>"]
    assert [run(s, form) for s in (session, other) for form in forms] == expected * 2


def test_restore_rejects_a_pointer_without_its_chunk(session):
    run(session, "(define xs (quote (a b)))")
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    assert data.count(b"chunk:cell-0") == 1
    # same length, so the length prefix stays valid
    data = data.replace(b"chunk:cell-0", b"bind:env-0:q")
    with pytest.raises(SessionIOError):
        Session.restore(io.BytesIO(data))


# -- config validation -------------------------------------------------


def test_config_rejects_bad_theta():
    with pytest.raises(Exception):
        Config(theta=0.0)
    with pytest.raises(Exception):
        Config(theta=1.5)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError):
        Config(seed=-1)
    assert Config(seed=0).seed == 0


def test_config_rejects_unknown_decode_method():
    with pytest.raises(Exception):
        Config(decode="psychic")


def test_config_range(session):
    assert session.config.moduli == (3, 5, 7)
    assert math.prod(session.config.moduli) == 105

