"""Whole sessions from the benchmark's workload plans.

``perfbench/workloads.py`` computes each form's expected output without
phasorlisp, so a plan doubles as a reference transcript.
"""

import functools
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402

from phasorlisp import (  # noqa: E402
    CleanupMemory,
    Config,
    MemoryEmptyError,
    NoMatchError,
    PhasorError,
    RecallResult,
    Session,
    random_symbol,
    unbind,
)
from phasorlisp.fhrr import similarities  # noqa: E402


class _Forgetful(dict):
    """A memo that never keeps what it is given."""

    def __setitem__(self, key, value):
        pass


class Unmemoized(Session):
    """Resolves and decodes everything afresh, as without memos."""

    def _setup(self, config, codebook, rng):
        super()._setup(config, codebook, rng)
        codebook._decoded = _Forgetful()

    def _unbind_role(self, r, role):
        return self.resolve(unbind(self.memory.chunk(r.name), self._role(role)))

    def _resolve_value(self, v):
        return self.resolve(v)


class Float64Memory(CleanupMemory):
    """Recall by scoring every complex128 row in one float64 product.

    The reference for the complex64 scan: it keeps its own copy of the
    rows, the main ones and then the segment's in the order they came, and
    never rescores, so it shares no scan code with the memory.
    """

    def __init__(self, dim):
        super().__init__(dim)
        self._main = np.zeros((64, dim), dtype=np.complex128)
        self._main_names = []
        self._segment = []  # (name, vector) in the order they came

    def add(self, name, v, kind="symbol", segment=False):
        super().add(name, v, kind=kind, segment=segment)
        if segment:
            self._segment.append((name, np.array(v)))
            return
        n = len(self._main_names)
        if n == len(self._main):
            self._main = np.concatenate([self._main, np.zeros_like(self._main)])
        self._main[n] = v
        self._main_names.append(name)

    def drop_segment(self):
        super().drop_segment()
        self._segment.clear()

    def _sims(self, v, row):
        """Names and similarities of the main rows from ``row`` on, then
        of the segment's rows."""
        names = self._main_names[row:] + [n for n, _ in self._segment]
        rows = np.concatenate(
            [self._main[row:len(self._main_names)]]
            + [u[None] for _, u in self._segment]
        )
        return names, similarities(rows, v)

    def recall(self, v):
        self.recalls += 1
        if not len(self):
            raise MemoryEmptyError("memory is empty")
        names, sims = self._sims(v, 0)
        best = int(np.argmax(sims))
        name = names[best]
        if sims[best] < self.floor:
            raise NoMatchError(f"best match {name!r} is below the floor")
        return RecallResult(
            name, self.vector(name), float(sims[best]), self.kind(name)
        )

    def best_since(self, v, row):
        names, sims = self._sims(v, row)
        if not len(sims):
            return None, -math.inf
        best = int(np.argmax(sims))
        return names[best], float(sims[best])


class Float64Recall(Session):
    """A session whose memory scans in float64 only."""

    def _setup(self, config, codebook, rng):
        super()._setup(config, codebook, rng)
        self.memory = Float64Memory(config.dim)


class SpineKept(Session):
    """Keeps each form's own cells in main memory, as cell- entries,
    as sessions did before the spine was retired at the end of a form."""

    def _encode_code(self, expr):
        return self.encode(expr)


class FreshSpine(Session):
    """Draws every spine pointer afresh from the session's generator, as
    sessions did before spine pointers were pooled."""

    def _spine_pointer(self, name):
        return random_symbol(self.rng, self.config.dim)


class Verified(Session):
    """Checks every answer of the memos against a fresh ``resolve``."""

    def _memoized_resolve(self, memo, key, vector):
        out = super()._memoized_resolve(memo, key, vector)
        fresh = self.resolve(vector())
        assert (out.kind, out.name, out.value, out.similarity) == (
            fresh.kind, fresh.name, fresh.value, fresh.similarity
        )
        assert out.vector.tobytes() == fresh.vector.tobytes()
        return out


ACCEPTANCE = (
    "(car (cons 1 nil))",
    "((lambda (x) (* x x)) 6)",
    "((lambda (x) ((lambda (y) (+ x y)) 2)) 3)",
    "(define length (lambda (l) (cond ((eq? l nil) 0)"
    " (t (+ 1 (length (cdr l)))))))",
    "(length (quote (1 2 3 4 5)))",
    "(cons 1 (cons 2 (cons 3 nil)))",
    "(define fact (lambda (n) (cond ((eq? n 0) 1)"
    " (t (* n (fact (- n 1)))))))",
    "(fact 4)",
    "(fact 5)",
    "(define xs (quote (a (b 2) c)))",
    "(car (cdr xs))",
    "(cons (quote a) (quote b))",
    "(/ 44 4)",
    "(car 1)",
    "((lambda (x y) x) 1)",
)


def _transcript(session, sources, after_form=None):
    out = []
    for source in sources:
        try:
            out.extend(session.eval_source(source))
        except PhasorError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
        if after_form is not None:
            after_form(session)
    return out


def _run(cls, sources, check, after_form=None, config=None):
    """Transcript, saved bytes, and the check form on the restored copy."""
    session = cls(config)
    printed = _transcript(session, sources, after_form)
    buf = io.BytesIO()
    session.save(buf)
    restored = cls.restore(io.BytesIO(buf.getvalue()))
    return printed, buf.getvalue(), _transcript(restored, [check])


def _leftovers(session):
    """What a finished form left behind: live segment rows, and a scan
    past the main rows that finds any row."""
    memory = session.memory
    probe = memory.vector("t")
    return (
        len(memory) - memory.main_rows,
        memory.best_since(probe, memory.main_rows)[1] != -math.inf,
    )


@functools.cache
def _reference(sources, check):
    """``_run(Session, ...)`` once per case, shared by the differential
    tests, with ``_leftovers`` after each form and the session's recalls
    after the last."""
    leftovers, recalls = [], []

    def after_form(session):
        leftovers.append(_leftovers(session))
        recalls.append(session.memory.recalls)

    run = _run(Session, sources, check, after_form)
    return run, leftovers, recalls[-1]


def _plan_sources(workload):
    plan = WORKLOADS[workload].plan(1, 0)
    return tuple(f.source for f in plan.forms), plan.check.source


_CASES = [
    pytest.param(ACCEPTANCE, "(length xs)", id="acceptance"),
    *(pytest.param(*_plan_sources(w), id=w) for w in ("programs", "lists", "repl")),
]


@pytest.mark.parametrize("sources, check", _CASES)
def test_memo_leaves_transcripts_and_session_files_unchanged(sources, check):
    assert _reference(sources, check)[0] == _run(Unmemoized, sources, check)


@pytest.mark.parametrize("sources, check", _CASES)
def test_complex64_scan_matches_a_float64_scan(sources, check):
    assert _reference(sources, check)[0] == _run(Float64Recall, sources, check)


def test_complex64_scan_matches_a_float64_scan_at_dim_256():
    # At dim 256 about half of the recalls cannot stop after the first
    # half of the scan rows, so both of recall's paths run.
    sources, check = _plan_sources("programs")
    config = Config(dim=256)
    assert _run(Session, sources, check, config=config) == _run(
        Float64Recall, sources, check, config=config
    )


@pytest.mark.parametrize("sources, check", _CASES)
def test_retiring_the_spine_leaves_transcripts_unchanged(sources, check):
    printed, _, checked = _reference(sources, check)[0]
    kept, kept_file, kept_checked = _run(SpineKept, sources, check)
    assert (kept, kept_checked) == (printed, checked)
    # a file that holds the spine, as older sessions saved it, restores
    restored = Session.restore(io.BytesIO(kept_file))
    assert _transcript(restored, [check]) == checked


@pytest.mark.parametrize("sources, check", _CASES)
def test_no_segment_row_or_stale_reading_outlives_its_form(sources, check):
    leftovers = _reference(sources, check)[1]
    assert len(leftovers) == len(sources)
    assert [(i, x) for i, x in enumerate(leftovers) if x != (0, False)] == []


@pytest.mark.parametrize("dim", [1000, 384, 256])
@pytest.mark.parametrize("sources, check", _CASES)
def test_every_memo_answer_equals_a_fresh_resolve(sources, check, dim):
    # Verified asserts it on every answer, hits across forms included; the
    # memos, spine readings among them, change no output either.
    if dim == 1000:
        expected = _reference(sources, check)[0]
    else:
        expected = _run(Session, sources, check, config=Config(dim=dim))
    assert _run(Verified, sources, check, config=Config(dim=dim)) == expected


def test_a_spine_hit_reads_its_cell_from_the_current_chunk():
    # At theta 0.99 a spine chunk's tag clears theta about half the time,
    # so its cell reads as cons in one form and as a bare pointer in the
    # next, under the same pooled pointer.
    sources = [f"({op} (quote (s{i})))" for i in range(12) for op in ("car", "cdr")]
    for seed in range(3):
        _transcript(Verified(Config(theta=0.99, seed=seed)), sources)


@pytest.mark.parametrize("sources, check", _CASES)
def test_pooled_spine_pointers_leave_sessions_unchanged(sources, check):
    # The pool advances the generator past each draw it skips, so every
    # vector that outlives a form, and so every saved byte, is as before.
    assert _reference(sources, check)[0] == _run(FreshSpine, sources, check)


@pytest.mark.parametrize("dim", [16, 64, 128, 256, 1000])
@pytest.mark.parametrize("source", ["(+ 1 2)", "((lambda (x) (* x x)) 6)"])
def test_a_one_form_script_is_unchanged_by_the_pool_at_any_dim(source, dim):
    # The first form draws every pointer it pools, so it runs as before
    # even where crosstalk misreads it.
    for moduli in ((3, 5, 7), (31, 37, 41)):
        config = Config(dim=dim, moduli=moduli)
        assert _run(Session, [source], source, config=config) == _run(
            FreshSpine, [source], source, config=config
        )


def test_repeated_spines_keep_repl_recalls_down():
    # 3,142 recalls before spine readings outlived their form
    sources, check = _plan_sources("repl")
    assert _reference(sources, check)[2] <= 2100


def test_repl_seed_2010_reads_the_right_integer():
    # The resonator's default start settles on 98 here, whose re-encode
    # check (0.119) clears the 0.1 floor; a restart finds 102 at 1.05.
    plan = WORKLOADS["repl"].plan(2010, 0)
    session = Session()
    for form in plan.forms[:52]:
        assert list(session.eval_source(form.source)) == [form.expected]
    form = plan.forms[52]
    assert form.source == "(cdr d23)"
    assert list(session.eval_source(form.source)) == ["(-3 s6)"]
