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
    MemoryEmptyError,
    NoMatchError,
    PhasorError,
    RecallResult,
    Session,
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
        sims = self._sims(v, row)[1]
        return float(sims.max()) if len(sims) else -math.inf


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


def _run(cls, sources, check, after_form=None):
    """Transcript, saved bytes, and the check form on the restored copy."""
    session = cls()
    printed = _transcript(session, sources, after_form)
    buf = io.BytesIO()
    session.save(buf)
    restored = cls.restore(io.BytesIO(buf.getvalue()))
    return printed, buf.getvalue(), _transcript(restored, [check])


def _leftovers(session):
    """What a finished form left behind: live segment rows, a scan past the
    main rows that finds any row, and names the memos hold that memory
    does not."""
    memory = session.memory
    named = [
        n for (owner, _), (r, *_) in session._readings.items()
        for n in (owner, r.name)
    ]
    named += [r.name for r, *_ in session._values.values()]
    probe = memory.vector("t")
    return (
        len(memory) - memory.main_rows,
        memory.best_since(probe, memory.main_rows) != -math.inf,
        sorted({n for n in named if n is not None and n not in memory}),
    )


@functools.cache
def _reference(sources, check):
    """``_run(Session, ...)`` once per case, shared by the differential
    tests, with ``_leftovers`` after each form."""
    leftovers = []
    run = _run(Session, sources, check, lambda s: leftovers.append(_leftovers(s)))
    return run, leftovers


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
    assert [(i, x) for i, x in enumerate(leftovers) if x != (0, False, [])] == []


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
