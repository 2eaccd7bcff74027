"""Whole sessions from the benchmark's workload plans.

``perfbench/workloads.py`` computes each form's expected output without
phasorlisp, so a plan doubles as a reference transcript.
"""

import io
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
    rows and never rescores, so it shares no scan code with the memory.
    """

    def __init__(self, dim):
        super().__init__(dim)
        self._all = np.zeros((64, dim), dtype=np.complex128)

    def add(self, name, v, kind="symbol"):
        n = len(self)
        super().add(name, v, kind=kind)
        if n == len(self._all):
            self._all = np.concatenate([self._all, np.zeros_like(self._all)])
        self._all[n] = v

    def _sims(self, v, row):
        return similarities(self._all[row:len(self)], v)

    def recall(self, v):
        self.recalls += 1
        if not len(self):
            raise MemoryEmptyError("memory is empty")
        sims = self._sims(v, 0)
        best = int(np.argmax(sims))
        name = self.names()[best]
        if sims[best] < self.floor:
            raise NoMatchError(f"best match {name!r} is below the floor")
        return RecallResult(
            name, self.vector(name), float(sims[best]), self.kind(name)
        )

    def best_since(self, v, row):
        return float(self._sims(v, row).max())


class Float64Recall(Session):
    """A session whose memory scans in float64 only."""

    def _setup(self, config, codebook, rng):
        super()._setup(config, codebook, rng)
        self.memory = Float64Memory(config.dim)


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


def _transcript(session, sources):
    out = []
    for source in sources:
        try:
            out.extend(session.eval_source(source))
        except PhasorError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _run(cls, sources, check):
    """Transcript, saved bytes, and the check form on the restored copy."""
    session = cls()
    printed = _transcript(session, sources)
    buf = io.BytesIO()
    session.save(buf)
    restored = cls.restore(io.BytesIO(buf.getvalue()))
    return printed, buf.getvalue(), _transcript(restored, [check])


def _plan_sources(workload):
    plan = WORKLOADS[workload].plan(1, 0)
    return [f.source for f in plan.forms], plan.check.source


_CASES = [
    pytest.param(ACCEPTANCE, "(length xs)", id="acceptance"),
    *(pytest.param(*_plan_sources(w), id=w) for w in ("programs", "lists", "repl")),
]


@pytest.mark.parametrize("sources, check", _CASES)
def test_memo_leaves_transcripts_and_session_files_unchanged(sources, check):
    assert _run(Session, sources, check) == _run(Unmemoized, sources, check)


@pytest.mark.parametrize("sources, check", _CASES)
def test_complex64_scan_matches_a_float64_scan(sources, check):
    assert _run(Session, sources, check) == _run(Float64Recall, sources, check)


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
