"""Addition cost comparison: residue codes versus nested-list numerals.

A residue-coded sum is one Hadamard product regardless of operand size.
The structural alternative represents x as the x-fold nesting
cons(nil, cons(nil, ... nil)) and adds by peeling one level off y while
wrapping one around x, paying memory retrievals proportional to the
operand magnitude.  The benchmark times both, checks every sum decodes
correctly before timing, and reports medians suitable for CSV and
gnuplot consumption.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import ConfigError, LispTypeError
from .lisp import Config, Session
from .residue import add_bind, decode_residue, encode_residue

__all__ = [
    "DEFAULT_MAGNITUDES",
    "BenchResult",
    "list_encode",
    "list_decode",
    "list_add",
    "run_benchmark",
    "write_csv",
    "write_plot_data",
    "growth_exponent",
    "flatness_ratio",
]

DEFAULT_MAGNITUDES = (5, 10, 20, 50, 100)

#: timed residue additions folded into one repetition.  The op is
#: sub-microsecond, so a single call would mostly measure the clock; list
#: addition is slow enough to time one call at a time.
_RHC_INNER = 100


@dataclass(frozen=True)
class BenchResult:
    """Median wall time for one encoding at one operand magnitude."""

    encoding: str
    magnitude: int
    median_ns: int
    reps: int
    dimension: int


def list_encode(session: Session, x: int) -> np.ndarray:
    """x as the x-fold nesting of cons(nil, .) applied to nil."""
    if x < 0:
        raise LispTypeError(f"list encoding covers nonnegative integers, got {x}")
    nil = session.symbol("nil")
    v = nil
    for _ in range(x):
        v = session.cons(nil, v)
    return v


def list_decode(session: Session, v: np.ndarray) -> int:
    """Count the nesting depth back to nil."""
    count = 0
    while not session.is_nil(v):
        v = session.cdr(v)
        count += 1
    return count


def list_add(session: Session, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Add by structural recursion: peel y, wrap x, until y is nil.

    The recursion is a tail call, run as a loop so that no magnitude
    exhausts the host stack.
    """
    nil = session.symbol("nil")
    while not session.is_nil(y):
        x, y = session.cons(nil, x), session.cdr(y)
    return x


def _median_ns(samples: list[float]) -> int:
    return int(round(statistics.median(samples)))


def run_benchmark(
    magnitudes: Sequence[int] = DEFAULT_MAGNITUDES,
    reps: int = 20,
    config: Config | None = None,
) -> list[BenchResult]:
    """Time n + n under both encodings for each magnitude n.

    Every sum is decoded and checked against the arithmetic oracle before
    its timing runs.  The list encoding gets a fresh session per
    repetition so accumulated cons cells from earlier repetitions cannot
    slow later ones; the residue op touches no memory, so one codebook
    serves all magnitudes.
    """
    if reps < 5:
        raise ConfigError(f"benchmark needs at least 5 repetitions, got {reps}")
    # the growth exponent is a log-log fit: it needs two distinct points
    if len(set(magnitudes)) < 2 or min(magnitudes) < 1:
        raise ConfigError(
            f"benchmark needs two distinct magnitudes, each at least 1, "
            f"got {list(magnitudes)}"
        )
    cfg = config if config is not None else Config()
    results: list[BenchResult] = []

    rhc_session = Session(cfg)
    cb = rhc_session.codebook
    modulus_range = rhc_session.moduli.range
    for n in magnitudes:
        u = encode_residue(cb, n)
        got = decode_residue(cb, add_bind(u, u), method=cfg.decode)
        if got != (2 * n) % modulus_range:
            raise RuntimeError(
                f"residue benchmark add decoded to {got}, "
                f"expected {(2 * n) % modulus_range}"
            )
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(_RHC_INNER):
                add_bind(u, u)
            t1 = time.perf_counter_ns()
            samples.append((t1 - t0) / _RHC_INNER)
        results.append(BenchResult("rhc", n, _median_ns(samples), reps, cfg.dim))

    for n in magnitudes:
        check = Session(cfg)
        total = list_decode(check, list_add(check, list_encode(check, n), list_encode(check, n)))
        if total != 2 * n:
            raise RuntimeError(
                f"list benchmark add decoded to {total}, expected {2 * n}"
            )
        samples = []
        for _ in range(reps):
            session = Session(cfg)
            a = list_encode(session, n)
            b = list_encode(session, n)
            t0 = time.perf_counter_ns()
            list_add(session, a, b)
            t1 = time.perf_counter_ns()
            samples.append(float(t1 - t0))
        results.append(BenchResult("list", n, _median_ns(samples), reps, cfg.dim))
    return results


def write_csv(results: Sequence[BenchResult], dest: IO[str] | str | Path) -> None:
    """Rows of encoding,magnitude,median_ns,reps,dimension."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            write_csv(results, fh)
        return
    dest.write("encoding,magnitude,median_ns,reps,dimension\n")
    for r in results:
        dest.write(
            f"{r.encoding},{r.magnitude},{r.median_ns},{r.reps},{r.dimension}\n"
        )


def write_plot_data(results: Sequence[BenchResult], prefix: str | Path) -> list[Path]:
    """Two-column magnitude/median files, one per encoding, for gnuplot."""
    prefix = Path(prefix)
    written = []
    for encoding in ("rhc", "list"):
        rows = [r for r in results if r.encoding == encoding]
        if not rows:
            continue
        path = prefix.parent / f"{prefix.name}_{encoding}.dat"
        with open(path, "w") as fh:
            for r in sorted(rows, key=lambda r: r.magnitude):
                fh.write(f"{r.magnitude} {r.median_ns}\n")
        written.append(path)
    return written


def _select(results: Sequence[BenchResult], encoding: str) -> list[BenchResult]:
    rows = [r for r in results if r.encoding == encoding]
    if not rows:
        raise ValueError(f"no {encoding!r} rows in results")
    return rows


def growth_exponent(results: Sequence[BenchResult], encoding: str = "list") -> float:
    """Least-squares slope of log median time against log magnitude."""
    rows = _select(results, encoding)
    xs = np.log([r.magnitude for r in rows])
    ys = np.log([max(r.median_ns, 1) for r in rows])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def flatness_ratio(results: Sequence[BenchResult], encoding: str = "rhc") -> float:
    """Max over min of the medians: 1.0 means perfectly magnitude-blind."""
    rows = _select(results, encoding)
    meds = [r.median_ns for r in rows]
    return max(meds) / min(meds)
