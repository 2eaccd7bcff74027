"""Parity check: digest whole sessions of the benchmark's workload plans.

For plans 0-2 at seeds 1-3 of each workload, at each dimension, runs
every form in a fresh session, saves it, restores the file and evaluates
the plan's check form on the copy.  It prints one line per workload and
dimension: a sha256 over the transcripts, the saved bytes and the
restored check output, and the count of forms (check forms included)
that printed other than the plan expects.  At dim 1000 sessions use the
default ``Config``; at any other dim, ``Config(dim=dim, seed=plan seed)``.

Two trees that print the same digest ran the same sessions byte for
byte.  Run it from the repository root, on each tree to compare::

    PYTHONPATH=src python3 tests/parity.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from phasorlisp import Config, PhasorError, Session  # noqa: E402

DIMS = (1000, 384, 256, 192, 128)
PLANS = range(3)
SEEDS = range(1, 4)


def _printed(session: Session, source: str) -> str:
    try:
        return "\n".join(session.eval_source(source))
    except PhasorError as exc:
        return f"{type(exc).__name__}: {exc}"


def session_record(workload: str, seed: int, index: int, dim: int):
    """Bytes that stand for one whole session, and its wrong and total forms."""
    plan = WORKLOADS[workload].plan(seed, index)
    config = Config() if dim == 1000 else Config(dim=dim, seed=seed)
    session = Session(config)
    printed = [_printed(session, f.source) for f in plan.forms]
    buf = io.BytesIO()
    session.save(buf)
    restored = Session.restore(io.BytesIO(buf.getvalue()), config)
    checked = _printed(restored, plan.check.source)
    expected = [f.expected for f in plan.forms] + [plan.check.expected]
    wrong = sum(a != b for a, b in zip(printed + [checked], expected))
    text = "\n".join(printed).encode("utf-8")
    record = b"".join(
        len(part).to_bytes(8, "little") + part
        for part in (text, buf.getvalue(), checked.encode("utf-8"))
    )
    return record, wrong, len(expected)


def main() -> None:
    for dim in DIMS:
        for workload in WORKLOADS:
            digest = hashlib.sha256()
            wrong = total = 0
            for seed in SEEDS:
                for index in PLANS:
                    record, w, n = session_record(workload, seed, index, dim)
                    digest.update(record)
                    wrong += w
                    total += n
            print(
                f"dim {dim:4d}  {workload:8s}  {digest.hexdigest()}  "
                f"wrong {wrong} of {total}",
                flush=True,
            )


if __name__ == "__main__":
    main()
