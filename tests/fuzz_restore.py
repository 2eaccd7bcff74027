"""Fuzz ``Session.restore``, and evaluate forms on what it restores.

Saves a dim-256 session, then restores mutated copies of the file: each
has 1-4 bytes replaced, and a fifth of them are also cut short.  After
each restore that succeeds it evaluates ``xs``, ``(sq 3)`` and
``(add3 4)``, with ``RuntimeWarning`` raised as an error.  Only a
``PhasorError`` may come out of a restore or a form; the script prints
one JSON line with every other exception (what escaped) and the slowest
case, and exits 1 if anything escaped.  It asserts nothing about the
printed text, since a mutated name can unbind ``xs``.  Run it from the
repository root with the seed of the mutations and the number of cases::

    PYTHONPATH=src python3 tests/fuzz_restore.py 1 300

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
import warnings

from phasorlisp import Config, PhasorError, Session

SOURCE = (
    "(define xs (quote (a 2 (b c))))"
    "(define sq (lambda (x) (* x x)))"
    "(define add (lambda (n) (lambda (x) (+ x n))))"
    "(define add3 (add 3))"
)
FORMS = ("xs", "(sq 3)", "(add3 4)")


def _mutate(data: bytes, rng: random.Random) -> bytes:
    mutated = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        mutated[rng.randrange(len(mutated))] = rng.randrange(256)
    if rng.random() < 0.2:
        del mutated[rng.randrange(len(mutated)):]
    return bytes(mutated)


def _restore_and_evaluate(data: bytes) -> None:
    try:
        session = Session.restore(io.BytesIO(data))
    except PhasorError:
        return
    for form in FORMS:
        try:
            list(session.eval_source(form))
        except PhasorError:
            pass


def main(seed: int, cases: int) -> int:
    warnings.simplefilter("error", RuntimeWarning)
    session = Session(Config(dim=256))
    list(session.eval_source(SOURCE))
    buf = io.BytesIO()
    session.save(buf)
    data = buf.getvalue()
    rng = random.Random(seed)
    escaped = []
    slowest, slowest_case = 0.0, None
    for case in range(cases):
        mutated = _mutate(data, rng)
        start = time.perf_counter()
        try:
            _restore_and_evaluate(mutated)
        except Exception as exc:
            escaped.append(f"case {case}: {exc!r}")
        took = time.perf_counter() - start
        if took > slowest:
            slowest, slowest_case = took, case
    print(json.dumps(
        {"escaped": escaped, "slowest": slowest, "slowest_case": slowest_case}
    ))
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
