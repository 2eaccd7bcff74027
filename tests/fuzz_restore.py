"""Fuzz ``Session.restore``, and evaluate forms on what it restores.

Saves a dim-256 session, then restores mutated copies of the file: each
has 1-4 bytes replaced, and a fifth of them are also cut short.  After
each restore that succeeds it evaluates ``xs``, ``(sq 3)`` and
``(add3 4)``, with ``RuntimeWarning`` raised as an error.  Only a
``PhasorError`` may come out of a restore or a form.

A file that restores, was not cut, and has every mutated byte inside a
vector payload (the phase table, the tag or an entry's vector) must
print what the unmutated file prints, for each form that does not raise
a ``PhasorError``: such a file names the same entries, so a changed line
is a wrong value read silently.  Other files are not compared, since a
mutated name can unbind ``xs``.  The script prints one JSON line with
every other exception (what escaped), every wrong print with the entries
its case hit, and the slowest case, and exits 1 if anything escaped or
printed wrong.  Run it from the repository root with the seed of the
mutations and the number of cases::

    PYTHONPATH=src python3 tests/fuzz_restore.py 1 300

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import io
import json
import random
import struct
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


def _mutate(data: bytes, rng: random.Random) -> tuple[bytes, list[int], bool]:
    """The mutated file, the offsets it replaced, and whether it was cut."""
    mutated = bytearray(data)
    offsets = []
    for _ in range(rng.randint(1, 4)):
        value = rng.randrange(256)  # before the offset, as case numbers assume
        at = rng.randrange(len(mutated))
        mutated[at] = value
        offsets.append(at)
    cut = rng.random() < 0.2
    if cut:
        del mutated[rng.randrange(len(mutated)):]
    return bytes(mutated), offsets, cut


def _payloads(data: bytes) -> list[tuple[int, int, str]]:
    """(start, end, name) of every vector payload of a saved session."""
    dim, n = struct.unpack_from("<II", data, 4)
    phases = 12 + 4 * n  # past the magic, dim, count and moduli
    tag = phases + 8 * n * dim
    at = tag + 16 * dim
    spans = [(phases, tag, "phases"), (tag, at, "tag")]
    (count,) = struct.unpack_from("<I", data, at)
    at += 4
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, at)
        name = data[at + 4:at + 4 + length].decode("utf-8")
        at += 4 + length
        spans.append((at, at + 16 * dim, name))
        at += 16 * dim
    return spans


def _restore_and_evaluate(data: bytes) -> list[str | None] | None:
    """Each form's printed lines, or ``None`` for a form that raised; ``None``
    for a file that does not restore."""
    try:
        session = Session.restore(io.BytesIO(data))
    except PhasorError:
        return None
    printed = []
    for form in FORMS:
        try:
            printed.append("\n".join(session.eval_source(form)))
        except PhasorError:
            printed.append(None)
    return printed


def saved_file() -> bytes:
    """The file every case mutates: ``SOURCE`` run at dim 256, saved."""
    session = Session(Config(dim=256))
    list(session.eval_source(SOURCE))
    buf = io.BytesIO()
    session.save(buf)
    return buf.getvalue()


def main(seed: int, cases: int) -> int:
    warnings.simplefilter("error", RuntimeWarning)
    data = saved_file()
    expected = _restore_and_evaluate(data)
    payloads = _payloads(data)
    rng = random.Random(seed)
    escaped, wrong = [], []
    slowest, slowest_case = 0.0, None
    for case in range(cases):
        mutated, offsets, cut = _mutate(data, rng)
        start = time.perf_counter()
        try:
            printed = _restore_and_evaluate(mutated)
        except Exception as exc:
            escaped.append(f"case {case}: {exc!r}")
            printed = None
        took = time.perf_counter() - start
        if took > slowest:
            slowest, slowest_case = took, case
        hit = [name for at in offsets for lo, hi, name in payloads if lo <= at < hi]
        if printed is None or cut or len(hit) < len(offsets):
            continue
        for form, got, want in zip(FORMS, printed, expected):
            if got is not None and got != want:
                wrong.append(
                    f"case {case} ({', '.join(hit)}): {form} printed {got!r}, "
                    f"not {want!r}"
                )
    print(json.dumps({
        "escaped": escaped,
        "wrong": wrong,
        "slowest": slowest,
        "slowest_case": slowest_case,
    }))
    return 1 if escaped or wrong else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
