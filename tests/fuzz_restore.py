"""Fuzz ``Session.restore``, and evaluate forms on what it restores.

Saves a dim-256 session, then restores two mutated copies of the file
per case.  The first has 1-4 bytes replaced, and a fifth of them are
also cut short.  The second, drawn from a stream of its own, has one
structured change that keeps the file well formed: an entry renamed,
a row's stream position changed, or the draw counter changed.  After
each restore that succeeds it evaluates ``xs``, ``(sq 3)`` and
``(add3 4)``, with ``RuntimeWarning`` raised as an error.  Only a
``PhasorError`` may come out of a restore or a form.

A byte-mutated file that restores, was not cut, and has every mutated
byte inside a vector payload (a ``chunk:`` or ``bind:`` entry's vector;
not the header, a name or a position) must print what the unmutated
file prints, for each form that does not raise a ``PhasorError``: such
a file names the same entries at the same positions, so a changed line
is a wrong value read silently.  Other files are not compared, since a
renamed entry can unbind ``xs`` and a moved row is another vector.  The
script prints one JSON line with every other exception (what escaped),
every wrong print with the entries its case hit, how many files of each
kind restored, and the slowest case, and exits 1 if anything escaped or
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

#: entry kinds whose payload is a u64 stream position, and a vector
ROWS = ("symbol", "pointer", "env")
VECTORS = ("chunk", "bind")


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


def _layout(data: bytes) -> tuple[int, int, list[tuple[int, str, int]]]:
    """The offset of the draw counter, the dim, and the (start, name,
    payload start) of every entry of a saved session."""
    dim, n = struct.unpack_from("<II", data, 4)
    counter = 12 + 4 * n + 8  # past the magic, dim, count, moduli and seed
    (count,) = struct.unpack_from("<I", data, counter + 8)
    at = counter + 12
    entries = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, at)
        name = data[at + 4:at + 4 + length].decode("utf-8")
        entries.append((at, name, at + 4 + length))
        prefix = name.partition(":")[0]
        at += 4 + length
        at += 8 if prefix in ROWS else 16 * dim if prefix in VECTORS else 0
    return counter, dim, entries


def _payloads(data: bytes) -> list[tuple[int, int, str]]:
    """(start, end, name) of every vector payload of a saved session."""
    _, dim, entries = _layout(data)
    return [
        (payload, payload + 16 * dim, name)
        for _, name, payload in entries
        if name.partition(":")[0] in VECTORS
    ]


def _restructure(data: bytes, rng: random.Random) -> tuple[bytes, str]:
    """The file with one entry renamed, one row's position changed, or its
    draw counter changed, each field rewritten whole; and what changed."""
    counter, _, entries = _layout(data)
    (drawn,) = struct.unpack_from("<Q", data, counter)
    rows = [e for e in entries if e[1].partition(":")[0] in ROWS]
    positions = [struct.unpack_from("<Q", data, p)[0] for _, _, p in rows]
    change = rng.choice(("rename", "position", "counter"))
    if change == "counter":
        value = rng.choice(
            (drawn - 1, drawn + 1, rng.randrange(2 * drawn), 2**64 - 1)
        )
        return data[:counter] + struct.pack("<Q", value) + data[counter + 8:], (
            f"counter {drawn} -> {value}"
        )
    if change == "position":
        i = rng.randrange(len(rows))
        value = rng.choice((
            rng.choice(positions),
            rng.randrange(11),  # a bootstrap entry's
            rng.randrange(drawn),
            drawn,
            rng.randrange(2**64),
        ))
        at = rows[i][2]
        return data[:at] + struct.pack("<Q", value) + data[at + 8:], (
            f"{rows[i][1]} at {positions[i]} -> {value}"
        )
    at, name, payload = rng.choice(entries)
    if rng.random() < 0.5:
        new = rng.choice(entries)[1]
    else:
        i = rng.randrange(len(name))
        new = name[:i] + rng.choice("abcnxt0123456789-:#") + name[i + 1:]
    raw = new.encode("utf-8")
    return data[:at] + struct.pack("<I", len(raw)) + raw + data[payload:], (
        f"{name} -> {new}"
    )


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


def _attempt(label: str, data: bytes, escaped: list[str]):
    """``_restore_and_evaluate(data)``, with what escaped recorded under
    ``label``, and the time it took."""
    start = time.perf_counter()
    try:
        printed = _restore_and_evaluate(data)
    except Exception as exc:
        escaped.append(f"{label}: {exc!r}")
        printed = None
    return printed, time.perf_counter() - start


def main(seed: int, cases: int) -> int:
    warnings.simplefilter("error", RuntimeWarning)
    data = saved_file()
    expected = _restore_and_evaluate(data)
    payloads = _payloads(data)
    rng = random.Random(seed)
    shapes = random.Random(f"structured {seed}")
    escaped, wrong = [], []
    restored = {"bytes": 0, "structured": 0}
    slowest, slowest_case = 0.0, None
    for case in range(cases):
        mutated, offsets, cut = _mutate(data, rng)
        shaped, change = _restructure(data, shapes)
        labels = f"case {case}", f"case {case} ({change})"
        printed, took = _attempt(labels[0], mutated, escaped)
        shaped_printed, shaped_took = _attempt(labels[1], shaped, escaped)
        restored["bytes"] += printed is not None
        restored["structured"] += shaped_printed is not None
        for label, t in zip(labels, (took, shaped_took)):
            if t > slowest:
                slowest, slowest_case = t, label
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
        "restored": restored,
        "slowest": slowest,
        "slowest_case": slowest_case,
    }))
    return 1 if escaped or wrong else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
