"""Outside-in tracing of phasorlisp: wrap public functions, record spans.

``installed(tracer)`` replaces each traced function at every name a
caller can look it up by: the module attribute, every other phasorlisp
module that bound the same object at import, and the class attribute for
methods.  Each call through a wrapper records one span (name, start, end,
parent span, form id) and bumps the call counts of its layer and of its
binding site.  Probes add the layer-specific counts: repeat shares,
resonator sweeps, rows scanned by recall, misses and errors.  Spans stay
in memory until ``write_spans``.

Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from phasorlisp.errors import MemoryEmptyError, NoMatchError

class Tracer:
    """In-memory span log plus per-site call counts and probe counters."""

    #: root span of one top-level form; the benchmark opens it, not a wrapper
    FORM_SPAN = "form"

    def __init__(self) -> None:
        self.span_names: list[str] = [self.FORM_SPAN]
        self._name_ids = {self.FORM_SPAN: 0}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.form = array("q")
        #: nanoseconds of each span covered by its child spans
        self.child = array("q")
        self._open: list[int] = []
        self.form_id = -1
        #: calls per layer, e.g. ``residue.decode``
        self.calls: Counter[str] = Counter()
        #: calls per binding site, e.g. ``phasorlisp.lisp.decode_residue``
        self.site_calls: Counter[str] = Counter()
        #: probe counters, e.g. ``resonator.sweeps``
        self.counts: Counter[str] = Counter()
        self._seen: dict[str, set[int]] = {}

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.form.append(self.form_id)
        self.child.append(0)
        self.end.append(0)
        self._open.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        t = perf_counter_ns()
        self.end[i] = t
        self._open.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += t - self.start[i]

    def note_repeat(self, layer: str, key: Any) -> None:
        """Count one input of ``layer``; inputs seen before count as repeats."""
        seen = self._seen.setdefault(layer, set())
        h = hash(key)
        if h in seen:
            self.counts[layer + ".repeats"] += 1
        else:
            seen.add(h)

    def self_ms(self) -> Counter[str]:
        """Summed self time per span name: duration minus child coverage."""
        out: Counter[str] = Counter()
        names = self.span_names
        for nid, s, e, c in zip(self.name, self.start, self.end, self.child):
            out[names[nid]] += (e - s - c) / 1e6
        return out

    def outer_ms(self, name: str) -> float:
        """Summed duration of ``name`` spans not nested in another one."""
        nid = self._name_ids.get(name)
        total = 0
        for i, n in enumerate(self.name):
            if n == nid and (self.parent[i] < 0 or self.name[self.parent[i]] != nid):
                total += self.end[i] - self.start[i]
        return total / 1e6

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,form,name,start_ns,end_ns\n")
            names = self.span_names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.form[i]},{names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


# -- probes: layer counts taken inside the span of the call -----------------

Probe = Callable[[Tracer, tuple, dict, Any, "BaseException | None"], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _unbind_probe(t: Tracer, args, kwargs, result, exc) -> None:
    w, u = _arg(args, kwargs, 0, "w"), _arg(args, kwargs, 1, "u")
    t.note_repeat("fhrr.unbind", (w.tobytes(), u.tobytes()))


def _decode_probe(t: Tracer, args, kwargs, result, exc) -> None:
    t.note_repeat("residue.decode", _arg(args, kwargs, 1, "v").tobytes())
    if exc is not None:
        t.counts["residue.decode.errors"] += 1


def _factorize_probe(t: Tracer, args, kwargs, result, exc) -> None:
    if kwargs.get("seed", args[5] if len(args) > 5 else None) is not None:
        t.counts["resonator.restarts"] += 1
    if result is not None:
        t.counts["resonator.sweeps"] += result.iterations
        t.counts["resonator.converged"] += bool(result.converged)


def _recall_probe(t: Tracer, args, kwargs, result, exc) -> None:
    t.counts["memory.recall.rows_scanned"] += len(args[0])
    if isinstance(exc, (NoMatchError, MemoryEmptyError)):
        t.counts["memory.recall.misses"] += 1


@dataclass(frozen=True)
class Target:
    """One traced function: its layer name, home module and attribute."""

    layer: str
    module: str
    attr: str  # ``name`` or ``Class.method``
    probe: Probe | None = None


TARGETS = (
    Target("fhrr.similarity", "phasorlisp.fhrr", "similarity"),
    Target("fhrr.unbind", "phasorlisp.fhrr", "unbind", _unbind_probe),
    Target("residue.encode", "phasorlisp.residue", "encode_residue"),
    Target("residue.decode", "phasorlisp.residue", "decode_residue",
           _decode_probe),
    Target("resonator.factorize", "phasorlisp.resonator", "factorize",
           _factorize_probe),
    Target("memory.recall", "phasorlisp.memory", "CleanupMemory.recall",
           _recall_probe),
    Target("memory.add", "phasorlisp.memory", "CleanupMemory.add"),
    Target("memory.add_chunk", "phasorlisp.memory", "CleanupMemory.add_chunk"),
    Target("memory.env_frames", "phasorlisp.memory", "Environment.__init__"),
    Target("lisp.resolve", "phasorlisp.lisp", "Session.resolve"),
    Target("lisp.eval_vec", "phasorlisp.lisp", "Session.eval_vec"),
    Target("lisp.cons", "phasorlisp.lisp", "Session.cons"),
    Target("lisp.save", "phasorlisp.lisp", "Session.save"),
    Target("lisp.restore", "phasorlisp.lisp", "Session.restore"),
    Target("reader.parse", "phasorlisp.reader", "parse_program"),
)


def _wrap(tracer: Tracer, layer: str, site: str, fn: Callable,
          probe: Probe | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[layer] += 1
        tracer.site_calls[site] += 1
        i = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if probe is not None:
                probe(tracer, args, kwargs, None, exc)
            tracer.close(i)
            raise
        if probe is not None:
            probe(tracer, args, kwargs, result, None)
        tracer.close(i)
        return result

    return traced


def _phasorlisp_modules() -> list[tuple[str, Any]]:
    return sorted(
        ((name, mod) for name, mod in sys.modules.items()
         if name.split(".")[0] == "phasorlisp" and mod is not None),
        key=lambda item: item[0],
    )


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    A target that no longer exists under its name raises ``LookupError``:
    the benchmark must then be updated, not silently report zero.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for t in TARGETS:
            home = sys.modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise LookupError(f"{t.module}.{t.attr} not found")
                raw = vars(cls)[meth]
                site = f"{t.module}.{t.attr}"
                if isinstance(raw, classmethod):
                    new: Any = classmethod(
                        _wrap(tracer, t.layer, site, raw.__func__, t.probe)
                    )
                else:
                    new = _wrap(tracer, t.layer, site, raw, t.probe)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, t.attr, None)
            if original is None:
                raise LookupError(f"{t.module}.{t.attr} not found")
            for mod_name, mod in _phasorlisp_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        site = f"{mod_name}.{attr}"
                        undo.append((mod, attr, value))
                        setattr(mod, attr, _wrap(tracer, t.layer, site,
                                                 original, t.probe))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)



# -- what the traced run reports, and what each number should move ----------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: the end-to-end metric and workload this number should move
    moves: str


_DECODE = "forms_per_s and form_ms.p50 on programs; exactly 0 calls on lists"
_RESONATOR = "forms_per_s and form_ms.p50 on programs"
_RECALL = ("form_ms.p90 and forms_per_s on repl; smaller effect on programs "
           "and lists")

PER_LAYER = (
    LayerMetric("fhrr.similarity.calls", "count", "lower",
                "forms_per_s on every workload"),
    LayerMetric("fhrr.unbind.calls", "count", "lower",
                "forms_per_s on programs and lists, where closure bodies are "
                "unbound again on every call; little effect on repl"),
    LayerMetric("fhrr.unbind.repeat_share", "share", "lower",
                "forms_per_s on programs and lists"),
    LayerMetric("residue.encode.calls", "count", "lower", _DECODE),
    LayerMetric("residue.decode.calls", "count", "lower", _DECODE),
    LayerMetric("residue.decode.self_ms", "ms", "lower", _DECODE),
    LayerMetric("residue.decode.repeat_share", "share", "lower", _DECODE),
    LayerMetric("residue.decode.errors", "count", "lower", _DECODE),
    LayerMetric("resonator.factorize.calls", "count", "lower", _RESONATOR),
    LayerMetric("resonator.factorize.self_ms", "ms", "lower", _RESONATOR),
    LayerMetric("resonator.sweeps", "count", "lower", _RESONATOR),
    LayerMetric("resonator.restarts", "count", "lower", _RESONATOR),
    LayerMetric("resonator.converged_share", "share", "higher", _RESONATOR),
    LayerMetric("memory.recall.calls", "count", "lower", _RECALL),
    LayerMetric("memory.recall.self_ms", "ms", "lower", _RECALL),
    LayerMetric("memory.recall.rows_scanned", "count", "lower", _RECALL),
    LayerMetric("memory.recall.misses", "count", "lower", _RECALL),
    LayerMetric("memory.add.calls", "count", "lower",
                "write cost: forms_per_s on repl"),
    LayerMetric("memory.add_chunk.calls", "count", "lower",
                "write cost: forms_per_s on repl"),
    LayerMetric("memory.entries", "count", "lower",
                "form_ms.p90 on repl; no change on programs or lists"),
    LayerMetric("memory.env_frames", "count", "lower",
                "peak_rss_mb on programs"),
    LayerMetric("lisp.resolve.calls", "count", "lower",
                "forms_per_s on every workload"),
    LayerMetric("lisp.resolve.self_ms", "ms", "lower",
                "forms_per_s on every workload"),
    LayerMetric("lisp.eval_vec.calls", "count", "lower",
                "forms_per_s on programs and lists"),
    LayerMetric("lisp.eval_vec.self_ms", "ms", "lower",
                "forms_per_s on programs and lists"),
    LayerMetric("lisp.cons.calls", "count", "lower",
                "forms_per_s on lists and repl"),
    LayerMetric("lisp.save.ms", "ms", "lower",
                "session persistence; meaningful on repl only"),
    LayerMetric("lisp.restore.ms", "ms", "lower",
                "session persistence; meaningful on repl only"),
    LayerMetric("reader.parse.self_ms", "ms", "lower", "form_ms.p50 on repl"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "none: traced wall time over untraced wall time of the same "
                "forms"),
)

_ALWAYS = (
    "phasorlisp.lisp.similarity",
    "phasorlisp.lisp.unbind",
    "phasorlisp.memory.CleanupMemory.recall",
    "phasorlisp.memory.CleanupMemory.add",
    "phasorlisp.memory.CleanupMemory.add_chunk",
    "phasorlisp.memory.Environment.__init__",
    "phasorlisp.lisp.Session.resolve",
    "phasorlisp.lisp.Session.eval_vec",
    "phasorlisp.lisp.Session.cons",
    "phasorlisp.lisp.Session.save",
    "phasorlisp.lisp.Session.restore",
    "phasorlisp.lisp.parse_program",
)
_INTEGERS = (
    "phasorlisp.lisp.decode_residue",  # resolve
    "phasorlisp.residue.factorize",  # decode_residue, resonator method
    "phasorlisp.residue.encode_residue",  # encode_int and the decode check
)

#: Binding sites that must count calls on each workload.  A site that
#: counts zero means a rename moved the work past the wrapper.
MUST_FIRE = {
    # fact multiplies: mul_bind reaches decode_residue through residue's globals
    "programs": _ALWAYS + _INTEGERS + ("phasorlisp.residue.decode_residue",),
    "lists": _ALWAYS,
    "repl": _ALWAYS + _INTEGERS,
}

#: Layers that must count exactly zero calls on a workload.
MUST_NOT_FIRE = {"lists": ("residue.decode",)}


def self_check(workload: str, tracer: Tracer) -> list[str]:
    """Problems with the wrapping itself; empty when every layer was seen."""
    problems = [f"wrapper {site} counted no calls"
                for site in MUST_FIRE[workload] if tracer.site_calls[site] == 0]
    for layer in MUST_NOT_FIRE.get(workload, ()):
        if tracer.calls[layer] != 0:
            problems.append(f"{layer} counted {tracer.calls[layer]} calls, "
                            "expected exactly 0")
    return problems


def layer_metrics(tracer: Tracer, entries: int,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Every ``PER_LAYER`` metric as ``name -> (value, unit)``.

    ``entries`` is the memory size at the end of the largest session and
    ``overhead`` the traced over untraced wall time; both are measured by
    the caller.  A share whose base counted no calls reads 0.
    """
    calls, c, self_ms = tracer.calls, tracer.counts, tracer.self_ms()

    def share(part: str, layer: str) -> float:
        return c[part] / calls[layer] if calls[layer] else 0.0

    values = {
        "fhrr.similarity.calls": calls["fhrr.similarity"],
        "fhrr.unbind.calls": calls["fhrr.unbind"],
        "fhrr.unbind.repeat_share": share("fhrr.unbind.repeats",
                                          "fhrr.unbind"),
        "residue.encode.calls": calls["residue.encode"],
        "residue.decode.calls": calls["residue.decode"],
        "residue.decode.self_ms": self_ms["residue.decode"],
        "residue.decode.repeat_share": share("residue.decode.repeats",
                                             "residue.decode"),
        "residue.decode.errors": c["residue.decode.errors"],
        "resonator.factorize.calls": calls["resonator.factorize"],
        "resonator.factorize.self_ms": self_ms["resonator.factorize"],
        "resonator.sweeps": c["resonator.sweeps"],
        "resonator.restarts": c["resonator.restarts"],
        "resonator.converged_share": share("resonator.converged",
                                           "resonator.factorize"),
        "memory.recall.calls": calls["memory.recall"],
        "memory.recall.self_ms": self_ms["memory.recall"],
        "memory.recall.rows_scanned": c["memory.recall.rows_scanned"],
        "memory.recall.misses": c["memory.recall.misses"],
        "memory.add.calls": calls["memory.add"],
        "memory.add_chunk.calls": calls["memory.add_chunk"],
        "memory.entries": entries,
        "memory.env_frames": calls["memory.env_frames"],
        "lisp.resolve.calls": calls["lisp.resolve"],
        "lisp.resolve.self_ms": self_ms["lisp.resolve"],
        "lisp.eval_vec.calls": calls["lisp.eval_vec"],
        "lisp.eval_vec.self_ms": self_ms["lisp.eval_vec"],
        "lisp.cons.calls": calls["lisp.cons"],
        "lisp.save.ms": tracer.outer_ms("lisp.save"),
        "lisp.restore.ms": tracer.outer_ms("lisp.restore"),
        "reader.parse.self_ms": self_ms["reader.parse"],
        "trace.overhead": overhead,
    }
    return {m.name: (values[m.name], m.unit) for m in PER_LAYER}
