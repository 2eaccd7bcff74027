"""phasorlisp benchmark: seeded workloads through ``Session``, checked output.

Usage, from the repository root::

    python3 perfbench/run.py --workload programs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client thread drives ``phasorlisp.Session`` in a closed loop: it
sends the next top-level form only after the previous one has printed.
Each form is compared with the output ``workloads.py`` computed without
phasorlisp; a mismatch or any exception is a failed form, never a crash.

``--trace 0`` times the workload for about ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of sessions once
untraced and twice traced (see ``tracing.py``), requires the two traced
passes to agree exactly, and reports per-layer metrics; its size does not
depend on ``--seconds``, so its counts repeat exactly for a seed.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results with their environment
and the spans of the first traced pass go to ``.bench_out/`` at the
repository root.
"""

import os

#: BLAS and OpenMP threads, fixed before numpy loads: the recall kernel's
#: speed depends on it.  One thread never exceeds ``nproc`` and matches
#: the single client thread.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Form, SessionPlan, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: timed forms needed so that at least ten samples lie above p90
MIN_FORMS = 100
#: failures whose details are printed to stderr
MAX_REPORTED = 5


def load_phasorlisp():
    """Import phasorlisp from this checkout's ``src/``, and only from there."""
    if not (SRC / "phasorlisp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no phasorlisp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phasorlisp

    if SRC not in Path(phasorlisp.__file__).resolve().parents:
        raise SystemExit(f"perfbench: phasorlisp imported from outside {SRC}")
    return phasorlisp


class Runner:
    """Evaluates session plans and records what each form printed.

    With ``setup_samples`` set, one extra ``Session()`` is timed after
    every form.  Construction takes about a millisecond, and a burst of
    samples taken in one tenth of a second read a quarter apart from one
    process to the next on a shared machine; spread over the whole run,
    they see the same conditions as the forms.
    """

    def __init__(self, phasorlisp, tracer=None, setup_samples=False) -> None:
        self.Session = phasorlisp.Session
        self.tracer = tracer
        self.failed = 0
        self.attempted = 0
        self.transcript: list[str] = []
        self.latency_ns: list[int] = []
        self.setup_ns: list[int] | None = [] if setup_samples else None
        self.max_entries = 0
        self._reported = 0

    def _report(self, message: str) -> None:
        if self._reported < MAX_REPORTED:
            self._reported += 1
            print(f"perfbench: {message}", file=sys.stderr)

    def _printed(self, sess, form: Form) -> str:
        try:
            return "\n".join(sess.eval_source(form.source))
        except Exception as exc:  # a failed form must not end the run
            self._report(f"{form.source} raised {exc!r}")
            return f"ERROR {type(exc).__name__}"

    def evaluate(self, sess, form: Form) -> None:
        t = self.tracer
        if t is not None:
            t.form_id = len(self.transcript)
            span = t.open(t.FORM_SPAN)
        start = time.perf_counter_ns()
        printed = self._printed(sess, form)
        self.latency_ns.append(time.perf_counter_ns() - start)
        if t is not None:
            t.close(span)
            t.form_id = -1
        self.attempted += 1
        self.transcript.append(printed)
        if printed != form.expected:
            self.failed += 1
            if not printed.startswith("ERROR"):
                self._report(f"{form.source} printed {printed!r}, "
                             f"expected {form.expected!r}")
        if self.setup_ns is not None:
            self._sample_setup()

    def _sample_setup(self) -> None:
        # no collection of the forms' garbage may land in the sample
        gc.disable()
        try:
            start = time.perf_counter_ns()
            self.Session()
            self.setup_ns.append(time.perf_counter_ns() - start)
        finally:
            gc.enable()

    def session(self, plan: SessionPlan):
        sess = self.Session()
        for form in plan.forms:
            self.evaluate(sess, form)
        self.max_entries = max(self.max_entries, len(sess.memory))
        return sess

    def round_trip(self, sess, check: Form) -> None:
        """Save ``sess``, restore it, and evaluate ``check`` on the copy."""
        OUT.mkdir(exist_ok=True)
        path = OUT / f"session-{os.getpid()}.bin"
        try:
            sess.save(path)
            restored = self.Session.restore(path)
        except Exception as exc:  # counted as a failed check form
            self._report(f"save/restore raised {exc!r}")
            self.attempted += 1
            self.failed += 1
            self.transcript.append(f"ERROR {type(exc).__name__}")
            return
        finally:
            path.unlink(missing_ok=True)
        self.evaluate(restored, check)


def warm_up(phasorlisp, workload: Workload, seed: int) -> None:
    """One untimed session first: a cold process pays one-off costs.

    The first form ran ten times slower than later ones, and the first
    whole repl session about a tenth slower at p90 than the next, while
    the allocator had not yet seen memory at its full size.
    """
    Runner(phasorlisp).session(workload.plan(seed, "warmup"))


def run_timed(phasorlisp, workload: Workload, seed: int, seconds: float):
    """Fresh sessions of the workload, back to back, for about ``seconds``.

    Sessions always run to their end, so every run holds the same mix of
    forms at the same session ages.  The last session starts only if it
    brings the timed phase closer to ``seconds`` than stopping would.
    """
    warm_up(phasorlisp, workload, seed)
    runner = Runner(phasorlisp, setup_samples=True)
    index = 0
    start = time.perf_counter_ns()
    while True:
        plan = workload.plan(seed, index)
        sess = runner.session(plan)
        index += 1
        wall = (time.perf_counter_ns() - start - sum(runner.setup_ns)) / 1e9
        if wall * (1 + 0.5 / index) >= seconds and len(
                runner.latency_ns) >= MIN_FORMS:
            break
    forms = len(runner.latency_ns)
    runner.setup_ns, setup_ns = None, runner.setup_ns
    runner.round_trip(sess, plan.check)
    lat_ms = [ns / 1e6 for ns in runner.latency_ns[:forms]]
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "forms_per_s": (forms / wall, "1/s"),
        "form_ms.p50": (statistics.median(lat_ms), "ms"),
        "form_ms.p90": (p90, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    info = {
        "sessions": index,
        "forms": forms,
        "samples_above_p90": sum(x > p90 for x in lat_ms),
        "setup_samples": len(setup_ns),
        "memory_entries": runner.max_entries,
    }
    return runner.attempted, runner.failed, metrics, info, []


def run_traced(phasorlisp, workload: Workload, seed: int):
    """One untraced and two traced passes over the same fixed sessions."""
    from tracing import Tracer, installed, layer_metrics, self_check

    warm_up(phasorlisp, workload, seed)
    plans = [workload.plan(seed, i) for i in range(workload.traced_sessions)]

    def one_pass(tracer):
        runner = Runner(phasorlisp, tracer)
        start = time.perf_counter()
        for plan in plans:
            sess = runner.session(plan)
        runner.round_trip(sess, plans[-1].check)
        return runner, time.perf_counter() - start

    plain, plain_s = one_pass(None)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer):
            passes.append((tracer, *one_pass(tracer)))
    (tracer, runner, traced_s), (again, runner2, _) = passes

    def counts(t, r):
        return (t.calls, t.site_calls, t.counts, r.max_entries)

    problems = self_check(workload.name, tracer)
    if counts(tracer, runner) != counts(again, runner2):
        problems.append("counts differ between the two traced passes")
    if not plain.transcript == runner.transcript == runner2.transcript:
        problems.append("transcripts differ between passes")

    metrics = layer_metrics(tracer, runner.max_entries, traced_s / plain_s)
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.csv")
    info = {
        "sessions": len(plans),
        "forms": runner.attempted,
        "spans": len(tracer.start),
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }
    attempted = sum(r.attempted for r in (plain, runner, runner2))
    failed = sum(r.failed for r in (plain, runner, runner2))
    return attempted, failed, metrics, info, problems


def git_rev() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    """What a result depends on besides the code: recorded with each one."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "phasorlisp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "seed": seed,
    }


def run_one(args) -> int:
    phasorlisp = load_phasorlisp()
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    if args.trace:
        run = run_traced(phasorlisp, workload, args.seed)
    else:
        run = run_timed(phasorlisp, workload, args.seed, args.seconds)
    attempted, failed, metrics, info, problems = run
    for problem in problems:
        print(f"perfbench: self-check failed: {problem}", file=sys.stderr)

    print(f"# perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>14.6g} {unit}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# failed_share: {failed / attempted:.6g} "
          f"({failed} of {attempted} forms)")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, trace=args.trace,
                  environment=env, info=info, problems=problems)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
