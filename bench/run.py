"""secalloc benchmark: seeded CLI workloads, checked outputs, per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload complete-sweep --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each ``secalloc.cli.main(argv)``
call starts when the previous one returns. A run sets up the workload
(imports ``secalloc`` in fresh interpreters, generates and writes the
seeded scenarios; each repeated ``SETUP_REPEATS`` times), makes one
checking round that also warms up, then repeats the workload's calls in
timed rounds until ``--seconds`` have passed. Every call's output
is checked outside the timed phase: fully in the checking round, and by
byte equality with the checked output in every timed round.

Timings are speed-normalised. On a shared host other load slows this
process by up to 2x for tens of seconds at a time, in CPU time as much as
in wall time, so a whole run can fall into one slow stretch and neither a
median nor a minimum over its rounds removes it. Before, during (every
``READING_INTERVAL_S``) and after every timed call and set-up pass, the
runner therefore times a fixed work unit of its own (``_work_unit``:
objects, dicts, ``math`` and small numpy calls, like the program's) and
scales the measured time by ``REF_UNIT_S`` over the unit's time, averaged
over the readings. A reported time is in seconds at the speed at which
the unit takes ``REF_UNIT_S``; the times as measured are printed beside
them. A change to the program changes the call's time and not the
unit's, so it shows in full.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
the time untraced and half traced, prints the per-layer metrics and
``trace.overhead_s``, and writes the spans to ``.bench_out/``. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# one BLAS thread: the load is a single caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the BLAS setting)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
# The work unit's median time on an idle 2-vCPU cloud VM (Python 3.11.7,
# numpy 2.4.6); reported times are in seconds at that speed.
REF_UNIT_S = 0.6e-3
UNIT_REPEATS = 3  # work units per speed reading, median taken
READING_INTERVAL_S = 0.1  # speed readings during a call, from a timer signal
E2E = [
    ("wall_s", "s"),
    ("call_ms.p50", "ms"),
    ("call_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def _call(cli, argv):
    """Run one CLI call; return (exit code, seconds, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


class _Item:
    __slots__ = ("weight", "group")

    def __init__(self, weight: float, group: int):
        self.weight = weight
        self.group = group


def _work_unit() -> None:
    """Fixed work for a speed reading, mixed like the program's own."""
    items = [_Item(k * 0.5, k % 7) for k in range(300)]
    sums = {}
    for item in items:
        key = (item.group, int(item.weight) % 11)
        sums[key] = sums.get(key, 0.0) + math.exp(-0.01 * item.weight)
    v = numpy.array(list(sums.values()))
    for _ in range(40):
        v = numpy.clip(v - 0.1 * (v - v.mean()), 0.0, None)
        float(v.sum())
    sorted(sums.items(), key=lambda kv: kv[1])


def _speed() -> float:
    """The factor that turns a time measured now into reference seconds."""
    times = []
    for _ in range(UNIT_REPEATS):
        start = time.perf_counter()
        _work_unit()
        times.append(time.perf_counter() - start)
    return REF_UNIT_S / statistics.median(times)


class _Meter:
    """Speed readings before, during and after a timed block.

    During the block a timer signal takes a reading every
    ``READING_INTERVAL_S``; its handler runs between the program's
    bytecodes, and the time it takes is recorded in ``paused`` so that it
    can be taken off the block's time.
    """

    def __enter__(self):
        self.readings = [_speed()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._reading)
        signal.setitimer(signal.ITIMER_REAL, READING_INTERVAL_S, READING_INTERVAL_S)
        return self

    def _reading(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(_speed())
        self.paused += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.readings.append(_speed())

    def reference(self, elapsed: float) -> float:
        """``elapsed`` (which includes the readings taken during the
        block) as the program's own time in reference seconds."""
        return (elapsed - self.paused) * statistics.fmean(self.readings)


def _timed(fn):
    """(reference seconds, measured seconds, result) of one call of ``fn``."""
    with _Meter() as meter:
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
    return meter.reference(elapsed), elapsed - meter.paused, result


def _import() -> None:
    """Start a fresh interpreter that imports ``secalloc.cli``; wait for it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", "import secalloc.cli"], env=env, cwd=ROOT, check=True)


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    return "unknown"


def _fmt(value: float) -> str:
    return format(value, ".9g")


class Timings:
    """Latencies of one phase, per call, and the wall time of its rounds."""

    def __init__(self, n_calls: int):
        self.per_call = [[] for _ in range(n_calls)]  # reference seconds
        self.measured = [[] for _ in range(n_calls)]  # seconds as measured
        self.round_walls = []  # as measured

    def _samples(self, measured: bool):
        return self.measured if measured else self.per_call

    def round_s(self, measured: bool = False) -> float:
        """Wall time of one round: the sum of each call's median latency.

        A burst of noise slows the calls it lands on in one round; the
        median per call discards it, where a median of whole rounds would not.
        """
        return sum(statistics.median(s) for s in self._samples(measured))

    def all_ms(self, measured: bool = False):
        return [1000.0 * x for s in self._samples(measured) for x in s]


class Run:
    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.expected = []  # (exit code, output digest) of the checking round
        self.problems = []  # per call: problems found in the checking round
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (scenario id, verb, problem)

    def check_round(self) -> None:
        """Run every call once, untimed, and check each output in full."""
        for call in self.calls:
            code, _, text = _call(self.cli, call.argv)
            if code != 0:
                last = text.strip().splitlines()[-1] if text.strip() else ""
                problems, digest = [f"exit {code}: {last}"], None
            else:
                digest = _digest(call.outputs)
                try:
                    problems = call.check()
                except Exception as exc:  # unreadable output is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.expected.append((code, digest))
            self.problems.append(problems)
            for problem in problems:
                self.failures.append((call.scenario_id, call.verb, problem))

    def timed_round(self, timings: Timings) -> None:
        """Every call once, timed; outputs compared with the checked round."""
        wall = 0.0
        for k, call in enumerate(self.calls):
            with _Meter() as meter:
                code, elapsed, _ = _call(self.cli, call.argv)
            timings.per_call[k].append(meter.reference(elapsed))
            elapsed -= meter.paused
            wall += elapsed
            timings.measured[k].append(elapsed)
            self.attempted += 1
            code0, digest0 = self.expected[k]
            if code != code0:
                self.failures.append((call.scenario_id, call.verb, f"exit {code}, checked round exit {code0}"))
            ok = code == 0 and not self.problems[k]
            if ok and _digest(call.outputs) != digest0:
                ok = False
                self.failures.append((call.scenario_id, call.verb, "output differs from the checked round"))
            self.failed += not ok
        timings.round_walls.append(wall)

    def rounds(self, seconds: float, after_round=None) -> Timings:
        """Timed rounds until ``seconds`` have passed (at least one round)."""
        timings = Timings(len(self.calls))
        start = time.perf_counter()
        while not timings.round_walls or time.perf_counter() - start < seconds:
            self.timed_round(timings)
            if after_round is not None:
                after_round()
        return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "secalloc", "__init__.py")):
        print(f"error: no secalloc sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import secalloc.cli

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # (reference, measured) seconds of each pass
        import_times = [_timed(_import)[:2] for _ in range(SETUP_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            *times, calls = _timed(lambda: workloads.build(args.workload, args.seed, workdir, ROOT))
            setup_times.append(times)
        run = Run(secalloc.cli, calls)
        run.check_round()

        if args.trace:
            metrics, trace_doc, timings = _traced(run, args.seconds)
        else:
            timings = run.rounds(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "calls_per_round": len(calls),
        "round_s": [round(w, 4) for w in timings.round_walls],
        "setup_repeats": SETUP_REPEATS,
    }
    fail_frac = run.failed / max(run.attempted, 1)
    if not args.trace:
        values, measured = {}, {}
        for k, out in ((0, values), (1, measured)):
            call_ms = timings.all_ms(measured=bool(k))
            out["wall_s"] = timings.round_s(measured=bool(k))
            out["call_ms.p50"] = statistics.median(call_ms)
            out["call_ms.p90"] = float(numpy.percentile(call_ms, 90))
            out["setup_s"] = sum(statistics.median(t[k] for t in times) for times in (import_times, setup_times))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {
            "wall_s": f"sum over {len(calls)} calls of each call's median of {len(timings.round_walls)} rounds",
            "call_ms.p50": f"median of {len(call_ms)} calls",
            "call_ms.p90": f"90th percentile of {len(call_ms)} calls",
            "setup_s": f"median of {SETUP_REPEATS} fresh-interpreter imports"
                       f" + median of {SETUP_REPEATS} generate-and-write passes",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        metrics = {}
        for name, unit in E2E:
            metrics[name] = {"value": values[name], "unit": unit}
            as_measured = f"; {_fmt(measured[name])} {unit} as measured" if name in measured else ""
            print(f"{name} {_fmt(values[name])} {unit} ({samples[name]}{as_measured})")
        print(f"fail_frac {_fmt(fail_frac)} ratio ({run.failed} of {run.attempted} calls)")
    else:
        for name, entry in metrics.items():
            print(f"{name} {_fmt(entry['value'])} {entry['unit']}")
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_doc["meta"] = meta
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(trace_doc, handle)
        print(f"trace written to {os.path.relpath(path, ROOT)}")

    for sid, verb, problem in run.failures:
        print(f"FAIL {sid} {verb}: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def _traced(run: Run, seconds: float):
    """Half the time untraced, half traced; per-layer medians per round."""
    import tracing

    untraced = run.rounds(seconds / 2)
    tracer = tracing.Tracer()
    per_round = []
    tracer.install()
    try:
        traced = run.rounds(seconds / 2, lambda: per_round.append(tracer.take_round()))
    finally:
        tracer.uninstall()
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = traced.round_s() - untraced.round_s()
        else:
            value = statistics.median(r.get(name, 0) for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    doc = {
        "untraced_round_s": untraced.round_walls,
        "traced_round_s": traced.round_walls,
        "per_round": per_round,
        "spans": tracer.spans,
    }
    return metrics, doc, untraced


if __name__ == "__main__":
    sys.exit(main())
