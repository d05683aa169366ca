"""plap benchmark: runs one workload, checks every result, prints metrics.

    python3 perfbench/run.py --workload cycles --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; plap is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment (Python, numpy and scipy versions, nproc, seed,
BLAS threads) and how the metrics were sampled.

``--trace 0`` prints the end-to-end metrics.  Passes over the workload's
operations repeat until the next one would end after ``--seconds``; set-up
time is measured in fresh interpreters before that.  Times are scaled to a
reference machine speed, measured by a small solve_ivp kernel that a
CPU-time timer runs while the operations run (see ``Speed``).
``--trace 1`` prints the per-layer metrics: it runs the first pass
untraced, then again under the tracer, and requires both to produce the
same bytes.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cycles", "sweep", "alpha-c", "figures")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
# The reference kernel's time at the reference speed.  Timings are reported
# as wall time x REF_S / (the kernel's time measured alongside them).
REF_S = 6.0e-3
TICK_S = 0.1          # CPU seconds between speed samples
SETUP_SAMPLES = 3     # speed samples before and after each set-up probe
OP_TIMEOUT_S = 60.0  # a hung operation fails instead of stalling the run
TAIL_BEYOND = 10


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S:g} s")


def _van_der_pol(t, y):
    return [y[1], 5.0 * (1.0 - y[0] * y[0]) * y[1] - y[0]]


class Speed:
    """The machine's speed, sampled while the workload runs.

    On the shared 2-vCPU host the benchmark was written on, the speed flips
    between two levels 1.7x apart every fraction of a second, in proportions
    that drift over minutes, and plap's calls (Python right-hand sides
    stepped by scipy) slow down with it in step.  While active, a CPU-time
    timer interrupts the process every TICK_S and times one fixed scipy
    ``solve_ivp`` solve, which is not plap code, so a change to plap cannot
    move it.  ``scale`` takes the kernel's own time out of an interval and
    scales the rest by REF_S over the kernel's mean time during the
    interval and at the samples just before and after it.
    """

    def __init__(self):
        from scipy.integrate import solve_ivp
        self._solve = solve_ivp
        self.ends: list = []   # perf_counter at the end of each sample
        self.took: list = []   # the kernel's seconds in each sample

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._solve(_van_der_pol, (0.0, 6.0), [2.0, 0.0], rtol=1e-6, atol=1e-9)
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.took.append(t1 - t0)

    def __enter__(self):
        self.sample()  # warm-up, not kept
        self.ends.clear()
        self.took.clear()
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """The seconds from t0 to t1 less the samples taken within them, at
        the reference speed.  Call once a sample has followed t1."""
        i = bisect.bisect_left(self.ends, t0)
        j = bisect.bisect_right(self.ends, t1)
        near = self.took[max(i - 1, 0):j + 1]
        return (t1 - t0 - sum(self.took[i:j])) * REF_S * len(near) / sum(near)


def timed(op):
    """(start, seconds, Outcome or None, error text or None) for one
    operation."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        result = op.call()
    except (Exception, SystemExit) as exc:
        return t0, time.perf_counter() - t0, None, f"{op.name}: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    elapsed = time.perf_counter() - t0
    try:
        return t0, elapsed, op.settle(result), None
    except Exception as exc:  # a malformed output is a wrong result
        return t0, elapsed, None, f"{op.name}: unreadable result: {type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed operations, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.self_test: list = []  # tracer self-test problems

    def record(self, outcome, error) -> bool:
        self.attempted += 1
        problems = [error] if error else outcome.problems
        if problems:
            self.failures.append("; ".join(problems))
        return not problems


def run_pass(ops, tally: Tally):
    """Run ops in order; return ((start, seconds) of each operation,
    outputs of the operations that passed their checks, data bytes
    written)."""
    spans, outputs, written = [], {}, 0
    for op in ops:
        t0, elapsed, outcome, error = timed(op)
        spans.append((t0, elapsed))
        if tally.record(outcome, error):
            outputs[op.name] = outcome.output
            written += outcome.written
    return spans, outputs, written


def tail(latencies):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(latencies), 50.0
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workload: str, seed: int, speed: Speed) -> list:
    """Seconds, at the reference speed, of fresh interpreters that import
    plap, build the workload's inputs and make the first call."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        t1 = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        lo = bisect.bisect_left(speed.ends, t0)
        near = speed.took[lo - SETUP_SAMPLES:lo + SETUP_SAMPLES]
        times.append((t1 - t0) * REF_S * len(near) / sum(near))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


def end_to_end(workloads, args, tally: Tally, info: dict) -> dict:
    speed = Speed()
    speed.sample()  # warm-up, not kept
    setup = measure_setup(args.workload, args.seed, speed)
    workloads.first_call()
    passes = []
    t_window = time.perf_counter()
    with speed:
        while True:
            ops = workloads.build(args.workload, args.seed, len(passes))
            passes.append(run_pass(ops, tally)[0])
            wall = [sum(t for _, t in spans) for spans in passes]
            elapsed = time.perf_counter() - t_window
            if elapsed + statistics.median(wall) > args.seconds:
                break
    scaled = [[speed.scale(t0, t0 + t) for t0, t in spans] for spans in passes]
    latencies = [t for spans in scaled for t in spans]
    # per pass, so that the percentile does not depend on how many passes
    # the run made
    tails = [tail(spans) for spans in scaled]
    tail_pct = tails[0][1]
    info.update(passes=len(passes), ops=len(latencies),
                tail_percentile=round(tail_pct, 2), setup_runs=len(setup),
                pass_wall_s=statistics.median(wall), ref_s=REF_S,
                ref_median_s=statistics.median(speed.took),
                ref_samples=len(speed.took))
    return {
        "pass_s": (statistics.median([sum(spans) for spans in scaled]), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * statistics.median([t for t, _ in tails]), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "ok_ratio": ((tally.attempted - len(tally.failures)) / tally.attempted,
                     "ratio"),
    }


def per_layer(workloads, args, tally: Tally, info: dict) -> dict:
    from tracer import Tracer

    workloads.first_call()
    ops = workloads.build(args.workload, args.seed, 0)
    plain, plain_out, _ = run_pass(ops, tally)
    with Tracer() as tracer:
        traced, traced_out, written = run_pass(ops, tally)
    # an operation that passed its checks in both runs but wrote other
    # bytes under the tracer is a wrong traced result
    for name in sorted(set(plain_out) & set(traced_out)):
        if plain_out[name] != traced_out[name]:
            tally.failures.append(f"{name}: traced output differs from untraced")
    missing = workloads.EXPECTED_SPANS[args.workload] - tracer.fired()
    if missing:
        tally.self_test.append("spans that never fired: " + ", ".join(sorted(missing)))
    info.update(passes=1, ops=len(ops))
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = (written, "bytes")
    metrics["trace.overhead_s"] = (sum(t for _, t in traced)
                                   - sum(t for _, t in plain), "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "plap" / "__init__.py").is_file():
        print(f"error: no plap sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    # one CPU for the run and its set-up probes, so that the speed samples
    # are taken where the timed work runs
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    # one process, one thread: pin the BLAS and OpenMP pools before numpy
    # loads (the set-up probes inherit the setting)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    import numpy
    import scipy
    import workloads

    import plap
    if Path(plap.__file__).resolve().parent != (src / "plap").resolve():
        print(f"error: plap imported from {plap.__file__}, not {src}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)
    (workloads.OUT_DIR / "figures").mkdir(parents=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(cpus), "cpu": max(cpus),
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV}}
    tally = Tally()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workloads, args, tally, info)
    finally:
        shutil.rmtree(workloads.OUT_DIR, ignore_errors=True)
    for msg in tally.failures[:20] + tally.self_test:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": not (tally.failures or tally.self_test),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
