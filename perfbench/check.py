"""Checks on the benchmark itself.

    python3 perfbench/check.py spread --workload sweep --seeds 1-10
        Run the end-to-end benchmark once per seed and print, per metric,
        the median, quartiles and quartile spread (q3 - q1) / median; the
        last line holds the same summary as JSON.
    python3 perfbench/check.py steady --workload cycles --seed 7
        Run the traced benchmark twice with one seed; every
        machine-independent counter must repeat exactly.
    python3 perfbench/check.py selftest
        Check the tracer's interposition: every binding of a public plap
        function, found through sys.modules, is wrapped while the tracer is
        active and restored afterwards.

Run from the root of a source checkout.  Exit status 0 means the check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metrics that count work and must not depend on the machine
COUNTERS = ("systems.phi_Y.calls", "integrate.calls", "integrate.tau",
            "integrate.samples", "integrate.axis_crossings",
            "integrate.time_span_share", "integrate.solver_calls",
            "integrate.nfev", "integrate.steps", "integrate.step_accept_ratio",
            "trajectories.calls", "trajectories.solver_calls",
            "trajectories.nfev", "analysis.phi_evals", "analysis.phi_nfev",
            "analysis.alpha_c_iterations", "cli.bytes_written")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run as the harness makes it; its last stdout line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def spread(args) -> int:
    runs = []
    for seed in _seeds(args.seeds):
        r = bench(args.workload, seed, _run_seconds(), 0)
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/"
              f"{r['attempted']} wall={r['wall_s']:.1f}s " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={summary[name]['spread']:.4f}")
    print(json.dumps({args.workload: summary}))
    return 0 if all(r["correct"] for r in runs) else 1


def steady(args) -> int:
    first = bench(args.workload, args.seed, _run_seconds(), 1)
    second = bench(args.workload, args.seed, _run_seconds(), 1)
    bad = [name for name in COUNTERS
           if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    for name in COUNTERS:
        a, b = (r["metrics"][name]["value"] for r in (first, second))
        print(f"{name:30s} {a!r:>24} {b!r:>24}{'  DIFFERS' if a != b else ''}")
    ok = not bad and first["correct"] and second["correct"]
    print(f"{args.workload}: counters {'repeat' if not bad else 'differ'}; "
          f"correct={first['correct']},{second['correct']}")
    return 0 if ok else 1


def selftest(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.integrate

    import plap.cli  # noqa: F401  (loads every layer)
    import plap.integrate as shadowed
    from tracer import LAYERS, Tracer, binding_sites, layer_module, public_functions

    problems = []
    # the package's integrate() function hides the submodule of that name
    if not callable(shadowed) or layer_module("integrate") is shadowed:
        problems.append("expected `import plap.integrate` to bind the function")
    originals = {}
    for layer in LAYERS:
        for name, fn in public_functions(layer_module(layer)):
            originals[f"{layer}.{name}"] = (fn, binding_sites(fn))
    shared = {k: v for k, v in originals.items() if len(v[1]) > 1}
    if "integrate.integrate_s" not in shared:
        problems.append("integrate_s should be bound in several namespaces")
    with Tracer():
        for key, (fn, sites) in originals.items():
            for mod, name in sites:
                if getattr(mod, name) is fn:
                    problems.append(f"{key} left unwrapped in {mod.__name__}")
        for layer in ("integrate", "trajectories", "analysis"):
            if layer_module(layer).solve_ivp is scipy.integrate.solve_ivp:
                problems.append(f"solve_ivp left unwrapped in plap.{layer}")
    for key, (fn, sites) in originals.items():
        for mod, name in sites:
            if getattr(mod, name) is not fn:
                problems.append(f"{key} not restored in {mod.__name__}")
    for layer in ("integrate", "trajectories", "analysis"):
        if layer_module(layer).solve_ivp is not scipy.integrate.solve_ivp:
            problems.append(f"solve_ivp not restored in plap.{layer}")
    for p in problems:
        print("FAILED", p)
    print(f"selftest: {len(originals)} public functions, {len(shared)} bound "
          f"in more than one namespace, {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    sp.set_defaults(fn=spread)
    sp = sub.add_parser("steady")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(fn=steady)
    sp = sub.add_parser("selftest")
    sp.set_defaults(fn=selftest)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
