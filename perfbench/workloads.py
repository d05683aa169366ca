"""The benchmark's workloads: the operations each pass runs, in an order
drawn from the seed, and the oracle that checks every result.

Every call into plap resolves its function through ``sys.modules`` at call
time, so the tracer's wrappers see the calls the benchmark itself makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import plap.cli  # noqa: F401  (loads every plap layer)
from plap.integrate import IntegrationConfig
from plap.params import ProblemParams
from plap.systems import PhaseState

HERE = Path(__file__).resolve().parent
ORACLE = json.loads((HERE / "oracle.json").read_text())
RECIPE_DIR = HERE.parent / "src" / "plap" / "recipes"
OUT_DIR = Path(".perfbench_out")


def api(layer: str):
    return sys.modules["plap." + layer]


@dataclass(frozen=True)
class Outcome:
    """What the untimed settle step makes of one call's result."""

    problems: list      # oracle mismatches; empty when the result is right
    output: bytes       # compared byte for byte between traced and untraced
    written: int = 0    # bytes of CSV / SVG data the call wrote


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]          # the timed call into plap
    settle: Callable[[object], Outcome]  # untimed: check and digest


# ---------------------------------------------------------------------------
# in-process CLI calls


@dataclass(frozen=True)
class CliRun:
    rc: int
    stdout: str
    stderr: str


def _cli(argv: list) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = api("cli").main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


def _rc_problems(run: CliRun) -> list:
    if run.rc != 0:
        return [f"exit code {run.rc}: {run.stderr.strip()}"]
    return []


def _key(*values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _param_flags(N, p, alpha, eps) -> list:
    return ["--N", str(N), "--p", f"{p:g}", "--alpha", f"{alpha:g}",
            "--eps", str(eps)]


def classify_op(N, p, alpha, eps) -> Op:
    """``plap classify``, checked against the recorded report."""
    key = _key(N, p, alpha, eps)
    want = ORACLE["classify"][key]
    rel = ORACLE["period_rel_tol"]

    def settle(run: CliRun) -> Outcome:
        problems = _rc_problems(run)
        if not problems:
            rep = json.loads(run.stdout)
            got = {"tag": rep["regime_tag"], "passed": rep["passed"],
                   "statuses": [c["status"] for c in rep["checks"]]}
            for field in ("tag", "passed", "statuses"):
                if got[field] != want[field]:
                    problems.append(f"{field} {got[field]!r} != {want[field]!r}")
            periods = [c["period_tau"] for c in rep["cycles"]]
            if len(periods) != len(want["periods"]):
                problems.append(f"{len(periods)} cycles != {len(want['periods'])}")
            else:
                for got_t, want_t in zip(periods, want["periods"]):
                    if not abs(got_t - want_t) <= rel * abs(want_t):
                        problems.append(f"cycle period {got_t!r} != {want_t!r}")
        return Outcome([f"classify {key}: {m}" for m in problems],
                       run.stdout.encode())

    return Op(f"classify {key}",
              lambda: _cli(["classify", *_param_flags(N, p, alpha, eps)]),
              settle)


def alpha_c_op(N, p, force_bisection=False) -> Op:
    """``plap alpha-c``: the N = 1 closed form -(p-1)/(p-2), otherwise the
    recorded value."""
    argv = ["alpha-c", "--N", str(N), "--p", f"{p:g}"]
    if force_bisection:
        argv.append("--force-bisection")
    want = (-(p - 1.0) / (p - 2.0) if N == 1
            else ORACLE["alpha_c"][_key(N, p)])
    tol = ORACLE["alpha_c_abs_tol"]

    def settle(run: CliRun) -> Outcome:
        problems = _rc_problems(run)
        if not problems:
            got = json.loads(run.stdout)["alpha_c"]
            if not abs(got - want) <= tol:
                problems.append(f"alpha_c {got!r} != {want!r}")
        return Outcome([f"alpha-c {_key(N, p)}: {m}" for m in problems],
                       run.stdout.encode())

    return Op(" ".join(argv), lambda: _cli(argv), settle)


def _file_outputs(run: CliRun, out: Path, label: str):
    """Check a file-producing run's manifest; return (problems, digest
    bytes, data bytes written).  The manifest's wall time is left out of
    the digest because it differs between any two runs."""
    problems = _rc_problems(run)
    blob = [run.stdout.encode()]
    written = 0
    if not problems:
        mpath = out.parent / (out.stem + ".manifest.json")
        manifest = json.loads(mpath.read_text())
        manifest.pop("wall_time")
        blob.append(json.dumps(manifest, sort_keys=True).encode())
        for entry in manifest["outputs"]:
            data = Path(entry["path"]).read_bytes()
            written += len(data)
            blob.append(data)
            if not data:
                problems.append(f"{entry['path']} is empty")
            if hashlib.sha256(data).hexdigest() != entry["sha256"]:
                problems.append(f"{entry['path']} does not match its sha256")
    return [f"{label}: {m}" for m in problems], b"\0".join(blob), written


def portrait_op(recipe: str) -> Op:
    """``plap portrait``: manifest checksums, non-empty SVG, 2 arcs per seed."""
    n_seeds = len(json.loads((RECIPE_DIR / f"{recipe}.json").read_text())["seeds"])
    out = OUT_DIR / "figures" / f"{recipe}.svg"
    argv = ["portrait", "--recipe", recipe, "--out", str(out)]

    def settle(run: CliRun) -> Outcome:
        problems, blob, written = _file_outputs(run, out, f"portrait {recipe}")
        if run.rc == 0 and f"({2 * n_seeds} arcs)" not in run.stdout:
            problems.append(f"portrait {recipe}: expected {2 * n_seeds} arcs, "
                            f"got {run.stdout.strip()!r}")
        return Outcome(problems, blob, written)

    return Op(f"portrait {recipe}", lambda: _cli(argv), settle)


def shoot_op(kind: str, N, p, alpha, eps, repeat: int = 0) -> Op:
    """``plap shoot --out``: manifest checksums, non-empty CSV files."""
    out = OUT_DIR / "figures" / f"shoot-{kind}.csv"
    argv = ["shoot", "--kind", kind, *_param_flags(N, p, alpha, eps),
            "--out", str(out)]

    def settle(run: CliRun) -> Outcome:
        return Outcome(*_file_outputs(run, out, f"shoot {kind}"))

    return Op(f"shoot {kind} #{repeat}", lambda: _cli(argv), settle)


# ---------------------------------------------------------------------------
# library calls: the criterion-8 zero-count draws

SWEEP_CONFIG = IntegrationConfig(rel_tol=1e-6, abs_tol=1e-9)


def _orbit_digest(traj, n: int) -> bytes:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.tau).tobytes())
    h.update(np.ascontiguousarray(traj.ys).tobytes())
    h.update(f"{traj.termination} {len(traj.events)} {n}".encode())
    return h.digest()


def zero_count_op(name: str, params: ProblemParams, start, lo: int, hi: float) -> Op:
    """One criterion-8 draw: ``integrate_s`` over tau 15 from ``start``, or
    ``shoot_regular`` over tau 30 when ``start`` is None, then
    ``count_sign_changes``; the count must lie in [lo, hi]."""

    def call():
        if start is None:
            traj = api("trajectories").shoot_regular(
                params, config=SWEEP_CONFIG, tau_span=30.0,
                consistency_check=False)
        else:
            traj = api("integrate").integrate_s(
                PhaseState(0.0, *start), params, direction=1,
                config=SWEEP_CONFIG, tau_span=15.0)
        return traj, api("analysis").count_sign_changes(traj)

    def settle(result) -> Outcome:
        traj, n = result
        problems = [] if lo <= n <= hi else [
            f"{name}: {n} zeros outside [{lo}, {hi}] at (N={params.N}, "
            f"p={params.p!r}, alpha={params.alpha!r}, eps={params.epsilon})"]
        return Outcome(problems, _orbit_digest(traj, n))

    return Op(name, call, settle)


def criterion8_draws() -> list:
    """The 600 draws of acceptance criterion 8, in its order: the same
    generator (seed 0), the same three families and ranges and the same
    skips as ``test_criterion_8_zero_count_properties``.

    Fresh draws in these ranges can hit the unbounded ``_cross_axis``
    solve of ROADMAP item 2 (e.g. ``shoot_regular`` at N=1, p=2.3033,
    alpha=1.1361, eps=+1 did not return within 60 s), so the sweep runs
    the criterion's own orbits, which the tier-1 suite checks on every
    change.
    """
    rng = np.random.default_rng(0)
    ops = []
    # forward sign, alpha <= N: at most one simple zero
    for i in range(200):
        N = int(rng.integers(1, 4))
        p = float(rng.uniform(2.3, 5.0))
        alpha = float(rng.uniform(-3.0, N))
        if abs(alpha) < 1e-3:
            continue
        start = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        if abs(start[0]) + abs(start[1]) < 1e-3:
            continue
        ops.append(zero_count_op(f"le1 #{i}", ProblemParams(N, p, alpha, 1),
                                 start, 0, 1))
    # backward sign, -p' <= alpha < min(0, eta): at most two zeros
    for i in range(200):
        p = float(rng.uniform(2.3, 5.0))
        dc = api("params").derive_constants(ProblemParams(1, p, -1.0, -1))
        alpha = float(rng.uniform(-dc.p_prime, min(0.0, dc.eta) - 1e-6))
        start = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        if abs(start[0]) + abs(start[1]) < 1e-3:
            continue
        ops.append(zero_count_op(f"le2 #{i}", ProblemParams(1, p, alpha, -1),
                                 start, 0, 2))
    # forward sign, alpha > N: every regular orbit changes sign
    for i in range(200):
        N = int(rng.integers(1, 4))
        p = float(rng.uniform(2.3, 5.0))
        alpha = float(rng.uniform(N + 0.05, N + 8.0))
        ops.append(zero_count_op(f"ge1 #{i}", ProblemParams(N, p, alpha, 1),
                                 None, 1, math.inf))
    return ops


# ---------------------------------------------------------------------------
# workloads

CYCLE_REPORTS = [(1, 3.0, -4.0, -1), (1, 3.0, -2.53, -1),    # osc, sou
                 (1, 3.0, -2.1, -1), (1, 3.0, -2.0, -1)]     # orb, clin
SHORT_REPORTS = [(2, 3.0, 1.0, 1), (2, 3.0, -6.0, 1),        # pin, mel
                 (1, 3.0, 0.7, -1), (1, 3.0, -0.7, -1),      # int, pom
                 (1, 3.0, -1.9, -1)]                         # ent
ALPHA_C_CASES = [(2, 3.0), (3, 3.0), (2, 4.0), (2, 2.5)]
PORTRAITS = ["fig05", "fig01", "fig06", "fig07", "fig17"]
SHOOTS = [("T_r", 2, 3.0, 2.0, 1), ("T_eps", 2, 3.0, 1.0, 1),
          ("T_alpha", 1, 3.0, -2.53, -1), ("T_eta", 4, 3.0, 1.0, 1),
          ("T_u", 2, 3.0, 1.0, 1), ("T_plus", 1, 3.0, 1.0, 1),
          ("T_minus", 2, 3.0, 1.0, 1)]
# Each shooting takes 20-100 ms, short enough for the machine's speed to
# change under it; repeating them lets op_p50_ms, which falls among them,
# rest on many samples.
SHOOT_REPEATS = 8


def _cycles() -> list:
    return [classify_op(*c) for c in CYCLE_REPORTS]


def _sweep() -> list:
    return criterion8_draws() + [classify_op(*c) for c in SHORT_REPORTS]


def _alpha_c() -> list:
    return ([alpha_c_op(N, p) for N, p in ALPHA_C_CASES]
            + [alpha_c_op(1, 3.0, force_bisection=True),
               classify_op(2, 3.0, -1.8, -1)])


def _figures() -> list:
    return ([portrait_op(r) for r in PORTRAITS]
            + [shoot_op(*s, k) for s in SHOOTS for k in range(SHOOT_REPEATS)])


OP_LISTS = {"cycles": _cycles, "sweep": _sweep, "alpha-c": _alpha_c,
            "figures": _figures}

# spans and solver bindings each workload must fire in the traced run
EXPECTED_SPANS = {
    "cycles": {"cli.main", "analysis.classify_regime",
               "analysis.detect_limit_cycle", "analysis.phi_of_alpha",
               "trajectories.shoot_regular", "trajectories.shoot_double_zero",
               "trajectories.shoot_T_alpha", "integrate.integrate_s",
               "systems.phi_Y", "params.derive_constants",
               "solve_ivp@integrate", "solve_ivp@trajectories",
               "solve_ivp@analysis"},
    "sweep": {"cli.main", "analysis.classify_regime",
              "analysis.count_sign_changes", "trajectories.shoot_regular",
              "integrate.integrate_s", "systems.phi_Y",
              "params.derive_constants", "solve_ivp@integrate",
              "solve_ivp@trajectories"},
    "alpha-c": {"cli.cmd_alpha_c", "analysis.find_alpha_c",
                "analysis.phi_of_alpha", "analysis.classify_regime",
                "params.derive_constants", "solve_ivp@analysis"},
    "figures": {"cli.cmd_portrait", "cli.cmd_shoot",
                "trajectories.shoot_regular", "trajectories.shoot_double_zero",
                "trajectories.shoot_T_alpha", "trajectories.shoot_T_eta_or_u",
                "trajectories.shoot_T_pm", "integrate.integrate_s",
                "systems.phi_Y", "solve_ivp@integrate",
                "solve_ivp@trajectories"},
}


def build(workload: str, seed: int, pass_index: int) -> list:
    """The operations of one pass: a fixed set of cases per workload, in
    an order drawn from the seed and the pass index."""
    rng = np.random.default_rng([seed, pass_index])
    ops = OP_LISTS[workload]()
    return [ops[i] for i in rng.permutation(len(ops))]


def first_call() -> None:
    """The small call that finishes lazy set-up before anything is timed."""
    api("integrate").integrate_s(PhaseState(0.0, 0.05, 0.0),
                                 ProblemParams(1, 3.0, -4.0, -1), tau_span=1.0)
