"""Command-line surface: constants, integration, shooting, portraits,
the critical exponent, and the regime classifier.

Output formats
--------------
* trajectories: CSV with columns ``tau,y,Y,r,w,dw`` (12 significant
  digits), events in a sibling ``*.events.csv`` with ``kind,tau,y,Y``;
* reports: JSON with 17 significant digits (round-trip exact);
* portraits: plain-geometry SVG with 9 significant digits;
* every file-producing run emits a ``*.manifest.json`` listing each
  output with its SHA-256 checksum.

The environment variable ``PLAP_CONFIG`` may point at a ``key=value``
file setting the four :class:`~plap.integrate.IntegrationConfig` fields
(any other key is an error); ``--tol`` and ``--tau-max`` override it.  A
subcommand refuses a file key whose flag it does not take, as it refuses
the flag: ``max_time_span`` where there is no ``--tau-max``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import __version__
from .params import ParameterError, ProblemParams, derive_constants, m_ell_point
from .integrate import IntegrationConfig, PhaseState, Trajectory, integrate_s
from .trajectories import (
    DEFAULT_OFFSET,
    TRAJECTORY_KINDS,
    SpecialTrajectorySpec,
    IntegrationError,
    shoot,
)
from .analysis import (
    AnalysisError,
    BracketError,
    classify_regime,
    find_alpha_c,
)

SCHEMA_VERSION = 1
RECIPE_DIR = Path(__file__).parent / "recipes"

EXIT_BAD_PARAMS = 2

# rows per _nums call of the CSV and SVG writers; bytes per read of _sha256
BLOCK_ROWS, READ_BYTES = 4096, 1 << 16


# ---------------------------------------------------------------------------
# deterministic serialization


def _num(x: float, sig: int) -> str:
    """One number at ``sig`` significant digits, ``null`` when it is not
    finite (deterministic across runs).  The JSON reports render their
    floats with it; the CSV and SVG blocks use :func:`_nums`, which renders
    every value the same way."""
    if isinstance(x, float) and not math.isfinite(x):
        return "null"
    return format(float(x), f".{sig}g")


def _nums(values: Sequence[float], sig: int, per_row: int, sep: str,
          end: str) -> str:
    """The flat floats ``values`` as rows of ``per_row`` numbers joined by
    ``sep``, each row followed by ``end``, every number as :func:`_num`
    renders it.  One ``%`` format renders the whole block; a finite ``%g``
    rendering holds no ``n``, so the only ``inf`` and ``nan`` in it are the
    non-finite values, which become ``null`` (``sep`` and ``end`` must hold
    neither)."""
    row = sep.join([f"%.{sig}g"] * per_row) + end
    text = row * (len(values) // per_row) % tuple(values)
    return text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")


def _to_json(obj, sig: int = 17, indent: int = 0) -> str:
    """JSON text with floats at a fixed number of significant digits.

    The stdlib encoder renders floats with ``repr``; a hand-rolled walk
    over the (small, simple) report structures keeps the digit count and
    key order fixed so identical runs are byte-identical.
    """
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _num(float(obj), sig)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad1}{json.dumps(str(k))}: {_to_json(v, sig, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad1}{_to_json(v, sig, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"unserializable object of type {type(obj)!r}")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(READ_BYTES), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# parameter / config plumbing


def _build_params(args) -> ProblemParams:
    missing = [f for f in ("N", "p", "alpha", "eps")
               if getattr(args, f, None) is None]
    if missing:
        raise ParameterError("missing required flags: " +
                             ", ".join("--" + m for m in missing))
    return ProblemParams(N=args.N, p=args.p, alpha=args.alpha, epsilon=args.eps)


def _build_config(args) -> IntegrationConfig:
    overrides: dict = {}
    cfg_file = os.environ.get("PLAP_CONFIG")
    if cfg_file:
        valid = get_type_hints(IntegrationConfig)
        for line in Path(cfg_file).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line {line!r} "
                                     f"in {cfg_file}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in valid:
                raise ParameterError(f"unknown config key {key!r} in {cfg_file}")
            # the parser gives args the dests of the flags this subcommand takes
            if key == "max_time_span" and not hasattr(args, "tau_max"):
                raise ParameterError(f"config key {key!r} in {cfg_file} is not read "
                                     f"by this command, which takes no --tau-max")
            try:
                value = float(val.strip())
            except ValueError:
                raise ParameterError(f"config key {key!r} in {cfg_file} "
                                     f"needs a number, got {val.strip()!r}"
                                     ) from None
            if valid[key] is int and not value.is_integer():
                raise ParameterError(f"config key {key!r} in {cfg_file} "
                                     f"needs a whole number, got {val.strip()!r}")
            overrides[key] = valid[key](value)
    if getattr(args, "tol", None) is not None:
        if not 0.0 < args.tol < math.inf:
            raise ParameterError(f"--tol must be positive and finite, got {args.tol}")
        overrides["rel_tol"] = args.tol
        overrides.setdefault("abs_tol", min(1e-10, args.tol))
    if getattr(args, "tau_max", None) is not None:
        overrides["max_time_span"] = args.tau_max
    try:
        return IntegrationConfig(**overrides)
    except ValueError as exc:
        raise ParameterError(str(exc)) from None


def _config_hash(cfg: IntegrationConfig) -> str:
    blob = ",".join(f"{f.name}={getattr(cfg, f.name)!r}"
                    for f in dataclasses.fields(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _params_dict(params: ProblemParams) -> dict:
    return {"N": params.N, "p": params.p, "alpha": params.alpha,
            "eps": params.epsilon}


# ---------------------------------------------------------------------------
# CSV / SVG emission


def _write_rows(f, n: int, values, sig: int, per_row: int, sep: str, end: str,
                labels: Sequence[str] = (), trim: bool = False) -> None:
    """Write rows ``0..n`` to the text file ``f``, ``BLOCK_ROWS`` at a time:
    one :func:`_nums` call renders the flat floats ``values(slice)`` of a
    block's rows; each row follows its entry of ``labels`` if there are
    labels, and ``trim`` drops the last row's ``end``."""
    for i in range(0, n, BLOCK_ROWS):
        s = slice(i, i + BLOCK_ROWS)
        text = _nums(values(s), sig, per_row, sep, end)
        if labels:
            text = "".join(k + row + end for k, row in zip(labels[s], text.split(end)))
        f.write(text[:-len(end)] if trim and i + BLOCK_ROWS >= n else text)


def _write_trajectory_csv(traj: Trajectory, out: Path) -> list[Path]:
    def values(s):
        part = dataclasses.replace(traj, tau=traj.tau[s], ys=traj.ys[:, s])
        return np.column_stack((part.tau, *part.ys, *part.profile())).ravel().tolist()

    with out.open("w") as f:
        f.write("tau,y,Y,r,w,dw\n")
        _write_rows(f, traj.tau.size, values, 12, 6, ",", "\n")
    ev_path = out.with_name(out.stem + ".events.csv")
    with ev_path.open("w") as f:
        f.write("kind,tau,y,Y\n")
        _write_rows(f, len(traj.events), lambda s: [
            v for ev in traj.events[s] for v in (ev.time, ev.state.y, ev.state.Y)],
            12, 3, ",", "\n", labels=[ev.kind + "," for ev in traj.events])
    return [out, ev_path]


def _write_portrait_svg(trajs: Sequence[Trajectory], params: ProblemParams,
                        out: Path) -> None:
    """Phase-plane polylines with the stationary points marked; plain
    geometry, no scripts, 9 significant digits."""
    points = [(0.0, 0.0)]
    m = m_ell_point(params)
    if m is not None:
        points += [m, (-m[0], -m[1])]

    # view bounds from the bulk of the samples (2nd..98th percentile) so a
    # single escaping arc does not collapse everything else to one pixel;
    # one coordinate's samples at a time, partitioned in place
    lo_hi = [np.percentile(np.concatenate([t.ys[k] for t in trajs] or [np.zeros(1)]),
                           (2.0, 98.0), overwrite_input=True) for k in (0, 1)]
    xs = [p[0] for p in points] + list(lo_hi[0])
    ys = [p[1] for p in points] + list(lo_hi[1])
    span_x = max(max(xs) - min(xs), 1e-3)
    span_y = max(max(ys) - min(ys), 1e-3)
    x0, y0 = min(xs) - 0.05 * span_x, min(ys) - 0.05 * span_y
    span_x *= 1.1
    span_y *= 1.1
    width = 640.0
    height = 480.0

    def to_px(y, Y):
        # clamp to one frame beyond the viewBox: escaping arcs stay legal
        # SVG without astronomically large coordinates
        px = np.minimum(np.maximum((np.asarray(y) - x0) / span_x * width, -width),
                        2.0 * width)
        py = np.minimum(np.maximum(height - (np.asarray(Y) - y0) / span_y * height,
                                   -height), 2.0 * height)
        return np.column_stack((px, py)).ravel().tolist()

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf", "#7f7f7f"]
    with out.open("w") as f:
        f.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
                f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">\n'
                f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>\n')
        for i, t in enumerate(trajs):
            f.write('<polyline points="')
            _write_rows(f, t.tau.size, lambda s: to_px(*t.ys[:, s]), 9, 2, ",", " ",
                        trim=True)
            f.write(f'" fill="none" stroke="{palette[i % len(palette)]}" '
                    f'stroke-width="1"/>\n')
        _write_rows(f, len(points), lambda s: to_px(*zip(*points[s])), 9, 2, '" cy="',
                    '" r="3" fill="black"/>\n', labels=['<circle cx="'] * len(points))
        f.write("</svg>\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    params = _build_params(args)
    dc = derive_constants(params)
    rec = dataclasses.asdict(dc)
    rec["ell_exists"] = dc.ell is not None
    rec["alpha_2_exists"] = dc.alpha_2 is not None
    rec["nu_alpha_exists"] = dc.nu_alpha is not None
    out = {"schema_version": SCHEMA_VERSION, "params": _params_dict(params),
           "constants": rec}
    print(_to_json(out))
    return 0


def _write_manifest(command: str, params: ProblemParams, cfg: IntegrationConfig,
                    files: list[Path], t_start: float) -> Path:
    """Write the run's manifest beside its first output (what was asked,
    with which configuration, and the checksum of every file written);
    return its path."""
    manifest = {"command": command, "params": _params_dict(params),
                "config_hash": _config_hash(cfg), "tool_version": __version__,
                "outputs": [{"path": str(f), "sha256": _sha256(f)} for f in files],
                "wall_time": time.monotonic() - t_start}
    mpath = files[0].parent / (files[0].stem + ".manifest.json")
    mpath.write_text(_to_json(manifest) + "\n")
    return mpath


def _emit(traj: Trajectory, args, command: str, params: ProblemParams,
          cfg: IntegrationConfig, t_start: float) -> int:
    out = Path(args.out) if args.out else Path(f"{command}.csv")
    files = _write_trajectory_csv(traj, out)
    mpath = _write_manifest(command, params, cfg, files, t_start)
    print(f"wrote {', '.join(str(f) for f in files)} and {mpath}")
    print(f"termination: {traj.termination}  samples: {traj.tau.size}  "
          f"events: {len(traj.events)}")
    return 0


def cmd_integrate(args) -> int:
    t_start = time.monotonic()
    params = _build_params(args)
    cfg = _build_config(args)
    derive_constants(params)  # rejects alpha = 0 before any integration
    state = PhaseState(args.tau0, args.y0, args.Y0)
    traj = integrate_s(state, params, direction=args.direction, config=cfg)
    return _emit(traj, args, "integrate", params, cfg, t_start)


def cmd_shoot(args) -> int:
    t_start = time.monotonic()
    params = _build_params(args)
    cfg = _build_config(args)
    # the spec refuses a flag its kind does not read, shoot() a kind the
    # regime does not provide, and shoot_T_pm a c at p = N
    spec = SpecialTrajectorySpec(args.kind, offset=args.offset, a=args.a, c=args.c)
    # one launch: the offset/2 rerun only fills meta["offset_consistency"],
    # which no output reads
    traj = shoot(spec, params, cfg, consistency_check=False)
    return _emit(traj, args, f"shoot-{args.kind}", params, cfg, t_start)


def _seed(values, where: str) -> tuple[float, float]:
    """The seed (y, Y) of two numbers; ``where`` names the input otherwise."""
    try:
        y, Y = (float(v) for v in values)
    except (TypeError, ValueError):
        raise ParameterError(f"{where}: a seed is two numbers 'y Y', "
                             f"got {values!r}") from None
    return y, Y


def _load_recipe(args) -> tuple[ProblemParams, list]:
    """Parameters and seed states from --recipe / --seed-file / flags."""
    seeds: list = []
    if args.recipe:
        path = Path(args.recipe)
        if not path.exists():
            path = RECIPE_DIR / f"{args.recipe}.json"
        if not path.exists():
            raise ParameterError(f"unknown recipe {args.recipe!r}")
        try:
            rec = json.loads(path.read_text())
            params = ProblemParams(N=rec["N"], p=rec["p"], alpha=rec["alpha"],
                                   epsilon=rec["eps"])
            seeds = [_seed(s, f"seed {k}") for k, s in enumerate(rec.get("seeds", []))]
        except KeyError as exc:
            raise ParameterError(f"recipe {path} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:  # malformed JSON, values or seeds
            raise ParameterError(f"recipe {path}: {exc}") from None
    else:
        params = _build_params(args)
    if args.seed_file:
        seeds = []
        for k, line in enumerate(Path(args.seed_file).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                seeds.append(_seed(line.replace(",", " ").split(),
                                   f"{args.seed_file}:{k}"))
    return params, seeds


def cmd_portrait(args) -> int:
    t_start = time.monotonic()
    params, seeds = _load_recipe(args)
    cfg = _build_config(args)
    derive_constants(params)
    # an arc whose negated seed was integrated in the same direction is its
    # twin's mirror (Trajectory.negated); such an arc only reaches the SVG,
    # where the sign of an exact zero does not show
    trajs, integrated = [], {}
    for (y, Y) in seeds:
        for direction in (1, -1):
            twin = integrated.get((-y, -Y, direction))
            if twin is not None:
                trajs.append(twin.negated())
                continue
            trajs.append(integrate_s(PhaseState(0.0, y, Y), params,
                                     direction=direction, config=cfg))
            integrated[(y, Y, direction)] = trajs[-1]
    out = Path(args.out) if args.out else Path("portrait.svg")
    _write_portrait_svg(trajs, params, out)
    mpath = _write_manifest("portrait", params, cfg, [out], t_start)
    print(f"wrote {out} and {mpath} ({len(trajs)} arcs)")
    return 0


def cmd_alpha_c(args) -> int:
    if args.N is None or args.p is None:
        raise ParameterError("alpha-c requires --N and --p")
    cfg = _build_config(args)
    try:
        res = find_alpha_c(args.N, args.p, config=cfg,
                           force_bisection=args.force_bisection)
    except BracketError as exc:
        out = {"schema_version": SCHEMA_VERSION, "error": str(exc),
               "phi_at_ends": getattr(exc, "phi_at_ends", None),
               "bracket": getattr(exc, "bracket", None)}
        print(_to_json(out))
        return 1
    out = {"schema_version": SCHEMA_VERSION,
           "N": args.N, "p": args.p,
           "alpha_c": res.value,
           "bracket": list(res.bracket),
           "iterations": res.iterations,
           "phi_at_ends": list(res.phi_at_ends),
           "method": res.method}
    print(_to_json(out))
    return 0


def cmd_classify(args) -> int:
    params = _build_params(args)
    cfg = _build_config(args)
    report = classify_regime(params, config=cfg)
    dc = report.constants
    const_rec = dataclasses.asdict(dc)
    out = {
        "schema_version": SCHEMA_VERSION,
        "params": _params_dict(params),
        "constants": const_rec,
        "regime_tag": report.theorem_tag,
        "stationary_points": [
            {"point_id": sp.point_id,
             "location": list(sp.location),
             "local_type": sp.local_type,
             "eigenvalues": (None if sp.eigenvalues is None else
                             [[z.real, z.imag] for z in sp.eigenvalues]),
             "eigenvectors": (None if sp.eigenvectors is None else
                              [list(v) for v in sp.eigenvectors])}
            for sp in report.stationary_points],
        "trajectories": report.trajectories,
        "cycles": [
            {"section": c.section,
             "fixed_point": c.fixed_point,
             "period_tau": c.period_tau,
             "stability": c.stability,
             "floquet_mean": c.floquet_mean,
             "source": c.meta.get("source")}
            for c in report.cycles],
        "checks": [
            {"clause": desc, "source_theorem": report.theorem_tag,
             "status": status}
            for desc, status in report.checks],
        "phi_value": report.phi_value,
        "alpha_c_bracket": (list(report.alpha_c_bracket)
                            if report.alpha_c_bracket else None),
        "passed": report.passed(),
    }
    print(_to_json(out))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_param_flags(sp, need_alpha=True, tol=True, tau_max=True):
    """The parameter flags, and the settings the subcommand reads: --tol
    where it integrates, --tau-max where it integrates over a tau span."""
    sp.add_argument("--N", type=int, help="space dimension (integer >= 1)")
    sp.add_argument("--p", type=float, help="diffusion exponent (> 2)")
    if need_alpha:
        sp.add_argument("--alpha", type=float, help="similarity exponent")
        sp.add_argument("--eps", type=int, choices=(-1, 1),
                        help="time-direction sign")
    if tol:
        sp.add_argument("--tol", type=float, help="relative tolerance override")
    if tau_max:
        sp.add_argument("--tau-max", dest="tau_max", type=float,
                        help="maximum tau span")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It keeps no function: :func:`main`
    looks the subcommand's ``cmd_*`` function up in this module by name at
    call time, so a replaced ``cmd_*`` binding is the one that runs."""
    ap = argparse.ArgumentParser(
        prog="plap",
        description="Phase-plane analysis of radial self-similar profiles "
                    "of the p-Laplacian heat equation (p > 2).")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="closed-form derived constants")
    _add_param_flags(sp, tol=False, tau_max=False)

    sp = sub.add_parser("integrate", help="integrate from an explicit state")
    _add_param_flags(sp)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--Y0", type=float, required=True)
    sp.add_argument("--tau0", type=float, default=0.0)
    sp.add_argument("--direction", type=int, choices=(-1, 1), default=1)
    sp.add_argument("--out", help="CSV output path")

    sp = sub.add_parser("shoot", help="construct a special trajectory")
    _add_param_flags(sp)
    sp.add_argument("--kind", required=True, choices=TRAJECTORY_KINDS)
    sp.add_argument("--a", type=float, help="amplitude, default 1 (T_r: w(0); T_eps: "
                    "edge radius; T_plus/T_minus: w(0), at p = N lim w/|ln r|)")
    sp.add_argument("--c", type=float, help="tail coefficient of T_plus/T_minus "
                    "at p > N (default +1/-1)")
    sp.add_argument("--offset", type=float,
                    help="launch offset from the organizing point "
                    f"(default {DEFAULT_OFFSET:g}; not T_plus/T_minus)")
    sp.add_argument("--out", help="CSV output path")

    sp = sub.add_parser("portrait", help="render a phase portrait SVG")
    _add_param_flags(sp)
    sp.add_argument("--recipe", help="recipe name (fig01..fig17) or path")
    sp.add_argument("--seed-file", dest="seed_file",
                    help="file of seed states, one 'y Y' pair per line")
    sp.add_argument("--out", help="SVG output path")

    sp = sub.add_parser("alpha-c", help="critical exponent: root of the "
                        "connection function by Brent's method")
    _add_param_flags(sp, need_alpha=False, tau_max=False)
    sp.add_argument("--force-bisection", action="store_true",
                    help="search for the root even when a closed form "
                         "is available (N = 1)")

    sp = sub.add_parser("classify", help="full regime report as JSON")
    _add_param_flags(sp)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (AnalysisError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
