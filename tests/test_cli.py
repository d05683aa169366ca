"""Command-line surface: JSON/CSV/SVG emission, manifests, exit codes,
and determinism."""

import argparse
import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plap import cli, trajectories
from plap.cli import RECIPE_DIR, _build_config, main
from plap.integrate import Event, IntegrationConfig, Trajectory, integrate_s
from plap.params import ParameterError, ProblemParams, m_ell_point
from plap.systems import PhaseState
from plap.trajectories import SpecialTrajectorySpec, shoot


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstants:
    def test_valid_parameters(self, capsys):
        code, out, _ = run(capsys, "constants", "--N", "1", "--p", "3",
                           "--alpha", "-4", "--eps", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["constants"]["gamma"] == 3
        assert doc["constants"]["alpha_star"] == pytest.approx(-15.0 / 7.0)
        assert doc["constants"]["ell"] is None

    def test_invalid_exponent(self, capsys):
        code, _, err = run(capsys, "constants", "--N", "1", "--p", "2",
                           "--alpha", "1", "--eps", "1")
        assert code == 2
        assert "p must exceed 2" in err

    @pytest.mark.parametrize("argv", [
        ["constants", "--N", "2", "--p", "inf", "--alpha", "1", "--eps", "1"],
        ["alpha-c", "--N", "2", "--p", "inf"]])
    def test_infinite_exponent_is_declared(self, capsys, argv):
        # p = inf once gave null constants (exit 0), and alpha-c blamed alpha
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: p must exceed 2 and be finite, got inf"]

    def test_subcommand_is_looked_up_at_call_time(self, capsys, monkeypatch):
        # the parser is built once; a replaced cmd_* still receives the call
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_constants", lambda args: seen.append(args.p) or 0)
        for p in ("3", "4"):
            assert cli.main(["constants", "--N", "1", "--p", p,
                             "--alpha", "1", "--eps", "1"]) == 0
        assert seen == [3.0, 4.0]

    def test_zero_alpha(self, capsys):
        code, _, err = run(capsys, "constants", "--N", "1", "--p", "3",
                           "--alpha", "0", "--eps", "1")
        assert code == 2
        assert "alpha must be nonzero" in err

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "constants", "--N", "1", "--p", "3")
        assert code == 2
        assert "--alpha" in err


class TestShoot:
    def test_csv_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "orbit.csv"
        code, text, _ = run(capsys, "shoot", "--kind", "T_r", "--N", "2",
                            "--p", "3", "--alpha", "2", "--eps", "1",
                            "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,y,Y,r,w,dw"
        assert len(lines) > 50
        events = (tmp_path / "orbit.events.csv").read_text().splitlines()
        assert events[0] == "kind,tau,y,Y"
        manifest = json.loads((tmp_path / "orbit.manifest.json").read_text())
        assert list(manifest) == ["command", "params", "config_hash",
                                  "tool_version", "outputs", "wall_time"]
        for entry in manifest["outputs"]:
            digest = hashlib.sha256(
                open(entry["path"], "rb").read()).hexdigest()
            assert digest == entry["sha256"]

    def test_reproduces_closed_form_profile(self, capsys, tmp_path):
        out = tmp_path / "orbit.csv"
        run(capsys, "shoot", "--kind", "T_r", "--N", "2", "--p", "3",
            "--alpha", "2", "--eps", "1", "--out", str(out))
        rows = [line.split(",") for line in
                out.read_text().splitlines()[1:]]
        r = np.array([float(x[3]) for x in rows])
        w = np.array([float(x[4]) for x in rows])
        mask = (r >= 0.01) & (r <= 0.9 * 3.0 ** (2.0 / 3.0))
        exact = np.clip(1.0 - r[mask] ** 1.5 / 3.0, 0.0, None) ** 2
        assert np.max(np.abs(w[mask] - exact) / exact) <= 1e-6

    def test_double_zero_event_emitted(self, capsys, tmp_path):
        out = tmp_path / "edge.csv"
        code, _, _ = run(capsys, "shoot", "--kind", "T_eps", "--N", "2",
                         "--p", "3", "--alpha", "1", "--eps", "1",
                         "--out", str(out))
        assert code == 0
        assert "double_zero_capture" in (tmp_path / "edge.events.csv").read_text()

    @pytest.mark.parametrize("kind, N, p, alpha, eps", [
        ("T_r", 2, 3.0, 2.0, 1), ("T_eps", 2, 3.0, 1.0, 1),
        ("T_alpha", 1, 3.0, -2.53, -1), ("T_eta", 4, 3.0, 1.0, 1)])
    def test_one_launch(self, capsys, tmp_path, monkeypatch, kind, N, p, alpha, eps):
        # the CLI skips the offset/2 rerun, which only reports
        # meta["offset_consistency"]; the orbit it writes is the one the
        # library's default (rerun included) returns
        monkeypatch.delenv("PLAP_CONFIG", raising=False)
        launches = []
        name = {"T_eps": "_edge_phase", "T_alpha": "_stiff_phase"}.get(kind, "_chart_phase")
        phase = getattr(trajectories, name)

        def counted(*args, **kwargs):
            launches.append(args[0])
            return phase(*args, **kwargs)

        monkeypatch.setattr(trajectories, name, counted)
        out = tmp_path / "cli.csv"
        code, _, _ = run(capsys, "shoot", "--kind", kind, "--N", str(N),
                         "--p", f"{p:g}", "--alpha", f"{alpha:g}", "--eps", str(eps),
                         "--out", str(out))
        assert code == 0 and len(launches) == 1
        traj = shoot(SpecialTrajectorySpec(kind), ProblemParams(N, p, alpha, eps),
                     IntegrationConfig())
        assert len(launches) == 3 and "offset_consistency" in traj.meta
        cli._write_trajectory_csv(traj, tmp_path / "lib.csv")
        for name in ("{}.csv", "{}.events.csv"):
            assert ((tmp_path / name.format("cli")).read_bytes()
                    == (tmp_path / name.format("lib")).read_bytes())

    def test_inadmissible_kind(self, capsys, tmp_path):
        code, _, err = run(capsys, "shoot", "--kind", "T_u", "--N", "4",
                           "--p", "3", "--alpha", "1", "--eps", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "inadmissible" in err

    def test_determinism(self, capsys, tmp_path):
        args = ["shoot", "--kind", "T_r", "--N", "1", "--p", "3",
                "--alpha", "-4", "--eps", "-1", "--tau-max", "20"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.events.csv").read_bytes() == \
            (tmp_path / "b.events.csv").read_bytes()

    @pytest.mark.parametrize("kind, N, p, alpha, eps, code, message", [
        # the p > N corner chart overflows (kappa = N/|eta| is about 178)
        ("T_minus", 3, 3.0343, 3.0159, 1, 1, "corner chart overflows"),
        # the chart-parameter fixed point measures w(0) < 0
        ("T_minus", 3, 3.2934, 3.1684, -1, 1, "w(0)"),
        # the first seeded launch leaves chart R; a smaller seed succeeds
        ("T_alpha", 3, 2.6018, 2.1499, 1, 0, ""),
        # the first fixed-point launch point psi0 underflows (kappa is about
        # 178), so its lift is infinite
        ("T_plus", 3, 3.0343, 3.0159, 1, 1, "non-finite limits"),
        # scipy's event root search fails on a zero-length LSODA step of
        # the first seeded launch; a smaller seed succeeds
        ("T_alpha", 2, 3.3197, 1.9702, 1, 0, ""),
    ])
    def test_launch_failures_are_declared(self, capsys, tmp_path, kind, N, p,
                                          alpha, eps, code, message):
        got, _, err = run(capsys, "shoot", "--kind", kind, "--N", str(N),
                          "--p", str(p), "--alpha", str(alpha), "--eps", str(eps),
                          "--out", str(tmp_path / "x.csv"))
        assert got == code
        assert message in err
        assert len(err.splitlines()) == code  # one "error:" line on failure

    @pytest.mark.parametrize("kind, N, alpha, eps, message", [
        # the LSODA launch of T_alpha stops at its rhs-evaluation budget
        ("T_alpha", 1, -2.53, -1, "launch phase in chart R exceeded its budget"),
        # the stepper launch of T_eps at its step budget
        ("T_eps", 2, 1.0, 1, "launch phase in chart R: max_steps exceeded"),
    ])
    def test_launch_budget_is_declared(self, capsys, tmp_path, monkeypatch, kind,
                                       N, alpha, eps, message):
        cfg = tmp_path / "plap.cfg"
        cfg.write_text("max_steps = 1\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        code, _, err = run(capsys, "shoot", "--kind", kind, "--N", str(N),
                           "--p", "3", "--alpha", f"{alpha:g}", "--eps", str(eps),
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert message in err
        assert len(err.splitlines()) == 1  # one "error:" line, no traceback


    @pytest.mark.parametrize("kind, flag, value, message", [
        ("T_r", "--offset", "-1", "offset must be"),
        ("T_r", "--offset", "0", "offset must be"),
        ("T_r", "--offset", "nan", "offset must be"),
        ("T_r", "--offset", "inf", "offset must be"),
        ("T_r", "--a", "inf", "the regular family requires"),
        ("T_eps", "--a", "inf", "r_bar must be"),
        ("T_plus", "--a", "inf", "the flat-limit family requires"),
        ("T_plus", "--c", "nan", "the p > N flat-limit family requires"),
        # a flag the kind does not read is refused, not ignored
        ("T_alpha", "--a", "5", "--a does not apply to --kind T_alpha"),
        ("T_eta", "--a", "5", "--a does not apply to --kind T_eta"),
        ("T_u", "--a", "5", "--a does not apply to --kind T_u"),
        ("T_r", "--c", "1", "--c does not apply to --kind T_r"),
        ("T_alpha", "--c", "1", "--c does not apply to --kind T_alpha"),
        ("T_plus", "--offset", "1e-6", "--offset does not apply to --kind T_plus"),
        ("T_minus", "--offset", "1e-6", "--offset does not apply to --kind T_minus"),
    ])
    def test_bad_launch_input_is_declared(self, capsys, tmp_path, kind, flag,
                                          value, message):
        code, _, err = run(capsys, "shoot", "--kind", kind, "--N", "2",
                           "--p", "3", "--alpha", "1", "--eps", "1",
                           flag, value, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        # the flags set the spec's fields of the same names, and the error
        # names the field: the flag without its dashes
        assert err.startswith(f"error: {message.replace('--', '')}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, N, flags, message", [
        ("T_minus", 3, [], "T_minus is inadmissible at p = N"),
        ("T_plus", 3, ["--c", "5"], "c does not apply at p = N"),
        ("T_eta", 2, [], "T_eta is inadmissible at p > N"),
    ])
    def test_kind_outside_its_regime_is_declared(self, capsys, tmp_path, kind, N,
                                                 flags, message):
        code, _, err = run(capsys, "shoot", "--kind", kind, "--N", str(N),
                           "--p", "3", "--alpha", "1", "--eps", "1", *flags,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestIntegrate:
    def test_explicit_state(self, capsys, tmp_path):
        out = tmp_path / "arc.csv"
        code, _, _ = run(capsys, "integrate", "--N", "1", "--p", "3",
                         "--alpha", "-4", "--eps", "-1", "--y0", "0.05",
                         "--Y0", "0", "--tau-max", "20", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("tau,y,Y,r,w,dw")

    def test_config_file_round_trip(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rel_tol = 1e-9\nabs_tol = 1e-12  # tighter\n"
                       "max_steps = 500000\nmax_time_span = 80\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        # --tau-max overrides the file's span
        built = _build_config(argparse.Namespace(tau_max=5.0))
        assert built == IntegrationConfig(abs_tol=1e-12, rel_tol=1e-9,
                                          max_time_span=5.0, max_steps=500000)
        assert type(built.max_steps) is int
        out = tmp_path / "arc.csv"
        code, _, _ = run(capsys, "integrate", "--N", "1", "--p", "3",
                         "--alpha", "-4", "--eps", "-1", "--y0", "0.05",
                         "--Y0", "0", "--tau-max", "5", "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("line, message", [
        ("rel_tol = abc\n", "needs a number"),
        ("rel_tol = -1\n", "must be positive"),
        ("rel_tol = nan\n", "must be positive"),
    ])
    def test_bad_config_value(self, capsys, tmp_path, monkeypatch, line,
                              message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line)
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        code, _, err = run(capsys, "integrate", "--N", "1", "--p", "3",
                           "--alpha", "-4", "--eps", "-1", "--y0", "0.05",
                           "--Y0", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, max_steps", [("300", 300), ("1e6", 10 ** 6),
                                                  ("2.5", None), ("inf", None)])
    def test_max_steps_is_whole(self, tmp_path, monkeypatch, value, max_steps):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"max_steps = {value}\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        if max_steps is None:
            with pytest.raises(ParameterError, match="needs a whole number"):
                _build_config(argparse.Namespace())
        else:
            got = _build_config(argparse.Namespace()).max_steps
            assert got == max_steps and type(got) is int

    def test_max_steps_budget_message(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_steps = 150\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        code, _, err = run(capsys, "classify", "--N", "2", "--p", "3",
                           "--alpha", "-1.8", "--eps", "-1")
        assert code == 1
        assert "budget of 150 rhs evaluations" in err

    # the chart-S guards are fixed constants of plap.integrate, not keys
    @pytest.mark.parametrize("key", ["bogus", "y_axis_band", "max_step",
                                     "escape_threshold", "capture_radius",
                                     "origin_radius"])
    def test_bad_config_key(self, capsys, tmp_path, monkeypatch, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = 1\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        code, _, err = run(capsys, "integrate", "--N", "1", "--p", "3",
                           "--alpha", "-4", "--eps", "-1", "--y0", "0.05",
                           "--Y0", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert f"unknown config key {key!r}" in err


class TestPortrait:
    def test_all_recipes_exist(self):
        names = sorted(f.name for f in RECIPE_DIR.glob("fig*.json"))
        assert names == [f"fig{k:02d}.json" for k in range(1, 18)]
        for f in RECIPE_DIR.glob("fig*.json"):
            doc = json.loads(f.read_text())
            assert {"N", "p", "alpha", "eps", "seeds"} <= set(doc)

    def test_recipe_render(self, capsys, tmp_path):
        out = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "portrait", "--recipe", "fig06",
                         "--tau-max", "20", "--out", str(out))
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "<script" not in svg
        assert svg.count("<circle") == 3  # origin and the symmetric pair

    def test_empty_seed_list(self, capsys, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("")
        out = tmp_path / "empty.svg"
        code, _, _ = run(capsys, "portrait", "--N", "2", "--p", "3",
                         "--alpha", "-6", "--eps", "1",
                         "--seed-file", str(seeds), "--out", str(out))
        assert code == 0
        assert "<circle" in out.read_text()

    def test_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            run(capsys, "portrait", "--recipe", "fig06", "--tau-max", "10",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_recipe(self, capsys, tmp_path):
        code, _, err = run(capsys, "portrait", "--recipe", "fig99",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2

    @staticmethod
    def _count_integrations(monkeypatch):
        calls, real = [], cli.integrate_s

        def counted(state, *args, **kwargs):
            calls.append((state.y, state.Y, kwargs["direction"]))
            return real(state, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate_s", counted)
        return calls

    def test_negated_seeds_are_drawn_from_their_twins(self, capsys, tmp_path,
                                                      monkeypatch):
        # fig05's seeds (-0.5, 0) and (0, -0.3) negate (0.5, 0) and (0, 0.3)
        calls = self._count_integrations(monkeypatch)
        code, out, _ = run(capsys, "portrait", "--recipe", "fig05",
                           "--out", str(tmp_path / "fig05.svg"))
        assert code == 0
        assert "(12 arcs)" in out
        assert calls == [(y, Y, d) for y, Y in [(0.2, 0.0), (0.5, 0.0), (1.0, 0.0),
                                                (0.0, 0.3)] for d in (1, -1)]

    def test_derived_arcs_draw_the_same_svg(self, capsys, tmp_path, monkeypatch):
        # the negated pair in the other order: -1.05 M_ell is integrated, and
        # 1.05 M_ell, listed later, is drawn from it
        params = ProblemParams(2, 3.0, -6.0, 1)
        my, mY = m_ell_point(params)
        seeds = [(-1.05 * my, -1.05 * mY), (0.2, 0.05), (1.05 * my, 1.05 * mY)]
        seed_file = tmp_path / "seeds.txt"
        seed_file.write_text("".join(f"{y!r} {Y!r}\n" for y, Y in seeds))
        calls = self._count_integrations(monkeypatch)
        out = tmp_path / "derived.svg"
        code, _, _ = run(capsys, "portrait", "--N", "2", "--p", "3",
                         "--alpha", "-6", "--eps", "1", "--tau-max", "30",
                         "--seed-file", str(seed_file), "--out", str(out))
        assert code == 0
        assert [c[:2] for c in calls] == [seeds[0]] * 2 + [seeds[1]] * 2
        cfg = IntegrationConfig(max_time_span=30.0)
        every = [integrate_s(PhaseState(0.0, y, Y), params, direction=d, config=cfg)
                 for y, Y in seeds for d in (1, -1)]
        assert {t.termination for t in every} >= {"captured:M_ell",
                                                 "captured:minus_M_ell"}
        cli._write_portrait_svg(every, params, tmp_path / "every.svg")
        assert out.read_bytes() == (tmp_path / "every.svg").read_bytes()


    @pytest.mark.parametrize("text", ["0.1 0.2\n0.1 0.2 0.3\n",
                                      "# y Y\n0.1 abc\n"])
    def test_bad_seed_line_is_declared(self, capsys, tmp_path, text):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(text)
        code, _, err = run(capsys, "portrait", "--N", "2", "--p", "3",
                           "--alpha", "-6", "--eps", "1",
                           "--seed-file", str(seeds),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith(f"error: {seeds}:2: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ['{"N": 2, "p": 3.0',
                                      '{"N": 2, "p": 3.0, "alpha": -6.0}'])
    def test_bad_recipe_is_declared(self, capsys, tmp_path, text):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(text)
        code, _, err = run(capsys, "portrait", "--recipe", str(recipe),
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith(f"error: recipe {recipe}")
        assert err.count("\n") == 1


class TestWriters:
    """The CSV and SVG writers format whole columns; their per-sample
    loops are the reference, and the bytes must be equal."""

    PARAMS = ProblemParams(2, 3.0, -6.0, 1)

    def _orbits(self):
        # spirals with a few samples far outside the view on each side,
        # so that both pixel clamps act
        tau = np.linspace(0.0, 3.0, 301)
        out = []
        for scale in (0.3, -0.1):
            y = scale * np.exp(-tau) * np.cos(7.0 * tau)
            Y = scale * np.exp(-tau) * np.sin(7.0 * tau)
            y[::60], Y[30::60] = np.sign(scale) * 1e6, -np.sign(scale) * 1e6
            out.append(Trajectory(self.PARAMS, tau, np.vstack([y, Y]), [],
                                  "time_span", 1))
        return out

    def test_csv_rows(self, tmp_path):
        traj = self._orbits()[0]
        cli._write_trajectory_csv(traj, tmp_path / "o.csv")
        r, w, dw = traj.profile()
        want = ["tau,y,Y,r,w,dw"] + [
            ",".join(cli._num(v, 12) for v in (traj.tau[i], traj.ys[0][i],
                                               traj.ys[1][i], r[i], w[i], dw[i]))
            for i in range(traj.tau.size)]
        assert (tmp_path / "o.csv").read_text() == "\n".join(want) + "\n"

    def test_non_finite_rows_and_events(self, tmp_path):
        # r = e^tau overflows at tau 710 and 800: inf, -inf and nan reach
        # r, w and dw, and the writer renders each as null
        tau = np.array([0.0, 0.5, 709.0, 710.0, 800.0])
        ys = np.array([[0.2, -0.1, 0.3, -0.4, 0.0], [0.1, 0.0, -0.3, 0.2, 0.0]])
        events = [Event(kind, t, PhaseState(t, y, Y)) for kind, t, y, Y in
                  [("y_zero_crossing", 0.25, 0.0, 0.05),
                   ("max_time_span", 800.0, 0.0, -0.5),
                   ("blowup", math.inf, -math.inf, math.nan)]]
        traj = Trajectory(self.PARAMS, tau, ys, events, "time_span", 1)
        cli._write_trajectory_csv(traj, tmp_path / "o.csv")
        r, w, dw = traj.profile()
        assert np.isinf(r[3:]).all() and np.isnan(w[4]) and np.isnan(dw[4])
        assert (w[2], w[3], dw[2], dw[3]) == (math.inf, -math.inf, math.inf, -math.inf)
        want = ["tau,y,Y,r,w,dw"] + [
            ",".join(cli._num(v, 12) for v in (tau[i], ys[0][i], ys[1][i],
                                               r[i], w[i], dw[i]))
            for i in range(tau.size)]
        assert (tmp_path / "o.csv").read_text() == "\n".join(want) + "\n"
        want = ["kind,tau,y,Y"] + [
            ",".join([e.kind] + [cli._num(v, 12) for v in (e.time, e.state.y, e.state.Y)])
            for e in events]
        assert (tmp_path / "o.events.csv").read_text() == "\n".join(want) + "\n"

    def test_svg_pixels(self, tmp_path):
        trajs = self._orbits()
        cli._write_portrait_svg(trajs, self.PARAMS, tmp_path / "o.svg")
        svg = (tmp_path / "o.svg").read_text()
        points, px = _pixel_map(trajs, self.PARAMS)

        def text(y, Y):
            return tuple(cli._num(v, 9) for v in px(y, Y))

        want = [" ".join("%s,%s" % text(t.ys[0][j], t.ys[1][j])
                         for j in range(t.tau.size)) for t in trajs]
        got = re.findall(r'points="([^"]*)"', svg)
        assert got == want
        assert "1280," in got[0] and ",960" in got[0]
        assert "-640," in got[1] and ",-480" in got[1]
        circles = re.findall(r'cx="([^"]*)" cy="([^"]*)"', svg)
        assert circles == [text(*q) for q in points]


def _pixel_map(trajs, params):
    """The portrait's marked points and its pixel map, one sample at a
    time: the view spans the marked points and the 2nd..98th percentiles
    of the samples, and a pixel is clamped to one frame beyond it."""
    m = m_ell_point(params)
    points = [(0.0, 0.0)] + ([m, (-m[0], -m[1])] if m is not None else [])
    all_y = np.concatenate([t.ys[0] for t in trajs])
    all_Y = np.concatenate([t.ys[1] for t in trajs])
    xs = [q[0] for q in points] + list(np.percentile(all_y, (2.0, 98.0)))
    ys = [q[1] for q in points] + list(np.percentile(all_Y, (2.0, 98.0)))
    span_x = max(max(xs) - min(xs), 1e-3)
    span_y = max(max(ys) - min(ys), 1e-3)
    x0, y0 = min(xs) - 0.05 * span_x, min(ys) - 0.05 * span_y
    span_x *= 1.1
    span_y *= 1.1

    def px(y, Y):
        return (min(max((y - x0) / span_x * 640.0, -640.0), 1280.0),
                min(max(480.0 - (Y - y0) / span_y * 480.0, -480.0), 960.0))

    return points, px


B = cli.BLOCK_ROWS
BLOCK_EDGE_COUNTS = [1, B - 1, B, B + 1, 2 * B + 1]


def _block_edge_orbit(n: int, non_finite: float, events: bool = True):
    """A spiral of ``n`` samples whose first and last sample of every block
    hold ``non_finite`` (y) and its negation (Y), with an event at each
    sample if ``events``; tau runs past 709.78, so r = e^tau, w and dw
    overflow over the last samples."""
    tau = np.linspace(-5.0, 800.0, n)
    y = 0.3 * np.exp(-tau / 200.0) * np.cos(tau)
    Y = 0.3 * np.exp(-tau / 200.0) * np.sin(tau)
    edges = [k for i in range(0, n, B) for k in (i, min(i + B, n) - 1)]
    y[edges], Y[edges] = non_finite, -non_finite
    return Trajectory(TestWriters.PARAMS, tau, np.vstack([y, Y]),
                      [Event("y_zero_crossing", t, PhaseState(t, a, b))
                       for t, a, b in zip(tau, y, Y)] if events else [],
                      "time_span", 1)


class TestBlocks:
    """The writers render ``BLOCK_ROWS`` rows per ``_nums`` call; at and
    around each block edge their bytes equal one ``_nums`` call on all the
    values, and no whole document is ever held."""

    @pytest.mark.parametrize("n", BLOCK_EDGE_COUNTS)
    def test_csv_and_events(self, tmp_path, n):
        traj = _block_edge_orbit(n, math.nan)
        cli._write_trajectory_csv(traj, tmp_path / "o.csv")
        r, w, dw = traj.profile()
        table = np.column_stack((traj.tau, *traj.ys, r, w, dw)).ravel().tolist()
        assert (tmp_path / "o.csv").read_text() == (
            "tau,y,Y,r,w,dw\n" + cli._nums(table, 12, 6, ",", "\n"))
        rows = cli._nums([v for e in traj.events for v in (e.time, e.state.y, e.state.Y)],
                         12, 3, ",", "\n").splitlines()
        assert (tmp_path / "o.events.csv").read_text() == "kind,tau,y,Y\n" + "".join(
            f"{e.kind},{row}\n" for e, row in zip(traj.events, rows))
        assert rows[0].startswith("-5,null,null") and rows[-1].endswith(",null,null")

    @pytest.mark.parametrize("n", BLOCK_EDGE_COUNTS)
    def test_svg_polyline(self, tmp_path, n):
        # an infinite sample is clamped to the frame; at n = 1 it would
        # leave the view itself infinite
        traj = _block_edge_orbit(n, math.inf if n > 1 else 1e6)
        cli._write_portrait_svg([traj], TestWriters.PARAMS, tmp_path / "o.svg")
        _, px = _pixel_map([traj], TestWriters.PARAMS)
        pixels = [v for y, Y in zip(*traj.ys) for v in px(y, Y)]
        got = re.findall(r'points="([^"]*)"', (tmp_path / "o.svg").read_text())
        assert got == [cli._nums(pixels, 9, 2, ",", " ")[:-1]]
        if n > 1:
            assert got[0].startswith("1280,960 ") and got[0].endswith(" 1280,960")

    def test_memory_does_not_grow_with_the_samples(self, tmp_path):
        # rendered whole, these files peaked at 25 MiB (SVG) and 49 MiB
        # (CSV), and hashing the CSV at 8 MiB; block by block they peak at
        # 1.5, 2.3 and 0.14 MiB.  The only per-sample memory left is the
        # SVG's copy of one coordinate for its percentiles (8 bytes a sample)
        bound = 4 * 2 ** 20
        arc = _block_edge_orbit(200_000, 1e6, events=False)
        orbit = _block_edge_orbit(100_000, 1e6, events=False)
        peaks = []
        tracemalloc.start()
        try:
            for write in (lambda: cli._write_portrait_svg([arc], TestWriters.PARAMS,
                                                          tmp_path / "o.svg"),
                          lambda: cli._write_trajectory_csv(orbit, tmp_path / "o.csv"),
                          lambda: cli._sha256(tmp_path / "o.csv")):
                tracemalloc.reset_peak()
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "o.csv").stat().st_size > 2 * bound
        assert max(peaks) < bound, peaks

    @pytest.mark.parametrize("size", [0, 3 * cli.READ_BYTES + 5])
    def test_sha256(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(bytes(k % 251 for k in range(size)))
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


_SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, 1e16, 123456789012.5, 0.1]


class TestFormatter:
    """``_nums`` renders a block with one format call; ``_num``, one value
    at a time, is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), max_size=12), sig=st.sampled_from([9, 12]))
    @example(values=_SPECIAL_VALUES, sig=9)
    @example(values=_SPECIAL_VALUES, sig=12)
    def test_block_equals_per_value(self, values, sig):
        got = cli._nums(values, sig, 1, ",", "\n")
        assert got == "".join(cli._num(v, sig) + "\n" for v in values)

    def test_rows_and_separators(self):
        values = [1.0, math.inf, -math.inf, math.nan, -2.5, 1e-300]
        assert cli._nums(values, 12, 3, ",", "\n") == "1,null,null\nnull,-2.5,1e-300\n"
        assert cli._nums(values, 9, 2, ",", " ") == "1,null null,null -2.5,1e-300 "
        assert cli._nums([], 9, 2, ",", " ") == ""


class TestReports:
    def test_critical_exponent(self, capsys):
        code, out, _ = run(capsys, "alpha-c", "--N", "1", "--p", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_c"] == -2
        assert doc["method"] == "closed_form"

    def test_search_ending_at_alpha_2(self, capsys):
        # the double-zero separatrix runs into the section's stationary
        # point L' at the search interval's upper end, alpha_2
        code, out, _ = run(capsys, "alpha-c", "--N", "2", "--p", "2.2")
        assert code == 0
        doc = json.loads(out)
        assert doc["bracket"][0] < doc["alpha_c"] < doc["bracket"][1]

    def test_tol_keeps_default_bracket_width(self, capsys):
        code, out, _ = run(capsys, "alpha-c", "--N", "2", "--p", "3",
                           "--tol", "1e-9")
        assert code == 0
        lo, hi = json.loads(out)["bracket"]
        assert 0.0 < hi - lo <= 1e-6

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_bad_tol_is_declared(self, capsys, tol):
        # --tol inf once ran with rel_tol = inf to a bogus BracketError
        # report, and --tol -1 blamed IntegrationConfig.abs_tol
        code, out, err = run(capsys, "alpha-c", "--N", "2", "--p", "3",
                             "--tol", tol)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "--tol" in line

    @pytest.mark.parametrize("argv", [
        ["constants", "--N", "1", "--p", "3", "--alpha", "-4", "--eps", "-1", "--tol", "5"],
        ["constants", "--N", "1", "--p", "3", "--alpha", "-4", "--eps", "-1",
         "--tau-max", "1e-9"],
        ["alpha-c", "--N", "2", "--p", "3", "--tau-max", "1e-9"]])
    def test_unread_setting_is_an_unknown_flag(self, capsys, argv):
        # constants reads neither setting and the connection function no tau
        # span; both once took the flags, ignored them and exited 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_unread_config_key_is_refused(self, capsys, tmp_path, monkeypatch):
        # alpha-c takes no --tau-max, so its file's max_time_span was read by
        # nothing: 1e-9 once exited 0 with an alpha_c
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rel_tol = 1e-9\nmax_time_span = 1e-9\n")
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        code, out, err = run(capsys, "alpha-c", "--N", "2", "--p", "3")
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "'max_time_span'" in line and str(cfg) in line
        assert "Traceback" not in err

    def test_config_keys_a_command_reads(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        monkeypatch.setenv("PLAP_CONFIG", str(cfg))
        cfg.write_text("rel_tol = 1e-9\n")
        argv = ["alpha-c", "--N", "1", "--p", "3"]
        assert _build_config(cli.build_parser().parse_args(argv)).rel_tol == 1e-9
        assert run(capsys, *argv)[0] == 0
        cfg.write_text("rel_tol = 1e-9\nmax_time_span = 40\n")
        argv = ["classify", "--N", "2", "--p", "3", "--alpha", "2", "--eps", "1"]
        built = _build_config(cli.build_parser().parse_args(argv))
        assert (built.rel_tol, built.max_time_span) == (1e-9, 40.0)
        assert run(capsys, *argv)[0] == 0

    def test_classifier_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--N", "1", "--p", "3",
                           "--alpha", "-2.1", "--eps", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime_tag"] == "orb"
        assert doc["passed"] is True
        assert all({"clause", "source_theorem", "status"} <= set(c)
                   for c in doc["checks"])
        assert doc["schema_version"] == 1

    def test_classifier_entire_regime(self, capsys):
        code, out, _ = run(capsys, "classify", "--N", "1", "--p", "3",
                           "--alpha", "-1.9", "--eps", "-1")
        assert code == 0
        assert json.loads(out)["regime_tag"] == "ent"

    def test_regular_launch_that_does_not_lift(self, capsys, tmp_path):
        # p = 2.01: the chart-Q launch lifts to y = inf; classify records
        # T_r's error and reports, shoot exits 1 with one error line
        flags = ["--N", "1", "--p", "2.01", "--alpha", "3", "--eps", "1"]
        code, out, _ = run(capsys, "classify", *flags)
        assert code == 0
        assert "does not lift" in json.loads(out)["trajectories"]["T_r"]["error"]
        code, _, err = run(capsys, "shoot", "--kind", "T_r", *flags,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("error: launch phase in chart Q") and "does not lift" in line

    def test_classifier_degenerate_decay_point(self, capsys):
        # alpha = eta: the connection function is undefined, not a crash
        code, out, _ = run(capsys, "classify", "--N", "1", "--p", "3",
                           "--alpha", "-1", "--eps", "-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["regime_tag"] == "pom"
        assert doc["phi_value"] is None


# (N, alpha, eps) of the no-traceback grid near p = 2, with p in GRID_P
GRID_CASES = [(1, 3.0, 1), (2, 1.0, 1), (1, -3.0, -1), (2, -1.5, -1), (1, 0.7, -1),
              (3, 2.0, 1), (1, -40.0, -1)]
GRID_P = [2.01, 2.02, 2.05]


@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("N, alpha, eps", GRID_CASES)
def test_no_traceback_near_p_2(capsys, tmp_path, p, N, alpha, eps):
    # classify and every kind's shoot return an exit code, whatever the
    # launch meets: 0, 1 (a declared failure) or 2 (a bad request)
    flags = ["--N", str(N), "--p", f"{p:g}", "--alpha", f"{alpha:g}", "--eps", str(eps)]
    calls = [["classify", *flags]] + [
        ["shoot", "--kind", kind, *flags, "--out", str(tmp_path / "x.csv")]
        for kind in trajectories.TRAJECTORY_KINDS]
    for argv in calls:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert len(err.splitlines()) == (code != 0), (argv, err)
