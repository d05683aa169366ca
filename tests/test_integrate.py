"""Adaptive integration: accuracy against closed forms, events, captures,
axis crossings, and tail boundedness."""

import itertools
import math
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.integrate import RK45, solve_ivp

from plap.params import ParameterError, ProblemParams, derive_constants, m_ell_point
from plap.systems import (PhaseState, _P_TEXT, _Q_TEXT, _S_BACK, _S_TEXT, _SLOPE_TEXT, _rhs,
                          oracle, phi_Y)
from plap.trajectories import SpecialTrajectorySpec, shoot, shoot_regular
from plap.integrate import (
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    integrate,
    integrate_s,
)
from profile_tools import from_profile

# the package re-exports the function ``integrate`` over the module's name
integrate_mod = sys.modules["plap.integrate"]


class TestAccuracy:
    def test_reproduces_compact_support_closed_form(self):
        # start on the explicit alpha = N profile and compare downstream
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        state0 = from_profile(sol.sample(0.1), params)
        traj = integrate_s(state0, params, direction=1,
                           tau_span=math.log(1.5 / 0.1))
        r, w, _ = traj.profile()
        mask = (r >= 0.1) & (r <= 0.9 * 3.0 ** (2.0 / 3.0))
        expected = np.clip(1.0 - r[mask] ** 1.5 / 3.0, 0.0, None) ** 2
        rel = np.abs(w[mask] - expected) / np.abs(expected)
        assert np.max(rel) <= 1e-6

    def test_flat_profile_state_is_stationary(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        m = m_ell_point(params)
        traj = integrate_s(PhaseState(0.0, *m), params, direction=1,
                           capture=False, tau_span=50.0)
        drift = np.hypot(traj.ys[0] - m[0], traj.ys[1] - m[1])
        assert np.max(drift) <= 1e-9

    def test_first_motion_from_positive_Y_axis(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = integrate_s(PhaseState(0.0, 0.0, 4.0), params, direction=1,
                           capture=False, tau_span=0.01)
        assert traj.ys[0][-1] < 0.0  # enters the y < 0 half plane

    def test_time_reversal_returns_to_start(self):
        params = ProblemParams(2, 3.0, -1.3, -1)
        cfg = IntegrationConfig()
        fwd = integrate_s(PhaseState(0.0, 0.4, 0.3), params, direction=1,
                          capture=False, tau_span=0.5)
        end = PhaseState(fwd.tau[-1], fwd.ys[0][-1], fwd.ys[1][-1])
        back = integrate_s(end, params, direction=-1, capture=False,
                           tau_span=abs(fwd.tau[-1]))
        y_b, Y_b = back.ys[0][-1], back.ys[1][-1]
        tol = 100.0 * cfg.rel_tol
        assert abs(y_b - 0.4) <= tol * max(1.0, 0.4)
        assert abs(Y_b - 0.3) <= tol * max(1.0, 0.3)


class TestEventsAndCaptures:
    def test_capture_at_flat_point(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        m = m_ell_point(params)
        start = PhaseState(0.0, m[0] * 1.05, m[1] * 1.05)
        traj = integrate_s(start, params, direction=1)
        assert traj.termination == "captured:M_ell"

    @pytest.mark.parametrize("params, start, termination, kind", [
        # the explicit compact-support profile ends in a double zero
        (ProblemParams(2, 3.0, 2.0, 1), None, "captured:origin",
         "double_zero_capture"),
        # inward, but along the Y = 0 axis rather than the sigma = eps diagonal
        (ProblemParams(2, 3.0, 1.0, 1), (0.2, 0.0), "origin_flagged",
         "stationary_capture"),
    ])
    def test_origin_disc_ending(self, params, start, termination, kind,
                                monkeypatch):
        # a disc much wider than the axis band is met before the failed
        # crossing that ends these orbits under the default radius
        if start is None:
            sol = oracle("barenblatt", params, free_constant=1.0)
            state0 = from_profile(sol.sample(0.1), params)
        else:
            state0 = PhaseState(0.0, *start)
        monkeypatch.setattr(integrate_mod, "ORIGIN_RADIUS", 1e-3)
        traj = integrate_s(state0, params)
        assert traj.termination == termination
        last = traj.events[-1]
        assert last.kind == kind
        assert math.hypot(last.state.y, last.state.Y) == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("y0", [1e-300, 1e-20, 1e-8, -1e-9])
    def test_start_inside_origin_disc_ends_at_once(self, y0):
        # on the Hölder axis inside the origin disc the exit from the origin
        # is not unique; the start ends as a refused crossing does, where
        # stepping it once took 127k-204k steps
        params = ProblemParams(2, 3.3962609590012676, 4.0, -1)
        traj = integrate_s(PhaseState(0.0, y0, 0.0), params, direction=-1,
                           tau_span=4.87)
        assert traj.meta["stats"]["accepted"] == 0
        assert traj.termination == "origin_flagged"
        assert traj.tau.tolist() == [0.0]
        assert traj.ys.tolist() == [[y0], [0.0]]
        assert traj.events == []

    def test_escape_termination(self):
        params = ProblemParams(1, 3.0, 1.0, -1)  # backward orbits blow up
        traj = integrate_s(PhaseState(0.0, 1.0, 1.0), params, direction=-1)
        assert traj.termination == "escape"
        assert any(e.kind == "escape_to_infinity" for e in traj.events)

    def test_axis_crossings_are_recorded_and_ordered(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = integrate_s(PhaseState(0.0, 0.02, 0.0), params, direction=1,
                           capture=False, tau_span=30.0)
        kinds = [e.kind for e in traj.events]
        assert kinds.count("Y_zero_crossing") >= 10
        assert kinds.count("y_zero_crossing") >= 10
        times = [e.time for e in traj.events]
        assert times == sorted(times)

    def test_section_crossing_events(self):
        # from y = 0.05 the orbit leaves the line y = 0 downward; it ends
        # after the step of its next downward crossing, which the section
        # event records, and its samples are a prefix of the whole span's
        params = ProblemParams(1, 3.0, -4.0, -1)
        start = PhaseState(0.0, 0.05, 0.0)
        traj = integrate_s(start, params, direction=1, capture=False,
                           section_y=0.0, tau_span=20.0)
        full = integrate_s(start, params, direction=1, capture=False,
                           tau_span=20.0)
        assert traj.termination == "section"
        secs = [e for e in traj.events if e.kind == "section_crossing"]
        assert len(secs) == 1
        n = traj.n_samples
        assert 0 < n < full.n_samples
        assert np.array_equal(traj.tau, full.tau[:n])
        assert np.array_equal(traj.ys, full.ys[:, :n])
        # the section event is the first downward zero of y (where
        # y' = -phi(Y) < 0, so Y > 0), in the last step
        down = [e for e in full.events if e.kind == "y_zero_crossing"
                and e.state.Y > 0.0]
        assert secs[0].time == down[0].time
        assert traj.tau[-2] < secs[0].time <= traj.tau[-1]

    def test_start_on_a_zero_is_not_a_crossing(self):
        # the fig02 seed (0, 0.3) starts on y = 0 and moves into y < 0
        params = ProblemParams(2, 3.0, 1.0, 1)
        for direction in (1, -1):
            traj = integrate_s(PhaseState(0.0, 0.0, 0.3), params, direction,
                               tau_span=30.0)
            assert all(e.time != 0.0 for e in traj.events)

    def test_samples_follow_integration_direction(self):
        params = ProblemParams(2, 3.0, -1.3, -1)
        traj = integrate_s(PhaseState(0.0, 0.4, 0.3), params, direction=-1,
                           capture=False, tau_span=1.0)
        assert np.all(np.diff(traj.tau) < 0.0)

    def test_axis_crossing_junction_holds_no_duplicate(self):
        # an axis crossing ends on the state the next stepper segment
        # starts from, and the two must share one tau, or the junction
        # keeps the state twice, an ulp of tau apart
        traj = shoot(SpecialTrajectorySpec("T_r"), ProblemParams(1, 3.0, -4.0, -1),
                     consistency_check=False)
        assert sum(e.kind == "Y_zero_crossing" for e in traj.events) > 100
        assert not np.any(np.all(traj.ys[:, 1:] == traj.ys[:, :-1], axis=0))


# the osc orbit of (1, 3, -4, -1) from (0.05, 0) over tau 50, with 66 axis
# crossings
OSC = ProblemParams(1, 3.0, -4.0, -1)


@pytest.fixture(scope="module")
def osc_crossings():
    """The osc orbit, and the (Y span, start, solution, rhs, options) of
    each crossing's solve."""
    return _recorded_crossings(
        lambda: integrate_s(PhaseState(0.0, 0.05, 0.0), OSC, tau_span=50.0))


def _recorded_crossings(run):
    """The result of ``run()`` and the crossing solves it made, in order."""
    calls = []
    real = integrate_mod.solve_ivp

    def recorded(fun, t_span, y0, **kwargs):
        sol = real(fun, t_span, y0, **kwargs)
        calls.append((t_span, list(y0), sol, fun, kwargs))
        return sol

    integrate_mod.solve_ivp = recorded
    try:
        return run(), calls
    finally:
        integrate_mod.solve_ivp = real


def _event_state(ev):
    """(y, tau) of a ``Y_zero_crossing`` event, the crossing solve's state."""
    assert ev.kind == "Y_zero_crossing" and ev.state.Y == 0.0
    return [ev.state.y, ev.time]


class TestAxisCrossing:
    def test_one_step_per_side_with_the_axis_as_step_boundary(self, osc_crossings):
        traj, calls = osc_crossings
        assert len(calls) == sum(e.kind == "Y_zero_crossing" for e in traj.events) == 66
        assert all(sol.t.size == 3 and sol.t[1] == 0.0 for _, _, sol, *_ in calls)
        # each crossing leaves its on-axis sample in the orbit; the start is
        # the other exact zero of Y
        assert np.count_nonzero(traj.ys[1] == 0.0) == 67

    def test_crossing_matches_a_fine_reference(self, osc_crossings):
        # DOP853 with at least 3,000 steps a side; the crossings settle onto
        # the cycle's, so every 11th one is checked
        f = _rhs(OSC, _S_TEXT)

        def rhs(Y, u):
            f1, den = f(float(u[0]), float(Y))
            return [f1 / den, 1.0 / den]

        for (Y0, Y1), start, sol, *_ in osc_crossings[1][::11]:
            ref = solve_ivp(rhs, (Y0, Y1), start, method="DOP853", rtol=1e-13,
                            atol=1e-15, max_step=abs(Y0) / 3000)
            assert abs(sol.y[0, -1] - ref.y[0, -1]) <= 1e-9 * abs(ref.y[0, -1])

    def test_orbit_end_state_matches_a_tight_run(self, osc_crossings):
        # the gap is the stepper's, about 1.1e-7 on this orbit of |state|
        # ~ 0.03, so it is bounded on the scale max(1, |state|)
        traj = osc_crossings[0]
        ref = integrate_s(PhaseState(0.0, 0.05, 0.0), OSC, tau_span=50.0,
                          config=IntegrationConfig(rel_tol=1e-12, abs_tol=1e-15))
        assert traj.tau[-1] == ref.tau[-1] == 50.0
        end = ref.ys[:, -1]
        assert np.max(np.abs(traj.ys[:, -1] - end)) <= 2e-7 * max(1.0, np.max(np.abs(end)))

    def test_event_is_the_on_axis_step(self, osc_crossings):
        # every solve keeps a dense output; every first step ends on the
        # axis, and the event is that step's end state: the bits the dense
        # output gives there
        traj, calls = osc_crossings
        events = [e for e in traj.events if e.kind == "Y_zero_crossing"]
        for ev, (span, start, sol, fun, opts) in zip(events, calls, strict=True):
            assert opts["dense_output"] is True and sol.t[1] == 0.0
            assert _event_state(ev) == sol.y[:, 1].tolist()
            assert _event_state(ev) == sol.sol(0.0).tolist()

    @staticmethod
    def _loose_orbit(monkeypatch):
        """A criterion-8 draw at loose tolerances whose crossings include
        first steps that are rejected: the shooting's S-chart orbit, before
        its tau shift."""
        orbits = []
        real = sys.modules["plap.trajectories"].integrate_s

        def recorded(*args, **kwargs):
            orbits.append(real(*args, **kwargs))
            return orbits[-1]

        monkeypatch.setattr(sys.modules["plap.trajectories"], "integrate_s", recorded)
        shoot_regular(ProblemParams(3, 2.803964977677713, 8.654846463549482, 1),
                      config=IntegrationConfig(rel_tol=1e-6, abs_tol=1e-9),
                      tau_span=30.0, consistency_check=False)
        (traj,) = orbits
        return traj

    def test_rejected_first_step_reads_the_dense_output(self, monkeypatch):
        # where the first step is rejected, the event is the solve's dense
        # output on the axis; elsewhere it is the on-axis step's end state
        traj, calls = _recorded_crossings(lambda: self._loose_orbit(monkeypatch))
        assert any(sol.t[1] != 0.0 for _, _, sol, *_ in calls)
        events = [e for e in traj.events if e.kind == "Y_zero_crossing"]
        for ev, (span, start, sol, fun, opts) in zip(events, calls, strict=True):
            if sol.t[1] == 0.0:
                assert _event_state(ev) == sol.y[:, 1].tolist()
            else:
                direct = solve_ivp(fun, span, start, **opts)
                assert _event_state(ev) == direct.sol(0.0).tolist()

    def test_one_solve_per_crossing(self, monkeypatch):
        # a crossing whose first step is rejected is not solved again
        real_cross, real_solve = integrate_mod._cross_axis, integrate_mod.solve_ivp
        per_crossing, solves = [], []

        def counted_solve(*args, **kwargs):
            per_crossing[-1] += 1
            solves.append(real_solve(*args, **kwargs))
            return solves[-1]

        def counted_cross(*args, **kwargs):
            per_crossing.append(0)
            return real_cross(*args, **kwargs)

        monkeypatch.setattr(integrate_mod, "_cross_axis", counted_cross)
        monkeypatch.setattr(integrate_mod, "solve_ivp", counted_solve)
        self._loose_orbit(monkeypatch)
        assert any(sol.t[1] != 0.0 for sol in solves)
        assert max(per_crossing) == 1

    def test_refused_first_crossing_keeps_the_start(self):
        # the orbit's first action is a crossing whose transversality test
        # fails: it ends at once, with its start as its one sample
        start = PhaseState(0.0, 1e-9, 5e-7)
        traj = integrate_s(start, ProblemParams(1, 3.0, 1.0, 1))
        assert traj.termination == "origin_flagged"
        assert traj.tau.tolist() == [0.0]
        assert traj.ys.tolist() == [[1e-9], [5e-7]]
        assert traj.events == []

    @pytest.mark.parametrize("point", [(1, 2.3033482, 1.1361302, 1),
                                       (2, 2.2375, 6.8192, 1)])
    def test_degenerate_crossing_ends(self, point):
        # dY/dtau turns inside the band on these launches, where the crossing
        # solve once ran without end; a subprocess bounds a regression
        code = ("from plap.params import ProblemParams\n"
                "from plap.trajectories import shoot_regular\n"
                f"print(shoot_regular(ProblemParams{point}, tau_span=30,"
                " consistency_check=False).termination)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=20,
                              cwd=Path(__file__).resolve().parents[1] / "src")
        assert proc.stdout.strip() == "origin_flagged", proc.stderr


class TestTailBounds:
    def test_oscillation_energy_bound(self):
        # backward-sign dynamics with a negative exponent trap orbits in a
        # bounded region: y^2/2 + |Y|^{p'}/(p'|alpha|) <= 1/(|alpha| gamma)
        params = ProblemParams(1, 3.0, -4.0, -1)
        dc = derive_constants(params)
        traj = integrate_s(PhaseState(0.0, 0.05, 0.0), params, direction=1,
                           capture=False, tau_span=60.0)
        y, Y = traj.ys
        tail = traj.tau >= traj.tau[0] + 0.5 * (traj.tau[-1] - traj.tau[0])
        R = (y[tail] ** 2 / 2.0
             + np.abs(Y[tail]) ** dc.p_prime / (dc.p_prime * abs(params.alpha)))
        assert np.max(R) <= 1.1 / (abs(params.alpha) * dc.gamma)

    def test_shrinking_energy_for_forward_sign(self):
        # for the forward sign the profile energy |w'|^p / p' + alpha w^2 / 2
        # never increases along r
        params = ProblemParams(2, 3.0, 1.0, 1)
        sol = oracle("barenblatt", ProblemParams(2, 3.0, 2.0, 1), 1.0)
        state0 = from_profile(sol.sample(0.2), ProblemParams(2, 3.0, 2.0, 1))
        traj = integrate_s(state0, ProblemParams(2, 3.0, 2.0, 1), direction=1,
                           tau_span=2.0)
        r, w, dw = traj.profile()
        dc = derive_constants(ProblemParams(2, 3.0, 2.0, 1))
        E = np.abs(dw) ** 3.0 / dc.p_prime + 2.0 * w ** 2 / 2.0
        assert np.all(np.diff(E) <= 1e-10)
        assert params.epsilon == 1  # guard: the monotonicity needs eps = +1

    def test_profile_overflow_is_silent(self):
        # past tau ~ 709.78, r = e^tau overflows; a long orbit once printed
        # numpy's RuntimeWarnings on the CLI's stderr
        params = ProblemParams(1, 3.0, -4.0, -1)
        dc = derive_constants(params)
        tau = np.array([0.0, 709.0, 710.0, 800.0])
        ys = np.array([[0.05, -0.02, 0.03, 0.0], [0.0, 0.01, -0.04, 0.02]])
        traj = Trajectory("S", params, tau, ys, [], "time_span", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, w, dw = traj.profile()
        with np.errstate(all="ignore"):
            want_r = np.exp(tau)
            want_w = want_r ** dc.gamma * ys[0]
            want_dw = -(want_r ** (dc.gamma - 1.0)) * phi_Y(ys[1], params.p)
        np.testing.assert_array_equal(r, want_r)
        np.testing.assert_array_equal(w, want_w)
        np.testing.assert_array_equal(dw, want_dw)
        assert np.isinf(r[2:]).all() and np.isnan(w[3])


def _mirror_mismatch(start, params, direction, **kwargs):
    """What differs between ``integrate_s`` from -start and the negation of
    the orbit from start (empty when they agree); an orbit that raises must
    raise the same error from both starts."""
    runs = []
    for s0 in ((-start[0], -start[1]), start):
        try:
            runs.append(integrate_s(PhaseState(0.0, *s0), params, direction, **kwargs))
        except IntegrationError as exc:
            runs.append(str(exc))
    direct, twin = runs
    if isinstance(direct, str) or isinstance(twin, str):
        return [] if direct == twin else ["error"]
    mirror = twin.negated()
    checks = {
        "tau": direct.tau.tobytes() == mirror.tau.tobytes(),
        "ys": direct.ys.shape == mirror.ys.shape and bool(np.all(direct.ys == mirror.ys)),
        "events": ([(e.kind, e.time) for e in direct.events]
                   == [(e.kind, e.time) for e in mirror.events]),
        "termination": direct.termination == mirror.termination,
        "stats": direct.meta["stats"] == mirror.meta["stats"],
    }
    return [name for name, ok in checks.items() if not ok]


class TestOddSymmetry:
    """The S field, its event table and the stepper are odd in (y, Y), so
    the orbit from -s0 is the one from s0 negated (``Trajectory.negated``),
    which ``plap portrait`` draws in place of integrating it."""

    @seed(22)
    @settings(max_examples=40, deadline=None, database=None)
    @given(N=st.integers(1, 3), p=st.floats(2.3, 6.0),
           alpha=st.floats(-8.0, 8.0).filter(lambda a: abs(a) > 1e-3),
           eps=st.sampled_from([-1, 1]),
           y=st.floats(-2.0, 2.0), Y=st.floats(-2.0, 2.0),
           direction=st.sampled_from([1, -1]), tau_span=st.floats(1.0, 30.0))
    def test_negated_start_gives_the_negated_orbit(self, N, p, alpha, eps, y, Y,
                                                   direction, tau_span):
        if y == 0.0 and Y == 0.0:
            return
        params = ProblemParams(N, p, alpha, eps)
        assert _mirror_mismatch((y, Y), params, direction, tau_span=tau_span) == []

    @pytest.mark.parametrize("start", [(0.5, 0.0), (0.0, 0.3)])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_fig05_pairs_over_the_full_span(self, start, direction):
        # the recipe's two negated seed pairs, over max_time_span
        assert _mirror_mismatch(start, ProblemParams(1, 3.0, -4.0, -1),
                                direction) == []

    def test_capture_discs_swap(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        m = m_ell_point(params)
        traj = integrate_s(PhaseState(0.0, m[0] * 1.05, m[1] * 1.05), params)
        assert traj.termination == "captured:M_ell"
        mirror = traj.negated()
        assert mirror.termination == "captured:minus_M_ell"
        assert mirror.negated().termination == "captured:M_ell"
        assert mirror.meta["stats"] is not traj.meta["stats"]
        assert _mirror_mismatch((m[0] * 1.05, m[1] * 1.05), params, 1) == []

    def test_other_charts_refused(self):
        traj = integrate("P", (0.3, 0.5), ProblemParams(2, 3.0, -1.3, -1),
                         t_span=(0.0, 1.0))
        with pytest.raises(ValueError, match="S-chart"):
            traj.negated()


class TestRestart:
    """The system is autonomous: an orbit restarted from one of its samples
    over the rest of its span continues it, to within the tolerance's
    accumulated error.  The default rel_tol is 1e-8; the largest gap over 25
    restarts along each orbit was 6.7e-8 on the two small spirals and 2.6e-10
    relative on the escaping arc."""

    @pytest.mark.parametrize("params, start, direction, span", [
        (OSC, (0.05, 0.0), 1, 30.0),                            # 39 axis crossings
        (ProblemParams(1, 2.5, -3.0, -1), (0.1, 0.1), 1, 30.0),  # 22
        (ProblemParams(2, 3.0, -6.0, 1), (0.2, 0.05), -1, 3.0)])  # escaping to 5.7e6
    def test_restart_from_a_sample_ends_where_the_orbit_ends(self, params, start,
                                                             direction, span):
        traj = integrate_s(PhaseState(0.0, *start), params, direction, tau_span=span)
        assert traj.termination == "time_span"
        end = traj.ys[:, -1]
        for k in (traj.tau.size // 3, 2 * traj.tau.size // 3):
            rest = integrate_s(PhaseState(traj.tau[k], *traj.ys[:, k]), params, direction,
                               tau_span=abs(traj.tau[-1] - traj.tau[k]))
            assert rest.termination == "time_span"
            assert rest.tau[-1] == pytest.approx(traj.tau[-1], abs=1e-12)
            assert np.hypot(*(rest.ys[:, -1] - end)) <= 1e-6 * max(1.0, np.hypot(*end))


class TestChartDispatch:
    def test_non_s_chart_integration(self):
        params = ProblemParams(2, 3.0, -1.3, -1)
        traj = integrate("P", (0.3, 0.5), params, direction=1,
                         t_span=(0.0, 1.0))
        assert traj.chart_id == "P"
        assert traj.tau[-1] == pytest.approx(1.0, abs=1e-9)

    def test_convergence_under_tolerance_halving(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        m = m_ell_point(params)
        start = PhaseState(0.0, m[0] * 1.3, m[1] * 1.3)
        ends = []
        for scale in (1.0, 0.5):
            cfg = IntegrationConfig(rel_tol=1e-8 * scale, abs_tol=1e-10 * scale)
            t = integrate_s(start, params, direction=1, config=cfg,
                            capture=False, tau_span=5.0)
            ends.append((t.ys[0][-1], t.ys[1][-1]))
        d = math.hypot(ends[0][0] - ends[1][0], ends[0][1] - ends[1][1])
        assert d <= 1e-6


_BAND_EVENTS = [integrate_mod._SEvent("Y - band * max(1.0, abs(y))", -1, True),
                integrate_mod._SEvent("Y + band * max(1.0, abs(y))", 1, True)]
_CAPTURE_EVENT = integrate_mod._SEvent("(y - my) ** 2 + (Y - mY) ** 2 - r ** 2",
                                       -1, True)


def _reference_dense_coefficients(k):
    """The dense output's coefficients of the stages ``k`` (seven (y, Y)
    pairs) as the generator sums the stepper once formed."""
    P = [row if any(row) else None for row in RK45.P.tolist()]
    return [[sum(kk[i] * row[j] for kk, row in zip(k, P) if row is not None)
             for j in range(4)] for i in (0, 1)]


def _text_and_callable(fun, args, stats, **kwargs):
    """``_rk45_segment`` on a field compiled from its text, and on the same
    field as a plain callable: for each, the segment (or the error it
    raised) and the counters, from a copy of ``stats``."""
    assert fun.text is not None
    outcomes = []
    for f in (fun, lambda a, b: fun(a, b)):
        counted = dict(stats)
        try:
            seg = integrate_mod._rk45_segment(f, *args, stats=counted, **kwargs)
            outcomes.append(((seg.t, seg.y, seg.Y, seg.hits, seg.terminal), counted))
        except (IntegrationError, ZeroDivisionError) as exc:
            outcomes.append((repr(exc), counted))
    return outcomes


def _reference_advance(events, values):
    """The stepper's crossing test written as one comprehension over the
    rows: the rule the generated ``advance`` unrolls."""
    rows = [(i, ev.direction >= 0, ev.direction <= 0)
            for i, ev in enumerate(events)]

    def advance(y, Y, g_old):
        g = values(y, Y)
        active = [i for (i, up, down), a, b in zip(rows, g_old, g)
                  if (up and a < 0 <= b) or (down and a > 0 >= b)]
        return g, active or None

    return advance


class TestConfig:
    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_tolerances_are_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"IntegrationConfig.{name}"):
            IntegrationConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, 2.5, 0, -1])
    def test_max_steps_is_a_whole_number_at_least_one(self, value):
        # an infinite or fractional budget would leave every budget check
        # unbound (phi's stepper share (max_steps - 2) // 6 is nan at inf)
        with pytest.raises(ValueError, match="IntegrationConfig.max_steps"):
            IntegrationConfig(max_steps=value)

    @pytest.mark.parametrize("direction", [0, 2, -2])
    def test_direction_is_a_parameter_error(self, direction):
        with pytest.raises(ParameterError, match="direction must be"):
            integrate_s(PhaseState(0.0, 0.05, 0.0), OSC, direction=direction)

    @pytest.mark.parametrize("tau_span", [-1.0, math.nan])
    def test_tau_span_is_a_parameter_error(self, tau_span):
        with pytest.raises(ParameterError, match="tau_span must be"):
            integrate_s(PhaseState(0.0, 0.05, 0.0), OSC, tau_span=tau_span)


class TestStepper:
    """The scalar Dormand-Prince stepper against scipy's RK45 itself."""

    OSC = ProblemParams(1, 3.0, -4.0, -1)
    NODE = ProblemParams(2, 3.0, -1.7, -1)

    @staticmethod
    def _segment_cases():
        ev = integrate_mod._SEvent
        osc, node = TestStepper.OSC, TestStepper.NODE
        my, mY = m_ell_point(node)
        return {
            # away from the axis, no events
            "plain": (osc, (0.3, 0.1), 0.5, [], {}),
            # y = 0 and a section, ended by the axis band
            "sections": (osc, (0.3, 0.1), 5.0,
                         [ev("y"), ev("y - 0.1")] + _BAND_EVENTS, {"band": 1e-6}),
            # spirals into M_ell and ends in its capture disc
            "capture": (node, (my + 1e-3, mY + 1e-3), 40.0,
                        _BAND_EVENTS + [_CAPTURE_EVENT],
                        {"band": 1e-6, "my": my, "mY": mY,
                         "r": 1e-6 * math.hypot(my, mY)}),
        }

    @pytest.mark.parametrize("case", ["plain", "sections", "capture"])
    def test_replicates_scipy_rk45(self, case):
        params, (y0, Y0), span, events, consts = self._segment_cases()[case]
        values, advance, roots = integrate_mod._event_values(events, **consts)
        cfg = IntegrationConfig()
        f = _rhs(params, _S_TEXT)
        stats = {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}
        seg = integrate_mod._rk45_segment(
            f, 0.0, span, y0, Y0, cfg.rel_tol, cfg.abs_tol,
            integrate_mod.MAX_STEP, events, values, advance, roots, stats,
            cfg.max_steps)

        def scipy_event(i, e):
            g = lambda t, u: values(u[0], u[1])[i]  # noqa: E731
            g.terminal, g.direction = e.terminal, e.direction
            return g

        ref = solve_ivp(lambda t, u: f(u[0], u[1]), (0.0, span), [y0, Y0],
                        method="RK45", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=integrate_mod.MAX_STEP,
                        events=[scipy_event(i, e) for i, e in enumerate(events)]
                        or None)
        assert stats["accepted"] == ref.t.size - 1
        assert stats["rhs_evals"] == ref.nfev
        assert (seg.terminal is not None) == (ref.status == 1)
        ref_hits = sorted((t, i) for i, te in enumerate(ref.t_events or [])
                          for t in te)
        assert sorted(i for i, *_ in seg.hits) == sorted(i for _, i in ref_hits)
        if case != "plain":
            assert seg.hits
        # The same rule, not the same bits: scipy's stage and error sums
        # go through BLAS with fused multiply-adds, and the error estimate
        # cancels about eight digits, so the two controllers' step sizes
        # part in the ninth digit.  Measured: times 1e-10 of the span,
        # states 5e-10 of their scale.
        tol = 1e-8
        assert np.max(np.abs(np.array(seg.t) - ref.t)) <= tol * span
        scale = np.max(np.abs(ref.y), axis=1)
        for got, want, s in zip((seg.y, seg.Y), ref.y, scale):
            assert np.max(np.abs(np.array(got) - want)) <= tol * s
        got_times = sorted(t for _, t, *_ in seg.hits)
        assert np.allclose(got_times, [t for t, _ in ref_hits],
                           rtol=0.0, atol=tol * span)

    def test_fused_values_match_rows_through_an_overflow(self):
        # above about 1.3e154 the float ``**`` of the origin disc's squares
        # overflows; the fused values read inf there, like a row evaluated
        # on its own, and the other rows keep their bits
        ev = integrate_mod._SEvent
        events = [ev("y - 1.5e160"), ev("y ** 2 + Y ** 2 - orad ** 2", -1, True),
                  ev("(y / esc) ** 2 + (Y / esc) ** 2 - 1.0", 1, True),
                  *_BAND_EVENTS]
        consts = {"orad": 1e-8, "esc": 1e12, "band": 1e-6}
        fused, advance, roots = integrate_mod._event_values(events, **consts)

        def per_row(y, Y):
            out = []
            for e in events:
                try:
                    out.append(eval(e.expr, dict(consts, y=y, Y=Y)))
                except OverflowError:
                    out.append(math.inf)
            return tuple(out)

        assert fused(2e160, 1e160)[1] == math.inf
        for y, Y in ((2e160, 1e160), (0.3, -0.2), (2e160, 0.3)):
            assert fused(y, Y) == per_row(y, Y)
            # each row's root function alone, as brentq evaluates it
            assert tuple(root(y, Y) for root in roots) == fused(y, Y)
        per_row_roots = [lambda y, Y, i=i: per_row(y, Y)[i] for i in range(len(events))]
        cfg = IntegrationConfig()
        segs = []
        for values, adv, rts in ((fused, advance, roots),
                                 (per_row, _reference_advance(events, per_row),
                                  per_row_roots)):
            stats = {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}
            segs.append(integrate_mod._rk45_segment(
                _rhs(self.OSC, _S_TEXT), 0.0, 2.0, 2e160, 1e160,
                cfg.rel_tol, cfg.abs_tol, integrate_mod.MAX_STEP, events,
                values, adv, rts, stats, cfg.max_steps))
        got, want = segs
        assert [i for i, *_ in got.hits] == [0]
        assert (got.t, got.y, got.Y, got.hits, got.terminal) \
            == (want.t, want.y, want.Y, want.hits, want.terminal)

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("case", ["plain", "sections", "capture"])
    def test_field_text_and_callable_agree(self, case, direction):
        # the stepper with the S field written in place, and the same
        # template calling the S closure, give the same bits and counts
        params, (y0, Y0), span, events, consts = self._segment_cases()[case]
        cfg = IntegrationConfig()
        args = (0.0, span, y0, Y0, cfg.rel_tol, cfg.abs_tol,
                integrate_mod.MAX_STEP, events,
                *integrate_mod._event_values(events, **consts))
        text, call = _text_and_callable(_rhs(params, _S_TEXT if direction == 1 else _S_BACK),
                                        args, integrate_mod._new_stats(),
                                        max_steps=cfg.max_steps)
        assert text == call
        assert text[1]["accepted"] > 0

    @pytest.mark.parametrize("kind, params, text", [
        ("T_r", (2, 3.0, 2.0, 1), _Q_TEXT), ("T_u", (2, 3.0, 1.0, 1), _P_TEXT)])
    def test_launch_field_text_and_callable_agree(self, kind, params, text,
                                                  monkeypatch):
        # every stepper call of a chart-Q or chart-P launch, run both ways
        trajectories_mod = sys.modules["plap.trajectories"]
        real, texts = trajectories_mod._rk45_segment, []

        def checked(fun, *args):
            *head, stats, max_steps = args
            text, call = _text_and_callable(fun, head, stats, max_steps=max_steps)
            assert text == call
            texts.append(fun.text)
            return real(fun, *args)

        monkeypatch.setattr(trajectories_mod, "_rk45_segment", checked)
        shoot(SpecialTrajectorySpec(kind), ProblemParams(*params))
        assert texts and set(texts) == {text}

    @pytest.mark.parametrize("N, p", [(2, 3.0), (3, 3.0), (2, 4.0), (2, 2.5)])
    def test_slope_field_text_and_callable_agree(self, N, p, monkeypatch):
        # every stepper call of the connection function, run both ways, at
        # the quarter points of the alpha-c search interval
        analysis_mod = sys.modules["plap.analysis"]
        real, texts = analysis_mod._rk45_segment, []

        def checked(fun, *args):
            *head, stats, max_steps = args
            text, call = _text_and_callable(fun, head, stats, max_steps=max_steps)
            assert text == call
            assert text[1]["accepted"] > 0
            texts.append(fun.text)
            return real(fun, *args)

        monkeypatch.setattr(analysis_mod, "_rk45_segment", checked)
        lo, hi = analysis_mod._search_interval(*analysis_mod.critical_bracket(N, p))
        for k in (1, 2, 3):
            params = ProblemParams(N, p, lo + k * (hi - lo) / 4.0, -1)
            analysis_mod._phi_shoot(params, IntegrationConfig())
        assert texts == [_SLOPE_TEXT] * 3

    def test_each_stepper_has_its_own_code_name(self):
        # a profile reports each compiled stepper under its field's name
        names = [integrate_mod._stepper(text).__code__.co_filename
                 for text in (_S_TEXT, _SLOPE_TEXT, None)]
        assert names == ["<rk45 segment S>", "<rk45 segment R_beta slope>",
                         "<rk45 segment callable>"]

    def test_dense_matches_the_sum_form(self):
        # the written-out coefficients against the generator sums they
        # replaced, bit for bit, through inf, nan and -0.0 stages; repr
        # compares every bit but a NaN's sign, which IEEE 754 leaves open
        # and the interpreter's two float-add paths set differently
        rng = np.random.default_rng(20)
        specials = [math.inf, -math.inf, math.nan, -0.0, 0.0]
        cases = [rng.standard_normal((7, 2)).tolist() for _ in range(100)]
        for _ in range(300):
            k = rng.standard_normal((7, 2)).tolist()
            for _ in range(int(rng.integers(1, 4))):
                k[rng.integers(7)][rng.integers(2)] = specials[rng.integers(5)]
            cases.append(k)
        cases += [[[-0.0, -0.0]] * 7, [[math.inf, -0.0]] * 7]
        bits = lambda rows: [repr(c) for row in rows for c in row]  # noqa: E731
        for k in cases:
            sol = integrate_mod._dense(0.0, 0.1, 0.0, 0.0,
                                       *([s[i] for j, s in enumerate(k) if j != 1]
                                         for i in (0, 1)))
            cells = dict(zip(sol.__code__.co_freevars,
                             (c.cell_contents for c in sol.__closure__)))
            got = [[cells[f"{c}{j}"] for j in range(1, 5)] for c in "ab"]
            assert bits(got) == bits(_reference_dense_coefficients(k)), k

    def test_generated_crossing_test_matches_the_rule(self):
        # every direction and every pair of start and end values, on one
        # row exhaustively and on tables of 2 to 8 rows by a seeded draw
        specials = [-1.0, -0.0, 0.0, 1.0, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(11)
        cases = [[row] for row in itertools.product((-1, 0, 1), specials, specials)]
        for n in range(2, 9):
            cases += [[(int(rng.integers(-1, 2)), specials[rng.integers(7)],
                        specials[rng.integers(7)]) for _ in range(n)]
                      for _ in range(60)]
        for rows in cases:
            events = [integrate_mod._SEvent(f"v{i}", d)
                      for i, (d, _, _) in enumerate(rows)]
            consts = {f"v{i}": b for i, (_, _, b) in enumerate(rows)}
            values, advance, _ = integrate_mod._event_values(events, **consts)
            start = tuple(a for _, a, _ in rows)
            got = advance(0.5, -0.5, start)
            want = _reference_advance(events, values)(0.5, -0.5, start)
            assert got[1] == want[1], rows
            assert list(map(repr, got[0])) == list(map(repr, want[0])), rows

    def test_stats_count_the_work(self):
        traj = integrate_s(PhaseState(0.0, 0.3, 0.1), self.OSC, tau_span=10.0)
        st = traj.meta["stats"]
        assert st["segments"] >= 2  # restarted after each axis crossing
        assert st["accepted"] > 0 and st["rejected"] >= 0
        # two evaluations to start a segment, six per attempted step
        assert st["rhs_evals"] == 2 * st["segments"] \
            + 6 * (st["accepted"] + st["rejected"])

    def test_step_budget_counts_every_attempt(self):
        start = PhaseState(0.0, 0.3, 0.1)
        st = integrate_s(start, self.OSC, tau_span=10.0).meta["stats"]
        attempts = st["accepted"] + st["rejected"]
        assert st["rejected"] > 0
        integrate_s(start, self.OSC, tau_span=10.0,
                    config=IntegrationConfig(max_steps=attempts))
        with pytest.raises(IntegrationError, match="max_steps exceeded"):
            integrate_s(start, self.OSC, tau_span=10.0,
                        config=IntegrationConfig(max_steps=attempts - 1))

    def test_small_budget_stops_within_one_segment(self):
        stats = {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}
        cfg = IntegrationConfig()
        with pytest.raises(IntegrationError, match="max_steps exceeded"):
            integrate_mod._rk45_segment(
                _rhs(self.OSC, _S_TEXT), 0.0, 50.0, 0.3, 0.1,
                cfg.rel_tol, cfg.abs_tol, integrate_mod.MAX_STEP, [],
                *integrate_mod._event_values([]), stats, 50)
        assert stats["accepted"] + stats["rejected"] == 50
        with pytest.raises(IntegrationError, match="max_steps exceeded"):
            integrate_s(PhaseState(0.0, 0.3, 0.1), self.OSC,
                        config=IntegrationConfig(max_steps=50))

    def test_band_scale_matches_max_abs(self):
        # the band rows' comparison form of max(1.0, abs(y)), bit for bit
        scale = eval("lambda y: " + integrate_mod._BAND_SCALE)
        rng = np.random.default_rng(14)
        ys = [math.nan, -math.nan, 0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
              math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
              math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 5e-324, -5e-324]
        ys += rng.standard_normal(1000).tolist()
        ys += (rng.standard_normal(1000) * 10.0 ** rng.uniform(-300, 300, 1000)).tolist()
        for y in ys:
            assert struct.pack("<d", scale(y)) == struct.pack("<d", max(1.0, abs(y))), y

    def test_non_finite_state_raises_at_once(self):
        # backward in tau the orbit grows like exp((gamma + N) |tau|) and
        # leaves the floats within a few units of tau
        with pytest.raises(IntegrationError, match="non-finite state near tau=-"):
            integrate_s(PhaseState(0.0, 1e300, 1e300), self.OSC, direction=-1)
        with pytest.raises(IntegrationError, match="non-finite field near tau=0"):
            integrate_s(PhaseState(0.0, 0.0, 1.7e308), self.OSC)
