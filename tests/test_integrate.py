"""Adaptive integration: accuracy against closed forms, events, captures,
axis crossings, and tail boundedness."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from plap.params import ProblemParams, derive_constants, m_ell_point
from plap.systems import PhaseState, from_profile, oracle
from plap.integrate import (
    IntegrationConfig,
    IntegrationError,
    capture_test,
    integrate,
    integrate_s,
)

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

    def test_capture_test_rules(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        m = m_ell_point(params)
        assert capture_test(PhaseState(0.0, *m), params, direction=1) == "M_ell"
        far = PhaseState(0.0, m[0] + 1e-3, m[1])
        assert capture_test(far, params, direction=1) is None

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
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = integrate_s(PhaseState(0.0, 0.05, 0.0), params, direction=1,
                           capture=False, section_y=0.0, tau_span=20.0)
        secs = [e for e in traj.events if e.kind == "section_crossing"]
        assert len(secs) >= 5

    def test_samples_follow_integration_direction(self):
        params = ProblemParams(2, 3.0, -1.3, -1)
        traj = integrate_s(PhaseState(0.0, 0.4, 0.3), params, direction=-1,
                           capture=False, tau_span=1.0)
        assert np.all(np.diff(traj.tau) < 0.0)


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


def _band_events(band=1e-6):
    ev = integrate_mod._SEvent
    return [ev(lambda y, Y: Y - band * max(1.0, abs(y)), -1, True),
            ev(lambda y, Y: Y + band * max(1.0, abs(y)), 1, True)]


def _capture_event(params):
    my, mY = m_ell_point(params)
    r = 1e-6 * math.hypot(my, mY)
    return integrate_mod._SEvent(
        lambda y, Y: (y - my) ** 2 + (Y - mY) ** 2 - r ** 2, -1, True)


class TestStepper:
    """The scalar Dormand-Prince stepper against scipy's RK45 itself."""

    OSC = ProblemParams(1, 3.0, -4.0, -1)
    NODE = ProblemParams(2, 3.0, -1.7, -1)

    @staticmethod
    def _segment_cases():
        ev = integrate_mod._SEvent
        osc, node = TestStepper.OSC, TestStepper.NODE
        m = m_ell_point(node)
        return {
            # away from the axis, no events
            "plain": (osc, (0.3, 0.1), 0.5, []),
            # y = 0 and a section, ended by the axis band
            "sections": (osc, (0.3, 0.1), 5.0,
                         [ev(lambda y, Y: y), ev(lambda y, Y: y - 0.1)]
                         + _band_events()),
            # spirals into M_ell and ends in its capture disc
            "capture": (node, (m[0] + 1e-3, m[1] + 1e-3), 40.0,
                        _band_events() + [_capture_event(node)]),
        }

    @pytest.mark.parametrize("case", ["plain", "sections", "capture"])
    def test_replicates_scipy_rk45(self, case):
        params, (y0, Y0), span, events = self._segment_cases()[case]
        cfg = IntegrationConfig()
        f = integrate_mod._s_rhs(params, 1)
        stats = {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}
        seg = integrate_mod._rk45_segment(
            f, 0.0, span, y0, Y0, cfg.rel_tol, cfg.abs_tol, cfg.max_step,
            events, stats, cfg.max_steps)

        def scipy_event(e):
            g = lambda t, u: e.fn(u[0], u[1])  # noqa: E731
            g.terminal, g.direction = e.terminal, e.direction
            return g

        ref = solve_ivp(lambda t, u: f(u[0], u[1]), (0.0, span), [y0, Y0],
                        method="RK45", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=cfg.max_step,
                        events=[scipy_event(e) for e in events] or None)
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
                integrate_mod._s_rhs(self.OSC, 1), 0.0, 50.0, 0.3, 0.1,
                cfg.rel_tol, cfg.abs_tol, cfg.max_step, [], stats, 50)
        assert stats["accepted"] + stats["rejected"] == 50
        with pytest.raises(IntegrationError, match="max_steps exceeded"):
            integrate_s(PhaseState(0.0, 0.3, 0.1), self.OSC,
                        config=IntegrationConfig(max_steps=50))

    def test_non_finite_state_raises_at_once(self):
        # backward in tau the orbit grows like exp((gamma + N) |tau|) and
        # leaves the floats within a few units of tau
        with pytest.raises(IntegrationError, match="non-finite state near tau=-"):
            integrate_s(PhaseState(0.0, 1e300, 1e300), self.OSC, direction=-1)
        with pytest.raises(IntegrationError, match="non-finite field near tau=0"):
            integrate_s(PhaseState(0.0, 0.0, 1.7e308), self.OSC)
