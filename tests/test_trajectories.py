"""Shooting constructions: agreement with closed forms, local laws at the
launch points, scaling, and admissibility errors."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from plap import trajectories
from plap.integrate import IntegrationConfig, IntegrationError, _new_stats
from plap.params import ParameterError, ProblemParams, derive_constants
from plap.systems import _P_TEXT, _Q_TEXT, _R_TEXT, _RX_TEXT, _rhs
from plap.trajectories import (
    _G_EXIT,
    SpecialTrajectorySpec,
    _chart_phase,
    _edge_phase,
    _q,
    _q_hand,
    shoot,
    shoot_double_zero,
    shoot_regular,
    shoot_T_alpha,
    shoot_T_eta_or_u,
    shoot_T_pm,
)
from profile_tools import oracle


def _loglog_slope(r, w, lo, hi):
    mask = (r >= lo) & (r <= hi) & (w > 0.0)
    assert np.count_nonzero(mask) >= 5
    return np.polyfit(np.log(r[mask]), np.log(w[mask]), 1)[0]


class TestRegular:
    def test_matches_compact_support_closed_form(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        traj = shoot_regular(params, a=1.0)
        r, w, _ = traj.profile()
        mask = (r >= 0.01) & (r <= 0.9 * 3.0 ** (2.0 / 3.0))
        expected = np.clip(1.0 - r[mask] ** 1.5 / 3.0, 0.0, None) ** 2
        assert np.max(np.abs(w[mask] - expected) / expected) <= 1e-6

    def test_matches_quadratic_closed_form(self):
        params = ProblemParams(2, 3.0, -1.5, 1)
        K = 1.0 / math.sqrt(3.0)
        sol = oracle("quadratic", params, free_constant=K)
        a = float(sol(np.array([1e-12]))[0])
        traj = shoot_regular(params, a=a, tau_span=10.0)
        r, w, _ = traj.profile()
        mask = (r >= 0.05) & (r <= 2.0)
        expected = sol(r[mask])
        assert np.max(np.abs(w[mask] - expected) / np.abs(expected)) <= 1e-6

    def test_result_keeps_stepper_counts(self, monkeypatch):
        import plap.trajectories as traj_mod
        inner = []
        real = traj_mod.integrate_s

        def recorded(*args, **kwargs):
            inner.append(real(*args, **kwargs))
            return inner[-1]

        monkeypatch.setattr(traj_mod, "integrate_s", recorded)
        traj = shoot_regular(ProblemParams(2, 3.0, 1.0, 1), tau_span=10.0)
        assert len(inner) == 1
        assert traj.meta["stats"] == inner[0].meta["stats"]
        assert traj.meta["stats"]["accepted"] > 0
        assert traj.meta["kind"] == "T_r"  # the launch keys stay

    def test_strict_constant_sign_in_single_sign_regime(self):
        traj = shoot_regular(ProblemParams(2, 3.0, 1.0, 1), tau_span=30.0)
        assert np.min(traj.ys[0]) > 0.0 or np.max(traj.ys[0]) < 0.0

    def test_central_slope_ratio(self):
        # |w'|^{p-2} w' / (r w) -> -eps alpha / N at the center
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = shoot_regular(params, tau_span=10.0)
        r, w, dw = traj.profile()
        i = np.argmin(r)
        ratio = (abs(dw[i]) ** (params.p - 2.0) * dw[i]) / (r[i] * w[i])
        assert ratio == pytest.approx(-params.epsilon * params.alpha / params.N,
                                      abs=1e-6)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_amplitude_scaling_law(self, a):
        # w(r, a) = a w(a^{-1/gamma} r, 1)
        params = ProblemParams(2, 3.0, 1.0, 1)
        dc = derive_constants(params)
        base = shoot_regular(params, a=1.0, tau_span=20.0)
        scaled = shoot_regular(params, a=a, tau_span=20.0)
        r1, w1, _ = base.profile()
        r2, w2, _ = scaled.profile()
        o1, o2 = np.argsort(r1), np.argsort(r2)
        probe = np.linspace(0.2, 1.5, 20)
        ref = a * np.interp(a ** (-1.0 / dc.gamma) * probe, r1[o1], w1[o1])
        got = np.interp(probe, r2[o2], w2[o2])
        assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, a)

    def test_offset_consistency_reported(self):
        traj = shoot_regular(ProblemParams(2, 3.0, 1.0, 1), tau_span=5.0,
                             consistency_check=True)
        assert traj.meta["offset_consistency"] <= 1e-6

    def test_launch_stats_count_the_launch(self):
        st = shoot_regular(ProblemParams(2, 3.0, 1.0, 1),
                           tau_span=5.0).meta["launch_stats"]
        assert st["segments"] == 2  # the launch and its offset/2 rerun
        assert st["accepted"] > 0
        # two evaluations to start a segment, six per attempted step
        assert st["rhs_evals"] == 2 * st["segments"] \
            + 6 * (st["accepted"] + st["rejected"])

    def test_launch_that_does_not_lift_is_refused(self):
        # at p = 2.01 the lift y = q^(1/(p-2)) of about half the chart-Q
        # launch, the launch point among them, overflows to inf; the
        # amplitude calibration once took log(0) there
        with pytest.raises(IntegrationError, match="chart Q reached a point that does "
                                                   "not lift to a finite"):
            shoot_regular(ProblemParams(1, 2.01, 3.0, 1), consistency_check=False)

    def test_launch_budget_counts_both_runs(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        st = shoot_regular(params, tau_span=0.0).meta["launch_stats"]
        attempts = st["accepted"] + st["rejected"]
        shoot_regular(params, tau_span=0.0,
                      config=IntegrationConfig(max_steps=attempts))
        with pytest.raises(IntegrationError, match="max_steps exceeded"):
            shoot_regular(params, tau_span=0.0,
                          config=IntegrationConfig(max_steps=attempts - 1))


class TestDoubleZero:
    def test_contact_exponent_and_amplitude(self):
        # near the edge: w ~ ((p-2)/(p-1))^{(p-1)/(p-2)} rbar^{1/(2-p)}
        #                      |rbar - r|^{(p-1)/(p-2)}
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = shoot_double_zero(params, r_bar=1.0)
        r, w, _ = traj.profile()
        mask = (r < 1.0) & (w > 0.0)
        d = 1.0 - r[mask]
        keep = (d > np.max(d) * 1e-3) & (d < np.max(d) * 1e-2)
        slope, logA = np.polyfit(np.log(d[keep]), np.log(w[mask][keep]), 1)
        assert slope == pytest.approx(2.0, abs=0.02)
        assert math.exp(logA) == pytest.approx(0.25, abs=0.01)

    def test_edge_matches_compact_support_closed_form(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        r_bar = 3.0 ** (2.0 / 3.0)
        traj = shoot_double_zero(params, r_bar=r_bar)
        r, w, _ = traj.profile()
        mask = (r >= 0.5 * r_bar) & (r <= 0.995 * r_bar)
        expected = np.clip(1.0 - r[mask] ** 1.5 / 3.0, 0.0, None) ** 2
        assert np.max(np.abs(w[mask] - expected)) <= 1e-6

    def test_edge_event_recorded(self):
        traj = shoot_double_zero(ProblemParams(2, 3.0, 1.0, 1), r_bar=1.0)
        assert any(e.kind == "double_zero_capture" for e in traj.events)

    def test_small_amplitude_oscillation_edge(self):
        # hole orbit in an oscillating regime must hand off before the
        # first extremum even though the amplitude stays tiny
        traj = shoot_double_zero(ProblemParams(1, 3.0, -4.0, -1),
                                 tau_span=30.0, consistency_check=False)
        assert traj.termination == "time_span"
        assert np.max(np.abs(traj.ys[0])) < 0.05

    def test_launch_makes_no_solve_ivp_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the T_eps launch called solve_ivp")

        monkeypatch.setattr(trajectories, "solve_ivp", refuse)
        traj = shoot_double_zero(ProblemParams(2, 3.0, 1.0, 1), tau_span=1.0)
        assert "offset_consistency" in traj.meta

    def test_launch_stats_count_the_launch(self):
        st = shoot_double_zero(ProblemParams(1, 3.0, -2.53, -1),
                               tau_span=1.0).meta["launch_stats"]
        assert st["segments"] == 2  # the launch and its offset/2 rerun
        assert st["accepted"] > 0
        # two evaluations to start a segment, six per attempted step
        assert st["rhs_evals"] == 2 * st["segments"] \
            + 6 * (st["accepted"] + st["rejected"])

    @staticmethod
    def _solve(params, rhs, **options):
        """The launch point (g0, s0) and a solve_ivp run of ``rhs`` in the
        time |g| from it, on (ln|s|, tau), ended by the rising hand-off row
        or at |g| = _G_EXIT."""
        u0 = shoot_double_zero(params, tau_span=0.0,
                               consistency_check=False).meta["launch_coords"]
        log_q = math.log(_q_hand(params, grow=True))

        def hand(t, v):
            return v[0] + (params.p - 1.0) * math.log(t) - log_q

        hand.terminal, hand.direction = True, 1
        return u0, solve_ivp(rhs, (abs(u0[0]), _G_EXIT), [math.log(abs(u0[1])), 0.0],
                             events=[hand], **options)

    def test_launch_replicates_scipy_rk45(self):
        # the stepper in the time |g| against solve_ivp's RK45 on the same
        # field and hand-off row: the time of every stage is bound as
        # scipy binds it, so the steps agree up to rounding.  The error
        # estimate cancels to a few digits, which sets the step sizes
        # apart: measured, the times part by 3e-8 of their size and the
        # hand-off point by 2e-16
        params, cfg, stats = ProblemParams(1, 3.0, -2.53, -1), IntegrationConfig(), _new_stats()
        f = _rhs(params, _RX_TEXT)
        u0, ref = self._solve(params, lambda t, v: f(t, *v), method="RK45",
                              rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14))
        x, u = _edge_phase(u0, params, cfg, stats)
        assert ref.status == 1
        assert stats["accepted"] == ref.t.size - 1
        assert stats["rhs_evals"] == ref.nfev
        tol = 1e-6
        assert np.max(np.abs(x - ref.t) / ref.t) <= tol
        for got, want in ((np.log(np.abs(u[1])), ref.y[0]), (u[2], ref.y[1])):
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
            assert abs(got[-1] - want[-1]) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("params, exits", [
        ((2, 3.0, 1.0, -1), False), ((1, 3.0, 2.0, -1), False),
        ((2, 2.5, 1.0, 1), False), ((1, 2.05, 1.0, 1), False),
        ((3, 6.0, -1.0, 1), False), ((2, 4.0, -5.0, 1), False),
        ((1, 2.5, -3.0, -1), False), ((3, 3.0, 2.0, -1), False),
        ((2, 6.0, 1.0, 1), False),
        ((3, 2.05, 10.0, 1), True), ((1, 3.0, -8.0, -1), True),
        ((2, 4.0, 7.0, 1), True)])
    def test_launch_meets_a_tight_reference(self, params, exits):
        # a DOP853 solve at rtol 1e-13 in the time |g|, from the chart-R
        # rates in nu: the launch ends where it does, at the hand-off or at
        # |g| = _G_EXIT, with tau within 1e-7 and, at _G_EXIT, the lifted
        # y within 1e-4
        params = ProblemParams(*params)
        p, eps = params.p, params.epsilon
        r_field = _rhs(params, _R_TEXT)

        def rhs(t, v):
            g, s = -eps * t, -eps * math.exp(v[0])
            dg, ds = r_field(g, s)
            return [ds / (s * -eps * dg), g * s / (-eps * dg)]

        u0, ref = self._solve(params, rhs, method="DOP853", rtol=1e-13, atol=1e-16)
        x, u = _edge_phase(u0, params, IntegrationConfig(), _new_stats())
        assert ref.status == (0 if exits else 1)
        assert (x[-1] == _G_EXIT) == exits
        tau_ref = ref.y[1, -1]
        assert abs(u[2, -1] - tau_ref) <= 1e-7 * abs(tau_ref)
        if exits:
            y_ref = (math.exp(ref.y[0, -1]) * _G_EXIT ** (p - 1.0)) ** (1.0 / (p - 2.0))
            y = (abs(u[1, -1]) * _G_EXIT ** (p - 1.0)) ** (1.0 / (p - 2.0))
            assert abs(y - y_ref) <= 1e-4 * y_ref


class TestAlgebraicDecay:
    def test_decay_exponent(self):
        params = ProblemParams(1, 3.0, -2.53, -1)
        traj = shoot_T_alpha(params, tau_span=25.0, consistency_check=False)
        r, w, _ = traj.profile()
        hi = np.max(r)
        slope = _loglog_slope(r, np.abs(w), hi / 10.0, hi)
        assert slope == pytest.approx(-params.alpha, rel=0.01)

    def test_unique_branch_below_minus_gamma(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_T_alpha(params, tau_span=15.0, consistency_check=False)
        r, w, _ = traj.profile()
        # below -gamma the algebraic end sits at the center r -> 0
        lo = np.min(r)
        slope = _loglog_slope(r, np.abs(w), lo, 10.0 * lo)
        assert slope == pytest.approx(4.0, rel=0.01)

    # the self-correcting T_alpha launches of the benchmark: figures, mel,
    # int, pom and orb
    SERIES_POINTS = [(1, 3.0, -2.53, -1), (2, 3.0, -6.0, 1), (1, 3.0, 0.7, -1),
                     (1, 3.0, -0.7, -1), (1, 3.0, -2.1, -1)]

    @pytest.mark.parametrize("params", SERIES_POINTS)
    def test_launch_meets_a_tight_reference(self, params, monkeypatch):
        # LSODA at rtol 1e-12 from the tangent launch at the default offset:
        # the hand-off (g, s, tau) is within 1e-6 of it (measured 5e-9 to
        # 3e-7; from the tangent at the library's rtol, 1.4e-6 to 8.2e-6)
        params = ProblemParams(*params)
        dc = derive_constants(params)
        p, al, eps = params.p, params.alpha, params.epsilon
        v = np.array([(p - 1.0) * (dc.eta - al), eps * al * al])
        v /= np.hypot(*v)
        d = (-1.0 if al > 0.0 else 1.0) * math.copysign(1.0, v[1])
        f, q_hand = _rhs(params, _R_TEXT), _q_hand(params, grow=True)

        def hand(nu, u):
            return _q("R", u[0], u[1], p) - q_hand

        hand.terminal, hand.direction = True, 1
        ref = solve_ivp(lambda nu, u: [*f(u[0], u[1]), u[0] * u[1]],
                        (0.0, (-1.0 if al > -dc.gamma else 1.0) * 1e15),
                        [-1.0 / al + d * 1e-7 * v[0], d * 1e-7 * v[1], 0.0],
                        method="LSODA", rtol=1e-12, atol=1e-14, events=[hand])
        assert ref.status == 1

        ends = []
        phase = trajectories._stiff_phase

        def recorded(*args, **kwargs):
            t, u = phase(*args, **kwargs)
            ends.append(u[:, -1])
            return t, u

        monkeypatch.setattr(trajectories, "_stiff_phase", recorded)
        shoot_T_alpha(params, tau_span=0.0, consistency_check=False)
        (end,) = ends
        assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-6

    def test_launch_work(self):
        # the series fills the slow decades next to the decay point: 138 rhs
        # evaluations, 1,032 when LSODA runs all of the launch; its 76
        # accepted steps are counted too
        st = shoot_T_alpha(ProblemParams(1, 3.0, -2.53, -1), tau_span=0.0,
                           consistency_check=False).meta["launch_stats"]
        assert st["segments"] == 1
        assert st["rhs_evals"] <= 300
        assert st["accepted"] == 76

    def test_degenerate_point_launches_from_the_tangent(self):
        # alpha = eta = -1: the decay point has no center-manifold series
        # (c = 0), and the orbit, offset/2 rerun included, is the tangent
        # launch's bit for bit
        traj = shoot_T_alpha(ProblemParams(1, 3.0, -1.0, -1))
        digest = hashlib.sha256(traj.tau.tobytes() + traj.ys.tobytes()).hexdigest()
        assert digest == "f547f30434414cddd91cb9f1ce9f07903c7e525f21682cdab8dd3bf679f48246"
        assert traj.meta["launch_coords"] == (1.0, 1e-07)
        assert traj.meta["offset_consistency"] == 2.7927660184445813e-13

    @pytest.mark.parametrize("alpha", [-1.001, -0.999])
    def test_near_degenerate_point_returns_a_finite_orbit(self, alpha):
        # next to alpha = eta the series' coefficients are large but finite
        traj = shoot_T_alpha(ProblemParams(1, 3.0, alpha, -1))
        assert np.all(np.isfinite(traj.tau)) and np.all(np.isfinite(traj.ys))
        assert np.isfinite(traj.meta["offset_consistency"])


class TestEtaFamily:
    def test_growth_exponent_when_p_exceeds_N(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = shoot_T_eta_or_u(params, consistency_check=False)
        assert traj.meta["kind"] == "T_u"
        r, w, _ = traj.profile()
        lo = np.min(r)
        slope = _loglog_slope(r, np.abs(w), lo, 10.0 * lo)
        assert slope == pytest.approx(0.5, rel=0.01)

    def test_singular_exponent_when_p_below_N(self):
        params = ProblemParams(4, 3.0, 1.0, 1)
        traj = shoot_T_eta_or_u(params, consistency_check=False)
        assert traj.meta["kind"] == "T_eta"
        r, w, _ = traj.profile()
        lo = np.min(r)
        slope = _loglog_slope(r, np.abs(w), lo, 10.0 * lo)
        assert slope == pytest.approx(-0.5, rel=0.01)

    def test_harmonic_parameter_matches_oracle(self):
        params = ProblemParams(4, 3.0, 0.5, 1)
        traj = shoot_T_eta_or_u(params, consistency_check=False)
        r, w, _ = traj.profile()
        sol = oracle("p_harmonic", params)
        mask = (r > 0.01) & (r < 1.0)
        c = np.median(w[mask] * r[mask] ** 0.5)
        expected = c * r[mask] ** (-0.5)
        assert np.max(np.abs(w[mask] - expected) / expected) <= 1e-6
        assert sol(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_wrong_family_requested_is_rejected(self):
        spec = SpecialTrajectorySpec(kind="T_u")
        with pytest.raises(ParameterError):
            shoot(spec, ProblemParams(4, 3.0, 1.0, 1), consistency_check=False)


class TestBoundedSlopeFamily:
    def test_center_values_one_dimensional(self):
        params = ProblemParams(1, 3.0, 1.0, 1)
        traj = shoot_T_pm(params, a=1.0, c=1.0)
        r, w, dw = traj.profile()
        mask = r <= 1e-4
        assert np.count_nonzero(mask) >= 3
        # subtract the subleading tail to recover the center value
        dc = derive_constants(params)
        w0 = w[mask] - (1.0 / abs(dc.eta)) * r[mask] ** abs(dc.eta)
        assert np.max(np.abs(w0 - 1.0)) <= 1e-3
        assert np.max(np.abs(-dw[mask] - 1.0)) <= 1e-3

    def test_negative_branch_grows_at_center(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = shoot_T_pm(params, a=1.0, c=-1.0)
        r, w, dw = traj.profile()
        mask = r <= 1e-3
        assert np.count_nonzero(mask) >= 3
        assert np.all(dw[mask] > 0.0)

    @pytest.mark.parametrize("alpha, eps", [(1.0, 1), (-1.5, -1)])
    def test_corner_chart_left_below_zero_is_declared(self, alpha, eps):
        # kappa = 42: a stage of the corner solve reaches v < 0, where
        # v ** kappa once turned complex
        with pytest.raises(IntegrationError, match=r"flat-limit corner chart: left "
                                                   r"the chart at v = -\d"):
            shoot(SpecialTrajectorySpec("T_minus"), ProblemParams(2, 2.05, alpha, eps),
                  tau_span=1.0)

    def test_limits_at_p_equal_N(self):
        # w/|ln r| -> k and r w' -> -k as r -> 0 (k = a = 1); the launch at
        # tau0 = -18 (r = 1.5e-8) is calibrated to them, and inward of
        # r = 1e-3 both approach k monotonically as r falls
        traj = shoot_T_pm(ProblemParams(3, 3.0, 1.0, 1), a=1.0)
        r, w, dw = traj.profile()
        inner = r < 1e-3
        assert np.all(np.diff(r[inner]) > 0.0)  # the launch end comes first
        for ratio in (w[inner] / np.abs(np.log(r[inner])), -r[inner] * dw[inner]):
            assert np.all(np.diff(ratio) <= 1e-12)
            assert np.all(np.abs(ratio - 1.0) <= 1e-3)
            near = ratio[r[inner] < 2e-8]
            assert near.size >= 3
            assert np.max(np.abs(near - 1.0)) <= 1e-5

    def test_p_below_N_rejected(self):
        with pytest.raises(ParameterError):
            shoot_T_pm(ProblemParams(4, 3.0, 1.0, 1), a=1.0, c=1.0)

    def test_c_at_p_equal_N_rejected(self):
        # the p = N family has no tail coefficient, called directly or by spec
        with pytest.raises(ParameterError, match="c does not apply at p = N"):
            shoot_T_pm(ProblemParams(3, 3.0, 1.0, 1), a=1.0, c=-5.0)

    def test_sign_constraints_on_dispatch(self):
        with pytest.raises(ParameterError):
            shoot(SpecialTrajectorySpec(kind="T_minus", c=1.0),
                  ProblemParams(1, 3.0, 1.0, 1))


class TestLaunchBudget:
    """The launches stop at their budget: the solve_ivp launch of T_alpha
    at ``6 * max_steps`` rhs evaluations, the stepper launches (T_eps in
    chart R, the corner charts of the flat-limit family) at ``max_steps``
    attempted steps."""

    SOLVE_IVP = "launch phase in chart R exceeded its budget of 6 rhs evaluations"

    @pytest.mark.parametrize("kind, params, message", [
        ("T_eps", (2, 3.0, 1.0, 1), "launch phase in chart R: max_steps exceeded"),
        ("T_alpha", (1, 3.0, -2.53, -1), SOLVE_IVP),  # manifold
        ("T_alpha", (1, 3.0, -4.0, -1), SOLVE_IVP),   # seeded
        ("T_plus", (1, 3.0, 1.0, 1), "flat-limit corner chart: max_steps exceeded"),  # p > N
        ("T_plus", (2, 3.0, 1.0, 1), "flat-limit corner chart: max_steps exceeded"),  # p > N
        ("T_plus", (3, 3.0, 1.0, 1), "flat-limit corner chart: max_steps exceeded"),  # p = N
    ])
    def test_small_budget_raises(self, kind, params, message):
        cfg = IntegrationConfig(max_steps=1)
        with pytest.raises(IntegrationError, match=message):
            shoot(SpecialTrajectorySpec(kind), ProblemParams(*params), cfg,
                  tau_span=1.0)


# The Q and P launches against the solve_ivp call on the chart's field text
# that the scalar stepper replaced: (kind, (N, p, alpha, eps), chart-time span)
LAUNCH_REFERENCE = [
    ("T_r", (2, 3.0, 2.0, 1), (0.0, 80.0)),
    ("T_u", (2, 3.0, 1.0, 1), (0.0, 80.0)),
    ("T_minus", (2, 3.0, 1.0, 1), (-16.0, 64.0)),
]


@pytest.mark.parametrize("kind, params, span", LAUNCH_REFERENCE)
def test_launch_replicates_scipy_rk45(kind, params, span):
    params = ProblemParams(*params)
    meta = shoot(SpecialTrajectorySpec(kind), params, tau_span=0.0,
                 consistency_check=False).meta
    chart, u0 = meta["launch_chart"], meta["launch_coords"]
    cfg = IntegrationConfig()
    stats = _new_stats()
    t, u = _chart_phase(chart, u0, params, cfg, span, stats)

    q_hand = _q_hand(params, grow=False)

    def hand(t, u):
        return _q(chart, u[0], u[1], params.p) - q_hand

    hand.terminal, hand.direction = True, -1
    f = _rhs(params, {"Q": _Q_TEXT, "P": _P_TEXT}[chart])
    ref = solve_ivp(lambda t, u: f(float(u[0]), float(u[1])), span,
                    np.asarray(u0, dtype=float), method="RK45",
                    rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                    max_step=0.25, events=[hand])
    assert ref.status == 1
    assert stats["accepted"] == ref.t.size - 1
    assert stats["rhs_evals"] == ref.nfev
    assert t.size == ref.t.size  # the hand-off fired in the same step
    # the same rule up to rounding (see TestStepper.test_replicates_scipy_rk45)
    tol = 1e-8
    assert abs(t[-1] - ref.t[-1]) <= tol * (span[1] - span[0])
    scale = np.max(np.abs(ref.y), axis=1)
    assert np.all(np.abs(u[:, -1] - ref.y[:, -1]) <= tol * scale)


class TestDispatch:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SpecialTrajectorySpec(kind="T_x")

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ValueError):
            SpecialTrajectorySpec(kind="T_r", offset=0.0)

    # the spec fields each kind reads, and a kind's regime: (N, p, alpha,
    # eps) where it exists
    READS = {"T_r": ("offset", "a"), "T_eps": ("offset", "a"),
             "T_alpha": ("offset",), "T_eta": ("offset",), "T_u": ("offset",),
             "T_plus": ("a", "c"), "T_minus": ("a", "c")}
    REGIME = {"T_r": (2, 3.0, 1.0, 1), "T_eps": (2, 3.0, 1.0, 1),
              "T_alpha": (1, 3.0, -2.53, -1), "T_eta": (4, 3.0, 1.0, 1),
              "T_u": (2, 3.0, 1.0, 1), "T_plus": (2, 3.0, 1.0, 1),
              "T_minus": (2, 3.0, 1.0, 1)}

    @staticmethod
    def _fields(kind, names):
        values = {"offset": 2e-7, "a": 2.0, "c": -2.0 if kind == "T_minus" else 2.0}
        return {name: values[name] for name in names}

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_a_field_the_kind_does_not_read_is_refused(self, kind):
        for n in range(4):
            for names in itertools.combinations(("offset", "a", "c"), n):
                if set(names) <= set(self.READS[kind]):
                    SpecialTrajectorySpec(kind, **self._fields(kind, names))
                else:
                    with pytest.raises(ParameterError, match="does not apply"):
                        SpecialTrajectorySpec(kind, **self._fields(kind, names))

    @pytest.mark.parametrize("kind", sorted(READS))
    def test_every_field_the_kind_reads_moves_the_orbit(self, kind):
        params = ProblemParams(*self.REGIME[kind])

        def orbit(**fields):
            t = shoot(SpecialTrajectorySpec(kind, **fields), params, tau_span=1.0,
                      consistency_check=False)
            return t.tau, t.ys

        tau, ys = orbit()
        for name in self.READS[kind]:
            tau_f, ys_f = orbit(**self._fields(kind, [name]))
            assert not (np.array_equal(tau, tau_f) and np.array_equal(ys, ys_f)), name

    @pytest.mark.parametrize("kind, params, fields", [
        ("T_eta", (2, 3.0, 1.0, 1), {}),   # p > N
        ("T_u", (4, 3.0, 1.0, 1), {}),     # p < N
        ("T_eta", (3, 3.0, 1.0, 1), {}),   # p = N
        ("T_u", (3, 3.0, 1.0, 1), {}),
        ("T_plus", (4, 3.0, 1.0, 1), {}),
        ("T_minus", (3, 3.0, 1.0, 1), {}),
        ("T_minus", (4, 3.0, 1.0, 1), {}),
        ("T_plus", (3, 3.0, 1.0, 1), {"c": 5.0}),  # no c at p = N
    ])
    def test_request_outside_the_regime_is_refused_before_launching(
            self, kind, params, fields):
        # one attempted step would end a launch in IntegrationError
        with pytest.raises(ParameterError):
            shoot(SpecialTrajectorySpec(kind, **fields), ProblemParams(*params),
                  IntegrationConfig(max_steps=1))

    def test_dispatch_reaches_every_kind(self):
        # every kind takes the same keywords; the flat-limit launch of
        # T_plus / T_minus has no offset
        for kind, params in [("T_r", (2, 3.0, 1.0, 1)), ("T_eps", (2, 3.0, 1.0, 1)),
                             ("T_alpha", (1, 3.0, -2.53, -1)),
                             ("T_alpha", (1, 3.0, -4.0, -1)),  # seeded variant
                             ("T_eta", (4, 3.0, 1.0, 1)), ("T_u", (2, 3.0, 1.0, 1)),
                             ("T_plus", (1, 3.0, 1.0, 1)),
                             ("T_minus", (2, 3.0, 1.0, 1))]:
            t = shoot(SpecialTrajectorySpec(kind=kind), ProblemParams(*params),
                      tau_span=5.0, consistency_check=False)
            assert t.meta["kind"] == kind
            assert "offset_consistency" not in t.meta
            assert ("offset" in t.meta) == (kind not in ("T_plus", "T_minus"))


# Launch fingerprints, recorded before the shootings shared one launch
# pipeline: the seven kinds of the benchmark's ``plap shoot`` runs (default
# span), the seeded T_alpha variant and the T_eps launch that leaves its
# chart at |g| = 1e6 instead of reaching the hand-off level.  The two T_eps
# rows were recorded again when their launch moved onto the stepper in the
# time |g| (``TestDoubleZero.test_launch_meets_a_tight_reference`` checks
# that launch against a reference solve), and the T_alpha manifold row when
# its launch started on the center-manifold series
# (``TestAlgebraicDecay.test_launch_meets_a_tight_reference``).
# (kind, (N, p, alpha, eps), tau_span, termination, event kinds, samples,
#  first (tau, y, Y), last (tau, y, Y), offset_consistency)
LAUNCH_PINS = [
    ("T_r", (2, 3.0, 2.0, 1), None, "captured:origin", ["double_zero_capture"], 257,
     (-10.745397122861101, 100000000000000.02, 100000000000000.02),
     (0.7304111535421445, 1.0000000000021017e-06, 1.0000000000000857e-06),
     6.938893903907228e-18),
    ("T_eps", (2, 3.0, 1.0, 1), None, "escape",
     ["double_zero_capture", "escape_to_infinity"], 289,
     (-1.6641005886756875e-07, 6.923077307100137e-15, 6.923077691123372e-15),
     (-6.33684247535362, 42391311.04302812, 999999999101.4889),
     1.7269020705260685e-10),
    ("T_alpha", (1, 3.0, -2.53, -1), None, "captured:M_ell", ["stationary_capture"], 278,
     (0.0, 1.409497568941886e-08, -1.27165645301928e-15),
     (-40.278688239104405, 0.013055543116470959, -0.0015340235269018306),
     6.159299346245408e-11),
    ("T_eta", (4, 3.0, 1.0, 1), None, "origin_flagged", [], 402,
     (-5.106349792861578, 57784103.79764854, 834750903891954.2),
     (1.7418270845536448, 0.0009989980761643377, 1e-06),
     1.4857526578524904e-07),
    ("T_u", (2, 3.0, 1.0, 1), None, "origin_flagged", ["Y_zero_crossing"], 423,
     (-7.004856863968591, 40311290.74149282, -406250020155645.06),
     (1.6355377009097154, 0.0009969565753701027, 1.0000000000000025e-06),
     3.542091048089028e-14),
    ("T_plus", (1, 3.0, 1.0, 1), None, "origin_flagged",
     ["Y_zero_crossing", "y_zero_crossing"], 422,
     (-16.000000168802735, 7.016738675801294e+20, 6.2351532908539e+27),
     (1.728204352406326, -0.000995950393200616, -9.999999999999993e-07),
     None),
    ("T_minus", (2, 3.0, 1.0, 1), None, "origin_flagged", ["Y_zero_crossing"], 469,
     (-15.998657699146243, 6.993228949413676e+20, -5.503560981607365e+34),
     (1.9964732126626876, 0.0009969434216707295, 9.999999999999983e-07),
     None),
    ("T_alpha", (1, 3.0, -4.0, -1), 30.0, "time_span",
     ["Y_zero_crossing", "y_zero_crossing"], 3380,
     (-11.785508932502415, 5.852055648029697e-09, -5.479450388392606e-16),
     (30.0, 0.004542515370384248, -0.02444020147735241),
     0.0),
    ("T_eps", (1, 3.0, -4.0, -1), 30.0, "time_span",
     ["Y_zero_crossing", "double_zero_capture", "y_zero_crossing"], 2458,
     (5.7469577113269076e-08, 8.256879943079212e-16, -8.256879152213548e-16),
     (30.65427678069066, 0.025004194826113754, 0.005653166080366462),
     1.576553475886955e-22),
]


@pytest.mark.parametrize("kind, params, span, termination, kinds, n, first, last, "
                         "consistency", LAUNCH_PINS)
def test_launch_fingerprint(kind, params, span, termination, kinds, n, first,
                            last, consistency):
    traj = shoot(SpecialTrajectorySpec(kind), ProblemParams(*params), tau_span=span)
    assert traj.termination == termination
    assert sorted({e.kind for e in traj.events}) == kinds
    assert traj.tau.size == n
    got_first = (traj.tau[0], *traj.ys[:, 0])
    got_last = (traj.tau[-1], *traj.ys[:, -1])
    assert got_first == pytest.approx(first, rel=1e-9, abs=1e-15)
    assert got_last == pytest.approx(last, rel=1e-9, abs=1e-15)
    if consistency is None:
        assert "offset_consistency" not in traj.meta
    else:
        assert traj.meta["offset_consistency"] == pytest.approx(
            consistency, rel=1e-6, abs=1e-15)


# T_plus at p = N, recorded before the hand-off ran its own launch (same
# fields as LAUNCH_PINS)
P_EQUAL_N_PIN = (
    "T_plus", (3, 3.0, 1.0, 1), None, "origin_flagged",
    ["Y_zero_crossing", "y_zero_crossing"], 468,
    (-18.0, 5.095355945894449e+24, 8.013164264000591e+46),
    (1.5400765487051618, -0.0009979991392768306, -9.999999999999995e-07),
    None)


def test_p_equal_N_launch_fingerprint():
    test_launch_fingerprint(*P_EQUAL_N_PIN)
