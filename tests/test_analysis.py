"""Stationary classification, labels, cycles, the connection function, the
critical exponent, and the regime classifier."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from scipy.integrate import solve_ivp

from plap import analysis
from plap.integrate import IntegrationConfig, Trajectory, _new_stats, integrate_s
from plap.params import (ParameterError, ProblemParams, derive_constants,
                         m_ell_point)
from plap.systems import (_R_TEXT, PhaseState, _decay_manifold, _double_zero_manifold,
                          _manifold_reach, _rhs, _series)
from plap.trajectories import _edge_phase, shoot_regular
from plap.analysis import (
    AnalysisError,
    BracketError,
    asymptotic_label,
    classify_regime,
    classify_stationary_points,
    count_sign_changes,
    critical_bracket,
    detect_limit_cycle,
    find_alpha_c,
    phi_of_alpha,
    theorem_tag,
)


SEED_ALPHA_C_2_3 = -1.9085247500419618  # find_alpha_c(2, 3.0) by bisection

# find_alpha_c by bisection of the connection function, with both
# separatrices on RK45
RECORDED_ALPHA_C = {(2, 3.0): SEED_ALPHA_C_2_3,
                    (3, 3.0): -1.8388050770759583,
                    (2, 4.0): -1.4493689287185667,
                    (2, 2.5): -2.861772686068217}


def second_order_manifold(params):
    """(m_1, m_2) in closed form: the center manifold S = m_1 x + m_2 x^2
    + O(x^3) of the algebraic-decay point, x = g - 1/|alpha|."""
    dc = derive_constants(params)
    N, p, al, beta, eta = params.N, params.p, params.alpha, dc.beta, dc.eta
    m1 = al * al / (beta * (al - eta) * (p - 1.0))
    m2 = -al ** 3 * (N + (p - 2.0) * (al - eta)) \
        / (beta * (p - 1.0) * (al - eta) ** 2)
    return m1, m2


def _beta_series(params):
    """[m_1, ..., m_10]: the decay point's center manifold in chart R_beta,
    the series the connection function launches from."""
    return _decay_manifold(params, derive_constants(params).beta)[0]


@pytest.fixture
def solver_calls(monkeypatch):
    """[method, rhs evaluations] of every solve_ivp call made through
    plap.analysis, counted on the rhs itself."""
    import plap.analysis as analysis_mod
    calls = []
    real = analysis_mod.solve_ivp

    def counted(fun, *args, **kwargs):
        entry = [kwargs.get("method"), 0]
        calls.append(entry)

        def rhs(t, u):
            entry[1] += 1
            return fun(t, u)

        return real(rhs, *args, **kwargs)

    monkeypatch.setattr(analysis_mod, "solve_ivp", counted)
    return calls


@pytest.fixture
def phi_calls(monkeypatch):
    """Arguments of every phi_of_alpha call made through plap.analysis."""
    import plap.analysis as analysis_mod
    calls = []
    real = analysis_mod.phi_of_alpha

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis_mod, "phi_of_alpha", counted)
    return calls


def _flat_info(N, p, alpha, eps):
    pts = classify_stationary_points(ProblemParams(N, p, alpha, eps))
    return next(sp for sp in pts if sp.point_id == "M_ell")


class TestStationaryPoints:
    def test_hopf_transition_types(self):
        assert _flat_info(1, 3.0, -2.2, -1).local_type == "source_spiral"
        assert _flat_info(1, 3.0, -2.1, -1).local_type == "sink_spiral"
        astar = derive_constants(ProblemParams(1, 3.0, -1.0, -1)).alpha_star
        assert _flat_info(1, 3.0, astar, -1).local_type == "weak_source"

    def test_forward_sign_flat_point_attracts(self):
        assert _flat_info(2, 3.0, -6.0, 1).local_type in ("sink_node", "sink_spiral")

    def test_eigenvalues_solve_characteristic_polynomial(self):
        for alpha in (-2.2, -2.1, -2.5, -1.6):
            params = ProblemParams(1, 3.0, alpha, -1)
            dc = derive_constants(params)
            info = _flat_info(1, 3.0, alpha, -1)
            tr = 2.0 * dc.gamma + params.N + dc.nu_alpha
            det = dc.p_prime * (params.N + dc.gamma)
            for lam in info.eigenvalues:
                res = lam * lam + tr * lam + det
                assert abs(res) <= 1e-12 * max(1.0, abs(lam) ** 2)

    def test_trace_vanishes_exactly_at_hopf_value(self):
        astar = derive_constants(ProblemParams(1, 3.0, -1.0, -1)).alpha_star
        info = _flat_info(1, 3.0, astar, -1)
        assert abs(sum(info.eigenvalues).real) <= 1e-12
        off = _flat_info(1, 3.0, astar + 1e-3, -1)
        assert abs(sum(off.eigenvalues).real) > 1e-6

    def test_origin_always_reported(self):
        pts = classify_stationary_points(ProblemParams(1, 3.0, -4.0, -1))
        ids = [sp.point_id for sp in pts]
        assert "origin" in ids
        assert "M_ell" not in ids  # no flat point in this regime

    def test_symmetric_pair(self):
        pts = classify_stationary_points(ProblemParams(2, 3.0, -6.0, 1))
        ids = {sp.point_id for sp in pts}
        assert {"origin", "M_ell", "minus_M_ell"} <= ids


class TestSignCounting:
    def test_oscillating_orbit(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        assert count_sign_changes(traj) >= 10

    def test_single_sign_orbit(self):
        traj = shoot_regular(ProblemParams(2, 3.0, 1.0, 1), tau_span=30.0,
                             consistency_check=False)
        assert count_sign_changes(traj) == 0

    def test_no_double_counting_of_event_and_sample_flip(self):
        params = ProblemParams(1, 3.0, -0.7, -1)
        traj = shoot_regular(params, tau_span=30.0, consistency_check=False)
        assert count_sign_changes(traj) == 1

    def test_window_restriction(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        total = count_sign_changes(traj)
        last = count_sign_changes(traj, window=(traj.tau[-1] - 10.0, traj.tau[-1]))
        assert 0 < last < total


# sigma -> +inf and -inf as tau falls: the tails of TestAsymptoticLabels on
# which zeta -> 0 grow backward in tau
def _sigma_up(tau):
    return np.exp(-0.5 * tau)


def _sigma_down(tau):
    return -np.exp(-0.5 * tau)


class TestAsymptoticLabels:
    def test_flat_convergence(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        traj = shoot_regular(params, tau_span=60.0, consistency_check=False)
        assert asymptotic_label(traj, params) == "A_gamma"

    def test_oscillation(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        assert asymptotic_label(traj, params) == "oscillating_sign"

    @staticmethod
    def _vertical_tail(params, zeta, sigma=None, span=20.0):
        """A synthetic orbit with d ln|w| / d ln r = -zeta that runs to
        |y| -> infinity: on zeta's level curve Y = phi^-1(zeta y) when
        ``sigma`` is None, else on Y = sigma(tau) y."""
        rate = -zeta - derive_constants(params).gamma  # d ln y / d tau
        direction = 1 if rate > 0 else -1
        tau = direction * np.linspace(0.0, span, 2001)
        y = np.exp(rate * tau)
        if sigma is None:
            Y = np.sign(zeta) * np.abs(zeta * y) ** (params.p - 1.0)
        else:
            Y = sigma(tau) * y
        return Trajectory("S", params, tau, np.vstack([y, Y]), [], "time_span",
                          direction)

    @pytest.mark.parametrize("N, p, zeta_off, sigma, label", [
        (1, 3.0, 0.0, None, "L_eta"),
        (3, 2.5, 0.0, None, "L_eta"),
        (1, 3.0, None, _sigma_up, "L_plus"),
        (3, 3.0, None, _sigma_up, "L_plus"),     # p = N
        (2, 4.0, None, _sigma_down, "L_minus"),
        # near misses
        (1, 3.0, 0.05, None, "undetermined"),         # zeta off eta: not L_eta
        (3, 2.5, None, _sigma_up, "undetermined"),    # p < N: not L_plus
        (3, 3.0, None, _sigma_down, "undetermined"),  # p = N: not L_minus
        (2, 4.0, None, _sigma_up, "L_plus"),          # sigma -> +inf: not L_minus
    ])
    def test_vertical_line_limits(self, N, p, zeta_off, sigma, label):
        params = ProblemParams(N, p, 1.0, 1)
        zeta = 0.0 if zeta_off is None else derive_constants(params).eta + zeta_off
        traj = self._vertical_tail(params, zeta, sigma)
        assert asymptotic_label(traj, params) == label


class TestLimitCycles:
    def test_oscillation_cycle_certified(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_regular(params, tau_span=60.0, consistency_check=False)
        cyc = detect_limit_cycle(traj, params)
        assert cyc is not None
        assert cyc.stability == "attracting"
        assert cyc.floquet_mean <= 1e-6
        assert cyc.period_tau > 0.0
        assert cyc.orbit.shape[0] == 2

    def test_no_cycle_for_forward_sign(self):
        params = ProblemParams(1, 3.0, -4.0, 1)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        assert detect_limit_cycle(traj, params) is None

    def test_small_cycle_near_hopf_value(self):
        astar = derive_constants(ProblemParams(1, 3.0, -1.0, -1)).alpha_star
        params = ProblemParams(1, 3.0, astar + 0.01, -1)
        traj = shoot_regular(params, tau_span=120.0, consistency_check=False)
        cyc = detect_limit_cycle(traj, params)
        assert cyc is not None
        assert cyc.floquet_mean <= 1e-6


@functools.lru_cache(maxsize=None)
def _cycles(alpha: float, rel_tol: float):
    """The cycles that classify_regime certifies at (1, 3, alpha, -1)."""
    config = IntegrationConfig(rel_tol=rel_tol)
    return classify_regime(ProblemParams(1, 3.0, alpha, -1), config).cycles


class TestCycleStability:
    def test_hopf_limit(self):
        # N = 1, p = 3: M_ell is a sink spiral for alpha just above
        # alpha* = -15/7, where its eigenvalues are +-i sqrt(6).  As alpha
        # falls to alpha*, the M_ell cycle must repel, with its mean
        # divergence falling to 0 and its period to 2 pi / sqrt(6) (Hopf's
        # theorem; L. Perko, Differential Equations and Dynamical Systems,
        # section 4.4)
        means, periods = [], []
        for alpha in (-2.13, -2.135, -2.14):
            cyc, = [c for c in _cycles(alpha, 1e-8) if c.meta["center"] == "M_ell"]
            assert cyc.stability == "repelling"
            assert cyc.floquet_mean > 0.0
            means.append(cyc.floquet_mean)
            periods.append(cyc.period_tau)
        assert means[0] > means[1] > means[2]
        assert periods[0] > periods[1] > periods[2] > 2.0 * math.pi / math.sqrt(6.0)

    @pytest.mark.parametrize("alpha", [-4.0, -2.1, -2.14])  # osc, orb, near Hopf
    def test_labels_do_not_depend_on_rel_tol(self, alpha):
        labels = [[(c.meta["source"], c.stability) for c in _cycles(alpha, tol)]
                  for tol in (1e-8, 1.1e-8, 1e-10)]
        assert labels[0]
        assert labels[0] == labels[1] == labels[2]


class TestReturnMap:
    OSC = ProblemParams(1, 3.0, -4.0, -1)

    def _whole_span(self, Y_sec):
        # the return read off the orbit over the map's whole span
        traj = integrate_s(PhaseState(0.0, 0.0, Y_sec), self.OSC, 1,
                           capture=False, tau_span=10.0)
        t_k, Y_k = analysis._section_crossings(traj, self.OSC, "origin")
        sel = np.abs(t_k) > 1e-9
        return float(Y_k[sel][0]), float(t_k[sel][0]), traj

    def test_orbit_ends_at_its_first_return(self):
        Y_next, period, traj = analysis._return_map(
            0.0229, self.OSC, "origin", 1, IntegrationConfig(), 1.5)
        want_Y, want_t, full = self._whole_span(0.0229)
        assert (Y_next, period) == (want_Y, want_t)
        assert traj.termination == "section"
        n = traj.n_samples
        assert traj.tau[-1] < 2.0 < full.tau[-1]
        assert np.array_equal(traj.ys, full.ys[:, :n])

    def test_whole_span_when_the_prefix_holds_no_return(self, monkeypatch):
        # where the section event and the chord's Y test disagree, the
        # prefix holds no chord return; the map then reads the whole span
        chords = analysis._section_crossings

        def no_return_in_prefix(traj, *args):
            if traj.termination == "section":
                return np.array([]), np.array([])
            return chords(traj, *args)

        monkeypatch.setattr(analysis, "_section_crossings", no_return_in_prefix)
        Y_next, period, traj = analysis._return_map(
            0.0229, self.OSC, "origin", 1, IntegrationConfig(), 1.5)
        want_Y, want_t, full = self._whole_span(0.0229)
        assert (Y_next, period) == (want_Y, want_t)
        assert traj.termination == "time_span"
        assert np.array_equal(traj.ys, full.ys)


class TestConnectionFunction:
    def test_signs_around_homoclinic_value(self):
        assert phi_of_alpha(1, 3.0, -2.0) == pytest.approx(0.0, abs=1e-9)
        assert phi_of_alpha(1, 3.0, -2.1) > 0.0
        assert phi_of_alpha(1, 3.0, -1.9) < 0.0

    def test_strictly_decreasing(self):
        samples_1 = [phi_of_alpha(1, 3.0, a) for a in (-2.1, -2.0, -1.9)]
        assert samples_1[0] > samples_1[1] > samples_1[2]
        samples_2 = [phi_of_alpha(2, 3.0, a) for a in (-1.95, -1.8, -1.6)]
        assert samples_2[0] > samples_2[1] > samples_2[2]

    def test_launch_distance_insensitivity(self, monkeypatch):
        # S0 from the double-zero series at its reach, at a tenth of it, and
        # from the first-order point at g = 1e-7: the saddle B' shrinks a
        # launch error off its unstable manifold on the way to the section
        params = ProblemParams(2, 3.0, -1.8, -1)
        real_reach = analysis._manifold_reach
        full = _double_zero_manifold(params)
        first = full[:1] + [0.0] * (len(full) - 1)
        got = []
        for series, scale in ((full, 1.0), (full, 0.1), (first, 0.0)):
            monkeypatch.setattr(analysis, "_double_zero_manifold", lambda _, c=series: c)
            monkeypatch.setattr(analysis, "_manifold_reach",
                                lambda m, rel, c=series, k=scale:
                                k * real_reach(full, rel) if m is c else real_reach(m, rel))
            got.append(analysis._phi_shoot(params, IntegrationConfig())[0])
        assert max(got) - min(got) <= 1e-8 * abs(got[0]), got

    def test_decay_separatrix_is_integrated_as_stiff(self, solver_calls):
        # RK45 spent about 7,900 rhs evaluations on this orbit, held to
        # steps of about 1e-6 by the stiffness near the center manifold;
        # the double-zero separatrix runs on the scalar stepper
        phi_of_alpha(2, 3.0, -1.9)
        (m1, n1), = solver_calls
        assert m1 == "LSODA"
        assert n1 <= 1000

    def test_inadmissible_launch_is_refused_before_integrating(self,
                                                              solver_calls):
        # the decay launch of (1, 3, -0.7) has F <= 0, where LSODA never
        # leaves the launch abscissa
        with pytest.raises(AnalysisError, match="admissible"):
            phi_of_alpha(1, 3.0, -0.7)
        assert solver_calls == []

    def test_decay_leg_ending_on_L_reads_its_ordinate(self, monkeypatch):
        # LSODA gives up on these decay legs 3.6e-11 and 5.4e-10 short of
        # the section, converging into L' = (1/gamma, S_L): S1 reads S_L,
        # which RK45 at rel_tol 1e-12 to the section confirms
        real = analysis.solve_ivp
        for N, p, alpha in [(2, 2.884458375095161, -2.8038683795433594),
                            (3, 3.6140049597748267, -1.9569495838138105)]:
            params = ProblemParams(N, p, alpha, -1)
            dc = derive_constants(params)
            launches = []

            def spy(fun, t_span, y0, **kwargs):
                launches.append((t_span[0], y0[0]))
                return real(fun, t_span, y0, **kwargs)

            monkeypatch.setattr(analysis, "solve_ivp", spy)
            _, S1 = analysis._phi_shoot(params, IntegrationConfig())
            assert S1 == (1.0 + alpha / dc.gamma) / (dc.beta * (1.0 + N / dc.gamma))
            f = _rhs(params, _R_TEXT, dc.beta)
            (g1, S_launch), = launches
            ref = solve_ivp(lambda g, u: [f(g, float(u[0]))[1] / f(g, float(u[0]))[0]],
                            (g1, 1.0 / dc.gamma), [S_launch], method="RK45",
                            rtol=1e-12, atol=1e-14)
            assert ref.success and abs(S1 - ref.y[0, -1]) <= 1e-7, params

        # a give-up anywhere else stays an error
        def stalled(fun, t_span, y0, **kwargs):
            sol = real(fun, (t_span[0], 0.5 * (t_span[0] + t_span[1])), y0, **kwargs)
            sol.success = False
            return sol

        monkeypatch.setattr(analysis, "solve_ivp", stalled)
        with pytest.raises(AnalysisError, match="left the admissible region"):
            analysis._phi_shoot(params, IntegrationConfig())

    @pytest.mark.parametrize("N, p", sorted(RECORDED_ALPHA_C) + [(1, 3.0)])
    def test_double_zero_separatrix_meets_a_tight_reference(self, N, p):
        # S0 at the search interval's quarter points against DOP853 at
        # rel_tol 1e-12 on the graph dS/dg of chart R_beta
        lo, hi = analysis._search_interval(*critical_bracket(N, p))
        for k in (1, 2, 3):
            alpha = lo + k * (hi - lo) / 4.0
            params = ProblemParams(N, p, alpha, -1)
            dc = derive_constants(params)
            f = _rhs(params, _R_TEXT, dc.beta)
            lam = (p - 2.0) / (p - 1.0)
            start = 1.0 / dc.beta + 1e-7 * (alpha - N) / (dc.beta * (1.0 + lam))

            def slope(g, u):
                dg, dS = f(g, float(u[0]))
                return [dS / dg]

            ref = solve_ivp(slope, (1e-7, 1.0 / dc.gamma), [start],
                            method="DOP853", rtol=1e-12, atol=1e-14)
            assert ref.success
            S0, _ = analysis._phi_shoot(params, IntegrationConfig())
            assert abs(S0 - ref.y[0, -1]) <= 1e-8 * abs(ref.y[0, -1]), alpha

    def test_degenerate_decay_point_is_an_analysis_error(self):
        # alpha = eta = -1 for (N, p) = (1, 3): the center-manifold
        # coefficients of A' divide by alpha - eta
        assert derive_constants(ProblemParams(1, 3.0, -1.0, -1)).eta == -1.0
        with pytest.raises(AnalysisError, match="degenerate"):
            phi_of_alpha(1, 3.0, -1.0)

    def test_series_starts_with_the_closed_forms(self):
        # m_2 is a difference of two terms of size (p - 1) |alpha m_1| that
        # cancel down to N + (p - 2)(alpha - eta); it is compared at that size
        rng = np.random.default_rng(16)
        for _ in range(200):
            N, p = int(rng.integers(1, 4)), float(rng.uniform(2.05, 5.0))
            a, b = analysis._search_interval(*critical_bracket(N, p))
            params = ProblemParams(N, p, float(rng.uniform(a, b)), -1)
            m1, m2 = second_order_manifold(params)
            m = _beta_series(params)
            assert abs(m[0] - m1) <= 1e-15 * abs(m1), params
            assert abs(m[1] - m2) <= 1e-15 * (p - 1.0) * abs(params.alpha * m1), params

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
    def test_series_is_the_line_of_the_one_dimensional_connection(self, p):
        # for N = 1 the homoclinic orbit at alpha_c = -(p-1)/(p-2) enters A'
        # along the line S = alpha x, so every coefficient past m_1 vanishes
        alpha = -(p - 1.0) / (p - 2.0)
        m = _beta_series(ProblemParams(1, p, alpha, -1))
        assert m[0] == pytest.approx(alpha, rel=1e-15)
        assert max(map(abs, m[1:6])) <= 1e-12
        # and it leaves B' = (0, 1) (beta = 1) along S = 1 + alpha g
        c = _double_zero_manifold(ProblemParams(1, p, alpha, -1))
        assert c[0] == pytest.approx(alpha, rel=1e-15)
        assert max(map(abs, c[1:])) <= 1e-12

    @pytest.mark.parametrize("N, p", [(2, 2.2), (3, 2.5), (2, 3.0), (4, 3.0),
                                      (3, 4.0), (5, 6.0), (2, 10.0), (4, 10.0)])
    def test_double_zero_series_is_the_T_eps_launch(self, N, p):
        # at eps = -1 the T_eps launch leaves B' in chart R (s = beta S, in
        # the time |g|) along the same unstable manifold, from its
        # first-order point at g = 1e-7; within the series' reach its
        # samples lie on the series
        a, b = analysis._search_interval(*critical_bracket(N, p))
        params = ProblemParams(N, p, 0.5 * (a + b), -1)
        beta = derive_constants(params).beta
        c = _double_zero_manifold(params)
        reach = _manifold_reach(c, 1e-8)
        g, u = _edge_phase((1e-7, 1.0 + 1e-7 * beta * c[0]), params, IntegrationConfig(),
                           _new_stats())
        inside = g <= reach
        assert inside.sum() >= 5
        S = 1.0 / beta + _series(c, g[inside])
        assert np.max(np.abs(u[1, inside] / beta - S) / np.abs(S)) <= 1e-8

    @pytest.mark.parametrize("N, p", sorted(RECORDED_ALPHA_C))
    def test_series_residual_has_order_K_plus_one(self, N, p):
        # the invariance residual S'(x) dg/dnu - dS/dnu on chart R_beta's own
        # field vanishes through x^K: halving x divides it by about 2^(K+1)
        params = ProblemParams(N, p, RECORDED_ALPHA_C[N, p], -1)
        dc = derive_constants(params)
        f = _rhs(params, _R_TEXT, dc.beta)
        m = _beta_series(params)
        K = len(m)
        g_A = -1.0 / params.alpha

        def residual(x):
            S = sum(c * x ** k for k, c in enumerate(m, 1))
            dS = sum(k * c * x ** (k - 1) for k, c in enumerate(m, 1))
            dg, dS_dnu = f(g_A + x, S)
            return dS * dg - dS_dnu

        h = 0.3 * (g_A - 1.0 / dc.gamma)
        order = math.log2(residual(-h) / residual(-h / 2.0))
        assert K + 0.5 < order < K + 1.5

    @staticmethod
    def separatrix_solve(params, g0, S0, g1):
        """S at g1 on the orbit of chart R_beta's slope through (g0, S0):
        Radau at rel_tol 1e-13."""
        f = _rhs(params, _R_TEXT, derive_constants(params).beta)

        def slope(g, u):
            dg, dS = f(g, float(u[0]))
            return [dS / dg]

        ref = solve_ivp(slope, (g0, g1), [S0], method="Radau", rtol=1e-13, atol=1e-16)
        assert ref.success
        return float(ref.y[0, -1])

    @classmethod
    def decay_reference(cls, params, g1):
        """S at g1 on the decay separatrix: Radau at rel_tol 1e-13 from the
        second-order point at a tenth of the reference launch distance.
        The stiff approach damps the start error far below rounding."""
        dc = derive_constants(params)
        g_A = -1.0 / params.alpha
        x = -1e-4 * (g_A - 1.0 / dc.gamma)
        m1, m2 = second_order_manifold(params)
        return cls.separatrix_solve(params, g_A + x, m1 * x + m2 * x * x, g1)

    @seed(16)
    @settings(max_examples=25, deadline=None, database=None)
    @given(N=st.integers(1, 3), p=st.floats(2.05, 5.0),
           t=st.floats(0.0, 1.0))
    def test_series_launch_lies_on_the_separatrix(self, N, p, t):
        # inside the alpha_c search intervals, where the launch reaches up
        # to 300 times the reference distance, as far as the series keeps
        # its truncation within rel_tol
        a, b = analysis._search_interval(*critical_bracket(N, p))
        assume(a < b)
        params = ProblemParams(N, p, a + t * (b - a), -1)
        cfg = IntegrationConfig()
        launches = []
        real = analysis.solve_ivp

        def spy(fun, t_span, y0, **kwargs):
            launches.append((t_span[0], y0[0]))
            return real(fun, t_span, y0, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "solve_ivp", spy)
            try:
                S0, S1 = analysis._phi_shoot(params, cfg)
                assert math.isfinite(S0 - S1) and len(launches) == 1
            except (AnalysisError, ParameterError):
                S1 = None
        for g1, S_launch in launches:
            ref = self.decay_reference(params, g1)
            assert abs(S_launch - ref) <= cfg.rel_tol * abs(ref), params
        if S1 is not None:
            # S1 is as close to the separatrix as at the 1e-12 launch: the
            # worst of these draws read 6.96e-8 there
            g_L = 1.0 / derive_constants(params).gamma
            ref = self.decay_reference(params, g_L)
            assert abs(S1 - ref) <= 7e-8 * abs(ref), params
            # the stiff approach damps a launch error before the section, so
            # a relative launch shift moves S1 by a fifth of it at most (the
            # worst of these draws, near a search interval's end, 0.0995)
            g1, S_launch = launches[0]
            moved = (self.separatrix_solve(params, g1, S_launch * (1.0 + 1e-6), g_L)
                     - self.separatrix_solve(params, g1, S_launch, g_L))
            assert abs(moved) <= 0.2 * 1e-6 * abs(ref), params

    @pytest.mark.parametrize("max_steps", [1, 50, 100, 250, 300, 350])
    def test_rhs_budget(self, max_steps, monkeypatch):
        # both legs count into one record under one budget.  The double-zero
        # leg takes 13 attempts (12 steps) and 80 rhs evaluations, the decay
        # leg 53.  At 1 the stepper cannot make its first two evaluations
        # and does not start; at 50 it stops at a whole step, after 8
        # attempts and 50 evaluations, and LSODA never starts; at 100 the
        # stepper finishes and LSODA stops after the 20 evaluations left; at
        # 250, 300 and 350 both legs finish, in 133.
        attempts, stepper, decay_evals = {1: (0, 0, None), 50: (8, 50, None),
                                          100: (13, 80, 20), 250: (13, 80, 53),
                                          300: (13, 80, 53), 350: (13, 80, 53)}[max_steps]
        records, stepper_evals, decay = [], [], []
        real_stats, real_solve = analysis._new_stats, analysis.solve_ivp

        def new_stats():
            records.append(real_stats())
            return records[-1]

        def spy(fun, *args, **kwargs):
            stepper_evals.append(records[-1]["rhs_evals"])

            def counted(g, u):
                out = fun(g, u)  # raises, unevaluated, past the budget
                decay.append(g)
                return out

            return real_solve(counted, *args, **kwargs)

        monkeypatch.setattr(analysis, "_new_stats", new_stats)
        monkeypatch.setattr(analysis, "solve_ivp", spy)
        cfg = IntegrationConfig(max_steps=max_steps)
        whole = 133  # both legs' evaluations when the budget does not stop them
        if max_steps >= whole:
            assert math.isfinite(phi_of_alpha(2, 3.0, -1.9, cfg))
        else:
            with pytest.raises(AnalysisError, match=f"budget of {max_steps} rhs"):
                phi_of_alpha(2, 3.0, -1.9, cfg)
        (record,) = records
        assert record["accepted"] + record["rejected"] == attempts
        if decay_evals is None:
            assert stepper_evals == [] and record["rhs_evals"] == stepper
        else:
            assert stepper_evals == [stepper] and len(decay) == decay_evals
            assert record["rhs_evals"] == stepper + decay_evals == min(max_steps, whole)
        assert record["rhs_evals"] <= max_steps

    def test_fixed_seed_grid_ends_within_budget(self):
        # every draw returns a finite gap or a declared error, about 1 s
        # for all 408 (every error is a decay launch with F <= 0).  On 26
        # draws outside the search intervals a separatrix runs into the
        # section's stationary point L': 11 double-zero legs that once died
        # at the float spacing short of it (their S0 agrees with DOP853 at
        # rel_tol 1e-12 within 6e-13) and 15 decay legs on which LSODA gives
        # up within 1e-5 of L' (their phi agrees with RK45 at rel_tol 1e-12
        # within 7.5e-9)
        rng = np.random.default_rng(5)
        outcomes = {"value": 0, "AnalysisError": 0, "ParameterError": 0}
        for _ in range(408):
            N = int(rng.integers(1, 4))
            p = float(rng.uniform(2.05, 5.0))
            alpha = float(-rng.uniform(0.05, 6.0))
            try:
                value = phi_of_alpha(N, p, alpha)
            except (AnalysisError, ParameterError) as exc:
                outcomes[type(exc).__name__] += 1
                continue
            assert math.isfinite(value), (N, p, alpha)
            outcomes["value"] += 1
        assert outcomes == {"value": 165, "AnalysisError": 39,
                            "ParameterError": 204}, outcomes


class TestCriticalExponent:
    def test_one_dimensional_closed_form(self):
        res = find_alpha_c(1, 3.0)
        assert res.value == pytest.approx(-2.0, abs=1e-12)
        assert res.method == "closed_form"

    def test_one_dimensional_bisection(self):
        res = find_alpha_c(1, 3.0, tol=1e-4, force_bisection=True)
        assert res.value == pytest.approx(-2.0, abs=1e-3)
        assert res.method == "brent"
        assert res.iterations > 0

    def test_two_dimensional_bracket(self):
        lo, hi = critical_bracket(2, 3.0)
        assert (lo, hi) == pytest.approx((-2.0, -1.5), abs=1e-12)
        res = find_alpha_c(2, 3.0, tol=1e-6)
        assert lo < res.value < hi
        assert res.bracket[1] - res.bracket[0] <= 1e-6
        fa, fb = res.phi_at_ends
        assert fa > 0.0 > fb

    def test_bracket_failure_carries_endpoint_values(self, monkeypatch):
        # force the search onto an interval where the gap keeps one sign
        import plap.analysis as analysis_mod
        monkeypatch.setattr(analysis_mod, "critical_bracket",
                            lambda N, p: (-1.9, -1.5))
        with pytest.raises(BracketError) as exc_info:
            find_alpha_c(2, 3.0, tol=1e-4)
        err = exc_info.value
        assert err.bracket[0] < err.bracket[1]
        assert err.phi_at_ends[0] < 0.0 and err.phi_at_ends[1] < 0.0

    def test_value_agrees_with_connection_root(self):
        res = find_alpha_c(2, 3.0, tol=1e-6)
        assert abs(phi_of_alpha(2, 3.0, res.value)) <= 1e-4

    def test_brent_uses_few_evaluations(self, phi_calls):
        res = find_alpha_c(2, 3.0)
        assert len(phi_calls) <= 10
        assert res.iterations == len(phi_calls) - 2
        assert abs(res.value - SEED_ALPHA_C_2_3) <= 1e-6
        assert res.bracket[0] < res.value < res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= 1e-6
        fa, fb = res.phi_at_ends
        assert fa > 0.0 > fb

    def test_exact_zero_is_a_zero_width_bracket(self, monkeypatch):
        # a gap that is exactly 0 on a plateau around -1.75: brentq stops
        # at the first point it evaluates there
        import plap.analysis as analysis_mod
        monkeypatch.setattr(
            analysis_mod, "phi_of_alpha",
            lambda N, p, al, cfg=None: (1.0 if al < -1.8
                                        else -1.0 if al > -1.7 else 0.0))
        res = find_alpha_c(2, 3.0)
        assert res.bracket == (res.value, res.value)
        assert -1.8 <= res.value <= -1.7
        assert res.phi_at_ends == (0.0, 0.0)

    @pytest.mark.parametrize("N, p", sorted(RECORDED_ALPHA_C))
    def test_recorded_values(self, N, p):
        res = find_alpha_c(N, p)
        assert abs(res.value - RECORDED_ALPHA_C[N, p]) <= 1e-6

    def test_small_p_searches_return_and_rise_with_p(self):
        # where the search interval ends at alpha_2 (p <= 2.2) the
        # double-zero leg runs into L' there; every search returns, and
        # alpha_c rises with p
        for N in (2, 3, 4, 5):
            values = [find_alpha_c(N, p).value
                      for p in (2.05, 2.1, 2.2, 2.3, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0)]
            assert values == sorted(values) and len(set(values)) == len(values), N

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            find_alpha_c(2, 3.0, tol=0.0)


# classify_regime(params, IntegrationConfig(max_steps=..., max_time_span=40))
# recorded from the per-tag grader: tag, (clause, status) list, digest
# kinds in order, cycle sources, and whether phi_value / alpha_c_bracket
# is None.  None is the default budget of 10**6; 300 starves the shootings, so some
# fail and their clauses read "untested".
GRADER_PINS = {
    ((2, 3.0, 1.0, 1), None): (
        'pin', [
            ('regular orbit keeps a strict constant sign', 'pass'),
            ('compact-support orbit constructed', 'pass'),
            ('no stationary pair off the origin', 'pass'),
        ], ('T_r', 'T_eps'), (), True, True),
    ((2, 3.0, -6.0, 1), None): (
        'mel', [
            ('regular orbit keeps a strict constant sign', 'pass'),
            ('regular orbit approaches the flat profile', 'pass'),
            ('algebraic-decay orbit approaches the flat profile', 'pass'),
            ('every orbit has at most one simple zero', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -4.0, -1), None): (
        'osc', [
            ('regular orbit oscillates in sign', 'pass'),
            ('regular orbit has a limit cycle around the origin', 'pass'),
            ('compact-support orbit has a limit cycle (unique hole solution)', 'pass'),
            ('detected cycles attract in forward time', 'pass'),
        ], ('T_r', 'T_eps'), ('O_r', 'O_eps'), True, True),
    ((1, 3.0, 0.7, -1), None): (
        'int', [
            ('regular orbit keeps a strict constant sign', 'pass'),
            ('regular orbit approaches the flat profile', 'pass'),
            ('hole orbit approaches the flat profile', 'pass'),
            ('algebraic-decay orbit constructed', 'pass'),
            ('flat point is a sink node', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -0.7, -1), None): (
        'pom', [
            ('regular orbit has exactly one simple zero', 'pass'),
            ('hole orbit approaches the flat profile', 'pass'),
            ('every orbit has at most two simple zeros', 'pass'),
            ('flat point is a sink', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -2.53, -1), None): (
        'sou', [
            ('algebraic-decay orbit converges to the flat point backward', 'pass'),
            ('regular orbit oscillates in sign', 'pass'),
            ('regular orbit has a limit cycle around the origin', 'pass'),
            ('hole orbit leaves the flat quadrant and cycles around the origin', 'pass'),
            ('flat point is a source or weak source', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), ('O_r', 'O_eps'), False, False),
    ((1, 3.0, -2.1, -1), None): (
        'orb', [
            ('algebraic-decay orbit has a backward limit cycle around the flat point', 'pass'),
            ('regular orbit oscillates in sign', 'pass'),
            ('hole orbit cycles around the origin', 'pass'),
            ('flat point is a sink', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), ('O_alpha', 'O_eps'), False, False),
    ((1, 3.0, -2.0, -1), None): (
        'clin', [
            ('connection gap vanishes at the critical exponent', 'pass'),
            ('regular orbit oscillates in sign', 'pass'),
            ('regular orbit has a limit cycle surrounding all stationary points', 'pass'),
        ], ('T_r', 'T_eps'), ('O_r',), False, False),
    ((1, 3.0, -1.9, -1), None): (
        'ent', [
            ('regular orbit has at least two simple zeros', 'pass'),
            ('hole orbit stays near the flat point (converges or cycles)', 'pass'),
        ], ('T_r', 'T_eps'), (), False, False),
    ((2, 3.0, 2.0, 1), None): (
        'pin', [
            ('regular orbit keeps a strict constant sign with compact support', 'pass'),
            ('compact-support orbit constructed', 'pass'),
            ('no stationary pair off the origin', 'pass'),
        ], ('T_r', 'T_eps'), (), True, True),
    ((2, 3.0, 3.0, 1), None): (
        'pin', [
            ('regular orbit has at least one simple zero', 'pass'),
            ('compact-support orbit constructed', 'pass'),
            ('no stationary pair off the origin', 'pass'),
        ], ('T_r', 'T_eps'), (), True, True),
    ((2, 3.0, 1.0, 1), 300): (
        'pin', [
            ('regular orbit keeps a strict constant sign', 'pass'),
            ('compact-support orbit constructed', 'pass'),
            ('no stationary pair off the origin', 'pass'),
        ], ('T_r', 'T_eps'), (), True, True),
    ((2, 3.0, -6.0, 1), 300): (
        'mel', [
            ('regular orbit keeps a strict constant sign', 'untested'),
            ('regular orbit approaches the flat profile', 'untested'),
            ('algebraic-decay orbit approaches the flat profile', 'pass'),
            ('every orbit has at most one simple zero', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -4.0, -1), 300): (
        'osc', [
            ('regular orbit oscillates in sign', 'untested'),
            ('regular orbit has a limit cycle around the origin', 'untested'),
            ('compact-support orbit has a limit cycle (unique hole solution)', 'untested'),
            ('detected cycles attract in forward time', 'untested'),
        ], ('T_r', 'T_eps'), (), True, True),
    ((1, 3.0, 0.7, -1), 300): (
        'int', [
            ('regular orbit keeps a strict constant sign', 'pass'),
            ('regular orbit approaches the flat profile', 'pass'),
            ('hole orbit approaches the flat profile', 'pass'),
            ('algebraic-decay orbit constructed', 'untested'),
            ('flat point is a sink node', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -0.7, -1), 300): (
        'pom', [
            ('regular orbit has exactly one simple zero', 'pass'),
            ('hole orbit approaches the flat profile', 'pass'),
            ('every orbit has at most two simple zeros', 'pass'),
            ('flat point is a sink', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, True),
    ((1, 3.0, -2.53, -1), 300): (
        'sou', [
            ('algebraic-decay orbit converges to the flat point backward', 'pass'),
            ('regular orbit oscillates in sign', 'untested'),
            ('regular orbit has a limit cycle around the origin', 'untested'),
            ('hole orbit leaves the flat quadrant and cycles around the origin', 'untested'),
            ('flat point is a source or weak source', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), True, False),
    ((1, 3.0, -2.1, -1), 300): (
        'orb', [
            ('algebraic-decay orbit has a backward limit cycle around the flat point', 'untested'),
            ('regular orbit oscillates in sign', 'untested'),
            ('hole orbit cycles around the origin', 'untested'),
            ('flat point is a sink', 'pass'),
        ], ('T_r', 'T_eps', 'T_alpha'), (), False, False),
    ((1, 3.0, -2.0, -1), 300): (
        'clin', [
            ('connection gap vanishes at the critical exponent', 'pass'),
            ('regular orbit oscillates in sign', 'untested'),
            ('regular orbit has a limit cycle surrounding all stationary points', 'untested'),
        ], ('T_r', 'T_eps'), (), False, False),
    ((1, 3.0, -1.9, -1), 300): (
        'ent', [
            ('regular orbit has at least two simple zeros', 'untested'),
            ('hole orbit stays near the flat point (converges or cycles)', 'pass'),
        ], ('T_r', 'T_eps'), (), False, False),
}


class TestRegimeClassifier:
    def test_tag_table(self):
        cases = {
            (2, 3.0, 1.0, 1): "pin",
            (2, 3.0, -6.0, 1): "mel",
            (1, 3.0, -4.0, -1): "osc",
            (1, 3.0, 0.7, -1): "int",
            (1, 3.0, -0.7, -1): "pom",
            (1, 3.0, -2.53, -1): "sou",
            (1, 3.0, -2.1, -1): "orb",
            (1, 3.0, -2.0, -1): "clin",
            (1, 3.0, -1.9, -1): "ent",
        }
        for (N, p, al, eps), tag in cases.items():
            assert theorem_tag(ProblemParams(N, p, al, eps)) == tag, (N, p, al, eps)

    @pytest.mark.parametrize("shift, tag", [(0.0, "clin"), (-3e-6, "orb"),
                                            (3e-6, "ent")])
    def test_tag_by_sign_of_connection_gap(self, phi_calls, shift, tag):
        params = ProblemParams(2, 3.0, SEED_ALPHA_C_2_3 + shift, -1)
        assert theorem_tag(params) == tag
        assert len(phi_calls) <= 2

    @pytest.mark.parametrize("alpha, tag", [(-2.03, "orb"),
                                            (-2.0 + 2e-5, "orb"),
                                            (-1.5 - 2e-5, "ent")])
    def test_tag_outside_search_interval_needs_no_gap(self, phi_calls,
                                                      alpha, tag):
        # the critical bracket is (-2.0, -1.5) and find_alpha_c searches
        # it 5e-5 in from both ends; (-2.0625, -2.0] lies in the tag band
        # below it, where the double-zero separatrix need not reach the
        # section, and the strips at the ends are never searched
        assert theorem_tag(ProblemParams(2, 3.0, alpha, -1)) == tag
        assert phi_calls == []

    def test_report_reuses_tag_gap(self, phi_calls):
        rep = classify_regime(ProblemParams(2, 3.0, -1.8, -1))
        assert rep.theorem_tag == "ent"
        assert len(phi_calls) <= 2
        assert rep.phi_value == phi_of_alpha(2, 3.0, -1.8)

    def test_single_sign_regime_report(self):
        rep = classify_regime(ProblemParams(2, 3.0, 1.0, 1))
        assert rep.theorem_tag == "pin"
        assert rep.passed()
        assert {"T_r", "T_eps"} <= set(rep.trajectories)

    def test_oscillating_regime_report(self):
        rep = classify_regime(ProblemParams(1, 3.0, -4.0, -1))
        assert rep.theorem_tag == "osc"
        assert rep.passed()
        assert len(rep.cycles) >= 2  # regular and hole orbits both cycle

    def test_oscillating_report_pinned(self):
        # the osc report as solve_ivp's RK45 produced it; the scalar
        # stepper must keep every tag, status and count, and both cycle
        # periods to 1e-6
        rep = classify_regime(ProblemParams(1, 3.0, -4.0, -1))
        assert rep.theorem_tag == "osc"
        assert [status for _, status in rep.checks] == ["pass"] * 4
        pinned = {"T_r": ("time_span", "oscillating_sign", 263),
                  "T_eps": ("time_span", "oscillating_sign", 267)}
        for kind, want in pinned.items():
            d = rep.trajectories[kind]
            assert (d["termination"], d["label"], d["sign_changes"]) == want
        periods = [c.period_tau for c in rep.cycles]
        assert periods == pytest.approx([1.5007691155821656, 1.5007691155505003],
                                        rel=0.0, abs=1e-6)

    @pytest.mark.parametrize("case, max_steps", list(GRADER_PINS))
    def test_grader_pinned(self, case, max_steps):
        cfg = IntegrationConfig(max_time_span=40.0, max_steps=max_steps or 10 ** 6)
        rep = classify_regime(ProblemParams(*case), config=cfg)
        tag, checks, kinds, sources, phi_none, bracket_none = \
            GRADER_PINS[case, max_steps]
        assert rep.theorem_tag == tag
        assert rep.checks == checks
        assert tuple(rep.trajectories) == kinds
        assert tuple(c.meta["source"] for c in rep.cycles) == sources
        assert (rep.phi_value is None) == phi_none
        assert (rep.alpha_c_bracket is None) == bracket_none

    def test_source_regime_report(self):
        rep = classify_regime(ProblemParams(1, 3.0, -2.53, -1))
        assert rep.theorem_tag == "sou"
        assert rep.passed()

    def test_homoclinic_regime_report(self):
        rep = classify_regime(ProblemParams(1, 3.0, -2.0, -1))
        assert rep.theorem_tag == "clin"
        assert rep.passed()
        assert rep.phi_value == pytest.approx(0.0, abs=1e-9)
        assert rep.alpha_c_bracket is not None
