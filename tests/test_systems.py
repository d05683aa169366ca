"""Vector fields, chart conversions, first integrals, and closed-form
profiles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap.params import ProblemParams, derive_constants, m_ell_point
from plap.systems import (
    ChartDomainError,
    ChartState,
    OracleConstraintError,
    PhaseState,
    ProfileSample,
    convert,
    field,
    invert,
    oracle,
    phi_Y,
    sgn_pow,
    to_profile,
    _decay_manifold,
    _manifold_reach,
    _r_rhs,
    _s_rhs,
    _series,
    _tau_rate,
)
from profile_tools import J_N, J_alpha, from_profile


# ---------------------------------------------------------------------------
# residual diagnostics


def profile_residual(r, w, dw, d2w, params: ProblemParams):
    """Relative strong-form residual of the profile equation.

    Uses (|w'|^{p-2} w')' = (p-1)|w'|^{p-2} w'' (exact wherever w' != 0 and,
    by continuity with p > 2, at simple zeros of w').
    """
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    dw = np.asarray(dw, dtype=float)
    d2w = np.asarray(d2w, dtype=float)
    p = params.p
    t1 = (p - 1.0) * np.abs(dw) ** (p - 2.0) * d2w
    t2 = (params.N - 1.0) / r * sgn_pow(dw, p - 1.0)
    t3 = params.epsilon * (r * dw + params.alpha * w)
    lhs = t1 + t2 + t3
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3))
    scale = np.maximum(scale, 1e-300)
    return lhs / scale


def profile_state_rates(sample: ProfileSample, d2w: float, params: ProblemParams):
    """Analytic (dy/dtau, dY/dtau) of the phase-plane lift of a profile,
    computed from (r, w, w', w'') alone.  Used to check that closed-form
    profiles annihilate the S-field."""
    dc = derive_constants(params)
    r, w, dw = sample.r, sample.w, sample.dw
    p = params.p
    g = dc.gamma
    dy = -g * r ** (-g) * w + r ** (1.0 - g) * dw
    e = (1.0 - g) * (p - 1.0)
    dY = -r * (
        e * r ** (e - 1.0) * float(sgn_pow(dw, p - 1.0))
        + r ** e * (p - 1.0) * abs(dw) ** (p - 2.0) * d2w
    )
    return dy, dY


P_236_1 = ProblemParams(2, 3.0, -6.0, 1)


class TestField:
    def test_s_field_on_positive_Y_axis(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        dy, dY = field("S", (0.0, 4.0), params)
        assert dy == pytest.approx(-2.0, abs=1e-14)
        assert dY == pytest.approx(-22.0, abs=1e-14)

    def test_s_field_vanishes_at_flat_point(self):
        m = m_ell_point(P_236_1)
        assert m == pytest.approx((1.0 / 15.0, -1.0 / 25.0), abs=1e-15)
        rate = field("S", m, P_236_1)
        assert np.max(np.abs(rate)) <= 1e-14

    def test_s_field_on_positive_y_axis(self):
        params = ProblemParams(2, 3.0, -5.0, -1)
        dc = derive_constants(params)
        phi = 0.37
        dy, dY = field("S", (phi, 0.0), params)
        assert dy == pytest.approx(-dc.gamma * phi, rel=1e-14)
        assert dY == pytest.approx(params.epsilon * params.alpha * phi, rel=1e-14)

    @pytest.mark.parametrize("params", [ProblemParams(1, 3.0, -4.0, -1),
                                        ProblemParams(2, 2.5, 1.3, 1),
                                        ProblemParams(3, 4.7, -0.6, -1),
                                        ProblemParams(2, 3.0, 7.0, 1)])
    def test_s_closures_match_the_signed_formula_bit_for_bit(self, params):
        # each tau direction's closure against direction * (forward field),
        # with phi through abs(): signed zeros, subnormals and 1e+-300 too
        dc = derive_constants(params)
        e = 1.0 / (params.p - 1.0)
        mg, mgN = -dc.gamma, -(dc.gamma + float(params.N))
        al, eps = params.alpha, params.epsilon

        def reference(y, Y, direction):
            ph = abs(Y) ** e if Y >= 0.0 else -(abs(Y) ** e)
            return (direction * (mg * y - ph),
                    direction * (mgN * Y + eps * (al * y - ph)))

        rng = np.random.default_rng(7)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300,
                   -1e-300, 1e300, -1e300, 1.0, -1.0]
        drawn = (rng.choice([-1.0, 1.0], 4000)
                 * 10.0 ** rng.uniform(-320.0, 300.0, 4000)).tolist()
        pool = special + drawn
        points = [(y, Y) for y in special for Y in special]
        points += zip(pool, rng.permutation(pool).tolist())
        for direction in (1, -1):
            f = _s_rhs(params, direction)
            for y, Y in points:
                assert struct.pack("<2d", *f(y, Y)) \
                    == struct.pack("<2d", *reference(y, Y, direction)), (y, Y)

    def test_domain_errors(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        with pytest.raises(ChartDomainError):
            field("Q", (0.5, 0.0), params)
        with pytest.raises(ChartDomainError):
            field("nope", (0.0, 0.0), params)
        with pytest.raises(ChartDomainError):
            field("S", (float("nan"), 0.0), params)

    def test_all_charts_agree_through_conversion(self):
        # chain rule: chart rates must equal the pushforward of the S rates
        params = ProblemParams(2, 3.0, -1.3, -1)
        y, Y = 0.31, -0.22
        dy, dY = field("S", (y, Y), params)
        h = 1e-7
        for chart in ("Q", "P"):
            c0 = convert(PhaseState(0.0, y, Y), chart, params)
            c1 = convert(PhaseState(h, y + h * dy, Y + h * dY), chart, params)
            fd = (np.array(c1.coords) - np.array(c0.coords)) / h
            rate = field(chart, c0.coords, params)
            assert np.max(np.abs(fd - rate)) <= 1e-5 * max(1.0, np.max(np.abs(rate)))

    def test_rescaled_charts_agree_through_conversion(self):
        # d tau = g s d nu relates the R-chart clock to tau
        params = ProblemParams(2, 3.0, -1.3, -1)
        y, Y = 0.31, -0.22
        dy, dY = field("S", (y, Y), params)
        h = 1e-7
        dc = derive_constants(params)
        for chart in ("R", "R_beta"):
            c0 = convert(PhaseState(0.0, y, Y), chart, params)
            c1 = convert(PhaseState(h, y + h * dy, Y + h * dY), chart, params)
            fd = (np.array(c1.coords) - np.array(c0.coords)) / h
            g, second = c0.coords
            s = second * dc.beta if chart == "R_beta" else second
            rate = np.array(field(chart, c0.coords, params)) / (g * s)
            assert np.max(np.abs(fd - rate)) <= 1e-5 * max(1.0, np.max(np.abs(rate)))


class TestDecayManifold:
    """The center-manifold series of the algebraic-decay point in chart R
    (b = 1) at either eps, as the T_alpha launch reads it."""

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("params", [(1, 3.0, -2.53, -1), (1, 3.0, 0.7, -1),
                                        (1, 3.0, -0.7, -1), (2, 3.0, -6.0, 1)])
    def test_residuals_have_the_series_orders(self, params, side):
        # halving x divides the invariance residual S'(x) dg/dnu - dS/dnu by
        # about 2^(K+1), and the relative error of the tau rate (1/x) sum q_k
        # x^k against dtau/dx = S / u by about 2^(K-1); read at four times
        # the series' reach, where truncation outweighs rounding
        params = ProblemParams(*params)
        f = _r_rhs(params)
        m, u = _decay_manifold(params, 1.0)
        q = _tau_rate(m, u, 1.0)
        K = len(m)
        g_A = -1.0 / params.alpha

        def residuals(x):
            S = _series(m, x)
            dS = sum(k * c * x ** (k - 1) for k, c in enumerate(m, 1))
            dg, dS_dnu = f(g_A + x, S)
            rate = (g_A + x) * S / dg
            return dS * dg - dS_dnu, (sum(c * x ** k for k, c in enumerate(q)) / x
                                      - rate) / rate

        x = side * 4.0 * _manifold_reach(m, 1e-12)
        (inv, tau), (inv_half, tau_half) = residuals(x), residuals(x / 2.0)
        assert K + 0.5 < math.log2(abs(inv / inv_half)) < K + 1.5
        assert K - 1.5 < math.log2(abs(tau / tau_half)) < K - 0.5

    def test_beta_chart_at_eps_minus_one_keeps_its_coefficients(self):
        # chart R_beta is chart R with s = beta S: the same manifold, its
        # slope divided by beta, the same rate u and the same tau rate
        params = ProblemParams(2, 3.0, -2.2, -1)
        beta = derive_constants(params).beta
        (m, u), (m_b, u_b) = _decay_manifold(params, 1.0), _decay_manifold(params, beta)
        assert np.allclose(np.array(m_b) * beta, m, rtol=1e-12, atol=0.0)
        assert np.allclose(_tau_rate(m_b, u_b, beta), _tau_rate(m, u, 1.0),
                           rtol=1e-12, atol=0.0)


class TestConversions:
    def test_slope_chart_example(self):
        c = convert(PhaseState(0.0, 1.0, -1.0), "Q", ProblemParams(2, 3.0, 1.0, 1))
        assert c.coords == pytest.approx((-1.0, -1.0), abs=1e-14)

    def test_flat_point_slope_coordinates(self):
        m = m_ell_point(P_236_1)
        dc = derive_constants(P_236_1)
        c = convert(PhaseState(0.0, *m), "Q", P_236_1)
        expected = (-dc.gamma,
                    P_236_1.epsilon * (P_236_1.alpha + dc.gamma) / (P_236_1.N + dc.gamma))
        assert c.coords == pytest.approx(expected, rel=1e-12)
        r = convert(PhaseState(0.0, *m), "R", P_236_1)
        assert r.coords[0] == pytest.approx(1.0 / dc.gamma, rel=1e-12)

    @given(
        y=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
        Y=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
        chart=st.sampled_from(["Q", "P", "R", "R_beta"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_round_trip_identity(self, y, Y, chart):
        params = ProblemParams(2, 3.0, -1.5, -1)
        state = PhaseState(0.7, y, Y)
        try:
            c = convert(state, chart, params)
            back = invert(c, params, sign_y=1 if y > 0 else -1)
        except ChartDomainError:
            return
        assert back.y == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert back.Y == pytest.approx(Y, rel=1e-12, abs=1e-12)

    def test_convert_errors(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        with pytest.raises(ChartDomainError):
            convert(PhaseState(0.0, 0.0, 1.0), "Q", params)
        with pytest.raises(ChartDomainError):
            convert(PhaseState(0.0, 1.0, 0.0), "P", params)
        with pytest.raises(ChartDomainError):
            invert(ChartState("Q", (1.0, -1.0), 0.0), params)


class TestProfileMap:
    def test_simple_point(self):
        s = to_profile(PhaseState(0.0, 2.0, 0.0), ProblemParams(2, 3.0, 1.0, 1))
        assert (s.r, s.w, s.dw) == pytest.approx((1.0, 2.0, 0.0), abs=1e-14)

    @given(
        tau=st.floats(min_value=-3.0, max_value=3.0),
        y=st.floats(min_value=-4.0, max_value=4.0),
        Y=st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, tau, y, Y):
        params = ProblemParams(2, 3.0, -1.5, -1)
        back = from_profile(to_profile(PhaseState(tau, y, Y), params), params)
        assert back.tau == pytest.approx(tau, abs=1e-12)
        assert back.y == pytest.approx(y, rel=1e-10, abs=1e-12)
        assert back.Y == pytest.approx(Y, rel=1e-10, abs=1e-12)

    def test_barenblatt_lift_sits_on_diagonal(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        for r in (0.2, 0.7, 1.3):
            st_ = from_profile(sol.sample(r), params)
            assert st_.Y == pytest.approx(params.epsilon * st_.y, rel=1e-10)


ORACLE_CASES = [
    ("U_flat", ProblemParams(2, 3.0, -6.0, 1), 1.0),
    ("barenblatt", ProblemParams(2, 3.0, 2.0, 1), 1.0),
    ("p_harmonic", ProblemParams(4, 3.0, 0.5, 1), 1.0),
    ("quadratic", ProblemParams(2, 3.0, -1.5, 1), 1.0),
    ("alpha_zero", ProblemParams(2, 3.0, 0.0, 1), 1.0),
    ("n1_special", ProblemParams(1, 3.0, -2.0, 1), -1.0),
]


class TestOracles:
    def test_barenblatt_closed_form(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        r = np.linspace(0.01, 2.5, 200)
        expected = np.clip(1.0 - r ** 1.5 / 3.0, 0.0, None) ** 2
        assert np.max(np.abs(sol(r) - expected)) <= 1e-12
        assert sol.edge == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-14)

    def test_flat_closed_form(self):
        sol = oracle("U_flat", P_236_1)
        r = np.linspace(0.1, 3.0, 50)
        assert np.max(np.abs(sol(r) - r ** 3 / 15.0)) <= 1e-12

    def test_n1_special_closed_form(self):
        params = ProblemParams(1, 3.0, -2.0, 1)
        sol = oracle("n1_special", params, free_constant=-1.0)
        r = np.linspace(0.1, 6.0, 60)
        expected = np.clip(4.0 - r, 0.0, None) ** 2
        assert np.max(np.abs(sol(r) - expected)) <= 1e-12
        assert sol.edge == pytest.approx(4.0, rel=1e-14)

    def test_alpha_zero_normalization(self):
        sol = oracle("alpha_zero", ProblemParams(2, 3.0, 0.0, 1))
        assert float(sol(np.array([1.0]))[0]) == pytest.approx(0.0, abs=1e-12)

    def test_constraint_errors(self):
        with pytest.raises(OracleConstraintError):
            oracle("barenblatt", ProblemParams(2, 3.0, 1.0, 1))
        with pytest.raises(OracleConstraintError):
            oracle("n1_special", ProblemParams(2, 3.0, -2.0, 1))
        with pytest.raises(OracleConstraintError):
            oracle("U_flat", ProblemParams(1, 3.0, -4.0, -1))
        with pytest.raises(OracleConstraintError):
            oracle("bogus", ProblemParams(1, 3.0, 1.0, 1))

    @pytest.mark.parametrize("kind,params,K", ORACLE_CASES)
    def test_strong_form_residual(self, kind, params, K):
        sol = oracle(kind, params, free_constant=K)
        hi = 0.9 * sol.edge if sol.edge is not None else 3.0
        r = np.linspace(0.05, hi, 100)
        res = profile_residual(r, sol.w(r), sol.dw(r), sol.d2w(r), params)
        assert np.max(np.abs(res)) <= 1e-9

    @pytest.mark.parametrize("kind,params,K", ORACLE_CASES)
    def test_annihilates_phase_field(self, kind, params, K):
        if params.alpha == 0.0:
            pytest.skip("phase-plane reduction assumes a nonzero exponent")
        sol = oracle(kind, params, free_constant=K)
        hi = 0.9 * sol.edge if sol.edge is not None else 3.0
        for r in np.linspace(0.05, hi, 100):
            sample = sol.sample(float(r))
            state = from_profile(sample, params)
            if abs(state.y) < 1e-12 and abs(state.Y) < 1e-12:
                continue
            rate = field("S", (state.y, state.Y), params)
            an = profile_state_rates(sample, float(sol.d2w(np.array([r]))[0]), params)
            scale = max(1e-9, float(np.max(np.abs(rate))))
            assert np.max(np.abs(np.array(an) - rate)) <= 1e-9 * max(1.0, scale)


class TestFirstIntegrals:
    def test_barenblatt_annihilates_J_N(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        for r in np.linspace(0.05, 1.9, 40):
            assert abs(J_N(sol.sample(float(r)), params)) <= 1e-10

    def test_J_alpha_matches_rescaled_J_N(self):
        params = ProblemParams(2, 3.0, -1.5, 1)
        s = ProfileSample(0.7, 0.3, -0.2)
        assert J_alpha(s, params) == pytest.approx(
            0.7 ** (params.alpha - params.N) * J_N(s, params), rel=1e-14)


class TestPartitionLines:
    def test_alpha_equal_N_orbits_have_unit_slope_ratio(self):
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        for r in np.linspace(0.1, 1.9, 30):
            st_ = from_profile(sol.sample(float(r)), params)
            sigma = st_.Y / st_.y
            assert abs(sigma - params.epsilon) <= 1e-9

    def test_alpha_equal_eta_orbits_ride_the_harmonic_line(self):
        params = ProblemParams(4, 3.0, 0.5, 1)
        dc = derive_constants(params)
        sol = oracle("p_harmonic", params)
        for r in np.linspace(0.1, 3.0, 30):
            st_ = from_profile(sol.sample(float(r)), params)
            zeta = float(phi_Y(st_.Y, params.p)) / st_.y
            assert abs(zeta - dc.eta) <= 1e-9

    def test_quadratic_oracle_line_invariant(self):
        params = ProblemParams(2, 3.0, -1.5, 1)
        sol = oracle("quadratic", params, free_constant=1.0)
        for r in np.linspace(0.1, 3.0, 30):
            st_ = from_profile(sol.sample(float(r)), params)
            zeta = float(phi_Y(st_.Y, params.p)) / st_.y
            sigma = st_.Y / st_.y
            assert abs(zeta + params.epsilon * params.N * sigma - params.alpha) <= 1e-9
