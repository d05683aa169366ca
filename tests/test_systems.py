"""Vector fields, the lift to chart S, first integrals, and closed-form
profiles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from plap.params import ProblemParams, derive_constants, m_ell_point
from plap.systems import (
    PhaseState,
    ProfileSample,
    phi_Y,
    sgn_pow,
    to_profile,
    _decay_manifold,
    _lift,
    _manifold_reach,
    _P_TEXT,
    _Q_TEXT,
    _R_TEXT,
    _RX_TEXT,
    _S_BACK,
    _S_TEXT,
    _SLOPE_TEXT,
    _rhs,
    _series,
    _tau_rate,
)
from profile_tools import J_N, J_alpha, OracleConstraintError, from_profile, oracle


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


def s_field(params: ProblemParams, y, Y) -> np.ndarray:
    """Chart S's field at (y, Y)."""
    return np.array(_rhs(params, _S_TEXT)(float(y), float(Y)))


def to_chart(chart: str, y: float, Y: float, params: ProblemParams):
    """The point (y, Y) of chart S in chart Q, P, R or R_beta, by the
    definitions of the ``plap.systems`` docstring: zeta = phi(Y)/y,
    sigma = Y/y, psi = y/Y, g = -1/zeta, s = -sigma, and s = beta S."""
    zeta = float(phi_Y(Y, params.p)) / y
    if chart == "Q":
        return zeta, Y / y
    if chart == "P":
        return zeta, y / Y
    g, s = -1.0 / zeta, -Y / y
    return (g, s) if chart == "R" else (g, s / derive_constants(params).beta)


def chain_rule(chart: str, y: float, Y: float, params: ProblemParams):
    """The rate of ``to_chart(chart, y, Y, params)`` along chart S's field
    by the chain rule, with phi'(Y) = |Y|^(1/(p-1)-1)/(p-1) exact: in tau
    for Q and P, in nu (d tau = g s d nu, s = b S) for R and R_beta.  Also
    returns, for each rate, the sum of the sizes of the terms it adds up,
    the scale of its rounding."""
    dc = derive_constants(params)
    e = 1.0 / (params.p - 1.0)
    ph, dph = float(phi_Y(Y, params.p)), abs(Y) ** (e - 1.0) * e
    dy, dY = _rhs(params, _S_TEXT)(y, Y)
    my = dc.gamma * abs(y) + abs(ph)
    mY = (dc.gamma + params.N) * abs(Y) + abs(params.alpha * y) + abs(ph)
    zeta, sigma = ph / y, Y / y
    d_zeta, m_zeta = (dph * dY - zeta * dy) / y, (dph * mY + abs(zeta) * my) / abs(y)
    d_sigma, m_sigma = (dY - sigma * dy) / y, (mY + abs(sigma) * my) / abs(y)
    if chart == "Q":
        return (d_zeta, d_sigma), (m_zeta, m_sigma)
    if chart == "P":
        psi = y / Y
        return (d_zeta, (dy - psi * dY) / Y), (m_zeta, (my + abs(psi) * mY) / abs(Y))
    # g = -1/zeta and S = -sigma/b
    b = 1.0 if chart == "R" else dc.beta
    k = (-1.0 / zeta) * (-sigma)
    return ((k * d_zeta / zeta ** 2, -k * d_sigma / b),
            (abs(k) * m_zeta / zeta ** 2, abs(k) * m_sigma / abs(b)))


# parameters and points off the axes for the chain-rule checks: N 1-3, p
# from 2.05 to 20, both eps, alpha away from 0 and from beta = 0
OFF_AXIS = st.builds(lambda sign, mag: sign * 10.0 ** mag,
                     st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))
CHAIN_PARAMS = st.builds(
    ProblemParams, st.integers(1, 3), st.floats(2.05, 20.0),
    st.floats(-20.0, 20.0).filter(lambda a: abs(a) > 1e-3), st.sampled_from([-1, 1])
).filter(lambda pr: abs(derive_constants(pr).beta) > 1e-3)


P_236_1 = ProblemParams(2, 3.0, -6.0, 1)


class TestField:
    def test_s_field_on_positive_Y_axis(self):
        params = ProblemParams(2, 3.0, 1.0, 1)
        dy, dY = s_field(params, 0.0, 4.0)
        assert dy == pytest.approx(-2.0, abs=1e-14)
        assert dY == pytest.approx(-22.0, abs=1e-14)

    def test_s_field_vanishes_at_flat_point(self):
        m = m_ell_point(P_236_1)
        assert m == pytest.approx((1.0 / 15.0, -1.0 / 25.0), abs=1e-15)
        rate = s_field(P_236_1, *m)
        assert np.max(np.abs(rate)) <= 1e-14

    def test_s_field_on_positive_y_axis(self):
        params = ProblemParams(2, 3.0, -5.0, -1)
        dc = derive_constants(params)
        phi = 0.37
        dy, dY = s_field(params, phi, 0.0)
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
            f = _rhs(params, _S_TEXT if direction == 1 else _S_BACK)
            for y, Y in points:
                assert struct.pack("<2d", *f(y, Y)) \
                    == struct.pack("<2d", *reference(y, Y, direction)), (y, Y)

    # every field text with its b and its constants at (2, 3.0, -1.8, -1):
    # (e, mg, mgN, al, eps) in chart S, (eta, N, pm1, al, eps) in the
    # others, then b in chart R's texts (beta = 1.2 for R_beta and its slope)
    S_CONSTS, R_CONSTS = (0.5, -3.0, -5.0, -1.8, -1.0), (-0.5, 2.0, 2.0, -1.8, -1.0)
    BINDINGS = [(_S_TEXT, 1.0, S_CONSTS), (_S_BACK, 1.0, S_CONSTS),
                (_Q_TEXT, 1.0, R_CONSTS), (_P_TEXT, 1.0, R_CONSTS), (_RX_TEXT, 1.0, R_CONSTS),
                (_R_TEXT, 1.0, (*R_CONSTS, 1.0)), (_R_TEXT, 1.2, (*R_CONSTS, 1.2)),
                (_SLOPE_TEXT, 1.2, (*R_CONSTS, 1.2))]

    @pytest.mark.parametrize("text, b, consts", BINDINGS)
    def test_binding_table(self, text, b, consts):
        assert _rhs(ProblemParams(2, 3.0, -1.8, -1), text, b).consts == consts
        bound = _rhs(ProblemParams(2, 3, -2, -1), text, b).consts
        assert [type(c) for c in bound] == [float] * len(bound)

    # the chain rule against each launch chart's text, exactly: Q and P
    # (tau), R at b = 1 and R_beta at b = beta (nu)
    @seed(32)
    @settings(max_examples=300, deadline=None)
    @given(params=CHAIN_PARAMS, y=OFF_AXIS, Y=OFF_AXIS)
    def test_all_charts_agree_through_conversion(self, params, y, Y):
        for chart, text in (("Q", _Q_TEXT), ("P", _P_TEXT)):
            rate = _rhs(params, text)(*to_chart(chart, y, Y, params))
            exact, scale = chain_rule(chart, y, Y, params)
            for r, x, m in zip(rate, exact, scale):
                assert abs(r - x) <= 1e-12 * m, (chart, r, x, m)

    @seed(32)
    @settings(max_examples=300, deadline=None)
    @given(params=CHAIN_PARAMS, y=OFF_AXIS, Y=OFF_AXIS)
    def test_rescaled_charts_agree_through_conversion(self, params, y, Y):
        beta = derive_constants(params).beta
        for chart, b in (("R", 1.0), ("R_beta", beta)):
            rate = _rhs(params, _R_TEXT, b)(*to_chart(chart, y, Y, params))
            exact, scale = chain_rule(chart, y, Y, params)
            for r, x, m in zip(rate, exact, scale):
                assert abs(r - x) <= 1e-12 * m, (chart, r, x, m)


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
        f = _rhs(params, _R_TEXT)
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
        params = ProblemParams(2, 3.0, 1.0, 1)
        assert to_chart("Q", 1.0, -1.0, params) == pytest.approx((-1.0, -1.0), abs=1e-14)
        ok, y, Y = _lift("Q", -1.0, -1.0, params.p)
        assert ok and (float(y), float(Y)) == pytest.approx((1.0, -1.0), abs=1e-14)

    def test_flat_point_slope_coordinates(self):
        m = m_ell_point(P_236_1)
        dc = derive_constants(P_236_1)
        c = to_chart("Q", *m, P_236_1)
        expected = (-dc.gamma,
                    P_236_1.epsilon * (P_236_1.alpha + dc.gamma) / (P_236_1.N + dc.gamma))
        assert c == pytest.approx(expected, rel=1e-12)
        r = to_chart("R", *m, P_236_1)
        assert r[0] == pytest.approx(1.0 / dc.gamma, rel=1e-12)
        for chart, point in (("Q", expected), ("R", r)):
            ok, y, Y = _lift(chart, *point, P_236_1.p)
            assert ok and (float(y), float(Y)) == pytest.approx(m, rel=1e-12)

    @given(
        y=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
        Y=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
        chart=st.sampled_from(["Q", "P", "R", "R_beta"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_round_trip_identity(self, y, Y, chart):
        # _lift reads chart R_beta as chart R with s = beta S, on the branch
        # y > 0; the slope charts identify (y, Y) with (-y, -Y)
        params = ProblemParams(2, 3.0, -1.5, -1)
        a, b = to_chart(chart, y, Y, params)
        if chart == "R_beta":
            chart, b = "R", b * derive_constants(params).beta
        ok, y_back, Y_back = _lift(chart, a, b, params.p)
        assert ok
        sign_y = 1.0 if y > 0 else -1.0
        assert sign_y * float(y_back) == pytest.approx(y, rel=1e-12, abs=1e-12)
        assert sign_y * float(Y_back) == pytest.approx(Y, rel=1e-12, abs=1e-12)


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
            rate = s_field(params, state.y, state.Y)
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
