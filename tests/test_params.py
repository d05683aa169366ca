"""Closed-form constants: frozen values, structural identities, errors."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from plap.params import (
    ParameterError,
    ProblemParams,
    derive_constants,
    m_ell_point,
)


def params_strategy():
    return st.builds(
        ProblemParams,
        N=st.integers(min_value=1, max_value=6),
        p=st.floats(min_value=2.05, max_value=8.0, allow_nan=False),
        alpha=st.floats(min_value=-10.0, max_value=10.0,
                        allow_nan=False).filter(lambda a: abs(a) > 1e-3),
        epsilon=st.sampled_from([-1, 1]),
    )


class TestFrozenValues:
    def test_n1_p3_alpha_minus4(self):
        dc = derive_constants(ProblemParams(1, 3.0, -4.0, -1))
        assert dc.gamma == pytest.approx(3.0, abs=1e-14)
        assert dc.eta == pytest.approx(-1.0, abs=1e-14)
        assert dc.p_prime == pytest.approx(1.5, abs=1e-14)
        assert dc.beta == pytest.approx(-1.0, abs=1e-14)
        assert dc.alpha_star == pytest.approx(-15.0 / 7.0, abs=1e-14)
        assert dc.alpha_p == pytest.approx(-2.0, abs=1e-14)

    def test_n2_p3_alpha_minus6(self):
        dc = derive_constants(ProblemParams(2, 3.0, -6.0, 1))
        assert dc.ell == pytest.approx(1.0 / 15.0, abs=1e-14)
        assert dc.alpha_star == pytest.approx(-33.0 / 16.0, abs=1e-14)

    def test_beta_at_alpha_equal_N(self):
        dc = derive_constants(ProblemParams(2, 3.0, 2.0, 1))
        assert dc.beta == pytest.approx(5.0, abs=1e-14)

    def test_flat_point_location(self):
        assert m_ell_point(ProblemParams(2, 3.0, -6.0, 1)) == pytest.approx(
            (1.0 / 15.0, -1.0 / 25.0), abs=1e-14)

    def test_flat_point_absent_when_sign_condition_fails(self):
        assert m_ell_point(ProblemParams(1, 3.0, -4.0, -1)) is None


class TestValidation:
    def test_rejects_p_not_above_2(self):
        with pytest.raises(ParameterError):
            ProblemParams(1, 2.0, 1.0, 1)
        with pytest.raises(ParameterError, match="p must exceed 2 and be finite"):
            ProblemParams(1, float("inf"), 1.0, 1)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ParameterError):
            ProblemParams(0, 3.0, 1.0, 1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ParameterError):
            ProblemParams(1, 3.0, 1.0, 0)

    def test_alpha_zero_tolerated_at_construction_only(self):
        params = ProblemParams(1, 3.0, 0.0, 1)
        with pytest.raises(ParameterError):
            derive_constants(params)

    def test_caching_returns_identical_object(self):
        a = derive_constants(ProblemParams(3, 4.0, 1.5, 1))
        b = derive_constants(ProblemParams(3, 4.0, 1.5, 1))
        assert a is b


class TestStructuralIdentities:
    @given(params_strategy())
    @settings(max_examples=1000, deadline=None)
    def test_exponent_identity_chain(self, params):
        dc = derive_constants(params)
        N = float(params.N)
        lhs = dc.eta + dc.gamma
        mid = (N + dc.gamma) / (params.p - 1.0)
        rhs = (N - dc.eta) / (params.p - 2.0)
        scale = max(abs(lhs), abs(mid), abs(rhs), 1e-300)
        assert abs(lhs - mid) / scale <= 1e-12
        assert abs(mid - rhs) / scale <= 1e-12

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_gamma_above_one_eta_below_N(self, params):
        dc = derive_constants(params)
        assert dc.gamma > 1.0
        assert dc.eta < params.N

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_beta_sign_iff_alpha_above_minus_gamma(self, params):
        dc = derive_constants(params)
        assert (dc.beta > 0.0) == (params.alpha > -dc.gamma)

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_hopf_value_below_minus_one(self, params):
        dc = derive_constants(params)
        assert dc.alpha_star < -1.0

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_hopf_below_homoclinic_iff_p_above_N(self, params):
        dc = derive_constants(params)
        if params.p > params.N:
            assert dc.alpha_star < dc.alpha_p
        elif params.p < params.N:
            assert dc.alpha_star > dc.alpha_p

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_node_threshold_ordering(self, params):
        dc = derive_constants(params)
        if dc.alpha_2 is not None:
            assert dc.alpha_1 < dc.alpha_star < dc.alpha_2

    @given(params_strategy())
    @settings(max_examples=300, deadline=None)
    def test_flat_amplitude_presence(self, params):
        dc = derive_constants(params)
        exists = params.epsilon * (params.alpha + dc.gamma) < 0.0
        assert (dc.ell is not None) == exists
        if dc.ell is not None:
            assert dc.ell > 0.0

    def test_linearization_constants_absent_at_alpha_minus_gamma(self):
        dc = derive_constants(ProblemParams(1, 3.0, -3.0, -1))
        assert dc.nu_alpha is None
        assert dc.discriminant_Delta is None

    @given(params_strategy())
    @settings(max_examples=200, deadline=None)
    def test_discriminant_matches_nu(self, params):
        dc = derive_constants(params)
        if dc.nu_alpha is None:
            return
        trace = 2.0 * dc.gamma + params.N + dc.nu_alpha
        expected = trace * trace - 4.0 * dc.p_prime * (params.N + dc.gamma)
        assert dc.discriminant_Delta == pytest.approx(expected, rel=1e-12)
