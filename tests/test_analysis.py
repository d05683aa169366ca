"""Stationary classification, labels, cycles, the connection function, the
critical exponent, and the regime classifier."""

import math

import numpy as np
import pytest

from plap.params import (ParameterError, ProblemParams, derive_constants,
                         m_ell_point)
from plap.trajectories import shoot_regular
from plap.analysis import (
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


class TestAsymptoticLabels:
    def test_flat_convergence(self):
        params = ProblemParams(2, 3.0, -6.0, 1)
        traj = shoot_regular(params, tau_span=60.0, consistency_check=False)
        assert asymptotic_label(traj, params) == "A_gamma"

    def test_oscillation(self):
        params = ProblemParams(1, 3.0, -4.0, -1)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        assert asymptotic_label(traj, params) == "oscillating_sign"


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

    def test_offset_insensitivity(self):
        vals = [phi_of_alpha(2, 3.0, -1.8, offset=off)
                for off in (1e-6, 1e-7, 1e-8)]
        assert max(vals) - min(vals) <= 1e-9


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

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ParameterError):
            find_alpha_c(2, 3.0, tol=0.0)


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
