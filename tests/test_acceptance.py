"""Acceptance gate: one printed pass/fail line per criterion.

Each test prints its verdict directly to the terminal (bypassing capture)
so a plain pytest run shows the per-criterion outcome lines.
"""

import math
import time

import numpy as np
import pytest

from plap.params import ProblemParams, derive_constants, m_ell_point
from plap.systems import (
    J_N,
    PhaseState,
    ProfileSample,
    from_profile,
    oracle,
    phi_Y,
)
from plap.integrate import IntegrationConfig, integrate_s
from plap.trajectories import shoot_double_zero, shoot_regular
from plap.analysis import (
    classify_stationary_points,
    count_sign_changes,
    detect_limit_cycle,
    find_alpha_c,
    phi_of_alpha,
)


def _report(capsys, num, label, check):
    t0 = time.monotonic()
    try:
        detail = check()
        ok = True
    except AssertionError as exc:
        detail = str(exc).splitlines()[0] if str(exc) else ""
        ok = False
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {label}"
              f" ({elapsed:.1f}s){': ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_critical_exponent_exact_case(capsys):
    def check():
        res = find_alpha_c(1, 3.0, tol=1e-4, force_bisection=True)
        assert abs(res.value + 2.0) <= 1e-3, f"got {res.value}"
        return f"alpha_c = {res.value:.6f}"
    _report(capsys, 1, "bisected critical exponent matches the "
            "one-dimensional closed form", check)


def test_criterion_2_hopf_threshold(capsys):
    def check():
        dc = derive_constants(ProblemParams(1, 3.0, -1.0, -1))
        assert abs(dc.alpha_star + 15.0 / 7.0) <= 1e-12

        def flat_type(alpha):
            pts = classify_stationary_points(ProblemParams(1, 3.0, alpha, -1))
            return next(s for s in pts if s.point_id == "M_ell").local_type

        assert flat_type(-2.2) == "source_spiral"
        assert flat_type(-2.1) == "sink_spiral"
        return "alpha* = -15/7; spiral flips source -> sink across it"
    _report(capsys, 2, "Hopf threshold value and classification flip", check)


def test_criterion_3_oracle_fidelity(capsys):
    def check():
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        state0 = from_profile(sol.sample(0.01), params)
        traj = integrate_s(state0, params, direction=1,
                           tau_span=math.log(0.95 * 3.0 ** (2.0 / 3.0) / 0.01))
        r, w, _ = traj.profile()
        mask = (r >= 0.01) & (r <= 0.9 * 3.0 ** (2.0 / 3.0))
        exact = np.clip(1.0 - r[mask] ** 1.5 / 3.0, 0.0, None) ** 2
        err = float(np.max(np.abs(w[mask] - exact) / exact))
        assert err <= 1e-6, f"sup rel err {err:.2e}"
        return f"sup rel err {err:.2e}"
    _report(capsys, 3, "integration reproduces the explicit compactly "
            "supported profile", check)


def test_criterion_4_double_zero_local_law(capsys):
    def check():
        traj = shoot_double_zero(ProblemParams(2, 3.0, 1.0, 1), r_bar=1.0)
        r, w, _ = traj.profile()
        mask = (r < 1.0) & (w > 0.0)
        d = 1.0 - r[mask]
        keep = (d > np.max(d) * 1e-3) & (d < np.max(d) * 1e-2)
        slope, logA = np.polyfit(np.log(d[keep]), np.log(w[mask][keep]), 1)
        amp = math.exp(logA)
        assert abs(slope - 2.0) <= 0.02, f"exponent {slope:.4f}"
        assert abs(amp - 0.25) <= 0.01, f"amplitude {amp:.4f}"
        return f"contact exponent {slope:.4f}, amplitude {amp:.4f}"
    _report(capsys, 4, "double-zero contact exponent and amplitude", check)


def test_criterion_5_oscillation_regime(capsys):
    def check():
        params = ProblemParams(1, 3.0, -4.0, -1)
        dc = derive_constants(params)
        traj = shoot_regular(params, tau_span=50.0, consistency_check=False)
        n = count_sign_changes(traj,
                               window=(traj.tau[-1] - 50.0, traj.tau[-1]))
        assert n >= 10, f"{n} sign changes"
        cyc = detect_limit_cycle(traj, params)
        assert cyc is not None, "no limit cycle certified"
        y, Y = traj.ys
        tail = traj.tau >= traj.tau[0] + 0.5 * (traj.tau[-1] - traj.tau[0])
        R = (y[tail] ** 2 / 2.0 + np.abs(Y[tail]) ** dc.p_prime
             / (dc.p_prime * abs(params.alpha)))
        bound = 1.1 / (abs(params.alpha) * dc.gamma)
        assert float(np.max(R)) <= bound, f"R max {np.max(R):.4f} > {bound:.4f}"
        return (f"{n} sign changes; cycle period {cyc.period_tau:.4f}; "
                f"R max {np.max(R):.4f} <= {bound:.4f}")
    _report(capsys, 5, "oscillation regime: sign changes, certified cycle, "
            "tail bound", check)


def test_criterion_6_sink_convergence(capsys):
    def check():
        params = ProblemParams(2, 3.0, -6.0, 1)
        traj = shoot_regular(params, tau_span=80.0, consistency_check=False)
        m = m_ell_point(params)
        d = math.hypot(traj.ys[0][-1] - m[0], traj.ys[1][-1] - m[1])
        assert d <= 1e-4, f"terminal distance {d:.2e}"
        return f"terminal distance to (1/15, -1/25): {d:.2e}"
    _report(capsys, 6, "regular orbit converges to the flat stationary "
            "point", check)


def test_criterion_7_connection_gap_monotonicity(capsys):
    def check():
        v21 = phi_of_alpha(1, 3.0, -2.1)
        v20 = phi_of_alpha(1, 3.0, -2.0)
        v19 = phi_of_alpha(1, 3.0, -1.9)
        assert v21 > 0.0 > v19, f"signs: {v21:.3e}, {v19:.3e}"
        assert v21 > v20 > v19, "monotonicity violated"
        return f"phi(-2.1)={v21:.4f} > phi(-2)={v20:.1e} > phi(-1.9)={v19:.4f}"
    _report(capsys, 7, "connection gap signs and monotonicity", check)


def test_criterion_8_zero_count_properties(capsys):
    def check():
        rng = np.random.default_rng(0)
        cfg = IntegrationConfig(rel_tol=1e-6, abs_tol=1e-9)

        # forward sign, alpha <= N: at most one simple zero per orbit
        for _ in range(200):
            N = int(rng.integers(1, 4))
            p = float(rng.uniform(2.3, 5.0))
            alpha = float(rng.uniform(-3.0, N))
            if abs(alpha) < 1e-3:
                continue
            params = ProblemParams(N, p, alpha, 1)
            y0, Y0 = rng.uniform(-1.0, 1.0, size=2)
            if abs(y0) + abs(Y0) < 1e-3:
                continue
            traj = integrate_s(PhaseState(0.0, y0, Y0), params, direction=1,
                               config=cfg, tau_span=15.0)
            n = count_sign_changes(traj)
            assert n <= 1, f"{n} zeros at (N={N}, p={p:.3f}, alpha={alpha:.3f})"

        # backward sign, -p' <= alpha < min(0, eta): at most two zeros
        for _ in range(200):
            p = float(rng.uniform(2.3, 5.0))
            N = 1
            dc = derive_constants(ProblemParams(N, p, -1.0, -1))
            hi = min(0.0, dc.eta)
            alpha = float(rng.uniform(-dc.p_prime, hi - 1e-6))
            params = ProblemParams(N, p, alpha, -1)
            y0, Y0 = rng.uniform(-1.0, 1.0, size=2)
            if abs(y0) + abs(Y0) < 1e-3:
                continue
            traj = integrate_s(PhaseState(0.0, y0, Y0), params, direction=1,
                               config=cfg, tau_span=15.0)
            n = count_sign_changes(traj)
            assert n <= 2, f"{n} zeros at (p={p:.3f}, alpha={alpha:.3f})"

        # forward sign, alpha > N: every regular orbit changes sign
        for _ in range(200):
            N = int(rng.integers(1, 4))
            p = float(rng.uniform(2.3, 5.0))
            alpha = float(rng.uniform(N + 0.05, N + 8.0))
            params = ProblemParams(N, p, alpha, 1)
            traj = shoot_regular(params, config=cfg, tau_span=30.0,
                                 consistency_check=False)
            n = count_sign_changes(traj)
            assert n >= 1, f"no zero at (N={N}, p={p:.3f}, alpha={alpha:.3f})"
        return "600 random orbits respect the zero-count bounds"
    _report(capsys, 8, "zero-count bounds over random orbits", check)


def test_criterion_9_invariant_suite(capsys):
    def check():
        rng = np.random.default_rng(1)

        # exponent identity chain
        for _ in range(1000):
            N = int(rng.integers(1, 7))
            p = float(rng.uniform(2.05, 8.0))
            alpha = float(rng.uniform(-10.0, 10.0)) or 1.0
            dc = derive_constants(ProblemParams(N, p, alpha, 1))
            lhs = dc.eta + dc.gamma
            mid = (N + dc.gamma) / (p - 1.0)
            rhs = (N - dc.eta) / (p - 2.0)
            scale = max(abs(lhs), 1e-300)
            assert abs(lhs - mid) / scale <= 1e-12
            assert abs(mid - rhs) / scale <= 1e-12

        # energy monotonicity for the forward sign
        params = ProblemParams(2, 3.0, 1.0, 1)
        traj = shoot_regular(params, tau_span=20.0, consistency_check=False)
        r, w, dw = traj.profile()
        dc = derive_constants(params)
        order = np.argsort(r)
        E = (np.abs(dw[order]) ** params.p / dc.p_prime
             + params.alpha * w[order] ** 2 / 2.0)
        assert np.all(np.diff(E) <= 1e-10), "energy increased"

        # first-integral constancy on alpha = N orbits
        params = ProblemParams(2, 3.0, 2.0, 1)
        traj = integrate_s(PhaseState(0.0, 0.3, -0.2), params, direction=1,
                           capture=False, tau_span=3.0)
        r, w, dw = traj.profile()
        J = np.array([J_N(ProfileSample(*s), params)
                      for s in zip(r, w, dw)])
        drift = float(np.max(np.abs(J - J[0])) / max(abs(J[0]), 1e-12))
        assert drift <= 1e-8, f"first-integral drift {drift:.2e}"

        # scaling covariance: rescaling a solution gives the solution
        # with the rescaled central value, computed independently
        params = ProblemParams(2, 3.0, 1.0, 1)
        dc = derive_constants(params)
        base = shoot_regular(params, a=1.0, tau_span=20.0,
                             consistency_check=False)
        r1, w1, _ = base.profile()
        o1 = np.argsort(r1)
        for xi in (0.5, 2.0):
            other = shoot_regular(params, a=xi, tau_span=20.0,
                                  consistency_check=False)
            r2, w2, _ = other.profile()
            o2 = np.argsort(r2)
            probe = np.linspace(0.2, 1.5, 20)
            ref = xi * np.interp(xi ** (-1.0 / dc.gamma) * probe,
                                 r1[o1], w1[o1])
            got = np.interp(probe, r2[o2], w2[o2])
            assert np.max(np.abs(got - ref)) <= 1e-8 * max(1.0, xi), \
                f"scaling residual {np.max(np.abs(got - ref)):.2e} at xi={xi}"

        # partition lines carried by the closed forms
        params = ProblemParams(2, 3.0, 2.0, 1)
        sol = oracle("barenblatt", params, free_constant=1.0)
        for rr in np.linspace(0.1, 1.9, 20):
            st_ = from_profile(sol.sample(float(rr)), params)
            assert abs(st_.Y / st_.y - 1.0) <= 1e-9
        params = ProblemParams(4, 3.0, 0.5, 1)
        sol = oracle("p_harmonic", params)
        for rr in np.linspace(0.1, 3.0, 20):
            st_ = from_profile(sol.sample(float(rr)), params)
            zeta = float(phi_Y(st_.Y, params.p)) / st_.y
            assert abs(zeta - 0.5) <= 1e-9
        params = ProblemParams(2, 3.0, -1.5, 1)
        sol = oracle("quadratic", params, free_constant=1.0)
        for rr in np.linspace(0.1, 3.0, 20):
            st_ = from_profile(sol.sample(float(rr)), params)
            zeta = float(phi_Y(st_.Y, params.p)) / st_.y
            sigma = st_.Y / st_.y
            assert abs(zeta + 2.0 * sigma + 1.5) <= 1e-9
        return ("identity chain, energy decay, first-integral constancy, "
                "scaling covariance, partition lines")
    _report(capsys, 9, "structural invariant suite", check)


def test_criterion_10_out_of_scope_statements(capsys):
    def check():
        # solution-level integrability and initial-trace statements, and
        # all existence/uniqueness proofs, are not desk-reproducible; they
        # are covered indirectly by the property suites above.
        return "excluded by design; covered indirectly by criteria 1-9"
    _report(capsys, 10, "non-numerical statements excluded", check)
