"""Shooting constructions of the distinguished orbits of the profile
phase plane.

Every construction follows the same pattern: expand the local invariant
manifold of a degenerate or hyperbolic point in the chart where it is
regular, step a small offset ``delta`` along the manifold, integrate the
chart field until the orbit is well inside the (y, Y) plane, then hand
off to the S-chart integrator with its full event machinery.  The five
kinds are

T_r      the regular family w(0) = a > 0, w'(0) = 0: unstable manifold of
         the slope-chart saddle (0, eps alpha / N);
T_eps    the compact-support orbit with a double zero w(rbar) = w'(rbar)
         = 0: unstable manifold of the inverse-slope-chart saddle
         (0, -eps);
T_alpha  the algebraic-decay orbit w ~ L r^{-alpha}: center manifold of
         the inverse-slope-chart point (-1/alpha, 0);
T_eta / T_u  the harmonic-type orbits w ~ c r^{-eta} (p < N: an infinite
         family, a canonical member is returned; p > N: unique);
T_plus / T_minus (p >= N)  the flat-limit family with w(0) = a finite and
         a prescribed first-derivative limit, built from the scalar
         graph-function charts that desingularize the p >= N corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .params import ParameterError, ProblemParams, derive_constants
from .integrate import (
    Event,
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    integrate_s,
)
from .systems import PhaseState, field, phi_Y, sgn_pow


DEFAULT_OFFSET = 1e-7

TRAJECTORY_KINDS = ("T_r", "T_eps", "T_alpha", "T_eta", "T_u", "T_plus", "T_minus")


@dataclass(frozen=True)
class SpecialTrajectorySpec:
    """Request record for a shooting construction."""

    kind: str
    offset: float = DEFAULT_OFFSET
    extra: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not (self.offset > 0.0):
            raise ValueError("offset must be positive")


# ---------------------------------------------------------------------------
# chart lifts (vectorized versions of systems.invert, restricted to y > 0)


def _lift_Q(zeta, sigma, p):
    q = sigma * np.sign(zeta) * np.abs(zeta) ** (1.0 - p)
    y = np.where(q > 0.0, np.abs(q), 1.0) ** (1.0 / (p - 2.0))
    return q > 0.0, y, sigma * y


def _lift_P(zeta, psi, p):
    q = 1.0 / (psi * np.sign(zeta) * np.abs(zeta) ** (p - 1.0))
    y = np.where(q > 0.0, np.abs(q), 1.0) ** (1.0 / (p - 2.0))
    return q > 0.0, y, y / psi


def _lift_R(g, s, p):
    q = s * np.sign(g) * np.abs(g) ** (p - 1.0)
    y = np.where(q > 0.0, np.abs(q), 1.0) ** (1.0 / (p - 2.0))
    return q > 0.0, y, -s * y


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / float(np.hypot(v[0], v[1]))


def _y_handoff(params: ProblemParams, grow: bool) -> float:
    """Ordinate at which a launch phase hands off to the S-chart.

    Orbits whose lifted ordinate grows from ~0 hand off at a fraction of
    the flat-profile amplitude (or 1); orbits that come down from the
    r -> 0 singular end hand off at a large ordinate so the S phase keeps
    the full profile range."""
    if grow:
        dc = derive_constants(params)
        return 0.5 * dc.ell if dc.ell is not None else 1.0
    return 1e3


def _compose(params: ProblemParams, pre_tau, pre_y, pre_Y, pre_events,
             s_traj: Trajectory, meta: dict) -> Trajectory:
    """Concatenate lifted launch-phase samples with the S continuation;
    the result's ``meta`` is the launch's plus the S-chart stepper
    counts ``meta["stats"]``."""
    d = s_traj.direction
    tau = np.concatenate([np.asarray(pre_tau, dtype=float), s_traj.tau])
    ys = np.hstack([np.vstack([pre_y, pre_Y]), s_traj.ys])
    keep = np.ones(tau.size, dtype=bool)
    keep[1:] = np.diff(d * tau) > 0.0
    events = sorted(list(pre_events) + list(s_traj.events), key=lambda e: d * e.time)
    meta["stats"] = s_traj.meta["stats"]
    return Trajectory("S", params, tau[keep], ys[:, keep], events,
                      s_traj.termination, d, meta=meta)


def _chart_phase(chart_id: str, u0, params: ProblemParams,
                 cfg: IntegrationConfig, t_span, handoff_fn,
                 max_step=None, extra_events=()):
    """Integrate a launch chart until the terminal handoff event fires."""

    def rhs(t, u):
        return field(chart_id, u, params)

    handoff_fn.terminal = True
    handoff_fn.direction = getattr(handoff_fn, "direction", 0)
    evs = [handoff_fn, *extra_events]
    sol = solve_ivp(rhs, t_span, np.asarray(u0, dtype=float), method="RK45",
                    rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                    max_step=(max_step if max_step is not None else np.inf),
                    events=evs, dense_output=True)
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"launch phase in chart {chart_id} failed: {sol.message}")
    if sol.status != 1 or not sol.t_events[0].size:
        raise IntegrationError(
            f"launch phase in chart {chart_id} never reached the handoff section")
    return sol


# ---------------------------------------------------------------------------
# T_r : the regular family


def shoot_regular(params: ProblemParams, config: Optional[IntegrationConfig] = None,
                  *, a: float = 1.0, offset: float = DEFAULT_OFFSET,
                  tau_span: Optional[float] = None,
                  consistency_check: bool = True) -> Trajectory:
    """Construct the regular orbit with w(0) = a > 0 and w'(0) = 0.

    Launch: the slope chart (zeta, sigma) has a saddle at (0, eps alpha/N)
    with eigenvalues -N and p'; the unstable eigenvector has slope
    eps(alpha - N)/(N(N + p')).  The launch point sits at zeta =
    sign(eps alpha) * offset on that eigenvector, which is the r -> 0 end
    of the orbit.  The amplitude is calibrated from the exact drift
    d/dtau ln(y e^{gamma tau}) = -zeta, whose integral over the launch
    tail is zeta0/p' + O(zeta0^2), and the whole orbit is then translated
    in tau to realize the requested a (the scaling w(r, a) =
    a w(a^{-1/gamma} r, 1)).
    """
    if not (a > 0.0):
        raise ParameterError("the regular family requires a > 0")
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)  # also validates alpha != 0
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    sigma_star = eps * al / N
    slope = eps * (al - N) / (N * (N + dc.p_prime))
    sgn_z = 1.0 if sigma_star > 0.0 else -1.0

    y_hand = _y_handoff(params, grow=False)
    q_hand = y_hand ** (p - 2.0)

    def run_launch(delta):
        zeta0 = sgn_z * delta
        u0 = (zeta0, sigma_star + slope * zeta0)

        def handoff(t, u):
            return u[1] * np.sign(u[0]) * abs(u[0]) ** (1.0 - p) - q_hand
        handoff.direction = -1
        return u0, _chart_phase("Q", u0, params, cfg, (0.0, 80.0), handoff,
                                max_step=0.25)

    u0, sol = run_launch(offset)
    t_sw = float(sol.t_events[0][0])
    usw = sol.y_events[0][0]

    meta: dict = {"kind": "T_r", "a": a, "offset": offset,
                  "launch_chart": "Q", "launch_coords": tuple(u0)}
    if consistency_check:
        _, sol_h = run_launch(offset / 2.0)
        uh = sol_h.y_events[0][0]
        meta["offset_consistency"] = float(np.hypot(*(usw - uh)))

    # amplitude carried by the launch point, with the first-order tail
    # correction int zeta dtau = zeta0/p'
    ok0, y0, _ = _lift_Q(np.array([u0[0]]), np.array([u0[1]]), p)
    a_raw = float(y0[0]) * math.exp(u0[0] / dc.p_prime)
    meta["a_raw"] = a_raw

    mask = sol.t < t_sw
    z_arr = np.append(sol.y[0][mask], usw[0])
    s_arr = np.append(sol.y[1][mask], usw[1])
    t_arr = np.append(sol.t[mask], t_sw)
    ok, y_arr, Y_arr = _lift_Q(z_arr, s_arr, p)
    if not np.all(ok):
        raise IntegrationError("regular launch left the liftable cone")

    s_traj = integrate_s(PhaseState(t_sw, float(y_arr[-1]), float(Y_arr[-1])),
                         params, direction=1, config=cfg, tau_span=tau_span)
    traj = _compose(params, t_arr[:-1], y_arr[:-1], Y_arr[:-1], [], s_traj, meta)
    traj.shift_tau(math.log(a / a_raw) / dc.gamma)
    return traj


# ---------------------------------------------------------------------------
# T_eps : the double-zero (compact-support edge) orbit


def shoot_double_zero(params: ProblemParams, r_bar: float = 1.0,
                      config: Optional[IntegrationConfig] = None,
                      *, offset: float = DEFAULT_OFFSET,
                      tau_span: Optional[float] = None,
                      consistency_check: bool = True) -> Trajectory:
    """Construct the orbit with a double zero w(rbar) = w'(rbar) = 0.

    Launch: the inverse-slope chart (g, s) = (-1/zeta, -sigma), with its
    rescaled time nu (d tau = g s d nu), has a saddle at (0, -eps) whose
    unstable eigenvector is ((2p-3)/(p-1), eps(N - alpha)); the orbit
    leaves it on the side g sign = -eps (support inside r < rbar for
    eps = +1, outside r > rbar for eps = -1).  Near the saddle
    dg/dtau = (p-2)/(p-1) + o(1), so the edge time is
    tau_edge = tau0 - g0 (p-1)/(p-2) + O(g0^2); the orbit is translated
    so that the edge sits at ln(rbar).
    """
    if not (r_bar > 0.0):
        raise ParameterError("r_bar must be positive")
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    v = _unit(((2.0 * p - 3.0) / (p - 1.0), eps * (N - al)))
    d = -float(eps)
    dir_nu = -eps  # nu direction away from the saddle
    nu_max = 80.0 * (p - 1.0) / (p - 2.0) + 100.0

    y_hand = _y_handoff(params, grow=True)
    q_hand = y_hand ** (p - 2.0)

    def rhs(nu, u):
        g, s, _tau = u
        dg, ds = field("R", (g, s), params)
        return (dg, ds, g * s)

    def handoff(nu, u):
        return u[1] * np.sign(u[0]) * abs(u[0]) ** (p - 1.0) - q_hand
    handoff.terminal = True
    handoff.direction = 1

    # the inverse-slope chart is singular where w' = 0; orbits whose first
    # extremum arrives below the handoff amplitude (small limit cycles)
    # must leave the chart before |g| blows up there
    def chart_exit(nu, u):
        return abs(u[0]) - 1e6
    chart_exit.terminal = True
    chart_exit.direction = 1

    def run_launch(delta):
        u0 = np.array([d * delta * v[0], -eps + d * delta * v[1], 0.0])
        sol = solve_ivp(rhs, (0.0, dir_nu * nu_max), u0, method="RK45",
                        rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                        events=[handoff, chart_exit])
        hits = [(dir_nu * te[0], ye[0]) for te, ye in
                zip(sol.t_events, sol.y_events) if te.size]
        if sol.status != 1 or not hits:
            raise IntegrationError("double-zero launch never left the saddle region")
        return u0, sol, min(hits, key=lambda h: h[0])[1]

    u0, sol, usw = run_launch(offset)
    meta: dict = {"kind": "T_eps", "r_bar": r_bar, "offset": offset,
                  "launch_chart": "R", "launch_coords": (float(u0[0]), float(u0[1]))}
    if consistency_check:
        _, _, uh = run_launch(offset / 2.0)
        meta["offset_consistency"] = float(np.hypot(usw[0] - uh[0], usw[1] - uh[1]))

    tau_edge_est = -float(u0[0]) * (p - 1.0) / (p - 2.0)
    shift = math.log(r_bar) - tau_edge_est
    meta["tau_bar"] = math.log(r_bar)

    g_arr = np.append(sol.y[0], usw[0])
    s_arr = np.append(sol.y[1], usw[1])
    t_arr = np.append(sol.y[2], usw[2])
    ok, y_arr, Y_arr = _lift_R(g_arr, s_arr, p)
    g_arr, s_arr, t_arr = g_arr[ok], s_arr[ok], t_arr[ok]
    y_arr, Y_arr = y_arr[ok], Y_arr[ok]

    direction = -eps  # tau direction away from the edge
    s_traj = integrate_s(PhaseState(float(t_arr[-1]), float(y_arr[-1]), float(Y_arr[-1])),
                         params, direction=direction, config=cfg, tau_span=tau_span)
    edge_event = Event("double_zero_capture", tau_edge_est,
                       PhaseState(tau_edge_est, 0.0, 0.0))
    traj = _compose(params, t_arr[:-1], y_arr[:-1], Y_arr[:-1], [edge_event],
                    s_traj, meta)
    traj.shift_tau(shift)
    traj.meta["tau_edge_estimate"] = tau_edge_est + shift
    return traj


# ---------------------------------------------------------------------------
# T_alpha : the algebraic-decay orbit


def shoot_T_alpha(params: ProblemParams, config: Optional[IntegrationConfig] = None,
                  *, offset: float = DEFAULT_OFFSET,
                  tau_span: Optional[float] = None,
                  consistency_check: bool = True) -> Trajectory:
    """Construct the orbit with w ~ L r^{-alpha} at its decay end.

    Launch: the inverse-slope chart has a semi-hyperbolic point at
    (-1/alpha, 0) whose center tangent is ((p-1)(eta - alpha),
    eps alpha^2); the transverse eigenvalue is -eps/(p-1).  The s-launch
    sign is -sign(alpha) (the liftable cone g s ... > 0), and the orbit is
    integrated away from the point: the decay end sits at tau = +inf for
    alpha > -gamma, -inf for alpha < -gamma, eps * inf for alpha =
    -gamma.  The traverse of the center manifold is algebraically slow
    (ds/dnu ~ s^2), which the adaptive stepper absorbs.
    """
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    if al > -dc.gamma:
        direction = -1
    elif al < -dc.gamma:
        direction = 1
    else:
        direction = -eps

    A = np.array([-1.0 / al, 0.0])
    v = _unit(((p - 1.0) * (dc.eta - al), eps * al * al))
    s_sign = -1.0 if al > 0.0 else 1.0
    d = s_sign * math.copysign(1.0, v[1])

    y_hand = _y_handoff(params, grow=True)
    q_hand = y_hand ** (p - 2.0)
    nu_max = 1e15

    def rhs(nu, u):
        g, s, _tau = u
        dg, ds = field("R", (g, s), params)
        return (dg, ds, g * s)

    def handoff(nu, u):
        return u[1] * np.sign(u[0]) * abs(u[0]) ** (p - 1.0) - q_hand
    handoff.terminal = True
    handoff.direction = 1

    def g_blowup(nu, u):
        return abs(u[0]) - 1e8
    g_blowup.terminal = True

    meta: dict = {"kind": "T_alpha", "offset": offset, "launch_chart": "R",
                  "decay_end": float(-direction) * math.inf}

    # Transverse rate along the away direction.  When it is negative the
    # launch is self-correcting (the unique-orbit case eps(gamma+alpha)<0)
    # and a manifold step works.  When it is positive the orbit family is
    # non-unique and the traverse amplifies the offset error beyond repair;
    # there the canonical member is seeded at a macroscopic point on the
    # center tangent and the decay tail is produced by collapsing backward
    # onto the stationary point (the transverse mode decays that way).
    away_rate = direction * (-eps) / (p - 1.0)

    if away_rate < 0.0:
        def run_launch(delta):
            u0 = np.array([A[0] + d * delta * v[0], A[1] + d * delta * v[1], 0.0])
            # the transverse mode makes the slow center traverse stiff for
            # an explicit pair; LSODA switches to BDF there
            sol = solve_ivp(rhs, (0.0, direction * nu_max), u0, method="LSODA",
                            rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                            events=[handoff, g_blowup])
            if sol.status != 1 or not sol.t_events[0].size:
                raise IntegrationError(
                    "algebraic-decay launch never reached the handoff section")
            return u0, sol

        u0, sol = run_launch(offset)
        usw = sol.y_events[0][0]
        meta["launch_variant"] = "manifold"
        meta["launch_coords"] = (float(u0[0]), float(u0[1]))
        if consistency_check:
            _, sol_h = run_launch(offset / 2.0)
            uh = sol_h.y_events[0][0]
            meta["offset_consistency"] = float(np.hypot(usw[0] - uh[0], usw[1] - uh[1]))

        g_arr = np.append(sol.y[0], usw[0])
        s_arr = np.append(sol.y[1], usw[1])
        t_arr = np.append(sol.y[2], usw[2])
        ok, y_arr, Y_arr = _lift_R(g_arr, s_arr, p)
        t_arr = t_arr[ok]
        y_arr, Y_arr = y_arr[ok], Y_arr[ok]
    else:
        meta["launch_variant"] = "seeded"
        meta["offset_consistency"] = 0.0  # the offset only truncates the tail

        def near_A(nu, u):
            return math.hypot(u[0] - A[0], u[1] - A[1]) - offset
        near_A.terminal = True
        near_A.direction = -1

        def s_flip(nu, u):
            return u[1]
        s_flip.terminal = True

        # a macroscopic seed may sit outside the backward basin of the
        # stationary point (the backward flow can spiral into the axis);
        # shrink the seed geometrically until the tail collapses
        s_mac = s_sign * q_hand * abs(al) ** (p - 1.0)  # lift ordinate ~ y_hand
        sol = None
        for _ in range(24):
            g_seed = A[0] + (v[0] / v[1]) * s_mac
            u_seed = np.array([g_seed, s_mac, 0.0])
            trial = solve_ivp(rhs, (0.0, -direction * nu_max), u_seed,
                              method="LSODA",
                              rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                              events=[near_A, g_blowup, s_flip])
            if trial.status == 1 and trial.t_events[0].size:
                sol = trial
                break
            s_mac *= 0.5
            if abs(s_mac) < 1e3 * offset:
                break
        if sol is None:
            raise IntegrationError(
                "algebraic-decay tail did not collapse onto the stationary point")
        meta["launch_coords"] = (float(g_seed), float(s_mac))
        # tail in backward order; reverse into forward (integration) order
        g_arr = sol.y[0][::-1]
        s_arr = sol.y[1][::-1]
        t_arr = sol.y[2][::-1]
        ok, y_arr, Y_arr = _lift_R(g_arr, s_arr, p)
        t_arr = t_arr[ok]
        y_arr, Y_arr = y_arr[ok], Y_arr[ok]

    s_traj = integrate_s(PhaseState(float(t_arr[-1]), float(y_arr[-1]), float(Y_arr[-1])),
                         params, direction=direction, config=cfg, tau_span=tau_span)
    return _compose(params, t_arr[:-1], y_arr[:-1], Y_arr[:-1], [], s_traj, meta)


# ---------------------------------------------------------------------------
# T_eta (p < N) / T_u (p > N)


def shoot_T_eta_or_u(params: ProblemParams, config: Optional[IntegrationConfig] = None,
                     *, offset: float = DEFAULT_OFFSET,
                     tau_span: Optional[float] = None,
                     consistency_check: bool = True) -> Trajectory:
    """Construct the harmonic-type orbit with w ~ c r^{-eta} as r -> 0.

    The projective chart (zeta, psi) linearizes at (eta, 0) to the upper
    triangular matrix [[eta, eps eta (alpha-eta)/(p-1)], [0, N-eta]] with
    eigenvectors (1, 0) and (eps eta (alpha-eta)/(p-1), N - 2 eta).

    p > N: (eta, 0) is a saddle; the unique unstable orbit with psi < 0
    is T_u.  p < N: (eta, 0) is a source and the family is infinite; the
    canonical member launches along the bisector of the two unit
    eigendirections into {zeta > eta, psi > 0}.  The result is normalized
    by a tau translation so that c = 1.
    """
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)
    eta = dc.eta
    if eta == 0.0:
        raise ParameterError("p = N has no harmonic-type orbit (eta = 0); "
                             "use the flat-limit family instead")

    v2 = np.array([eps * eta * (al - eta) / (p - 1.0), N - 2.0 * eta])
    if abs(v2[1]) < 1e-12 * max(1.0, abs(v2[0])):
        v2 = np.array([0.0, 1.0])  # equal-eigenvalue degeneracy

    if eta < 0.0:  # p > N: saddle, unstable direction with psi < 0
        kind = "T_u"
        step = _unit(v2 * (-math.copysign(1.0, v2[1])))
    else:  # p < N: source; canonical = bisector into the first quadrant side
        kind = "T_eta"
        u1 = np.array([1.0, 0.0])
        u2 = _unit(v2 * math.copysign(1.0, v2[1]))
        step = _unit(u1 + u2)

    y_hand = _y_handoff(params, grow=False)
    q_hand = y_hand ** (p - 2.0)

    def handoff(t, u):
        return 1.0 / (u[1] * np.sign(u[0]) * abs(u[0]) ** (p - 1.0)) - q_hand
    handoff.direction = -1

    def run_launch(delta):
        u0 = (eta + delta * step[0], delta * step[1])
        return u0, _chart_phase("P", u0, params, cfg, (0.0, 80.0), handoff,
                                max_step=0.25)

    u0, sol = run_launch(offset)
    t_sw = float(sol.t_events[0][0])
    usw = sol.y_events[0][0]
    meta: dict = {"kind": kind, "offset": offset, "launch_chart": "P",
                  "launch_coords": tuple(u0), "c": 1.0}
    if consistency_check:
        _, sol_h = run_launch(offset / 2.0)
        uh = sol_h.y_events[0][0]
        meta["offset_consistency"] = float(np.hypot(*(usw - uh)))

    mask = sol.t < t_sw
    z_arr = np.append(sol.y[0][mask], usw[0])
    ps_arr = np.append(sol.y[1][mask], usw[1])
    t_arr = np.append(sol.t[mask], t_sw)
    ok, y_arr, Y_arr = _lift_P(z_arr, ps_arr, p)
    z_arr, ps_arr, t_arr = z_arr[ok], ps_arr[ok], t_arr[ok]
    y_arr, Y_arr = y_arr[ok], Y_arr[ok]

    # c = lim y e^{(gamma+eta) tau}; the drift is d/dtau ln(.) = eta - zeta,
    # integrable over the launch tail: for the saddle it sums to
    # (zeta0 - eta)/(N - eta) + O(offset^2)
    c_raw = float(y_arr[0]) * math.exp((dc.gamma + eta) * float(t_arr[0]))
    if eta < 0.0:
        c_raw *= math.exp((float(z_arr[0]) - eta) / (N - eta))
    meta["c_raw"] = c_raw

    s_traj = integrate_s(PhaseState(float(t_arr[-1]), float(y_arr[-1]), float(Y_arr[-1])),
                         params, direction=1, config=cfg, tau_span=tau_span)
    traj = _compose(params, t_arr[:-1], y_arr[:-1], Y_arr[:-1], [], s_traj, meta)
    traj.shift_tau(-math.log(c_raw) / (dc.gamma + eta))
    return traj


# ---------------------------------------------------------------------------
# T_plus / T_minus (p >= N)


def _flat_chart_ode_pN(params: ProblemParams, k: float):
    """p = N corner chart: V = psi e^{N/zeta} zeta -> k^{2-p} as tau -> -inf;
    V as a graph over zeta solves a scalar ODE whose right side vanishes to
    all orders at zeta = 0+ (extended by 0 for zeta <= 0)."""
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    def G(zeta, V):
        V = float(V[0]) if np.ndim(V) else float(V)
        if zeta <= 0.0:
            return 0.0
        E = math.exp(-N / zeta)
        if E == 0.0:
            return 0.0
        num = -eps * (al - zeta) * (N + (N - 2.0) * zeta) * V * V * E / ((N - 1.0) * zeta * zeta)
        den = zeta * zeta + eps * (al - zeta) * V * E / (N - 1.0)
        return num / den

    return G


def _flat_chart_ode_pgtN(params: ProblemParams, c1: float):
    """p > N corner chart: v = c (|c|^{p-2} c psi)^{1/kappa} / zeta -> 1;
    v as a graph over zeta solves dv/dzeta = H(zeta, v)."""
    p, al, eps = params.p, params.alpha, params.epsilon
    dc = derive_constants(params)
    eta = dc.eta
    kap = params.N / abs(eta)

    def H(zeta, v):
        v = float(v[0]) if np.ndim(v) else float(v)
        W = abs(c1) ** (1.0 - p - kap) * abs(zeta) ** (kap - 1.0) * v ** kap
        num = (p - 1.0) * (kap + 1.0) - (kap + p - 1.0) * eps * (zeta - al) * W
        den = (p - 1.0) * (zeta - eta) + eps * (al - zeta) * W * zeta
        return -(v / kap) * num / den

    return H, kap


def _run_flat_launch_pgtN(params: ProblemParams, c1: float, tau0: float,
                          cfg: IntegrationConfig):
    """Integrate the p > N corner chart to zeta0 = c1 e^{|eta| tau0}, lift
    to the (zeta, psi) chart, and integrate the projective field a short
    way to measure the r -> 0 limits (a1, c1_meas)."""
    dc = derive_constants(params)
    p = params.p
    eta = dc.eta
    H, kap = _flat_chart_ode_pgtN(params, c1)
    zeta0 = c1 * math.exp(abs(eta) * tau0)
    sol_v = solve_ivp(H, (0.0, zeta0), [1.0], method="RK45",
                      rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14))
    if not sol_v.success:
        raise IntegrationError("flat-limit corner chart integration failed")
    v0 = float(sol_v.y[0, -1])
    W0 = abs(c1) ** (1.0 - p - kap) * abs(zeta0) ** (kap - 1.0) * v0 ** kap
    psi0 = W0 * zeta0
    return zeta0, psi0


def _measure_flat_limits(t_arr, y_arr, Y_arr, params: ProblemParams):
    """(a, c) limits measured at the smallest-r samples: a from
    w + (c/|eta|) r^{|eta|} (the exact first-order tail), c from
    -r^{eta+1} w'."""
    dc = derive_constants(params)
    p = params.p
    eta = dc.eta
    r = math.exp(float(t_arr[0]))
    w = r ** dc.gamma * float(y_arr[0])
    dw = -(r ** (dc.gamma - 1.0)) * float(phi_Y(float(Y_arr[0]), p))
    c_meas = -(r ** (eta + 1.0)) * dw
    a_meas = w + (c_meas / abs(eta)) * r ** abs(eta)
    return a_meas, c_meas


def shoot_T_pm(params: ProblemParams, a: float = 1.0, c: float = 1.0,
               config: Optional[IntegrationConfig] = None,
               *, offset: float = DEFAULT_OFFSET,
               tau_span: Optional[float] = None) -> Trajectory:
    """Construct the flat-limit orbit for p >= N.

    p = N: the family is parameterized by k = a > 0 and satisfies
    w/|ln r| -> k and r w' -> -k as r -> 0.  The corner chart
    V = psi e^{N/zeta} zeta has V -> k^{2-p}; V as a graph over zeta is a
    regular scalar ODE, integrated from zeta = 0 to zeta0 = -1/tau0, and
    the launch time tau0 = -1/zeta0 calibrates the logarithm.

    p > N: the family satisfies w -> a and -r^{(N-1)/(p-1)} w' -> c; the
    corner chart v(zeta) with v(0) = 1 realizes one member per chart
    parameter c1, and a tau translation (the scaling map) adjusts (a, c)
    along the one-parameter orbit family: c scales as mu^{1 - |eta|/gamma}
    when a scales as mu.  A short fixed-point iteration on c1 meets both
    requested limits.
    """
    if params.p < params.N:
        raise ParameterError("the flat-limit family requires p >= N")
    if not (a > 0.0):
        raise ParameterError("the flat-limit family requires a > 0")
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, N = params.p, float(params.N)

    y_hand = 1e3
    q_hand = y_hand ** (p - 2.0)

    def handoff(t, u):
        return 1.0 / (u[1] * np.sign(u[0]) * abs(u[0]) ** (p - 1.0)) - q_hand
    handoff.direction = -1

    if params.p == params.N:
        k = a
        tau0 = -18.0
        zeta0 = -1.0 / tau0
        G = _flat_chart_ode_pN(params, k)
        sol_v = solve_ivp(G, (0.0, zeta0), [k ** (2.0 - p)], method="RK45",
                          rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14))
        if not sol_v.success:
            raise IntegrationError("flat-limit corner chart integration failed")
        V0 = float(sol_v.y[0, -1])
        psi0 = V0 * math.exp(-N / zeta0) / zeta0
        u0 = (zeta0, psi0)
        sol = _chart_phase("P", u0, params, cfg, (tau0, tau0 + 80.0), handoff,
                           max_step=0.25)
        meta: dict = {"kind": "T_plus", "k": k, "offset": offset,
                      "launch_chart": "P", "launch_coords": u0}
        shift = 0.0
    else:
        eta = dc.eta
        tau0 = -16.0
        if c == 0.0:
            raise ParameterError("the p > N flat-limit family requires c != 0")
        # fixed point on the chart parameter: the scaling map ties the two
        # measured limits as c ~ mu^{1 - |eta|/gamma} c1 when a ~ mu a1
        expo = 1.0 - abs(eta) / dc.gamma
        c1 = c
        a1 = a
        for _ in range(6):
            zeta0, psi0 = _run_flat_launch_pgtN(params, c1, tau0, cfg)
            sol_pre = solve_ivp(lambda t, u: field("P", u, params),
                                (tau0, tau0 + 2.0), [zeta0, psi0], method="RK45",
                                rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14))
            okp, yp, Yp = _lift_P(sol_pre.y[0][:1], sol_pre.y[1][:1], p)
            a1, c1_meas = _measure_flat_limits(sol_pre.t[:1], yp, Yp, params)
            c1_new = c * (a1 / a) ** expo * (c1 / c1_meas)
            if abs(c1_new - c1) <= 1e-12 * abs(c1):
                c1 = c1_new
                break
            c1 = c1_new
        zeta0, psi0 = _run_flat_launch_pgtN(params, c1, tau0, cfg)
        u0 = (zeta0, psi0)
        sol = _chart_phase("P", u0, params, cfg, (tau0, tau0 + 80.0), handoff,
                           max_step=0.25)
        meta = {"kind": "T_plus" if c > 0.0 else "T_minus", "a": a, "c": c,
                "offset": offset, "launch_chart": "P", "launch_coords": u0,
                "chart_parameter": c1}
        mu = a / a1
        shift = math.log(mu) / dc.gamma

    t_sw = float(sol.t_events[0][0])
    usw = sol.y_events[0][0]
    mask = sol.t < t_sw
    z_arr = np.append(sol.y[0][mask], usw[0])
    ps_arr = np.append(sol.y[1][mask], usw[1])
    t_arr = np.append(sol.t[mask], t_sw)
    ok, y_arr, Y_arr = _lift_P(z_arr, ps_arr, p)
    t_arr = t_arr[ok]
    y_arr, Y_arr = y_arr[ok], Y_arr[ok]

    s_traj = integrate_s(PhaseState(float(t_arr[-1]), float(y_arr[-1]), float(Y_arr[-1])),
                         params, direction=1, config=cfg, tau_span=tau_span)
    traj = _compose(params, t_arr[:-1], y_arr[:-1], Y_arr[:-1], [], s_traj, meta)
    if shift:
        traj.shift_tau(shift)
    return traj


# ---------------------------------------------------------------------------
# dispatch


def shoot(spec: SpecialTrajectorySpec, params: ProblemParams,
          config: Optional[IntegrationConfig] = None, **kwargs) -> Trajectory:
    """Dispatch a :class:`SpecialTrajectorySpec` to its construction."""
    kind = spec.kind
    if kind == "T_r":
        a = spec.extra[0] if spec.extra else 1.0
        return shoot_regular(params, config, a=a, offset=spec.offset, **kwargs)
    if kind == "T_eps":
        r_bar = spec.extra[0] if spec.extra else 1.0
        return shoot_double_zero(params, r_bar, config, offset=spec.offset, **kwargs)
    if kind == "T_alpha":
        return shoot_T_alpha(params, config, offset=spec.offset, **kwargs)
    if kind in ("T_eta", "T_u"):
        traj = shoot_T_eta_or_u(params, config, offset=spec.offset, **kwargs)
        if traj.meta["kind"] != kind:
            raise ParameterError(
                f"{kind} is inadmissible here: the regime provides {traj.meta['kind']}")
        return traj
    # T_plus / T_minus
    a = spec.extra[0] if len(spec.extra) > 0 else 1.0
    c = spec.extra[1] if len(spec.extra) > 1 else (1.0 if kind == "T_plus" else -1.0)
    if kind == "T_minus" and c > 0.0:
        raise ParameterError("T_minus requires c < 0")
    if kind == "T_plus" and c < 0.0:
        raise ParameterError("T_plus requires c > 0")
    return shoot_T_pm(params, a, c, config, offset=spec.offset, **kwargs)
