"""Global phase-plane analysis: stationary points, asymptotic labels,
zero counting, limit cycles, the homoclinic connection function, the
critical similarity exponent, and the regime classifier.

The planar reduction has at most three stationary points: the origin
(where the field is non-Lipschitz, hence never linearized) and, when
eps (gamma + alpha) < 0, the pair +-M_ell carrying the flat profiles
w = +- ell r^gamma.  The linearization at M_ell has the characteristic
polynomial

    lambda^2 + (2 gamma + N + nu(alpha)) lambda + p'(N + gamma) = 0,

with positive constant term: M_ell is never a saddle, and its type is
decided by the trace and the discriminant alone.

A trajectory tail is labeled through the slope pair (zeta, sigma) =
(-r w'/w, Y/y), whose possible limits form a short list of points and
vertical lines; each label is re-verified against the logarithmic slope
of the profile (d ln|w| / d ln r -> -zeta).

The homoclinic connection is detected by shooting in the rescaled
inverse-slope chart R_beta (g, S) on its slope dS/dg, one field text
(``systems._SLOPE_TEXT``): the connection function phi(alpha) is the
signed gap, on the line {g = 1/gamma}, between the orbit leaving the
double-zero point and the orbit entering the algebraic-decay point.  The
double-zero orbit runs on the scalar Dormand-Prince stepper of
``plap.integrate``, the stiff decay orbit on LSODA, each from a computed
point of its manifold's series, either may end on the stationary point
L' of the section, and the two share one budget of ``max_steps`` rhs
evaluations.  phi is strictly decreasing and its root is alpha_c.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .params import (
    DerivedConstants,
    ParameterError,
    ProblemParams,
    derive_constants,
    m_ell_point,
)
from .integrate import (
    NEAR_ORIGIN,
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    _BudgetExhausted,
    _SEvent,
    _event_values,
    _new_stats,
    _rk45_segment,
    integrate_s,
)
from .systems import (_R_TEXT, _SLOPE_TEXT, PhaseState, _decay_manifold, _double_zero_manifold,
                      _manifold_reach, _rhs, _series, phi_Y)
from . import trajectories as traj_mod


class AnalysisError(RuntimeError):
    """A detector or shooting run left its admissible region."""


class BracketError(AnalysisError):
    """The connection function had equal signs at both bracket ends."""


LOCAL_TYPES = (
    "saddle",
    "sink_node",
    "sink_spiral",
    "source_node",
    "source_spiral",
    "weak_source",
    "center_like",
)

# ---------------------------------------------------------------------------
# stationary points


@dataclass(frozen=True)
class StationaryPointInfo:
    """Classification record for one stationary point of the (y, Y) plane."""

    point_id: str  # "origin", "M_ell", "minus_M_ell"
    location: tuple[float, float]
    eigenvalues: Optional[tuple[complex, complex]]
    local_type: str
    eigenvectors: Optional[tuple[tuple[float, float], tuple[float, float]]] = None

    def __post_init__(self) -> None:
        if self.local_type not in LOCAL_TYPES:
            raise ValueError(f"unknown local type {self.local_type!r}")


def _m_ell_eigen(params: ProblemParams):
    """Eigenvalues and eigenvectors of the linearization at M_ell.

    The characteristic polynomial is lambda^2 + (2 gamma + N + nu) lambda
    + p'(N + gamma); the linearization matrix in the translated frame is
    [[-gamma, -eps nu], [eps alpha, -(gamma + N + nu)]].
    """
    dc = derive_constants(params)
    nu = dc.nu_alpha
    if nu is None:
        raise AnalysisError("no linearization at alpha = -gamma")
    N, eps = float(params.N), float(params.epsilon)
    trace = -(2.0 * dc.gamma + N + nu)
    det = dc.p_prime * (N + dc.gamma)
    lam = np.roots([1.0, -trace, det])
    # order by real part, ascending
    lam = sorted((complex(l) for l in lam), key=lambda z: (z.real, z.imag))
    l1, l2 = lam
    e1 = (-eps * nu, (l1 + dc.gamma).real)
    e2 = (eps * nu, (-dc.gamma - l2).real)
    return (l1, l2), (e1, e2), trace, dc.discriminant_Delta


def classify_stationary_points(params: ProblemParams) -> list[StationaryPointInfo]:
    """List and classify the stationary points of the planar system.

    The origin is always present and reported ``center_like`` with no
    eigendata (the field is only Hölder there).  The pair +-M_ell exists
    iff eps (gamma + alpha) < 0; its type follows from the trace
    -(2 gamma + N + nu(alpha)) and the discriminant (node vs spiral).
    """
    dc = derive_constants(params)
    out = [StationaryPointInfo("origin", (0.0, 0.0), None, "center_like")]
    m = m_ell_point(params)
    if m is None:
        return out
    (l1, l2), (e1, e2), trace, delta = _m_ell_eigen(params)
    if params.epsilon == -1 and params.alpha == dc.alpha_star:
        local = "weak_source"
    else:
        spiral = delta is not None and delta < 0.0
        if trace < 0.0:
            local = "sink_spiral" if spiral else "sink_node"
        else:
            local = "source_spiral" if spiral else "source_node"
    for pid, sign in (("M_ell", 1.0), ("minus_M_ell", -1.0)):
        out.append(StationaryPointInfo(pid, (sign * m[0], sign * m[1]),
                                       (l1, l2), local, (e1, e2)))
    return out


# ---------------------------------------------------------------------------
# zero counting


def count_sign_changes(trajectory: Trajectory, window=None) -> int:
    """Number of strict sign changes of y over a tau window (default: the
    whole trajectory).

    Every zero of y on an S orbit is a ``y_zero_crossing`` event of the
    integrator (launch samples lift only to y > 0); this counts the events
    in the window.
    """
    if window is None:
        lo, hi = float(np.min(trajectory.tau)), float(np.max(trajectory.tau))
    else:
        lo, hi = sorted(map(float, window))
    return sum(1 for ev in trajectory.events
               if ev.kind == "y_zero_crossing" and lo <= ev.time <= hi)


# ---------------------------------------------------------------------------
# asymptotic labels


_TAIL_FRAC = 0.2    # share of the tau span a tail label reads
_MATCH_TOL = 1e-3   # distance to a slope-pair limit that counts as a match
_FIT_TOL = 0.01     # relative error allowed in the fitted log slope


def _tail_window(trajectory: Trajectory):
    """Sample mask for the terminal ``_TAIL_FRAC`` of the tau span, in the
    trajectory's integration direction."""
    tau = np.asarray(trajectory.tau, dtype=float)
    d = trajectory.direction
    t_end = tau[-1]
    span = abs(tau[-1] - tau[0])
    width = max(_TAIL_FRAC * span, 1e-12)
    return d * (tau - t_end) >= -width


def _slope_fit(trajectory: Trajectory, mask) -> Optional[float]:
    """Least-squares fit of d ln|w| / d tau over the masked samples."""
    dc = derive_constants(trajectory.params)
    tau = np.asarray(trajectory.tau, dtype=float)[mask]
    y = trajectory.ys[0][mask]
    good = np.abs(y) > 0.0
    if np.count_nonzero(good) < 3 or np.ptp(tau[good]) <= 0.0:
        return None
    lw = dc.gamma * tau[good] + np.log(np.abs(y[good]))
    return float(np.polyfit(tau[good], lw, 1)[0])


def asymptotic_label(trajectory: Trajectory, params: ProblemParams) -> str:
    """Label the terminal end of a trajectory by its slope-pair limit.

    The tail window is the last 20% of the tau span.  Candidate limits of
    (zeta, sigma) = (-r w'/w, Y/y):

    * A_gamma  = (-gamma, eps(alpha+gamma)/(N+gamma))  -- flat profile,
      the slope pair at +-M_ell;
    * A_r      = (0, eps alpha/N)                      -- regular end;
    * A_alpha  = (alpha, 0)                            -- algebraic decay;
    * L_eta    = zeta -> eta with |sigma| -> infinity  (p != N);
    * L_plus / L_minus = zeta -> 0 with sigma -> +-infinity (p >= N / p > N).

    A point match (within ``_MATCH_TOL``) is re-verified against the fitted
    logarithmic slope d ln|w| / d ln r, which must equal -zeta within
    ``_FIT_TOL`` relative to max(1, |zeta|).  Oscillating tails (sign
    changes of y) are labeled ``oscillating_sign``; constant-sign
    non-convergent bounded tails around a flat point are labeled
    ``cycle``; ``escape``, ``M_ell``, ``minus_M_ell`` (``A_gamma`` when
    the slope fits) and ``origin`` name the end of a terminated orbit, the
    last also of an ``origin_flagged`` one within ``NEAR_ORIGIN``.  If no
    detector fires the label is ``undetermined``.
    """
    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, float(params.epsilon), float(params.N)

    if trajectory.termination == "escape":
        return "escape"

    mask = _tail_window(trajectory)
    tau = np.asarray(trajectory.tau, dtype=float)[mask]
    y = trajectory.ys[0][mask]
    Y = trajectory.ys[1][mask]
    if tau.size < 3:
        return "undetermined"

    # oscillation: sign changes of y inside the tail window
    n_flips = count_sign_changes(trajectory, (float(tau[0]), float(tau[-1])))
    if n_flips >= 3:
        return "oscillating_sign"

    good = np.abs(y) > 0.0
    if np.count_nonzero(good) < 3:
        return "undetermined"
    zeta = np.asarray(phi_Y(Y[good], p)) / y[good]
    sigma = Y[good] / y[good]
    z_end, s_end = float(zeta[-1]), float(sigma[-1])
    z_spread = float(np.ptp(zeta[-max(3, zeta.size // 4):]))
    converged = z_spread <= 10.0 * _MATCH_TOL

    slope = _slope_fit(trajectory, mask)

    def fit_ok(z_target: float) -> bool:
        if slope is None:
            return False
        return abs(slope - (-z_target)) <= _FIT_TOL * max(1.0, abs(z_target))

    # point targets, checked nearest-first
    targets = [
        ("A_gamma", -dc.gamma, eps * (al + dc.gamma) / (N + dc.gamma)),
        ("A_r", 0.0, eps * al / N),
        ("A_alpha", al, 0.0),
    ]
    if converged:
        for name, zt, st in targets:
            if abs(z_end - zt) <= _MATCH_TOL and abs(s_end - st) <= _MATCH_TOL:
                if fit_ok(zt):
                    return name
    # vertical-line targets: zeta convergent, |sigma| divergent
    sig_grow = abs(s_end) > 10.0 and abs(s_end) > 2.0 * abs(float(sigma[0]))
    if converged and sig_grow:
        if dc.eta != 0.0 and abs(z_end - dc.eta) <= _MATCH_TOL and fit_ok(dc.eta):
            return "L_eta"
        if abs(z_end) <= _MATCH_TOL and fit_ok(0.0):
            if p >= N and s_end > 0.0:
                return "L_plus"
            if p > N and s_end < 0.0:
                return "L_minus"

    if trajectory.termination == "captured:origin":
        return "origin"
    if trajectory.termination == "captured:M_ell":
        return "A_gamma" if fit_ok(-dc.gamma) else "M_ell"
    if trajectory.termination == "captured:minus_M_ell":
        return "A_gamma" if fit_ok(-dc.gamma) else "minus_M_ell"
    if math.hypot(float(y[-1]), float(Y[-1])) <= NEAR_ORIGIN and \
            trajectory.termination == "origin_flagged":
        return "origin"

    # constant-sign bounded non-convergent tail: cycling around a flat point
    m = m_ell_point(params)
    if m is not None and not converged and n_flips == 0:
        r_m = np.hypot(np.abs(y[good]) - m[0], np.abs(Y[good]) - abs(m[1]))
        if float(np.max(r_m)) < 1e6 and np.count_nonzero(np.diff(np.sign(
                np.abs(y[good]) - m[0]))) >= 4:
            return "cycle"
    return "undetermined"


# ---------------------------------------------------------------------------
# limit cycles


@dataclass
class CycleInfo:
    """A detected limit cycle.

    ``section`` describes the Poincaré section; ``fixed_point`` is the
    section coordinate of the cycle (Y at the crossing); ``orbit`` holds
    one sampled period as a (2, n) array; ``floquet_mean`` is the mean
    divergence of the field over one period in forward time, ln P'(x*) /
    ``period_tau`` by Liouville's formula, with the return map's slope
    P'(x*) taken from two event returns (negative for a cycle that
    attracts in forward time).
    """

    section: str
    fixed_point: float
    period_tau: float
    orbit: np.ndarray
    stability: str  # "attracting" | "repelling" | "undetermined"
    floquet_mean: float
    meta: dict = dc_field(default_factory=dict)


def _section_crossings(trajectory: Trajectory, params: ProblemParams,
                       center: str):
    """(tau_k, Y_k) of the oriented section crossings along a trajectory.

    center "origin": section = positive Y-axis, crossed once per loop
    (the field has y' = -phi(Y) < 0 there).  center "M_ell" /
    "minus_M_ell": section = vertical ray below the flat point
    {|y| = ell, |Y| > (gamma ell)^{p-1}}, also crossed once per loop.
    """
    tau = np.asarray(trajectory.tau, dtype=float)
    y = trajectory.ys[0]
    Y = trajectory.ys[1]
    d = trajectory.direction
    out_t: list[float] = []
    out_Y: list[float] = []
    if center == "origin":
        level = y
        cond = lambda Yc: Yc > 0.0
    else:
        m = m_ell_point(params)
        if m is None:
            return np.array([]), np.array([])
        sgn = 1.0 if center == "M_ell" else -1.0
        level = y - sgn * m[0]
        Y_m = sgn * m[1]
        cond = lambda Yc: (Yc - Y_m) * sgn < 0.0
    s = np.sign(level)
    for i in range(level.size - 1):
        if s[i] * s[i + 1] < 0.0:
            f = level[i] / (level[i] - level[i + 1])
            Yc = float(Y[i] + f * (Y[i + 1] - Y[i]))
            if cond(Yc):
                out_t.append(float(tau[i] + f * (tau[i + 1] - tau[i])))
                out_Y.append(Yc)
    order = np.argsort(d * np.asarray(out_t)) if out_t else np.array([], dtype=int)
    return np.asarray(out_t)[order], np.asarray(out_Y)[order]


def _return_map(Y_sec: float, params: ProblemParams, center: str,
                direction: int, cfg: IntegrationConfig,
                period_guess: float):
    """One Poincaré return from the section point; returns
    (Y_next, period, trajectory).

    The orbit ends after the step in which it next crosses the section
    line the way it left it.  Its samples are a prefix of the orbit over
    the whole span, so the first chord return is the same; when the
    prefix holds none (the event and the chord's Y test disagree), the
    whole span is integrated."""
    if center == "origin":
        start = PhaseState(0.0, 0.0, Y_sec)
    else:
        m = m_ell_point(params)
        sgn = 1.0 if center == "M_ell" else -1.0
        start = PhaseState(0.0, sgn * m[0], Y_sec)
    span = min(max(4.0 * period_guess, 10.0), cfg.max_time_span)

    def returns(**section):
        traj = integrate_s(start, params, direction=direction, config=cfg,
                           capture=False, tau_span=span, **section)
        t_k, Y_k = _section_crossings(traj, params, center)
        # drop the departure crossing itself
        sel = np.abs(direction * t_k) > 1e-9
        return t_k[sel], Y_k[sel], traj

    t_k, Y_k, traj = returns(section_y=start.y)
    if t_k.size == 0 and traj.termination == "section":
        t_k, Y_k, traj = returns()
    if t_k.size == 0:
        raise AnalysisError("return map: no section return within the span")
    return float(Y_k[0]), abs(float(t_k[0])), traj


_REFINE_TOL = 1e-8  # relative residual of the polished return-map fixed point


def detect_limit_cycle(trajectory: Trajectory, params: ProblemParams,
                       config: Optional[IntegrationConfig] = None) -> Optional[CycleInfo]:
    """Detect a limit cycle from the tail of a trajectory.

    The Poincaré section is the positive Y-axis when the tail oscillates
    in sign (cycle around the origin), otherwise the vertical ray below
    the flat point on the tail's side.  At least 10 oriented section
    crossings are required; the return ordinates must approach a fixed
    point, which is then polished by secant iteration on the return map
    until one more return reproduces it within ``_REFINE_TOL``.  Two more
    returns, from x* -+ h with h = 1e-3 |x* - c| (c the center's ordinate
    on the section), each read at its ``section_crossing`` event, give the
    central difference P'(x*); by Liouville's formula (L. Perko,
    *Differential Equations and Dynamical Systems*, section 3.4) the mean
    divergence over one period is ln P'(x*) / T in the return map's
    direction.  Absence of a cycle, a return without a section event or
    P'(x*) <= 0 returns None.
    """
    cfg = config or IntegrationConfig()
    d = trajectory.direction
    n_flips = count_sign_changes(trajectory)
    if n_flips >= 3:
        center = "origin"
    else:
        m = m_ell_point(params)
        if m is None:
            return None
        tail_y = trajectory.ys[0][-1]
        center = "M_ell" if tail_y > 0.0 else "minus_M_ell"

    t_k, Y_k = _section_crossings(trajectory, params, center)
    if t_k.size < 10:
        return None
    # use the last crossings; they must be settling toward a fixed point
    Y_tail = Y_k[-6:]
    gaps = np.abs(np.diff(Y_tail))
    if gaps[-1] > 0.5 * float(np.max(np.abs(Y_tail))) and gaps[-1] > gaps[0]:
        return None
    period_guess = abs(float(t_k[-1] - t_k[-2]))

    # secant polish of the return-map fixed point
    x0 = float(Y_tail[-2])
    x1 = float(Y_tail[-1])
    try:
        r0, _, _ = _return_map(x0, params, center, d, cfg, period_guess)
        f0 = r0 - x0
        best = None
        for _ in range(30):
            r1, per, traj1 = _return_map(x1, params, center, d, cfg, period_guess)
            f1 = r1 - x1
            if abs(f1) <= _REFINE_TOL * max(1.0, abs(x1)):
                best = (x1, per, traj1)
                break
            if f1 == f0:
                break
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            x0, f0, x1 = x1, f1, x2
        if best is None:
            return None
        Y_fix, period, orbit_traj = best
        c = 0.0 if center == "origin" else (m[1] if tail_y > 0.0 else -m[1])
        h = 1e-3 * abs(Y_fix - c)
        ends = []  # the returns from x* -+ h, each read off its section event
        for x in (Y_fix - h, Y_fix + h):
            events = _return_map(x, params, center, d, cfg, period_guess)[2].events
            ends += [e.state.Y for e in events if e.kind == "section_crossing"][:1]
    except (AnalysisError, IntegrationError):
        return None
    if len(ends) < 2:
        return None
    slope = (ends[1] - ends[0]) / (2.0 * h)  # P'(x*) in direction d
    if not slope > 0.0:
        return None
    # Liouville: ln P'(x*) in forward time over the period is the mean
    # divergence of the field along the cycle; its sign decides
    # forward-time stability, whichever way the trajectory approached
    fl = d * math.log(slope) / period
    stability = "attracting" if fl < 0.0 else ("repelling" if fl > 0.0 else "undetermined")
    # one sampled period of the orbit
    orbit = orbit_traj.ys[:, d * np.asarray(orbit_traj.tau) <= period]
    section = ("positive Y-axis" if center == "origin"
               else f"vertical ray below {center}")
    return CycleInfo(section=section, fixed_point=Y_fix, period_tau=period,
                     orbit=orbit, stability=stability, floquet_mean=fl,
                     meta={"center": center, "crossings_seen": int(t_k.size),
                           "approach_direction": d})


# ---------------------------------------------------------------------------
# the connection function and the critical exponent


def _phi_shoot(params: ProblemParams, cfg: IntegrationConfig):
    """(S0, S1): section ordinates on the line {g = 1/gamma} of the two
    separatrix orbits of the rescaled inverse-slope chart.

    Chart R_beta's field (``systems._R_TEXT`` at b = beta) has dg/dnu =
    g F.  Both separatrix segments have F > 0 along them (the
    monotonicity lemma behind the uniqueness of the critical exponent), so
    g is strictly monotone up to the first section crossing and each orbit
    is the graph of the scalar ODE dS/dg = (dS/dnu) / (dg/dnu).
    Integrating in g avoids the arbitrarily slow rescaled-time traverse
    near the decay point.

    The double-zero separatrix leaves the saddle B' = (0, 1/beta) and is
    not stiff: the scalar Dormand-Prince stepper (``integrate._rk45_segment``)
    runs it in the time g from its unstable manifold's convergent series
    (``systems._double_zero_manifold``), and an error off the manifold
    shrinks like (g0/g)^(1/lam), lam = (p-2)/(p-1), on the way out.  The
    algebraic-decay separatrix enters
    A' along its center manifold, where F vanishes, so the transverse
    rate of the slope equation grows like 1/F and an explicit pair is
    held to steps of about 1e-6 by stability, not accuracy.  It is
    integrated with LSODA, which switches to BDF there, from the order-10
    manifold series (``systems._decay_manifold``) at up to 300 |x0| from A',
    x0 = 1e-3 (g_A - g_L), which spares LSODA most of the slow approach.
    The series is asymptotic, so that distance is computed (see below):
    the farthest point where its truncation is within ``cfg.rel_tol``.
    That is enough because the separatrix attracts in the direction of
    integration (an attracting slow manifold, the stiffness itself): a
    launch error reaches the section shrunk, to about 2 % of itself in the
    median and at most about 40 % near the ends of the alpha_c search
    intervals, where the approach is least stiff, so it stays below
    LSODA's own error at that tolerance.
    Both launch points must have F > 0: LSODA started where F <= 0 never
    leaves it.  Both legs run on chart R_beta's slope text
    (``systems._SLOPE_TEXT``): the stepper writes it into its loop, and
    LSODA calls its closure.

    Either leg may arrive at M_ell's image L' = (g_L, S_L), S_L = (1 +
    alpha/gamma) / (beta (1 + N/gamma)), a stationary point on the section,
    and then reads S_L.  The stepper's steps shrink to the float spacing
    near L', so the double-zero leg ends on its one event row, on entering
    the disc of radius 1e-9 around L' (at alpha_2 ends, p <= 2.2); about a
    focus L' it crosses the section inside that disc.  LSODA gives up on a
    decay leg converging into L' (on the tests' 408-draw grid, 4e-11 to
    4e-8 short of g_L, 1.5e-10 to 4.9e-6 from S_L), so a give-up within
    1e-5 of L' reads S_L (RK45 at rel_tol 1e-12 agrees within 7.5e-9).

    Both legs count their work in one ``_new_stats()`` record and together
    make at most ``cfg.max_steps`` rhs evaluations.  The stepper leg stops
    at a whole step: its attempts are capped at (max_steps - 2) // 6, so
    its 2 + 6 n evaluations stay within the bound, and LSODA gets what it
    leaves.  A launch off the admissible region, a degenerate A' (alpha =
    eta) or a budget exhausted in either leg raise :class:`AnalysisError`,
    the last naming the budget.
    """
    dc = derive_constants(params)
    al, N = params.alpha, float(params.N)
    if params.epsilon != -1:
        raise ParameterError("the connection function is defined for the "
                             "backward time direction (epsilon = -1)")
    if not (al < 0.0) or dc.beta <= 0.0:
        raise ParameterError("the connection function requires alpha < 0 < beta")
    g_L = 1.0 / dc.gamma
    g_A = 1.0 / abs(al)
    atol = min(cfg.abs_tol, 1e-13)
    beta, eta = dc.beta, dc.eta
    if al == eta:
        raise AnalysisError("the algebraic-decay point is degenerate at "
                            "alpha = eta: its center manifold has infinite "
                            "coefficients")

    slope = _rhs(params, _SLOPE_TEXT, beta)
    S_L = (1.0 + al / dc.gamma) / (beta * (1.0 + N / dc.gamma))
    chart = _rhs(params, _R_TEXT, beta)  # F > 0 where chart(g, S)[0] > 0
    stats = _new_stats()  # both legs' work, and their one budget

    def over_budget():
        return AnalysisError(
            f"connection function exceeded its budget of {cfg.max_steps} "
            f"rhs evaluations at alpha = {al}")

    # orbit leaving B' along S = 1/beta + sum c_k g^k, launched at the largest
    # g <= g_L/2 where |c_10 g^10| <= rel_tol |c_1 g|, never inside 1e-7
    c = _double_zero_manifold(params)
    reach = _manifold_reach(c, cfg.rel_tol)
    g0 = min(0.5 * g_L, reach) if reach >= 1e-7 else 1e-7
    S_start0 = 1.0 / beta + _series(c, g0)
    if not chart(g0, S_start0)[0] > 0.0:
        raise AnalysisError(
            "double-zero separatrix launches outside the admissible region F > 0")
    attempts = (cfg.max_steps - 2) // 6  # n attempts cost 2 + 6 n evaluations
    if attempts < 0:
        raise over_budget()
    at_L = (_SEvent("(y - gL) ** 2 + (Y - SL) ** 2 - 1e-18", -1, True),)
    try:
        seg = _rk45_segment(slope, g0, g_L, g0, S_start0, cfg.rel_tol, atol, math.inf,
                            at_L, *_event_values(at_L, gL=g_L, SL=S_L), stats, attempts)
    except _BudgetExhausted:
        raise over_budget() from None
    except IntegrationError:
        raise AnalysisError("double-zero separatrix left the admissible "
                            "region before the section") from None
    S0 = S_L if seg.terminal is not None else seg.Y[-1]

    # orbit entering A' = (1/|alpha|, 0) along S = sum m_k x^k, x = g - 1/|alpha|,
    # launched at the largest |x| <= 300 |x0| where |m_10 x^10| <= rel_tol
    # |m_1 x|, never inside |x0| (a nan or infinite m_10 gives |x0|)
    m, _ = _decay_manifold(params, beta)
    x0 = -1e-3 * (g_A - g_L)
    reach = _manifold_reach(m, cfg.rel_tol)
    x = x0 * (min(300.0, reach / -x0) if reach >= -x0 else 1.0)
    S_start1 = _series(m, x)
    if not chart(g_A + x, S_start1)[0] > 0.0:
        raise AnalysisError(
            "algebraic-decay separatrix launches outside the admissible region F > 0")

    def decay_slope(g, u):
        # LSODA gets what the stepper left of the budget
        if stats["rhs_evals"] >= cfg.max_steps:
            raise over_budget()
        stats["rhs_evals"] += 1
        return [slope(g, u.item())[1]]

    stats["segments"] += 1
    with warnings.catch_warnings():
        # LSODA warns before giving up; the failure is reported below
        warnings.simplefilter("ignore", UserWarning)
        sol1 = solve_ivp(decay_slope, (g_A + x, g_L), [S_start1], method="LSODA",
                         rtol=cfg.rel_tol, atol=atol)
    S1 = float(sol1.y[0, -1])
    if not sol1.success:
        if not math.hypot(sol1.t[-1] - g_L, S1 - S_L) <= 1e-5:
            raise AnalysisError(
                "algebraic-decay separatrix left the admissible region before the section")
        S1 = S_L
    return S0, S1


def phi_of_alpha(N: int, p: float, alpha: float,
                 config: Optional[IntegrationConfig] = None) -> float:
    """Signed gap phi(alpha) = S0 - S1 between the two separatrices on
    the section {g = 1/gamma} of the rescaled inverse-slope chart.

    phi is continuous and strictly decreasing on the critical bracket;
    phi > 0 means the double-zero orbit exits above the decay orbit
    (alpha below critical), phi < 0 the reverse, phi = 0 the homoclinic
    connection.
    """
    cfg = config or IntegrationConfig()
    params = ProblemParams(N=N, p=p, alpha=alpha, epsilon=-1)
    S0, S1 = _phi_shoot(params, cfg)
    return S0 - S1


@dataclass(frozen=True)
class AlphaCResult:
    """The critical exponent with its certified bracket."""

    value: float
    bracket: tuple[float, float]
    iterations: int
    phi_at_ends: tuple[float, float]
    method: str  # "closed_form" | "brent"


def critical_bracket(N: int, p: float) -> tuple[float, float]:
    """Open bracket (max(alpha_star, alpha_p), min(alpha_2, -p'))
    containing the critical exponent."""
    params = ProblemParams(N=N, p=p, alpha=-1.0, epsilon=-1)
    dc = derive_constants(params)
    lo = max(dc.alpha_star, dc.alpha_p)
    hi = -dc.p_prime
    if dc.alpha_2 is not None:
        hi = min(dc.alpha_2, hi)
    return lo, hi


def _search_interval(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) retreated inward by 1e-4 of its width at both ends, away
    from the degenerate endpoint dynamics: the only place phi is
    evaluated in the search for alpha_c."""
    retreat = 1e-4 * (hi - lo)
    return lo + retreat, hi - retreat


def find_alpha_c(N: int, p: float, tol: float = 1e-6,
                 config: Optional[IntegrationConfig] = None,
                 force_bisection: bool = False) -> AlphaCResult:
    """The unique alpha_c < 0 carrying a homoclinic orbit.

    For N = 1 the value is the closed form -(p-1)/(p-2) (returned
    exactly unless ``force_bisection``).  Otherwise the root of phi is
    found by Brent's method over the critical bracket, retreating inward
    by 1e-4 of the width to avoid the degenerate endpoint dynamics;
    equal signs at both ends raise :class:`BracketError` rather than
    widening silently.  Every phi evaluation is kept, and the result
    carries the tightest evaluated pair with phi > 0 > phi (width at
    most ``tol``) and its midpoint, or, when an evaluation hits
    phi = 0 exactly, that point as a bracket of width 0.
    """
    if not tol > 0.0:
        raise ParameterError(f"alpha_c tolerance must be positive, got {tol}")
    cfg = config or IntegrationConfig()
    lo, hi = critical_bracket(N, p)
    params = ProblemParams(N=N, p=p, alpha=-1.0, epsilon=-1)
    dc = derive_constants(params)
    if N == 1:
        if not force_bisection:
            return AlphaCResult(dc.alpha_p, (lo, hi), 0,
                                (math.nan, math.nan), "closed_form")
        # the one-dimensional root sits exactly at the lower bracket end;
        # extend the search bracket halfway down toward the Hopf value
        lo = 0.5 * (dc.alpha_star + dc.alpha_p)
    a, b = _search_interval(lo, hi)
    evals = {a: phi_of_alpha(N, p, a, cfg), b: phi_of_alpha(N, p, b, cfg)}
    fa, fb = evals[a], evals[b]
    if not (fa > 0.0 > fb):
        err = BracketError(
            f"connection function does not change sign on ({a}, {b}): "
            f"phi = ({fa}, {fb})")
        err.bracket = (a, b)
        err.phi_at_ends = (fa, fb)
        raise err

    def phi(alpha: float) -> float:
        if alpha not in evals:
            value = phi_of_alpha(N, p, alpha, cfg)
            if not math.isfinite(value):
                raise AnalysisError(f"connection function is {value} "
                                    f"at alpha = {alpha}")
            evals[alpha] = value
        return evals[alpha]

    try:
        brentq(phi, a, b, xtol=0.5 * tol)
    except RuntimeError as exc:
        raise AnalysisError(f"critical exponent search did not converge "
                            f"on ({a}, {b}): {exc}") from exc
    iterations = len(evals) - 2
    root = next((x for x, v in evals.items() if v == 0.0), None)
    if root is not None:  # brentq stops at an exact zero
        return AlphaCResult(root, (root, root), iterations, (0.0, 0.0),
                            "brent")
    # Brent's bracket only ever shrinks onto evaluated points, so its
    # final (phi > 0, phi < 0) ends are neighbours among the evaluations
    pts = sorted(evals.items())
    (a, fa), (b, fb) = min(
        ((u, v) for u, v in zip(pts, pts[1:]) if u[1] > 0.0 > v[1]),
        key=lambda uv: uv[1][0] - uv[0][0])
    return AlphaCResult(0.5 * (a + b), (a, b), iterations, (fa, fb), "brent")


# ---------------------------------------------------------------------------
# regime classification


@dataclass
class RegimeReport:
    """Everything the theorem for the active (eps, alpha) range asserts
    that a finite run can check."""

    params: ProblemParams
    constants: DerivedConstants
    theorem_tag: str
    stationary_points: list[StationaryPointInfo]
    trajectories: dict  # kind -> digest dict
    cycles: list[CycleInfo]
    checks: list[tuple[str, str]]  # (description, "pass"|"fail"|"untested")
    phi_value: Optional[float] = None
    alpha_c_bracket: Optional[tuple[float, float]] = None

    def passed(self) -> bool:
        return all(status != "fail" for _, status in self.checks)


_ALPHA_C_TOL = 1e-6  # half-width of the clin band around alpha_c


def theorem_tag(params: ProblemParams) -> str:
    """The case of the global classification governing (eps, alpha).

    eps = +1 splits at -gamma (pin above, mel below); eps = -1 splits at
    -gamma (osc at or below), 0 (int above), -p' (pom in [-p', 0)), and
    on (-gamma, -p') at alpha_star (sou), alpha_c (orb below, clin
    within ``_ALPHA_C_TOL``, ent above).  N = 1 uses the closed form of
    alpha_c and N >= 2 the sign of the decreasing connection function:
    phi(alpha) gives the side of alpha_c, and one more evaluation at
    alpha -+ ``_ALPHA_C_TOL`` decides clin.
    """
    return _tag_and_phi(params, IntegrationConfig())[0]


def _tag_and_phi(params: ProblemParams,
                 cfg: IntegrationConfig) -> tuple[str, Optional[float]]:
    """:func:`theorem_tag` and, when deciding it took one, phi(alpha)."""
    dc = derive_constants(params)
    al = params.alpha
    if params.epsilon == 1:
        return ("pin" if al >= -dc.gamma else "mel"), None
    if al <= -dc.gamma:
        return "osc", None
    if al > 0.0:
        return "int", None
    if al >= -dc.p_prime:
        return "pom", None
    if al <= dc.alpha_star:
        return "sou", None
    if params.N == 1:
        if abs(al - dc.alpha_p) <= _ALPHA_C_TOL:
            return "clin", None
        return ("orb" if al < dc.alpha_p else "ent"), None
    # phi is evaluated only where find_alpha_c evaluates it, in the
    # search interval that holds alpha_c; nearer the bracket ends a
    # separatrix can miss the section.  A neighbour beyond the interval
    # is clamped to its end, which decides clin the same way by
    # monotonicity.
    a, b = _search_interval(*critical_bracket(params.N, params.p))
    if not a < al < b:
        return ("orb" if al <= a else "ent"), None
    phi = phi_of_alpha(params.N, params.p, al, cfg)
    if phi > 0.0:
        right = min(al + _ALPHA_C_TOL, b)
        near = phi_of_alpha(params.N, params.p, right, cfg) <= 0.0
        return ("clin" if near else "orb"), phi
    if phi < 0.0:
        left = max(al - _ALPHA_C_TOL, a)
        near = phi_of_alpha(params.N, params.p, left, cfg) >= 0.0
        return ("clin" if near else "ent"), phi
    return "clin", phi


class _Theorem(NamedTuple):
    """A row of the clause table.  A clause (text, read, test[, applies])
    is graded where ``applies(params)`` holds: ``test`` decides it from an
    orbit's digest, the cycle searched for from an orbit (None if none
    was found) or, when ``read`` is None, the report.  A failed orbit or
    a None result leaves it untested."""

    shoots: tuple  # orbits shot beyond T_r and T_eps
    cycles: tuple  # (orbit, source) pairs searched for a limit cycle
    clauses: tuple  # in report order
    phi: bool = False  # the report carries phi(alpha)
    bracket: bool = False  # the report carries the critical bracket


_FOUND = lambda cyc: cyc is not None
_BUILT = lambda d: True
_NO_ZERO = lambda d: d["sign_changes"] == 0
_TO_FLAT = lambda d: d["label"] in ("A_gamma", "M_ell")
_OSCILLATES = lambda d: d["label"] == "oscillating_sign"


def _m_ell_is(*types: str) -> Callable:
    return lambda r: any(sp.point_id == "M_ell" and sp.local_type in types
                         for sp in r.stationary_points)


def _zeros_at_most(n: int) -> Callable:
    def test(r):
        zeros = [d["sign_changes"] for d in r.trajectories.values() if "error" not in d]
        return all(z <= n for z in zeros) if zeros else None
    return test


_THEOREMS = {
    "pin": _Theorem((), (), (
        ("regular orbit keeps a strict constant sign", "T_r", _NO_ZERO,
         lambda pr: pr.alpha < pr.N),
        ("regular orbit keeps a strict constant sign with compact support", "T_r",
         lambda d: _NO_ZERO(d) and d["termination"] == "captured:origin",
         lambda pr: pr.alpha == pr.N),
        ("regular orbit has at least one simple zero", "T_r",
         lambda d: d["sign_changes"] >= 1, lambda pr: pr.alpha > pr.N),
        ("compact-support orbit constructed", "T_eps", _BUILT),
        ("no stationary pair off the origin", None, lambda r: r.constants.ell is None),
    )),
    "mel": _Theorem(("T_alpha",), (), (
        ("regular orbit keeps a strict constant sign", "T_r", _NO_ZERO),
        ("regular orbit approaches the flat profile", "T_r", _TO_FLAT),
        ("algebraic-decay orbit approaches the flat profile", "T_alpha", _TO_FLAT),
        ("every orbit has at most one simple zero", None, _zeros_at_most(1)),
    )),
    "osc": _Theorem((), (("T_r", "O_r"), ("T_eps", "O_eps")), (
        ("regular orbit oscillates in sign", "T_r", _OSCILLATES),
        ("regular orbit has a limit cycle around the origin", "O_r", _FOUND),
        ("compact-support orbit has a limit cycle (unique hole solution)", "O_eps",
         _FOUND),
        ("detected cycles attract in forward time", None,
         lambda r: all(c.floquet_mean <= 1e-6 for c in r.cycles) if r.cycles else None),
    )),
    "int": _Theorem(("T_alpha",), (), (
        ("regular orbit keeps a strict constant sign", "T_r", _NO_ZERO),
        ("regular orbit approaches the flat profile", "T_r", _TO_FLAT),
        ("hole orbit approaches the flat profile", "T_eps", _TO_FLAT),
        ("algebraic-decay orbit constructed", "T_alpha", _BUILT),
        ("flat point is a sink node", None, _m_ell_is("sink_node")),
    )),
    "pom": _Theorem(("T_alpha",), (), (
        ("regular orbit has exactly one simple zero", "T_r",
         lambda d: d["sign_changes"] == 1),
        ("hole orbit approaches the flat profile", "T_eps", _TO_FLAT),
        ("every orbit has at most two simple zeros", None, _zeros_at_most(2)),
        ("flat point is a sink", None, _m_ell_is("sink_node", "sink_spiral")),
    ), phi=True),
    "sou": _Theorem(("T_alpha",), (("T_r", "O_r"), ("T_eps", "O_eps")), (
        ("algebraic-decay orbit converges to the flat point backward", "T_alpha",
         _TO_FLAT),
        ("regular orbit oscillates in sign", "T_r", _OSCILLATES),
        ("regular orbit has a limit cycle around the origin", "O_r", _FOUND),
        ("hole orbit leaves the flat quadrant and cycles around the origin", "O_eps",
         _FOUND),
        ("flat point is a source or weak source", None,
         _m_ell_is("source_node", "source_spiral", "weak_source")),
    ), phi=True, bracket=True),
    "orb": _Theorem(("T_alpha",), (("T_alpha", "O_alpha"), ("T_eps", "O_eps")), (
        ("algebraic-decay orbit has a backward limit cycle around the flat point",
         "O_alpha", _FOUND),
        ("regular orbit oscillates in sign", "T_r", _OSCILLATES),
        ("hole orbit cycles around the origin", "O_eps", _FOUND),
        ("flat point is a sink", None, _m_ell_is("sink_node", "sink_spiral")),
    ), phi=True, bracket=True),
    "clin": _Theorem((), (("T_r", "O_r"),), (
        ("connection gap vanishes at the critical exponent", None,
         lambda r: None if r.phi_value is None else abs(r.phi_value) <= 1e-3),
        ("regular orbit oscillates in sign", "T_r", _OSCILLATES),
        ("regular orbit has a limit cycle surrounding all stationary points", "O_r",
         _FOUND),
    ), phi=True, bracket=True),
    "ent": _Theorem((), (("T_r", "O_r"),), (
        ("regular orbit has at least two simple zeros", "T_r",
         lambda d: d["sign_changes"] >= 2),
        ("hole orbit stays near the flat point (converges or cycles)", "T_eps",
         lambda d: d["label"] in ("A_gamma", "M_ell", "cycle")),
    ), phi=True, bracket=True),
}

THEOREM_TAGS = tuple(_THEOREMS)


def classify_regime(params: ProblemParams,
                    config: Optional[IntegrationConfig] = None) -> RegimeReport:
    """Run the constructions and detectors the governing theorem talks
    about and grade its machine-checkable clauses.

    Each check is "pass" or "fail" when the run could decide it, and
    "untested" when the finite tau span (``config.max_time_span``) or a
    failed construction left it undecided (the classifier never
    extrapolates; claims about infinitely many zeros are certified only
    through a detected cycle).
    """
    cfg = config or IntegrationConfig()
    tag, phi_value = _tag_and_phi(params, cfg)
    theorem = _THEOREMS[tag]
    if theorem.phi and phi_value is None:
        try:
            phi_value = phi_of_alpha(params.N, params.p, params.alpha, cfg)
        except (AnalysisError, ParameterError):
            pass
    bracket = critical_bracket(params.N, params.p) if theorem.bracket else None
    report = RegimeReport(params, derive_constants(params), tag,
                          classify_stationary_points(params), {}, [], [],
                          phi_value, bracket)

    trajs: dict = {}
    seen: dict = {None: report}  # what a clause can read
    for kind in ("T_r", "T_eps", *theorem.shoots):
        try:
            t = trajs[kind] = traj_mod.shoot(traj_mod.SpecialTrajectorySpec(kind),
                                             params, cfg, consistency_check=False)
        except (IntegrationError, ParameterError, AnalysisError) as exc:
            report.trajectories[kind] = {"error": str(exc)}
            continue
        report.trajectories[kind] = seen[kind] = {
            "termination": t.termination,
            "direction": t.direction,
            "label": asymptotic_label(t, params),
            "sign_changes": count_sign_changes(t),
            "tau_range": (float(t.tau.min()), float(t.tau.max())),
        }
    for kind, source in theorem.cycles:
        if kind in trajs:
            seen[source] = cyc = detect_limit_cycle(trajs[kind], params, cfg)
            if cyc is not None:
                cyc.meta["source"] = source
                report.cycles.append(cyc)
    for text, read, test, *applies in theorem.clauses:
        if not all(a(params) for a in applies):
            continue
        outcome = test(seen[read]) if read in seen else None
        report.checks.append((text, "untested" if outcome is None
                              else ("pass" if outcome else "fail")))
    return report
