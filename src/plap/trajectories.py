"""Shooting constructions of the distinguished orbits of the profile
phase plane.

Every construction hands one launch phase to ``_hand_off``, the one
path from a launch to its S-chart orbit.  The launch expands the local
invariant manifold of a degenerate or hyperbolic point in the chart
where it is regular (Q, P or R), steps a small offset ``delta`` along
the manifold, and integrates the chart's field from :mod:`plap.systems`
(``_chart_phase``; ``_edge_phase`` for T_eps, ``_stiff_phase`` for
T_alpha) until the hand-off event fires: the ordinate y, lifted from the
chart point by y^{p-2} = ``systems._q``, reaches a fixed level.  Charts Q and P, the corner charts
of T_plus / T_minus and T_eps's chart R, in the time |g| with tau as its
second component, run on the scalar Dormand-Prince stepper of
:mod:`plap.integrate`.  The T_alpha launch starts on the center-manifold
series of its decay point (``systems._decay_manifold``), which fills the
first decades away from the point, tau included; the stiff rest runs
through ``solve_ivp``'s LSODA in chart R's time nu, tau as a third
component.  Every launch counts its work against
``IntegrationConfig.max_steps``.  ``_hand_off`` runs the launch, lifts
every sample to (y, Y) by ``systems._lift`` (one that does not lift to a
finite (y, Y) with y > 0 is an :class:`IntegrationError`; no sample is
dropped), continues from the last one with :func:`integrate_s` and joins
the two pieces by the junction rule of :mod:`plap.integrate`.  With
``consistency_check=True`` (the library default; ``plap shoot`` passes
False) it runs a manifold launch again at delta/2 to report how far the
hand-off point moves (``meta["offset_consistency"]``); the orbit is the
first launch's either way.  ``_KINDS`` says what each of the seven kinds
reads of a :class:`SpecialTrajectorySpec` and where it exists; they are

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
         a prescribed first-derivative limit, launched in chart P from the
         scalar graph-function charts that desingularize the p >= N
         corner.
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
    _SEvent,
    _event_values,
    _join,
    _new_stats,
    _rk45_segment,
    integrate_s,
)
from .systems import (_P_TEXT, _Q_TEXT, _R_TEXT, _RX_TEXT, PhaseState, _decay_manifold,
                      _lift, _manifold_reach, _q, _rhs, _series, _tau_rate, to_profile)


DEFAULT_OFFSET = 1e-7

# the spec fields each kind reads, with their defaults (a is T_r's w(0), T_eps's
# edge radius rbar, and T_plus / T_minus's w(0), at p = N their lim w/|ln r|;
# None is the constructor's default), and the signs of p - N where the regime has it
_KINDS = {"T_r": ({"offset": DEFAULT_OFFSET, "a": 1.0}, (-1, 0, 1)),
          "T_eps": ({"offset": DEFAULT_OFFSET, "a": 1.0}, (-1, 0, 1)),
          "T_alpha": ({"offset": DEFAULT_OFFSET}, (-1, 0, 1)),
          "T_eta": ({"offset": DEFAULT_OFFSET}, (-1,)),
          "T_u": ({"offset": DEFAULT_OFFSET}, (1,)),
          "T_plus": ({"a": 1.0, "c": None}, (0, 1)),
          "T_minus": ({"a": 1.0, "c": -1.0}, (1,))}

TRAJECTORY_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class SpecialTrajectorySpec:
    """Request record for a shooting construction: the kind and the fields
    it reads (``_KINDS``), None for the kind's default.  A field the kind
    does not read, an offset that is not finite and positive, and a ``c``
    of the wrong sign are a :class:`ParameterError`."""

    kind: str
    offset: Optional[float] = None
    a: Optional[float] = None
    c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown trajectory kind {self.kind!r}")
        for name in ("offset", "a", "c"):
            if getattr(self, name) is not None and name not in _KINDS[self.kind][0]:
                raise ParameterError(f"{name} does not apply to kind {self.kind}")
        if self.offset is not None and not 0.0 < self.offset < math.inf:
            raise ParameterError(f"offset must be finite and positive, got {self.offset}")
        if self.c is not None and (self.c < 0.0 if self.kind == "T_plus" else self.c > 0.0):
            raise ParameterError(f"{self.kind} requires c "
                                 f"{'>' if self.kind == 'T_plus' else '<'} 0")


# ---------------------------------------------------------------------------
# the launch pipeline: chart phase -> lift -> S chart -> compose


# systems._q - q_hand on Python floats, in the stepper's (y, Y) = (zeta,
# sigma) or (zeta, psi): the hand-off row of a Q or P launch; a zero
# abscissa divides by zero
_HAND_EXPR = {"Q": "(Y if y > 0.0 else -Y) * abs(y) ** (1.0 - p) - q_hand",
              "P": "1.0 / ((Y if y > 0.0 else -Y) * abs(y) ** (p - 1.0)) - q_hand"}


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / float(np.hypot(v[0], v[1]))


def _q_hand(params: ProblemParams, grow: bool) -> float:
    """y^{p-2} at the ordinate where a launch phase hands off to chart S.

    Orbits whose lifted ordinate grows from ~0 hand off at a fraction of
    the flat-profile amplitude (or 1); orbits that come down from the
    r -> 0 singular end hand off at a large ordinate so the S phase keeps
    the full profile range."""
    if grow:
        dc = derive_constants(params)
        y_hand = 0.5 * dc.ell if dc.ell is not None else 1.0
    else:
        y_hand = 1e3
    return y_hand ** (params.p - 2.0)


def _chart_phase(chart: str, u0, params: ProblemParams, cfg: IntegrationConfig,
                 span, stats: dict):
    """Integrate chart Q or P from ``u0`` over ``span`` on the scalar
    Dormand-Prince stepper (scipy's RK45 rule, steps of at most 0.25)
    until the lifted ordinate falls through the hand-off level; returns
    the chart times and points ``(t, u)``, the last sample on the level.
    ``stats`` accumulates the work, and every attempted step counts
    against ``cfg.max_steps``.  Raises :class:`IntegrationError` when the
    phase leaves the chart, exhausts the budget or ends at the end of
    ``span`` before the level."""
    atol = min(cfg.abs_tol, 1e-14)
    rows = [_SEvent(_HAND_EXPR[chart], -1, True)]
    table_fns = _event_values(rows, p=params.p,
                              q_hand=_q_hand(params, grow=False))
    rhs = _rhs(params, _Q_TEXT if chart == "Q" else _P_TEXT)
    try:
        seg = _rk45_segment(rhs, span[0], span[1], float(u0[0]), float(u0[1]),
                            cfg.rel_tol, atol, 0.25, rows, *table_fns,
                            stats, cfg.max_steps)
    except ZeroDivisionError as exc:
        raise IntegrationError(f"launch phase in chart {chart} left the chart: "
                               f"{exc}") from None
    if seg.terminal is None:
        raise IntegrationError(
            f"launch phase in chart {chart} never reached the handoff section")
    return np.array(seg.t), np.array([seg.y, seg.Y])


def _hand_off(phase, params: ProblemParams, cfg: IntegrationConfig, direction: int,
              tau_span: Optional[float], meta: dict, stats: dict,
              offset: Optional[float] = None, consistency_check: bool = False) -> Trajectory:
    """Run the launch ``phase(offset)`` in chart ``meta["launch_chart"]``
    (chart times and points; in chart R tau is the third row, and the
    times are not read) and, with
    ``consistency_check``, again at offset/2: the distance between the two
    hand-off points is ``meta["offset_consistency"]``.  Lift every launch
    sample to (y, Y) (one that does not lift to a finite (y, Y) with y > 0
    is an :class:`IntegrationError`), continue from the last one with
    :func:`integrate_s` and join the pieces.  ``meta`` gains the S-chart
    stepper counts ``meta["stats"]`` and the launch's ``stats`` as
    ``meta["launch_stats"]``: rhs evaluations, accepted and rejected steps
    and segments (stepper or ``solve_ivp`` starts), the offset/2 rerun and
    the corner charts of T_plus / T_minus included."""
    chart = meta["launch_chart"]
    t, u = phase(offset)
    if consistency_check:
        _, half = phase(offset / 2.0)
        meta["offset_consistency"] = float(np.hypot(*(u[:2, -1] - half[:2, -1])))
    with np.errstate(all="ignore"):  # a bad lift is refused just below
        ok, y, Y = _lift(chart, u[0], u[1], params.p)
    if not np.all(ok & (y > 0.0) & np.isfinite(y) & np.isfinite(Y)):
        raise IntegrationError(f"launch phase in chart {chart} reached a point that "
                               f"does not lift to a finite (y, Y) with y > 0")
    tau = u[2] if chart == "R" else t
    s_traj = integrate_s(PhaseState(float(tau[-1]), float(y[-1]), float(Y[-1])),
                         params, direction=direction, config=cfg, tau_span=tau_span)
    meta["stats"] = s_traj.meta["stats"]
    meta["launch_stats"] = stats
    tau, ys = _join([tau, s_traj.tau], [np.array([y, Y]), s_traj.ys], direction)
    return Trajectory(params, tau, ys, s_traj.events, s_traj.termination,
                      direction, meta=meta)


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
    if not 0.0 < a < math.inf:
        raise ParameterError(f"the regular family requires a finite a > 0, got {a}")
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)  # also validates alpha != 0
    al, eps, N = params.alpha, params.epsilon, float(params.N)

    sigma_star = eps * al / N
    slope = eps * (al - N) / (N * (N + dc.p_prime))
    sgn_z = 1.0 if sigma_star > 0.0 else -1.0
    stats = _new_stats()

    def start(delta):
        zeta0 = sgn_z * delta
        return (zeta0, sigma_star + slope * zeta0)

    u0 = start(offset)
    meta: dict = {"kind": "T_r", "a": a, "offset": offset,
                  "launch_chart": "Q", "launch_coords": u0}
    traj = _hand_off(lambda delta: _chart_phase("Q", start(delta), params, cfg,
                                                (0.0, 80.0), stats),
                     params, cfg, 1, tau_span, meta, stats, offset, consistency_check)

    # amplitude carried by the launch point (the first sample), with the
    # first-order tail correction int zeta dtau = zeta0/p'
    a_raw = float(traj.ys[0, 0]) * math.exp(u0[0] / dc.p_prime)
    meta["a_raw"] = a_raw
    traj.shift_tau(math.log(a / a_raw) / dc.gamma)
    return traj


# ---------------------------------------------------------------------------
# T_eps : the double-zero (compact-support edge) orbit

# |g| where the T_eps launch ends short of the hand-off: the inverse-slope
# chart is singular where w' = 0, so an orbit whose first extremum arrives
# below the hand-off amplitude (a small limit cycle) leaves the chart there
_G_EXIT = 1e6


def _edge_phase(u0, params: ProblemParams, cfg: IntegrationConfig, stats: dict):
    """The T_eps launch from the chart-R point ``u0`` = (g0, s0), on the
    scalar stepper in the time |g| (``systems._RX_TEXT``) with the state
    (ln|s|, tau) and tau = 0 at the start.  It ends where the lifted
    ordinate rises through the hand-off level, or at |g| = ``_G_EXIT``.
    Returns the chart times |g| and the points (g, s, tau); every attempted
    step counts against ``cfg.max_steps``."""
    eps = params.epsilon
    # ln _q - ln q_hand at (x, y, Y) = (|g|, ln|s|, tau), rising
    rows = [_SEvent("y + pm1 * log(x) - log_q", 1, True)]
    table_fns = _event_values(rows, "x", pm1=params.p - 1.0, log=math.log,
                              log_q=math.log(_q_hand(params, grow=True)))
    try:
        seg = _rk45_segment(_rhs(params, _RX_TEXT), abs(u0[0]), _G_EXIT,
                            math.log(abs(u0[1])), 0.0, cfg.rel_tol,
                            min(cfg.abs_tol, 1e-14), math.inf, rows, *table_fns,
                            stats, cfg.max_steps, lambda x: f"? (|g| = {x!r})")
    except (IntegrationError, ZeroDivisionError, OverflowError) as exc:
        raise IntegrationError(f"launch phase in chart R: {exc}") from None
    x = np.array(seg.t)
    return x, np.array([-eps * x, -eps * np.exp(seg.y), seg.Y])


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
    eps = +1, outside r > rbar for eps = -1), and the scalar stepper
    follows it in the time |g| (``_edge_phase``).  Near the saddle
    dg/dtau = (p-2)/(p-1) + o(1), so the edge time is
    tau_edge = tau0 - g0 (p-1)/(p-2) + O(g0^2); the orbit is translated
    so that the edge sits at ln(rbar).
    """
    if not 0.0 < r_bar < math.inf:
        raise ParameterError(f"r_bar must be finite and positive, got {r_bar}")
    cfg = config or IntegrationConfig()
    derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    v = _unit(((2.0 * p - 3.0) / (p - 1.0), eps * (N - al)))
    d = -float(eps)
    stats = _new_stats()

    def start(delta):
        return (d * delta * v[0], -eps + d * delta * v[1])

    u0 = start(offset)
    meta: dict = {"kind": "T_eps", "r_bar": r_bar, "offset": offset,
                  "launch_chart": "R", "launch_coords": (float(u0[0]), float(u0[1]))}
    # tau runs away from the edge
    traj = _hand_off(lambda delta: _edge_phase(start(delta), params, cfg, stats),
                     params, cfg, -eps, tau_span, meta, stats, offset, consistency_check)

    tau_edge_est = -float(u0[0]) * (p - 1.0) / (p - 2.0)
    shift = math.log(r_bar) - tau_edge_est
    meta["tau_bar"] = math.log(r_bar)
    # the edge precedes the launch, and so every event of the orbit
    traj.events.insert(0, Event("double_zero_capture", tau_edge_est,
                                PhaseState(tau_edge_est, 0.0, 0.0)))
    traj.shift_tau(shift)
    traj.meta["tau_edge_estimate"] = tau_edge_est + shift
    return traj


# ---------------------------------------------------------------------------
# T_alpha : the algebraic-decay orbit


def _event(fn, direction: int = 0):
    """Mark ``fn(t, u)`` as a terminal ``solve_ivp`` event."""
    fn.terminal, fn.direction = True, direction
    return fn


# rhs evaluations of one attempted Dormand-Prince step: the budget of the
# solve_ivp launch is what ``max_steps`` steps of the stepper may cost
_RHS_PER_STEP = 6

# samples per decade of |g - g_A| on the stretch of the T_alpha launch
# that its center-manifold series fills
_SERIES_PER_DECADE = 10


def _stiff_phase(u0, params: ProblemParams, cfg: IntegrationConfig, span,
                 stats: dict, goals, stops):
    """The stiff part of a T_alpha launch from the chart-R point ``u0`` =
    (g0, s0, tau0) over ``span``: the manifold variant's from the end of
    its series stretch (or from the tangent where there is no series), the
    seeded variant's backward from its seed.  It runs through
    ``solve_ivp``'s LSODA in chart R's time nu with tau (d tau = g s d nu)
    as a third component, until one of the ``goals`` events fires;
    returns the chart times and points ``(t, u)``.
    ``stats`` accumulates the work (LSODA's rhs evaluations and accepted
    steps; ``solve_ivp`` does not report its rejected ones), and every rhs
    evaluation counts against ``_RHS_PER_STEP * cfg.max_steps``.  Raises
    :class:`IntegrationError` when the phase leaves the chart, fails,
    exhausts the budget, or ends at one of the ``stops``, a failure or
    the end of ``span`` before a goal."""
    r_field = _rhs(params, _R_TEXT)
    budget = _RHS_PER_STEP * cfg.max_steps
    stats["segments"] += 1

    def rhs(t, u):
        stats["rhs_evals"] += 1
        if stats["rhs_evals"] > budget:
            raise IntegrationError(f"launch phase in chart R exceeded its budget of "
                                   f"{budget} rhs evaluations (max_steps = "
                                   f"{cfg.max_steps})")
        g, s = float(u[0]), float(u[1])
        if not (math.isfinite(g) and math.isfinite(s)):
            raise IntegrationError(f"launch phase in chart R left the chart: "
                                   f"non-finite coordinates {(g, s)!r}")
        dg, ds = r_field(g, s)
        return (dg, ds, g * s)

    try:
        sol = solve_ivp(rhs, span, np.asarray(u0, dtype=float), method="LSODA",
                        rtol=cfg.rel_tol, atol=min(cfg.abs_tol, 1e-14),
                        events=[*goals, *stops])
    except ValueError as exc:
        # scipy's event root search on a zero-length step, where the
        # event function has blown up
        raise IntegrationError(f"launch phase in chart R failed: {exc}") from None
    stats["accepted"] += sol.t.size - 1
    if sol.status == -1:
        raise IntegrationError(f"launch phase in chart R failed: {sol.message}")
    if sol.status != 1 or not any(te.size for te in sol.t_events[:len(goals)]):
        raise IntegrationError("launch phase in chart R never reached the handoff section")
    return sol.t, sol.y


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
    -gamma.

    Where the launch is self-correcting (the manifold variant, below), the
    traverse of the center manifold is algebraically slow (dg/dnu ~ x^2,
    x = g + 1/alpha) and stiff.  The order-10 center-manifold series
    (``systems._decay_manifold`` in chart R, with ``systems._tau_rate``)
    gives s and tau as functions of x; it fills the stretch from the offset x0 out to where it stays
    accurate and lifts below the hand-off level, ``_SERIES_PER_DECADE``
    samples per decade of |x|, and LSODA runs on from there.  At alpha =
    eta, and where a series coefficient is not finite, the launch steps
    from the point along the tangent and LSODA runs all of it.
    """
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, al, eps = params.p, params.alpha, params.epsilon

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
    nu_max = 1e15
    g_blowup = _event(lambda nu, u: abs(u[0]) - 1e8)

    meta: dict = {"kind": "T_alpha", "offset": offset, "launch_chart": "R",
                  "decay_end": float(-direction) * math.inf}
    stats = _new_stats()

    # Transverse rate along the away direction.  When it is negative the
    # launch is self-correcting (the unique-orbit case eps(gamma+alpha)<0)
    # and a manifold step works.  When it is positive the orbit family is
    # non-unique and the traverse amplifies the offset error beyond repair;
    # there the canonical member is seeded at a macroscopic point on the
    # center tangent and the decay tail is produced by collapsing backward
    # onto the stationary point (the transverse mode decays that way).
    away_rate = direction * (-eps) / (p - 1.0)

    if away_rate < 0.0:
        q_hand = _q_hand(params, grow=True)
        hand = _event(lambda nu, u: _q("R", u[0], u[1], p) - q_hand, 1)
        # the center manifold S = sum m_k x^k, x = g - g_A, and the tau rate
        # (1/x) sum q_k x^k along it; there is none at alpha = eta (c = 0,
        # the tangent runs along s) or where a coefficient is not finite,
        # and the launch then starts on the tangent
        try:
            m, rate = _decay_manifold(params, 1.0)
            q = _tau_rate(m, rate, 1.0)
        except ZeroDivisionError:
            m, q = [math.nan], []
        ratio = None
        if all(map(math.isfinite, (*m, *q))):
            # the series fills the stretch from the offset x0 along g out to
            # ratio x0 (the offset/2 rerun scales both): the largest |x| <=
            # 0.1 |g_A| within its reach, halved until it lifts below the
            # hand-off level, and never inside |x0|
            x0 = d * offset * v[0]
            x = math.copysign(min(0.1 * abs(A[0]), _manifold_reach(m, 1e-12)), x0)
            while abs(x) > abs(x0) and _q("R", A[0] + x, _series(m, x), p) > 0.5 * q_hand:
                x *= 0.5
            ratio = max(x / x0, 1.0)
            n = math.ceil(_SERIES_PER_DECADE * math.log10(ratio))
            q_int = [qk / k for k, qk in enumerate(q[1:], 1)]

        def start(delta):
            # the launch's first points (g, s, tau), tau = 0 at the first:
            # the series at x0 ratio^(k/n), k = 0..n, or one point on the tangent
            x0 = d * delta * v[0]
            if ratio is None:
                return np.array([[A[0] + x0], [A[1] + d * delta * v[1]], [0.0]])
            x = x0 * ratio ** (np.arange(n + 1) / max(n, 1))
            tau = q[0] * np.log(x / x0) + _series(q_int, x) - _series(q_int, x0)
            return np.array([A[0] + x, _series(m, x), tau])

        def launch(delta):
            # LSODA runs on from the last of the first points; chart R's
            # times are not read
            head = start(delta)
            _, u = _stiff_phase(head[:, -1], params, cfg, (0.0, direction * nu_max),
                                stats, [hand], [g_blowup])
            return None, np.hstack([head[:, :-1], u])

        meta["launch_variant"] = "manifold"
        meta["launch_coords"] = tuple(map(float, start(offset)[:2, 0]))
        # the transverse mode makes the slow center traverse stiff for an
        # explicit pair; LSODA switches to BDF there
        return _hand_off(launch, params, cfg, direction, tau_span, meta, stats,
                         offset, consistency_check)

    meta["launch_variant"] = "seeded"
    if consistency_check:
        meta["offset_consistency"] = 0.0  # the offset only truncates the tail
    near_A = _event(lambda nu, u: math.hypot(u[0] - A[0], u[1] - A[1]) - offset, -1)
    s_flip = _event(lambda nu, u: u[1])

    def collapse(_delta):
        # a macroscopic seed may sit outside the backward basin of the
        # stationary point (the backward flow can spiral into the axis);
        # shrink the seed geometrically until the tail collapses; the first
        # seed lifts to about the hand-off ordinate
        s_mac = s_sign * _q_hand(params, grow=True) * abs(al) ** (p - 1.0)
        for _ in range(24):
            g_seed = A[0] + (v[0] / v[1]) * s_mac
            try:
                t, u = _stiff_phase((g_seed, s_mac, 0.0), params, cfg,
                                    (0.0, -direction * nu_max), stats, [near_A],
                                    [g_blowup, s_flip])
            except IntegrationError:
                if stats["rhs_evals"] > _RHS_PER_STEP * cfg.max_steps:
                    raise
                s_mac *= 0.5
                if abs(s_mac) < 1e3 * offset:
                    break
                continue
            meta["launch_coords"] = (float(g_seed), float(s_mac))
            # the tail in backward order; reversed into integration order
            return t[::-1], u[:, ::-1]
        raise IntegrationError(
            "algebraic-decay tail did not collapse onto the stationary point")

    return _hand_off(collapse, params, cfg, direction, tau_span, meta, stats)


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
    stats = _new_stats()

    def start(delta):
        return (eta + delta * step[0], delta * step[1])

    u0 = start(offset)
    meta: dict = {"kind": kind, "offset": offset, "launch_chart": "P",
                  "launch_coords": u0, "c": 1.0}
    traj = _hand_off(lambda delta: _chart_phase("P", start(delta), params, cfg,
                                                (0.0, 80.0), stats),
                     params, cfg, 1, tau_span, meta, stats, offset, consistency_check)

    # c = lim y e^{(gamma+eta) tau}, read at the launch point (the first
    # sample); the drift is d/dtau ln(.) = eta - zeta, integrable over the
    # launch tail: for the saddle it sums to (zeta0 - eta)/(N - eta)
    # + O(offset^2)
    c_raw = float(traj.ys[0, 0]) * math.exp((dc.gamma + eta) * float(traj.tau[0]))
    if eta < 0.0:
        c_raw *= math.exp((float(u0[0]) - eta) / (N - eta))
    meta["c_raw"] = c_raw
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
        if zeta <= 0.0:
            return 0.0
        E = math.exp(-N / zeta)
        if E == 0.0:
            return 0.0
        num = -eps * (al - zeta) * (N + (N - 2.0) * zeta) * V * V * E / ((N - 1.0) * zeta * zeta)
        den = zeta * zeta + eps * (al - zeta) * V * E / (N - 1.0)
        return num / den

    return G


def _corner_solve(rhs, v0: float, zeta0: float, cfg: IntegrationConfig,
                  stats: dict) -> float:
    """v(zeta0) on the graph dv/dzeta = ``rhs`` of a corner chart with
    v(0) = v0.  The scalar Dormand-Prince stepper runs the pair (|zeta|, v)
    in the time |zeta| (T_minus has zeta0 < 0), counted into the launch's
    ``stats`` and its ``max_steps`` budget."""
    sgn = math.copysign(1.0, zeta0)
    try:
        seg = _rk45_segment(lambda s, v: (1.0, sgn * rhs(sgn * s, v)), 0.0,
                            abs(zeta0), 0.0, v0, cfg.rel_tol, min(cfg.abs_tol, 1e-14),
                            math.inf, (), *_event_values(()), stats, cfg.max_steps)
    except IntegrationError as exc:
        raise IntegrationError(f"flat-limit corner chart: {exc}") from None
    return seg.Y[-1]


def _run_flat_launch_pgtN(params: ProblemParams, c1: float, tau0: float,
                          cfg: IntegrationConfig, stats: dict):
    """Integrate the p > N corner chart to zeta0 = c1 e^{|eta| tau0} and
    return the chart-P launch point (zeta0, psi0).  The chart is v =
    c (|c|^{p-2} c psi)^{1/kappa} / zeta -> 1; v as a graph over zeta solves
    dv/dzeta = H(zeta, v), and psi = W zeta.  Raises
    :class:`IntegrationError` where W overflows (kappa = N/|eta| is large
    for p just above N)."""
    p, al, eps = params.p, params.alpha, params.epsilon
    eta = derive_constants(params).eta
    kap = params.N / abs(eta)

    def W(zeta, v):
        if not v > 0.0:
            raise IntegrationError(f"left the chart at v = {v} <= 0 (zeta = {zeta})")
        return abs(c1) ** (1.0 - p - kap) * abs(zeta) ** (kap - 1.0) * v ** kap

    def H(zeta, v):
        Wv = W(zeta, v)
        num = (p - 1.0) * (kap + 1.0) - (kap + p - 1.0) * eps * (zeta - al) * Wv
        den = (p - 1.0) * (zeta - eta) + eps * (al - zeta) * Wv * zeta
        return -(v / kap) * num / den

    zeta0 = c1 * math.exp(abs(eta) * tau0)
    try:
        return zeta0, W(zeta0, _corner_solve(H, 1.0, zeta0, cfg, stats)) * zeta0
    except OverflowError:
        raise IntegrationError(f"flat-limit corner chart overflows before zeta0 = "
                               f"{zeta0} (kappa = {kap})") from None


def _measure_flat_limits(tau: float, y: float, Y: float, params: ProblemParams):
    """(a, c) limits measured at the S point (tau, y, Y) near r = 0: a from
    w + (c/|eta|) r^{|eta|} (the exact first-order tail), c from
    -r^{eta+1} w'.  Raises :class:`IntegrationError` when the point or a
    limit is not finite (a launch point psi0 that underflows lifts to
    y = Y = inf)."""
    eta = derive_constants(params).eta
    prof = to_profile(PhaseState(tau, y, Y), params)
    c_meas = -(prof.r ** (eta + 1.0)) * prof.dw
    a_meas = prof.w + (c_meas / abs(eta)) * prof.r ** abs(eta)
    if not all(map(math.isfinite, (y, Y, a_meas, c_meas))):
        raise IntegrationError(f"flat-limit launch point measured non-finite limits "
                               f"(a, c) = ({a_meas}, {c_meas}) at (y, Y) = ({y}, {Y})")
    return a_meas, c_meas


def shoot_T_pm(params: ProblemParams, a: float = 1.0, c: Optional[float] = None,
               config: Optional[IntegrationConfig] = None,
               *, tau_span: Optional[float] = None) -> Trajectory:
    """Construct the flat-limit orbit for p >= N.

    p = N: the family is parameterized by k = a > 0 alone, so a ``c`` is a
    ParameterError; it satisfies w/|ln r| -> k and r w' -> -k as r -> 0.
    The corner chart V = psi e^{N/zeta} zeta has V -> k^{2-p}; V as a graph
    over zeta is a regular scalar ODE, integrated from zeta = 0 to zeta0 =
    -1/tau0, and the launch time tau0 = -1/zeta0 calibrates the logarithm.

    p > N: the family satisfies w -> a and -r^{(N-1)/(p-1)} w' -> c (1.0
    for None); the corner chart v(zeta) with v(0) = 1 realizes one member
    per chart parameter c1, and a tau translation (the scaling map) adjusts
    (a, c) along the one-parameter family: c scales as mu^{1 - |eta|/gamma}
    when a scales as mu.  A short fixed-point iteration on c1 meets both
    requested limits, measured at the launch point.

    The launch starts on the corner chart's graph, not at an offset from
    a stationary point, so there is no offset to choose or check.
    """
    if params.p < params.N:
        raise ParameterError("the flat-limit family requires p >= N")
    if params.p == params.N and c is not None:
        raise ParameterError("c does not apply at p = N: the flat-limit family "
                             "there is parameterized by a alone")
    if not 0.0 < a < math.inf:
        raise ParameterError(f"the flat-limit family requires a finite a > 0, got {a}")
    cfg = config or IntegrationConfig()
    dc = derive_constants(params)
    p, N = params.p, float(params.N)
    stats = _new_stats()

    if params.p == params.N:
        k = a
        tau0 = -18.0
        zeta0 = -1.0 / tau0
        V0 = _corner_solve(_flat_chart_ode_pN(params, k), k ** (2.0 - p), zeta0,
                           cfg, stats)
        psi0 = V0 * math.exp(-N / zeta0) / zeta0
        u0 = (zeta0, psi0)
        meta: dict = {"kind": "T_plus", "k": k, "launch_chart": "P",
                      "launch_coords": u0}
        shift = 0.0
    else:
        eta, c = dc.eta, 1.0 if c is None else c
        tau0 = -16.0
        if c == 0.0 or not math.isfinite(c):
            raise ParameterError(f"the p > N flat-limit family requires a finite "
                                 f"c != 0, got {c}")
        # fixed point on the chart parameter: the scaling map ties the two
        # measured limits as c ~ mu^{1 - |eta|/gamma} c1 when a ~ mu a1
        expo = 1.0 - abs(eta) / dc.gamma
        c1 = c
        a1 = a
        for _ in range(6):
            zeta0, psi0 = _run_flat_launch_pgtN(params, c1, tau0, cfg, stats)
            with np.errstate(all="ignore"):  # inf is rejected just below
                _, yp, Yp = _lift("P", np.array([zeta0]), np.array([psi0]), p)
            a1, c1_meas = _measure_flat_limits(tau0, float(yp[0]), float(Yp[0]), params)
            if not a1 > 0.0:
                raise IntegrationError(f"flat-limit fixed point measured w(0) = {a1} "
                                       f"<= 0 at the launch point")
            c1_new = c * (a1 / a) ** expo * (c1 / c1_meas)
            if abs(c1_new - c1) <= 1e-12 * abs(c1):
                c1 = c1_new
                break
            c1 = c1_new
        u0 = _run_flat_launch_pgtN(params, c1, tau0, cfg, stats)
        meta = {"kind": "T_plus" if c > 0.0 else "T_minus", "a": a, "c": c,
                "launch_chart": "P", "launch_coords": u0, "chart_parameter": c1}
        shift = math.log(a / a1) / dc.gamma

    traj = _hand_off(lambda _: _chart_phase("P", u0, params, cfg, (tau0, tau0 + 80.0),
                                            stats),
                     params, cfg, 1, tau_span, meta, stats)
    if shift:
        traj.shift_tau(shift)
    return traj


# ---------------------------------------------------------------------------
# dispatch


def shoot(spec: SpecialTrajectorySpec, params: ProblemParams,
          config: Optional[IntegrationConfig] = None, **kwargs) -> Trajectory:
    """Dispatch a :class:`SpecialTrajectorySpec` to its construction.

    A kind the regime does not provide (``_KINDS``) and a ``c`` at p = N,
    where the flat-limit family has no tail coefficient, are a
    :class:`ParameterError` before any launch.  Every kind takes the same
    keywords (``tau_span``, ``consistency_check``); ``consistency_check``
    (default True) reaches only the kinds that launch at an offset, where
    it adds the offset/2 rerun that fills ``meta["offset_consistency"]``
    and leaves the orbit as it is; ``plap shoot`` and ``classify_regime``
    do not read it, pass False and launch once."""
    kind = spec.kind
    side = (params.p > params.N) - (params.p < params.N)
    if side not in _KINDS[kind][1]:
        raise ParameterError(f"{kind} is inadmissible at p {'<=>'[side + 1]} N")
    read = {name: default if getattr(spec, name) is None else getattr(spec, name)
            for name, default in _KINDS[kind][0].items()}
    if kind in ("T_plus", "T_minus"):
        kwargs.pop("consistency_check", None)
        return shoot_T_pm(params, read["a"], read["c"], config, **kwargs)
    if kind == "T_r":
        return shoot_regular(params, config, **read, **kwargs)
    if kind == "T_eps":
        return shoot_double_zero(params, read["a"], config, offset=read["offset"], **kwargs)
    construct = shoot_T_alpha if kind == "T_alpha" else shoot_T_eta_or_u
    return construct(params, config, **read, **kwargs)
