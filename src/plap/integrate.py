"""Adaptive integration of the phase-plane charts with event detection.

The S-chart field is only Hölder continuous on the axis {Y = 0} (the term
phi(Y) = sign(Y)|Y|^{1/(p-1)} with p > 2).  Error control of an explicit
Runge-Kutta pair degrades there, so inside a thin band |Y| < delta the
integrator exchanges the roles of time and Y: with y bounded away from 0
the axis is crossed transversally (dY/dtau = eps alpha y + O(|Y|^{1/(p-1)})),
and

    dy/dY  = (-gamma y - phi(Y)) / (-(gamma+N) Y + eps(alpha y - phi(Y)))
    dtau/dY =                1.0 / (-(gamma+N) Y + eps(alpha y - phi(Y)))

is smooth in y and integrable in Y across 0.  The crossing is recorded as a
``Y_zero_crossing`` event and ordinary integration resumes on the far side.

Between the bands, chart S is integrated by a scalar Dormand-Prince 5(4)
stepper on Python floats (``_rk45_segment``).  It follows scipy's RK45
rule step for step, up to rounding: the same initial step, tableau, error
norm, step controller and quartic dense output, with events located by
Brent's method on the dense output.  It counts every attempted step
against ``IntegrationConfig.max_steps`` and stops at the first non-finite
state.  The band crossings and the other charts run through
``solve_ivp``'s RK45.  Capture tests near stationary points and escape
thresholds end an orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from .params import ProblemParams, derive_constants, m_ell_point
from .systems import PhaseState, ProfileSample, phi_Y, sgn_pow, to_profile


class IntegrationError(RuntimeError):
    """Step-size underflow, NaN states, or step budget exhaustion."""


@dataclass
class IntegrationConfig:
    """Tolerances and guards for all integrations.

    ``y_axis_band`` is the relative half-width delta of the |Y| band where
    the axis-crossing chart takes over; the absolute width adapts to the
    local y scale.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_time_span: float = 200.0
    max_steps: int = 10 ** 6
    y_axis_band: float = 1e-6
    max_step: float = 0.1
    escape_threshold: float = 1e12
    capture_radius: float = 1e-6
    origin_radius: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "max_time_span", "y_axis_band",
                     "max_step", "escape_threshold", "capture_radius", "origin_radius"):
            if not getattr(self, name) > 0:  # rejects NaN too
                raise ValueError(f"IntegrationConfig.{name} must be positive")
        if not self.max_steps > 0:
            raise ValueError("IntegrationConfig.max_steps must be positive")


EVENT_KINDS = (
    "y_zero_crossing",
    "Y_zero_crossing",
    "section_crossing",
    "stationary_capture",
    "escape_to_infinity",
    "double_zero_capture",
)


@dataclass(frozen=True)
class Event:
    kind: str
    time: float
    state: PhaseState


@dataclass
class Trajectory:
    """One integrated orbit: dense samples in integration order, the events
    found along the way, and a termination reason.

    ``tau`` increases when ``direction`` is +1 and decreases when -1;
    samples are stored in integration order.  For non-S charts the sample
    rows are the chart coordinates and ``tau`` is the chart's own time.
    """

    chart_id: str
    params: ProblemParams
    tau: np.ndarray
    ys: np.ndarray  # shape (2, n)
    events: list[Event]
    termination: str
    direction: int
    asymptotic_label_start: Optional[str] = None
    asymptotic_label_end: Optional[str] = None
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.tau.size

    def initial_state(self) -> PhaseState:
        return PhaseState(float(self.tau[0]), float(self.ys[0, 0]), float(self.ys[1, 0]))

    def terminal_state(self) -> PhaseState:
        return PhaseState(float(self.tau[-1]), float(self.ys[0, -1]), float(self.ys[1, -1]))

    def state_at(self, tau: float) -> PhaseState:
        """Linear interpolation between stored samples (samples are dense:
        spacing bounded by the configured max step)."""
        t = self.direction * np.asarray(self.tau)
        x = self.direction * tau
        y = float(np.interp(x, t, self.ys[0]))
        Y = float(np.interp(x, t, self.ys[1]))
        return PhaseState(tau, y, Y)

    def profile(self):
        """Arrays (r, w, dw) for S-chart trajectories."""
        if self.chart_id != "S":
            raise ValueError("profile() requires an S-chart trajectory")
        dc = derive_constants(self.params)
        r = np.exp(self.tau)
        w = r ** dc.gamma * self.ys[0]
        dw = -(r ** (dc.gamma - 1.0)) * np.asarray(phi_Y(self.ys[1], self.params.p))
        return r, w, dw

    def shift_tau(self, delta: float) -> None:
        """Translate the trajectory in tau (the system is autonomous; this
        realizes the scaling w -> xi^{-gamma} w(xi r))."""
        self.tau = self.tau + delta
        self.events = [Event(e.kind, e.time + delta, PhaseState(e.state.tau + delta, e.state.y, e.state.Y))
                       for e in self.events]


# ---------------------------------------------------------------------------
# capture logic


def _stationary_targets(params: ProblemParams):
    """(id, (y, Y)) of the candidate limit points with linearizations."""
    targets = []
    m = m_ell_point(params)
    if m is not None:
        targets.append(("M_ell", m))
        targets.append(("minus_M_ell", (-m[0], -m[1])))
    return targets


def _m_ell_attracting_direction(params: ProblemParams) -> int:
    """+1 if M_ell attracts forward orbits, -1 if backward (source)."""
    dc = derive_constants(params)
    if params.epsilon == 1:
        return 1
    # eps = -1: sink iff alpha > alpha_star
    if params.alpha > dc.alpha_star:
        return 1
    if params.alpha < dc.alpha_star:
        return -1
    return 0  # weak source: no exponential attraction either way


def capture_test(state: PhaseState, params: ProblemParams,
                 direction: int = 1,
                 config: Optional[IntegrationConfig] = None) -> Optional[str]:
    """Return the id of a stationary point ('origin', 'M_ell',
    'minus_M_ell') if the state lies within the capture radius of it and
    the local linearization predicts attraction in the given direction.

    The origin has no linearization (the field is non-Lipschitz there);
    it captures when the state is inside the origin radius and moving
    inward.
    """
    cfg = config or IntegrationConfig()
    y, Y = state.y, state.Y
    for pid, (my, mY) in _stationary_targets(params):
        scale = math.hypot(my, mY)
        radius = cfg.capture_radius * scale
        if math.hypot(y - my, Y - mY) <= radius:
            att = _m_ell_attracting_direction(params)
            if att == direction or (y, Y) == (my, mY):
                return pid
            return None
    if math.hypot(y, Y) <= cfg.origin_radius:
        from .systems import s_field

        fy, fY = s_field(y, Y, params)
        inward = direction * (y * fy + Y * fY) < 0.0
        if inward or (y == 0.0 and Y == 0.0):
            return "origin"
    return None


# ---------------------------------------------------------------------------
# S-chart integration


def _band_width(y: float, params: ProblemParams, cfg: IntegrationConfig) -> float:
    """Half-width of the axis band at local ordinate y.

    Scaled so that the drift |eps alpha y| dominates |phi(Y)| on the band
    boundary, which is the transversality estimate the crossing chart
    relies on."""
    return cfg.y_axis_band * max(1.0, abs(y))


def _cross_axis(y0: float, Y0: float, tau0: float, direction: int,
                params: ProblemParams, cfg: IntegrationConfig):
    """Integrate across {Y = 0} using Y as the independent variable.

    Returns (samples_tau, samples_y, samples_Y, event, ok) where the event
    marks the exact crossing.  ``ok`` is False when the crossing is
    degenerate (y too small for the transversality estimate)."""
    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)

    def f2(Y, y):
        return -(dc.gamma + N) * Y + eps * (al * y - float(phi_Y(Y, p)))

    # transversality guard: |dY/dtau| must dominate the band scale
    if abs(f2(0.0, y0)) < 2.0 * abs(phi_Y(Y0, p)):
        return None, None, None, None, False
    v0 = f2(Y0, y0)
    if direction * v0 * (-Y0) < 0.0:
        # not actually moving toward the axis (can happen only on re-entry
        # edge cases); report not-ok so the caller resumes normally
        return None, None, None, None, False

    def rhs(Y, u):
        y = u[0]
        den = f2(Y, y)
        f1 = -dc.gamma * y - float(phi_Y(Y, p))
        return [f1 / den, 1.0 / den]

    sol = solve_ivp(rhs, (Y0, -Y0), [y0, tau0], method="RK45",
                    rtol=min(cfg.rel_tol, 1e-10), atol=cfg.abs_tol,
                    dense_output=True, max_step=abs(Y0) / 4.0)
    if not sol.success:
        return None, None, None, None, False
    y_mid, tau_mid = sol.sol(0.0)
    ev = Event("Y_zero_crossing", float(tau_mid), PhaseState(float(tau_mid), float(y_mid), 0.0))
    Ys = sol.t
    ys = sol.y[0]
    taus = sol.y[1]
    return taus, ys, Ys, ev, True


# ---------------------------------------------------------------------------
# scalar Dormand-Prince 5(4) stepper for chart S

# scipy's Dormand-Prince 5(4) tableau, error weights and quartic dense output
# (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4-II.6) as floats; the
# second stage has no weight in the solution, the error or the dense output.
_A = RK45.A.tolist()
_A21 = _A[1][0]
_A31, _A32 = _A[2][:2]
_A41, _A42, _A43 = _A[3][:3]
_A51, _A52, _A53, _A54 = _A[4][:4]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_B1, _, _B3, _B4, _B5, _B6 = RK45.B.tolist()
_E1, _, _E3, _E4, _E5, _E6, _E7 = RK45.E.tolist()
_P = [row if any(row) else None for row in RK45.P.tolist()]

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / (RK45.error_estimator_order + 1)
_SQRT2 = 2 ** 0.5           # RMS norm of a 2-vector: sqrt(a*a + b*b) / sqrt(2)
_ROOT_TOL = 4 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class _SEvent:
    """An event of chart S: ``fn(y, Y)`` changes sign at the event.
    ``direction`` is +1 / -1 for upward / downward crossings only, 0 for
    both; a terminal event ends the segment."""

    fn: Callable[[float, float], float]
    direction: int = 0
    terminal: bool = False


@dataclass
class _Segment:
    """One solver start: samples in time order, the located events as
    (event index, t, y, Y) in recording order, and the index of the
    terminal event that ended it (None when it reached ``t_bound``)."""

    t: list
    y: list
    Y: list
    hits: list
    terminal: Optional[int]


def _dense(t_old: float, h: float, y_old: float, Y_old: float, k):
    """The quartic interpolant of one accepted step from its seven stages."""
    (a1, a2, a3, a4), (b1, b2, b3, b4) = (
        [sum(kk[i] * row[j] for kk, row in zip(k, _P) if row is not None)
         for j in range(4)]
        for i in (0, 1))

    def sol(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        return (h * (a1 * x + a2 * x2 + a3 * x3 + a4 * x4) + y_old,
                h * (b1 * x + b2 * x2 + b3 * x3 + b4 * x4) + Y_old)

    return sol


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _rk45_segment(fun, t0: float, t_bound: float, y0: float, Y0: float,
                  rtol: float, atol: float, max_step: float,
                  events: Sequence[_SEvent], stats: dict, max_steps: int,
                  tau_of: Callable[[float], float] = float) -> _Segment:
    """Integrate the autonomous 2-D field ``fun(y, Y) -> (dy, dY)`` from
    ``t0`` to ``t_bound >= t0`` by scipy's RK45 rule on Python floats.

    One call does what one ``solve_ivp(method="RK45", rtol=..., atol=...,
    max_step=..., events=...)`` call does: the same initial step selection,
    tableau, RMS error norm with scale ``atol + max(|y|, |y_new|) rtol``,
    step controller (safety 0.9, factors 0.2 to 10, no growth right after a
    rejection), events located by ``brentq`` on the dense output, terminal
    events ordered in time, and the last sample at the terminal event.
    The arithmetic matches scipy's up to rounding: scipy's sums go through
    BLAS, which fuses multiply-adds.  ``stats`` accumulates ``rhs_evals``, ``accepted``, ``rejected`` and
    ``segments`` over the calls that share it; every attempted step counts
    against ``max_steps``.  A non-finite field or state raises
    :class:`IntegrationError` at once; ``tau_of`` maps t to tau there.
    """
    y, Y = y0, Y0
    fy, fY = fun(y, Y)
    nfev, n_acc, n_rej = 1, 0, 0
    ts, ys, Ys = [t0], [y0], [Y0]
    hits: list = []
    terminal = None
    stats["segments"] += 1
    try:
        if not (math.isfinite(fy) and math.isfinite(fY)):
            raise IntegrationError(f"non-finite field near tau={tau_of(t0)}")
        if t0 == t_bound:
            ts.append(t0)
            ys.append(y0)
            Ys.append(Y0)
            return _Segment(ts, ys, Ys, hits, None)

        # initial step: Hairer, Norsett & Wanner, sec. II.4
        interval = t_bound - t0
        sy, sY = atol + abs(y) * rtol, atol + abs(Y) * rtol
        d0 = _rms(y / sy, Y / sY)
        d1 = _rms(fy / sy, fY / sY)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        gy, gY = fun(y + h0 * fy, Y + h0 * fY)
        nfev += 1
        # h0 is 0 only when d1 overflowed, and then h1 is 0 either way
        d2 = _rms((gy - fy) / sy, (gY - fY) / sY) / h0 if h0 else math.inf
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        h_abs = min(100 * h0, h1, interval, max_step)

        fns = [ev.fn for ev in events]
        dirs = [ev.direction for ev in events]
        g = [fn(y, Y) for fn in fns]
        budget = max_steps - stats["accepted"] - stats["rejected"]
        t = t0
        while t < t_bound:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = min(max(h_abs, min_step), max_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        "integrator failure: step size below the float spacing "
                        f"near tau={tau_of(t)}")
                if n_acc + n_rej >= budget:
                    raise IntegrationError("max_steps exceeded")
                t_new = t + h_abs
                if t_new > t_bound:
                    t_new = t_bound
                h = h_abs = t_new - t
                k2y, k2Y = fun(y + fy * _A21 * h, Y + fY * _A21 * h)
                k3y, k3Y = fun(y + (fy * _A31 + k2y * _A32) * h,
                               Y + (fY * _A31 + k2Y * _A32) * h)
                k4y, k4Y = fun(y + (fy * _A41 + k2y * _A42 + k3y * _A43) * h,
                               Y + (fY * _A41 + k2Y * _A42 + k3Y * _A43) * h)
                k5y, k5Y = fun(
                    y + (fy * _A51 + k2y * _A52 + k3y * _A53 + k4y * _A54) * h,
                    Y + (fY * _A51 + k2Y * _A52 + k3Y * _A53 + k4Y * _A54) * h)
                k6y, k6Y = fun(
                    y + (fy * _A61 + k2y * _A62 + k3y * _A63 + k4y * _A64
                         + k5y * _A65) * h,
                    Y + (fY * _A61 + k2Y * _A62 + k3Y * _A63 + k4Y * _A64
                         + k5Y * _A65) * h)
                y_new = y + h * (fy * _B1 + k3y * _B3 + k4y * _B4 + k5y * _B5
                                 + k6y * _B6)
                Y_new = Y + h * (fY * _B1 + k3Y * _B3 + k4Y * _B4 + k5Y * _B5
                                 + k6Y * _B6)
                k7y, k7Y = fun(y_new, Y_new)
                nfev += 6
                ey = (fy * _E1 + k3y * _E3 + k4y * _E4 + k5y * _E5 + k6y * _E6
                      + k7y * _E7) * h
                eY = (fY * _E1 + k3Y * _E3 + k4Y * _E4 + k5Y * _E5 + k6Y * _E6
                      + k7Y * _E7) * h
                err = _rms(ey / (atol + max(abs(y), abs(y_new)) * rtol),
                           eY / (atol + max(abs(Y), abs(Y_new)) * rtol))
                if not (math.isfinite(err) and math.isfinite(y_new)
                        and math.isfinite(Y_new)):
                    n_rej += 1
                    raise IntegrationError(f"non-finite state near tau={tau_of(t)}")
                if err < 1:
                    if err == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    n_acc += 1
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
                rejected = True
                n_rej += 1

            t_old, y_old, Y_old, k1 = t, y, Y, (fy, fY)
            t, y, Y, fy, fY = t_new, y_new, Y_new, k7y, k7Y
            g_old, g = g, [fn(y, Y) for fn in fns]
            active = [i for i, (a, b, d) in enumerate(zip(g_old, g, dirs))
                      if (d >= 0 and a <= 0 <= b) or (d <= 0 and a >= 0 >= b)]
            if active:
                sol = _dense(t_old, h, y_old, Y_old,
                             (k1, (k2y, k2Y), (k3y, k3Y), (k4y, k4Y),
                              (k5y, k5Y), (k6y, k6Y), (k7y, k7Y)))
                found = [(i, brentq(lambda s, fn=fns[i]: fn(*sol(s)), t_old, t,
                                    xtol=_ROOT_TOL, rtol=_ROOT_TOL))
                         for i in active]
                if any(events[i].terminal for i in active):
                    found.sort(key=lambda hit: hit[1])
                    cut = next(n for n, (i, _) in enumerate(found)
                               if events[i].terminal)
                    found = found[:cut + 1]
                    terminal = found[-1][0]
                hits.extend((i, te, *sol(te)) for i, te in found)
                if terminal is not None:
                    t = found[-1][1]
                    y, Y = sol(t)
            ts.append(t)
            ys.append(y)
            Ys.append(Y)
            if terminal is not None:
                break
        return _Segment(ts, ys, Ys, hits, terminal)
    finally:
        stats["rhs_evals"] += nfev
        stats["accepted"] += n_acc
        stats["rejected"] += n_rej


def _s_rhs(params: ProblemParams, direction: int):
    """The S field on Python floats, signed for the tau direction.

    Bit for bit the numpy field: the float ``**`` equals numpy's
    power on a 0-d array, and the signs are exact."""
    dc = derive_constants(params)
    e = 1.0 / (params.p - 1.0)
    mg, mgN = -dc.gamma, -(dc.gamma + float(params.N))
    al, eps = params.alpha, params.epsilon

    def f(y, Y):
        ph = abs(Y) ** e if Y >= 0.0 else -(abs(Y) ** e)
        return direction * (mg * y - ph), direction * (mgN * Y + eps * (al * y - ph))

    return f


def integrate_s(initial: PhaseState, params: ProblemParams,
                direction: int = 1,
                config: Optional[IntegrationConfig] = None,
                *,
                capture: bool = True,
                section_y: Optional[float] = None,
                tau_span: Optional[float] = None,
                record_y_zero: bool = True) -> Trajectory:
    """Integrate chart S from ``initial`` in the given tau direction.

    Optional ``section_y`` adds a non-terminal section-crossing recorder on
    the line {y = section_y}.  Capture events terminate at stationary
    points; escape terminates at the configured threshold.  The returned
    trajectory's ``meta["stats"]`` counts the stepper's work: ``rhs_evals``,
    ``accepted`` and ``rejected`` steps, and ``segments`` (solver starts);
    the axis crossings are not in it.
    """
    cfg = config or IntegrationConfig()
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if not all(map(math.isfinite, (initial.tau, initial.y, initial.Y))):
        raise IntegrationError(f"non-finite initial state {initial}")
    if initial.y == 0.0 and initial.Y == 0.0:
        raise IntegrationError("the origin is stationary; no orbit starts there")

    eps = params.epsilon
    span = tau_span if tau_span is not None else cfg.max_time_span
    span = min(span, cfg.max_time_span)
    if not span >= 0.0:
        raise ValueError("tau_span must be non-negative")
    f = _s_rhs(params, direction)

    def tau_of(s):
        return initial.tau + direction * s

    band, esc = cfg.y_axis_band, cfg.escape_threshold

    def squares(fn):
        # numpy's ``**`` overflows to inf where the float one raises
        def g(y, Y):
            try:
                return fn(y, Y)
            except OverflowError:
                return math.inf
        return g

    # (kind, aux, event) for the events of every segment; captures are
    # added per segment since one can be disabled
    fixed = []
    if record_y_zero:
        fixed.append(("y_zero", None, _SEvent(lambda y, Y: y)))
    if section_y is not None:
        fixed.append(("section", None, _SEvent(lambda y, Y: y - section_y)))
    fixed.append(("band", +1, _SEvent(lambda y, Y: Y - band * max(1.0, abs(y)), -1, True)))
    fixed.append(("band", -1, _SEvent(lambda y, Y: Y + band * max(1.0, abs(y)), 1, True)))
    fixed.append(("escape", None, _SEvent(squares(
        lambda y, Y: (y / esc) ** 2 + (Y / esc) ** 2 - 1.0), 1, True)))
    targets = _stationary_targets(params) if capture else []
    captures = []
    for pid, (my, mY) in targets:
        rad = cfg.capture_radius * math.hypot(my, mY)
        captures.append(("capture", pid, _SEvent(squares(
            lambda y, Y, _my=my, _mY=mY, _r=rad: (y - _my) ** 2 + (Y - _mY) ** 2 - _r ** 2),
            -1, True)))
    if capture:
        orad = cfg.origin_radius
        captures.append(("origin", None, _SEvent(squares(
            lambda y, Y: y ** 2 + Y ** 2 - orad ** 2), -1, True)))

    taus: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    events: list[Event] = []
    termination = "time_span"
    stats = {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}

    s_now = 0.0
    y, Y = float(initial.y), float(initial.Y)
    disabled_capture: Optional[str] = None
    att_dir = _m_ell_attracting_direction(params)

    while True:
        # --- possible immediate band crossing
        bw = _band_width(y, params, cfg)
        if 0.0 < abs(Y) <= bw * (1.0 + 1e-6):
            v = f(y, Y)[1]
            if v * (-Y) > 0.0:  # moving toward the axis
                t_arr, y_arr, Y_arr, ev, ok = _cross_axis(
                    y, Y, tau_of(s_now), direction, params, cfg)
                if ok:
                    taus.append(t_arr)
                    ys_parts.append(np.vstack([y_arr, Y_arr]))
                    events.append(ev)
                    s_now = direction * (float(t_arr[-1]) - initial.tau)
                    y, Y = float(y_arr[-1]), float(Y_arr[-1])
                    if s_now >= span:
                        termination = "time_span"
                        break
                    continue
                else:
                    # transversality failed: the orbit is heading into the
                    # origin.  On the sigma ~ eps diagonal this is the
                    # double-zero contact (w and w' vanish together at a
                    # finite radius); otherwise leave it flagged for the
                    # asymptotic classifier.
                    tau_here = tau_of(s_now)
                    st = PhaseState(tau_here, y, Y)
                    fy, fY = f(y, Y)  # direction-signed
                    inward = (y * fy + Y * fY) < 0.0
                    sigma = Y / y if y != 0.0 else math.inf
                    if math.hypot(y, Y) <= 1e-5 and inward \
                            and abs(sigma - eps) < 0.25:
                        events.append(Event("double_zero_capture", tau_here, st))
                        termination = "captured:origin"
                    else:
                        termination = "origin_flagged"
                    break

        specs = fixed + [c for c in captures
                         if c[0] != "capture" or c[1] != disabled_capture]
        seg = _rk45_segment(f, s_now, span, y, Y, cfg.rel_tol, cfg.abs_tol,
                            cfg.max_step, [sp[2] for sp in specs], stats,
                            cfg.max_steps, tau_of)
        taus.append(initial.tau + direction * np.array(seg.t))
        ys_parts.append(np.array([seg.y, seg.Y]))

        # record non-terminal events in time order
        nonterm = []
        for i, s_e, y_e, Y_e in seg.hits:
            tag = specs[i][0]
            if tag == "y_zero":
                nonterm.append(Event("y_zero_crossing", tau_of(s_e),
                                     PhaseState(tau_of(s_e), 0.0, Y_e)))
            elif tag == "section":
                nonterm.append(Event("section_crossing", tau_of(s_e),
                                     PhaseState(tau_of(s_e), y_e, Y_e)))
        nonterm.sort(key=lambda e: direction * e.time)
        events.extend(nonterm)

        if seg.terminal is None:
            termination = "time_span"
            break

        tag, aux, _ = specs[seg.terminal]
        s_now, y, Y = seg.t[-1], seg.y[-1], seg.Y[-1]
        tau_here = tau_of(s_now)
        if disabled_capture is not None:
            # re-enable once we are well clear of the point
            for pid, (my, mY) in targets:
                if pid == disabled_capture:
                    if math.hypot(y - my, Y - mY) > \
                            2.0 * cfg.capture_radius * math.hypot(my, mY):
                        disabled_capture = None

        if tag == "escape":
            events.append(Event("escape_to_infinity", tau_here,
                                PhaseState(tau_here, y, Y)))
            termination = "escape"
            break
        if tag == "band":
            # loop around: the band crossing happens at the top
            if s_now >= span:
                termination = "time_span"
                break
            continue
        if tag == "capture":
            if att_dir == direction:
                events.append(Event("stationary_capture", tau_here,
                                    PhaseState(tau_here, y, Y)))
                termination = f"captured:{aux}"
                break
            disabled_capture = aux
            continue
        # tag == "origin"
        st = PhaseState(tau_here, y, Y)
        sigma = Y / y if y != 0.0 else math.inf
        fy, fY = f(y, Y)  # already direction-signed
        moving_in = (y * fy + Y * fY) < 0.0
        if abs(sigma - eps) < 0.25 and moving_in:
            events.append(Event("double_zero_capture", tau_here, st))
            termination = "captured:origin"
        else:
            events.append(Event("stationary_capture", tau_here, st))
            termination = "origin_flagged"
        break

    tau_all = np.concatenate(taus)
    ys_all = np.hstack(ys_parts)
    # drop duplicated segment-junction samples
    keep = np.ones(tau_all.size, dtype=bool)
    keep[1:] = np.diff(direction * tau_all) > 0.0
    traj = Trajectory("S", params, tau_all[keep], ys_all[:, keep], events,
                      termination, direction)
    traj.meta["stats"] = stats
    return traj


# ---------------------------------------------------------------------------
# generic chart integration (used by the shooting constructions)


@dataclass(frozen=True)
class EventSpec:
    """A caller-supplied event: fn(t, u) with sign change at the event."""

    kind: str
    fn: Callable
    terminal: bool = False
    direction: int = 0


def integrate_chart(chart_id: str, coords0, params: ProblemParams,
                    rhs: Callable, t_span, config: Optional[IntegrationConfig] = None,
                    event_specs: Sequence[EventSpec] = (),
                    max_step: Optional[float] = None,
                    t0: float = 0.0) -> Trajectory:
    """Plain RK45 integration of an arbitrary 2D chart field ``rhs(t, u)``.

    Samples are the accepted steps; events are located by the solver.  The
    returned Trajectory carries chart coordinates in ``ys`` and the chart
    time in ``tau``.
    """
    cfg = config or IntegrationConfig()
    fns = []
    for spec in event_specs:
        g = spec.fn
        g.terminal = spec.terminal
        if spec.direction:
            g.direction = spec.direction
        fns.append(g)
    sol = solve_ivp(rhs, t_span, np.asarray(coords0, dtype=float), method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    max_step=(max_step if max_step is not None else np.inf),
                    events=fns, dense_output=True)
    if not sol.success and sol.status != 1:
        raise IntegrationError(f"chart {chart_id} integration failed: {sol.message}")
    events = []
    for spec, te, ue in zip(event_specs, sol.t_events, sol.y_events):
        for t_e, u_e in zip(te, ue):
            events.append(Event(spec.kind, float(t_e),
                                PhaseState(float(t_e), float(u_e[0]), float(u_e[1]))))
    events.sort(key=lambda e: e.time if t_span[1] >= t_span[0] else -e.time)
    direction = 1 if t_span[1] >= t_span[0] else -1
    traj = Trajectory(chart_id, params, sol.t + t0, sol.y, events,
                      "event" if sol.status == 1 else "time_span", direction)
    traj.meta["ode_solution"] = sol
    return traj


def integrate(chart_id: str, initial, params: ProblemParams,
              direction: int = 1,
              config: Optional[IntegrationConfig] = None,
              **kwargs) -> Trajectory:
    """Chart dispatcher.  For chart S, ``initial`` is a PhaseState and the
    full event machinery applies.  Other charts integrate their printed
    fields without axis handling (their fields are smooth on their
    domains); ``kwargs`` pass through to :func:`integrate_chart`."""
    from .systems import field as chart_field

    if chart_id == "S":
        return integrate_s(initial, params, direction, config, **kwargs)
    cfg = config or IntegrationConfig()
    span = kwargs.pop("t_span", (0.0, direction * cfg.max_time_span))

    def rhs(t, u):
        return chart_field(chart_id, u, params)

    coords = initial.coords if hasattr(initial, "coords") else initial
    return integrate_chart(chart_id, coords, params, rhs, span, cfg, **kwargs)
