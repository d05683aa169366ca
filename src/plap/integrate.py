"""Adaptive integration of the phase-plane charts with event detection.

The S-chart field is only Hölder continuous on the axis {Y = 0} (the term
phi(Y) = sign(Y)|Y|^{1/(p-1)} with p > 2).  Error control of an explicit
Runge-Kutta pair degrades there, so inside a thin band |Y| < delta the
integrator exchanges the roles of time and Y: with y bounded away from 0
the axis is crossed transversally (dY/dtau = eps alpha y + O(|Y|^{1/(p-1)})),
and

    dy/dY  = (-gamma y - phi(Y)) / (-(gamma+N) Y + eps(alpha y - phi(Y)))
    dtau/dY =                1.0 / (-(gamma+N) Y + eps(alpha y - phi(Y)))

is smooth in y and integrable in Y across 0.  The solve takes one RK45 step
to the axis and one beyond it, so no stage straddles the Hölder point; a
dY/dtau that vanishes or turns in the band abandons it.  The crossing is
a ``Y_zero_crossing`` event, and the stepper resumes on the far side.

Between the bands, chart S is integrated by a scalar Dormand-Prince 5(4)
stepper on Python floats (``_rk45_segment``).  It follows scipy's RK45
rule step for step, up to rounding: the same initial step, tableau, error
norm, step controller and quartic dense output, with events located by
Brent's method on the dense output.  It counts every attempted step
against ``IntegrationConfig.max_steps`` and stops at the first non-finite
state.  The launch phases in charts Q and P (:mod:`plap.trajectories`)
run on the same stepper; the band crossings and the other charts of
``integrate`` run through ``solve_ivp``'s RK45.

``integrate_s`` builds one table of S-chart events per call, each row an
expression in (y, Y) with a crossing direction.  One generated function
per table shape evaluates every row at once and runs each row's crossing
test with its direction written in; the stepper calls it once per
accepted step.  A row fires when its value leaves a strict sign for zero
or the other sign, so an orbit that starts on a zero does not cross it
there.  Every zero of y is recorded.  The terminal rows end a stepper
segment, and one rule per row kind decides what follows: the axis band
hands over to the crossing chart, the escape threshold ends the orbit,
the capture disc of M_ell or minus_M_ell ends it only in the tau
direction in which that point attracts (the disc is not armed in the
other), and the origin disc ends it as a double-zero contact when the
orbit moves inward along sigma ~ eps, flagged otherwise.  An optional
section row ends the orbit after the step of its first return to the
line {y = section_y}, which is all a Poincaré return map reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from .params import ProblemParams, derive_constants, m_ell_point
from .systems import PhaseState, _s_rhs, field, phi_Y


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
        for name in ("abs_tol", "rel_tol"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"IntegrationConfig.{name} must be finite")
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
    meta: dict = dc_field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.tau.size

    def profile(self):
        """Arrays (r, w, dw) for S-chart trajectories.  Past tau ~ 709.78,
        r = e^tau overflows to inf (and w, dw to inf or nan) without a
        warning; the writers render those as ``null``."""
        if self.chart_id != "S":
            raise ValueError("profile() requires an S-chart trajectory")
        dc = derive_constants(self.params)
        with np.errstate(over="ignore", invalid="ignore"):
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
# S-chart integration


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


def _band_width(y: float, params: ProblemParams, cfg: IntegrationConfig) -> float:
    """Half-width of the axis band at local ordinate y.

    Scaled so that the drift |eps alpha y| dominates |phi(Y)| on the band
    boundary, which is the transversality estimate the crossing chart
    relies on."""
    return cfg.y_axis_band * max(1.0, abs(y))


def _cross_axis(y0: float, Y0: float, tau0: float,
                params: ProblemParams, cfg: IntegrationConfig):
    """Integrate across {Y = 0} using Y as the independent variable; over
    (Y0, -Y0) with ``max_step`` |Y0|, the first step ends exactly on the axis.

    Returns (samples_tau, samples_y, samples_Y, event), the event marking
    the exact crossing, or None when the crossing is degenerate (y too
    small for the transversality estimate, or dY/dtau vanishing or turning
    in the band) or the solve fails."""
    f = _s_rhs(params, 1)

    # transversality guard: |dY/dtau| must dominate the band scale
    # |phi(Y0)| = |f(0, Y0)[0]|
    if abs(f(y0, 0.0)[1]) < 2.0 * abs(f(0.0, Y0)[0]):
        return None
    den0 = f(y0, Y0)[1]

    def rhs(Y, u):
        f1, den = f(float(u[0]), float(Y))
        if not den * den0 > 0.0:
            raise ZeroDivisionError  # dY/dtau vanished or turned
        return [f1 / den, 1.0 / den]

    try:
        sol = solve_ivp(rhs, (Y0, -Y0), [y0, tau0], method="RK45",
                        rtol=min(cfg.rel_tol, 1e-10), atol=cfg.abs_tol,
                        dense_output=True, max_step=abs(Y0))
    except ZeroDivisionError:
        return None
    if not sol.success:
        return None
    y_mid, tau_mid = sol.sol(0.0)
    ev = Event("Y_zero_crossing", float(tau_mid), PhaseState(float(tau_mid), float(y_mid), 0.0))
    return sol.y[1], sol.y[0], sol.t, ev


# ---------------------------------------------------------------------------
# scalar Dormand-Prince 5(4) stepper for chart S

# scipy's Dormand-Prince 5(4) tableau, error weights and quartic dense output
# (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4-II.6) as floats; the
# second stage has no weight in the solution, the error or the dense output.
_A, _B, _E = RK45.A.tolist(), RK45.B.tolist(), RK45.E.tolist()
# the stage coefficients, weights and error weights in the order
# _rk45_segment unpacks them
_TABLEAU = (_A[1][0], *_A[2][:2], *_A[3][:3], *_A[4][:4], *_A[5],
            _B[0], *_B[2:], _E[0], *_E[2:])
_P = [row if any(row) else None for row in RK45.P.tolist()]

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXP = -1 / (RK45.error_estimator_order + 1)
_SQRT2 = 2 ** 0.5           # RMS norm of a 2-vector: sqrt(a*a + b*b) / sqrt(2)
_ROOT_TOL = 4 * float(np.finfo(float).eps)
# max(1.0, abs(y)) of the band rows as comparisons, with the same value for
# every float y (NaN, +-0 and +-1 give 1.0) and no builtin calls per step
_BAND_SCALE = "(y if y > 1.0 else -y if y < -1.0 else 1.0)"


@dataclass(frozen=True)
class _SEvent:
    """A row of an event table of the scalar stepper (chart S, or a Q or P
    launch with its coordinates as y, Y): the expression ``expr`` in y, Y
    and the table's constants changes sign at the event.  ``direction`` is
    +1 / -1 for upward / downward crossings only, 0 for both.  A row fires
    on a step from a < 0 to b >= 0 (upward) or from a > 0 to b <= 0
    (downward), so a start on a zero is not a crossing and a step that
    ends on one counts it once.  A terminal row ends the segment at its
    root; a ``step_end`` row ends it after the step in which it fires (at
    the terminal root when one comes first in that step).  ``kind`` is
    what :func:`integrate_s` makes of a hit: the recorded event's kind for
    a non-terminal row, the ending rule for a terminal one."""

    expr: str
    direction: int = 0
    terminal: bool = False
    kind: str = ""
    step_end: bool = False


def _crossed(i: int, direction: int) -> str:
    """The test that row ``i`` (of ``direction``) fired on the step from
    its value ``a{i}`` to ``b{i}``: the rule :class:`_SEvent` states."""
    up, down = f"a{i} < 0.0 <= b{i}", f"a{i} > 0.0 >= b{i}"
    return up if direction > 0 else down if direction < 0 else f"({up} or {down})"


@functools.lru_cache(maxsize=64)
def _values_code(rows: tuple):
    """The compiled definitions of ``values`` and ``advance`` for one tuple
    of (expression, direction) rows; a table's shape, not its constants,
    decides it."""
    body = "(" + "".join(f"{e}, " for e, _ in rows) + ")"
    a = "".join(f"a{i}, " for i in range(len(rows)))
    b = "".join(f"b{i}, " for i in range(len(rows)))
    tests = [_crossed(i, d) for i, (_, d) in enumerate(rows)]
    return compile("def values(y, Y):\n"
                   "    try:\n"
                   f"        return {body}\n"
                   "    except OverflowError:\n"
                   "        y, Y = np.float64(y), np.float64(Y)\n"
                   "        with np.errstate(over='ignore'):\n"
                   f"            return tuple(map(float, {body}))\n"
                   "def advance(y, Y, g):\n"
                   f"    ({a}) = g\n"
                   "    try:\n"
                   f"        g = ({b}) = {body}\n"
                   "    except OverflowError:\n"
                   f"        g = ({b}) = values(y, Y)\n"
                   f"    if {' or '.join(tests) or 'False'}:\n"
                   "        return g, [i for i, hit in enumerate(("
                   f"{''.join(t + ', ' for t in tests)})) if hit]\n"
                   "    return g, None\n",
                   "<event values>", "exec")


def _event_values(events: Sequence[_SEvent], **consts):
    """Two functions of one table, from one compiled code object; ``consts``
    binds the names the rows use besides y and Y.

    ``values(y, Y)`` returns every row's value, in table order, from a
    single call.  ``advance(y, Y, g)`` is what the stepper calls once per
    accepted step, with ``g`` the values at the step's start: it returns
    the values at (y, Y) and the rows that fired on the step, in index
    order, or None when none fired; each row's crossing test is unrolled
    with its direction built in.

    The rows keep the float ``**`` of their expressions (``x ** 2`` and
    ``x * x`` round differently for about 1 in 1,000 floats).  Where the
    float ``**`` raises ``OverflowError``, the rows are evaluated again on
    numpy scalars, whose ``**`` is the same C ``pow`` but overflows to
    inf, so only the overflowing rows read inf."""
    namespace = {"np": np, **consts}
    exec(_values_code(tuple((ev.expr, ev.direction) for ev in events)), namespace)
    return namespace["values"], namespace["advance"]


@dataclass
class _Segment:
    """One solver start: samples in time order, the located events as
    (event index, t, y, Y) in recording order, and the index of the
    terminal or ``step_end`` row that ended it (None when it reached
    ``t_bound``)."""

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


def _new_stats() -> dict:
    """Zeroed work counters of one orbit or launch (:func:`_rk45_segment`)."""
    return {"rhs_evals": 0, "accepted": 0, "rejected": 0, "segments": 0}


def _rk45_segment(fun, t0: float, t_bound: float, y0: float, Y0: float,
                  rtol: float, atol: float, max_step: float,
                  events: Sequence[_SEvent],
                  values: Callable[[float, float], tuple],
                  advance: Callable[[float, float, tuple], tuple],
                  stats: dict, max_steps: int,
                  tau_of: Callable[[float], float] = float) -> _Segment:
    """Integrate the autonomous 2-D field ``fun(y, Y) -> (dy, dY)`` from
    ``t0`` to ``t_bound >= t0`` by scipy's RK45 rule on Python floats.

    One call does what one ``solve_ivp(method="RK45", rtol=..., atol=...,
    max_step=..., events=...)`` call does: the same initial step selection,
    tableau, RMS error norm with scale ``atol + max(|y|, |y_new|) rtol``,
    step controller (safety 0.9, factors 0.2 to 10, no growth right after a
    rejection), events located by ``brentq`` on the dense output, terminal
    events ordered in time, and the last sample at the terminal event.
    ``values`` and ``advance`` (from :func:`_event_values`) evaluate every
    row of ``events`` at once: ``advance`` once per accepted step, with the
    crossing test, and ``values`` at the start and inside ``brentq``.
    The arithmetic matches scipy's up to rounding: scipy's sums go through
    BLAS, which fuses multiply-adds.  ``stats`` accumulates ``rhs_evals``,
    ``accepted``, ``rejected`` and ``segments`` over the calls that share
    it; every attempted step counts against ``max_steps``.  A non-finite
    field or state raises :class:`IntegrationError` at once; ``tau_of``
    maps t to tau there.
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

        (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64,
         A65, B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7) = _TABLEAU
        safety, min_factor, max_factor = _SAFETY, _MIN_FACTOR, _MAX_FACTOR
        err_exp, sqrt2, sqrt, isfinite = _ERR_EXP, _SQRT2, math.sqrt, math.isfinite
        nextafter, inf = math.nextafter, math.inf
        g = values(y, Y)
        budget = max_steps - stats["accepted"] - stats["rejected"]
        t = t0
        while t < t_bound:
            # comparisons in place of min() and max(), with the same values
            min_step = 10 * (nextafter(t, inf) - t)
            if min_step > h_abs:
                h_abs = min_step
            if max_step < h_abs:
                h_abs = max_step
            ay, aY = abs(y), abs(Y)
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
                k2y, k2Y = fun(y + fy * A21 * h, Y + fY * A21 * h)
                k3y, k3Y = fun(y + (fy * A31 + k2y * A32) * h,
                               Y + (fY * A31 + k2Y * A32) * h)
                k4y, k4Y = fun(y + (fy * A41 + k2y * A42 + k3y * A43) * h,
                               Y + (fY * A41 + k2Y * A42 + k3Y * A43) * h)
                k5y, k5Y = fun(
                    y + (fy * A51 + k2y * A52 + k3y * A53 + k4y * A54) * h,
                    Y + (fY * A51 + k2Y * A52 + k3Y * A53 + k4Y * A54) * h)
                k6y, k6Y = fun(
                    y + (fy * A61 + k2y * A62 + k3y * A63 + k4y * A64
                         + k5y * A65) * h,
                    Y + (fY * A61 + k2Y * A62 + k3Y * A63 + k4Y * A64
                         + k5Y * A65) * h)
                y_new = y + h * (fy * B1 + k3y * B3 + k4y * B4 + k5y * B5
                                 + k6y * B6)
                Y_new = Y + h * (fY * B1 + k3Y * B3 + k4Y * B4 + k5Y * B5
                                 + k6Y * B6)
                k7y, k7Y = fun(y_new, Y_new)
                nfev += 6
                ny, nY = abs(y_new), abs(Y_new)
                ey = ((fy * E1 + k3y * E3 + k4y * E4 + k5y * E5 + k6y * E6
                       + k7y * E7) * h / (atol + (ny if ny > ay else ay) * rtol))
                eY = ((fY * E1 + k3Y * E3 + k4Y * E4 + k5Y * E5 + k6Y * E6
                       + k7Y * E7) * h / (atol + (nY if nY > aY else aY) * rtol))
                err = sqrt(ey * ey + eY * eY) / sqrt2
                if not (isfinite(err) and isfinite(y_new) and isfinite(Y_new)):
                    n_rej += 1
                    raise IntegrationError(f"non-finite state near tau={tau_of(t)}")
                if err < 1:
                    f = safety * err ** err_exp if err else max_factor
                    factor = f if f < max_factor else max_factor
                    if rejected and not factor < 1:
                        factor = 1
                    h_abs *= factor
                    n_acc += 1
                    break
                f = safety * err ** err_exp
                h_abs *= f if f > min_factor else min_factor
                rejected = True
                n_rej += 1

            g, active = advance(y_new, Y_new, g)
            if active is not None:
                sol = _dense(t, h, y, Y,
                             ((fy, fY), (k2y, k2Y), (k3y, k3Y), (k4y, k4Y),
                              (k5y, k5Y), (k6y, k6Y), (k7y, k7Y)))
                found = [(i, brentq(lambda s, i=i: values(*sol(s))[i], t, t_new,
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
                    t_new = found[-1][1]
                    y_new, Y_new = sol(t_new)
                terminal = next((i for i, _ in found if events[i].step_end),
                                terminal)
            t, y, Y, fy, fY = t_new, y_new, Y_new, k7y, k7Y
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


def integrate_s(initial: PhaseState, params: ProblemParams,
                direction: int = 1,
                config: Optional[IntegrationConfig] = None,
                *,
                capture: bool = True,
                section_y: Optional[float] = None,
                tau_span: Optional[float] = None) -> Trajectory:
    """Integrate chart S from ``initial`` in the given tau direction.

    Every zero of y is a ``y_zero_crossing`` event.  With ``section_y``,
    the orbit ends at the end of the accepted step in which y crosses the
    line {y = section_y} the way it leaves ``initial`` (termination
    ``"section"``, the crossing recorded as a ``section_crossing`` event);
    the step is not cut at the crossing, so the samples are a prefix of
    the same call's samples without ``section_y``.  With ``capture``, the
    orbit ends in the capture disc of M_ell or minus_M_ell when that point
    attracts in this direction, and in the origin disc; escape terminates
    at the configured threshold.  The returned trajectory's
    ``meta["stats"]`` counts the stepper's work: ``rhs_evals``,
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

    def origin_end(y, Y):
        # moving inward on the sigma ~ eps diagonal: the double-zero
        # contact, where w and w' vanish together at a finite radius
        fy, fY = f(y, Y)  # direction-signed
        sigma = Y / y if y != 0.0 else math.inf
        return (y * fy + Y * fY) < 0.0 and abs(sigma - eps) < 0.25

    y, Y = float(initial.y), float(initial.Y)
    consts = {"band": cfg.y_axis_band, "esc": cfg.escape_threshold}
    table = [_SEvent("y", kind="y_zero_crossing")]
    if section_y is not None:
        # the return to the line, crossed the way the orbit leaves it
        leaves = f(y, Y)[0]
        consts["section_y"] = section_y
        table.append(_SEvent("y - section_y", (leaves > 0) - (leaves < 0),
                             kind="section_crossing", step_end=True))
    table += [_SEvent(f"Y - band * {_BAND_SCALE}", -1, True, "band"),
              _SEvent(f"Y + band * {_BAND_SCALE}", 1, True, "band"),
              _SEvent("(y / esc) ** 2 + (Y / esc) ** 2 - 1.0", 1, True, "escape")]
    m = m_ell_point(params)
    if capture and m is not None and _m_ell_attracting_direction(params) == direction:
        consts.update(my=m[0], mY=m[1], rad=cfg.capture_radius * math.hypot(*m))
        table += [_SEvent("(y - my) ** 2 + (Y - mY) ** 2 - rad ** 2",
                          -1, True, "M_ell"),
                  _SEvent("(y + my) ** 2 + (Y + mY) ** 2 - rad ** 2",
                          -1, True, "minus_M_ell")]
    if capture:
        consts["orad"] = cfg.origin_radius
        table.append(_SEvent("y ** 2 + Y ** 2 - orad ** 2", -1, True, "origin"))
    values, advance = _event_values(table, **consts)

    taus: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    events: list[Event] = []
    stats = _new_stats()

    s_now = 0.0
    while True:
        # on the band edge and moving toward the axis: cross it over Y
        if 0.0 < abs(Y) <= _band_width(y, params, cfg) * (1.0 + 1e-6) \
                and f(y, Y)[1] * (-Y) > 0.0:
            crossing = _cross_axis(y, Y, tau_of(s_now), params, cfg)
            if crossing is None:
                # transversality failed: the orbit is heading into the
                # origin; off the double-zero contact it is left flagged
                # for the asymptotic classifier
                tau_here = tau_of(s_now)
                if math.hypot(y, Y) <= 1e-5 and origin_end(y, Y):
                    events.append(Event("double_zero_capture", tau_here,
                                        PhaseState(tau_here, y, Y)))
                    termination = "captured:origin"
                else:
                    termination = "origin_flagged"
                break
            t_arr, y_arr, Y_arr, ev = crossing
            taus.append(t_arr)
            ys_parts.append(np.vstack([y_arr, Y_arr]))
            events.append(ev)
            s_now = direction * (float(t_arr[-1]) - initial.tau)
            # the tau the next segment starts at, so the junction dedup
            # drops its repeated first sample
            t_arr[-1] = tau_of(s_now)
            y, Y = float(y_arr[-1]), float(Y_arr[-1])
            if s_now >= span:
                termination = "time_span"
                break
            continue

        seg = _rk45_segment(f, s_now, span, y, Y, cfg.rel_tol, cfg.abs_tol,
                            cfg.max_step, table, values, advance, stats,
                            cfg.max_steps, tau_of)
        taus.append(initial.tau + direction * np.array(seg.t))
        ys_parts.append(np.array([seg.y, seg.Y]))

        # record the non-terminal hits in time order
        recorded = []
        for i, s_e, y_e, Y_e in seg.hits:
            if not table[i].terminal:
                kind, tau_e = table[i].kind, tau_of(s_e)
                recorded.append(Event(kind, tau_e, PhaseState(
                    tau_e, 0.0 if kind == "y_zero_crossing" else y_e, Y_e)))
        recorded.sort(key=lambda e: direction * e.time)
        events.extend(recorded)

        if seg.terminal is None:
            termination = "time_span"
            break
        kind = table[seg.terminal].kind
        if kind == "section_crossing":
            termination = "section"
            break
        s_now, y, Y = seg.t[-1], seg.y[-1], seg.Y[-1]
        if kind == "band":
            # loop around: the band crossing happens at the top
            if s_now >= span:
                termination = "time_span"
                break
            continue
        tau_here = tau_of(s_now)
        if kind == "escape":
            ev_kind, termination = "escape_to_infinity", "escape"
        elif kind != "origin":
            ev_kind, termination = "stationary_capture", f"captured:{kind}"
        elif origin_end(y, Y):
            ev_kind, termination = "double_zero_capture", "captured:origin"
        else:
            ev_kind, termination = "stationary_capture", "origin_flagged"
        events.append(Event(ev_kind, tau_here, PhaseState(tau_here, y, Y)))
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
# chart dispatch


def integrate(chart_id: str, initial, params: ProblemParams,
              direction: int = 1,
              config: Optional[IntegrationConfig] = None,
              **kwargs) -> Trajectory:
    """Chart dispatcher.  For chart S, ``initial`` is a PhaseState, the
    full event machinery applies and ``kwargs`` pass through to
    :func:`integrate_s`.  Other charts integrate their printed fields with
    plain RK45 over ``t_span`` (default: ``max_time_span`` in
    ``direction``), without axis handling or events (their fields are
    smooth on their domains); the samples are the chart coordinates."""
    if chart_id == "S":
        return integrate_s(initial, params, direction, config, **kwargs)
    cfg = config or IntegrationConfig()
    span = kwargs.pop("t_span", (0.0, direction * cfg.max_time_span))
    if kwargs:
        raise TypeError(f"chart {chart_id} takes only t_span, got {sorted(kwargs)}")
    coords = initial.coords if hasattr(initial, "coords") else initial
    sol = solve_ivp(lambda t, u: field(chart_id, u, params), span,
                    np.asarray(coords, dtype=float), method="RK45",
                    rtol=cfg.rel_tol, atol=cfg.abs_tol)
    if not sol.success:
        raise IntegrationError(f"chart {chart_id} integration failed: {sol.message}")
    return Trajectory(chart_id, params, sol.t, sol.y, [], "time_span",
                      1 if span[1] >= span[0] else -1)
