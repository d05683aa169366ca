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
a ``Y_zero_crossing`` event, the end state of the step on the axis (the
solve's dense output at Y = 0 when its first step is rejected), and the
stepper resumes on the far side.

Between the bands, chart S is integrated by a scalar Dormand-Prince 5(4)
stepper on Python floats (``_rk45_segment``), compiled once per field
text with the field written into its loop.  It follows scipy's RK45 rule
step for step, up to rounding: the same initial step, tableau, error
norm, step controller and quartic dense output, with events located by
Brent's method on the dense output.  It counts every attempted step
against ``IntegrationConfig.max_steps`` and stops at the first non-finite
state.  The launch phases in charts Q and P and the T_eps launch in
chart R, whose field reads its time |g| (:mod:`plap.trajectories`), and
the connection function's double-zero separatrix on chart R_beta's slope
(:mod:`plap.analysis`) run on the same stepper; the band crossings run
through ``solve_ivp``'s RK45.  ``integrate`` integrates chart S only.

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
import re
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from .params import ParameterError, ProblemParams, derive_constants, m_ell_point
from .systems import _S_BACK, _S_TEXT, PhaseState, _rhs, phi_Y


class IntegrationError(RuntimeError):
    """Step-size underflow, NaN states, or step budget exhaustion."""


class _BudgetExhausted(IntegrationError):
    """The stepper's ``max_steps`` attempts are spent."""


@dataclass
class IntegrationConfig:
    """The four settings of every integration: the tolerances, the tau span
    and the step budget (``PLAP_CONFIG``, ``--tol`` and ``--tau-max`` set
    them).  The guards around chart S's Hölder axis and its non-Lipschitz
    origin are not settings but the module constants ``AXIS_BAND``,
    ``MAX_STEP``, ``ESCAPE_RADIUS``, ``CAPTURE_RADIUS`` and
    ``ORIGIN_RADIUS``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_time_span: float = 200.0
    max_steps: int = 10 ** 6

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "max_time_span"):
            if not getattr(self, name) > 0:  # rejects NaN too
                raise ValueError(f"IntegrationConfig.{name} must be positive")
        for name in ("abs_tol", "rel_tol"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"IntegrationConfig.{name} must be finite")
        if not (self.max_steps >= 1 and self.max_steps % 1 == 0):  # rejects inf, NaN
            raise ValueError("IntegrationConfig.max_steps must be a whole number >= 1")


# The fixed guards of chart S: the axis band's half-width relative to
# max(1, |y|), the stepper's largest step, the escape radius, the capture
# disc's radius relative to |M_ell|, and the origin disc's radius.
AXIS_BAND, MAX_STEP, ESCAPE_RADIUS, CAPTURE_RADIUS, ORIGIN_RADIUS = 1e-6, 0.1, 1e12, 1e-6, 1e-8
# An orbit refused at the axis (or flagged at the origin) this close to the
# origin has reached it: ``captured:origin`` on the double-zero contact,
# and the ``origin`` label of :func:`plap.analysis.asymptotic_label`.
NEAR_ORIGIN = 1e-5


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
    samples are stored in integration order.  The sample rows are chart S's
    (y, Y).
    """

    params: ProblemParams
    tau: np.ndarray
    ys: np.ndarray  # shape (2, n)
    events: list[Event]
    termination: str
    direction: int
    meta: dict = dc_field(default_factory=dict)

    def profile(self):
        """Arrays (r, w, dw) of the samples.  Past tau ~ 709.78, r = e^tau
        overflows to inf (and w, dw to inf or nan) without a warning; the
        writers render those as ``null``."""
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

    def negated(self) -> "Trajectory":
        """The mirror orbit (y, Y) -> (-y, -Y).

        The S field, its event table and the stepper are odd in (y, Y), so
        for any :class:`IntegrationConfig` this equals :func:`integrate_s`
        from the negated start (without ``section_y``) up to the sign of
        exact zeros: the same tau and direction, -ys, each event of the
        same kind and time at the negated state, M_ell and minus_M_ell
        swapped in the termination, and a copy of ``meta["stats"]``."""
        swap = {"captured:M_ell": "captured:minus_M_ell",
                "captured:minus_M_ell": "captured:M_ell"}
        events = [Event(e.kind, e.time, PhaseState(e.state.tau, -e.state.y, -e.state.Y))
                  for e in self.events]
        meta = {"stats": dict(self.meta["stats"])} if "stats" in self.meta else {}
        return Trajectory(self.params, self.tau.copy(), -self.ys, events,
                          swap.get(self.termination, self.termination), self.direction, meta)


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


def _cross_axis(y0: float, Y0: float, tau0: float,
                params: ProblemParams, cfg: IntegrationConfig):
    """Integrate across {Y = 0} using Y as the independent variable; over
    (Y0, -Y0) with ``first_step`` and ``max_step`` |Y0|, one solve with a
    dense output: the crossing is the end state of the step that ends on
    the axis, or the dense output at Y = 0 when the first step is rejected.

    Returns (samples_tau, samples_y, samples_Y, event), the event marking
    the exact crossing, or None when the crossing is degenerate (y too
    small for the transversality estimate, or dY/dtau vanishing or turning
    in the band) or the solve fails."""
    f = _rhs(params, _S_TEXT)

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
                        first_step=abs(Y0), max_step=abs(Y0), dense_output=True)
    except ZeroDivisionError:
        return None
    if not sol.success:
        return None
    y_mid, tau_mid = sol.y[:, 1] if sol.t[1] == 0.0 else sol.sol(0.0)
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
# the dense output's P by powers of x, over stages 1 and 3 to 7
_PT = [(c[0], *c[2:]) for c in zip(*RK45.P.tolist())]

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
def _values_code(rows: tuple, time: str = ""):
    """The compiled definitions of ``values``, ``advance`` and ``roots``
    for one tuple of (expression, direction) rows and the name of their
    time, if they read one; a table's shape, not its constants, decides
    it."""
    body = "(" + "".join(f"{e}, " for e, _ in rows) + ")"
    a = "".join(f"a{i}, " for i in range(len(rows)))
    b = "".join(f"b{i}, " for i in range(len(rows)))
    tests = [_crossed(i, d) for i, (_, d) in enumerate(rows)]
    at = f"{time}, " if time else ""
    return compile(f"def values({at}y, Y):\n"
                   "    try:\n"
                   f"        return {body}\n"
                   "    except OverflowError:\n"
                   "        y, Y = np.float64(y), np.float64(Y)\n"
                   "        with np.errstate(over='ignore'):\n"
                   f"            return tuple(map(float, {body}))\n"
                   + "".join(f"def root{i}({at}y, Y):\n    try:\n        return {e}\n"
                             f"    except OverflowError:\n        return values({at}y, Y)[{i}]\n"
                             for i, (e, _) in enumerate(rows))
                   + f"roots = ({''.join(f'root{i}, ' for i in range(len(rows)))})\n"
                   f"def advance({at}y, Y, g):\n"
                   f"    ({a}) = g\n"
                   "    try:\n"
                   f"        g = ({b}) = {body}\n"
                   "    except OverflowError:\n"
                   f"        g = ({b}) = values({at}y, Y)\n"
                   f"    if {' or '.join(tests) or 'False'}:\n"
                   "        return g, [i for i, hit in enumerate(("
                   f"{''.join(t + ', ' for t in tests)})) if hit]\n"
                   "    return g, None\n",
                   "<event values>", "exec")


def _event_values(events: Sequence[_SEvent], time: str = "", **consts):
    """The functions of one table, from one compiled code object; ``consts``
    binds the names the rows use besides y, Y and ``time``.  A table that
    names a time (the rows of a stepper whose field reads one) takes it as
    the first argument of each function below.

    ``values(y, Y)`` returns every row's value, in table order, from a
    single call.  ``advance(y, Y, g)`` is what the stepper calls once per
    accepted step, with ``g`` the values at the step's start: it returns
    the values at (y, Y) and the rows that fired on the step, in index
    order, or None when none fired; each row's crossing test is unrolled
    with its direction built in.  ``roots[i](y, Y)`` is ``values(y,
    Y)[i]`` alone, what ``brentq`` evaluates on the row that fired.

    The rows keep the float ``**`` of their expressions (``x ** 2`` and
    ``x * x`` round differently for about 1 in 1,000 floats).  Where the
    float ``**`` raises ``OverflowError``, the rows are evaluated again on
    numpy scalars, whose ``**`` is the same C ``pow`` but overflows to
    inf, so only the overflowing rows read inf."""
    namespace = {"np": np, **consts}
    exec(_values_code(tuple((ev.expr, ev.direction) for ev in events), time), namespace)
    return namespace["values"], namespace["advance"], namespace["roots"]


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


def _dense(t_old: float, h: float, y_old: float, Y_old: float, ky, kY):
    """The quartic interpolant of one accepted step from its stages 1 and 3
    to 7 (``ky`` of y, ``kY`` of Y).  Each coefficient is the sum ``sum()``
    formed, written out: from 0.0, in stage order, zero P entries included,
    so inf and -0.0 stages give the same bits."""
    (a1, a2, a3, a4), (b1, b2, b3, b4) = (
        [0.0 + k1 * p1 + k3 * p3 + k4 * p4 + k5 * p5 + k6 * p6 + k7 * p7
         for p1, p3, p4, p5, p6, p7 in _PT]
        for k1, k3, k4, k5, k6, k7 in (ky, kY))

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


# The stepper, one template for every field (_stepper compiles it): each
# FIELD(AT(t), a, b) is written in place from the field's text, or calls a
# callable ``fun``, and CONSTS unpacks the field's constants (or ``fun``)
# to locals.  AT(t) is the time of an evaluation, scipy's node t + c_i h of
# each stage, bound to the time a field or event table names and dropped
# where they name none.  The state is (u, U), so a field's names (y, Y in
# chart S) never shadow it.
_SEGMENT = """\
def segment(field, t0, t_bound, u, U, rtol, atol, max_step, events,
            values, advance, roots, stats, max_steps, tau_of=float):
    CONSTS = field
    fu, fU = FIELD(AT(t0), u, U)
    nfev, n_acc, n_rej = 1, 0, 0
    ts, us, Us = [t0], [u], [U]
    hits, terminal = [], None
    stats["segments"] += 1
    try:
        if not (math.isfinite(fu) and math.isfinite(fU)):
            raise IntegrationError(f"non-finite field near tau={tau_of(t0)}")
        if t0 == t_bound:
            return _Segment([t0, t0], [u, u], [U, U], hits, None)

        # initial step: Hairer, Norsett & Wanner, sec. II.4
        interval = t_bound - t0
        su, sU = atol + abs(u) * rtol, atol + abs(U) * rtol
        d0 = _rms(u / su, U / sU)
        d1 = _rms(fu / su, fU / sU)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        gu, gU = FIELD(AT(t0 + h0), u + h0 * fu, U + h0 * fU)
        nfev += 1
        # h0 is 0 only when d1 overflowed, and then h1 is 0 either way
        d2 = _rms((gu - fu) / su, (gU - fU) / sU) / h0 if h0 else math.inf
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
        g = values(AT(t0), u, U)
        budget = max_steps - stats["accepted"] - stats["rejected"]
        t = t0
        while t < t_bound:
            # comparisons in place of min() and max(), with the same values
            min_step = 10 * (nextafter(t, inf) - t)
            if min_step > h_abs:
                h_abs = min_step
            if max_step < h_abs:
                h_abs = max_step
            au, aU = abs(u), abs(U)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        "integrator failure: step size below the float spacing "
                        f"near tau={tau_of(t)}")
                if n_acc + n_rej >= budget:
                    raise _BudgetExhausted("max_steps exceeded")
                t_new = t + h_abs
                if t_new > t_bound:
                    t_new = t_bound
                h = h_abs = t_new - t
                k2u, k2U = FIELD(AT(t + C2 * h), u + fu * A21 * h, U + fU * A21 * h)
                k3u, k3U = FIELD(AT(t + C3 * h), u + (fu * A31 + k2u * A32) * h,
                                 U + (fU * A31 + k2U * A32) * h)
                k4u, k4U = FIELD(AT(t + C4 * h), u + (fu * A41 + k2u * A42 + k3u * A43) * h,
                                 U + (fU * A41 + k2U * A42 + k3U * A43) * h)
                k5u, k5U = FIELD(AT(t + C5 * h),
                    u + (fu * A51 + k2u * A52 + k3u * A53 + k4u * A54) * h,
                    U + (fU * A51 + k2U * A52 + k3U * A53 + k4U * A54) * h)
                k6u, k6U = FIELD(AT(t + h),
                    u + (fu * A61 + k2u * A62 + k3u * A63 + k4u * A64
                         + k5u * A65) * h,
                    U + (fU * A61 + k2U * A62 + k3U * A63 + k4U * A64
                         + k5U * A65) * h)
                u_new = u + h * (fu * B1 + k3u * B3 + k4u * B4 + k5u * B5
                                 + k6u * B6)
                U_new = U + h * (fU * B1 + k3U * B3 + k4U * B4 + k5U * B5
                                 + k6U * B6)
                k7u, k7U = FIELD(AT(t + h), u_new, U_new)
                nfev += 6
                nu, nU = abs(u_new), abs(U_new)
                eu = ((fu * E1 + k3u * E3 + k4u * E4 + k5u * E5 + k6u * E6
                       + k7u * E7) * h / (atol + (nu if nu > au else au) * rtol))
                eU = ((fU * E1 + k3U * E3 + k4U * E4 + k5U * E5 + k6U * E6
                       + k7U * E7) * h / (atol + (nU if nU > aU else aU) * rtol))
                err = sqrt(eu * eu + eU * eU) / sqrt2
                if not (isfinite(err) and isfinite(u_new) and isfinite(U_new)):
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

            g, active = advance(AT(t_new), u_new, U_new, g)
            if active is not None:
                sol = _dense(t, h, u, U, (fu, k3u, k4u, k5u, k6u, k7u),
                             (fU, k3U, k4U, k5U, k6U, k7U))
                found = [(i, brentq(lambda s, root=roots[i]: root(AT(s), *sol(s)), t,
                                    t_new, xtol=_ROOT_TOL, rtol=_ROOT_TOL))
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
                    u_new, U_new = sol(t_new)
                terminal = next((i for i, _ in found if events[i].step_end),
                                terminal)
            t, u, U, fu, fU = t_new, u_new, U_new, k7u, k7U
            ts.append(t)
            us.append(u)
            Us.append(U)
            if terminal is not None:
                break
        return _Segment(ts, us, Us, hits, terminal)
    finally:
        stats["rhs_evals"] += nfev
        stats["accepted"] += n_acc
        stats["rejected"] += n_rej
"""
_FIELD_AT = re.compile(r"^( *)(\w+, \w+) = FIELD\(AT\(([^()]*)\), ?(.*?)\)$", re.M | re.S)
_AT = re.compile(r"AT\(([^()]*)\), ")
# the stage nodes c_i of scipy's tableau, written into a timed stepper
_NODES = {f"C{i}": repr(c) for i, c in enumerate(RK45.C.tolist(), 1)}


@functools.lru_cache(maxsize=16)
def _stepper(text):
    """The stepper compiled for one field text (``systems._FieldText``), or
    for a callable ``fun`` of the state alone when ``text`` is None, as the
    code ``<rk45 segment NAME>`` with the text's name (``callable`` for
    None), so a profile keeps each stepper's time apart.  A text that names
    a time binds it at every evaluation, and the stepper passes it to its
    event table's functions first."""
    time = text.time if text is not None else ""

    def evaluation(m):
        indent, out, node, at = m.groups()
        if text is None:
            return f"{indent}{out} = fun({at})"
        node = re.sub(r"C\d", lambda c: _NODES[c[0]], node)
        bind = f"{indent}{time} = {node}\n" if time else ""
        return (f"{bind}{indent}{text.args} = ({at})\n{indent}{text.prelude}\n"
                f"{indent}{out} = {text.dy}, {text.dY}")

    source = _AT.sub(r"\1, " if time else "", _FIELD_AT.sub(evaluation, _SEGMENT))
    source = source.replace("CONSTS", "fun" if text is None else text.consts)
    namespace: dict = {}
    name = "callable" if text is None else text.name
    exec(compile(source, f"<rk45 segment {name}>", "exec"), globals(), namespace)
    return namespace["segment"]


def _rk45_segment(fun, *args, **kwargs) -> _Segment:
    """Integrate the autonomous 2-D field ``fun(y, Y) -> (dy, dY)`` from
    ``t0`` to ``t_bound >= t0`` by scipy's RK45 rule on Python floats; the
    arguments after ``fun`` are those of ``segment`` in ``_SEGMENT``.

    One call does what one ``solve_ivp(method="RK45", rtol=..., atol=...,
    max_step=..., events=...)`` call does: the same initial step selection,
    tableau, RMS error norm with scale ``atol + max(|y|, |y_new|) rtol``,
    step controller (safety 0.9, factors 0.2 to 10, no growth right after a
    rejection), events located by ``brentq`` on the dense output, terminal
    events ordered in time, and the last sample at the terminal event.
    Of the functions of :func:`_event_values`, ``values`` runs at the
    start, ``advance`` once per accepted step, and ``brentq`` evaluates
    only a fired row, through its function in ``roots``.
    The arithmetic matches scipy's up to rounding: scipy's sums go through
    BLAS, which fuses multiply-adds.  ``stats`` accumulates ``rhs_evals``,
    ``accepted``, ``rejected`` and ``segments`` over the calls that share
    it; every attempted step counts against ``max_steps``.  A non-finite
    field or state raises :class:`IntegrationError` at once; ``tau_of``
    maps t to tau there.  A field compiled from its text (``systems``)
    runs with its evaluations written into the stepper and its constants
    as locals, any other callable with a call per evaluation, to the same
    bits."""
    text = getattr(fun, "text", None)
    return _stepper(text)(fun if text is None else fun.consts, *args, **kwargs)


def _join(taus, ys_parts, direction: int):
    """The junction rule: the pieces (tau, ys) of an orbit joined in
    integration order, dropping every sample whose tau does not advance on
    the one before it (the repeated first sample of a piece)."""
    tau, ys = np.concatenate(taus), np.hstack(ys_parts)
    keep = np.ones(tau.size, dtype=bool)
    keep[1:] = np.diff(direction * tau) > 0.0
    return tau[keep], ys[:, keep]


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
    attracts in this direction, and in the origin disc (before a step
    when it starts there); escape terminates at ``ESCAPE_RADIUS``.  The
    events are of six kinds: ``y_zero_crossing``, ``Y_zero_crossing``,
    ``section_crossing``, ``stationary_capture``, ``escape_to_infinity``
    and ``double_zero_capture``.  The returned trajectory's
    ``meta["stats"]`` counts the stepper's work: ``rhs_evals``,
    ``accepted`` and ``rejected`` steps, and ``segments`` (solver starts);
    the axis crossings are not in it.  A ``direction`` other than +-1 or a
    negative or NaN ``tau_span`` is a :class:`ParameterError`.
    """
    cfg = config or IntegrationConfig()
    if direction not in (1, -1):
        raise ParameterError("direction must be +1 or -1")
    if not all(map(math.isfinite, (initial.tau, initial.y, initial.Y))):
        raise IntegrationError(f"non-finite initial state {initial}")
    if initial.y == 0.0 and initial.Y == 0.0:
        raise IntegrationError("the origin is stationary; no orbit starts there")

    eps = params.epsilon
    span = tau_span if tau_span is not None else cfg.max_time_span
    span = min(span, cfg.max_time_span)
    if not span >= 0.0:
        raise ParameterError("tau_span must be non-negative")
    f = _rhs(params, _S_TEXT if direction == 1 else _S_BACK)

    def tau_of(s):
        return initial.tau + direction * s

    def origin_end(y, Y):
        # moving inward on the sigma ~ eps diagonal: the double-zero
        # contact, where w and w' vanish together at a finite radius
        fy, fY = f(y, Y)  # direction-signed
        sigma = Y / y if y != 0.0 else math.inf
        return (y * fy + Y * fY) < 0.0 and abs(sigma - eps) < 0.25

    y, Y = float(initial.y), float(initial.Y)
    consts = {"band": AXIS_BAND, "esc": ESCAPE_RADIUS}
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
        consts.update(my=m[0], mY=m[1], rad=CAPTURE_RADIUS * math.hypot(*m))
        table += [_SEvent("(y - my) ** 2 + (Y - mY) ** 2 - rad ** 2",
                          -1, True, "M_ell"),
                  _SEvent("(y + my) ** 2 + (Y + mY) ** 2 - rad ** 2",
                          -1, True, "minus_M_ell")]
    if capture:
        consts["orad"] = ORIGIN_RADIUS
        table.append(_SEvent("y ** 2 + Y ** 2 - orad ** 2", -1, True, "origin"))
    table_fns = _event_values(table, **consts)

    # seeded with the start: an orbit that ends before its first step keeps it
    taus = [np.array([tau_of(0.0)])]
    ys_parts = [np.array([[y], [Y]])]
    events: list[Event] = []
    stats = _new_stats()

    s_now = 0.0
    # a start inside the origin disc has no unique exit from the origin:
    # it ends by the refused crossing's rule, before a step
    inside = capture and math.hypot(y, Y) <= ORIGIN_RADIUS
    while True:
        # on the band edge (where |eps alpha y| dominates |phi(Y)|) and
        # moving toward the axis: cross it over Y
        if inside or (0.0 < abs(Y) <= AXIS_BAND * max(1.0, abs(y)) * (1.0 + 1e-6)
                      and f(y, Y)[1] * (-Y) > 0.0):
            crossing = None if inside else _cross_axis(y, Y, tau_of(s_now), params, cfg)
            if crossing is None:
                # transversality failed: the orbit is heading into the
                # origin; off the double-zero contact it is left flagged
                # for the asymptotic classifier
                tau_here = tau_of(s_now)
                if math.hypot(y, Y) <= NEAR_ORIGIN and origin_end(y, Y):
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
                            MAX_STEP, table, *table_fns, stats,
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

    traj = Trajectory(params, *_join(taus, ys_parts, direction), events,
                      termination, direction)
    traj.meta["stats"] = stats
    return traj


# ---------------------------------------------------------------------------
# chart dispatch


def integrate(chart_id: str, initial, params: ProblemParams,
              direction: int = 1,
              config: Optional[IntegrationConfig] = None,
              **kwargs) -> Trajectory:
    """:func:`integrate_s` under the name of its chart, ``"S"``, the only
    chart that integrates on its own; ``initial`` is a PhaseState and
    ``kwargs`` pass through.  Any other chart is a ``ParameterError``."""
    if chart_id != "S":
        raise ParameterError(f"only chart S integrates, got chart {chart_id!r}")
    return integrate_s(initial, params, direction, config, **kwargs)
