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

Everything else is standard: a Runge-Kutta 4(5) pair with PI step control
(scipy's RK45), events located by the solver's root bisection, capture
tests near stationary points, and escape thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

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
    points; escape terminates at the configured threshold.
    """
    cfg = config or IntegrationConfig()
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if not all(map(math.isfinite, (initial.tau, initial.y, initial.Y))):
        raise IntegrationError(f"non-finite initial state {initial}")
    if initial.y == 0.0 and initial.Y == 0.0:
        raise IntegrationError("the origin is stationary; no orbit starts there")

    dc = derive_constants(params)
    p, al, eps, N = params.p, params.alpha, params.epsilon, float(params.N)
    span = tau_span if tau_span is not None else cfg.max_time_span
    span = min(span, cfg.max_time_span)

    def f(s, u):
        y, Y = u
        ph = float(phi_Y(Y, p))
        return (direction * (-dc.gamma * y - ph),
                direction * (-(dc.gamma + N) * Y + eps * (al * y - ph)))

    taus: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    events: list[Event] = []
    termination = "time_span"

    s_now = 0.0
    u_now = np.array([initial.y, initial.Y], dtype=float)
    steps_used = 0
    disabled_capture: Optional[str] = None
    targets = _stationary_targets(params) if capture else []
    att_dir = _m_ell_attracting_direction(params)

    while True:
        # --- possible immediate band crossing
        bw = _band_width(u_now[0], params, cfg)
        if 0.0 < abs(u_now[1]) <= bw * (1.0 + 1e-6):
            v = f(s_now, u_now)[1]
            if v * (-u_now[1]) > 0.0:  # moving toward the axis
                t_arr, y_arr, Y_arr, ev, ok = _cross_axis(
                    u_now[0], u_now[1], initial.tau + direction * s_now, direction, params, cfg)
                if ok:
                    taus.append(np.asarray(t_arr))
                    ys_parts.append(np.vstack([y_arr, Y_arr]))
                    events.append(ev)
                    tau_end = float(t_arr[-1])
                    s_now = direction * (tau_end - initial.tau)
                    u_now = np.array([y_arr[-1], Y_arr[-1]], dtype=float)
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
                    tau_here = initial.tau + direction * s_now
                    st = PhaseState(tau_here, float(u_now[0]), float(u_now[1]))
                    fy, fY = f(s_now, u_now)  # direction-signed
                    inward = (st.y * fy + st.Y * fY) < 0.0
                    sigma = st.Y / st.y if st.y != 0.0 else math.inf
                    if math.hypot(st.y, st.Y) <= 1e-5 and inward \
                            and abs(sigma - eps) < 0.25:
                        events.append(Event("double_zero_capture", tau_here, st))
                        termination = "captured:origin"
                    else:
                        termination = "origin_flagged"
                    break

        ev_fns = []
        ev_tags = []

        if record_y_zero:
            def ev_y(s, u):
                return u[0]
            ev_y.terminal = False
            ev_fns.append(ev_y)
            ev_tags.append(("y_zero", None))

        if section_y is not None:
            def ev_sec(s, u, _c=section_y):
                return u[0] - _c
            ev_sec.terminal = False
            ev_fns.append(ev_sec)
            ev_tags.append(("section", None))

        def ev_hi(s, u):
            return u[1] - _band_width(u[0], params, cfg)
        ev_hi.terminal = True
        ev_hi.direction = -1
        ev_fns.append(ev_hi)
        ev_tags.append(("band", +1))

        def ev_lo(s, u):
            return u[1] + _band_width(u[0], params, cfg)
        ev_lo.terminal = True
        ev_lo.direction = 1
        ev_fns.append(ev_lo)
        ev_tags.append(("band", -1))

        esc = cfg.escape_threshold

        def ev_escape(s, u):
            return (u[0] / esc) ** 2 + (u[1] / esc) ** 2 - 1.0
        ev_escape.terminal = True
        ev_escape.direction = 1
        ev_fns.append(ev_escape)
        ev_tags.append(("escape", None))

        for pid, (my, mY) in targets:
            if pid == disabled_capture:
                continue
            rad = cfg.capture_radius * math.hypot(my, mY)

            def ev_cap(s, u, _my=my, _mY=mY, _r=rad):
                return (u[0] - _my) ** 2 + (u[1] - _mY) ** 2 - _r ** 2
            ev_cap.terminal = True
            ev_cap.direction = -1
            ev_fns.append(ev_cap)
            ev_tags.append(("capture", pid))

        if capture:
            def ev_org(s, u):
                return u[0] ** 2 + u[1] ** 2 - cfg.origin_radius ** 2
            ev_org.terminal = True
            ev_org.direction = -1
            ev_fns.append(ev_org)
            ev_tags.append(("origin", None))

        sol = solve_ivp(f, (s_now, span), u_now, method="RK45",
                        rtol=cfg.rel_tol, atol=cfg.abs_tol,
                        max_step=cfg.max_step, events=ev_fns)
        steps_used += sol.t.size
        if steps_used > cfg.max_steps:
            raise IntegrationError("max_steps exceeded")
        if not sol.success and sol.status != 1:
            if np.any(~np.isfinite(sol.y[:, -1])):
                raise IntegrationError(
                    f"NaN state near tau={initial.tau + direction * sol.t[-1]}")
            raise IntegrationError(f"integrator failure: {sol.message}")

        taus.append(initial.tau + direction * sol.t)
        ys_parts.append(sol.y)

        # record non-terminal events in time order
        nonterm = []
        for (tag, aux), te, ue in zip(ev_tags, sol.t_events, sol.y_events):
            if tag == "y_zero":
                for t_e, u_e in zip(te, ue):
                    nonterm.append(Event("y_zero_crossing",
                                         initial.tau + direction * t_e,
                                         PhaseState(initial.tau + direction * t_e, 0.0, float(u_e[1]))))
            elif tag == "section":
                for t_e, u_e in zip(te, ue):
                    nonterm.append(Event("section_crossing",
                                         initial.tau + direction * t_e,
                                         PhaseState(initial.tau + direction * t_e,
                                                    float(u_e[0]), float(u_e[1]))))
        nonterm.sort(key=lambda e: direction * e.time)
        events.extend(nonterm)

        if sol.status == 0:
            termination = "time_span"
            break

        # a terminal event fired: identify it (last solver time)
        s_term = sol.t[-1]
        fired = None
        for (tag, aux), te in zip(ev_tags, sol.t_events):
            if tag in ("band", "escape", "capture", "origin") and te.size and \
                    math.isclose(te[-1], s_term, rel_tol=0.0, abs_tol=1e-12 + 1e-9 * abs(s_term)):
                fired = (tag, aux)
                break
        s_now = s_term
        u_now = sol.y[:, -1].copy()
        tau_here = initial.tau + direction * s_now
        if disabled_capture is not None:
            # re-enable once we are well clear of the point
            for pid, (my, mY) in targets:
                if pid == disabled_capture:
                    if math.hypot(u_now[0] - my, u_now[1] - mY) > \
                            2.0 * cfg.capture_radius * math.hypot(my, mY):
                        disabled_capture = None

        if fired is None:
            # numerical tie; resume
            if s_now >= span:
                termination = "time_span"
                break
            continue

        tag, aux = fired
        if tag == "escape":
            events.append(Event("escape_to_infinity", tau_here,
                                PhaseState(tau_here, float(u_now[0]), float(u_now[1]))))
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
                                    PhaseState(tau_here, float(u_now[0]), float(u_now[1]))))
                termination = f"captured:{aux}"
                break
            disabled_capture = aux
            continue
        if tag == "origin":
            st = PhaseState(tau_here, float(u_now[0]), float(u_now[1]))
            sigma = st.Y / st.y if st.y != 0.0 else math.inf
            fy, fY = f(0.0, u_now)  # already direction-signed
            moving_in = (st.y * fy + st.Y * fY) < 0.0
            if abs(sigma - eps) < 0.25 and moving_in:
                events.append(Event("double_zero_capture", tau_here, st))
                termination = "captured:origin"
            else:
                events.append(Event("stationary_capture", tau_here, st))
                termination = "origin_flagged"
            break

    tau_all = np.concatenate(taus) if taus else np.array([initial.tau])
    ys_all = np.hstack(ys_parts) if ys_parts else np.array([[initial.y], [initial.Y]])
    # drop duplicated segment-junction samples
    keep = np.ones(tau_all.size, dtype=bool)
    keep[1:] = np.diff(direction * tau_all) > 0.0
    tau_all = tau_all[keep]
    ys_all = ys_all[:, keep]

    return Trajectory("S", params, tau_all, ys_all, events, termination, direction)


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
