"""Vector fields, the lift to chart S and the phase-to-profile map.

The profile equation

    (|w'|^{p-2} w')' + (N-1)/r |w'|^{p-2} w' + eps (r w' + alpha w) = 0

becomes autonomous under tau = ln r, y = r^{-gamma} w,
Y = -r^{(1-gamma)(p-1)} |w'|^{p-2} w':

    y' = -gamma y - phi(Y)
    Y' = -(gamma+N) Y + eps (alpha y - phi(Y))          (chart S)

where phi(Y) = sign(Y)|Y|^{1/(p-1)} is the canonical evaluation of
|Y|^{(2-p)/(p-1)} Y, including phi(0) = 0.

Four auxiliary charts cover the ends of the phase plane:

*  Q: (zeta, sigma) = (phi(Y)/y, Y/y), the slope chart at |y| -> infinity;
*  P: (zeta, psi)  = (phi(Y)/y, y/Y), polynomial, regular across Y infinite;
*  R: (g, s) = (-1/zeta, -sigma) with the rescaled time d tau = g s d nu,
   which desingularizes the origin (double zeros of w);
*  R_beta: chart R with s = beta S, used by the homoclinic connection
   function.

Each chart's field is written once here, as source text that compiles
into its closure (``_rhs`` binds the constants the text names) and into
the scalar stepper's loop: charts S, Q and P, chart R in the time |g| of
the double-zero launch, both R charts in nu, and chart R_beta's slope
dS/dg, composed from chart R's text, on which the connection function
runs.
So is the one lift of charts Q, P and R to chart S (``_lift``, through
y^{p-2} = ``_q``), the one center-manifold series of the algebraic-decay
point in either R chart (``_decay_manifold``), from which the T_alpha
launch and the connection function both start, and the unstable-manifold
series of the double-zero point in chart R_beta (``_double_zero_manifold``),
from which the connection function's other leg starts.  Chart S is the
only public chart (:class:`PhaseState`, :func:`to_profile`): the others
have no public field or conversion, only these texts, and the launches
lift their points to chart S by ``_lift``.  All operations here are
pure closed forms; integration lives in :mod:`plap.integrate`, and the
paper's closed-form profiles, which only the tests compare against, in
``tests/profile_tools.py``.  This module imports no scipy.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from operator import mul

import numpy as np

from .params import ProblemParams, derive_constants


# ---------------------------------------------------------------------------
# elementary signed powers


def sgn_pow(x, e):
    """sign(x) |x|^e, elementwise, with sgn_pow(0, e) = 0 for e > 0."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.abs(x) ** e


def phi_Y(Y, p: float):
    """phi(Y) = sign(Y) |Y|^{1/(p-1)}; the regularized odd root of Y."""
    return sgn_pow(Y, 1.0 / (p - 1.0))


# ---------------------------------------------------------------------------
# state containers


@dataclass(frozen=True)
class PhaseState:
    """A point of chart S: tau = ln r together with (y, Y)."""

    tau: float
    y: float
    Y: float


@dataclass(frozen=True)
class ProfileSample:
    """A profile point (r, w(r), w'(r)) with r > 0."""

    r: float
    w: float
    dw: float


# ---------------------------------------------------------------------------
# vector fields


# A field defined once as source text: its name (the stepper compiled for
# it is the code ``<rk45 segment NAME>``), its coordinates, the names of
# its constants, a prelude and the dy and dY expressions, which compile
# into its closure and into the stepper's loop, and the name of its time
# where the field reads one.  A text's names stay clear of the stepper's
# locals (g, h, t, f, u, U among them).
_FieldText = namedtuple("_FieldText", "name args consts prelude dy dY time",
                        defaults=("",))
_S_TEXT = _FieldText("S", "y, Y", "e, mg, mgN, al, eps",
                     "ph = Y ** e if Y >= 0.0 else -((-Y) ** e)",
                     "mg * y - ph", "mgN * Y + eps * (al * y - ph)")
# the exact negation of the forward field, so no evaluation multiplies by
# the tau direction
_S_BACK = _S_TEXT._replace(name="S backward", dy=f"-({_S_TEXT.dy})",
                           dY=f"-({_S_TEXT.dY})")
_Q_TEXT = _FieldText("Q", "zeta, sigma", "eta, N, pm1, al, eps", "",
                     "zeta * (zeta - eta) + eps * zeta * (al - zeta) / (pm1 * sigma)",
                     "eps * (al - zeta) + (zeta - N) * sigma")
_P_TEXT = _FieldText("P", "zeta, psi", "eta, N, pm1, al, eps", "",
                     "zeta * (zeta - eta + eps * (al - zeta) * psi / pm1)",
                     "psi * (N - zeta + eps * (zeta - al) * psi)")
# Chart R in the time x = |g| = -eps g of the double-zero launch, where g
# and s keep the sign -eps: the state is (ls, tau) = (ln|s|, tau), so s
# keeps its relative accuracy as it falls toward 0 at large |g|.  The
# rates of ``_R_TEXT`` and d tau = g s d nu over dx/dnu = x den, with
# eps (1 + al g) + (1 + N g) s written as eps (1 - |s|) - x (al - N |s|)
# and 1 - |s| as -expm1(ls), which keeps d ls/dx accurate near the saddle
# s = -eps.
_RX_TEXT = _FieldText("R in |g|", "ls, tau", "eta, N, pm1, al, eps",
                      "sa = math.exp(ls); gr = -eps * x; "
                      "den = eps * (1.0 + al * gr) / pm1 - eps * sa * (1.0 + eta * gr)",
                      "(eps * math.expm1(ls) + x * (al - N * sa)) / (x * den)",
                      "sa / den", "x")
# Chart R at (g, S) with s = b S in the time nu: b = 1 is chart R and
# b = beta chart R_beta.
_R_TEXT = _FieldText("R", "gr, Sr", "eta, N, pm1, al, eps, b", "",
                     "gr * (b * Sr * (1.0 + eta * gr) + eps * (1.0 + al * gr) / pm1)",
                     "-Sr * (eps * (1.0 + al * gr) + b * (1.0 + N * gr) * Sr)")
# Chart R_b as the graph dS/dg, on the state (g, S) with the field
# (1, dS/dg): the connection function's separatrices, on which g is
# monotone.  Off them, where trial stages or LSODA's corrector iterates
# probe states with dg/dnu <= 0, the slope is floored at +-1e30, which
# forces a smaller step instead of aborting the shoot.
_SLOPE_TEXT = _R_TEXT._replace(
    name="R_beta slope", prelude=f"rg = {_R_TEXT.dy}; rS = {_R_TEXT.dY}", dy="1.0",
    dY="rS / rg if rg > 0.0 else math.copysign(1e30, rS / gr)")


@functools.lru_cache(maxsize=None)
def _compiled(text: _FieldText):
    """``make(**table)``: the field ``text`` on Python floats with the
    constants it names bound from ``table`` (the rest ignored), a closure
    carrying both (``f.text``, ``f.consts``)."""
    namespace = {"text": text, "math": math}
    args = f"{text.time}, {text.args}" if text.time else text.args
    exec(f"def make({text.consts}, **_):\n    def f({args}):\n        {text.prelude}\n"
         f"        return {text.dy}, {text.dY}\n"
         f"    f.text, f.consts = text, ({text.consts},)\n    return f\n", namespace)
    return namespace["make"]


def _rhs(params: ProblemParams, text: _FieldText, b: float = 1.0):
    """The field ``text`` on Python floats, the constants it names bound
    from the one table below of ``params`` and ``b`` (the s = b S scale of
    the chart-R texts: 1 for chart R, beta for chart R_beta), each a float,
    so no evaluation makes an int-float operation.  Chart S evaluates bit
    for bit as numpy through :func:`phi_Y`: the float ``**`` equals
    numpy's power on a 0-d array, and the signs are exact.  Chart Q
    raises ``ZeroDivisionError`` at sigma = 0."""
    dc = derive_constants(params)
    N, pm1 = float(params.N), params.p - 1.0
    return _compiled(text)(e=1.0 / pm1, mg=-dc.gamma, mgN=-(dc.gamma + N), eta=dc.eta,
                           N=N, pm1=pm1, al=float(params.alpha),
                           eps=float(params.epsilon), b=float(b))


def _decay_manifold(params: ProblemParams, b: float):
    """``(m, u)``: the order-10 power series S = sum_{k=1}^{10} m_k x^k,
    x = g + 1/alpha, of the center manifold of the algebraic-decay point
    A = (-1/alpha, 0) of chart R_b (``_R_TEXT`` at ``b``; alpha != eta),
    and [u_2, ..., u_10] of the rate along it, dg/dnu = (g_A + x) u.  The
    T_alpha launch reads it in chart R (b = 1), with :func:`_tau_rate`,
    and the connection function in chart R_beta (b = beta, eps = -1).

    With g = g_A + x, 1 + alpha g = alpha x, and chart R_b's field is the
    polynomial pair

        dg/dnu = (g_A + x) u,   u = b (c + eta x) S + eps alpha x / (p - 1),
        dS/dnu = -eps alpha x S - b (1 + N g_A + N x) S^2,

    with c = 1 + eta g_A.  Matching x^n in the invariance equation
    S'(x) dg/dnu = dS/dnu, the center direction is u_1 = 0 (m_1), and
    order n fixes u_n, hence m_n, from the lower orders in O(n) operations
    (J. Carr, *Applications of Centre Manifold Theory*, 1981).  The series
    is asymptotic, not convergent: its coefficients grow about factorially.
    """
    dc = derive_constants(params)
    al, eps, N, eta = params.alpha, params.epsilon, float(params.N), dc.eta
    g_A = -1.0 / al
    c = 1.0 + eta * g_A
    b1, b2 = b * (1.0 + N * g_A), b * N
    # lists indexed by the power of x: m (S), km (k m_k, of S'), u, G
    # (dg/dnu), sq (S^2); each convolution is one sum(map(mul, ...)) over
    # two slices, one of them reversed, its terms in ascending index
    m = [0.0, -eps * al / ((params.p - 1.0) * b * c)]
    km, u, G, sq = [0.0, m[1]], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    for n in range(2, 11):
        sq.append(sum(map(mul, m[1:n], m[n - 1:0:-1])))
        rest = (-eps * al * m[n - 1] - b1 * sq[n] - b2 * sq[n - 1] - m[1] * u[n - 1]
                - sum(map(mul, km[n - 1:1:-1], G[2:n])))
        u.append(rest / (m[1] * g_A))
        m.append((u[n] - b * eta * m[n - 1]) / (b * c))
        km.append(n * m[n])
        G.append(g_A * u[n] + u[n - 1])
    return m[1:], u[2:]


def _double_zero_manifold(params: ProblemParams):
    """[c_1, ..., c_10]: the series S = 1/beta + T, T = sum c_k g^k, of the
    unstable manifold of the saddle B' = (0, 1/beta) of chart R_beta
    (``_R_TEXT`` at b = beta, eps = -1), an analytic graph (L. Perko,
    *Differential Equations and Dynamical Systems*, sec. 2.7).  There
    dg/dnu = g u, u = lam + (eta - alpha/(p-1)) g + beta (1 + eta g) T,
    lam = (p-2)/(p-1), and dS/dnu = (1/beta + T) v, v = (alpha - N) g -
    beta (1 + N g) T; g^n of S'(g) dg/dnu = dS/dnu fixes c_n with the
    divisor n lam + 1, and c_1 = (alpha - N)/(beta (1 + lam))."""
    dc = derive_constants(params)
    al, N, beta, eta = params.alpha, float(params.N), dc.beta, dc.eta
    lam = (params.p - 2.0) / (params.p - 1.0)
    c = [0.0, (al - N) / (beta * (1.0 + lam))]  # by the power of g, as in _decay_manifold
    kc, u, v = c[:], [lam, eta - al / (params.p - 1.0) + beta * c[1]], [0.0, al - N - beta * c[1]]
    for n in range(2, 11):
        c.append((sum(map(mul, c[1:n], v[n - 1:0:-1])) - sum(map(mul, kc[1:n], u[n - 1:0:-1]))
                  - N * c[n - 1]) / (n * lam + 1.0))
        kc.append(n * c[n])
        u.append(beta * (c[n] + eta * c[n - 1]))
        v.append(-beta * (c[n] + N * c[n - 1]))
    return c[1:]


def _tau_rate(m, u, b: float) -> list:
    """[q_0, ..., q_8]: the tau rate along the series ``(m, u)`` of
    :func:`_decay_manifold` in chart R_b, dtau/dx = b S / u = (1/x) sum
    q_k x^k: the m series divided by the u series (u_1 = 0).  A zero u_2
    (alpha = -gamma, where the rate along the manifold is cubic) gives
    infinite q_k."""
    inv_u2 = 1.0 / u[0] if u[0] else math.inf
    q: list = []
    for k in range(len(u)):
        q.append((b * m[k] - sum(u[j] * q[k - j] for j in range(1, k + 1))) * inv_u2)
    return q


def _manifold_reach(m, rel: float) -> float:
    """The largest |x| at which the last term of the series ``m`` of
    :func:`_decay_manifold` is at most ``rel`` of its first (inf where
    m_10 = 0, nan where a coefficient is nan).  The T_alpha launch reads
    it at 1e-12, since its tau comes from a quadrature along the series
    that nothing damps; the connection function at its ``rel_tol``, since
    the stiff approach to the decay point damps a launch error."""
    return (rel * abs(m[0] / m[-1])) ** (1.0 / (len(m) - 1)) if m[-1] else math.inf


def _series(c, x):
    """sum_k c[k-1] x^k by Horner's rule, for a scalar or an array ``x``."""
    out = 0.0
    for ck in reversed(c):
        out = (out + ck) * x
    return out


# ---------------------------------------------------------------------------
# the lift to chart S


def _q(chart: str, a, b, p: float):
    """y^{p-2} at the point (a, b) of chart Q (zeta, sigma), P (zeta, psi)
    or R (g, s), for scalars or arrays; the point lifts to y > 0 where it
    is positive."""
    if chart == "Q":
        return b * np.sign(a) * np.abs(a) ** (1.0 - p)
    if chart == "P":
        return 1.0 / (b * np.sign(a) * np.abs(a) ** (p - 1.0))
    return b * np.sign(a) * np.abs(a) ** (p - 1.0)


def _lift(chart: str, a, b, p: float):
    """(ok, y, Y) of chart points on the branch y > 0, for scalars or
    arrays: the one lift of charts Q, P and R to chart S; ``ok`` marks the
    liftable points."""
    q = _q(chart, a, b, p)
    y = np.where(q > 0.0, np.abs(q), 1.0) ** (1.0 / (p - 2.0))
    Y = b * y if chart == "Q" else y / b if chart == "P" else -b * y
    return q > 0.0, y, Y


# ---------------------------------------------------------------------------
# phase state -> profile


def to_profile(state: PhaseState, params: ProblemParams) -> ProfileSample:
    """Map an S-chart point to the profile sample (r, w, w')."""
    dc = derive_constants(params)
    r = math.exp(state.tau)
    w = r ** dc.gamma * state.y
    dw = -(r ** (dc.gamma - 1.0)) * float(phi_Y(state.Y, params.p))
    return ProfileSample(r, w, dw)
