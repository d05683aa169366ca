"""Closed-form helpers on radial profiles that only the tests use: the
inverse of :func:`plap.systems.to_profile`, the first integrals of the
profile equation, and the paper's explicit profiles (``oracle``: the flat
profile U, the alpha = N Barenblatt-type profile, the p-harmonic,
quadratic, alpha = 0 and N = 1 special solutions), the reference that
acceptance criteria 3 and 9 check integration against.  A kind whose
parameter constraint fails raises ``OracleConstraintError``."""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad

from plap.params import ProblemParams, derive_constants
from plap.systems import PhaseState, ProfileSample, sgn_pow


def from_profile(sample: ProfileSample, params: ProblemParams) -> PhaseState:
    """Inverse of :func:`plap.systems.to_profile`."""
    if sample.r <= 0.0:
        raise ValueError("profile samples require r > 0")
    dc = derive_constants(params)
    tau = math.log(sample.r)
    y = sample.r ** (-dc.gamma) * sample.w
    Y = -(sample.r ** ((1.0 - dc.gamma) * (params.p - 1.0))) * float(
        sgn_pow(sample.dw, params.p - 1.0)
    )
    return PhaseState(tau, y, Y)


def J_N(sample: ProfileSample, params: ProblemParams) -> float:
    """r^N (w + eps r^{-1} |w'|^{p-2} w'); constant along alpha = N orbits."""
    r, w, dw = sample.r, sample.w, sample.dw
    return r ** float(params.N) * (
        w + params.epsilon * float(sgn_pow(dw, params.p - 1.0)) / r
    )


def J_alpha(sample: ProfileSample, params: ProblemParams) -> float:
    """r^{alpha - N} J_N; its r-derivative is -eps(N-alpha) r^{alpha-2}|w'|^{p-2}w'."""
    return sample.r ** (params.alpha - float(params.N)) * J_N(sample, params)


class OracleConstraintError(ValueError):
    """A closed-form profile was requested with incompatible parameters."""


# ---------------------------------------------------------------------------
# closed-form profiles (oracles)

ORACLE_KINDS = (
    "U_flat",
    "barenblatt",
    "p_harmonic",
    "quadratic",
    "alpha_zero",
    "n1_special",
)


@dataclass
class OracleSolution:
    """A closed-form profile with analytic first and second derivatives.

    ``edge`` is the support/hole edge radius (double zero of w) when one
    exists in closed form.
    """

    kind: str
    params: ProblemParams
    free_constant: float
    sign: int
    edge: Optional[float]
    w: Callable[[np.ndarray], np.ndarray]
    dw: Callable[[np.ndarray], np.ndarray]
    d2w: Callable[[np.ndarray], np.ndarray]

    def sample(self, r) -> Union[ProfileSample, list[ProfileSample]]:
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        w = np.atleast_1d(self.w(r_arr))
        dw = np.atleast_1d(self.dw(r_arr))
        out = [ProfileSample(float(ri), float(wi), float(di)) for ri, wi, di in zip(r_arr, w, dw)]
        if np.isscalar(r) or (hasattr(r, "shape") and getattr(r, "shape", None) == ()):
            return out[0]
        return out

    def __call__(self, r):
        return self.w(np.asarray(r, dtype=float))


def _require(cond: bool, kind: str, msg: str) -> None:
    if not cond:
        raise OracleConstraintError(f"oracle {kind!r}: {msg}")


def _pow_pos(base, expo: float):
    """base**expo for base >= 0 with the convention 0**expo = 0, avoiding
    overflow warnings when expo < 0."""
    base = np.asarray(base, dtype=float)
    out = np.zeros_like(base)
    mask = base > 0.0
    out[mask] = base[mask] ** expo
    return out


def oracle(kind: str, params: ProblemParams, free_constant: float = 1.0, sign: int = 1) -> OracleSolution:
    """Return the closed-form profile of the requested kind.

    Kinds and their parameter constraints:

    * ``U_flat``     -- w = ell r^gamma; requires eps(alpha+gamma) < 0.
    * ``barenblatt`` -- requires alpha = N; free_constant is K.
    * ``p_harmonic`` -- w = C r^{-eta}; requires alpha = eta != 0.
    * ``quadratic``  -- requires alpha = -p'; free_constant is K > 0.
    * ``alpha_zero`` -- requires alpha = 0; w' closed form, w by quadrature
      normalized to w(1) = 0.
    * ``n1_special`` -- requires N = 1 and alpha = -(p-1)/(p-2);
      free_constant is K.
    """
    if kind not in ORACLE_KINDS:
        raise OracleConstraintError(f"unknown oracle kind {kind!r}")
    p = params.p
    N = float(params.N)
    eps = float(params.epsilon)
    sgn = 1 if sign >= 0 else -1

    if kind == "alpha_zero":
        _require(params.alpha == 0.0, kind, "requires alpha = 0")
        gamma = p / (p - 2.0)
        eta = (N - p) / (p - 1.0)
        K = float(free_constant)
        c = eps / (gamma + N)
        power = N - eta  # > 0 always

        def A(r):
            return K - c * r ** power

        def dA(r):
            return -c * power * r ** (power - 1.0)

        def dw_fn(r):
            r = np.asarray(r, dtype=float)
            return sgn * r ** (-(eta + 1.0)) * np.maximum(A(r), 0.0) ** (1.0 / (p - 2.0))

        def d2w_fn(r):
            r = np.asarray(r, dtype=float)
            Ar = np.maximum(A(r), 0.0)
            inner = _pow_pos(Ar, 1.0 / (p - 2.0) - 1.0) * dA(r) / (p - 2.0)
            return sgn * (
                -(eta + 1.0) * r ** (-(eta + 2.0)) * _pow_pos(Ar, 1.0 / (p - 2.0))
                + r ** (-(eta + 1.0)) * inner
            )

        def w_fn(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            out = np.empty_like(r)
            for i, ri in enumerate(r):
                val, _ = quad(lambda t: float(dw_fn(t)), 1.0, float(ri), epsabs=1e-12, epsrel=1e-12, limit=200)
                out[i] = val
            return out

        edge = None
        if eps * K > 0.0:
            edge = ((gamma + N) * K / eps) ** (1.0 / power)
        return OracleSolution(kind, params, K, sgn, edge, w_fn, dw_fn, d2w_fn)

    dc = derive_constants(params)

    if kind == "U_flat":
        _require(dc.ell is not None, kind, "requires eps(alpha + gamma) < 0")
        ell = dc.ell
        g = dc.gamma

        def w_fn(r):
            return sgn * ell * np.asarray(r, dtype=float) ** g

        def dw_fn(r):
            return sgn * ell * g * np.asarray(r, dtype=float) ** (g - 1.0)

        def d2w_fn(r):
            return sgn * ell * g * (g - 1.0) * np.asarray(r, dtype=float) ** (g - 2.0)

        return OracleSolution(kind, params, free_constant, sgn, None, w_fn, dw_fn, d2w_fn)

    if kind == "barenblatt":
        _require(params.alpha == N, kind, f"requires alpha = N = {params.N}")
        K = float(free_constant)
        g = dc.gamma
        pp = dc.p_prime
        m = (p - 1.0) / (p - 2.0)

        def u(r):
            return K - eps * np.asarray(r, dtype=float) ** pp / g

        def du(r):
            return -eps * pp * np.asarray(r, dtype=float) ** (pp - 1.0) / g

        def d2u(r):
            return -eps * pp * (pp - 1.0) * np.asarray(r, dtype=float) ** (pp - 2.0) / g

        def w_fn(r):
            return sgn * _pow_pos(np.maximum(u(r), 0.0), m)

        def dw_fn(r):
            up = np.maximum(u(r), 0.0)
            return sgn * m * _pow_pos(up, m - 1.0) * du(r)

        def d2w_fn(r):
            up = np.maximum(u(r), 0.0)
            return sgn * (
                m * (m - 1.0) * _pow_pos(up, m - 2.0) * du(r) ** 2
                + m * _pow_pos(up, m - 1.0) * d2u(r)
            )

        edge = None
        if eps * K > 0.0:
            edge = (g * K * eps) ** (1.0 / pp)
        return OracleSolution(kind, params, K, sgn, edge, w_fn, dw_fn, d2w_fn)

    if kind == "p_harmonic":
        _require(dc.eta != 0.0, kind, "requires eta != 0 (p != N)")
        _require(params.alpha == dc.eta, kind, f"requires alpha = eta = {dc.eta}")
        C = float(free_constant)
        eta = dc.eta

        def w_fn(r):
            return C * np.asarray(r, dtype=float) ** (-eta)

        def dw_fn(r):
            return -C * eta * np.asarray(r, dtype=float) ** (-eta - 1.0)

        def d2w_fn(r):
            return C * eta * (eta + 1.0) * np.asarray(r, dtype=float) ** (-eta - 2.0)

        return OracleSolution(kind, params, C, sgn, None, w_fn, dw_fn, d2w_fn)

    if kind == "quadratic":
        _require(params.alpha == -dc.p_prime, kind, f"requires alpha = -p' = {-dc.p_prime}")
        K = float(free_constant)
        _require(K > 0.0, kind, "requires free_constant K > 0")
        pp = dc.p_prime
        const = N * (K * pp) ** (p - 2.0) * K

        def w_fn(r):
            return sgn * (const + eps * K * np.asarray(r, dtype=float) ** pp)

        def dw_fn(r):
            return sgn * eps * K * pp * np.asarray(r, dtype=float) ** (pp - 1.0)

        def d2w_fn(r):
            return sgn * eps * K * pp * (pp - 1.0) * np.asarray(r, dtype=float) ** (pp - 2.0)

        return OracleSolution(kind, params, K, sgn, None, w_fn, dw_fn, d2w_fn)

    # n1_special
    _require(params.N == 1, kind, "requires N = 1")
    _require(
        params.alpha == dc.alpha_p,
        kind,
        f"requires alpha = -(p-1)/(p-2) = {dc.alpha_p}",
    )
    K = float(free_constant)
    _require(K != 0.0, kind, "requires free_constant K != 0")
    m = (p - 1.0) / (p - 2.0)
    c0 = eps * abs(dc.alpha_p) ** (p - 1.0) * abs(K) ** p

    def u2(r):
        return K * np.asarray(r, dtype=float) + c0

    def w_fn(r):
        return sgn * _pow_pos(np.maximum(u2(r), 0.0), m)

    def dw_fn(r):
        up = np.maximum(u2(r), 0.0)
        return sgn * m * K * _pow_pos(up, m - 1.0)

    def d2w_fn(r):
        up = np.maximum(u2(r), 0.0)
        return sgn * m * (m - 1.0) * K * K * _pow_pos(up, m - 2.0)

    edge = None
    root = -c0 / K
    if root > 0.0:
        edge = root
    return OracleSolution(kind, params, K, sgn, edge, w_fn, dw_fn, d2w_fn)
