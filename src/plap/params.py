"""Problem parameters and closed-form derived constants.

The object of study is the radial profile equation

    (|w'|^{p-2} w')' + (N-1)/r |w'|^{p-2} w' + eps (r w' + alpha w) = 0,   p > 2,

whose phase-plane reduction is an autonomous planar system in (y, Y) with
tau = ln r (see :mod:`plap.systems`).  Everything in this module is a pure
closed form in (N, p, alpha, eps): the structural exponents gamma, eta,
p', beta, the flat-profile amplitude ell, the Hopf threshold alpha_star,
the one-dimensional homoclinic value alpha_p, the node thresholds
alpha_1 / alpha_2, the linearization parameter nu(alpha) and its
discriminant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional


class ParameterError(ValueError):
    """Raised when a parameter tuple violates the standing assumptions."""


@dataclass(frozen=True)
class ProblemParams:
    """The problem tuple (N, p, alpha, epsilon).

    N : integer dimension >= 1
    p : diffusion exponent, finite and strictly greater than 2
    alpha : similarity exponent, nonzero (the alpha = 0 profile is known in
        closed form and served by an oracle, not by integration)
    epsilon : time-direction sign, +1 or -1
    """

    N: int
    p: float
    alpha: float
    epsilon: int

    def __post_init__(self) -> None:
        if int(self.N) != self.N or self.N < 1:
            raise ParameterError(f"N must be an integer >= 1, got {self.N}")
        if not (2.0 < self.p < math.inf):
            raise ParameterError(f"p must exceed 2 and be finite, got {self.p}")
        if self.epsilon not in (-1, 1):
            raise ParameterError(f"epsilon must be +1 or -1, got {self.epsilon}")
        if not math.isfinite(self.alpha):
            raise ParameterError(f"alpha must be finite, got {self.alpha}")
        # alpha = 0 is tolerated at construction time so the closed-form
        # alpha-zero oracle can carry a parameter record; derive_constants
        # (and hence every dynamical operation) rejects it.


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants attached to a parameter tuple.

    Optional fields are ``None`` exactly when their defining condition
    fails:

    * ``ell`` exists iff eps (alpha + gamma) < 0,
    * ``alpha_2`` exists iff 2 gamma + N - 2 sqrt(p' (N + gamma)) > 0,
    * ``nu_alpha`` and ``discriminant_Delta`` exist iff alpha != -gamma.
    """

    gamma: float
    eta: float
    p_prime: float
    beta: float
    ell: Optional[float]
    alpha_star: float
    alpha_p: float
    alpha_1: float
    alpha_2: Optional[float]
    nu_alpha: Optional[float]
    C_U: float
    discriminant_Delta: Optional[float]


@functools.lru_cache(maxsize=4096)
def derive_constants(params: ProblemParams) -> DerivedConstants:
    """Populate every closed-form constant for a valid parameter tuple.

    Raises :class:`ParameterError` on alpha = 0 (the dynamical analysis
    assumes a nonzero similarity exponent).  Results are cached: the
    parameter tuple is frozen and the constants are pure functions of it.
    """
    if params.alpha == 0.0:
        raise ParameterError("alpha must be nonzero (alpha = 0 has a closed-form profile)")

    N = float(params.N)
    p = float(params.p)
    alpha = float(params.alpha)
    eps = float(params.epsilon)

    gamma = p / (p - 2.0)
    eta = (N - p) / (p - 1.0)
    p_prime = p / (p - 1.0)
    beta = alpha * (p - 2.0) + p

    # Flat profile w = ell r^gamma: amplitude from |alpha + gamma| balanced
    # against gamma^{p-1}(gamma + N); real only when eps(alpha + gamma) < 0.
    ell: Optional[float] = None
    if eps * (alpha + gamma) < 0.0:
        ell = (abs(alpha + gamma) / (gamma ** (p - 1.0) * (gamma + N))) ** (1.0 / (p - 2.0))

    # Hopf threshold: trace of the linearization at M_ell vanishes.
    alpha_star = -gamma + gamma * (N + gamma) / ((p - 1.0) * (N + 2.0 * gamma))

    alpha_p = -(p - 1.0) / (p - 2.0)

    # Node thresholds: discriminant of the eigenvalue equation vanishes.
    root = math.sqrt(p_prime * (N + gamma))
    alpha_1 = -gamma + gamma * (N + gamma) / ((p - 1.0) * (2.0 * gamma + N + 2.0 * root))
    denom2 = 2.0 * gamma + N - 2.0 * root
    alpha_2: Optional[float] = None
    if denom2 > 0.0:
        alpha_2 = -gamma + gamma * (N + gamma) / ((p - 1.0) * denom2)

    nu_alpha: Optional[float] = None
    discriminant_Delta: Optional[float] = None
    if alpha != -gamma:
        nu_alpha = -gamma * (N + gamma) / ((p - 1.0) * (gamma + alpha))
        trace = 2.0 * gamma + N + nu_alpha
        discriminant_Delta = trace * trace - 4.0 * p_prime * (N + gamma)

    C_U = ((p - 2.0) * gamma ** (p - 1.0) * (gamma + N)) ** (1.0 / (2.0 - p))

    return DerivedConstants(
        gamma=gamma,
        eta=eta,
        p_prime=p_prime,
        beta=beta,
        ell=ell,
        alpha_star=alpha_star,
        alpha_p=alpha_p,
        alpha_1=alpha_1,
        alpha_2=alpha_2,
        nu_alpha=nu_alpha,
        C_U=C_U,
        discriminant_Delta=discriminant_Delta,
    )


def m_ell_point(params: ProblemParams) -> Optional[tuple[float, float]]:
    """Coordinates (ell, -(gamma ell)^{p-1}) of the nontrivial stationary
    point M_ell of the phase-plane system, or None when it does not exist."""
    dc = derive_constants(params)
    if dc.ell is None:
        return None
    return (dc.ell, -((dc.gamma * dc.ell) ** (params.p - 1.0)))
