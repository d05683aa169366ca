"""Closed-form helpers on radial profiles that only the tests use: the
inverse of :func:`plap.systems.to_profile` and the first integrals of the
profile equation."""

import math

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
