"""Phase-plane toolkit for radial self-similar profiles of the p-Laplacian
heat equation with p > 2.

Submodules
----------
params        parameter validation and closed-form constants
systems       vector fields and the lift to chart S
integrate     adaptive chart-S integration with events and the Y = 0 crossing rule
trajectories  shooting constructions of the special trajectories
analysis      stationary points, cycles, labels, the connection function,
              the critical exponent, and the regime classifier
cli           command-line interface (CSV / JSON / SVG emission)
"""

__version__ = "0.1.0"

from .params import DerivedConstants, ParameterError, ProblemParams, derive_constants
from .systems import PhaseState, ProfileSample, to_profile

from .integrate import (
    Event,
    IntegrationConfig,
    IntegrationError,
    Trajectory,
    integrate,
    integrate_s,
)
from .trajectories import (
    SpecialTrajectorySpec,
    shoot,
    shoot_double_zero,
    shoot_regular,
    shoot_T_alpha,
    shoot_T_eta_or_u,
    shoot_T_pm,
)
from .analysis import (
    AnalysisError,
    BracketError,
    CycleInfo,
    RegimeReport,
    StationaryPointInfo,
    asymptotic_label,
    classify_regime,
    classify_stationary_points,
    count_sign_changes,
    detect_limit_cycle,
    find_alpha_c,
    phi_of_alpha,
    theorem_tag,
)

__all__ = [
    "DerivedConstants",
    "ParameterError",
    "ProblemParams",
    "derive_constants",
    "PhaseState",
    "ProfileSample",
    "to_profile",
    "Event",
    "IntegrationConfig",
    "IntegrationError",
    "Trajectory",
    "integrate",
    "integrate_s",
    "SpecialTrajectorySpec",
    "shoot",
    "shoot_double_zero",
    "shoot_regular",
    "shoot_T_alpha",
    "shoot_T_eta_or_u",
    "shoot_T_pm",
    "AnalysisError",
    "BracketError",
    "CycleInfo",
    "RegimeReport",
    "StationaryPointInfo",
    "asymptotic_label",
    "classify_regime",
    "classify_stationary_points",
    "count_sign_changes",
    "detect_limit_cycle",
    "find_alpha_c",
    "phi_of_alpha",
    "theorem_tag",
    "__version__",
]
