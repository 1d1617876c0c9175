"""Conditional-gradient optimization over particle clouds."""

from . import errors
from .cloud import (
    ParticleCloud,
    load_csv,
    mean_squared_gradient_norm,
    save_csv,
    wasserstein2_exact,
)
from .dual_solvers import (
    DualSolveReport,
    PowerPenalty,
    PushforwardSampler,
    TrustRegionIndicator,
    dual_interval,
    mirror_ascent,
    primal_dual_bisection,
    trust_region_step,
)
from .frank_wolfe import (
    FWConfig,
    FWTrace,
    estimate_gradient_norm,
    run_frank_wolfe,
)
from .functionals import (
    EntropicDeconv,
    MMDSquared,
    PotentialInteraction,
    RandomFeatureKernel,
)
from .moreau import (
    SmoothObjective,
    g_value_and_grad_fullbatch,
    supergradient_hp,
)
from .registry import make_objective, make_pair

__version__ = "0.1.0"

__all__ = [
    "DualSolveReport",
    "EntropicDeconv",
    "FWConfig",
    "FWTrace",
    "MMDSquared",
    "ParticleCloud",
    "PotentialInteraction",
    "PowerPenalty",
    "PushforwardSampler",
    "RandomFeatureKernel",
    "SmoothObjective",
    "TrustRegionIndicator",
    "dual_interval",
    "errors",
    "estimate_gradient_norm",
    "g_value_and_grad_fullbatch",
    "load_csv",
    "make_objective",
    "make_pair",
    "mean_squared_gradient_norm",
    "mirror_ascent",
    "primal_dual_bisection",
    "run_frank_wolfe",
    "save_csv",
    "supergradient_hp",
    "trust_region_step",
    "wasserstein2_exact",
]
