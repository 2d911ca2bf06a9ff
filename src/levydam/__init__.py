"""Threshold release policies for dams fed by spectrally positive Levy input.

The package computes exit transforms, potential measures, overshoot laws and
the discounted / long-run average cost of running a two-level release policy,
and checks every analytic quantity against a Monte Carlo path oracle.
"""

from .models import (
    BrownianDrift,
    CompoundPoissonDrift,
    ConvergenceError,
    ExponentialJumps,
    GammaDrift,
    InverseGaussianDrift,
    LevyMeasure,
    LevyModel,
    brownian,
    compound_poisson_exp,
)
from .scale import (
    CLOSED_FORM,
    LAPLACE_INVERSION,
    ScaleFunctionSet,
)
from .exits import (
    FillPhase,
    OvershootLaw,
    PotentialDensity,
    ReleasePhase,
    potential_reflected,
    potential_release,
    potential_two_sided,
    potential_up_killed,
)
from .costs import (
    CostSpec,
    PiecewisePoly,
    PolicyEvaluator,
    PolicyParams,
)
from .simulate import (
    CycleRecords,
    PathConfig,
    SimulationEstimate,
    estimate,
    path_rng,
    run_policy_cycles,
    simulate_total_discounted,
)

__all__ = [
    # models
    "BrownianDrift", "CompoundPoissonDrift", "ConvergenceError",
    "ExponentialJumps", "GammaDrift", "InverseGaussianDrift", "LevyMeasure",
    "LevyModel", "brownian", "compound_poisson_exp",
    # scale
    "CLOSED_FORM", "LAPLACE_INVERSION", "ScaleFunctionSet",
    # exits
    "FillPhase", "OvershootLaw", "PotentialDensity", "ReleasePhase",
    "potential_reflected", "potential_release", "potential_two_sided",
    "potential_up_killed",
    # costs
    "CostSpec", "PiecewisePoly", "PolicyEvaluator", "PolicyParams",
    # simulate
    "CycleRecords", "PathConfig", "SimulationEstimate", "estimate",
    "path_rng", "run_policy_cycles", "simulate_total_discounted",
]
