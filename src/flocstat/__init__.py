"""flocstat — numerical laboratory for a flocculation chemostat.

A substrate and m microbial species, each split into isolated and
attached (floc) phases, flow through the unit interval with diffusion,
drift, Monod/Haldane growth, and density-dependent exchange between the
phases.  The package provides transient simulation, principal-eigenvalue
computation for the transport operator, steady-state solving with
existence-hypothesis reports, blow-up detection, structural-condition
checking, and diagnostics.
"""

from __future__ import annotations

from .cli import (
    ConfigError,
    Controls,
    RunConfig,
    SweepAxis,
    available_presets,
    load_config,
    load_preset,
    parse_config,
    run_experiment,
    sweep,
)
from .diagnostics import ReproductiveNumbers, reproductive_numbers
from .eigen import EigenPair, lambda_bracket, solve_principal
from .model import (
    AttachedTimesTotalRate,
    ConditionReport,
    ConstantRate,
    FlocRate,
    GrowthLaw,
    Haldane,
    KineticsSpec,
    LinearTotalRate,
    ModelParams,
    Monod,
    OnePlusAttachedTimesTotalRate,
    PowerTotalRate,
    ZeroGrowth,
    check_structural_conditions,
    reaction_field,
    weight_vector,
)
from .pde import (
    Grid,
    SimulationResult,
    StateField,
    Verdict,
    classify_outcome,
    simulate,
)
from .steady import (
    ClauseMargin,
    CoexistenceReport,
    ExtinctionReport,
    SteadyState,
    check_coexistence_hypotheses,
    check_extinction_hypotheses,
    fixed_point_solve,
    kernel_eval,
    kernel_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AttachedTimesTotalRate",
    "ClauseMargin",
    "CoexistenceReport",
    "ConditionReport",
    "ConfigError",
    "ConstantRate",
    "Controls",
    "EigenPair",
    "ExtinctionReport",
    "FlocRate",
    "Grid",
    "GrowthLaw",
    "Haldane",
    "KineticsSpec",
    "LinearTotalRate",
    "ModelParams",
    "Monod",
    "OnePlusAttachedTimesTotalRate",
    "PowerTotalRate",
    "ReproductiveNumbers",
    "RunConfig",
    "SimulationResult",
    "StateField",
    "SteadyState",
    "SweepAxis",
    "Verdict",
    "ZeroGrowth",
    "__version__",
    "available_presets",
    "check_coexistence_hypotheses",
    "check_extinction_hypotheses",
    "check_structural_conditions",
    "classify_outcome",
    "fixed_point_solve",
    "kernel_eval",
    "kernel_matrix",
    "lambda_bracket",
    "load_config",
    "load_preset",
    "parse_config",
    "reaction_field",
    "reproductive_numbers",
    "run_experiment",
    "simulate",
    "solve_principal",
    "sweep",
    "weight_vector",
]
