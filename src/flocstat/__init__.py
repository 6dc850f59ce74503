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
from .diagnostics import (
    EnergyConfig,
    ReproductiveNumbers,
    blowup_functional,
    hp_energy,
    reproductive_numbers,
    weighted_mass,
)
from .eigen import BoundaryVariant, EigenPair, lambda_bracket, solve_principal
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
    single_species,
    weight_vector,
)
from .pde import (
    BoundReport,
    Grid,
    OutcomeReport,
    SimulationResult,
    StateField,
    Verdict,
    advance,
    classify_outcome,
    monitor_bounds,
    simulate,
)
from .steady import (
    ClauseMargin,
    CoexistenceReport,
    ExtinctionReport,
    SteadyState,
    apply_steady_operator,
    check_coexistence_hypotheses,
    check_extinction_hypotheses,
    fixed_point_solve,
    kernel_eval,
    kernel_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AttachedTimesTotalRate",
    "BoundReport",
    "BoundaryVariant",
    "ClauseMargin",
    "CoexistenceReport",
    "ConditionReport",
    "ConfigError",
    "ConstantRate",
    "Controls",
    "EigenPair",
    "EnergyConfig",
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
    "OutcomeReport",
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
    "advance",
    "apply_steady_operator",
    "available_presets",
    "blowup_functional",
    "check_coexistence_hypotheses",
    "check_extinction_hypotheses",
    "check_structural_conditions",
    "classify_outcome",
    "fixed_point_solve",
    "hp_energy",
    "kernel_eval",
    "kernel_matrix",
    "lambda_bracket",
    "load_config",
    "load_preset",
    "monitor_bounds",
    "parse_config",
    "reaction_field",
    "reproductive_numbers",
    "run_experiment",
    "simulate",
    "single_species",
    "solve_principal",
    "sweep",
    "weight_vector",
    "weighted_mass",
]
