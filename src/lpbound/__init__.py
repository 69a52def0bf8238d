"""Estimation and inference for linear programs with estimated parameters."""

from types import ModuleType as _ModuleType

from .linalg import (
    LpParams,
    LpSolution,
    solve_lp,
    smallest_singular_value,
    inverse_vectorize,
    OPTIMAL,
    INFEASIBLE,
    UNBOUNDED,
)
from .estimators import (
    PenaltyConfig,
    plug_in_value,
    penalty_value,
    debiased_estimate,
    set_expansion_value,
    default_kappa_n,
    tao_vu_quantile,
    select_penalty,
    select_v_bar,
)
from .geometry import delta_condition
from .inference import (
    ThetaEstimate,
    InferenceConfig,
    InferenceResult,
    run_inference,
    combine_two_sided,
    split_sample,
    find_triplet,
    asymptotic_variance,
)
from .aicm import (
    ConditionalMomentTable,
    AssumptionSpec,
    MeanPotential,
    ATE,
    Microdata,
    ingest_sample,
    read_microdata_csv,
    compile,
    bound_value,
    cmivw_bounds,
    ets_estimate,
    bootstrap_theta_covariance,
    bound_interval,
)
from .montecarlo import (
    SimulationScenario,
    ConsistencyScenario,
    InferenceScenario,
    UniformGridScenario,
    SimulationReport,
    run_consistency,
    run_inference_study,
    run_uniform_grid,
)

# every public name imported above (the submodules themselves excepted)
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
