"""Simulation and parameter recovery for a delayed two-gas exchange model.

The package integrates a constant-delay differential system describing
alveolar CO2/O2 partial-pressure dynamics under delayed ventilation control,
generates reproducible noisy measurements from it, and recovers the gas
exchange rates by damped and trust-region nonlinear least squares.
"""

from .data import Dataset, generate_dataset, load_dataset, save_dataset
from .errors import (
    ConfigError,
    InvalidGridError,
    NonFiniteError,
    NoRootError,
    OutOfDomainError,
    RespfitError,
    SingularNormalEquationsError,
    SolverError,
)
from .experiments import (
    PRESETS,
    ExperimentConfig,
    parse_config_file,
    run_config,
    run_example,
    run_summary,
)
from .fitting import (
    FitResult,
    IterationRecord,
    ResidualProblem,
    Termination,
    fd_jacobian,
    solve_lm,
    solve_trust_region,
    write_trace_csv,
)
from .model import (
    Constants,
    EquilibriumPoint,
    ModelParams,
    State,
    equilibrium_solve,
)
from .solver import (
    ConstantHistory,
    Grid,
    SamplePlan,
    Trajectory,
    history_from_description,
    solve_dde,
    solve_dde_raw,
)

__all__ = [
    "ConfigError",
    "ConstantHistory",
    "Constants",
    "Dataset",
    "EquilibriumPoint",
    "ExperimentConfig",
    "FitResult",
    "Grid",
    "InvalidGridError",
    "IterationRecord",
    "ModelParams",
    "NoRootError",
    "NonFiniteError",
    "OutOfDomainError",
    "PRESETS",
    "ResidualProblem",
    "RespfitError",
    "SamplePlan",
    "SingularNormalEquationsError",
    "SolverError",
    "State",
    "Termination",
    "Trajectory",
    "equilibrium_solve",
    "fd_jacobian",
    "generate_dataset",
    "history_from_description",
    "load_dataset",
    "parse_config_file",
    "run_config",
    "run_example",
    "run_summary",
    "save_dataset",
    "solve_dde",
    "solve_dde_raw",
    "solve_lm",
    "solve_trust_region",
    "write_trace_csv",
]

__version__ = "0.1.0"
