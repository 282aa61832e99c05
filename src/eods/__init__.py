"""Extreme outcome-dependent sampling: estimation, design, screening.

Estimate forward regression effects from biomarkers measured only on
the response extremes, plan such designs with noncentral-F power
calculations, screen many biomarkers with FDR control, and evaluate the
whole approach by simulation.
"""

from .design import (
    DesignSpec,
    PowerResult,
    cohen_f2,
    min_gamma_for_power,
    min_nfull_for_power,
    power_eods,
    power_full,
    variance_inflation,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    DomainError,
    EodsError,
    FileError,
    Infeasible,
    InsufficientData,
    SchemaError,
)
from .odeb import (
    FullResponseSummary,
    ModelDiagnostics,
    OdebEstimate,
    SelectedSubset,
    check_model,
    convert_reverse_to_forward,
    estimate,
    se_beta_y,
)
from .regress import FitResult, PairedSample, fit_simple
from .screen import (
    ScreenRow,
    SelectionPlan,
    bh_adjust,
    screen_biomarkers,
    select_extremes,
)
from .sim import (
    GridResult,
    SimMetrics,
    SimScenario,
    generate_dataset,
    residual_sampler,
    run_grid,
    run_scenario,
)

__all__ = [
    "ConfigError",
    "DegenerateInput",
    "DesignSpec",
    "DomainError",
    "EodsError",
    "FileError",
    "FitResult",
    "FullResponseSummary",
    "GridResult",
    "Infeasible",
    "InsufficientData",
    "ModelDiagnostics",
    "OdebEstimate",
    "PairedSample",
    "PowerResult",
    "SchemaError",
    "ScreenRow",
    "SelectedSubset",
    "SelectionPlan",
    "SimMetrics",
    "SimScenario",
    "bh_adjust",
    "check_model",
    "cohen_f2",
    "convert_reverse_to_forward",
    "estimate",
    "fit_simple",
    "generate_dataset",
    "min_gamma_for_power",
    "min_nfull_for_power",
    "power_eods",
    "power_full",
    "residual_sampler",
    "run_grid",
    "run_scenario",
    "screen_biomarkers",
    "se_beta_y",
    "select_extremes",
    "variance_inflation",
]

__version__ = "0.1.0"
