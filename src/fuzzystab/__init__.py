"""Numerical verification of fuzzy-norm stability for the additive-quadratic
functional equation: fuzzy-norm axioms, equation residuals, direct-method
component extraction, and sampled verification of the stability bounds."""

from .control import (
    ConstantControl,
    PowerControl,
    ProductControl,
    StabilityReport,
    THEOREMS,
    envelope,
    eval_control,
    measure_residual_sup,
    scaling_alpha_check,
    vanishing_check,
    verify_stability,
)
from .errors import ConfigError, DimensionMismatchError, DomainError, ScaleError
from .extraction import (
    ExtractionResult,
    Scheme,
    extract_components,
    extract_limit,
    iterate,
    uniqueness_crosscheck,
)
from .funceq import (
    Perturbation,
    TestFunction,
    even_part,
    odd_part,
    remove_offset,
    residual_additive,
    residual_main,
    residual_quadratic,
)
from .harness import ExperimentConfig, RunReport, emit_report, run_pipeline
from .spaces import (
    FuzzyNorm,
    SpaceConfig,
    check_axioms,
    log_a_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstantControl",
    "DimensionMismatchError",
    "DomainError",
    "ExperimentConfig",
    "ExtractionResult",
    "FuzzyNorm",
    "Perturbation",
    "PowerControl",
    "ProductControl",
    "RunReport",
    "ScaleError",
    "Scheme",
    "SpaceConfig",
    "StabilityReport",
    "THEOREMS",
    "TestFunction",
    "check_axioms",
    "emit_report",
    "envelope",
    "eval_control",
    "even_part",
    "extract_components",
    "extract_limit",
    "iterate",
    "log_a_grid",
    "measure_residual_sup",
    "odd_part",
    "remove_offset",
    "residual_additive",
    "residual_main",
    "residual_quadratic",
    "run_pipeline",
    "scaling_alpha_check",
    "uniqueness_crosscheck",
    "vanishing_check",
    "verify_stability",
]
