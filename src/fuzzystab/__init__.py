"""Numerical verification of fuzzy-norm stability for the additive-quadratic
functional equation: fuzzy-norm axioms and convergence, equation residuals,
direct-method component extraction, and sampled verification of the
stability bounds."""

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
    Residual,
    TestFunction,
    biadditive_form,
    even_part,
    odd_part,
    remove_offset,
    residual_additive,
    residual_main,
    residual_quadratic,
)
from .harness import ExperimentConfig, RunReport, emit_report, run_pipeline
from .spaces import (
    AxiomReport,
    FuzzyNorm,
    SequenceProbe,
    SpaceConfig,
    check_axioms,
    fuzzy_cauchy,
    fuzzy_limit,
    log_a_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
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
    "Residual",
    "RunReport",
    "ScaleError",
    "Scheme",
    "SequenceProbe",
    "SpaceConfig",
    "StabilityReport",
    "THEOREMS",
    "TestFunction",
    "biadditive_form",
    "check_axioms",
    "emit_report",
    "envelope",
    "eval_control",
    "even_part",
    "extract_components",
    "extract_limit",
    "fuzzy_cauchy",
    "fuzzy_limit",
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
