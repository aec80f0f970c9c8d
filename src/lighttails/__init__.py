"""Asymptotic tail expansions for infinite weighted sums of i.i.d. variables
with light subexponential tails, validated against independent Monte Carlo
and quadrature-convolution oracles.
"""

from .distributions import (ScaledFactor, TailDistribution, custom_hazard,
                            log_power_mixture, log_weibull, lognormal_type,
                            weibull_type)
from .errors import (ConfigError, DegenerateWeightError, DomainError,
                     LightTailsError, OutOfScopeError, QuadratureToleranceError,
                     RegimeConditionError, SmoothnessError, UnsupportedSignError)
from .expansion import (EvaluationTable, ExpansionTerm, HazardScaleRewrite,
                        Regime, RegimeKind, RemainderScale, TailExpansion,
                        classify, evaluate, expand, rewrite_in_hazard_scale)
from .hazard import HazardModel, LogPowerSum, MetadataDiagnostics, validate_metadata
from .laplace import (LaplaceCharacter, apply_character,
                      character_from_moments, compose, convolve_moments,
                      cumulants_to_raw, identity_character, raw_to_cumulants,
                      residual_moments, scale_moments)
from .oracle import (ComparisonTable, OracleBudget, OracleEstimate, compare_with_oracle,
                     conditional_mc, convolve_pair_sf, convolved_sf, plain_mc,
                     quadrature_estimate)
from .weights import GeometricTail, Level, WeightSequence

__version__ = "0.1.0"

__all__ = [
    "TailDistribution", "ScaledFactor", "weibull_type", "log_weibull", "lognormal_type",
    "custom_hazard", "log_power_mixture",
    "HazardModel", "LogPowerSum", "MetadataDiagnostics", "validate_metadata",
    "WeightSequence", "GeometricTail", "Level",
    "LaplaceCharacter", "identity_character", "character_from_moments",
    "compose", "apply_character", "residual_moments", "raw_to_cumulants",
    "cumulants_to_raw", "convolve_moments", "scale_moments",
    "Regime", "RegimeKind", "classify", "expand", "TailExpansion", "ExpansionTerm",
    "RemainderScale", "rewrite_in_hazard_scale", "HazardScaleRewrite",
    "evaluate", "EvaluationTable",
    "OracleEstimate", "OracleBudget", "conditional_mc", "plain_mc",
    "quadrature_estimate",
    "convolve_pair_sf", "convolved_sf", "compare_with_oracle", "ComparisonTable",
    "QuadratureToleranceError",
    "LightTailsError", "DomainError", "SmoothnessError", "DegenerateWeightError",
    "UnsupportedSignError", "OutOfScopeError", "RegimeConditionError", "ConfigError",
]
