"""Estimation of linear functionals of treatment-effect functions from
observational data, with theory diagnostics and adversarial lower-bound
constructions on finite spaces."""

from .core import (
    ActionSpace,
    Continuous1D,
    Dataset,
    FiniteStates,
    ProblemInstance,
    PropensityError,
    efficient_variance,
    excess_variance,
    optimal_auxiliary,
    sample_dataset,
    true_functional,
    weighted_norm,
)
from .estimators import (
    EstimateReport,
    FirstStageSpec,
    TwoStageReport,
    generic_estimate,
    ipw_estimate,
    oracle_estimate,
    two_stage_estimate,
)
from .quadrature import QuadratureError, adaptive_simpson
from .regression import (
    cross_validate_lambda,
    fit_l1_constrained,
    fit_weighted_isotonic,
    fit_weighted_krr,
    fit_weighted_linear,
    project_l1_ball,
)
from .rng import make_generator, mix_seed, substream

__all__ = [name for name in dir() if not name.startswith("_")]
