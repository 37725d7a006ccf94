"""Bayesian L2 calibration of inexact mathematical models.

Pipeline: smooth field data by kernel ridge regression with bandwidth and
ridge level chosen by generalized cross validation, minimise the squared
L2 distance between the smoothed mean and the model over the parameter box,
scale the generalized posterior so that credible sets track the frequentist
variability of the estimate, then summarise by Laplace approximation, by
random-walk Metropolis, or in closed form for straight-line models.
"""

__version__ = "0.1.0"

from .numerics import (DEFAULT_QUAD_ORDER, FactorError, MinimizeResult,
                       QuadratureRule, build_rule, gauss_legendre_01,
                       minimize_box, sym_psd_factor)
from .models import (SCENARIO_NAMES, DesignRule, DomainBox, MathModel,
                     PhysicalSystem, eval_bias, make_scenario,
                     validate_derivatives)
from .smoother import (DEFAULT_LAMBDA_GRID, Dataset, DegenerateSmootherError,
                       GcvGrid, KernelSpec, SmootherFit, default_rho_grid,
                       fit_smoother, fit_smoother_fixed, gcv_score,
                       kernel_matrix, read_dataset_csv, write_dataset_csv)
from .calibration import (CalibrationEstimate, estimate_theta, l2_loss_fn,
                          l2_loss_grad, l2_loss_hess, linear_theta_hat,
                          ols_loss_fn, ols_loss_grad, ols_loss_hess)
from .asymptotics import (CONDITIONAL_FORMS, SandwichMatrices,
                          SingularCurvatureError, conditional_matrices,
                          marginal_matrices, ols_matrices,
                          weight_decay_diagnostic)
from .scaling import (ScalingAdjustment, ScalingError, curvature_adjustment,
                      fixed_gamma, linear_estimator_variance,
                      magnitude_adjustment, magnitude_gamma, no_scaling,
                      scaled_loss, variance_matching_gamma)
from .posterior import (LaplaceApprox, PosteriorSample, Prior,
                        SamplerSettings, batch_mcse, conjugate_posterior,
                        credible_interval, laplace_approx, log_gen_posterior,
                        sample_posterior, split_rhat, write_draws_csv)
from .simharness import (DEFAULT_ANALYSES, ClosedFormStudyConfig,
                         SimulationReport, StudyConfig, brute_force_theta,
                         generate_replicate, oracle_theta,
                         run_closed_form_study, run_study)

__all__ = [
    "__version__",
    # numerics
    "DEFAULT_QUAD_ORDER", "FactorError", "MinimizeResult", "QuadratureRule",
    "build_rule", "gauss_legendre_01", "minimize_box",
    "sym_psd_factor",
    # models
    "SCENARIO_NAMES", "DesignRule", "DomainBox", "MathModel",
    "PhysicalSystem", "eval_bias", "make_scenario", "validate_derivatives",
    # smoother
    "DEFAULT_LAMBDA_GRID", "Dataset", "DegenerateSmootherError", "GcvGrid",
    "KernelSpec", "SmootherFit", "default_rho_grid", "fit_smoother",
    "fit_smoother_fixed", "gcv_score", "kernel_matrix", "read_dataset_csv",
    "write_dataset_csv",
    # calibration
    "CalibrationEstimate", "estimate_theta", "l2_loss_fn", "l2_loss_grad",
    "l2_loss_hess", "linear_theta_hat", "ols_loss_fn", "ols_loss_grad",
    "ols_loss_hess",
    # asymptotics
    "CONDITIONAL_FORMS", "SandwichMatrices", "SingularCurvatureError",
    "conditional_matrices", "marginal_matrices", "ols_matrices",
    "weight_decay_diagnostic",
    # scaling
    "ScalingAdjustment", "ScalingError", "curvature_adjustment",
    "fixed_gamma", "linear_estimator_variance", "magnitude_adjustment",
    "magnitude_gamma", "no_scaling", "scaled_loss",
    "variance_matching_gamma",
    # posterior
    "LaplaceApprox", "PosteriorSample", "Prior", "SamplerSettings",
    "batch_mcse", "conjugate_posterior", "credible_interval",
    "laplace_approx", "log_gen_posterior", "sample_posterior", "split_rhat",
    "write_draws_csv",
    # simulation harness
    "DEFAULT_ANALYSES", "ClosedFormStudyConfig", "SimulationReport",
    "StudyConfig", "brute_force_theta", "generate_replicate", "oracle_theta",
    "run_closed_form_study", "run_study",
]
