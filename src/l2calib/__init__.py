"""Bayesian L2 calibration of inexact mathematical models.

Pipeline: smooth field data by kernel ridge regression with bandwidth and
ridge level chosen by generalized cross validation, minimise the squared
L2 distance between the smoothed mean and the model over the parameter box,
scale the generalized posterior so that credible sets track the frequentist
variability of the estimate, then summarise by Laplace approximation, by
random-walk Metropolis, or in closed form for straight-line models.
"""

__version__ = "0.1.0"

from .numerics import build_rule
from .models import make_scenario
from .smoother import fit_smoother
from .calibration import estimate_theta, l2_loss_fn
from .asymptotics import conditional_matrices, marginal_matrices
from .scaling import curvature_adjustment, magnitude_adjustment, scaled_loss
from .posterior import (Prior, SamplerSettings, credible_interval,
                        laplace_approx, sample_posterior)
from .simharness import (ClosedFormStudyConfig, StudyConfig, generate_replicate,
                         run_closed_form_study, run_study)

# the README quickstart and the study entry points; import anything else
# from its module
__all__ = [
    "__version__",
    "build_rule", "make_scenario", "generate_replicate", "fit_smoother",
    "estimate_theta", "l2_loss_fn", "marginal_matrices",
    "conditional_matrices", "magnitude_adjustment", "curvature_adjustment",
    "scaled_loss", "laplace_approx", "credible_interval", "Prior",
    "SamplerSettings", "sample_posterior",
    "StudyConfig", "run_study", "ClosedFormStudyConfig",
    "run_closed_form_study",
]
