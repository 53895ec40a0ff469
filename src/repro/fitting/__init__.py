"""Regression stage: piece-wise linear fits of folded samples.

:mod:`repro.fitting.pwlr` implements the paper's contribution — a
continuous piece-wise linear regression whose breakpoints are searched
automatically; the slope of each segment is the counter's rate in that
phase, and the breakpoints are the phase boundaries.
:mod:`repro.fitting.model_selection` provides the information criteria and
the boundary rules (merge, significance, sliver) that pick the number of
breakpoints.
:mod:`repro.fitting.kernel_smooth` is the *prior-work baseline* (the
Kriging/kernel interpolation used by earlier folding papers), against which
FIG-4 compares.  :mod:`repro.fitting.evaluation` scores any fit against the
machine model's exact ground truth.
"""

from repro.fitting.moments import MomentProfile
from repro.fitting.pwlr import (
    PiecewiseLinearModel,
    PWLRConfig,
    fit_fixed_breakpoints,
    fit_pwlr,
    refit_slopes_many,
)
from repro.fitting.model_selection import bic, aic, merge_insignificant
from repro.fitting.kernel_smooth import KernelSmoother, smoother_breakpoints
from repro.fitting.evaluation import FitEvaluation, evaluate_fit

__all__ = [
    "MomentProfile",
    "PiecewiseLinearModel",
    "PWLRConfig",
    "fit_pwlr",
    "fit_fixed_breakpoints",
    "refit_slopes_many",
    "bic",
    "aic",
    "merge_insignificant",
    "KernelSmoother",
    "smoother_breakpoints",
    "FitEvaluation",
    "evaluate_fit",
]
