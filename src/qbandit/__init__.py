"""Exact simulation and closed-form analysis of amplitude-amplified best arm
identification, with a classical successive-exploration baseline for speedup
comparisons."""

from __future__ import annotations

__version__ = "0.1.0"

from .bandits import (
    BanditInstance,
    InstanceSummary,
    arm_values,
    error_probability,
    summarize,
)
from .comparison import (
    ComparisonReport,
    ScalingResult,
    ScalingRow,
    compare,
    scaling_experiment,
)
from .errors import (
    DegenerateInstance,
    InstanceFormatError,
    InvariantViolation,
    QbanditError,
    RenormalizationWarning,
)
from .instances import (
    FAMILIES,
    bernoulli_instance,
    load_instance,
    one_good_arm,
    two_tier,
)
from .qbai import (
    ClosedForm,
    QbaiRun,
    StateVector,
    analytic_recommendation,
    build_operators,
    grover_step,
    marginal_over_y,
    run_qbai,
    success_probability,
)
from .ucbe import (
    RngStream,
    UcbeTrace,
    estimate_error,
    run_ucbe,
    tuned_explore,
    ucbe_error_bound,
    ucbe_min_rounds,
)

__all__ = [
    "BanditInstance",
    "ClosedForm",
    "ComparisonReport",
    "DegenerateInstance",
    "FAMILIES",
    "InstanceFormatError",
    "InstanceSummary",
    "InvariantViolation",
    "QbaiRun",
    "QbanditError",
    "RenormalizationWarning",
    "RngStream",
    "ScalingResult",
    "ScalingRow",
    "StateVector",
    "UcbeTrace",
    "analytic_recommendation",
    "arm_values",
    "bernoulli_instance",
    "build_operators",
    "compare",
    "error_probability",
    "estimate_error",
    "grover_step",
    "load_instance",
    "marginal_over_y",
    "one_good_arm",
    "run_qbai",
    "run_ucbe",
    "scaling_experiment",
    "success_probability",
    "summarize",
    "tuned_explore",
    "two_tier",
    "ucbe_error_bound",
    "ucbe_min_rounds",
    "__version__",
]
