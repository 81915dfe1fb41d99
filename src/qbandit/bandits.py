"""Best-arm identification instances over finite environments.

An instance is a pair of (N, M) tables: nu gives each arm's outcome
distribution over M environment states, f marks which (arm, outcome) pairs
count as a reward.  Everything downstream (arm values, gaps, hardness, the
amplification target) derives from these two tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstance, RenormalizationWarning

# Input precision, one policy for the whole package.  A total that should be
# 1 (a nu row, a file's alpha squared norm, a library alpha or state norm, a
# recommendation law) passes within UNIT_TOL, as do uniform weights within
# UNIT_TOL of 1/N.  A file's nu row or alpha off by more than UNIT_TOL but at
# most RESCALE_TOL is rescaled with a warning; anything worse is rejected.
UNIT_TOL = 1e-9
RESCALE_TOL = 1e-6


@dataclass(frozen=True)
class BanditInstance:
    """Outcome distributions nu (N, M) and binary reward table f (N, M)."""

    nu: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        nu = np.array(self.nu, dtype=np.float64)
        f = np.array(self.f)
        if nu.ndim != 2 or nu.shape[0] < 1 or nu.shape[1] < 1:
            raise ValueError(f"nu must be a (N, M) table, got shape {nu.shape}")
        if f.shape != nu.shape:
            raise ValueError(f"f shape {f.shape} does not match nu shape {nu.shape}")
        # every comparison with NaN is False, so the checks below would pass it
        if not np.isfinite(nu).all():
            raise ValueError("nu must be finite")
        if np.any(nu < 0):
            raise ValueError("nu has negative entries")
        if not np.isin(f, (0, 1)).all():
            raise ValueError("f entries must be 0 or 1")
        sums = nu.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > RESCALE_TOL):
            worst = int(np.argmax(off))
            raise ValueError(
                f"nu row {worst} sums to {float(sums[worst])}, off by more than "
                f"{RESCALE_TOL}"
            )
        stale = off > UNIT_TOL
        if np.any(stale):
            warnings.warn(
                f"rescaled {int(stale.sum())} nu row(s) off normalization by up to "
                f"{float(off.max()):.3e}",
                RenormalizationWarning,
                stacklevel=2,
            )
            nu = nu / sums[:, None]
        f = f.astype(np.int64)
        nu.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "f", f)

    @property
    def n_arms(self) -> int:
        return self.nu.shape[0]

    @property
    def n_env(self) -> int:
        return self.nu.shape[1]


@dataclass(frozen=True)
class InstanceSummary:
    """Arm values and the gap-based quantities derived from them."""

    a: np.ndarray        # arm values, length N
    x_star: int          # lowest-index optimal arm
    h1: float            # sum over suboptimal arms of 1 / gap^2


def arm_values(inst: BanditInstance) -> np.ndarray:
    """Expected reward of every arm: row-wise <nu, f>."""
    return (inst.nu * inst.f).sum(axis=1)


def summarize(inst: BanditInstance) -> InstanceSummary:
    """Arm values, optimum, gaps and hardness.

    Raises DegenerateInstance when the hardness sum is not finite in float64:
    a non-optimal arm ties the optimum exactly, or trails it by a gap so
    small that 1/gap^2 overflows.
    """
    a = arm_values(inst)
    x_star = int(np.argmax(a))
    # gaps of the non-optimal arms, in arm order
    gaps = np.delete(a[x_star] - a, x_star)
    # a tie, or a gap below about 7e-155, squares to 0 or to a subnormal
    # whose reciprocal is inf; a sum of finite terms can overflow too
    with np.errstate(divide="ignore", over="ignore"):
        h1 = float((1.0 / gaps ** 2).sum())
    if not math.isfinite(h1):
        raise DegenerateInstance(f"the smallest gap to the optimum is {gaps.min():.3g}, "
                                 f"so the hardness sum of 1/gap^2 is not finite")
    a.setflags(write=False)
    return InstanceSummary(a=a, x_star=x_star, h1=h1)


def _check_distribution(p_rec: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(p_rec, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"recommendation has shape {p.shape}, expected ({n},)")
    if not np.all(np.isfinite(p)) or np.any(p < -UNIT_TOL):
        raise ValueError("recommendation is not a probability vector")
    if abs(p.sum() - 1.0) > UNIT_TOL:
        raise ValueError(f"recommendation sums to {float(p.sum())}, not 1")
    return p


def error_probability(summary: InstanceSummary, p_rec: np.ndarray) -> float:
    """Probability the recommendation misses the optimal arm.

    Summed over the other arms rather than taken as 1 - p[x_star], which
    cancels to 0 once the miss falls below the rounding of 1.
    """
    p = _check_distribution(p_rec, len(summary.a))
    return math.fsum(np.delete(p, summary.x_star))
