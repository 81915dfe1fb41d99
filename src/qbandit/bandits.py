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

# Row sums within NU_ROW_TOL pass untouched; within NU_RENORM_TOL they are
# rescaled with a warning; anything worse is rejected.
NU_ROW_TOL = 1e-9
NU_RENORM_TOL = 1e-6
DIST_TOL = 1e-9


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
        if np.any(off > NU_RENORM_TOL):
            worst = int(np.argmax(off))
            raise ValueError(
                f"nu row {worst} sums to {float(sums[worst])}, off by more than "
                f"{NU_RENORM_TOL}"
            )
        stale = off > NU_ROW_TOL
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
    a_star: float
    delta: np.ndarray    # gaps a_star - a, length N
    h1: float            # sum over suboptimal arms of 1 / gap^2


def arm_values(inst: BanditInstance) -> np.ndarray:
    """Expected reward of every arm: row-wise <nu, f>."""
    return (inst.nu * inst.f).sum(axis=1)


def summarize(inst: BanditInstance) -> InstanceSummary:
    """Arm values, optimum, gaps and hardness.

    Raises DegenerateInstance when a non-optimal arm ties the optimum exactly,
    since the hardness sum diverges there.
    """
    a = arm_values(inst)
    x_star = int(np.argmax(a))
    a_star = float(a[x_star])
    delta = a_star - a
    others = np.arange(len(a)) != x_star
    if np.any(delta[others] == 0.0):
        raise DegenerateInstance(
            "a non-optimal arm ties the optimum; gaps of zero make the "
            "hardness sum diverge"
        )
    h1 = float((1.0 / delta[others] ** 2).sum()) if others.any() else 0.0
    a.setflags(write=False)
    delta.setflags(write=False)
    return InstanceSummary(a=a, x_star=x_star, a_star=a_star, delta=delta, h1=h1)


def _check_distribution(p_rec: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(p_rec, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"recommendation has shape {p.shape}, expected ({n},)")
    if not np.all(np.isfinite(p)) or np.any(p < -DIST_TOL):
        raise ValueError("recommendation is not a probability vector")
    if abs(p.sum() - 1.0) > DIST_TOL:
        raise ValueError(f"recommendation sums to {float(p.sum())}, not 1")
    return p


def error_probability(summary: InstanceSummary, p_rec: np.ndarray) -> float:
    """Probability the recommendation misses the optimal arm.

    Summed over the other arms rather than taken as 1 - p[x_star], which
    cancels to 0 once the miss falls below the rounding of 1.
    """
    p = _check_distribution(p_rec, len(summary.a))
    return math.fsum(np.delete(p, summary.x_star))
