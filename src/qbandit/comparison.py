"""Matched-confidence comparison between amplified search and the UCB-E baseline.

For one instance, `compare` puts the two methods side by side: the number of
amplification steps n_star against the smallest classical round budget whose
error bound meets the same confidence.  The confidence is matched through
delta = 1 - a_star / (N * mean(a)), the failure probability left by the
amplification ceiling under uniform arm amplitudes.  When that delta is
exactly 0 (a single arm carries all value) the ceiling demands perfect
confidence and no finite classical budget qualifies; the attained failure
probability, the mass P_n_star puts on the other arms, is used instead when
it is meaningfully positive, and the classical column is marked
not-applicable otherwise.

`scaling_experiment` sweeps an instance family over sizes and fits the growth
rate of n_star, the quadratic-speedup check at desk scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bandits import UNIT_TOL, BanditInstance, error_probability, summarize
from .errors import DegenerateInstance
from .qbai import STEP_CEILING, cross_check, run_qbai, success_probability
from .ucbe import ucbe_min_rounds

SIM_CAP = 4096          # largest N*M the cross-checking simulation will touch
# attained failure probabilities below this are numerically indistinguishable
# from perfect confidence
ATTAINED_DELTA_FLOOR = 1e-12


@dataclass(frozen=True)
class ComparisonReport:
    """One instance's quantum-vs-classical summary.

    delta_matched is always the ceiling-based confidence gap; delta_classical
    is the gap actually used for the classical budget (None when no finite
    budget applies, in which case t_classical and ratio are None too).
    simulated records whether state-vector simulation to n_star was
    cross-checked against the closed form, both the law and the rewarded
    amplitude (instances above the cap, or whose n_star is above the
    simulator's STEP_CEILING, are closed-form only).
    """

    instance_id: str
    n_arms: int
    n_env: int
    p_success: float
    n_star: int
    qbai_success: float
    delta_matched: float
    delta_classical: float | None
    t_classical: int | None
    ratio: float | None
    simulated: bool


@dataclass(frozen=True)
class ScalingRow:
    """One family size: a report, or the error that prevented one."""

    size: int
    report: ComparisonReport | None
    error: str | None


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[ScalingRow, ...]
    slope: float | None   # log-log growth rate of n_star against N


def compare(
    inst: BanditInstance,
    alpha: np.ndarray | None = None,
    *,
    instance_id: str = "",
    sim_cap: int = SIM_CAP,
) -> ComparisonReport:
    """Side-by-side report for one instance.

    The classical budget is only computed for uniform alpha (the matched-delta
    mapping assumes it).  A one-arm instance needs no search at all: n_star is
    0 and the law is the certain [1], so its success is 1, delta_matched 0,
    the classical columns None, and nothing is simulated.
    """
    n, m = inst.n_arms, inst.n_env
    model = success_probability(inst, alpha)
    # a literal law: p_rec(0) of a complex unit alpha can sit an ulp off 1
    n_star, p_rec = (model.n_star, model.p_rec(model.n_star)) if n > 1 else (0, np.ones(1))
    a = model.a
    x_star = int(np.argmax(a))
    qbai_success = float(p_rec[x_star])
    is_uniform = bool(np.abs(model.w - 1.0 / n).max() <= UNIT_TOL)
    # under uniform weights the law at n_star keeps the order of the arm
    # values, so only a tie, left to rounding, can move the argmax
    if not is_uniform and int(np.argmax(p_rec)) != x_star:
        warnings.warn(
            "recommendation argmax differs from the best arm "
            "(non-uniform arm amplitudes can reorder the marginal)",
            stacklevel=2,
        )
    simulated = n > 1 and n * m <= sim_cap and n_star <= STEP_CEILING
    if simulated:
        cross_check(model, [run_qbai(inst, alpha, n_star)])
    delta_matched = max(0.0, 1.0 - a[x_star] / (n * float(a.mean())))
    delta_classical: float | None = None
    t_classical: int | None = None
    ratio: float | None = None
    if is_uniform:
        summary = summarize(inst)
        if delta_matched > 0.0:
            delta_classical = delta_matched
        else:
            # the ceiling demands certainty; match what the run attains instead
            attained = error_probability(summary, p_rec)
            if attained >= ATTAINED_DELTA_FLOOR:
                delta_classical = attained
        if delta_classical is not None:
            t_classical = ucbe_min_rounds(summary, delta_classical)
            ratio = t_classical / max(n_star, 1)
    return ComparisonReport(
        instance_id=instance_id,
        n_arms=n,
        n_env=m,
        p_success=model.p,
        n_star=n_star,
        qbai_success=qbai_success,
        delta_matched=delta_matched,
        delta_classical=delta_classical,
        t_classical=t_classical,
        ratio=ratio,
        simulated=simulated,
    )


def scaling_experiment(
    family: Callable[[int], BanditInstance],
    sizes: Sequence[int],
    *,
    sim_cap: int = SIM_CAP,
) -> ScalingResult:
    """Compare a family of instances across sizes under uniform arm amplitudes.

    Per-size errors are recorded on the row rather than aborting the sweep.
    The slope is the least-squares fit of log(n_star) against log(N) over the
    rows with n_star >= 1; None unless those rows hold two distinct sizes,
    since a line through one N has no defined slope.
    """
    rows: list[ScalingRow] = []
    for size in sizes:
        if size < 1:
            rows.append(ScalingRow(size=size, report=None, error="size must be >= 1"))
            continue
        try:
            inst = family(size)
            report = compare(inst, instance_id=f"N={size}", sim_cap=sim_cap)
            rows.append(ScalingRow(size=size, report=report, error=None))
        except (DegenerateInstance, ValueError) as exc:
            # instance-level problems mark the row; genuine bugs still raise
            rows.append(ScalingRow(size=size, report=None, error=str(exc)))
    pts = [
        (row.size, row.report.n_star)
        for row in rows
        if row.report is not None and row.report.n_star >= 1
    ]
    slope = None
    if len({size for size, _ in pts}) >= 2:
        logs = np.log(np.array(pts, dtype=float))
        slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    return ScalingResult(rows=tuple(rows), slope=slope)
