"""Shared instance builders and fault injections for the suite."""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from qbandit import BanditInstance, bernoulli_instance, comparison
from qbandit.qbai import ClosedForm, QbaiRun, build_operators, sweep

# share of random instances whose rewarded mass is scaled down to a tiny p
TINY_P_SHARE = 0.25


def four_arm_exact() -> BanditInstance:
    """Single-outcome arms with values (1, 0, 0, 0): p = 1/4 under uniform alpha."""
    return BanditInstance(nu=np.ones((4, 1)), f=np.array([[1], [0], [0], [0]]))


def two_arm_stochastic() -> BanditInstance:
    """Two fair-coin arms with values (0.5, 0): p = 1/4 under uniform alpha."""
    return BanditInstance(
        nu=np.array([[0.5, 0.5], [0.5, 0.5]]),
        f=np.array([[1, 0], [0, 0]]),
    )


def write_instance(path, inst: BanditInstance, alpha=None) -> None:
    """Write inst, and alpha when given, to the instance file at path (a Path)."""
    data = {"N": inst.n_arms, "M": inst.n_env, "nu": inst.nu.tolist(), "f": inst.f.tolist()}
    path.write_text(json.dumps(data if alpha is None else {**data, "alpha": alpha.tolist()}))


def variant_run(inst: BanditInstance, alpha: np.ndarray | None, n: int,
                **variant) -> QbaiRun:
    """The run after n steps of the kernel built with build_operators' variant
    keywords, reflection and phase_rng."""
    *_, run = sweep(build_operators(inst, alpha, **variant), n)
    return run


def ceiling(model: ClosedForm) -> float:
    """w_x* a_x* / p: the optimal arm's probability bound over all n.

    x* is the true best arm (lowest index on ties); with non-uniform alpha
    the argmax of p_rec may differ from it.
    """
    x_star = int(np.argmax(model.a))
    return float(model.w[x_star] * model.a[x_star] / model.p)


def one_good(n_arms: int, value: float) -> BanditInstance:
    """Arm 0 worth value, every other arm worthless."""
    values = np.zeros(n_arms)
    values[0] = value
    return bernoulli_instance(values)


def perturb_compare_runs(monkeypatch, field: str) -> None:
    """Move every run that compare simulates 1e-9 off in one QbaiRun field,
    ten times the agreement tolerance."""
    real_run_qbai = comparison.run_qbai

    def perturbed(*args, **kwargs):
        run = real_run_qbai(*args, **kwargs)
        return dataclasses.replace(run, **{field: getattr(run, field) + 1e-9})
    monkeypatch.setattr(comparison, "run_qbai", perturbed)


def random_instance(
    rng: np.random.Generator, *, n_max: int = 8, m_max: int = 8
) -> tuple[BanditInstance, np.ndarray | None]:
    """A random instance plus arm amplitudes (None means uniform).

    About one draw in four has its rewarded mass scaled down to p = 10^-k,
    k uniform in 1..12: every arm's rewarded outcomes shrink by one factor and
    its unrewarded ones grow to keep the row's sum.  A draw with p = 0 has
    nothing to amplify and is resampled.
    """
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        nu = rng.dirichlet(np.ones(m), size=n)
        f = (rng.random((n, m)) < 0.5).astype(int)
        if rng.random() < 0.5:
            alpha = None
            weights = np.full(n, 1.0 / n)
        else:
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            alpha = raw / np.linalg.norm(raw)
            weights = np.abs(alpha) ** 2
        values = (nu * f).sum(axis=1)
        p = float(weights @ values)
        if p == 0.0:
            continue
        if rng.random() < TINY_P_SHARE:
            target = 10.0 ** -int(rng.integers(1, 13))
            rest = (nu * (1 - f)).sum(axis=1)
            # an arm with every outcome rewarded has nothing to grow
            if target < p and (rest > 0).all():
                c = target / p
                nu = nu * np.where(f == 1, c, ((1.0 - c * values) / rest)[:, None])
        return BanditInstance(nu=nu, f=f), alpha
