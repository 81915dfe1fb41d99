"""Shared instance builders and fault injections for the suite."""

from __future__ import annotations

import dataclasses

import numpy as np

from qbandit import BanditInstance, comparison

# success mass below P_MIN leaves nothing to amplify, so the generator resamples
P_MIN = 1e-4


def four_arm_exact() -> BanditInstance:
    """Single-outcome arms with values (1, 0, 0, 0): p = 1/4 under uniform alpha."""
    return BanditInstance(nu=np.ones((4, 1)), f=np.array([[1], [0], [0], [0]]))


def two_arm_stochastic() -> BanditInstance:
    """Two fair-coin arms with values (0.5, 0): p = 1/4 under uniform alpha."""
    return BanditInstance(
        nu=np.array([[0.5, 0.5], [0.5, 0.5]]),
        f=np.array([[1, 0], [0, 0]]),
    )


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

    Resamples until the success mass is at least P_MIN.
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
        p = float(weights @ (nu * f).sum(axis=1))
        if p >= P_MIN:
            return BanditInstance(nu=nu, f=f), alpha
