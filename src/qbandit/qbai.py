"""Amplitude amplification for best-arm search.

Two independent routes to the same quantity live here.  `run_qbai` simulates
the amplification loop with exact state vectors: prepare a superposition of
(arm, outcome) pairs weighted by the arm amplitudes alpha and the outcome
distributions nu, then repeatedly flip the sign of rewarded pairs and reflect
about the prepared state.  `analytic_recommendation` evaluates the closed-form
law the loop must obey,

    P_n(x) = |alpha_x|^2 * (1 + (a_x - p) * C(p, n)),
    C(p, n) = (sin((2n+1) * theta)^2 - p) / (p * (1 - p)),  sin(theta)^2 = p,

where a_x is arm x's value and p the success mass of the prepared state.  The
two routes agreeing to ~1e-12 is the package's central cross-check.

The preparation W is the product of two Householder reflectors with phases:
one on the agent axis whose first column is alpha, and one per arm on the
environment axis whose first column is sqrt(nu[x]) (times random phases when
asked).  The composite reflection W S W* = 2|psi0><psi0| - I depends on W only
through W|0>, so any such completion gives the same loop; the tensor variant
does depend on how the environment preparation is completed.  Operators are
stored and applied in O(N*M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandits import BanditInstance, arm_values
from .errors import NoGoodStates
from .hilbert import (
    CompositeReflection,
    DiagonalSign,
    HouseholderPrep,
    StateVector,
    TensorReflection,
    adjoint,
    apply,
    basis_state,
    marginal_over_y,
)

ALPHA_TOL = 1e-9
REFLECTIONS = ("composite", "tensor")


@dataclass(frozen=True)
class QbaiOperators:
    """The four operators of one amplification setup plus the prepared state.

    The preparation W = prep_env * prep_agent is held as two Householder
    reflectors, O(N*M) in all; W* is the same reflectors with conjugated
    phases, so no adjoint is stored.
    """

    prep_agent: HouseholderPrep
    prep_env: HouseholderPrep
    oracle: DiagonalSign
    reflection: CompositeReflection | TensorReflection
    psi0_state: StateVector


@dataclass(frozen=True)
class AmplificationParams:
    """Success mass p of the prepared state, its angle, and the best step count."""

    p: float
    theta: float
    n_star: int


@dataclass(frozen=True)
class QbaiRun:
    """Result of simulating n amplification steps."""

    n: int
    final_state: StateVector
    p_rec: np.ndarray    # recommendation distribution over arms
    good_amp: float      # l2 mass on rewarded (arm, outcome) pairs
    bad_amp: float


class PeakRecommendation(NamedTuple):
    """Best-step recommendation law: attained distribution and its ceiling."""

    n_star: int
    p_rec: np.ndarray
    ceiling: float


def uniform_alpha(n: int) -> np.ndarray:
    """Equal-weight arm amplitudes."""
    return np.full(n, 1.0 / math.sqrt(n))


def _prepare_alpha(inst: BanditInstance, alpha: np.ndarray | None) -> np.ndarray:
    if alpha is None:
        return uniform_alpha(inst.n_arms).astype(np.complex128)
    a = np.asarray(alpha, dtype=np.complex128)
    if a.shape != (inst.n_arms,):
        raise ValueError(f"alpha has shape {a.shape}, expected ({inst.n_arms},)")
    norm = np.linalg.norm(a)
    if abs(norm - 1.0) > ALPHA_TOL:
        raise ValueError(f"alpha norm {norm!r} is not 1 within {ALPHA_TOL}")
    # exact unit norm, so the closed-form weights |alpha|^2 sum to 1
    return a / norm


def _arm_weights(inst: BanditInstance, alpha: np.ndarray | None) -> np.ndarray:
    # exact 1/N for the uniform default; squaring 1/sqrt(N) rounds twice and
    # spoils the rational values the exact-case closed forms land on
    if alpha is None:
        return np.full(inst.n_arms, 1.0 / inst.n_arms)
    return np.abs(_prepare_alpha(inst, alpha)) ** 2


def build_operators(
    inst: BanditInstance,
    alpha: np.ndarray | None = None,
    *,
    reflection: str = "composite",
    phase_rng: np.random.Generator | None = None,
) -> QbaiOperators:
    """Construct the amplification operators and the prepared state.

    reflection selects how the reflection about the prepared state is realized:
    "composite" conjugates 2|00><00| - I (the default; an exact reflection about
    the prepared state), "tensor" conjugates the per-factor product reflection
    instead.  phase_rng, when given, scrambles the phases of the environment
    amplitudes; outcome probabilities, and hence every P_n, are unchanged.
    """
    if reflection not in REFLECTIONS:
        raise ValueError(f"reflection must be one of {REFLECTIONS}, got {reflection!r}")
    al = _prepare_alpha(inst, alpha)
    n, m = inst.n_arms, inst.n_env
    dims = (n, m)
    prep_agent = HouseholderPrep.from_columns(dims, 0, al[None, :])
    env_cols = np.sqrt(inst.nu).astype(np.complex128)
    if phase_rng is not None:
        # row-major draws: arm x takes the stream's x-th block of M values
        env_cols *= np.exp(2j * np.pi * phase_rng.random((n, m)))
    prep_env = HouseholderPrep.from_columns(dims, 1, env_cols)
    oracle = DiagonalSign(inst.f == 1)
    if reflection == "composite":
        refl: CompositeReflection | TensorReflection = CompositeReflection(dims, 0)
    else:
        refl = TensorReflection(dims, 0, 0)
    psi0 = apply(prep_env, apply(prep_agent, basis_state(dims, 0)))
    return QbaiOperators(
        prep_agent=prep_agent,
        prep_env=prep_env,
        oracle=oracle,
        reflection=refl,
        psi0_state=psi0,
    )


def success_probability(
    inst: BanditInstance, alpha: np.ndarray | None = None
) -> AmplificationParams:
    """Success mass p = sum_x |alpha_x|^2 a_x, its angle, and the best step count.

    n_star is whichever of floor/ceil of (pi / (4 theta) - 1/2), clamped at 0,
    maximizes the amplified mass sin((2n+1) theta)^2; ties pick the smaller n.
    """
    weights = _arm_weights(inst, alpha)
    a = arm_values(inst)
    p = float((weights * a).sum())
    if p <= 0.0:
        raise NoGoodStates("no reward mass is reachable: p = 0")
    p = min(p, 1.0)
    theta = math.asin(math.sqrt(p))
    raw = math.pi / (4.0 * theta) - 0.5
    lo = max(0, math.floor(raw))
    hi = max(0, math.ceil(raw))
    n_star = lo
    if hi != lo and math.sin((2 * hi + 1) * theta) ** 2 > math.sin((2 * lo + 1) * theta) ** 2:
        n_star = hi
    return AmplificationParams(p=p, theta=theta, n_star=int(n_star))


def grover_step(ops: QbaiOperators, s: StateVector) -> StateVector:
    """One amplification step: sign-flip rewarded pairs, reflect about psi0.

    The reflection is realized as W S W* with W the full preparation and S the
    configured anchor reflection, never as an explicit matrix.
    """
    s = apply(ops.oracle, s)
    s = apply(adjoint(ops.prep_env), s)
    s = apply(adjoint(ops.prep_agent), s)
    s = apply(ops.reflection, s)
    s = apply(ops.prep_agent, s)
    return apply(ops.prep_env, s)


def run_qbai(
    inst: BanditInstance,
    alpha: np.ndarray | None = None,
    n: int = 0,
    *,
    reflection: str = "composite",
    phase_rng: np.random.Generator | None = None,
) -> QbaiRun:
    """Simulate n amplification steps and read the arm marginal off the state."""
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    ops = build_operators(inst, alpha, reflection=reflection, phase_rng=phase_rng)
    s = ops.psi0_state
    for _ in range(n):
        s = grover_step(ops, s)
    mask = (inst.f == 1).reshape(-1)
    good_amp = float(np.linalg.norm(s.amps[mask]))
    bad_amp = float(np.linalg.norm(s.amps[~mask]))
    return QbaiRun(
        n=int(n),
        final_state=s,
        p_rec=marginal_over_y(s),
        good_amp=good_amp,
        bad_amp=bad_amp,
    )


def analytic_recommendation(
    inst: BanditInstance, alpha: np.ndarray | None = None, n: int = 0
) -> np.ndarray:
    """Closed-form recommendation distribution after n steps (no simulation).

    Raises NoGoodStates at p = 0.  At p = 1 the amplified factor is constant,
    so the n = 0 marginal |alpha|^2 is returned for every n.
    """
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    weights = _arm_weights(inst, alpha)
    params = success_probability(inst, alpha)
    if params.p == 1.0:
        return weights
    a = arm_values(inst)
    amplified = math.sin((2 * n + 1) * params.theta) ** 2
    c = (amplified - params.p) / (params.p * (1.0 - params.p))
    return weights * (1.0 + (a - params.p) * c)


def peak_recommendation(
    inst: BanditInstance, alpha: np.ndarray | None = None
) -> PeakRecommendation:
    """Recommendation law at the best step count, with its ceiling.

    The ceiling |alpha_x*|^2 * a_star / p bounds the optimal arm's probability
    over all step counts; the attained value at integer n_star sits at or just
    below it.  x_star here is the true best arm (lowest index on ties); with
    non-uniform alpha the argmax of p_rec may differ from it.
    """
    weights = _arm_weights(inst, alpha)
    params = success_probability(inst, alpha)
    a = arm_values(inst)
    x_star = int(np.argmax(a))
    ceiling = float(weights[x_star] * a[x_star] / params.p)
    p_rec = analytic_recommendation(inst, alpha, params.n_star)
    return PeakRecommendation(n_star=params.n_star, p_rec=p_rec, ceiling=ceiling)
