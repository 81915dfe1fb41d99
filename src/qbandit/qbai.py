"""Amplitude amplification for best-arm search.

Two independent routes to the same quantity live here.  `run_qbai` simulates
the amplification loop with exact state vectors: prepare a superposition of
(arm, outcome) pairs weighted by the arm amplitudes alpha and the outcome
distributions nu, then repeatedly flip the sign of rewarded pairs and reflect
about the prepared state.  `analytic_recommendation` evaluates the closed-form
law the loop must obey, held by one `ClosedForm` model: the mixture

    P_n(x) = w_x [a_x sin^2((2n+1) theta) / p + (1 - a_x) cos^2((2n+1) theta) / q],
    w_x = |alpha_x|^2,  p = sum w a,  q = sum w (1 - a),  theta = atan2(sqrt p, sqrt q),

where a_x is arm x's value and p the success mass of the prepared state.  It
equals the paper's form w_x (1 + (a_x - p) C(p, n)) with

    C(p, n) = sin(2n theta) sin((2n+2) theta) / (p q),

but divides by neither a vanishing 1 - p nor a difference of close squares.
The two routes agreeing to ~1e-12 is the package's central cross-check.

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
class ClosedForm:
    """The closed-form law of one instance under fixed arm amplitudes.

    w are the arm weights |alpha|^2 and a the arm values clipped to [0, 1];
    p = sum w a and q = sum w (1 - a) are each summed directly, so neither
    inherits the rounding of 1 minus the other.  n_star is the step count
    nearest to pi / (4 theta) - 1/2, which maximizes the amplified mass over
    the first rise; ties go to the smaller n.  Methods taking n accept an int
    or an array of step counts and broadcast over it.
    """

    w: np.ndarray
    a: np.ndarray
    p: float
    q: float
    theta: float
    n_star: int

    def _angle(self, n):
        n = np.asarray(n)
        if np.any(n < 0):
            raise ValueError(f"step count must be non-negative, got {n.min()}")
        return (2 * n + 1) * self.theta

    @property
    def ceiling(self) -> float:
        """w_x* a_x* / p: the optimal arm's probability bound over all n.

        x* is the true best arm (lowest index on ties); with non-uniform alpha
        the argmax of p_rec may differ from it.
        """
        x_star = int(np.argmax(self.a))
        return float(self.w[x_star] * self.a[x_star] / self.p)

    def amplified(self, n):
        """Success mass sin^2((2n+1) theta) after n steps."""
        return np.sin(self._angle(n)) ** 2

    def c_factor(self, n):
        """C(p, n) of the paper's form; None at q = 0, where it is undefined."""
        if self.q == 0.0:
            return None
        t = self.theta
        n = np.asarray(n)
        return np.sin(2 * n * t) * np.sin((2 * n + 2) * t) / (self.p * self.q)

    def p_rec(self, n) -> np.ndarray:
        """Recommendation law after n steps: shape (N,), or (len(n), N) for an array.

        At q = 0 every step leaves the prepared state fixed, so the law is w.
        """
        x = self._angle(n)[..., None]
        if self.q == 0.0:
            return np.broadcast_to(self.w, x.shape[:-1] + self.w.shape).copy()
        good = self.w * self.a / self.p
        bad = self.w * (1.0 - self.a) / self.q
        return good * np.sin(x) ** 2 + bad * np.cos(x) ** 2


@dataclass(frozen=True)
class QbaiRun:
    """Result of simulating n amplification steps."""

    n: int
    final_state: StateVector
    p_rec: np.ndarray    # recommendation distribution over arms
    good_amp: float      # l2 mass on rewarded (arm, outcome) pairs
    bad_amp: float


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
) -> ClosedForm:
    """The closed-form model of inst under arm amplitudes alpha (uniform if None).

    Raises NoGoodStates when no reward mass is reachable (p = 0).
    """
    # exact 1/N for the uniform default; squaring 1/sqrt(N) rounds twice and
    # spoils the rational values the exact-case closed forms land on
    if alpha is None:
        w = np.full(inst.n_arms, 1.0 / inst.n_arms)
    else:
        w = np.abs(_prepare_alpha(inst, alpha)) ** 2
    # a row left unrescaled may sum to 1 + 1e-9; clip so an all-rewarded arm
    # has a = 1 exactly and q stays non-negative
    a = np.clip(arm_values(inst), 0.0, 1.0)
    p = float((w * a).sum())
    if p <= 0.0:
        raise NoGoodStates("no reward mass is reachable: p = 0")
    q = float((w * (1.0 - a)).sum())
    theta = math.atan2(math.sqrt(p), math.sqrt(q))
    w.setflags(write=False)
    a.setflags(write=False)
    return ClosedForm(w=w, a=a, p=p, q=q, theta=theta,
                      n_star=math.ceil(math.pi / (4.0 * theta) - 1.0))


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

    Raises NoGoodStates at p = 0.
    """
    return success_probability(inst, alpha).p_rec(n)
