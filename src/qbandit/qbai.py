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
The two routes agreeing to ~1e-12 is the package's central cross-check, and
`cross_check` is the one place that compares them.

The simulator is one kernel.  `build_operators` computes its inputs once: the
preparation W as two `HouseholderPrep` reflector sets with phases (one on the
agent axis whose first column is alpha, one per arm on the environment axis
whose first column is sqrt(nu[x]), times random phases when asked), their
conjugates, the reward mask and the prepared state W|00>.  One step,
W S W* O, then updates a private outcome-major (M, N) amplitude buffer in
place in O(N*M): the oracle O flips the sign of rewarded pairs, and S is the
anchor reflection about |00>.  The reflectors are stored the way that buffer
is read: the agent reflector as one (1, N) row, the environment reflectors
as an (M, N) array with arm x's reflector in column x.  The composite
reflection W S W* = 2|psi0><psi0| - I depends on W only through W|0>, so any
such completion gives the same loop; the tensor variant does depend on how
the environment preparation is completed.  A `StateVector` is built only
where a state leaves the kernel: `grover_step`, and each run that `run_qbai`
and `sweep` read off the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bandits import BanditInstance, arm_values
from .errors import DimensionError, InvariantViolation, NoGoodStates
from .hilbert import StateVector, marginal_over_y

ALPHA_TOL = 1e-9
# largest deviation of the simulator from the closed form before the two
# routes count as disagreeing
SIM_AGREE_TOL = 1e-10
REFLECTIONS = ("composite", "tensor")


@dataclass(frozen=True)
class HouseholderPrep:
    """Preparation W = g (I - 2 u u*) along one axis of the (M, N) buffer.

    Each reflector runs along buffer axis `axis`: the agent preparation
    (axis 1) is one (1, N) row, the environment preparation (axis 0) an
    (M, N) array whose column x reflects the outcomes of arm x.  phase holds
    each reflector's unit factor g, shaped to broadcast against the buffer:
    (1, 1) on the agent axis, (1, N) on the environment axis.  I - 2 u u* is
    Hermitian, so W* is the same u with conjugated phases; u_conj and
    phase_conj are the conjugates, computed once so that no step recomputes
    them.
    """

    axis: int
    u: np.ndarray
    u_conj: np.ndarray
    phase: np.ndarray
    phase_conj: np.ndarray

    @classmethod
    def from_columns(cls, axis: int, columns: np.ndarray) -> HouseholderPrep:
        """The preparation with W|0> = c for each row c of columns, normalized.

        With gamma = -conj(c0)/|c0| (-1 when c0 = 0), v = e0 - gamma c and
        u = v/|v|, the reflector maps e0 to gamma c, so g = conj(gamma)
        restores c.  v0 = 1 + |c0| >= 1, so no column is a degenerate case.
        Every u and g is unit by construction, so W is unitary.  The norms
        are taken along contiguous rows, one reflector each, before each
        reflector is laid along buffer axis `axis`.
        """
        c = np.array(columns, dtype=np.complex128)
        if c.ndim != 2 or c.shape[1] < 1:
            raise ValueError(f"columns must be a 2-d stack of rows, got shape {c.shape}")
        norms = np.linalg.norm(c, axis=1)
        if not (norms > 0).all():
            raise ValueError("a column is zero")
        c /= norms[:, None]
        mag = np.abs(c[:, 0])
        gamma = -np.ones(len(c), dtype=np.complex128)
        np.divide(-c[:, 0].conj(), mag, out=gamma, where=mag > 0)
        v = -gamma[:, None] * c
        v[:, 0] += 1.0
        v /= np.linalg.norm(v, axis=1)[:, None]
        u = np.ascontiguousarray(np.moveaxis(v, 1, axis))
        phase = np.expand_dims(gamma.conj(), axis)
        arrays = (u, u.conj(), phase, phase.conj())
        for a in arrays:
            a.setflags(write=False)
        return cls(axis, *arrays)


@dataclass(frozen=True)
class QbaiOperators:
    """The kernel's inputs for one amplification setup, computed once.

    The preparation W = prep_env * prep_agent is held as two Householder
    reflectors with their conjugates, O(N*M) in all; W* is the same
    reflectors with conjugated phases.  good is the (N, M) mask of rewarded
    pairs whose sign the oracle O flips.  reflection names the anchor
    reflection S about |00>: "composite" (2|00><00| - I) or "tensor"
    ((2|0><0| - I) on each axis).
    """

    prep_agent: HouseholderPrep
    prep_env: HouseholderPrep
    good: np.ndarray
    reflection: str
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

    def _squares(self, n):
        """sin^2 and cos^2 of (2n+1) theta.

        The larger of the two is taken as 1 minus the smaller.  Squaring a
        rounded sine next to 1 costs about 1.5 ulp; the subtraction costs
        half an ulp plus the smaller square's error, which is small next to 1.
        """
        x = self._angle(n)
        s, c = np.sin(x) ** 2, np.cos(x) ** 2
        big = s > c
        return np.where(big, 1.0 - c, s)[()], np.where(big, c, 1.0 - s)[()]

    def amplified(self, n):
        """Success mass sin^2((2n+1) theta) after n steps."""
        return self._squares(n)[0]

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
        if self.q == 0.0:
            return np.broadcast_to(self.w, np.shape(self._angle(n)) + self.w.shape).copy()
        s, c = self._squares(n)
        good = self.w * self.a / self.p
        bad = self.w * (1.0 - self.a) / self.q
        return good * np.expand_dims(s, -1) + bad * np.expand_dims(c, -1)


@dataclass(frozen=True)
class QbaiRun:
    """Result of simulating n amplification steps."""

    n: int
    final_state: StateVector
    p_rec: np.ndarray    # recommendation distribution over arms
    good_amp: float      # l2 mass on rewarded (arm, outcome) pairs
    bad_amp: float


def _prepare_alpha(inst: BanditInstance, alpha: np.ndarray | None) -> np.ndarray:
    if alpha is None:
        return np.full(inst.n_arms, 1.0 / math.sqrt(inst.n_arms), dtype=np.complex128)
    a = np.asarray(alpha, dtype=np.complex128)
    if a.shape != (inst.n_arms,):
        raise ValueError(f"alpha has shape {a.shape}, expected ({inst.n_arms},)")
    # a NaN norm would slip past the tolerance test below
    if not np.isfinite(a).all():
        raise ValueError("alpha must be finite")
    norm = np.linalg.norm(a)
    if abs(norm - 1.0) > ALPHA_TOL:
        raise ValueError(f"alpha norm {float(norm)} is not 1 within {ALPHA_TOL}")
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
    prep_agent = HouseholderPrep.from_columns(1, al[None, :])
    env_cols = np.sqrt(inst.nu).astype(np.complex128)
    if phase_rng is not None:
        # row-major draws: arm x takes the stream's x-th block of M values
        env_cols *= np.exp(2j * np.pi * phase_rng.random((n, m)))
    prep_env = HouseholderPrep.from_columns(0, env_cols)
    amps = np.zeros((m, n), dtype=np.complex128)
    amps[0, 0] = 1.0
    work = np.empty_like(amps)
    _prepare(amps, prep_agent, work)
    _prepare(amps, prep_env, work)
    good = inst.f == 1
    good.setflags(write=False)
    return QbaiOperators(
        prep_agent=prep_agent,
        prep_env=prep_env,
        good=good,
        reflection=reflection,
        psi0_state=_state(amps),
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


def _prepare(
    amps: np.ndarray, prep: HouseholderPrep, work: np.ndarray, adjoint: bool = False
) -> None:
    """amps <- W amps (W* amps when adjoint) in place on the (M, N) buffer.

    W = g (I - 2 u u*) along prep.axis; work is an (M, N) scratch buffer.
    The buffer is outcome-major, so the agent projection u* v, a sum of N
    terms, runs along contiguous memory and numpy sums it pairwise; along a
    strided axis it would add one term at a time, with an error growing with
    N.  The environment projection sums M terms across rows, elementwise.
    """
    proj = np.multiply(amps, prep.u_conj, out=work).sum(axis=prep.axis, keepdims=True)
    # u first: with fused multiply-adds a complex product rounds differently
    # when its operands swap
    amps -= np.multiply(prep.u, 2.0 * proj, out=work)
    amps *= prep.phase_conj if adjoint else prep.phase


def _anchor(amps: np.ndarray, reflection: str) -> None:
    """amps <- S amps in place, S the anchor reflection about |00>."""
    if reflection == "composite":
        keep = amps[0, 0]
        np.negative(amps, out=amps)
        amps[0, 0] = keep
    else:
        # the product of the two axes' signs is -1 on row 0 and column 0
        # away from the anchor, and +1 everywhere else
        np.negative(amps[0, 1:], out=amps[0, 1:])
        np.negative(amps[1:, 0], out=amps[1:, 0])


def _step(ops: QbaiOperators, amps: np.ndarray, work: np.ndarray) -> None:
    """One amplification step W S W* O on the (M, N) buffer amps, in place."""
    np.negative(amps, out=amps, where=ops.good.T)
    _prepare(amps, ops.prep_env, work, adjoint=True)
    _prepare(amps, ops.prep_agent, work, adjoint=True)
    _anchor(amps, ops.reflection)
    _prepare(amps, ops.prep_agent, work)
    _prepare(amps, ops.prep_env, work)


def _buffer(s: StateVector) -> np.ndarray:
    """A private (M, N) copy of the state's amplitudes, amps[y, x] = <x y|s>."""
    n, m = s.dims
    return s.amps.reshape(n, m).T.copy()


def _state(amps: np.ndarray) -> StateVector:
    m, n = amps.shape
    return StateVector((n, m), amps.T.reshape(-1))


def grover_step(ops: QbaiOperators, s: StateVector) -> StateVector:
    """One amplification step: sign-flip rewarded pairs, reflect about psi0.

    The reflection is realized as W S W* with W the full preparation and S the
    configured anchor reflection, never as an explicit matrix.
    """
    if s.dims != ops.psi0_state.dims:
        raise DimensionError(
            f"operator dims {ops.psi0_state.dims} do not match state {s.dims}"
        )
    amps = _buffer(s)
    _step(ops, amps, np.empty_like(amps))
    return _state(amps)


def _evolve(ops: QbaiOperators, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, amps) for n = 0..n_max, amps one private buffer stepped in place."""
    amps = _buffer(ops.psi0_state)
    work = np.empty_like(amps)
    for n in range(n_max + 1):
        if n > 0:
            _step(ops, amps, work)
        yield n, amps


def _readout(ops: QbaiOperators, n: int, amps: np.ndarray) -> QbaiRun:
    state = _state(amps)
    good = ops.good.reshape(-1)
    return QbaiRun(
        n=n,
        final_state=state,
        p_rec=marginal_over_y(state),
        good_amp=float(np.linalg.norm(state.amps[good])),
        bad_amp=float(np.linalg.norm(state.amps[~good])),
    )


def sweep(ops: QbaiOperators, n_max: int) -> Iterator[QbaiRun]:
    """The run after each of n = 0..n_max steps, without restarting the loop."""
    for n, amps in _evolve(ops, n_max):
        yield _readout(ops, n, amps)


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
    for _, amps in _evolve(ops, n):
        pass
    return _readout(ops, int(n), amps)


def cross_check(model: ClosedForm, runs: Iterable[QbaiRun]) -> tuple[float, float]:
    """Largest deviations of the runs from the closed form: (law, amplitude).

    For each run, the law deviation is max |run.p_rec - model.p_rec(run.n)|
    and the amplitude deviation |run.good_amp - sqrt(model.amplified(run.n))|.
    The caller picks the runs.  Raises InvariantViolation when either
    exceeds SIM_AGREE_TOL.
    """
    max_p_dev = 0.0
    max_amp_dev = 0.0
    for run in runs:
        max_p_dev = max(max_p_dev, float(np.abs(run.p_rec - model.p_rec(run.n)).max()))
        max_amp_dev = max(max_amp_dev,
                          abs(run.good_amp - math.sqrt(model.amplified(run.n))))
    if max_p_dev > SIM_AGREE_TOL or max_amp_dev > SIM_AGREE_TOL:
        raise InvariantViolation(
            f"closed form and simulator disagree: max recommendation deviation "
            f"{max_p_dev:.3e}, max amplitude deviation {max_amp_dev:.3e} "
            f"(tolerance {SIM_AGREE_TOL})"
        )
    return max_p_dev, max_amp_dev


def analytic_recommendation(
    inst: BanditInstance, alpha: np.ndarray | None = None, n: int = 0
) -> np.ndarray:
    """Closed-form recommendation distribution after n steps (no simulation).

    Raises NoGoodStates at p = 0.
    """
    return success_probability(inst, alpha).p_rec(n)
