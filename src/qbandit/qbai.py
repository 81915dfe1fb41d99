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
reflectors H of the environment preparation W_env = G H (H one Householder
reflector per arm and G one unit phase per arm, so that W_env maps arm x's
|0> to sqrt(nu[x]), times random phases when asked), the agent amplitudes
with G folded in, the oracle's sign array, the readout indices and the
prepared state W_env (alpha (x) e0).  The preparation is W = W_env W_agent,
and W_agent S W_agent* depends on W_agent only through its first column
alpha: it is R_alpha = 2|alpha,0><alpha,0| - I for the composite anchor
reflection S = 2|00><00| - I, and (2|alpha><alpha| - I) (x) (2|0><0| - I)
for the tensor one, so no agent preparation is ever built.  G = diag(g) (x) I
acts on the agent axis alone and H is block-diagonal in the arm, so G H = H G
and G R_alpha G* = R_{g alpha}: the step W S W* = H R_{g alpha} H and the
prepared state H (g alpha (x) e0) need g only through g alpha, which
`build_operators` computes once and keeps in place of g.  One step, W S W* O,
then updates a private outcome-major (M, N) amplitude buffer in place in
O(N*M), in four stages: the oracle O multiplies rewarded pairs by -1, H
follows, then the reflection about g alpha, then H again.  The three
reflections are one Householder update, `_reflect`, along the environment
axis for H and the agent axis for g alpha.  The buffer holds the true state
throughout.  No step runs past STEP_CEILING.
The environment reflectors are stored the way the buffer is read, as an
(M, N) array with arm x's reflector in column x.  The composite reflection
W S W* = 2|psi0><psi0| - I depends on W only through W|0>, so any
completion gives the same loop; the tensor variant does depend on how the
environment preparation is completed.

`build_operators` picks the kernel's one dtype.  Real alpha (or the uniform
default) without phase_rng makes alpha and every reflector real, so they and
the buffer are float64, and every phase g is exactly -1; complex alpha or
phase_rng makes them complex128.  The one step function serves both.

This module alone knows the amplitude layout.  A `StateVector` is the
validated, read-only x-major state that crosses the package boundary,
amps[x * M + y] = <x y|s>, and `marginal_over_y` reads the arm law off it.
A `StateVector` is built only where a state leaves the kernel:
`grover_step` and the prepared state `psi0_state`.  It holds float64
amplitudes when they are real and complex128 otherwise, so the prepared
state comes in the kernel's dtype, and `grover_step` steps in the dtype of
the state and the operators together.  `run_qbai` and `sweep` read each run
straight off the buffer, summing each arm's law and each masked norm in the
same order as they would on a `StateVector`: the norms take their terms
from the flat buffer by precomputed x-major indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bandits import UNIT_TOL, BanditInstance, arm_values
from .errors import DegenerateInstance, InvariantViolation

# largest deviation of the simulator from the closed form before the two
# routes count as disagreeing
SIM_AGREE_TOL = 1e-10
# largest step count the simulator runs.  Its deviation from the closed form
# grows as about n * eps: a 1024-arm instance at p = 1e-10 crossed
# SIM_AGREE_TOL at n = 450 000 (about 1000 n eps) and deviates by 2.3e-11
# at this ceiling.  Every step count up to it is also within the closed
# form's own ceiling, ClosedForm.step_ceiling, since theta <= pi/2.
STEP_CEILING = 100_000
REFLECTIONS = ("composite", "tensor")
# closed-form cells (runs x arms) cross_check evaluates per block
CHECK_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the composite basis.

    dims is (N, M); amps has length N * M with amps[x * M + y] = <x y|s>,
    stored as float64 when the given amplitudes are real and as complex128
    otherwise.
    """

    dims: tuple[int, int]
    amps: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.dims
        if n < 1 or m < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        amps = np.array(self.amps, dtype=np.complex128 if np.iscomplexobj(self.amps)
                        else np.float64)
        if amps.shape != (n * m,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({n * m},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"state norm {float(norm)} is not 1 within {UNIT_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", (int(n), int(m)))


def _arm_law(xm: np.ndarray) -> np.ndarray:
    """Probability of each arm from (N, M) amplitudes xm[x, y] = <x y|s>.

    order="C" lays each arm's M terms along one contiguous row, so numpy sums
    them pairwise whatever the layout of xm; a transposed buffer summed in
    place would add them one term at a time and round differently.
    """
    return (np.abs(xm, order="C") ** 2).sum(axis=1)


def marginal_over_y(s: StateVector) -> np.ndarray:
    """Probability of each agent action after discarding the environment axis."""
    return _arm_law(s.amps.reshape(s.dims))


@dataclass(frozen=True)
class QbaiOperators:
    """The kernel's inputs for one amplification setup, computed once.

    The preparation is W = W_env W_agent with W_env = G H.  A step needs
    W_agent only through its first column, the agent amplitudes, and G only
    through its product with them, so alpha (shape (N,), contiguous) holds
    g alpha: each arm's amplitude times its environment phase g.  On the
    real kernel every g is -1, so alpha is exactly minus the agent
    amplitudes.  No agent reflector and no phase is held.  u is the (M, N)
    array of environment reflectors H = I - 2 u u*, arm x's in column x,
    and u_conj its conjugate, computed once so that no step recomputes it;
    on the real kernel it is u itself.  sign holds the oracle O's -1 on the
    rewarded pairs and +1 elsewhere in the (M, N) buffer layout.  good_index
    and bad_index are the flat buffer positions of the rewarded and the
    unrewarded pairs, in x-major order.  reflection names the anchor
    reflection S about |00>: "composite" (2|00><00| - I) or "tensor"
    ((2|0><0| - I) on each axis).
    """

    alpha: np.ndarray
    u: np.ndarray
    u_conj: np.ndarray
    sign: np.ndarray
    good_index: np.ndarray
    bad_index: np.ndarray
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

    def step_ceiling(self) -> int:
        """The largest n whose phase (2n+1) theta rounds within SIM_AGREE_TOL.

        float64 rounds the phase with an error of about (2n+1) theta 2^-52,
        which grows with n and moves the law by as much.
        """
        return math.floor((SIM_AGREE_TOL * 2.0**52 / self.theta - 1.0) / 2.0)

    def _squares(self, n):
        """sin^2 and cos^2 of (2n+1) theta.

        The larger of the two is taken as 1 minus the smaller.  Squaring a
        rounded sine next to 1 costs about 1.5 ulp; the subtraction costs
        half an ulp plus the smaller square's error, which is small next to 1.
        np.square multiplies, so a scalar n squares as an array row does;
        ** 2 on a numpy scalar goes through pow, which can round differently.
        """
        x = self._angle(n)
        s, c = np.square(np.sin(x)), np.square(np.cos(x))
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
        hit = self.w * self.a / self.p
        miss = self.w * (1.0 - self.a) / self.q
        return hit * np.expand_dims(s, -1) + miss * np.expand_dims(c, -1)


@dataclass(frozen=True)
class QbaiRun:
    """Result of simulating n amplification steps.

    n is the step count; p_rec the recommendation law over arms, shape (N,);
    good_amp and bad_amp the l2 norms of the state on the rewarded and the
    unrewarded (arm, outcome) pairs.
    """

    n: int
    p_rec: np.ndarray
    good_amp: float
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
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"alpha norm {float(norm)} is not 1 within {UNIT_TOL}")
    # exact unit norm, so the closed-form weights |alpha|^2 sum to 1
    return a / norm


def _householder(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The environment preparation W_env = G H with W_env|0> = c for each row
    c of columns, normalized, as (u, g).

    columns is an (N, M) stack of nonzero rows, as `build_operators` passes.
    H = I - 2 u u* runs along buffer axis 0: u is an (M, N) array whose
    column x reflects the outcomes of arm x.  G multiplies arm x's block by
    the unit factor g[x], shape (N,).

    With gamma = -conj(c0)/|c0| (-1 when c0 = 0), v = e0 - gamma c and
    u = v/|v|, the reflector maps e0 to gamma c, so g = conj(gamma)
    restores c.  v0 = 1 + |c0| >= 1, so no column is a degenerate case.
    Every u and g is unit up to rounding, so W_env is unitary up to rounding.
    The norms are taken along contiguous rows, one reflector each, before
    arm x's reflector is laid down column x of the buffer.

    Everything is computed in the columns' own dtype: real columns give
    float64 u and g = -sign(c0) exactly, any other columns complex128.
    """
    c = columns / np.linalg.norm(columns, axis=1)[:, None]
    mag = np.abs(c[:, 0])
    gamma = -np.ones_like(c[:, 0])
    np.divide(-c[:, 0].conj(), mag, out=gamma, where=mag > 0)
    v = -gamma[:, None] * c
    v[:, 0] += 1.0
    v /= np.linalg.norm(v, axis=1)[:, None]
    return np.ascontiguousarray(v.T), gamma.conj()


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

    Real alpha (or None) without phase_rng makes alpha and every reflector
    and phase real, so the operators, and the buffer the kernel steps, are
    float64; complex alpha or phase_rng makes them complex128.  The
    operators' alpha is g alpha, the given alpha times the environment
    phases (see `QbaiOperators`); psi0_state is the true prepared state.
    """
    if reflection not in REFLECTIONS:
        raise ValueError(f"reflection must be one of {REFLECTIONS}, got {reflection!r}")
    al = _prepare_alpha(inst, alpha)
    n, m = inst.n_arms, inst.n_env
    env_cols = np.sqrt(inst.nu).astype(np.complex128)
    if phase_rng is not None:
        # row-major draws: arm x takes the stream's x-th block of M values
        env_cols *= np.exp(2j * np.pi * phase_rng.random((n, m)))
    elif not np.iscomplexobj(alpha):
        # every column is real, so the kernel runs in float64
        al, env_cols = al.real, env_cols.real
    u, g = _householder(env_cols)
    # the step and psi0 = H (g alpha (x) e0) need G only through g alpha
    al = g * al
    u_conj = u.conj()
    amps = np.zeros((m, n), dtype=al.dtype)
    amps[0] = al
    _reflect(amps, u, u_conj, 0, np.empty_like(amps))
    rewarded = inst.f == 1
    # buffer position y * N + x of each pair, read in x-major order
    index = np.arange(m * n).reshape(m, n).T
    ops = QbaiOperators(
        alpha=al,
        u=u,
        u_conj=u_conj,
        sign=np.ascontiguousarray(np.where(rewarded.T, -1.0, 1.0)),
        good_index=index[rewarded],
        bad_index=index[~rewarded],
        reflection=reflection,
        psi0_state=_state(amps),
    )
    for a in (ops.alpha, ops.u, ops.u_conj, ops.sign, ops.good_index, ops.bad_index):
        a.setflags(write=False)
    return ops


def success_probability(
    inst: BanditInstance, alpha: np.ndarray | None = None
) -> ClosedForm:
    """The closed-form model of inst under arm amplitudes alpha (uniform if None).

    Raises DegenerateInstance when no reward mass is reachable (p = 0).
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
        raise DegenerateInstance("no reward mass is reachable: p = 0")
    q = float((w * (1.0 - a)).sum())
    theta = math.atan2(math.sqrt(p), math.sqrt(q))
    w.setflags(write=False)
    a.setflags(write=False)
    return ClosedForm(w=w, a=a, p=p, q=q, theta=theta,
                      n_star=math.ceil(math.pi / (4.0 * theta) - 1.0))


def _reflect(v: np.ndarray, u: np.ndarray, u_conj: np.ndarray, axis: int,
             work: np.ndarray) -> None:
    """v <- v - 2 u (u* v) in place: the Householder reflection I - 2 u u*
    along axis of v, u a unit vector or a stack of them and u_conj its
    conjugate; the reflection is its own inverse.

    work is scratch of v's shape.  The projection u* v sums v u_conj along
    axis: pairwise along a contiguous row (axis 1), one term at a time and
    elementwise across the rows along axis 0.
    """
    proj = np.multiply(v, u_conj, out=work).sum(axis=axis, keepdims=True)
    proj *= 2.0
    # u first: with fused multiply-adds a complex product rounds differently
    # when its operands swap
    v -= np.multiply(u, proj, out=work)


def _reflect_agent(
    amps: np.ndarray, alpha: np.ndarray, reflection: str, work: np.ndarray
) -> None:
    """amps <- W_agent S W_agent* amps in place, for any W_agent with W_agent|0> = alpha.

    Composite: 2|alpha,0><alpha,0| - I maps row 0 to 2 alpha (alpha* row0)
    - row0 and negates every other row, so row 0 takes the Householder
    reflection about alpha, then every row is negated; -fl(v - w) is
    fl(w - v), so the order costs nothing.  Tensor: (2|alpha><alpha| - I)
    (x) (2|0><0| - I) reflects every row about alpha, then negates row 0.
    Each projection alpha* v, a sum of N terms, runs along one contiguous
    row, so numpy sums it pairwise; along a strided axis it would add one
    term at a time, with an error growing with N.
    """
    if reflection == "composite":
        _reflect(amps[:1], alpha, alpha.conj(), 1, work[:1])
        np.negative(amps, out=amps)
    else:
        _reflect(amps, alpha, alpha.conj(), 1, work)
        np.negative(amps[0], out=amps[0])


def _step(ops: QbaiOperators, amps: np.ndarray, work: np.ndarray) -> None:
    """One amplification step W S W* O on the (M, N) buffer amps, in place.

    W S W* = G H (W_agent S W_agent*) H G* = H R H, R the reflection about
    ops.alpha = g alpha.  Multiplying by +-1 changes no magnitude.
    """
    amps *= ops.sign
    _reflect(amps, ops.u, ops.u_conj, 0, work)
    _reflect_agent(amps, ops.alpha, ops.reflection, work)
    _reflect(amps, ops.u, ops.u_conj, 0, work)


def _buffer(s: StateVector, dtype=None) -> np.ndarray:
    """A private (M, N) copy of the state's amplitudes, amps[y, x] = <x y|s>,
    in dtype (the state's own when None)."""
    return np.array(s.amps.reshape(s.dims).T, dtype=dtype, order="C")


def _state(amps: np.ndarray) -> StateVector:
    m, n = amps.shape
    return StateVector((n, m), amps.T.reshape(-1))


def grover_step(ops: QbaiOperators, s: StateVector) -> StateVector:
    """One amplification step: sign-flip rewarded pairs, reflect about psi0.

    The reflection is realized as W S W* with W the full preparation and S the
    configured anchor reflection, never as an explicit matrix.  The step runs
    in the dtype of the state and the operators together: float64 only when
    both are real.
    """
    if s.dims != ops.psi0_state.dims:
        raise ValueError(
            f"operator dims {ops.psi0_state.dims} do not match state {s.dims}"
        )
    amps = _buffer(s, np.result_type(s.amps, ops.alpha))
    _step(ops, amps, np.empty_like(amps))
    return _state(amps)


def _evolve(ops: QbaiOperators, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, amps) for n = 0..n_max, amps one private buffer stepped in
    place, in the dtype of psi0_state, which is the operators' dtype."""
    amps = _buffer(ops.psi0_state)
    work = np.empty_like(amps)
    for n in range(n_max + 1):
        if n > 0:
            _step(ops, amps, work)
        yield n, amps


def _readout(ops: QbaiOperators, n: int, amps: np.ndarray) -> QbaiRun:
    """The run read off the (M, N) buffer, without building a `StateVector`.

    good_index and bad_index take their terms in x-major order, the order of
    a `StateVector`'s amplitudes, so each norm sums the same sequence.
    """
    return QbaiRun(
        n=n,
        p_rec=_arm_law(amps.T),
        good_amp=float(np.linalg.norm(amps.take(ops.good_index))),
        bad_amp=float(np.linalg.norm(amps.take(ops.bad_index))),
    )


def _check_steps(n: int) -> None:
    if not 0 <= n <= STEP_CEILING:
        raise ValueError(f"step count {n} is outside the simulator's range 0..{STEP_CEILING}")


def sweep(ops: QbaiOperators, n_max: int) -> Iterator[QbaiRun]:
    """The run after each of n = 0..n_max steps, without restarting the loop.

    n_max is checked here, before any step: a ValueError when it is negative
    or above STEP_CEILING.
    """
    _check_steps(n_max)
    return (_readout(ops, n, amps) for n, amps in _evolve(ops, n_max))


def run_qbai(
    inst: BanditInstance, alpha: np.ndarray | None = None, n: int = 0
) -> QbaiRun:
    """Simulate n amplification steps and read the run off the kernel's buffer.

    Raises ValueError when n is negative or above STEP_CEILING.
    """
    _check_steps(n)
    ops = build_operators(inst, alpha)
    for _, amps in _evolve(ops, n):
        pass
    return _readout(ops, int(n), amps)


def cross_check(model: ClosedForm, runs: Iterable[QbaiRun]) -> tuple[float, float]:
    """Largest deviations of the runs from the closed form: (law, amplitude).

    For each run, the law deviation is max |run.p_rec - model.p_rec(run.n)|
    and the amplitude deviation |run.good_amp - sqrt(model.amplified(run.n))|.
    The caller picks the runs; they are read once, a block of at most
    CHECK_BLOCK_CELLS law cells at a time, and the closed form is evaluated once
    per block.  Raises InvariantViolation when either deviation exceeds
    SIM_AGREE_TOL or is NaN.
    """
    max_p_dev = 0.0
    max_amp_dev = 0.0
    runs = iter(runs)
    block_len = max(1, CHECK_BLOCK_CELLS // len(model.w))
    while block := list(itertools.islice(runs, block_len)):
        ns = np.array([run.n for run in block])
        law = np.array([run.p_rec for run in block])
        good_amp = np.array([run.good_amp for run in block])
        # np.maximum keeps a NaN, where the builtin max would drop it
        max_p_dev = float(np.maximum(max_p_dev, np.abs(law - model.p_rec(ns)).max()))
        max_amp_dev = float(np.maximum(
            max_amp_dev, np.abs(good_amp - np.sqrt(model.amplified(ns))).max()))
    if not (max_p_dev <= SIM_AGREE_TOL and max_amp_dev <= SIM_AGREE_TOL):
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

    Raises DegenerateInstance at p = 0.
    """
    return success_probability(inst, alpha).p_rec(n)
