"""States on the agent x environment Hilbert space, the preparations and the
kernel's in-place stages against their dense matrices, built independently
in tests/dense.py."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dense import (agent_matrix, anchor_matrix, densify, oracle_matrix, reflectors,
                   step_matrix)
from helpers import random_instance, variant_run
from qbandit.bandits import BanditInstance
from qbandit.qbai import (
    REFLECTIONS,
    StateVector,
    _buffer,
    _householder,
    _reflect,
    _reflect_agent,
    build_operators,
    grover_step,
    marginal_over_y,
    sweep,
)
from qbandit.ucbe import RngStream

# the kernel's stages: the oracle sign, the environment reflectors H, and the
# agent reflection about alpha under each anchor reflection; each is Hermitian
STAGES = ("oracle", "env", "composite", "tensor")


def random_columns(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def reflection_matrix(alpha: np.ndarray, dims: tuple[int, int], reflection: str) -> np.ndarray:
    """W_agent S W_agent*, W_agent the dense oracle's completion of alpha."""
    w = agent_matrix(alpha, dims)
    return w @ anchor_matrix(dims, reflection) @ w.conj().T


def agent_stage(alpha: np.ndarray, reflection: str):
    """The kernel's agent reflection about alpha, as stage(amps)."""
    return lambda amps: _reflect_agent(amps, alpha, reflection, np.empty_like(amps))


def random_state(rng: np.random.Generator, dims: tuple[int, int]) -> StateVector:
    n, m = dims
    amps = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
    return StateVector(dims, amps / np.linalg.norm(amps))


def random_stage(rng: np.random.Generator, dims: tuple[int, int], kind: str):
    """One in-place kernel stage, as stage(amps), and its dense matrix."""
    n, m = dims
    if kind == "oracle":
        # the sign is Hermitian too; _step multiplies the buffer by it
        inst = BanditInstance(nu=rng.dirichlet(np.ones(m), size=n),
                              f=(rng.random((n, m)) < 0.5).astype(int))
        ops = build_operators(inst)
        return (lambda amps: np.multiply(amps, ops.sign, out=amps)), oracle_matrix(inst.f == 1)
    if kind == "env":
        u, _ = _householder(random_columns(rng, (n, m)))
        return (lambda amps: _reflect(amps, u, u.conj(), 0, np.empty_like(amps)),
                reflectors(u, dims))
    alpha = unit(random_columns(rng, (1, n))[0])
    return agent_stage(alpha, kind), reflection_matrix(alpha, dims, kind)


def through(stage, s: StateVector) -> np.ndarray:
    """The state's amplitudes, in flat order, after one stage on its kernel buffer."""
    amps = _buffer(s)
    stage(amps)
    return amps.T.reshape(-1)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector((2, 1), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="shape"):
        StateVector((2, 2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="dims"):
        StateVector((0, 2), np.zeros(0))


def test_state_vector_copies_and_freezes():
    amps = np.array([1.0, 0.0], dtype=complex)
    s = StateVector((2, 1), amps)
    amps[0] = 0.5
    assert s.amps[0] == 1.0
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_diagonal_sign_flips_masked_entries():
    """The kernel's oracle stage, isolated: W S W* is its own inverse, so
    applying its dense matrix after one step leaves O s."""
    mask = np.array([[True, False], [False, True]])
    inst = BanditInstance(nu=np.array([[0.5, 0.5], [0.25, 0.75]]), f=mask.astype(int))
    ops = build_operators(inst)
    assert np.array_equal(ops.sign, np.where(mask.T, -1.0, 1.0))
    s = StateVector((2, 2), np.full(4, 0.5))
    reflect = step_matrix(ops, mask) @ oracle_matrix(mask)
    flipped = reflect @ grover_step(ops, s).amps
    assert np.abs(flipped - np.array([-0.5, 0.5, 0.5, -0.5])).max() <= 1e-12


def test_composite_reflection_negates_all_but_anchor():
    """At alpha = e0 the composite agent reflection is 2|00><00| - I itself."""
    s = StateVector((2, 2), np.full(4, 0.5))
    out = through(agent_stage(np.array([1.0, 0.0]), "composite"), s)
    assert np.array_equal(out, np.array([0.5, -0.5, -0.5, -0.5]))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_tensor_reflection_on_every_small_buffer(dtype):
    """At alpha = e0 the tensor agent reflection is the anchor product
    itself: it negates row 0 and column 0 away from the anchor, exactly, in
    either dtype.  N = 8 matters: in numpy 2.4 an in-place negative of a
    float64 column with a 64-byte row stride reads the wrong elements."""
    for m in range(1, 6):
        for n in range(1, 17):
            amps = np.arange(1.0, m * n + 1).reshape(m, n).astype(dtype)
            want = amps.copy()
            want[0, 1:] *= -1
            want[1:, 0] *= -1
            alpha = np.zeros(n, dtype=dtype)
            alpha[0] = 1.0
            _reflect_agent(amps, alpha, "tensor", np.empty_like(amps))
            assert amps.dtype == dtype
            assert np.array_equal(amps, want), (m, n)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("reflection", ["composite", "tensor"])
def test_agent_reflection_matches_dense(reflection, dtype):
    """The kernel's one agent stage equals W_agent S W_agent*, multiplied out
    from a dense completion of alpha, for real alpha on a float64 buffer and
    complex alpha on a complex128 buffer; the buffer keeps its dtype.  N = 1
    and M = 1 are included."""
    rng = np.random.default_rng(30 + 2 * REFLECTIONS.index(reflection) + (dtype == np.float64))
    for dims in ((1, 1), (1, 4), (5, 1), (3, 4), (16, 3)):
        n, m = dims
        alpha = rng.normal(size=n)
        amps = rng.normal(size=(m, n))
        if dtype == np.complex128:
            alpha = alpha + 1j * rng.normal(size=n)
            amps = amps + 1j * rng.normal(size=(m, n))
        alpha = unit(alpha)
        want = reflection_matrix(alpha, dims, reflection) @ amps.T.reshape(-1)
        _reflect_agent(amps, alpha, reflection, np.empty_like(amps))
        assert amps.dtype == dtype
        assert np.abs(amps.T.reshape(-1) - want).max() <= 1e-13, dims


@pytest.mark.parametrize("seed", range(20))
def test_apply_matches_densify(seed):
    """Each in-place stage, and the whole step, equals multiplication by the
    dense matrix built from its definition."""
    rng = np.random.default_rng(seed)
    if seed % 5 == 4:
        inst, alpha = random_instance(rng)
        phase_rng = RngStream(seed).generator() if seed % 2 else None
        ops = build_operators(inst, alpha, reflection=STAGES[2 + seed // 10],
                              phase_rng=phase_rng)
        s = random_state(rng, ops.psi0_state.dims)
        direct, dense = grover_step(ops, s).amps, step_matrix(ops, inst.f == 1) @ s.amps
    else:
        dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        stage, matrix = random_stage(rng, dims, STAGES[seed % 5])
        s = random_state(rng, dims)
        direct, dense = through(stage, s), matrix @ s.amps
    assert np.abs(direct - dense).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_adjoint_matches_densify(seed):
    """Each stage is Hermitian: run once, it equals the conjugate transpose
    of its dense matrix, so the step needs no adjoint of any stage."""
    rng = np.random.default_rng(100 + seed)
    dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    stage, matrix = random_stage(rng, dims, STAGES[seed % 4])
    s = random_state(rng, dims)
    dense = matrix.conj().T @ s.amps
    assert np.abs(through(stage, s) - dense).max() <= 1e-12


def test_long_chain_preserves_norm():
    """1000 kernel steps, each variant, complex alpha and random phases."""
    rng = np.random.default_rng(11)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(4), size=3),
                          f=(rng.random((3, 4)) < 0.5).astype(int))
    alpha = random_columns(rng, (1, 3))[0]
    alpha /= np.linalg.norm(alpha)
    for reflection in ("composite", "tensor"):
        run = variant_run(inst, alpha, 1000, reflection=reflection,
                          phase_rng=RngStream(11).generator())
        assert abs(math.hypot(run.good_amp, run.bad_amp) - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_norm_drift_over_400_steps_at_256_arms(seed):
    """400 steps of the default float64 kernel on a random instance with 256
    arms and 16 outcomes, 10% of pairs rewarded, keep the state norm within
    1.5e-14 of 1 at every step.  The agent half of a step is one reflection
    about alpha and the environment reflectors are built in float64, so the
    drift measured here is 1.2e-15 to 8.4e-15."""
    rng = np.random.default_rng(seed)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(16), size=256),
                          f=(rng.random((256, 16)) < 0.1).astype(int))
    drift = max(abs(math.hypot(run.good_amp, run.bad_amp) - 1.0)
                for run in sweep(build_operators(inst), 400))
    assert drift <= 1.5e-14, drift


def test_sign_operators_are_involutions():
    """The oracle sign undoes itself exactly; the environment reflectors and
    each agent reflection about a random alpha undo themselves up to
    rounding, on (3, 2) and on 50 random stages of a (4, 3) state."""
    rng = np.random.default_rng(3)
    s = random_state(rng, (3, 2))
    for kind in STAGES:
        stage, _ = random_stage(rng, (3, 2), kind)
        twice = through(stage, StateVector((3, 2), through(stage, s)))
        if kind == "oracle":
            assert np.array_equal(twice, s.amps)
        assert np.abs(twice - s.amps).max() <= 1e-14, kind
    rng = np.random.default_rng(7)
    s = random_state(rng, (4, 3))
    for _ in range(50):
        stage, _ = random_stage(rng, (4, 3), STAGES[int(rng.integers(4))])
        twice = through(stage, StateVector((4, 3), through(stage, s)))
        assert np.abs(twice - s.amps).max() <= 1e-12


def test_dims_mismatch_raises():
    ops = build_operators(BanditInstance(nu=np.full((2, 2), 0.5), f=np.eye(2, dtype=int)))
    with pytest.raises(ValueError, match="dims"):
        grover_step(ops, StateVector((3, 2), np.full(6, 6 ** -0.5)))


def test_densify_cap():
    u, g = _householder(np.ones((10, 10)))
    with pytest.raises(ValueError, match="cap"):
        densify(u, g, (10, 10), cap=99)
    assert densify(u, g, (10, 10), cap=100).shape == (100, 100)


def test_marginal_over_y():
    rng = np.random.default_rng(5)
    s = random_state(rng, (3, 4))
    marg = marginal_over_y(s)
    assert marg.shape == (3,)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert marg[1] == pytest.approx(np.abs(s.amps[4:8]) ** 2 @ np.ones(4))
