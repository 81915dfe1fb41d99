"""States, preparations and the kernel's in-place stages against their dense
matrices, built independently in tests/dense.py."""

from __future__ import annotations

import numpy as np
import pytest

from dense import anchor_matrix, densify, oracle_matrix, step_matrix
from helpers import random_instance
from qbandit.bandits import BanditInstance
from qbandit.errors import DimensionError
from qbandit.hilbert import StateVector, marginal_over_y
from qbandit.qbai import (
    HouseholderPrep,
    _anchor,
    _buffer,
    _prepare,
    build_operators,
    grover_step,
    run_qbai,
)
from qbandit.ucbe import RngStream

STAGES = ("agent", "env", "composite", "tensor")


def random_columns(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_state(rng: np.random.Generator, dims: tuple[int, int]) -> StateVector:
    n, m = dims
    amps = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
    return StateVector(dims, amps / np.linalg.norm(amps))


def random_stage(rng: np.random.Generator, dims: tuple[int, int], kind: str):
    """One in-place kernel stage, as stage(amps, adjoint), and its dense matrix."""
    n, m = dims
    if kind in ("agent", "env"):
        # the agent reflector runs along buffer axis 1, the environment's along 0
        axis, shape = (1, (1, n)) if kind == "agent" else (0, (n, m))
        prep = HouseholderPrep.from_columns(axis, random_columns(rng, shape))
        return (lambda amps, adjoint: _prepare(amps, prep, np.empty_like(amps), adjoint),
                densify(prep, dims))
    return (lambda amps, adjoint: _anchor(amps, kind)), anchor_matrix(dims, kind)


def through(stage, s: StateVector, adjoint: bool = False) -> np.ndarray:
    """The state's amplitudes, in flat order, after one stage on its kernel buffer."""
    amps = _buffer(s)
    stage(amps, adjoint)
    return amps.T.reshape(-1)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector((2, 1), np.array([1.0, 1.0]))
    with pytest.raises(DimensionError):
        StateVector((2, 2), np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
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
    assert np.array_equal(ops.good, mask)
    s = StateVector((2, 2), np.full(4, 0.5))
    reflect = step_matrix(ops) @ oracle_matrix(ops.good)
    flipped = reflect @ grover_step(ops, s).amps
    assert np.abs(flipped - np.array([-0.5, 0.5, 0.5, -0.5])).max() <= 1e-12


def test_composite_reflection_negates_all_but_anchor():
    s = StateVector((2, 2), np.full(4, 0.5))
    out = through(lambda amps, _: _anchor(amps, "composite"), s)
    assert np.array_equal(out, np.array([0.5, -0.5, -0.5, -0.5]))


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
        direct, dense = grover_step(ops, s).amps, step_matrix(ops) @ s.amps
    else:
        dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        stage, matrix = random_stage(rng, dims, STAGES[seed % 5])
        s = random_state(rng, dims)
        direct, dense = through(stage, s), matrix @ s.amps
    assert np.abs(direct - dense).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_adjoint_matches_densify(seed):
    """The stages run as adjoints (W*, and S, which is its own) equal the
    conjugate transpose of the dense matrix."""
    rng = np.random.default_rng(100 + seed)
    dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    stage, matrix = random_stage(rng, dims, STAGES[seed % 4])
    s = random_state(rng, dims)
    dense = matrix.conj().T @ s.amps
    assert np.abs(through(stage, s, adjoint=True) - dense).max() <= 1e-12


def test_adjoint_inverts_apply():
    rng = np.random.default_rng(7)
    dims = (4, 3)
    s = random_state(rng, dims)
    for _ in range(50):
        stage, _ = random_stage(rng, dims, STAGES[int(rng.integers(4))])
        once = StateVector(dims, through(stage, s))
        assert np.abs(through(stage, once, adjoint=True) - s.amps).max() <= 1e-12


def test_long_chain_preserves_norm():
    """1000 kernel steps, each variant, complex alpha and random phases."""
    rng = np.random.default_rng(11)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(4), size=3),
                          f=(rng.random((3, 4)) < 0.5).astype(int))
    alpha = random_columns(rng, (1, 3))[0]
    alpha /= np.linalg.norm(alpha)
    for reflection in ("composite", "tensor"):
        run = run_qbai(inst, alpha, 1000, reflection=reflection,
                       phase_rng=RngStream(11).generator())
        assert abs(np.linalg.norm(run.final_state.amps) - 1.0) <= 1e-12


def test_sign_operators_are_involutions():
    rng = np.random.default_rng(3)
    s = random_state(rng, (3, 2))
    for reflection in ("composite", "tensor"):
        stage = lambda amps, _: _anchor(amps, reflection)
        twice = through(stage, StateVector((3, 2), through(stage, s)))
        assert np.array_equal(twice, s.amps)


def test_dims_mismatch_raises():
    ops = build_operators(BanditInstance(nu=np.full((2, 2), 0.5), f=np.eye(2, dtype=int)))
    with pytest.raises(DimensionError):
        grover_step(ops, StateVector((3, 2), np.full(6, 6 ** -0.5)))


def test_densify_cap():
    prep = HouseholderPrep.from_columns(0, np.ones((10, 10)))
    with pytest.raises(DimensionError):
        densify(prep, (10, 10), cap=99)
    assert densify(prep, (10, 10), cap=100).shape == (100, 100)


def test_marginal_over_y():
    rng = np.random.default_rng(5)
    s = random_state(rng, (3, 4))
    marg = marginal_over_y(s)
    assert marg.shape == (3,)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert marg[1] == pytest.approx(np.abs(s.amps[4:8]) ** 2 @ np.ones(4))
