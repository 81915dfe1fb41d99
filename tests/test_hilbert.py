"""Structured operators against their independently densified matrices."""

from __future__ import annotations

import numpy as np
import pytest

from dense import densify
from qbandit.errors import DimensionError, InvalidOperator
from qbandit.hilbert import (
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

N_KINDS = 5


def random_columns(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_state(rng: np.random.Generator, dims: tuple[int, int]) -> StateVector:
    n, m = dims
    amps = rng.normal(size=n * m) + 1j * rng.normal(size=n * m)
    return StateVector(dims, amps / np.linalg.norm(amps))


def random_operator(
    rng: np.random.Generator, dims: tuple[int, int], kind: int | None = None
):
    n, m = dims
    if kind is None:
        kind = int(rng.integers(N_KINDS))
    if kind == 0:
        return DiagonalSign(rng.random((n, m)) < 0.5)
    if kind == 1:
        return HouseholderPrep.from_columns(dims, 0, random_columns(rng, (1, n)))
    if kind == 2:
        return HouseholderPrep.from_columns(dims, 1, random_columns(rng, (n, m)))
    if kind == 3:
        return CompositeReflection(dims, int(rng.integers(n * m)))
    return TensorReflection(dims, int(rng.integers(n)), int(rng.integers(m)))


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


def test_basis_state():
    s = basis_state((2, 3), 4)
    assert s.amps[4] == 1.0
    assert np.count_nonzero(s.amps) == 1
    with pytest.raises(DimensionError):
        basis_state((2, 3), 6)


def test_diagonal_sign_flips_masked_entries():
    mask = np.array([[True, False], [False, True]])
    s = StateVector((2, 2), np.full(4, 0.5))
    out = apply(DiagonalSign(mask), s)
    assert np.array_equal(out.amps, np.array([-0.5, 0.5, 0.5, -0.5]))


def test_composite_reflection_negates_all_but_anchor():
    s = StateVector((2, 2), np.full(4, 0.5))
    out = apply(CompositeReflection((2, 2), 2), s)
    assert np.array_equal(out.amps, np.array([-0.5, -0.5, 0.5, -0.5]))


@pytest.mark.parametrize("seed", range(20))
def test_apply_matches_densify(seed):
    """Structured application equals multiplication by the densified matrix."""
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    op = random_operator(rng, dims, kind=seed % N_KINDS)
    s = random_state(rng, dims)
    direct = apply(op, s).amps
    dense = densify(op) @ s.amps
    assert np.abs(direct - dense).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_adjoint_matches_densify(seed):
    rng = np.random.default_rng(100 + seed)
    dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    op = random_operator(rng, dims, kind=seed % N_KINDS)
    assert np.abs(densify(adjoint(op)) - densify(op).conj().T).max() <= 1e-12


def test_adjoint_inverts_apply():
    rng = np.random.default_rng(7)
    dims = (4, 3)
    s = random_state(rng, dims)
    for _ in range(50):
        op = random_operator(rng, dims)
        back = apply(adjoint(op), apply(op, s))
        assert np.abs(back.amps - s.amps).max() <= 1e-12


def test_long_chain_preserves_norm():
    rng = np.random.default_rng(11)
    dims = (3, 4)
    s = random_state(rng, dims)
    for _ in range(1000):
        s = apply(random_operator(rng, dims), s)
    assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12


def test_sign_operators_are_involutions():
    rng = np.random.default_rng(3)
    dims = (3, 2)
    s = random_state(rng, dims)
    for op in (
        DiagonalSign(rng.random(dims) < 0.5),
        CompositeReflection(dims, 1),
        TensorReflection(dims, 2, 0),
    ):
        twice = apply(op, apply(op, s))
        assert np.array_equal(twice.amps, s.amps)


def test_dims_mismatch_raises():
    s = basis_state((2, 2))
    with pytest.raises(DimensionError):
        apply(DiagonalSign(np.zeros((3, 2), dtype=bool)), s)


def test_unitarity_enforced():
    unit = np.array([[0.6, 0.8j]])
    with pytest.raises(InvalidOperator):
        HouseholderPrep((2, 3), 0, np.array([[1.0, 1.0]]), np.ones(1))
    with pytest.raises(InvalidOperator):
        HouseholderPrep((2, 3), 0, unit, np.array([1.1]))
    with pytest.raises(InvalidOperator):
        HouseholderPrep((1, 2), 1, np.ones((1, 2)), np.ones(1))
    # shapes must match the axis: (1, N) on the agent axis, (N, M) on the other
    with pytest.raises(InvalidOperator):
        HouseholderPrep((2, 3), 1, unit, np.ones(1))
    with pytest.raises(InvalidOperator):
        HouseholderPrep((2, 3), 2, unit, np.ones(1))
    # deviation within 1e-10 is absorbed
    eps = 2e-11
    HouseholderPrep((2, 3), 0, unit * (1.0 + eps), np.array([1j * (1.0 - eps)]))


def test_densify_cap():
    op = CompositeReflection((10, 10), 0)
    with pytest.raises(DimensionError):
        densify(op, cap=99)
    assert densify(op, cap=100).shape == (100, 100)


def test_marginal_over_y():
    rng = np.random.default_rng(5)
    s = random_state(rng, (3, 4))
    marg = marginal_over_y(s)
    assert marg.shape == (3,)
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert marg[1] == pytest.approx(np.abs(s.amps[4:8]) ** 2 @ np.ones(4))
