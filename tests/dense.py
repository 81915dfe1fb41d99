"""Dense-matrix oracle: the operators of one amplification step, built from
their definitions.

Each matrix is built from the fields of `QbaiOperators` (the reflectors and
phases, the reward mask, the reflection name), never through the in-place
kernel, so multiplying by it is an independent route for checking the kernel.
It is a test oracle, not a scalable path.
"""

from __future__ import annotations

import numpy as np

from qbandit.errors import DimensionError
from qbandit.qbai import HouseholderPrep, QbaiOperators

DENSIFY_CAP = 4096


def _size(dims: tuple[int, int], cap: int) -> int:
    d = dims[0] * dims[1]
    if d > cap:
        raise DimensionError(f"densify cap exceeded: {d} > {cap}")
    return d


def _reflector(u: np.ndarray, g: complex) -> np.ndarray:
    """g (I - 2 u u*) for one unit vector u."""
    return g * (np.eye(u.size, dtype=np.complex128) - 2.0 * np.outer(u, u.conj()))


def densify(prep: HouseholderPrep, dims: tuple[int, int],
            cap: int = DENSIFY_CAP) -> np.ndarray:
    """W of one preparation on the composite space of the given (N, M) dims.

    The agent preparation (axis 1) is one reflector on x; the environment
    preparation (axis 0) reflects the y block of arm x by column x.
    """
    n, m = dims
    d = _size(dims, cap)
    if prep.axis == 1:
        agent = _reflector(prep.u[0], prep.phase[0, 0])
        return np.kron(agent, np.eye(m, dtype=np.complex128))
    out = np.zeros((d, d), dtype=np.complex128)
    for x in range(n):
        out[x * m:(x + 1) * m, x * m:(x + 1) * m] = _reflector(prep.u[:, x], prep.phase[0, x])
    return out


def oracle_matrix(good: np.ndarray) -> np.ndarray:
    """O: -1 on every rewarded pair, +1 elsewhere."""
    return np.diag(np.where(good.reshape(-1), -1.0, 1.0)).astype(np.complex128)


def anchor_matrix(dims: tuple[int, int], reflection: str) -> np.ndarray:
    """S: 2|00><00| - I ("composite") or (2|0><0| - I) on each axis ("tensor")."""
    n, m = dims
    if reflection == "composite":
        out = -np.eye(n * m, dtype=np.complex128)
        out[0, 0] = 1.0
        return out
    sx = -np.eye(n, dtype=np.complex128)
    sx[0, 0] = 1.0
    sy = -np.eye(m, dtype=np.complex128)
    sy[0, 0] = 1.0
    return np.kron(sx, sy)


def step_matrix(ops: QbaiOperators, cap: int = DENSIFY_CAP) -> np.ndarray:
    """W S W* O, with W = W_env W_agent."""
    dims = ops.psi0_state.dims
    _size(dims, cap)
    w = densify(ops.prep_env, dims, cap) @ densify(ops.prep_agent, dims, cap)
    s = anchor_matrix(dims, ops.reflection)
    return w @ s @ w.conj().T @ oracle_matrix(ops.good)
