"""Dense-matrix oracle: the operators of one amplification step, built from
their definitions.

Each matrix is built from the fields of `QbaiOperators` (the agent
amplitudes, the environment reflectors, the reflection name) and the
instance's own reward mask, never through the in-place kernel, so
multiplying by it is an independent route for checking the kernel.  The
kernel holds no agent preparation and folds the environment phases G into
alpha; `agent_matrix` completes alpha to its own Householder unitary, so
`step_matrix` multiplies out W S W* with W = H W_agent in full rather than
trusting the reflection about alpha that the kernel applies.  That W
differs from the true G H W_agent(conj(g) alpha) but gives the same W S W*:
G and H are both block-diagonal by arm, so they commute, and G W_agent(b)
has first column g b, the first column of W_agent(g b).  It is a test
oracle, not a scalable path.
"""

from __future__ import annotations

import numpy as np

from qbandit.qbai import QbaiOperators

DENSIFY_CAP = 4096


def _size(dims: tuple[int, int], cap: int) -> int:
    d = dims[0] * dims[1]
    if d > cap:
        raise ValueError(f"densify cap exceeded: {d} > {cap}")
    return d


def _reflector(u: np.ndarray) -> np.ndarray:
    """I - 2 u u* for one unit vector u."""
    return np.eye(u.size, dtype=np.complex128) - 2.0 * np.outer(u, u.conj())


def reflectors(u: np.ndarray, dims: tuple[int, int],
               cap: int = DENSIFY_CAP) -> np.ndarray:
    """H on the composite space of the given (N, M) dims: column x of the
    (M, N) reflectors u reflects the y block of arm x."""
    n, m = dims
    d = _size(dims, cap)
    out = np.zeros((d, d), dtype=np.complex128)
    for x in range(n):
        out[x * m:(x + 1) * m, x * m:(x + 1) * m] = _reflector(u[:, x])
    return out


def densify(u: np.ndarray, g: np.ndarray, dims: tuple[int, int],
            cap: int = DENSIFY_CAP) -> np.ndarray:
    """W_env = G H: arm x's block of H times its phase g_x."""
    return np.repeat(g, dims[1])[:, None] * reflectors(u, dims, cap)


def agent_matrix(alpha: np.ndarray, dims: tuple[int, int],
                 cap: int = DENSIFY_CAP) -> np.ndarray:
    """A W_agent with first column alpha, on the composite space of (N, M) dims.

    The agent Householder completion: with gamma = -conj(a0)/|a0| (-1 when
    a0 = 0) and u = (e0 - gamma alpha) / |e0 - gamma alpha|, the reflector
    conj(gamma) (I - 2 u u*) maps e0 to alpha.
    """
    _size(dims, cap)
    a = np.asarray(alpha, dtype=np.complex128)
    gamma = -a[0].conj() / abs(a[0]) if a[0] != 0 else -1.0
    v = -gamma * a
    v[0] += 1.0
    agent = np.conj(gamma) * _reflector(v / np.linalg.norm(v))
    return np.kron(agent, np.eye(dims[1], dtype=np.complex128))


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


def step_matrix(ops: QbaiOperators, good: np.ndarray,
                cap: int = DENSIFY_CAP) -> np.ndarray:
    """W S W* O, with W = H W_agent, W_agent completing ops.alpha, and O the
    sign of the (N, M) reward mask good."""
    dims = ops.psi0_state.dims
    _size(dims, cap)
    w = reflectors(ops.u, dims, cap) @ agent_matrix(ops.alpha, dims, cap)
    s = anchor_matrix(dims, ops.reflection)
    return w @ s @ w.conj().T @ oracle_matrix(good)
