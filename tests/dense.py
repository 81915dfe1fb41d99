"""Dense-matrix oracle: each structured operator built from its definition.

`densify` materializes the (N*M, N*M) matrix of an operator without going
through `apply`, so multiplying by it is an independent route for checking
the structured kernels.  It is a test oracle, not a scalable path.
"""

from __future__ import annotations

import numpy as np

from qbandit.errors import DimensionError, InvalidOperator
from qbandit.hilbert import (
    CompositeReflection,
    DiagonalSign,
    HouseholderPrep,
    OperatorSpec,
    TensorReflection,
)

DENSIFY_CAP = 4096


def _reflector(u: np.ndarray, g: complex) -> np.ndarray:
    """g (I - 2 u u*) for one unit vector u."""
    return g * (np.eye(u.size, dtype=np.complex128) - 2.0 * np.outer(u, u.conj()))


def densify(op: OperatorSpec, cap: int = DENSIFY_CAP) -> np.ndarray:
    """Dense matrix built from the operator's definition (cross-check oracle only)."""
    n, m = op.dims
    d = n * m
    if d > cap:
        raise DimensionError(f"densify cap exceeded: {d} > {cap}")
    if isinstance(op, DiagonalSign):
        return np.diag(np.where(op.mask.reshape(-1), -1.0, 1.0)).astype(np.complex128)
    if isinstance(op, HouseholderPrep):
        if op.axis == 0:
            agent = _reflector(op.u[0], op.phase[0])
            return np.kron(agent, np.eye(m, dtype=np.complex128))
        out = np.zeros((d, d), dtype=np.complex128)
        for x in range(n):
            out[x * m:(x + 1) * m, x * m:(x + 1) * m] = _reflector(op.u[x], op.phase[x])
        return out
    if isinstance(op, CompositeReflection):
        out = -np.eye(d, dtype=np.complex128)
        out[op.anchor, op.anchor] = 1.0
        return out
    if isinstance(op, TensorReflection):
        sx = -np.eye(n, dtype=np.complex128)
        sx[op.anchor_x, op.anchor_x] = 1.0
        sy = -np.eye(m, dtype=np.complex128)
        sy[op.anchor_y, op.anchor_y] = 1.0
        return np.kron(sx, sy)
    raise InvalidOperator(f"unknown operator kind {type(op).__name__}")
