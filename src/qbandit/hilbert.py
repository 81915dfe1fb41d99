"""State vectors and structured unitaries on an (agent x environment) product space.

The composite space has one axis of size N for agent actions and one of size M
for environment outcomes; basis state |x y> sits at flat index x * M + y.
Operators are kept in structured form (sign flips, Householder preparations,
rank-one reflections), so each is stored in O(N*M) and applied in O(N*M)
instead of O((N*M)^2).  No dense matrix of any operator is built here; the
dense oracle that cross-checks `apply` lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidOperator

# Payload unitarity check; looser than application accuracy to absorb
# normalization roundoff.
UNITARY_TOL = 1e-10
# States must arrive normalized; applications keep them that way to ~1e-15.
STATE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over the composite basis.

    dims is (N, M); amps has length N * M with amps[x * M + y] = <x y|s>.
    """

    dims: tuple[int, int]
    amps: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.dims
        if n < 1 or m < 1:
            raise DimensionError(f"dims must be positive, got {self.dims}")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (n * m,):
            raise DimensionError(
                f"amplitude vector has shape {amps.shape}, expected ({n * m},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {STATE_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", (int(n), int(m)))


def basis_state(dims: tuple[int, int], index: int = 0) -> StateVector:
    """The computational basis state at the given flat index."""
    n, m = dims
    if not (0 <= index < n * m):
        raise DimensionError(f"basis index {index} outside dims {dims}")
    amps = np.zeros(n * m, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(dims, amps)


@dataclass(frozen=True)
class DiagonalSign:
    """Phase oracle: flips the sign of every basis state selected by mask (N, M)."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise InvalidOperator(f"mask must be 2-d (N, M), got shape {mask.shape}")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def dims(self) -> tuple[int, int]:
        return self.mask.shape


@dataclass(frozen=True)
class HouseholderPrep:
    """Preparation unitary W = g (I - 2 u u*) acting along one axis.

    axis 0 is the agent axis: u has shape (1, N), one reflector applied to x
    and the identity on y.  axis 1 is the environment axis: u has shape
    (N, M), row x reflecting the y axis of block x.  phase holds the unit
    factor g of each row of u.  I - 2 u u* is unitary and Hermitian for unit
    u, so checking |u| = 1 and |g| = 1 stands in for a Gram product, and the
    adjoint is the same u with conjugated phases.
    """

    dims: tuple[int, int]
    axis: int
    u: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        n, m = self.dims
        if self.axis not in (0, 1):
            raise InvalidOperator(f"axis must be 0 or 1, got {self.axis}")
        shape = (1, n) if self.axis == 0 else (n, m)
        u = np.array(self.u, dtype=np.complex128)
        phase = np.array(self.phase, dtype=np.complex128)
        if u.shape != shape or phase.shape != shape[:1]:
            raise InvalidOperator(
                f"reflector shapes {u.shape} and {phase.shape} do not match "
                f"axis {self.axis} of dims {self.dims}"
            )
        dev = max(
            float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max()),
            float(np.abs(np.abs(phase) - 1.0).max()),
        )
        if dev > UNITARY_TOL:
            raise InvalidOperator(
                f"preparation is not unitary: max ||u| - 1|, ||g| - 1| = {dev:.3e}"
            )
        u.setflags(write=False)
        phase.setflags(write=False)
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "axis", int(self.axis))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phase", phase)

    @classmethod
    def from_columns(
        cls, dims: tuple[int, int], axis: int, columns: np.ndarray
    ) -> HouseholderPrep:
        """The preparation with W|0> = c for each row c of columns, normalized.

        With gamma = -conj(c0)/|c0| (-1 when c0 = 0), v = e0 - gamma c and
        u = v/|v|, the reflector maps e0 to gamma c, so g = conj(gamma)
        restores c.  v0 = 1 + |c0| >= 1, so no column is a degenerate case.
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
        return cls(dims, axis, v, gamma.conj())


@dataclass(frozen=True)
class CompositeReflection:
    """2|a><a| - I about one basis state of the composite space."""

    dims: tuple[int, int]
    anchor: int = 0

    def __post_init__(self) -> None:
        n, m = self.dims
        if not (0 <= self.anchor < n * m):
            raise InvalidOperator(f"anchor {self.anchor} outside dims {self.dims}")
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "anchor", int(self.anchor))


@dataclass(frozen=True)
class TensorReflection:
    """(2|ax><ax| - I) tensor (2|ay><ay| - I), one reflection per factor."""

    dims: tuple[int, int]
    anchor_x: int = 0
    anchor_y: int = 0

    def __post_init__(self) -> None:
        n, m = self.dims
        if not (0 <= self.anchor_x < n and 0 <= self.anchor_y < m):
            raise InvalidOperator(
                f"anchors ({self.anchor_x}, {self.anchor_y}) outside dims {self.dims}"
            )
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "anchor_x", int(self.anchor_x))
        object.__setattr__(self, "anchor_y", int(self.anchor_y))


OperatorSpec = DiagonalSign | HouseholderPrep | CompositeReflection | TensorReflection


def apply(op: OperatorSpec, s: StateVector) -> StateVector:
    """Apply a structured operator to a state without materializing a matrix."""
    if op.dims != s.dims:
        raise DimensionError(f"operator dims {op.dims} do not match state {s.dims}")
    n, m = s.dims
    if isinstance(op, DiagonalSign):
        out = np.where(op.mask.reshape(-1), -s.amps, s.amps)
    elif isinstance(op, HouseholderPrep):
        # rows are the vectors each reflector acts on: the columns of the
        # (N, M) amplitude table for the agent axis, its rows for the other
        rows = s.amps.reshape(n, m)
        if op.axis == 0:
            rows = rows.T
        proj = (rows * op.u.conj()).sum(axis=1)
        out = op.phase[:, None] * (rows - 2.0 * proj[:, None] * op.u)
        if op.axis == 0:
            out = out.T
        out = out.reshape(-1)
    elif isinstance(op, CompositeReflection):
        out = -s.amps
        out[op.anchor] = s.amps[op.anchor]
    elif isinstance(op, TensorReflection):
        sign_x = np.full(n, -1.0)
        sign_x[op.anchor_x] = 1.0
        sign_y = np.full(m, -1.0)
        sign_y[op.anchor_y] = 1.0
        out = (s.amps.reshape(n, m) * np.outer(sign_x, sign_y)).reshape(-1)
    else:
        raise InvalidOperator(f"unknown operator kind {type(op).__name__}")
    return StateVector(s.dims, out)


def adjoint(op: OperatorSpec) -> OperatorSpec:
    """The conjugate-transpose operator; sign flips and reflections are their own."""
    if isinstance(op, (DiagonalSign, CompositeReflection, TensorReflection)):
        return op
    if isinstance(op, HouseholderPrep):
        return HouseholderPrep(op.dims, op.axis, op.u, op.phase.conj())
    raise InvalidOperator(f"unknown operator kind {type(op).__name__}")


def marginal_over_y(s: StateVector) -> np.ndarray:
    """Probability of each agent action after discarding the environment axis."""
    n, m = s.dims
    return (np.abs(s.amps.reshape(n, m)) ** 2).sum(axis=1)
