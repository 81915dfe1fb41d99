"""State vectors and preparation reflectors on an (agent x environment) product space.

The composite space has one axis of size N for agent actions and one of size M
for environment outcomes; basis state |x y> sits at flat index x * M + y.
`StateVector` is the validated, read-only state that crosses the package
boundary.  `HouseholderPrep` holds one preparation unitary as a unit reflector
and a phase per row, O(N*M) in all, checked once when it is built.  The
amplification kernel that applies these reflectors in place lives in `qbai`;
the dense matrices that cross-check it live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class HouseholderPrep:
    """Preparation unitary W = g (I - 2 u u*) acting along one axis.

    axis 0 is the agent axis: u has shape (1, N), one reflector applied to x
    and the identity on y.  axis 1 is the environment axis: u has shape
    (N, M), row x reflecting the y axis of block x.  phase holds the unit
    factor g of each row of u.  I - 2 u u* is unitary and Hermitian for unit
    u, so checking |u| = 1 and |g| = 1 stands in for a Gram product, and the
    adjoint is the same u with conjugated phases.  u_conj and phase_conj are
    those conjugates, computed once here so that no step recomputes them.
    """

    dims: tuple[int, int]
    axis: int
    u: np.ndarray
    phase: np.ndarray
    u_conj: np.ndarray = field(init=False, repr=False)
    phase_conj: np.ndarray = field(init=False, repr=False)

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
        for name, value in (("u", u), ("phase", phase),
                            ("u_conj", u.conj()), ("phase_conj", phase.conj())):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dims", (int(n), int(m)))
        object.__setattr__(self, "axis", int(self.axis))

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


def marginal_over_y(s: StateVector) -> np.ndarray:
    """Probability of each agent action after discarding the environment axis."""
    n, m = s.dims
    return (np.abs(s.amps.reshape(n, m)) ** 2).sum(axis=1)
