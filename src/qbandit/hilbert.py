"""State vectors on an (agent x environment) product space.

The composite space has one axis of size N for agent actions and one of size M
for environment outcomes; basis state |x y> sits at flat index x * M + y.
`StateVector` is the validated, read-only state that crosses the package
boundary, and `marginal_over_y` reads the arm law off it.  The preparation
reflectors and the in-place kernel that applies them live together in `qbai`,
stored along its outcome-major (M, N) buffer; the dense matrices that
cross-check them live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

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
            raise ValueError(f"state norm {float(norm)} is not 1 within {STATE_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "dims", (int(n), int(m)))


def marginal_over_y(s: StateVector) -> np.ndarray:
    """Probability of each agent action after discarding the environment axis."""
    n, m = s.dims
    return (np.abs(s.amps.reshape(n, m)) ** 2).sum(axis=1)
