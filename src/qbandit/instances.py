"""Instance construction: parametric families and the on-disk format.

Instance files are JSON objects with integer fields "N" and "M", an N x M
table "nu" of outcome probabilities (each row a distribution), an N x M table
"f" of 0/1 rewards, and an optional length-N list "alpha" of real arm
amplitudes (uniform when absent).  Index convention: nu[x][y] is the chance
arm x lands on environment state y, and y = 0 is the first column.
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

from .bandits import RESCALE_TOL, UNIT_TOL, BanditInstance
from .errors import InstanceFormatError, RenormalizationWarning

_KEYS = {"N", "M", "nu", "f", "alpha"}


def bernoulli_instance(values: np.ndarray | list[float]) -> BanditInstance:
    """Arms with the given expected rewards, realized over two outcomes.

    Arm x lands on the rewarded first outcome with probability values[x].
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"values must be a vector, got shape {v.shape}")
    if np.any((v < 0) | (v > 1)):
        raise ValueError("values must lie in [0, 1]")
    nu = np.stack([v, 1.0 - v], axis=1)
    f = np.zeros_like(nu, dtype=np.int64)
    f[:, 0] = 1
    return BanditInstance(nu=nu, f=f)


def one_good_arm(n_arms: int) -> BanditInstance:
    """Arm 0 worth 0.5, every other arm worthless."""
    if n_arms < 1:
        raise ValueError(f"n_arms must be positive, got {n_arms}")
    values = np.zeros(n_arms)
    values[0] = 0.5
    return bernoulli_instance(values)


def two_tier(n_arms: int) -> BanditInstance:
    """Arm 0 worth 0.5, every other arm worth 0.25."""
    if n_arms < 1:
        raise ValueError(f"n_arms must be positive, got {n_arms}")
    values = np.full(n_arms, 0.25)
    values[0] = 0.5
    return bernoulli_instance(values)


FAMILIES: dict[str, Callable[[int], BanditInstance]] = {
    "one-good-arm": one_good_arm,
    "two-tier": two_tier,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstanceFormatError(message)


def _as_table(raw: object, n: int, m: int, field: str) -> np.ndarray:
    _require(isinstance(raw, list) and len(raw) == n,
             f"field '{field}': expected {n} rows")
    # JSON numbers parse as int or float (true and false as bool), so a
    # valid table passes one bulk check; only a failing one is walked row by
    # row for the first bad row's message
    rows: list = raw  # type: ignore[assignment]
    if not (set(map(type, rows)) == {list} and set(map(len, rows)) == {m}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}):
        for i, row in enumerate(rows):
            _require(isinstance(row, list) and len(row) == m,
                     f"field '{field}' row {i}: expected {m} entries")
            _require(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in row),
                     f"field '{field}' row {i}: entries must be numbers")
    return _floats(rows, field)


def _floats(raw: list, field: str) -> np.ndarray:
    try:
        return np.array(raw, dtype=np.float64)
    except OverflowError:
        # an integer literal beyond the float64 range
        raise InstanceFormatError(f"field '{field}': entries must fit in float64") from None


def load_instance(path: str | Path) -> tuple[BanditInstance, np.ndarray | None]:
    """Parse an instance file; returns the instance and its alpha (or None).

    Parse and schema problems raise InstanceFormatError with the offending
    line or field named.  Probability rows follow the renormalization policy
    of BanditInstance; alpha follows the same policy, with the same UNIT_TOL
    and RESCALE_TOL, on its squared norm.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise InstanceFormatError(f"{path}: nested too deeply") from None
    _require(isinstance(data, dict), f"{path}: top level must be an object")
    unknown = set(data) - _KEYS
    _require(not unknown, f"{path}: unknown field(s) {sorted(unknown)}")
    for key in ("N", "M", "nu", "f"):
        _require(key in data, f"{path}: missing field '{key}'")
    n, m = data["N"], data["M"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "field 'N': must be a positive integer")
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1,
             "field 'M': must be a positive integer")
    nu = _as_table(data["nu"], n, m, "nu")
    f = _as_table(data["f"], n, m, "f")
    _require(bool(np.isin(f, (0, 1)).all()), "field 'f': entries must be 0 or 1")
    try:
        inst = BanditInstance(nu=nu, f=f.astype(np.int64))
    except ValueError as exc:
        raise InstanceFormatError(f"field 'nu': {exc}") from exc
    alpha = None
    if "alpha" in data:
        raw = data["alpha"]
        _require(isinstance(raw, list) and len(raw) == n,
                 f"field 'alpha': expected {n} entries")
        _require(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                     for v in raw),
                 "field 'alpha': entries must be numbers")
        alpha = _floats(raw, "alpha")
        _require(bool(np.isfinite(alpha).all()), "field 'alpha': entries must be finite")
        # an entry near the float64 limit squares to inf: off by inf, rejected
        with np.errstate(over="ignore"):
            off = abs(float((alpha ** 2).sum()) - 1.0)
        if off > RESCALE_TOL:
            raise InstanceFormatError(
                f"field 'alpha': squared norm off by {off:.3e}, more than "
                f"{RESCALE_TOL}"
            )
        if off > UNIT_TOL:
            warnings.warn(
                f"rescaled alpha off normalization by {off:.3e}",
                RenormalizationWarning,
                stacklevel=2,
            )
            alpha = alpha / np.linalg.norm(alpha)
    return inst, alpha

