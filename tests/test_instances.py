"""Families and the JSON instance format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from qbandit.bandits import arm_values
from qbandit.errors import InstanceFormatError, RenormalizationWarning
from qbandit.instances import (
    FAMILIES,
    bernoulli_instance,
    load_instance,
    one_good_arm,
    two_tier,
)


def test_bernoulli_instance_structure():
    inst = bernoulli_instance([0.5, 0.1])
    assert inst.nu.shape == (2, 2)
    assert np.array_equal(inst.f, [[1, 0], [1, 0]])
    assert np.allclose(inst.nu[:, 0], [0.5, 0.1])
    with pytest.raises(ValueError):
        bernoulli_instance([1.5])
    with pytest.raises(ValueError):
        bernoulli_instance([[0.5]])


def test_families():
    assert set(FAMILIES) == {"one-good-arm", "two-tier"}
    assert np.allclose(arm_values(one_good_arm(5)), [0.5, 0, 0, 0, 0])
    assert np.allclose(arm_values(two_tier(3)), [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        one_good_arm(0)


def test_round_trip_is_value_identical(tmp_path):
    inst = bernoulli_instance([0.123456789012345, 0.9])
    alpha = np.sqrt(np.array([0.3, 0.7]))
    path = tmp_path / "inst.json"
    data = {"N": 2, "M": 2, "nu": inst.nu.tolist(), "f": inst.f.tolist()}
    path.write_text(json.dumps({**data, "alpha": alpha.tolist()}))
    loaded, loaded_alpha = load_instance(path)
    assert np.array_equal(loaded.nu, inst.nu)
    assert np.array_equal(loaded.f, inst.f)
    assert np.array_equal(loaded_alpha, alpha)
    path.write_text(json.dumps(data))
    again, no_alpha = load_instance(path)
    assert np.array_equal(again.nu, inst.nu)
    assert no_alpha is None


def _write(tmp_path, payload) -> str:
    path = tmp_path / "inst.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _valid() -> dict:
    return {
        "N": 2,
        "M": 2,
        "nu": [[0.5, 0.5], [0.25, 0.75]],
        "f": [[1, 0], [1, 0]],
    }


def test_load_instance_accepts_the_documented_format(tmp_path):
    inst, alpha = load_instance(_write(tmp_path, _valid()))
    assert inst.n_arms == 2 and inst.n_env == 2
    assert alpha is None
    assert np.allclose(arm_values(inst), [0.5, 0.25])


def test_load_instance_missing_file():
    with pytest.raises(InstanceFormatError, match="no-such"):
        load_instance("/tmp/no-such-instance-file.json")


def test_load_instance_reports_parse_position(tmp_path):
    with pytest.raises(InstanceFormatError, match="line 2"):
        load_instance(_write(tmp_path, '{"N": 2,\n}'))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(N=True), "'N'"),
        (lambda d: d.update(N=0), "'N'"),
        (lambda d: d.update(M="2"), "'M'"),
        (lambda d: d.pop("nu"), "missing field 'nu'"),
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.update(nu=[[0.5, 0.5]]), "expected 2 rows"),
        (lambda d: d.update(nu=[[0.5], [0.25]]), "expected 2 entries"),
        (lambda d: d.update(nu=[[0.5, "x"], [0.25, 0.75]]), "numbers"),
        (lambda d: d.update(f=[[1, 2], [0, 0]]), "0 or 1"),
        (lambda d: d.update(nu=[[0.5, 0.6], [0.25, 0.75]]), "field 'nu'"),
        (lambda d: d.update(alpha=[1.0]), "'alpha'"),
        (lambda d: d.update(alpha=[0.9, 0.9]), "'alpha'"),
        (lambda d: d.update(alpha=[float("nan"), 0.5]), "'alpha': entries must be finite"),
    ],
)
def test_load_instance_rejects_malformed_fields(tmp_path, mutate, message):
    data = _valid()
    mutate(data)
    with pytest.raises(InstanceFormatError, match=message):
        load_instance(_write(tmp_path, data))


@pytest.mark.parametrize(
    "field, rows, message",
    [
        ("nu", [[0.5, 0.5], [0.5, True], [0.5]], "field 'nu' row 1: entries must be numbers"),
        ("nu", [[0.5, 0.5], [0.5], [0.5, "x"]], "field 'nu' row 1: expected 2 entries"),
        ("nu", [[0.5, 0.5], "ab", [0.5, 0.5]], "field 'nu' row 1: expected 2 entries"),
        ("f", [[1, 0], [0, 0], {"a": 1, "b": 0}], "field 'f' row 2: expected 2 entries"),
        ("f", [[1, 0], [0, None], [0, 0]], "field 'f' row 1: entries must be numbers"),
    ],
)
def test_load_instance_names_the_first_bad_row(tmp_path, field, rows, message):
    """A table failing the bulk check is reported by its first bad row, the
    entry count checked before the entry types."""
    data = {"N": 3, "M": 2, "nu": [[0.5, 0.5]] * 3, "f": [[1, 0]] * 3, field: rows}
    with pytest.raises(InstanceFormatError) as info:
        load_instance(_write(tmp_path, data))
    assert str(info.value) == message


def test_load_instance_rejects_non_object(tmp_path):
    with pytest.raises(InstanceFormatError, match="object"):
        load_instance(_write(tmp_path, [1, 2, 3]))


def test_load_instance_alpha_policy(tmp_path):
    # off by 1e-12: accepted as-is
    data = _valid()
    data["alpha"] = [np.sqrt(0.5), np.sqrt(0.5 + 1e-12)]
    _, alpha = load_instance(_write(tmp_path, data))
    assert alpha[1] == data["alpha"][1]
    # off by 1e-7: rescaled with a warning
    data["alpha"] = [np.sqrt(0.5), np.sqrt(0.5 + 1e-7)]
    with pytest.warns(RenormalizationWarning):
        _, alpha = load_instance(_write(tmp_path, data))
    assert np.linalg.norm(alpha) == pytest.approx(1.0, abs=1e-15)
    # worse: rejected
    data["alpha"] = [1.0, 1.0]
    with pytest.raises(InstanceFormatError, match="alpha"):
        load_instance(_write(tmp_path, data))


def test_load_instance_renormalizes_sloppy_rows(tmp_path):
    data = _valid()
    data["nu"] = [[0.5, 0.5 + 1e-7], [0.25, 0.75]]
    with pytest.warns(RenormalizationWarning):
        inst, _ = load_instance(_write(tmp_path, data))
    assert inst.nu[0].sum() == pytest.approx(1.0, abs=1e-15)
