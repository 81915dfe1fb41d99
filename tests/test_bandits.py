"""Instance tables, summaries, and the evaluation functionals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbandit.bandits import (
    BanditInstance,
    arm_values,
    error_probability,
    summarize,
)
from qbandit.errors import DegenerateInstance, RenormalizationWarning
from qbandit.instances import bernoulli_instance


def test_instance_validation():
    with pytest.raises(ValueError):
        BanditInstance(nu=np.array([[-0.1, 1.1]]), f=np.array([[1, 0]]))
    with pytest.raises(ValueError):
        BanditInstance(nu=np.array([[0.5, 0.5]]), f=np.array([[2, 0]]))
    with pytest.raises(ValueError):
        BanditInstance(nu=np.array([[0.5, 0.5]]), f=np.array([[1, 0, 0]]))
    with pytest.raises(ValueError):
        BanditInstance(nu=np.array([0.5, 0.5]), f=np.array([1, 0]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_nu_rejected(value):
    """A NaN fails every comparison, so the sign and row-sum checks would pass it."""
    with pytest.raises(ValueError, match="nu must be finite"):
        BanditInstance(nu=np.array([[value, 0.5], [0.5, 0.5]]), f=np.array([[1, 0], [1, 0]]))


def test_row_sum_policy():
    # within 1e-9: accepted untouched
    nu = np.array([[0.5, 0.5 + 1e-12]])
    inst = BanditInstance(nu=nu, f=np.array([[1, 0]]))
    assert inst.nu[0, 1] == 0.5 + 1e-12
    # within 1e-6: rescaled with a warning
    with pytest.warns(RenormalizationWarning):
        inst = BanditInstance(nu=np.array([[0.5, 0.5 + 1e-7]]), f=np.array([[1, 0]]))
    assert inst.nu[0].sum() == pytest.approx(1.0, abs=1e-15)
    # worse: rejected
    with pytest.raises(ValueError):
        BanditInstance(nu=np.array([[0.5, 0.6]]), f=np.array([[1, 0]]))


def test_tables_are_frozen():
    inst = bernoulli_instance([0.5, 0.1])
    with pytest.raises(ValueError):
        inst.nu[0, 0] = 0.0
    with pytest.raises(ValueError):
        inst.f[0, 0] = 0


def test_arm_values():
    inst = bernoulli_instance([0.5, 0.1, 0.1, 0.1])
    values = arm_values(inst)
    assert np.allclose(values, [0.5, 0.1, 0.1, 0.1], atol=1e-15)
    for x in range(inst.n_arms):
        assert values[x] == pytest.approx(np.dot(inst.nu[x], inst.f[x]), abs=1e-15)


def test_summarize():
    s = summarize(bernoulli_instance([0.5, 0.1, 0.1, 0.1]))
    assert s.x_star == 0
    assert np.allclose(s.a, [0.5, 0.1, 0.1, 0.1], atol=1e-15)
    assert s.h1 == pytest.approx(18.75, rel=1e-12)
    s2 = summarize(bernoulli_instance([0.5, 0.25]))
    assert s2.h1 == pytest.approx(16.0, rel=1e-12)


def test_summarize_single_arm():
    s = summarize(bernoulli_instance([0.3]))
    assert s.x_star == 0
    assert s.h1 == 0.0
    assert np.array_equal(s.a, [0.3])


def test_summarize_rejects_tied_optimum():
    with pytest.raises(DegenerateInstance):
        summarize(bernoulli_instance([0.4, 0.4, 0.1]))


def test_error_probability_examples():
    s = summarize(bernoulli_instance([0.5, 0.1, 0.1, 0.1]))
    p_rec = np.array([0.625, 0.125, 0.125, 0.125])
    assert error_probability(s, p_rec) == pytest.approx(0.375, rel=1e-12)
    uniform = np.full(4, 0.25)
    assert error_probability(s, uniform) == pytest.approx(0.75, rel=1e-12)


def test_error_probability_keeps_a_miss_below_rounding_of_one():
    # 1 - p[x_star] would round to 0; the mass on the other arms does not
    s = summarize(bernoulli_instance([0.5, 0.1, 0.1]))
    p_rec = np.array([1.0, 1e-17, 2e-17])
    assert error_probability(s, p_rec) == pytest.approx(3e-17, rel=1e-15)


def test_recommendation_distribution_checked():
    s = summarize(bernoulli_instance([0.5, 0.1]))
    with pytest.raises(ValueError):
        error_probability(s, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        error_probability(s, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError):
        error_probability(s, np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        error_probability(s, np.array([np.nan, 1.0]))


@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8))
def test_bernoulli_values_round_trip(values):
    inst = bernoulli_instance(values)
    assert np.allclose(arm_values(inst), values, atol=1e-12)


@given(
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=8).filter(
        lambda v: sorted(v)[-1] - sorted(v)[-2] > 1e-6
    )
)
def test_summary_properties(values):
    """The optimum is the first arm of largest value, and a recommendation
    concentrated there has no error."""
    s = summarize(bernoulli_instance(values))
    assert s.x_star == s.a.tolist().index(s.a.max())
    assert s.h1 > 0.0
    one_hot = np.zeros(len(values))
    one_hot[s.x_star] = 1.0
    assert error_probability(s, one_hot) == 0.0
