"""Side-by-side reports and the family scaling sweep."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import four_arm_exact, perturb_compare_runs
from qbandit.comparison import ComparisonReport, compare, scaling_experiment
from qbandit.errors import InvariantViolation
from qbandit.instances import bernoulli_instance, one_good_arm, two_tier
from qbandit.qbai import ClosedForm, success_probability


def test_compare_frozen_chain():
    report = compare(bernoulli_instance([0.5, 0.1, 0.1, 0.1]), instance_id="a")
    assert report.instance_id == "a"
    assert report.p_success == pytest.approx(0.2, rel=1e-12)
    assert report.n_star == 1
    assert report.qbai_success == pytest.approx(0.61, rel=1e-12)
    assert report.delta_matched == pytest.approx(0.375, rel=1e-12)
    assert report.delta_classical == report.delta_matched
    assert report.t_classical == 1037
    assert report.ratio == pytest.approx(1037.0)
    assert report.simulated


def test_compare_perfect_confidence_is_not_applicable():
    """a = (1, 0, 0, 0): the ceiling demands certainty and the run attains it,
    so no finite classical budget matches."""
    report = compare(four_arm_exact())
    assert report.delta_matched == 0.0
    assert report.qbai_success == 1.0
    assert report.delta_classical is None
    assert report.t_classical is None
    assert report.ratio is None


def test_compare_attained_fallback():
    # one good arm among four: matched delta is 0 but the attained failure
    # probability is meaningfully positive, so it sets the classical budget
    report = compare(one_good_arm(4))
    assert report.delta_matched == 0.0
    assert report.delta_classical == pytest.approx(1.0 - report.qbai_success)
    assert report.n_star == 2
    assert report.t_classical == 1115
    assert report.ratio == pytest.approx(557.5)


@pytest.mark.parametrize("value", [0.4, 1.0])   # 1.0 leaves q = 0
@pytest.mark.parametrize(
    "alpha", [None, [1.0], [-1.0], [np.exp(0.7j)]], ids=["uniform", "one", "minus-one", "complex"]
)
def test_compare_single_arm_trivial(value, alpha):
    """One arm needs no search, whatever its value or unit amplitude."""
    inst = bernoulli_instance([value])
    alpha = None if alpha is None else np.array(alpha)
    report = compare(inst, alpha, instance_id="one")
    assert report == ComparisonReport(
        instance_id="one",
        n_arms=1,
        n_env=2,
        p_success=success_probability(inst, alpha).p,
        n_star=0,
        qbai_success=1.0,
        delta_matched=0.0,
        delta_classical=None,
        t_classical=None,
        ratio=None,
        simulated=False,
    )


def test_compare_respects_sim_cap():
    full = compare(bernoulli_instance([0.5, 0.1]))
    capped = compare(bernoulli_instance([0.5, 0.1]), sim_cap=1)
    assert full.simulated and not capped.simulated
    assert capped.qbai_success == full.qbai_success
    assert capped.t_classical == full.t_classical


def test_compare_non_uniform_alpha_skips_classical_columns():
    alpha = np.sqrt(np.array([0.7, 0.1, 0.1, 0.1]))
    report = compare(bernoulli_instance([0.5, 0.1, 0.1, 0.1]), alpha)
    assert report.delta_matched > 0.0
    assert report.delta_classical is None
    assert report.t_classical is None


@pytest.mark.parametrize("values", [[1.0, 0.5], [0.9, 0.6], [1.0, 0.9, 0.7, 0.6]])
def test_compare_uniform_weights_do_not_warn(values):
    """n_star = 0 here, so the law is w and every arm ties; rounding of the
    mixture may pick any argmax, which is no reordering."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(bernoulli_instance(values))
    assert report.n_star == 0


def test_compare_warns_when_weights_reorder_the_marginal():
    alpha = np.sqrt(np.array([0.01, 0.99]))
    inst = bernoulli_instance([0.5, 0.4])
    with pytest.warns(UserWarning, match="argmax"):
        report = compare(inst, alpha)
    # qbai_success still reports the true best arm's probability
    assert report.qbai_success < 0.5


@pytest.mark.parametrize("field", ["good_amp", "p_rec"])
def test_compare_raises_when_the_simulator_disagrees(monkeypatch, field):
    """Both the law and the rewarded amplitude at n_star are checked."""
    perturb_compare_runs(monkeypatch, field)
    with pytest.raises(InvariantViolation, match="disagree"):
        compare(bernoulli_instance([0.5, 0.1, 0.1, 0.1]))
    # above the cap nothing is simulated, so nothing can disagree
    assert not compare(bernoulli_instance([0.5, 0.1, 0.1, 0.1]), sim_cap=1).simulated


def test_compare_cross_checks_the_law_at_n_star(monkeypatch):
    """compare evaluates the closed-form law at n_star for its report, and
    the cross-check evaluates its own, once, on the run simulated to n_star."""
    calls = []
    real = ClosedForm.p_rec
    monkeypatch.setattr(ClosedForm, "p_rec",
                        lambda self, n: calls.append(n) or real(self, n))
    report = compare(bernoulli_instance([0.5, 0.1, 0.1, 0.1]))
    assert report.simulated
    assert len(calls) == 2 and calls[0] == report.n_star
    assert np.array_equal(calls[1], [report.n_star])


@pytest.mark.parametrize("family", [one_good_arm, two_tier])
def test_scaling_rows_equal_compare(family):
    """scale reports each size exactly as compare does on the same instance,
    so the uniform weights are the exact 1/N, not a squared 1/sqrt(N)."""
    sizes = (4, 8, 32, 128)
    result = scaling_experiment(family, sizes)
    for size, row in zip(sizes, result.rows):
        assert dataclasses.replace(row.report, instance_id="") == compare(family(size))


def test_scaling_experiment_shape_and_slope():
    result = scaling_experiment(one_good_arm, (4, 8, 16))
    assert [row.size for row in result.rows] == [4, 8, 16]
    assert all(row.error is None for row in result.rows)
    assert [row.report.n_star for row in result.rows] == [2, 3, 4]
    assert result.slope == pytest.approx(0.5, abs=1e-9)


def test_scaling_experiment_marks_failed_rows():
    def family(size: int):
        if size == 6:
            return bernoulli_instance([0.5] * size)   # tied optimum
        return one_good_arm(size)

    result = scaling_experiment(family, (0, 4, 6, 8))
    by_size = {row.size: row for row in result.rows}
    assert by_size[0].report is None and "size" in by_size[0].error
    assert by_size[6].report is None and by_size[6].error
    assert by_size[4].report is not None and by_size[8].report is not None
    assert result.slope is not None


def test_scaling_experiment_needs_two_points_for_a_slope():
    """The points must hold two distinct sizes: rows at one size give no line
    to fit, so numpy is never asked to (it would warn and return a number)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sizes in [(4,), (4, 4), (1, 4, 4)]:
            assert scaling_experiment(one_good_arm, sizes).slope is None
        assert scaling_experiment(one_good_arm, (4, 4, 8)).slope is not None
