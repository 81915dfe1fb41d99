"""One test per acceptance criterion, at the stated tolerance.

The terminal summary (see conftest) prints one pass/fail line per
criterion after the run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from qbandit.bandits import summarize
from qbandit.cli import main
from qbandit.comparison import scaling_experiment
from qbandit.instances import FAMILIES, bernoulli_instance
from qbandit.qbai import (
    analytic_recommendation,
    build_operators,
    grover_step,
    marginal_over_y,
    run_qbai,
    success_probability,
)
from qbandit.ucbe import RngStream, estimate_error, tuned_explore, ucbe_error_bound

from helpers import (ceiling, four_arm_exact, random_instance, two_arm_stochastic,
                     write_instance)

N_INSTANCES = 200
N_MAX_STEPS = 50
AGREE_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass
class SweepStats:
    max_p_dev: float = 0.0
    max_amp_dev: float = 0.0
    max_span_resid: float = 0.0
    max_norm_dev: float = 0.0
    checks: int = 0

    def absorb(self, **devs: float):
        for name, value in devs.items():
            setattr(self, name, max(getattr(self, name), value))
        self.checks += 1


@pytest.fixture(scope="module")
def sweep() -> SweepStats:
    """Drive 200 random instances through the simulator for 0..50 steps and
    record the worst deviation from the closed form, the rotation identity,
    the two-dimensional rotation plane, and probability normalization."""
    rng = np.random.default_rng(20260819)
    stats = SweepStats()
    for _ in range(N_INSTANCES):
        inst, alpha = random_instance(rng)
        ops = build_operators(inst, alpha)
        params = success_probability(inst, alpha)
        psi0 = ops.psi0_state.amps
        good = np.where(inst.f.astype(bool).ravel(), psi0, 0.0)
        bad = psi0 - good
        good_norm = np.linalg.norm(good)
        bad_norm = np.linalg.norm(bad)
        plane = [good / good_norm] if good_norm > 1e-9 else []
        if bad_norm > 1e-9:
            plane.append(bad / bad_norm)

        state = ops.psi0_state
        for n in range(N_MAX_STEPS + 1):
            if n > 0:
                state = grover_step(ops, state)
            marg = marginal_over_y(state)
            analytic = analytic_recommendation(inst, alpha, n)
            overlap_good = np.vdot(good / good_norm, state.amps)
            resid = state.amps.copy()
            for axis in plane:
                resid -= np.vdot(axis, resid) * axis
            stats.absorb(
                max_p_dev=float(np.max(np.abs(marg - analytic))),
                max_amp_dev=abs(abs(overlap_good)
                                - abs(np.sin((2 * n + 1) * params.theta))),
                max_span_resid=float(np.linalg.norm(resid)),
                max_norm_dev=max(abs(marg.sum() - 1.0),
                                 abs(analytic.sum() - 1.0)),
            )
    return stats


def exact_cases():
    return [four_arm_exact(), two_arm_stochastic()]


def test_criterion_1(sweep):
    assert sweep.checks == N_INSTANCES * (N_MAX_STEPS + 1)
    assert sweep.max_p_dev <= AGREE_TOL


def test_criterion_2(sweep):
    assert sweep.max_amp_dev <= AGREE_TOL
    assert sweep.max_span_resid <= AGREE_TOL


@pytest.mark.parametrize("inst", exact_cases(), ids=["deterministic", "stochastic"])
def test_criterion_3(inst):
    model = success_probability(inst)
    assert model.p == pytest.approx(0.25, abs=1e-15)
    assert model.theta == pytest.approx(np.pi / 6, rel=1e-15)
    assert model.n_star == 1

    peak = model.p_rec(model.n_star)
    x_star = summarize(inst).x_star
    assert peak[x_star] == pytest.approx(1.0, abs=1e-12)
    assert peak[x_star] == ceiling(model)

    run = run_qbai(inst, n=1)
    assert run.p_rec[x_star] == pytest.approx(1.0, abs=1e-12)


def test_criterion_4(sweep):
    assert sweep.max_norm_dev <= NORM_TOL
    for inst in exact_cases():
        for n in (0, 1):
            assert abs(analytic_recommendation(inst, n=n).sum() - 1.0) <= NORM_TOL
            assert abs(run_qbai(inst, n=n).p_rec.sum() - 1.0) <= NORM_TOL


@pytest.mark.parametrize(
    "inst, budgets",
    [
        (bernoulli_instance([0.5, 0.25]), (3000, 4500)),
        (four_arm_exact(), (600, 900)),
    ],
    ids=["two-arm-h1-16", "four-arm-h1-3"],
)
def test_criterion_5(inst, budgets):
    summary = summarize(inst)
    for idx, t in enumerate(budgets):
        bound = ucbe_error_bound(summary, t)
        assert bound < 0.5
        e_hat, ci = estimate_error(
            inst, t, tuned_explore(summary, t), 10_000,
            RngStream(1000 + idx),
        )
        assert e_hat <= bound + ci


def test_criterion_6():
    sizes = (4, 8, 16, 32, 64, 128, 256, 512, 1024)
    result = scaling_experiment(FAMILIES["one-good-arm"], sizes)
    assert [row.error for row in result.rows] == [None] * len(sizes)
    assert all(row.report.simulated for row in result.rows)
    assert result.slope == pytest.approx(0.5, abs=0.05)

    ratios = [row.report.ratio for row in result.rows]
    assert all(r is not None for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))

    capped = scaling_experiment(FAMILIES["one-good-arm"], sizes, sim_cap=100)
    flags = [row.report.simulated for row in capped.rows]
    assert flags == [size * 2 <= 100 for size in sizes]
    for full, part in zip(result.rows, capped.rows):
        assert part.report.n_star == full.report.n_star
        assert part.report.qbai_success == full.report.qbai_success


def _strip_timestamp(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        payload.pop("timestamp")
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [l for l in text.splitlines() if not l.startswith("# timestamp")]
    return "\n".join(lines)


def test_criterion_7(tmp_path):
    inst_path = tmp_path / "inst.json"
    write_instance(inst_path, bernoulli_instance([0.5, 0.25, 0.25, 0.25]))
    commands = [
        ["simulate", "--instance", str(inst_path), "--n", "12", "--seed", "3",
         "--phases", "random"],
        ["ucbe", "--instance", str(inst_path), "-T", "200", "--trials", "300",
         "--seed", "3"],
        ["compare", "--instance", str(inst_path)],
        ["scale", "--family", "one-good-arm", "--sizes", "4,8,16,32"],
    ]
    for fmt in ("csv", "json"):
        for idx, argv in enumerate(commands):
            first = tmp_path / f"{fmt}-{idx}-a.{fmt}"
            second = tmp_path / f"{fmt}-{idx}-b.{fmt}"
            for out in (first, second):
                assert main([*argv, "--format", fmt, "-o", str(out)]) == 0
            assert _strip_timestamp(first) == _strip_timestamp(second)
            assert first.read_text()  # never silently empty


def test_csv_and_json_agree_on_values(tmp_path):
    """Same command, both formats: the row data must be the same numbers."""
    inst_path = tmp_path / "inst.json"
    write_instance(inst_path, bernoulli_instance([0.5, 0.25, 0.25, 0.25]))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    assert main(["compare", "--instance", str(inst_path),
                 "-o", str(csv_path)]) == 0
    assert main(["compare", "--instance", str(inst_path), "--format", "json",
                 "-o", str(json_path)]) == 0
    body = "\n".join(l for l in csv_path.read_text().splitlines()
                     if not l.startswith("#"))
    csv_row = next(iter(csv.DictReader(io.StringIO(body))))
    json_row = json.loads(json_path.read_text())["rows"][0]
    assert float(csv_row["qbai_success"]) == json_row["qbai_success"]
    assert int(csv_row["t_classical"]) == json_row["t_classical"]
