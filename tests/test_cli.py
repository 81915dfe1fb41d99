"""Command-line surface: schemas, headers, and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import no_child_left, perturb_compare_runs, write_instance
import qbandit
from qbandit import cli, qbai, workers
from qbandit.bandits import BanditInstance
from qbandit.cli import main
from qbandit.comparison import compare
from qbandit.errors import (DegenerateInstance, InstanceFormatError, InvariantViolation,
                            QbanditError)
from qbandit.instances import FAMILIES, bernoulli_instance, load_instance
from qbandit.qbai import (REFLECTIONS, SIM_AGREE_TOL, STEP_CEILING, build_operators,
                          cross_check, success_probability, sweep)


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    write_instance(path, bernoulli_instance([0.5, 0.25, 0.25, 0.25]))
    return str(path)


def run_csv(capsys, argv) -> tuple[list[str], list[dict]]:
    code = main(argv)
    assert code == 0
    text = capsys.readouterr().out
    header = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return header, rows


def test_compare_csv_schema(capsys, instance_path):
    header, rows = run_csv(capsys, ["compare", "--instance", instance_path])
    assert len(rows) == 1
    assert list(rows[0]) == [
        "N", "M", "p_success", "n_star", "qbai_success", "delta",
        "t_classical", "ratio",
    ]
    assert rows[0]["N"] == "4"
    assert float(rows[0]["qbai_success"]) == pytest.approx(0.390625)
    assert any(line.startswith("# config = ") for line in header)
    assert any(line.startswith("# timestamp = ") for line in header)


def test_compare_blank_cells_for_not_applicable(capsys, tmp_path):
    path = tmp_path / "exact.json"
    write_instance(path, bernoulli_instance([1.0, 0.0, 0.0, 0.0]))
    _, rows = run_csv(capsys, ["compare", "--instance", str(path)])
    assert rows[0]["t_classical"] == ""
    assert rows[0]["ratio"] == ""
    assert rows[0]["delta"] == "0.0"


def test_config_header_excludes_output_path(capsys, instance_path, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["compare", "--instance", instance_path, "-o", str(out)])
    assert code == 0
    config_line = next(
        line for line in out.read_text().splitlines()
        if line.startswith("# config = ")
    )
    config = json.loads(config_line.removeprefix("# config = "))
    assert "output" not in config
    assert config["command"] == "compare"
    assert config["seed"] == 0


# the header every command records when given only its required arguments
_DEFAULT_CONFIG = {
    "bonus": "per-arm", "command": None, "delta": None, "explore": None,
    "family": None, "format": "csv", "instance": None, "n": 10,
    "phases": "real", "reflection": "composite", "rounds": 100, "seed": 0,
    "sim_cap": 4096, "sizes": None, "trials": 1000,
}


@pytest.mark.parametrize("command, args, fields", [
    ("simulate", [], {}),
    ("analytic", [], {}),
    ("ucbe", ["-T", "40"], {"rounds": 40}),
    ("compare", [], {}),
    ("scale", ["--family", "two-tier"],
     {"instance": None, "family": "two-tier",
      "sizes": [4, 8, 16, 32, 64, 128, 256, 512, 1024]}),
    ("validate", [], {"n": 50}),
])
def test_default_config_header(capsys, instance_path, command, args, fields):
    """Each command run with only its required arguments records these
    defaults, byte for byte, in its config line."""
    if command != "scale":
        args = ["--instance", instance_path, *args]
    header, _ = run_csv(capsys, [command, *args])
    expected = {**_DEFAULT_CONFIG, "command": command, "instance": instance_path,
                **fields}
    config_line = next(line for line in header if line.startswith("# config = "))
    assert json.loads(config_line.removeprefix("# config = ")) == expected
    assert config_line == "# config = " + json.dumps(expected, sort_keys=True)


def test_scale_sizes_above_the_ceiling_are_rejected(capsys):
    assert cli._sizes_arg("1048576") == (1048576,)
    with pytest.raises(argparse.ArgumentTypeError, match="1048577"):
        cli._sizes_arg("4,1048577")
    assert main(["scale", "--family", "two-tier", "--sizes", "4,1048577"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "ceiling 1048576" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_step_counts_above_the_simulator_ceiling_are_rejected(capsys, instance_path,
                                                              command):
    """One step past STEP_CEILING exits 1, naming the ceiling, before any row."""
    argv = [command, "--instance", instance_path, "--n", str(STEP_CEILING + 1)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qbandit: error: step count {STEP_CEILING + 1} is outside "
                            f"the simulator's range 0..{STEP_CEILING}\n")


def test_analytic_tables_above_the_cell_ceiling_are_rejected(monkeypatch, capsys,
                                                           tmp_path):
    """Arm values {1e-100, 0} lift the phase ceiling past 10**49, so --n 2^31
    passes it; the table would hold 5 * (2^31 + 1) cells, over 100 GB, and
    exits 1 at once, naming the cell ceiling, before any row."""
    path = tmp_path / "tiny-p.json"
    write_instance(path, bernoulli_instance([1e-100, 0.0]))
    argv = ["analytic", "--instance", str(path)]
    begin = time.perf_counter()
    assert main([*argv, "--n", str(2**31)]) == 1
    assert time.perf_counter() - begin < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qbandit: error: --n {2**31} makes a table of "
                            f"{5 * (2**31 + 1)} cells, above the ceiling "
                            f"{cli.TABLE_CELL_CEILING} (rows x columns)\n")
    # CI's 200 001-row two-arm table stays inside it
    assert 200_001 * 5 <= cli.TABLE_CELL_CEILING
    # the ceiling counts rows times columns: 10 rows of 5 fill 50 cells exactly
    monkeypatch.setattr(cli, "TABLE_CELL_CEILING", 50)
    _, rows = run_csv(capsys, [*argv, "--n", "9"])
    assert len(rows) == 10
    assert main([*argv, "--n", "10"]) == 1
    assert "makes a table of 55 cells" in capsys.readouterr().err


def test_simulate_tables_above_the_cell_ceiling_are_rejected(monkeypatch, capsys,
                                                           tmp_path):
    """simulate is held to the same cell ceiling, checked before the -o file
    is opened: one-good-arm N=4096 at --n 100000 would stream 100 001 rows of
    4 099 cells for hours."""
    path = tmp_path / "one-good-4096.json"
    write_instance(path, FAMILIES["one-good-arm"](4096))
    out = tmp_path / "table.csv"
    argv = ["simulate", "--instance", str(path), "--n", "100000"]
    begin = time.perf_counter()
    assert main([*argv, "-o", str(out)]) == 1
    assert time.perf_counter() - begin < 5.0
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"qbandit: error: --n 100000 makes a table of "
                            f"{100_001 * 4_099} cells, above the ceiling "
                            f"{cli.TABLE_CELL_CEILING} (rows x columns)\n")
    # as for analytic: 10 rows of 5 fill 50 cells exactly, and 11 are refused
    write_instance(path, bernoulli_instance([0.5, 0.25]))
    monkeypatch.setattr(cli, "TABLE_CELL_CEILING", 50)
    argv = ["simulate", "--instance", str(path)]
    _, rows = run_csv(capsys, [*argv, "--n", "9"])
    assert len(rows) == 10
    for dest in ([], ["-o", str(out)]):
        assert main([*argv, "--n", "10", *dest]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "makes a table of 55 cells" in captured.err
        assert not out.exists()


def test_compare_on_a_tiny_p_instance_returns_without_simulating(capsys, tmp_path):
    """Arm values {1e-100, 0}: p = 5e-101 and n_star is about 1.1e50, far
    above STEP_CEILING, so compare reports the closed form alone, at once,
    although N*M = 4 is under the default --sim-cap."""
    path = tmp_path / "tiny-p.json"
    write_instance(path, bernoulli_instance([1e-100, 0.0]))
    begin = time.perf_counter()
    _, rows = run_csv(capsys, ["compare", "--instance", str(path)])
    assert time.perf_counter() - begin < 1.0
    assert int(rows[0]["n_star"]) > 10**49
    assert not compare(*load_instance(str(path))).simulated


def test_analytic_steps_above_the_phase_ceiling_are_rejected(monkeypatch, capsys,
                                                            instance_path):
    """analytic accepts n up to the largest step count whose phase rounding
    bound (2n+1) theta 2^-52 stays within SIM_AGREE_TOL, and exits 1 above
    it, naming it, before any row; 10**20 used to stream without end."""
    model = success_probability(*load_instance(instance_path))
    top = model.step_ceiling()
    eps = 2.0**-52
    assert (2 * top + 1) * model.theta * eps <= SIM_AGREE_TOL
    assert (2 * top + 3) * model.theta * eps > SIM_AGREE_TOL
    # the README's four-arm --n 300000 and CI's two-arm --n 200000 stay accepted
    assert top >= 300_000
    assert success_probability(bernoulli_instance([0.5, 0.25])).step_ceiling() >= 200_000
    argv = ["analytic", "--instance", instance_path]
    begin = time.perf_counter()
    assert main([*argv, "--n", str(10**20)]) == 1
    assert time.perf_counter() - begin < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"qbandit: error: --n {10**20} is above {top}, ")
    # the same bound, tightened so that the ceiling is a short table
    monkeypatch.setattr(qbai, "SIM_AGREE_TOL", 1e-13)
    top = model.step_ceiling()
    assert 100 < top < 1000
    _, rows = run_csv(capsys, [*argv, "--n", str(top)])
    assert len(rows) == top + 1
    assert main([*argv, "--n", str(top + 1)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"is above {top}, " in captured.err


@pytest.mark.parametrize("value", [5e-324, 1e-200])
def test_gap_whose_hardness_leaves_float64_is_degenerate(capsys, tmp_path, value):
    """A gap this small makes 1 / gap^2 overflow: ucbe exits 2, with no
    RuntimeWarning on the way, as compare does on the same file."""
    path = tmp_path / "tiny-gap.json"
    write_instance(path, bernoulli_instance([value, 0.0]))
    for argv in (["ucbe", "-T", "20", "--trials", "5"], ["compare"]):
        assert main([*argv, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qbandit: degenerate instance: ")
        assert captured.err.count("\n") == 1


def test_simulate_table(capsys, instance_path):
    _, rows = run_csv(capsys, ["simulate", "--instance", instance_path, "--n", "4"])
    assert [row["n"] for row in rows] == ["0", "1", "2", "3", "4"]
    for row in rows:
        probs = [float(row[f"p{x}"]) for x in range(4)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert float(row["good_amp"]) ** 2 + float(row["bad_amp"]) ** 2 == \
            pytest.approx(1.0, abs=1e-10)


def test_analytic_matches_simulate(capsys, instance_path):
    _, sim = run_csv(capsys, ["simulate", "--instance", instance_path, "--n", "6"])
    _, ana = run_csv(capsys, ["analytic", "--instance", instance_path, "--n", "6"])
    for s, a in zip(sim, ana):
        for x in range(4):
            assert float(a[f"p{x}"]) == pytest.approx(float(s[f"p{x}"]), abs=1e-10)


def test_ucbe_printed_bonus_leaves_explore_blank(capsys, instance_path):
    """Under the printed bonus the run ranks by means alone: the explore cell
    is empty, in CSV and JSON, whatever --explore says, and e_hat does not
    move with it.  The per-arm bonus prints the explore it ran with."""
    argv = ["ucbe", "--instance", instance_path, "-T", "120", "--trials", "50"]
    _, (tuned,) = run_csv(capsys, [*argv, "--bonus", "printed"])
    _, (given,) = run_csv(capsys, [*argv, "--bonus", "printed", "--explore", "2.5"])
    assert tuned["explore"] == given["explore"] == ""
    assert tuned["e_hat"] == given["e_hat"]
    assert main([*argv, "--bonus", "printed", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["explore"] is None
    _, (per_arm,) = run_csv(capsys, [*argv, "--explore", "2.5"])
    assert per_arm["explore"] == "2.5"


def test_ucbe_row(capsys, instance_path):
    _, rows = run_csv(capsys, [
        "ucbe", "--instance", instance_path, "-T", "120", "--trials", "50",
        "--delta", "0.5",
    ])
    row = rows[0]
    assert row["T"] == "120"
    assert row["bonus"] == "per-arm"
    assert 0.0 <= float(row["e_hat"]) <= 1.0
    assert int(row["min_rounds"]) > 0
    assert float(row["error_bound"]) > 0.0


def test_scale_has_slope_header(capsys):
    header, rows = run_csv(capsys, ["scale", "--family", "one-good-arm",
                                    "--sizes", "4,8,16"])
    slope_line = next(line for line in header if line.startswith("# slope = "))
    assert float(slope_line.removeprefix("# slope = ")) == pytest.approx(0.5, abs=1e-9)
    assert [row["simulated"] for row in rows] == ["True", "True", "True"]
    assert all(row["error"] == "" for row in rows)


def test_scale_through_one_size_has_no_slope(capsys):
    assert main(["scale", "--family", "one-good-arm", "--sizes", "4,4"]) == 0
    out, err = capsys.readouterr()
    assert "# slope = None" in out.splitlines()
    assert err == ""


def test_json_payload(capsys, instance_path):
    code = main(["compare", "--instance", instance_path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"config", "timestamp", "rows"}
    assert payload["rows"][0]["t_classical"] == 2242
    assert payload["config"]["format"] == "json"


def test_validate_reports_deviations(capsys, instance_path):
    _, rows = run_csv(capsys, ["validate", "--instance", instance_path, "--n", "30"])
    assert float(rows[0]["max_p_deviation"]) <= 1e-10
    assert float(rows[0]["max_amp_deviation"]) <= 1e-10


def test_validate_prints_the_cross_check(capsys, instance_path):
    """validate's row holds exactly the two deviations cross_check returns."""
    _, rows = run_csv(capsys, ["validate", "--instance", instance_path, "--n", "30"])
    inst, alpha = load_instance(instance_path)
    devs = cross_check(success_probability(inst, alpha),
                       sweep(build_operators(inst, alpha), 30))
    assert (float(rows[0]["max_p_deviation"]), float(rows[0]["max_amp_deviation"])) == devs


def test_exit_code_validation_failure(tmp_path, capsys):
    missing = main(["compare", "--instance", str(tmp_path / "absent.json")])
    assert missing == 1
    bad_flag = main(["compare", "--no-such-flag"])
    assert bad_flag == 1
    no_args = main([])
    assert no_args == 1
    capsys.readouterr()


def test_exit_code_degenerate(tmp_path, capsys):
    path = tmp_path / "tied.json"
    write_instance(path, bernoulli_instance([0.4, 0.4]))
    assert main(["ucbe", "--instance", str(path), "-T", "50"]) == 2
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "compare", "simulate", "validate"])
def test_exit_code_no_reachable_reward(tmp_path, capsys, command):
    path = tmp_path / "p0.json"
    write_instance(path, bernoulli_instance([0.0, 0.0]))
    assert main([command, "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qbandit: degenerate instance: no reward mass is reachable: p = 0\n"


def test_exit_code_budget_below_arm_count(instance_path, capsys):
    """Both routes to the budget check, the tuned exploration constant and an
    explicit --explore, exit 2 as the README documents."""
    argv = ["ucbe", "--instance", instance_path, "-T", "2", "--trials", "10"]
    assert main(argv) == 2
    assert main([*argv, "--explore", "1"]) == 2
    assert capsys.readouterr().err.count("budget T=2 below arm count N=4") == 2


@pytest.mark.parametrize("exc, code, prefix", [
    (DegenerateInstance("tied"), 2, "degenerate instance: "),
    (InstanceFormatError("bad field"), 1, "error: "),
    (InvariantViolation("drift"), 3, "internal check failed: "),
    (ValueError("bad shape"), 1, "error: "),
], ids=["degenerate", "format", "invariant", "value-error"])
def test_each_error_type_has_one_exit_code(monkeypatch, capsys, exc, code, prefix):
    """Every package error type maps to one exit code; ValueError shares 1."""
    assert set(QbanditError.__subclasses__()) == {
        DegenerateInstance, InstanceFormatError, InvariantViolation}

    def failing(cfg):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "compare", failing)
    assert main(["compare", "--instance", "unread.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qbandit: {prefix}{exc}\n"


def test_exit_code_invariant_violation(tmp_path, capsys):
    """The tensor-product reflection is a genuinely different operator for
    M > 1, so validating it against the closed form must fail loudly."""
    path = tmp_path / "inst.json"
    write_instance(path, bernoulli_instance([0.5, 0.25]))
    code = main(["validate", "--instance", str(path), "--reflection", "tensor"])
    assert code == 3
    assert "disagree" in capsys.readouterr().err


def test_compare_and_scale_exit_3_when_the_simulator_disagrees(monkeypatch, capsys,
                                                               instance_path):
    """A law 1e-9 off at n_star is an internal failure, not a scale error row."""
    perturb_compare_runs(monkeypatch, "p_rec")
    for argv in (["compare", "--instance", instance_path],
                 ["scale", "--family", "one-good-arm", "--sizes", "4,8"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disagree" in captured.err


@pytest.mark.parametrize("delta", ["1.5", "nan", "-1e-3", "-inf"])
def test_bad_delta_rejected_before_the_monte_carlo(monkeypatch, capsys, instance_path,
                                                   delta):
    def no_monte_carlo(*args, **kwargs):
        pytest.fail("estimate_error ran before --delta was checked")
    monkeypatch.setattr(cli, "estimate_error", no_monte_carlo)
    argv = ["ucbe", "--instance", instance_path, "-T", "120", "--delta", delta]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delta must lie in (0, 1)" in captured.err


def test_delta_whose_bound_leaves_float_range_rejected(monkeypatch, capsys,
                                                        instance_path):
    """2N / 1e-320 overflows, so the minimum rounds are not finite: exit 1,
    naming delta, before the Monte Carlo."""
    def no_monte_carlo(*args, **kwargs):
        pytest.fail("estimate_error ran before --delta was checked")
    monkeypatch.setattr(cli, "estimate_error", no_monte_carlo)
    argv = ["ucbe", "--instance", instance_path, "-T", "120", "--delta", "1e-320"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qbandit: error: delta 1e-320 puts the minimum rounds "
                            "beyond float range\n")


@pytest.mark.parametrize("command, fields, message", [
    ("analytic", {"nu": [[0.50000001, 0.5], [0.25, 0.75]]},
     "rescaled 1 nu row(s) off normalization by up to 1.000e-08"),
    ("compare", {"nu": [[0.5, 0.5], [0.49, 0.51]], "alpha": [0.6, 0.8]},
     "recommendation argmax differs from the best arm "
     "(non-uniform arm amplitudes can reorder the marginal)"),
], ids=["renormalization", "argmax"])
def test_warnings_reach_stderr_as_one_line(capsys, tmp_path, command, fields, message):
    """A warning prints as `qbandit: warning: <message>`, with no source path;
    after the run, the warnings machinery is as it was, so a library call
    warns as usual."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"N": 2, "M": 2, "f": [[1, 0], [1, 0]], **fields}))
    shown = warnings.showwarning
    assert main([command, "--instance", str(path)]) == 0
    assert capsys.readouterr().err == f"qbandit: warning: {message}\n"
    assert warnings.showwarning is shown
    with pytest.warns(UserWarning, match=re.escape(message)):
        if command == "analytic":
            load_instance(str(path))
        else:
            compare(*load_instance(str(path)))


def test_runtime_warning_filter_still_raises_under_main(monkeypatch, capsys):
    """main changes how warnings look, not which ones are errors: the suite's
    error::RuntimeWarning filter still raises inside a run."""
    def warning(cfg):
        warnings.warn("overflow", RuntimeWarning)
    monkeypatch.setitem(cli._COMMANDS, "compare", warning)
    with pytest.raises(RuntimeWarning, match="overflow"):
        main(["compare", "--instance", "unread.json"])
    assert capsys.readouterr().err == ""


def test_help_and_version_exit_clean(capsys):
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    assert main(["compare", "--help"]) == 0
    capsys.readouterr()


def test_unknown_family(capsys):
    assert main(["scale", "--family", "no-such-family"]) == 1
    assert main(["scale", "--sizes", "4,8"]) == 1
    capsys.readouterr()


def test_alpha_in_instance_file_is_used(capsys, tmp_path):
    path = tmp_path / "weighted.json"
    write_instance(path, bernoulli_instance([0.5, 0.25]), alpha=np.sqrt([0.9, 0.1]))
    _, rows = run_csv(capsys, ["analytic", "--instance", str(path), "--n", "0"])
    assert float(rows[0]["p0"]) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "-1"],
        ["analytic", "--n", "-3"],
        ["validate", "--n", "-2"],
        ["compare", "--sim-cap", "-5"],
        ["scale", "--family", "one-good-arm", "--sizes", "4,8", "--sim-cap", "-1"],
        ["ucbe", "-T", "-5"],
        ["analytic", "--seed", "-1"],
        ["simulate", "--seed", "-1"],
        ["scale", "--family", "one-good-arm", "--sizes", "4,8", "--seed", "-1"],
        # argparse alone takes -1e3 for an option string
        ["analytic", "--n", "-1e3"],
    ],
    ids=["simulate", "analytic", "validate", "compare", "scale", "ucbe",
         "seed-analytic", "seed-simulate", "seed-scale", "exponent-analytic"],
)
def test_negative_counts_rejected(capsys, instance_path, argv):
    if argv[0] != "scale":
        argv = [*argv, "--instance", instance_path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-nan", "-inf"])
def test_non_finite_explore_rejected(capsys, instance_path, value):
    argv = ["ucbe", "--instance", instance_path, "-T", "50", "--explore", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "explore must be finite" in captured.err


@pytest.mark.parametrize("value", ["-1", "-1e5"])
def test_negative_explore_rejected(capsys, instance_path, value):
    """argparse alone reads -1 as a value but takes -1e5 for an option
    string; both reach the option's own check."""
    argv = ["ucbe", "--instance", instance_path, "-T", "50", "--explore", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "explore must be finite and non-negative" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ucbe", "-T", "50", "--trials", "20", "--explore", "1.0"],
        ["analytic"],
        ["validate"],
        ["compare"],
        ["simulate"],
    ],
    ids=["ucbe", "analytic", "validate", "compare", "simulate"],
)
def test_non_finite_nu_rejected(capsys, tmp_path, argv):
    path = tmp_path / "nan-nu.json"
    path.write_text('{"N": 2, "M": 2, "nu": [[NaN, 0.5], [0.25, 0.75]], '
                    '"f": [[1, 0], [1, 0]]}\n')
    assert main([*argv, "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "field 'nu': nu must be finite" in captured.err


def test_row_sum_message_prints_a_plain_float(capsys, tmp_path):
    path = tmp_path / "heavy-row.json"
    path.write_text('{"N": 2, "M": 2, "nu": [[0.6, 0.5], [0.25, 0.75]], '
                    '"f": [[1, 0], [1, 0]]}\n')
    assert main(["analytic", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nu row 0 sums to 1.1, off by more than" in captured.err


def test_all_rewarded_rows_above_one(capsys, tmp_path):
    """Rows summing to 1 + 1e-10 pass unrescaled; the law must not fail on them."""
    path = tmp_path / "inst.json"
    nu = np.array([[0.5, 0.5000000001], [0.25, 0.7500000001]])
    write_instance(path, BanditInstance(nu=nu, f=np.ones((2, 2), dtype=int)))
    _, rows = run_csv(capsys, ["analytic", "--instance", str(path), "--n", "3"])
    assert [float(r["amplified"]) for r in rows] == [1.0] * 4
    _, rows = run_csv(capsys, ["validate", "--instance", str(path), "--n", "3"])
    assert float(rows[0]["max_p_deviation"]) <= 1e-10


def test_non_finite_alpha_rejected(capsys, tmp_path):
    """A NaN fails every comparison, so the norm test alone would pass it; the
    file is rejected, with the field named, before any command runs."""
    path = tmp_path / "nan-alpha.json"
    path.write_text('{"N": 2, "M": 2, "nu": [[0.5, 0.5], [0.25, 0.75]], '
                    '"f": [[1, 0], [1, 0]], "alpha": [NaN, 1.0]}\n')
    for argv in (["ucbe", "-T", "20", "--trials", "5"], ["analytic"], ["validate"],
                 ["compare"], ["simulate"]):
        assert main([*argv, "--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "field 'alpha': entries must be finite" in captured.err


def test_alpha_whose_square_overflows_rejected(capsys, tmp_path):
    """1e308 squares to inf: the file is rejected for its norm, with no
    RuntimeWarning on the way (the suite would raise it)."""
    path = tmp_path / "huge-alpha.json"
    path.write_text('{"N": 2, "M": 2, "nu": [[0.5, 0.5], [0.25, 0.75]], '
                    '"f": [[1, 0], [1, 0]], "alpha": [0.7, 1e308]}\n')
    assert main(["analytic", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qbandit: error: field 'alpha': squared norm off by inf, "
                            "more than 1e-06\n")


# an integer literal far beyond float64's largest finite value
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("field, fields", [
    ("nu", f'"nu": [[{_HUGE}, 0], [0.25, 0.75]], "f": [[1, 0], [1, 0]]'),
    ("f", f'"nu": [[0.5, 0.5], [0.25, 0.75]], "f": [[{_HUGE}, 0], [1, 0]]'),
    ("alpha", f'"nu": [[0.5, 0.5], [0.25, 0.75]], "f": [[1, 0], [1, 0]], '
              f'"alpha": [{_HUGE}, 0.8]'),
])
def test_integer_beyond_float64_rejected(capsys, tmp_path, field, fields):
    path = tmp_path / "huge.json"
    path.write_text('{"N": 2, "M": 2, ' + fields + "}\n")
    assert main(["analytic", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qbandit: error: field '{field}': entries must fit in float64\n"


def test_deeply_nested_instance_rejected(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["analytic", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qbandit: error: {path}: nested too deeply\n"


# file entries from the edges of float64 and of the JSON types
_EDGE_VALUES = [0, 1, 0.5, 0.25, -0.0, 5e-324, 1e-310, 1e-200, 1e-100, 1e-17,
                1 - 2**-53, 1e308, 2**70, 10**400, -1, math.nan, math.inf]
# arm values and amplitudes that keep n_star, and so a cross-check, short
_PLAIN_VALUES = [0.0, 0.25, 0.5, 1.0]
_PLAIN_ALPHA = [0.0, 1.0, 0.6, 0.8, 2**-0.5]
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                  st.lists(st.integers(0, 1), max_size=2))
# NaN, infinities, subnormals, signed zeros and negative exponents, in the
# forms float() reads and argparse alone would take for options
_FLOAT_ARGS = ["0", "-0.0", "-1", "1", "0.05", "2", "5e-324", "-5e-324", "1e-310",
               "1e-300", "1e-3", "-1e-3", "-1e5", "1e308", "nan", "-nan", "NaN", "inf",
               "-inf", "-Infinity"]
# 2^31 and 2^63 only where a ceiling stops them before the run
_ANY_COUNTS = st.sampled_from(["0", "1", "2", "5", str(2**31), str(2**63)])
_SIZES = st.sampled_from(["0", "1", str(2**31), str(2**63), "0,2", "1,2,4", "4,8", "-3",
                          "x", "4,2000000"])


@st.composite
def _instance_text(draw, plain: bool) -> str:
    """An instance file's text: Bernoulli arms at edge values, a table of
    edge and junk cells, or text that is no instance at all."""
    n = draw(st.integers(1, 3))
    kind = "bernoulli" if plain else draw(st.sampled_from(["bernoulli", "bernoulli",
                                                            "table", "text"]))
    if kind == "text":
        return draw(st.sampled_from(["", "[]", "{", "null", '"x"', "[[[[1]]]]",
                                     '{"N": 1}', "NaN"]))
    if kind == "bernoulli":
        values = draw(st.lists(st.sampled_from(_PLAIN_VALUES if plain else _EDGE_VALUES),
                               min_size=n, max_size=n))
        m, nu, f = 2, [[v, 1 - v] for v in values], [[1, 0]] * n
    else:
        m = draw(st.integers(1, 3))
        cell = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(0, 1), _JUNK)
        row = st.lists(cell, min_size=m - 1, max_size=m + 1)
        nu = draw(st.lists(row, min_size=n, max_size=n + 1))
        bit = st.one_of(st.sampled_from([0, 1, 1, 2, -0.0, 0.5, True]), _JUNK)
        f = draw(st.lists(st.lists(bit, min_size=m, max_size=m), min_size=n, max_size=n))
    data = {"N": n, "M": m, "nu": nu, "f": f}
    if draw(st.integers(0, 3)) == 3:
        entry = st.sampled_from(_PLAIN_ALPHA if plain else _EDGE_VALUES + _PLAIN_ALPHA)
        data["alpha"] = draw(st.lists(entry, min_size=n, max_size=n if plain else n + 1))
    if not plain and draw(st.integers(0, 5)) == 5:
        del data[draw(st.sampled_from(sorted(data)))]
    return json.dumps(data)


@st.composite
def _run(draw) -> tuple[str | None, list[str]]:
    """An instance text (None for scale) and the argv to run on it."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    # the cross-check runs only on instances whose n_star is a few steps
    check = command in ("compare", "scale") and draw(st.booleans())
    argv = [command, "--seed", draw(_ANY_COUNTS),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    if command in ("simulate", "validate"):
        argv += ["--n", draw(_ANY_COUNTS),
                 "--reflection", draw(st.sampled_from(REFLECTIONS)),
                 "--phases", draw(st.sampled_from(["real", "random"]))]
    elif command == "analytic":
        argv += ["--n", draw(_ANY_COUNTS)]
    elif command == "ucbe":
        argv += ["-T", draw(st.sampled_from(["30", "3", "1", "0"])),
                 "--trials", draw(st.sampled_from(["7", "1", "0", "-1"])),
                 "--bonus", draw(st.sampled_from(["per-arm", "printed"]))]
        for flag in ("--explore", "--delta"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(_FLOAT_ARGS))]
    else:
        argv += ["--sim-cap", "4096" if check else draw(_ANY_COUNTS)]
    if command == "scale":
        argv += ["--family", draw(st.sampled_from(sorted(FAMILIES))),
                 "--sizes", draw(_SIZES)]
        return None, argv
    return draw(_instance_text(plain=check)), argv


_MESSAGE = re.compile(r"qbandit: (error|degenerate instance|internal check failed): ")


@settings(max_examples=100, deadline=None)
@given(run=_run())
def test_every_run_ends_in_a_documented_exit_code(tmp_path_factory, run):
    """main on drawn instance files and argv, in process: the code is 0, 1, 2
    or 3; no traceback; stderr holds `qbandit: warning:` lines and, on a
    failure, one `qbandit:` error line (after argparse's usage, for a bad
    flag), and no value is taken for an option, so every value reaches its
    option's own check.  The suite turns a RuntimeWarning into an error, so
    a numeric warning inside a run fails here too."""
    text, argv = run
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "inst.json"
        path.write_text(text)
        argv = [*argv, "--instance", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, text, code)
    assert "Traceback" not in err.getvalue()
    assert "expected one argument" not in err.getvalue(), (argv, lines)
    rest = [line for line in lines if not line.startswith("qbandit: warning: ")]
    if code == 0:
        assert rest == [] and out.getvalue(), (argv, text, lines)
    elif rest and rest[0].startswith("usage: "):
        assert code == 1 and re.match(r"qbandit( \w+)?: error: ", rest[-1]), (argv, lines)
    else:
        assert len(rest) == 1 and _MESSAGE.match(rest[0]), (argv, text, lines)
    assert no_child_left()


def _failing_sweep(exc: Exception, after: int):
    """A sweep that yields `after` real runs, then raises exc."""
    real_sweep = cli.sweep

    def failing(ops, n_max):
        runs = real_sweep(ops, n_max)
        for _ in range(after):
            yield next(runs)
        raise exc
    return failing


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "exc, code",
    [(ValueError("state norm is not 1"), 1), (InvariantViolation("drift"), 3)],
    ids=["value-error", "invariant"],
)
def test_failure_mid_table_leaves_no_output_file(monkeypatch, capsys, instance_path,
                                                tmp_path, fmt, exc, code):
    monkeypatch.setattr(cli, "sweep", _failing_sweep(exc, after=3))
    out = tmp_path / f"table.{fmt}"
    argv = ["simulate", "--instance", instance_path, "--n", "10", "--format", fmt]
    assert main([*argv, "-o", str(out)]) == code
    assert not out.exists()
    capsys.readouterr()
    # stdout cannot be taken back: the rows written before the failure stay
    assert main(argv) == code
    text = capsys.readouterr().out
    rows_written = text.count('"bad_amp": ') if fmt == "json" else text.count("\r\n") - 1
    assert rows_written == 3


def _forked_blocks(monkeypatch):
    """Two four-arm simulate rows per block, formatted by three processes."""
    monkeypatch.setattr(cli, "BLOCK_CELLS", 14)
    monkeypatch.setattr(workers, "cpus", lambda: 3)


def _untimed(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if "timestamp" not in line)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("after", [2, 5, 8],
                         ids=["after-block-0", "mid-block", "at-a-block-edge"])
def test_forked_table_keeps_the_rows_computed_before_a_failure(
        monkeypatch, capsys, instance_path, tmp_path, fmt, after):
    """A sweep failing after `after` rows: stdout holds exactly those rows, as
    the whole table begins, the -o file is removed and no worker is left."""
    _forked_blocks(monkeypatch)
    argv = ["simulate", "--instance", instance_path, "--n", "10", "--format", fmt]
    assert main(argv) == 0
    whole = _untimed(capsys.readouterr().out)
    monkeypatch.setattr(cli, "sweep", _failing_sweep(ValueError("state norm is not 1"),
                                                     after))
    out = tmp_path / f"table.{fmt}"
    assert main([*argv, "-o", str(out)]) == 1
    assert not out.exists()
    assert no_child_left()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "qbandit: error: state norm is not 1\n" * 2
    part = _untimed(captured.out)
    assert whole.startswith(part)
    rows_written = part.count('"bad_amp": ') if fmt == "json" else part.count("\r\n") - 1
    assert rows_written == after
    assert no_child_left()


@pytest.mark.parametrize("ignored, n", [(False, 300_000), (True, 100_000)],
                         ids=["default", "ignored"])
def test_sigterm_removes_the_output_file(tmp_path, ignored, n):
    """A run ended by SIGTERM, as timeout sends it, removes its -o file,
    prints no traceback, still ends by SIGTERM and leaves no writer behind.
    Where SIGTERM is ignored, the run writes the whole table.  A fresh
    interpreter in its own session, so the signal reaches it alone and its
    process group shows what outlives it."""
    path = tmp_path / "two-arm.json"
    write_instance(path, bernoulli_instance([0.5, 0.25]))
    out = tmp_path / "table.csv"
    code = f"""if True:
        import signal, sys
        from qbandit.cli import main
        if {ignored}:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(main(sys.argv[1:]))
    """
    src = Path(qbandit.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-c", code, "analytic", "--instance", str(path),
                             "--n", str(n), "-o", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not (out.exists() and out.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    if not ignored:
        assert (proc.returncode, stdout, stderr) == (-signal.SIGTERM, b"", b"")
        assert not out.exists()
        return
    assert (proc.returncode, stdout, stderr) == (0, b"", b"")
    # the column names and steps 0..n, after the header
    assert len([line for line in out.read_text().splitlines()
                if not line.startswith("#")]) == n + 2


def test_output_file_runs_leave_sigterm_as_they_found_it(tmp_path, instance_path):
    """An -o run restores SIGTERM's handler, and off the main thread, where
    none can be set, writes its file all the same."""
    out = tmp_path / "table.csv"
    argv = ["analytic", "--instance", instance_path, "--n", "10", "-o", str(out)]
    before = signal.getsignal(signal.SIGTERM)
    assert main(argv) == 0
    assert signal.getsignal(signal.SIGTERM) == before
    whole = _untimed(out.read_text())
    out.unlink()
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(argv)))
    thread.start()
    thread.join()
    assert codes == [0]
    assert _untimed(out.read_text()) == whole


def test_one_block_tables_never_fork(monkeypatch, capsys, instance_path):
    """Workers are counted only once a second block is seen: not for the
    one-row tables, nor for a table of exactly one full block (146 rows of
    seven cells in 1024).  The ucbe table runs one trial, which never counts
    them either."""
    def no_workers():
        pytest.fail("a one-block table asked for workers")
    monkeypatch.setattr(workers, "cpus", no_workers)
    for argv in (["ucbe", "--instance", instance_path, "-T", "40", "--trials", "1"],
                 ["compare", "--instance", instance_path],
                 ["validate", "--instance", instance_path],
                 ["scale", "--family", "two-tier", "--sizes", "4,8"],
                 ["analytic", "--instance", instance_path, "--n", "145"]):
        for fmt in ("csv", "json"):
            assert main([*argv, "--format", fmt]) == 0, argv
    assert capsys.readouterr().out.count('"p3": ') == 146


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n, blocks", [(146, 2), (291, 2), (292, 3)])
def test_a_table_forks_one_writer_per_block_past_the_first(monkeypatch, capsys,
                                                           instance_path, fmt, n, blocks):
    """With 8 CPUs a table of k blocks (146 rows of seven cells in 1024)
    forks k - 1 writers, not 7, and writes the bytes one process writes."""
    argv = ["analytic", "--instance", instance_path, "--n", str(n), "--format", fmt]
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    assert main(argv) == 0
    alone = _untimed(capsys.readouterr().out)
    started = []
    start = cli.Forked.start

    def counted(self, work, *args):
        started.append(work)
        start(self, work, *args)

    monkeypatch.setattr(cli.Forked, "start", counted)
    monkeypatch.setattr(workers, "cpus", lambda: 8)
    assert main(argv) == 0
    assert _untimed(capsys.readouterr().out) == alone
    assert len(started) == blocks - 1
    assert no_child_left()


def _raising(exc: BaseException):
    def share(*args):
        raise exc
        yield
    return share


def _vanishing(*args):
    os._exit(3)
    yield


@pytest.mark.parametrize("share, code, message", [
    (_raising(ValueError("writer fault")), 1, "qbandit: error: writer fault"),
    (_raising(InvariantViolation("drift")), 3, "qbandit: internal check failed: drift"),
    (_vanishing, 1, "qbandit: error: a forked worker ended without a result"),
], ids=["value-error", "invariant", "no-result"])
def test_a_failing_writer_worker_exits_main_with_its_code(monkeypatch, capsys,
                                                          instance_path, share, code,
                                                          message):
    """Block 1 is the first worker's: its failure reaches main after block 0."""
    _forked_blocks(monkeypatch)
    monkeypatch.setattr(cli, "_share", share)
    assert main(["simulate", "--instance", instance_path, "--n", "10"]) == code
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out.count("\r\n") - 1 == 2
    assert no_child_left()


def test_writer_workers_are_killed_when_the_parent_fails(monkeypatch, capsys,
                                                         instance_path):
    """The parent's rows failing stops and reaps the workers at once, rather
    than waiting out their 30 s."""
    _forked_blocks(monkeypatch)
    share = cli._share

    def slow(*args):
        time.sleep(30)
        yield from share(*args)

    monkeypatch.setattr(cli, "_share", slow)
    monkeypatch.setattr(cli, "sweep", _failing_sweep(ValueError("state norm is not 1"),
                                                     after=3))
    begin = time.perf_counter()
    assert main(["simulate", "--instance", instance_path, "--n", "10"]) == 1
    assert time.perf_counter() - begin < 10
    assert capsys.readouterr().out.count("\r\n") - 1 == 3
    assert no_child_left()


def test_forked_table_shows_each_warning_once(instance_path):
    """A warning raised while the rows are walked, after the workers are
    forked, shows once: the workers walk the same rows and ignore it.  A
    fresh interpreter, since a worker's stderr is its own only there."""
    code = """if True:
        import sys, warnings
        from qbandit import cli, workers
        sweep = cli.sweep
        def warning_sweep(ops, n_max):
            for run in sweep(ops, n_max):
                if run.n == 7:
                    warnings.warn("step 7 warns")
                yield run
        cli.sweep, cli.BLOCK_CELLS, workers.cpus = warning_sweep, 14, lambda: 3
        sys.exit(cli.main(sys.argv[1:]))
    """
    src = Path(qbandit.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, "simulate", "--instance",
                           instance_path, "--n", "10"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "qbandit: warning: step 7 warns\n")
    # the column names and steps 0..10
    assert len([line for line in done.stdout.splitlines() if not line.startswith("#")]) == 12


_FINITE = st.one_of(
    st.sampled_from([0, -7, 2**70, 10**400, -0.0, 1e16, 1e-5, 5e-324]),
    st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_ANY_CELL = st.one_of(
    _FINITE,
    st.sampled_from([True, False, math.nan, math.inf, -math.inf, None, np.float64(0.1)]),
    st.text(alphabet=',"\n\r\\ a%θé∑', max_size=6))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_writer_matches_reference_encoders(data):
    """Tables of several 4-cell blocks, formatted by three processes, come out
    as csv.writer and json.dumps write them, whatever each block holds: the
    %r template where every cell is an int or a float (finite, for JSON),
    the reference encoder elsewhere."""
    width = data.draw(st.integers(1, 4))
    cells = data.draw(st.sampled_from([_FINITE, _ANY_CELL]))
    rows = data.draw(st.lists(st.tuples(*[cells] * width), max_size=12))
    # keys sort as strings, and one holds a quote and a % sign
    fieldnames = ["n", "p10", 'a"%', "p2"][:width]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_CELLS", 4)
        patch.setattr(workers, "cpus", lambda: 3)
        buf = io.StringIO()
        cli._write_json(buf, {"n_star": 1}, fieldnames, iter(rows), len(rows))
        payload = {"n_star": 1, "rows": [dict(zip(fieldnames, row)) for row in rows]}
        assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        buf = io.StringIO()
        cli._write_rows(buf.write, iter(rows), len(rows), width, cli._csv_block(width), "")
        ref = io.StringIO()
        csv.writer(ref).writerows(rows)
        assert buf.getvalue() == ref.getvalue()
    assert no_child_left()


@pytest.mark.parametrize("value", [
    0.0, -0.0, 1e-300, 1e300, 0.1, math.nan, math.inf, -math.inf, np.float64(0.1),
    0, -7, 2**70, True, False, None,
    'quote " and backslash \\', "comma, separated", "non-ASCII: θ ∑ é", "",
])
def test_json_value_matches_json_dumps(value):
    buf = io.StringIO()
    cli._write_json(buf, {"n_star": 1}, ["v"], iter([(value,)]), 1)
    payload = {"n_star": 1, "rows": [{"v": value}]}
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [
    [],
    [(0, 0.5, None, 0.25, 0.75, 0.0)],
    [(n, 1.0 / (n + 1), "a\tb", 1e-300, -0.0, n * 1e300) for n in range(3)],
    [(1, np.float64(0.1), 'x",\n      "}θ é', None, True, math.nan)],
], ids=["empty", "one-row", "three-rows", "float64-and-separator-string"])
def test_write_json_matches_json_dumps(rows):
    """Keys sort as strings (p10 before p2); the rest of the payload goes
    before and after the rows by key order."""
    fieldnames = ["n", "amplified", "c_factor", "p2", "p10", "p1"]
    fields = {"config": {"seed": 3, "sizes": [4, 8]}, "n_star": 2,
              "timestamp": "t", "slope": None}
    buf = io.StringIO()
    cli._write_json(buf, fields, fieldnames, iter(rows), len(rows))
    payload = {**fields, "rows": [dict(zip(fieldnames, row)) for row in rows]}
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_write_json_sorts_twelve_arm_columns_as_json_dumps(tmp_path):
    """A simulate table on 12 arms, where p10 and p11 sort between p1 and
    p2, is written as json.dumps(indent=2, sort_keys=True) writes it."""
    path = tmp_path / "twelve.json"
    write_instance(path, bernoulli_instance(np.linspace(0.05, 0.6, 12)))
    cfg = cli.RunConfig(command="simulate", instance=str(path), n=4, format="json")
    fieldnames, rows, count, _ = cli._COMMANDS["simulate"](cfg)
    rows = list(rows)
    assert count == len(rows) == 5
    fields = {"config": {"seed": 0}, "timestamp": "t"}
    buf = io.StringIO()
    cli._write_json(buf, fields, fieldnames, iter(rows), len(rows))
    payload = {**fields, "rows": [dict(zip(fieldnames, row)) for row in rows]}
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    keys = list(json.loads(buf.getvalue())["rows"][0])
    assert keys[3:7] == ["p0", "p1", "p10", "p11"]


def _round_trip_commands(tmp_path, instance_path):
    all_rewarded = tmp_path / "all-rewarded.json"
    write_instance(all_rewarded, BanditInstance(nu=np.array([[0.5, 0.5], [0.25, 0.75]]),
                                                f=np.ones((2, 2), dtype=int)))
    return {
        "simulate": ["simulate", "--instance", instance_path, "--n", "5",
                     "--phases", "random", "--seed", "2"],
        "analytic": ["analytic", "--instance", instance_path, "--n", "7"],
        "analytic-q0": ["analytic", "--instance", str(all_rewarded), "--n", "3"],
        "ucbe": ["ucbe", "--instance", instance_path, "-T", "40", "--trials", "20"],
        "compare": ["compare", "--instance", instance_path],
        "scale-error-row": ["scale", "--family", "two-tier", "--sizes", "0,4,8"],
        "validate": ["validate", "--instance", instance_path, "--n", "5"],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_tables_match_reference_encoders(tmp_path, instance_path, fmt):
    """json.dumps(indent=2, sort_keys=True) and csv.writer re-encode every
    table to the same bytes the streaming writer produced."""
    for name, argv in _round_trip_commands(tmp_path, instance_path).items():
        out = tmp_path / f"{name}.{fmt}"
        assert main([*argv, "--format", fmt, "-o", str(out)]) == 0, name
        text = out.read_bytes().decode()
        if fmt == "json":
            payload = json.loads(text)
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text, name
            assert payload["rows"], name
            continue
        header_end = text.index("\n", text.index("# timestamp = ")) + 1
        body = text[header_end:]
        buf = io.StringIO()
        csv.writer(buf).writerows(csv.reader(io.StringIO(body, newline="")))
        assert buf.getvalue() == body, name
    if fmt == "json":
        q0 = json.loads((tmp_path / "analytic-q0.json").read_text())
        assert {row["c_factor"] for row in q0["rows"]} == {None}
        scale = json.loads((tmp_path / "scale-error-row.json").read_text())
        assert scale["rows"][0]["error"] == "size must be >= 1"


@pytest.mark.parametrize("cells", [4, 12])
def test_analytic_blocks_cover_every_step(monkeypatch, capsys, instance_path, cells):
    """Blocks of 1 and 3 steps on four arms give the one-block table, row for row."""
    argv = ["analytic", "--instance", instance_path, "--n", "10"]
    _, whole = run_csv(capsys, argv)
    monkeypatch.setattr(cli, "BLOCK_CELLS", cells)
    _, blocked = run_csv(capsys, argv)
    assert [row["n"] for row in blocked] == [str(n) for n in range(11)]
    assert blocked == whole


def _traced_peak(argv: list[str], n: int) -> int:
    """Traced peak bytes of main(argv + --n n).

    A warm-up run at --n 1 and a collection first, so that one-time
    allocations (lazy imports, caches) and earlier garbage are not counted.
    """
    assert main([*argv, "--n", "1"]) == 0
    gc.collect()
    tracemalloc.start()
    try:
        assert main([*argv, "--n", str(n)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_analytic_memory_stays_flat_in_n(tmp_path, instance_path):
    """The closed-form table is streamed in blocks, so the traced peak is a
    constant far below the 2.8 MB file; holding the table took about 24 MB."""
    out = tmp_path / "analytic.json"
    peak = _traced_peak(["analytic", "--instance", instance_path,
                         "--format", "json", "-o", str(out)], 12_000)
    assert peak < 500_000
    assert out.stat().st_size > 2_500_000


def test_simulate_memory_stays_flat_in_n(tmp_path):
    """A long sweep holds one state, not a row per step; holding the
    rows took about 3 MB here, nine times the file."""
    path = tmp_path / "two-arm.json"
    write_instance(path, bernoulli_instance([0.5, 0.25]))
    out = tmp_path / "simulate.json"
    peak = _traced_peak(["simulate", "--instance", str(path),
                         "--format", "json", "-o", str(out)], 2_000)
    assert peak < 400_000
    assert out.stat().st_size > 300_000


def test_importing_the_cli_leaves_numpy_random_out():
    """Commands that never draw do not pay for numpy.random: a fresh
    interpreter that imports qbandit.cli has not imported it."""
    src = Path(qbandit.__file__).resolve().parents[1]
    code = "import sys, qbandit.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert (done.stdout, done.stderr) == ("False\n", "")
