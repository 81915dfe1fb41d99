"""Command-line surface: schemas, headers, and exit codes."""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import perturb_compare_runs
from qbandit import cli
from qbandit.bandits import BanditInstance
from qbandit.cli import main
from qbandit.errors import InvariantViolation
from qbandit.instances import bernoulli_instance, load_instance, save_instance
from qbandit.qbai import build_operators, cross_check, success_probability, sweep


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(bernoulli_instance([0.5, 0.25, 0.25, 0.25]), path)
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
    save_instance(bernoulli_instance([1.0, 0.0, 0.0, 0.0]), path)
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
    save_instance(bernoulli_instance([0.4, 0.4]), path)
    assert main(["ucbe", "--instance", str(path), "-T", "50"]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_exit_code_budget_below_arm_count(instance_path, capsys):
    """Both routes to the budget check, the tuned exploration constant and an
    explicit --explore, exit 2 as the README documents."""
    argv = ["ucbe", "--instance", instance_path, "-T", "2", "--trials", "10"]
    assert main(argv) == 2
    assert main([*argv, "--explore", "1"]) == 2
    assert capsys.readouterr().err.count("budget T=2 below arm count N=4") == 2


def test_exit_code_invariant_violation(tmp_path, capsys):
    """The tensor-product reflection is a genuinely different operator for
    M > 1, so validating it against the closed form must fail loudly."""
    path = tmp_path / "inst.json"
    save_instance(bernoulli_instance([0.5, 0.25]), path)
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


@pytest.mark.parametrize("delta", ["1.5", "nan"])
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
    save_instance(
        bernoulli_instance([0.5, 0.25]),
        path,
        alpha=np.sqrt([0.9, 0.1]),
    )
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
    ],
    ids=["simulate", "analytic", "validate", "compare", "scale", "ucbe"],
)
def test_negative_counts_rejected(capsys, instance_path, argv):
    if argv[0] != "scale":
        argv = [*argv, "--instance", instance_path]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_explore_rejected(capsys, instance_path, value):
    argv = ["ucbe", "--instance", instance_path, "-T", "50", "--explore", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "explore must be finite" in captured.err


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
    save_instance(BanditInstance(nu=nu, f=np.ones((2, 2), dtype=int)), path)
    _, rows = run_csv(capsys, ["analytic", "--instance", str(path), "--n", "3"])
    assert [float(r["amplified"]) for r in rows] == [1.0] * 4
    _, rows = run_csv(capsys, ["validate", "--instance", str(path), "--n", "3"])
    assert float(rows[0]["max_p_deviation"]) <= 1e-10


def test_non_finite_alpha_rejected(capsys, tmp_path):
    path = tmp_path / "nan-alpha.json"
    path.write_text('{"N": 2, "M": 2, "nu": [[0.5, 0.5], [0.25, 0.75]], '
                    '"f": [[1, 0], [1, 0]], "alpha": [NaN, 1.0]}\n')
    for command in ("compare", "analytic"):
        assert main([command, "--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha must be finite" in captured.err


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


@pytest.mark.parametrize("value", [
    0.0, -0.0, 1e-300, 1e300, 0.1, math.nan, math.inf, -math.inf, np.float64(0.1),
    0, -7, 2**70, True, False, None,
    'quote " and backslash \\', "comma, separated", "non-ASCII: θ ∑ é", "",
])
def test_json_value_matches_json_dumps(value):
    buf = io.StringIO()
    cli._write_json(buf, {"n_star": 1}, ["v"], iter([(value,)]))
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
    cli._write_json(buf, fields, fieldnames, iter(rows))
    payload = {**fields, "rows": [dict(zip(fieldnames, row)) for row in rows]}
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _round_trip_commands(tmp_path, instance_path):
    all_rewarded = tmp_path / "all-rewarded.json"
    save_instance(BanditInstance(nu=np.array([[0.5, 0.5], [0.25, 0.75]]),
                                 f=np.ones((2, 2), dtype=int)), all_rewarded)
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
    monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
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
    save_instance(bernoulli_instance([0.5, 0.25]), path)
    out = tmp_path / "simulate.json"
    peak = _traced_peak(["simulate", "--instance", str(path),
                         "--format", "json", "-o", str(out)], 2_000)
    assert peak < 400_000
    assert out.stat().st_size > 300_000
