"""The benchmark's own checks: each accepts today's output and rejects a
corrupted one.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from checks import Checker
from qbandit.cli import main
from workloads import WORKLOADS, build

ROOT = Path(__file__).resolve().parent.parent


def _instance(path: Path, nu, f) -> str:
    path.write_text(json.dumps({"N": len(nu), "M": len(nu[0]), "nu": nu, "f": f}))
    return str(path)


def _random_instance(path: Path, n: int, m: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    nu = rng.dirichlet(np.ones(m), size=n)
    f = (rng.random((n, m)) < 0.4).astype(int)
    f[0, 0] = 1
    return _instance(path, nu.tolist(), f.tolist())


def _run(tmp_path: Path, name: str, argv: list[str], out: str, **check):
    job = {"name": name, "argv": argv, "out": out, "check": check}
    path = tmp_path / out
    assert main([*argv, "-o", str(path)]) == 0
    return job, path


def _errors(job, path) -> list[str]:
    return Checker().check(job, path)[1]


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Rewrite one cell of data row `row` in a CSV output."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    cells = lines[head + 1 + row].split(",")
    cells[col] = edit(cells[col])
    lines[head + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_csv_row(path: Path, row: int) -> None:
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    del lines[head + 1 + row]
    path.write_text("\n".join(lines) + "\n")


def _nudge(cell: str) -> str:
    return repr(float(cell) + 1e-9)


def test_ucbe_count_matches_replay_and_off_by_one_is_caught(tmp_path):
    inst = _instance(tmp_path / "i.json", [[0.5, 0.5]] + [[0.4, 0.6]] * 15,
                     [[1, 0]] * 16)
    job, out = _run(tmp_path, "ucbe", ["ucbe", "--instance", inst, "-T", "300",
                                       "--trials", "60", "--delta", "0.05",
                                       "--seed", "7"],
                    "u.csv", kind="ucbe", replay=True)
    assert _errors(job, out) == []
    _edit_csv(out, 0, "e_hat", lambda c: repr(float(c) + 1 / 60))
    assert any("replay gives" in e for e in _errors(job, out))


def test_ucbe_min_rounds_off_by_two_is_caught(tmp_path):
    inst = _instance(tmp_path / "i.json", [[0.5, 0.5], [0.25, 0.75]], [[1, 0]] * 2)
    job, out = _run(tmp_path, "ucbe", ["ucbe", "--instance", inst, "-T", "400",
                                       "--trials", "50", "--delta", "0.05",
                                       "--seed", "3"],
                    "u.csv", kind="ucbe", replay=False)
    assert _errors(job, out) == []
    _edit_csv(out, 0, "min_rounds", lambda c: str(int(c) + 2))
    assert any("min_rounds" in e for e in _errors(job, out))


@pytest.mark.parametrize("corrupt, message", [
    (lambda p: _edit_csv(p, 37, "p2", _nudge), "off the oracle"),
    (lambda p: _edit_csv(p, 5, "amplified", _nudge), "amplified"),
    (lambda p: _drop_csv_row(p, 100), "expected steps"),
    (lambda p: p.write_text(p.read_text().replace(
        "# n_star = ", "# n_star = 1")), "n_star"),
])
def test_analytic_csv(tmp_path, corrupt, message):
    inst = _random_instance(tmp_path / "i.json", 4, 3, seed=5)
    job, out = _run(tmp_path, "analytic", ["analytic", "--instance", inst,
                                           "--n", "300"],
                    "a.csv", kind="analytic")
    assert _errors(job, out) == []
    corrupt(out)
    assert any(message in e for e in _errors(job, out))


def test_analytic_header_n_star_off_by_one(tmp_path):
    inst = _random_instance(tmp_path / "i.json", 8, 2, seed=9)
    job, out = _run(tmp_path, "analytic", ["analytic", "--instance", inst,
                                           "--n", "20", "--format", "json"],
                    "a.json", kind="analytic")
    assert _errors(job, out) == []
    payload = json.loads(out.read_text())
    payload["n_star"] += 1
    out.write_text(json.dumps(payload))
    assert any("n_star" in e for e in _errors(job, out))


@pytest.mark.parametrize("field", ["p3", "good_amp", "bad_amp", "drop"])
def test_simulate_json(tmp_path, field):
    inst = _random_instance(tmp_path / "i.json", 6, 4, seed=11)
    job, out = _run(tmp_path, "simulate", ["simulate", "--instance", inst,
                                           "--n", "40", "--format", "json"],
                    "s.json", kind="simulate")
    assert _errors(job, out) == []
    payload = json.loads(out.read_text())
    if field == "drop":
        del payload["rows"][17]
    else:
        payload["rows"][17][field] += 1e-9
    out.write_text(json.dumps(payload))
    assert _errors(job, out) != []


def test_validate_deviation_over_tolerance_is_caught(tmp_path):
    inst = _random_instance(tmp_path / "i.json", 5, 3, seed=2)
    job, out = _run(tmp_path, "validate", ["validate", "--instance", inst,
                                           "--n", "30"],
                    "v.csv", kind="validate")
    assert _errors(job, out) == []
    _edit_csv(out, 0, "max_p_deviation", lambda c: "2e-10")
    assert any("max_p_deviation" in e for e in _errors(job, out))


@pytest.mark.parametrize("column, edit", [
    ("n_star", lambda c: str(int(c) + 1)),
    ("qbai_success", _nudge),
    ("t_classical", lambda c: str(int(c) + 2)),
])
def test_compare(tmp_path, column, edit):
    values = [0.0] * 64
    values[17] = 0.5
    inst = _instance(tmp_path / "i.json", [[v, 1.0 - v] for v in values],
                     [[1, 0]] * 64)
    job, out = _run(tmp_path, "compare", ["compare", "--instance", inst],
                    "c.csv", kind="compare")
    assert _errors(job, out) == []
    _edit_csv(out, 0, column, edit)
    assert any(column in e for e in _errors(job, out))


@pytest.mark.parametrize("family", ["one-good-arm", "two-tier"])
def test_scale(tmp_path, family):
    argv = ["scale", "--family", family, "--sizes", "4,8,16,32,64,128",
            "--sim-cap", "100"]
    job, out = _run(tmp_path, "scale", argv, "s.csv", kind="scale", family=family)
    assert _errors(job, out) == []
    text = out.read_text()
    _edit_csv(out, 2, "n_star", lambda c: str(int(c) + 1))
    assert any("n_star" in e for e in _errors(job, out))
    out.write_text(text)
    _edit_csv(out, 4, "simulated", lambda c: "True")
    assert any("simulated" in e for e in _errors(job, out))
    out.write_text(text)
    _drop_csv_row(out, 3)
    assert any("sizes" in e for e in _errors(job, out))


def test_replay_matches_lockstep_estimate():
    from qbandit import RngStream, bernoulli_instance, estimate_error, tuned_explore
    from qbandit import summarize

    values = [0.3, 0.5, 0.45, 0.2]
    inst = bernoulli_instance(values)
    explore = tuned_explore(summarize(inst), 200)
    e_hat, _ = estimate_error(inst, 200, explore, 80, RngStream(4))
    ref = oracle.Instance(nu=[[v, 1.0 - v] for v in values], f=[[1, 0]] * 4)
    assert oracle.ucbe_misidentified(ref, 200, explore, 80, 4) == round(e_hat * 80)


def test_oracle_law_sums_to_one_and_peaks_at_n_star():
    law = oracle.Law(oracle.Instance(nu=[[1.0]] * 4, f=[[1], [0], [0], [0]]))
    assert law.n_star == 1
    assert abs(float(law.p_rec(1)[0]) - 1.0) < 1e-30
    assert abs(float(sum(law.p_rec(7))) - 1.0) < 1e-30


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_are_seeded(tmp_path, workload):
    a = build(workload, 3, tmp_path / "a")
    b = build(workload, 3, tmp_path / "b")
    c = build(workload, 4, tmp_path / "c")
    files = lambda d: [p.read_bytes() for p in sorted(d.glob("*.json"))]
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert len(a["jobs"]) == len(b["jobs"]) == len(c["jobs"])
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-ucbe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_repeat_output_is_accepted_only_when_identical(tmp_path):
    inst = _random_instance(tmp_path / "i.json", 4, 3, seed=5)
    job, out = _run(tmp_path, "analytic", ["analytic", "--instance", inst,
                                           "--n", "50", "--format", "json"],
                    "a.json", kind="analytic")
    checker = Checker()
    assert checker.check(job, out) == (51, [])
    assert main([*job["argv"], "-o", str(out)]) == 0
    assert checker.check(job, out) == (51, [])
    payload = json.loads(out.read_text())
    payload["rows"][3]["p1"] += 1e-9
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert checker.check(job, out)[1] != []
