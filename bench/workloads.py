"""Workload definitions: seeded instance files and the CLI jobs run on them.

Every instance is written as a plain JSON file in the documented instance
format; the program under test sees nothing but these files and the job
arguments.  The same seed always gives byte-identical files and jobs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("mc-ucbe", "sim-sweep", "scale-compare", "closed-form")

# the scale command's default sizes, pinned here so the workload cannot drift
SCALE_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)
UCBE_DELTA = 0.05
SIM_STEPS = 400
CF_SMALL_STEPS = 10_000
CF_WIDE_STEPS = 1_500


def _write(path: Path, nu, f) -> str:
    data = {
        "N": len(nu),
        "M": len(nu[0]),
        "nu": [[float(v) for v in row] for row in nu],
        "f": [[int(v) for v in row] for row in f],
    }
    path.write_text(json.dumps(data) + "\n")
    return path.name


def _bernoulli(values) -> tuple[list, list]:
    return [[float(v), 1.0 - float(v)] for v in values], [[1, 0] for _ in values]


def _permuted(rng: np.random.Generator, values: list) -> list:
    return [values[i] for i in rng.permutation(len(values))]


def _random_instance(rng, n: int, m: int, density: float, p_range) -> tuple:
    """Dirichlet outcome rows and Bernoulli(density) rewards, resampled until
    the uniform success mass lies in p_range and the best arm is unique."""
    while True:
        nu = rng.dirichlet(np.ones(m), size=n)
        f = (rng.random((n, m)) < density).astype(int)
        a = (nu * f).sum(axis=1)
        top = np.sort(a)[-2:]
        if p_range[0] <= a.mean() <= p_range[1] and top[1] - top[0] > 1e-3:
            return nu.tolist(), f.tolist()


def _job(name: str, argv: list[str], out: str, **check) -> dict:
    return {"name": name, "argv": argv, "out": out, "check": check}


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's instance files into workdir; return its plan.

    The plan lists the instance files (read at set-up) and the jobs of one
    pass; each job's argv is complete except for the `-o` output path.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    d = str(workdir)
    cli_seed = str(int(rng.integers(0, 2**31)))
    jobs: list[dict] = []
    files: list[str] = []

    if workload == "mc-ucbe":
        configs = [
            # the two criterion-5 instances at their larger budgets
            ("two-arm", _bernoulli(_permuted(rng, [0.5, 0.25])), 4500, 2000),
            ("four-arm", ([[1.0]] * 4, [[v] for v in _permuted(rng, [1, 0, 0, 0])]),
             900, 2500),
            # about 12% of episodes misidentify; every one is replayed
            ("sixteen-arm", _bernoulli(_permuted(rng, [0.5] + [0.4] * 15)), 2000, 200),
        ]
        for name, (nu, f), rounds, trials in configs:
            files.append(_write(workdir / f"{name}.json", nu, f))
            jobs.append(_job(
                f"ucbe-{name}",
                ["ucbe", "--instance", f"{d}/{name}.json", "-T", str(rounds),
                 "--trials", str(trials), "--delta", str(UCBE_DELTA),
                 "--seed", cli_seed],
                f"{name}.csv", kind="ucbe", replay=name == "sixteen-arm",
            ))
    elif workload == "sim-sweep":
        nu, f = _random_instance(rng, 256, 16, 0.1, (0.05, 0.2))
        files.append(_write(workdir / "sparse.json", nu, f))
        inst = f"{d}/sparse.json"
        jobs.append(_job("validate", ["validate", "--instance", inst,
                                      "--n", str(SIM_STEPS), "--seed", cli_seed],
                         "validate.csv", kind="validate"))
        jobs.append(_job("simulate", ["simulate", "--instance", inst,
                                      "--n", str(SIM_STEPS), "--format", "json",
                                      "--seed", cli_seed],
                         "simulate.json", kind="simulate"))
    elif workload == "scale-compare":
        sizes = ",".join(str(s) for s in SCALE_SIZES)
        for family in ("one-good-arm", "two-tier"):
            jobs.append(_job(f"scale-{family}",
                             ["scale", "--family", family, "--sizes", sizes],
                             f"scale-{family}.csv", kind="scale", family=family))
        values = [0.0] * 2048
        values[int(rng.integers(0, 2048))] = 0.5
        nu, f = _bernoulli(values)
        files.append(_write(workdir / "one-good-2048.json", nu, f))
        jobs.append(_job("compare", ["compare", "--instance",
                                     f"{d}/one-good-2048.json"],
                         "compare.csv", kind="compare"))
    else:
        for name, n, m, steps, fmt in (("four-arm", 4, 3, CF_SMALL_STEPS, "csv"),
                                       ("wide", 64, 4, CF_WIDE_STEPS, "json")):
            nu, f = _random_instance(rng, n, m, 0.4, (0.05, 0.6))
            files.append(_write(workdir / f"{name}.json", nu, f))
            jobs.append(_job(f"analytic-{name}",
                             ["analytic", "--instance", f"{d}/{name}.json",
                              "--n", str(steps), "--format", fmt],
                             f"analytic-{name}.{fmt}", kind="analytic"))
    return {"workload": workload, "seed": seed, "workdir": d,
            "instances": [f"{d}/{name}" for name in files], "jobs": jobs}
