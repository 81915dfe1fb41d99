"""qbandit benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The workload's instance files are
generated from the seed under bench/out/, the package is imported from
./src, and every job runs through qbandit.cli.main in a worker process.
Every table a job writes is checked against bench/oracle.py.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
listed in BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Checker
from workloads import WORKLOADS, build

SETUPS = 9           # fresh interpreters per run, spread over it; setup_s is their median
MIN_PASSES = 3       # wall_s is the median over at least this many passes
WORKER_TIMEOUT = 170


class _Worker:
    """A worker process that is killed if it outlives WORKER_TIMEOUT and is
    always waited for."""

    def __init__(self, plan_path: Path, mode: str, env: dict):
        worker = Path(__file__).with_name("worker.py")
        self.proc = subprocess.Popen(
            [sys.executable, str(worker), str(plan_path), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self._watchdog = threading.Timer(WORKER_TIMEOUT, self.proc.kill)
        self._watchdog.start()

    def __enter__(self) -> subprocess.Popen:
        return self.proc

    def __exit__(self, *exc) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        if exc[0] is None and self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")


def _setup_seconds(plan_path: Path, env: dict) -> float:
    """Fresh interpreter until qbandit.cli is imported and the instances read."""
    start = perf_counter()
    with _Worker(plan_path, "setup", env) as proc:
        ready = proc.stdout.readline().strip()
        elapsed = perf_counter() - start
        proc.wait()
    if ready != "ready":
        raise RuntimeError(f"set-up worker printed {ready!r}")
    return elapsed


def _measure(plan_path: Path, mode: str, env: dict, seconds: float,
             setups: list[float]) -> dict:
    """Run the measuring worker; between its passes, while it waits, time
    further set-ups so that they sample the whole run, not just its start."""
    lines = []
    last = perf_counter()
    with _Worker(plan_path, mode, env) as proc:
        for line in proc.stdout:
            if line.strip() != "pass":
                lines.append(line)
                continue
            if len(setups) < SETUPS and perf_counter() - last >= seconds / SETUPS:
                setups.append(_setup_seconds(plan_path, env))
                last = perf_counter()
            proc.stdin.write("\n")
            proc.stdin.flush()
        proc.wait()
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "qbandit" / "__init__.py").is_file():
        print("bench: run from the root of a qbandit checkout (no src/qbandit here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bench = Path(__file__).resolve().parent.relative_to(root)
    tag = f"{args.workload}-{args.seed}"
    workdir = bench / "out" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    plan = build(args.workload, args.seed, workdir)
    plan.update(seconds=args.seconds, min_passes=MIN_PASSES,
                trace_file=str(bench / "out" / f"trace-{tag}.jsonl"))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    setups: list[float] = []
    if args.trace:
        record = _measure(plan_path, "trace", env, args.seconds, setups)
    else:
        setups.append(_setup_seconds(plan_path, env))
        record = _measure(plan_path, "passes", env, args.seconds, setups)
        while len(setups) < SETUPS:
            setups.append(_setup_seconds(plan_path, env))
    if not record["qbandit"].startswith(str(root / "src")):
        raise RuntimeError(f"worker imported qbandit from {record['qbandit']}")

    checker = Checker()
    attempted = failed = rows = 0
    wrong: list[str] = []
    for k, codes in enumerate(record["codes"]):
        rows = 0
        for job, code in zip(plan["jobs"], codes):
            attempted += 1
            if code != 0:
                failed += 1
                print(f"bench: pass {k}: {job['name']} exited {code}", file=sys.stderr)
                continue
            n, errs = checker.check(job, workdir / f"pass{k}" / job["out"])
            rows += n
            wrong.extend(f"pass {k}: {e}" for e in errs)
    for line in wrong[:20]:
        print(f"bench: {line}", file=sys.stderr)

    if args.trace:
        values = dict(record["layers"], **{"cli.rows": float(rows)})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(record["walls"]),
                  "peak_rss_mb": record["maxrss_kb"] / 1024}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(f"# {args.workload} seed={args.seed} passes={len(record['walls'])} "
          f"walls={[round(w, 4) for w in record['walls']]} "
          f"setups={[round(s, 4) for s in setups]} python={platform.python_version()} "
          f"numpy={np.__version__} nproc={os.cpu_count()} "
          f"blas_threads={record['blas_threads']}")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not wrong,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
