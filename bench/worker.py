"""One fresh interpreter: set up, then run passes of a workload's CLI jobs.

    python3 bench/worker.py PLAN {setup,passes,trace}

Set-up imports qbandit.cli and reads every instance file with load_instance,
then prints "ready".  `setup` stops there.  `passes` runs whole passes over
the job list, in sequence in this one process, until the plan's seconds are
spent and at least the plan's minimum number of passes has run; after each
pass it prints "pass" and waits for a line on stdin.  `trace` runs one pass
without spans and one traced pass.  The last stdout line is
a JSON record; tables go to files under the plan's work directory.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _run_pass(jobs: list[dict], outdir: Path) -> tuple[float, list[int]]:
    outdir.mkdir(parents=True, exist_ok=True)
    argvs = [[*job["argv"], "-o", str(outdir / job["out"])] for job in jobs]
    codes = []
    start = perf_counter()
    for argv in argvs:
        codes.append(main(argv))
    return perf_counter() - start, codes


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes
    import glob
    import os

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    plan_path, mode = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text())

    import qbandit.cli
    from qbandit import load_instance

    main = qbandit.cli.main

    for path in plan["instances"]:
        load_instance(path)
    print("ready", flush=True)
    if mode == "setup":
        raise SystemExit(0)

    work = Path(plan["workdir"])
    record: dict = {"walls": [], "codes": []}
    if mode == "passes":
        while (sum(record["walls"]) < plan["seconds"]
               or len(record["walls"]) < plan["min_passes"]):
            wall, codes = _run_pass(plan["jobs"], work / f"pass{len(record['walls'])}")
            record["walls"].append(wall)
            record["codes"].append(codes)
            # the parent may time a fresh set-up before the next pass
            print("pass", flush=True)
            sys.stdin.readline()
    else:
        wall, codes = _run_pass(plan["jobs"], work / "pass0")
        record["walls"].append(wall)
        record["codes"].append(codes)
        import tracing

        outdir = work / "pass1"
        outdir.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        tracer, codes, outs = tracing.traced_pass(plan, outdir)
        traced = perf_counter() - start
        record["codes"].append(codes)
        record["layers"] = tracing.layer_metrics(tracer, outs)
        record["layers"]["trace.overhead_s"] = traced - wall
        tracer.write(Path(plan["trace_file"]))
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["qbandit"] = qbandit.cli.__file__
    record["blas_threads"] = _blas_threads()
    print(json.dumps(record))
