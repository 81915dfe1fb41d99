"""Traced pass: each CLI job, then a replay of the public library calls it makes.

Spans (name, kind, start, end, parent) are kept in memory and written out at
the end.  Kinds: "job" is one CLI job and parents everything below it; "cli"
is the real `main` call that writes the job's table; "call" is a replayed
call that the command makes directly; "probe" times a lower layer at the
sizes the job reaches inside a composite call (for example the operator
build inside `compare`), or a single primitive (RNG draws, one StateVector).
A public name that no longer exists is skipped, and the metrics built on it
are reported absent.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import qbandit
from checks import read_output
from qbandit.cli import main

LAYER_CALLS = {
    "instances.load_instance": "load_instance",
    "bandits.summarize": "summarize",
    "hilbert.state_vector": "StateVector",
    "hilbert.marginal_over_y": "marginal_over_y",
    "qbai.build_operators": "build_operators",
    "qbai.grover_step": "grover_step",
    "qbai.analytic_recommendation": "analytic_recommendation",
    "qbai.success_probability": "success_probability",
    "ucbe.rng_draws": "RngStream",
    "ucbe.estimate_error": "estimate_error",
    "ucbe.run_ucbe": "run_ucbe",
    "comparison.compare": "compare",
    "comparison.scaling_experiment": "scaling_experiment",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, kind, start, end, parent]
        self._open: list[int] = []
        self.operator_bytes = 0
        self.ucbe_rounds = 0

    def begin(self, name: str, kind: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, kind, perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._open.pop()

    def call(self, layer: str, *args, kind: str = "call", **kwargs):
        fn = getattr(qbandit, LAYER_CALLS[layer])
        index = self.begin(layer, kind)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        out: dict[str, float] = {}
        for name, _, start, end, parent in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - (end - start)
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, kind, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "kind": kind, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def _nbytes(obj, seen: set) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if not is_dataclass(obj) or id(obj) in seen:
        return 0
    seen.add(id(obj))
    return sum(_nbytes(getattr(obj, f.name), seen) for f in fields(obj))


def _build(t: Tracer, inst, alpha, kind: str):
    ops = t.call("qbai.build_operators", inst, alpha, kind=kind)
    t.operator_bytes = max(t.operator_bytes, _nbytes(ops, set()))
    return ops


def _steps(t, inst, alpha, n_max, kind, each=None):
    ops = _build(t, inst, alpha, kind)
    state = ops.psi0_state
    for n in range(n_max + 1):
        if n > 0:
            state = t.call("qbai.grover_step", ops, state, kind=kind)
        if each is not None:
            each(n, state)
        t.call("hilbert.marginal_over_y", state, kind=kind)


def _compare_probes(t: Tracer, inst, alpha, sim_cap: int) -> None:
    """The lower-layer calls compare() makes, timed one by one."""
    if inst.n_arms == 1:
        return
    t.call("bandits.summarize", inst, kind="probe")
    params = t.call("qbai.success_probability", inst, alpha, kind="probe")
    t.call("qbai.analytic_recommendation", inst, alpha, params.n_star, kind="probe")
    if inst.n_arms * inst.n_env <= sim_cap:
        _steps(t, inst, alpha, params.n_star, "probe")


def _replay(t: Tracer, argv: list[str], out: Path) -> None:
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    config, _, rows = read_output(out)
    if command == "scale":
        family = qbandit.FAMILIES[opts["--family"]]
        sizes = [int(s) for s in opts["--sizes"].split(",")]
        t.call("comparison.scaling_experiment", family, sizes, sim_cap=config["sim_cap"])
        for size in sizes:
            _compare_probes(t, family(size), None, config["sim_cap"])
        return
    inst, alpha = t.call("instances.load_instance", opts["--instance"])
    if command == "ucbe":
        rounds, trials, seed = int(opts["-T"]), int(opts["--trials"]), int(opts["--seed"])
        explore = float(rows[0]["explore"])
        t.call("bandits.summarize", inst)
        t.call("ucbe.estimate_error", inst, rounds, explore, trials,
               qbandit.RngStream(seed))
        t.ucbe_rounds += rounds
        index = t.begin("ucbe.rng_draws", "probe")
        for i in range(trials):
            qbandit.RngStream(seed, i).generator().random(rounds)
        t.end(index)
        t.call("ucbe.run_ucbe", inst, rounds, explore, qbandit.RngStream(seed),
               kind="probe")
    elif command == "compare":
        t.call("comparison.compare", inst, alpha, instance_id=opts["--instance"],
               sim_cap=config["sim_cap"])
        _compare_probes(t, inst, alpha, config["sim_cap"])
    elif command == "analytic":
        t.call("qbai.success_probability", inst, alpha)
        for n in range(int(opts["--n"]) + 1):
            t.call("qbai.analytic_recommendation", inst, alpha, n)
            t.call("qbai.success_probability", inst, alpha, kind="probe")
    elif command in ("simulate", "validate"):
        def each(n, state):
            if command == "validate":
                t.call("qbai.analytic_recommendation", inst, alpha, n)
            t.call("hilbert.state_vector", state.dims, state.amps, kind="probe")

        if command == "validate":
            t.call("qbai.success_probability", inst, alpha)
        _steps(t, inst, alpha, int(opts["--n"]), "call", each)


def traced_pass(plan: dict, outdir: Path) -> tuple[Tracer, list[int], list[Path]]:
    """Run every job once under spans; returns the tracer, exit codes, outputs."""
    t = Tracer()
    codes, outs = [], []
    for job in plan["jobs"]:
        out = outdir / job["out"]
        job_span = t.begin(job["name"], "job")
        index = t.begin("cli.main", "cli")
        codes.append(main([*job["argv"], "-o", str(out)]))
        t.end(index)
        if codes[-1] == 0:
            try:
                _replay(t, job["argv"], out)
            except AttributeError as exc:
                print(f"trace: replay of {job['name']} stopped: {exc}", file=sys.stderr)
                while t._open[-1] != job_span:
                    t.end(t._open[-1])
        t.end(job_span)
        outs.append(out)
    return t, codes, outs


def layer_metrics(t: Tracer, outs: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; absent where the name is gone."""
    selft = t.self_times()
    present = {layer for layer, name in LAYER_CALLS.items() if hasattr(qbandit, name)}
    m: dict[str, float] = {f"{layer}_s": selft.get(layer, 0.0) for layer in present}
    if "qbai.build_operators" in present:
        m["qbai.operator_bytes"] = float(t.operator_bytes)
    if "qbai.grover_step" in present:
        m["qbai.steps"] = float(sum(s[0] == "qbai.grover_step" for s in t.spans))
    if {"ucbe.estimate_error", "ucbe.rng_draws"} <= present:
        m["ucbe.rounds"] = float(t.ucbe_rounds)
        busy = selft.get("ucbe.estimate_error", 0.0) - selft.get("ucbe.rng_draws", 0.0)
        m["ucbe.round_us"] = 1e6 * busy / t.ucbe_rounds if t.ucbe_rounds else 0.0
    main_s = sum(e - b for _, kind, b, e, _ in t.spans if kind == "cli")
    direct = sum(e - b for _, kind, b, e, parent in t.spans
                 if kind == "call" and t.spans[parent][1] == "job")
    m["cli.main_s"] = main_s
    m["cli.self_s"] = main_s - direct
    m["cli.output_bytes"] = float(sum(p.stat().st_size for p in outs if p.exists()))
    return m
