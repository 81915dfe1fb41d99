"""Command-line front end.

Subcommands:
  simulate   per-step recommendation tables from the state-vector loop
  analytic   the same tables from the closed form, no simulation
  ucbe       Monte Carlo misidentification rate of the classical baseline
  compare    one-instance quantum-vs-classical report
  scale      family sweep with the n_star growth-rate fit
  validate   closed-form vs simulator sweep; nonzero exit on disagreement

Every output starts with a header block carrying the full run configuration
(seed and variant flags included), so a file can be reproduced exactly from
its own header; only the timestamp line varies between identical runs.  Exit
codes: 0 success, 1 validation or parse failure, 2 degenerate instance,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from . import __version__
from .bandits import BanditInstance, summarize
from .comparison import SIM_CAP, ComparisonReport, compare, scaling_experiment
from .errors import (
    DegenerateInstance,
    InvariantViolation,
    NoGoodStates,
    QbanditError,
)
from .instances import FAMILIES, load_instance
from .qbai import build_operators, success_probability, sweep
from .ucbe import (
    RngStream,
    estimate_error,
    tuned_explore,
    ucbe_error_bound,
    ucbe_min_rounds,
)

VALIDATE_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; the header block records it verbatim."""

    command: str
    instance: str | None = None
    family: str | None = None
    sizes: tuple[int, ...] | None = None
    n: int = 10
    rounds: int = 100
    trials: int = 1000
    explore: float | None = None
    delta: float | None = None
    seed: int = 0
    format: str = "csv"
    reflection: str = "composite"
    bonus: str = "per-arm"
    phases: str = "real"
    sim_cap: int = SIM_CAP
    output: str | None = None


def _load(cfg: RunConfig) -> tuple[BanditInstance, np.ndarray | None]:
    if cfg.instance is None:
        raise ValueError(f"command '{cfg.command}' requires --instance")
    return load_instance(cfg.instance)


def _phase_rng(cfg: RunConfig) -> np.random.Generator | None:
    if cfg.phases == "random":
        return RngStream(cfg.seed, 0).generator()
    return None


def _sweep(cfg: RunConfig, inst: BanditInstance, alpha):
    """The simulated run after each of n = 0..cfg.n steps."""
    ops = build_operators(
        inst, alpha, reflection=cfg.reflection, phase_rng=_phase_rng(cfg)
    )
    return sweep(ops, cfg.n)


def _cmd_simulate(cfg: RunConfig):
    inst, alpha = _load(cfg)
    arm_cols = [f"p{x}" for x in range(inst.n_arms)]
    rows = []
    for run in _sweep(cfg, inst, alpha):
        row = {"n": run.n, "good_amp": run.good_amp, "bad_amp": run.bad_amp}
        row.update({col: float(v) for col, v in zip(arm_cols, run.p_rec)})
        rows.append(row)
    return ["n", "good_amp", "bad_amp", *arm_cols], rows, {}


def _cmd_analytic(cfg: RunConfig):
    inst, alpha = _load(cfg)
    model = success_probability(inst, alpha)
    arm_cols = [f"p{x}" for x in range(inst.n_arms)]
    ns = np.arange(cfg.n + 1)
    c_factor = model.c_factor(ns)
    c_factor = [None] * len(ns) if c_factor is None else c_factor.tolist()
    rows = []
    for n, amplified, c, p_rec in zip(ns.tolist(), model.amplified(ns).tolist(),
                                      c_factor, model.p_rec(ns).tolist()):
        row = {"n": n, "amplified": amplified, "c_factor": c}
        row.update(zip(arm_cols, p_rec))
        rows.append(row)
    extra = {"p_success": model.p, "n_star": model.n_star}
    return ["n", "amplified", "c_factor", *arm_cols], rows, extra


def _cmd_ucbe(cfg: RunConfig):
    inst, _ = _load(cfg)
    summary = summarize(inst)
    explore = cfg.explore
    if explore is None:
        explore = tuned_explore(summary, cfg.rounds)
    e_hat, ci = estimate_error(
        inst, cfg.rounds, explore, cfg.trials, RngStream(cfg.seed), bonus=cfg.bonus
    )
    bound = None
    if cfg.rounds > inst.n_arms:
        bound = ucbe_error_bound(summary, cfg.rounds)
    min_rounds = None
    if cfg.delta is not None:
        min_rounds = ucbe_min_rounds(summary, cfg.delta)
    row = {
        "N": inst.n_arms,
        "M": inst.n_env,
        "T": cfg.rounds,
        "explore": float(explore),
        "bonus": cfg.bonus,
        "trials": cfg.trials,
        "e_hat": e_hat,
        "ci_halfwidth": ci,
        "error_bound": bound,
        "min_rounds": min_rounds,
    }
    return list(row), [row], {}


_COMPARE_COLS = ["N", "M", "p_success", "n_star", "qbai_success", "delta",
                 "t_classical", "ratio"]


def _report_row(report: ComparisonReport) -> dict:
    delta = report.delta_classical
    if delta is None:
        delta = report.delta_matched
    return {
        "N": report.n_arms,
        "M": report.n_env,
        "p_success": report.p_success,
        "n_star": report.n_star,
        "qbai_success": report.qbai_success,
        "delta": delta,
        "t_classical": report.t_classical,
        "ratio": report.ratio,
    }


def _cmd_compare(cfg: RunConfig):
    inst, alpha = _load(cfg)
    report = compare(inst, alpha, instance_id=cfg.instance or "", sim_cap=cfg.sim_cap)
    return _COMPARE_COLS, [_report_row(report)], {}


def _cmd_scale(cfg: RunConfig):
    if cfg.family is None:
        raise ValueError("command 'scale' requires --family")
    if cfg.family not in FAMILIES:
        raise ValueError(
            f"unknown family {cfg.family!r}; available: {sorted(FAMILIES)}"
        )
    sizes = cfg.sizes or ()
    if not sizes:
        raise ValueError("command 'scale' requires --sizes")
    result = scaling_experiment(FAMILIES[cfg.family], sizes, sim_cap=cfg.sim_cap)
    rows = []
    for sr in result.rows:
        if sr.report is None:
            row = dict.fromkeys(_COMPARE_COLS)
            row.update({"N": sr.size, "simulated": None, "error": sr.error})
        else:
            row = _report_row(sr.report)
            row.update({"simulated": sr.report.simulated, "error": None})
        rows.append(row)
    return [*_COMPARE_COLS, "simulated", "error"], rows, {"slope": result.slope}


def _cmd_validate(cfg: RunConfig):
    inst, alpha = _load(cfg)
    model = success_probability(inst, alpha)
    max_p_dev = 0.0
    max_amp_dev = 0.0
    for run in _sweep(cfg, inst, alpha):
        max_p_dev = max(max_p_dev, float(np.abs(run.p_rec - model.p_rec(run.n)).max()))
        max_amp_dev = max(max_amp_dev,
                          abs(run.good_amp - math.sqrt(model.amplified(run.n))))
    row = {
        "N": inst.n_arms,
        "M": inst.n_env,
        "n_max": cfg.n,
        "p_success": model.p,
        "max_p_deviation": max_p_dev,
        "max_amp_deviation": max_amp_dev,
    }
    if max_p_dev > VALIDATE_TOL or max_amp_dev > VALIDATE_TOL:
        raise InvariantViolation(
            f"closed form and simulator disagree: max recommendation deviation "
            f"{max_p_dev:.3e}, max amplitude deviation {max_amp_dev:.3e} "
            f"(tolerance {VALIDATE_TOL})"
        )
    return list(row), [row], {}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "ucbe": _cmd_ucbe,
    "compare": _cmd_compare,
    "scale": _cmd_scale,
    "validate": _cmd_validate,
}


def _recorded_config(cfg: RunConfig) -> dict:
    # the output path is where the run landed, not part of what it computed
    record = asdict(cfg)
    record.pop("output")
    return record


def _emit(cfg: RunConfig, fieldnames: list[str], rows: list[dict], extra: dict) -> None:
    timestamp = datetime.now(timezone.utc).isoformat()
    config = _recorded_config(cfg)
    if cfg.format == "json":
        payload = {"config": config, "timestamp": timestamp, **extra, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# qbandit {__version__} {cfg.command}\n")
        buf.write(f"# config = {json.dumps(config, sort_keys=True)}\n")
        for key, value in extra.items():
            buf.write(f"# {key} = {value}\n")
        buf.write(f"# timestamp = {timestamp}\n")
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        text = buf.getvalue()
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_command(cfg: RunConfig) -> int:
    """Execute one configured command, writing its table; returns the exit code."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    fieldnames, rows, extra = _COMMANDS[cfg.command](cfg)
    _emit(cfg, fieldnames, rows, extra)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 means "degenerate instance" here
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("sizes list is empty")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbandit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qbandit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, instance: bool = True) -> None:
        if instance:
            p.add_argument("--instance", required=True, help="instance file (JSON)")
        p.add_argument("-o", "--output", default=None,
                       help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0,
                       help="base seed for every random stream in the run")

    p = sub.add_parser("simulate", help="state-vector recommendation tables")
    common(p)
    p.add_argument("--n", type=_count_arg, default=10, help="largest step count in the sweep")
    p.add_argument("--reflection", choices=("composite", "tensor"), default="composite")
    p.add_argument("--phases", choices=("real", "random"), default="real")

    p = sub.add_parser("analytic", help="closed-form recommendation tables")
    common(p)
    p.add_argument("--n", type=_count_arg, default=10, help="largest step count in the sweep")

    p = sub.add_parser("ucbe", help="Monte Carlo error of the classical baseline")
    common(p)
    p.add_argument("-T", "--rounds", type=int, required=True, help="rounds per episode")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--explore", type=float, default=None,
                   help="exploration strength (default: tuned from the instance)")
    p.add_argument("--bonus", choices=("per-arm", "printed"), default="per-arm")
    p.add_argument("--delta", type=float, default=None,
                   help="also report the bound-implied minimum rounds at this confidence gap")

    p = sub.add_parser("compare", help="quantum vs classical on one instance")
    common(p)
    p.add_argument("--sim-cap", dest="sim_cap", type=_count_arg, default=SIM_CAP,
                   help="largest N*M the cross-checking simulation touches")

    p = sub.add_parser("scale", help="family sweep with n_star growth fit")
    common(p, instance=False)
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--sizes", type=_sizes_arg,
                   default=(4, 8, 16, 32, 64, 128, 256, 512, 1024),
                   help="comma-separated arm counts")
    p.add_argument("--sim-cap", dest="sim_cap", type=_count_arg, default=SIM_CAP)

    p = sub.add_parser("validate", help="closed form vs simulator; exit 3 on mismatch")
    common(p)
    p.add_argument("--n", type=_count_arg, default=50, help="largest step count in the sweep")
    p.add_argument("--reflection", choices=("composite", "tensor"), default="composite")
    p.add_argument("--phases", choices=("real", "random"), default="real")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {
        key: value
        for key, value in vars(args).items()
        if key in RunConfig.__dataclass_fields__ and value is not None
    }
    return RunConfig(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _config_from_args(args)
    try:
        return run_command(cfg)
    except (DegenerateInstance, NoGoodStates) as exc:
        print(f"qbandit: degenerate instance: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"qbandit: internal check failed: {exc}", file=sys.stderr)
        return 3
    except (QbanditError, ValueError, OSError) as exc:
        print(f"qbandit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
