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
codes: 0 success, 1 validation or parse failure, 2 degenerate instance or a
budget below the arm count, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bandits import BanditInstance, summarize
from .comparison import SIM_CAP, ComparisonReport, compare, scaling_experiment
from .errors import (
    DegenerateInstance,
    InsufficientBudget,
    InvariantViolation,
    NoGoodStates,
    QbanditError,
)
from .instances import FAMILIES, load_instance
from .qbai import ClosedForm, build_operators, cross_check, success_probability, sweep
from .ucbe import (
    RngStream,
    estimate_error,
    tuned_explore,
    ucbe_error_bound,
    ucbe_min_rounds,
)

# closed-form cells (steps x arms) evaluated per block of an analytic table
_BLOCK_CELLS = 1 << 10


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


def _arm_cols(inst: BanditInstance) -> list[str]:
    return [f"p{x}" for x in range(inst.n_arms)]


def _cmd_simulate(cfg: RunConfig):
    inst, alpha = load_instance(cfg.instance)
    runs = _sweep(cfg, inst, alpha)
    rows = ((run.n, run.good_amp, run.bad_amp, *run.p_rec.tolist()) for run in runs)
    return ["n", "good_amp", "bad_amp", *_arm_cols(inst)], rows, {}


def _analytic_rows(model: ClosedForm, n_max: int, block: int) -> Iterator[tuple]:
    """Rows n = 0..n_max, the closed form evaluated on block step counts at a time."""
    for start in range(0, n_max + 1, block):
        ns = np.arange(start, min(start + block, n_max + 1))
        c_factor = model.c_factor(ns)
        c_factor = [None] * len(ns) if c_factor is None else c_factor.tolist()
        for n, amplified, c, p_rec in zip(ns.tolist(), model.amplified(ns).tolist(),
                                          c_factor, model.p_rec(ns).tolist()):
            yield (n, amplified, c, *p_rec)


def _cmd_analytic(cfg: RunConfig):
    inst, alpha = load_instance(cfg.instance)
    model = success_probability(inst, alpha)
    rows = _analytic_rows(model, cfg.n, max(1, _BLOCK_CELLS // inst.n_arms))
    extra = {"p_success": model.p, "n_star": model.n_star}
    return ["n", "amplified", "c_factor", *_arm_cols(inst)], rows, extra


def _cmd_ucbe(cfg: RunConfig):
    inst, _ = load_instance(cfg.instance)
    summary = summarize(inst)
    explore = cfg.explore
    if explore is None:
        explore = tuned_explore(summary, cfg.rounds)
    # a bad --delta fails here, before the Monte Carlo
    min_rounds = None
    if cfg.delta is not None:
        min_rounds = ucbe_min_rounds(summary, cfg.delta)
    e_hat, ci = estimate_error(
        inst, cfg.rounds, explore, cfg.trials, RngStream(cfg.seed), bonus=cfg.bonus
    )
    bound = None
    if cfg.rounds > inst.n_arms:
        bound = ucbe_error_bound(summary, cfg.rounds)
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
    return list(row), [tuple(row.values())], {}


_COMPARE_COLS = ["N", "M", "p_success", "n_star", "qbai_success", "delta",
                 "t_classical", "ratio"]


def _report_row(report: ComparisonReport) -> tuple:
    delta = report.delta_classical
    if delta is None:
        delta = report.delta_matched
    return (report.n_arms, report.n_env, report.p_success, report.n_star,
            report.qbai_success, delta, report.t_classical, report.ratio)


def _cmd_compare(cfg: RunConfig):
    inst, alpha = load_instance(cfg.instance)
    report = compare(inst, alpha, instance_id=cfg.instance, sim_cap=cfg.sim_cap)
    return _COMPARE_COLS, [_report_row(report)], {}


def _cmd_scale(cfg: RunConfig):
    result = scaling_experiment(FAMILIES[cfg.family], cfg.sizes, sim_cap=cfg.sim_cap)
    blank = (None,) * (len(_COMPARE_COLS) - 1)
    rows = [
        (sr.size, *blank, None, sr.error) if sr.report is None
        else (*_report_row(sr.report), sr.report.simulated, None)
        for sr in result.rows
    ]
    return [*_COMPARE_COLS, "simulated", "error"], rows, {"slope": result.slope}


def _cmd_validate(cfg: RunConfig):
    inst, alpha = load_instance(cfg.instance)
    model = success_probability(inst, alpha)
    max_p_dev, max_amp_dev = cross_check(model, _sweep(cfg, inst, alpha))
    row = {
        "N": inst.n_arms,
        "M": inst.n_env,
        "n_max": cfg.n,
        "p_success": model.p,
        "max_p_deviation": max_p_dev,
        "max_amp_deviation": max_amp_dev,
    }
    return list(row), [tuple(row.values())], {}


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


def _write_json(fh, fields: dict, fieldnames: list[str], rows: Iterable[tuple]) -> None:
    """Write json.dumps({**fields, "rows": rows}, indent=2, sort_keys=True) and a
    newline, one row at a time; each row is a tuple in fieldnames order."""
    frame = json.dumps({**fields, "rows": []}, indent=2, sort_keys=True)
    head, _, tail = frame.partition('"rows": []')
    # a flat row differs from its indent=2 form only in the separators, so
    # these separators let the C encoder write each row's body
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
    fh.write(head + '"rows": [')
    sep = "\n    "
    for row in rows:
        fh.write(sep + "{\n      " + encode(dict(zip(fieldnames, row)))[1:-1] + "\n    }")
        sep = ",\n    "
    # json.dumps writes an empty list as []
    fh.write(("\n  ]" if sep == ",\n    " else "]") + tail + "\n")


def _write_table(fh, cfg: RunConfig, fieldnames: list[str], rows: Iterable[tuple],
                 extra: dict) -> None:
    timestamp = datetime.now(timezone.utc).isoformat()
    config = _recorded_config(cfg)
    if cfg.format == "json":
        _write_json(fh, {"config": config, "timestamp": timestamp, **extra},
                    fieldnames, rows)
        return
    fh.write(f"# qbandit {__version__} {cfg.command}\n")
    fh.write(f"# config = {json.dumps(config, sort_keys=True)}\n")
    for key, value in extra.items():
        fh.write(f"# {key} = {value}\n")
    fh.write(f"# timestamp = {timestamp}\n")
    writer = csv.writer(fh)
    writer.writerow(fieldnames)
    writer.writerows(rows)


def _emit(cfg: RunConfig, fieldnames: list[str], rows: Iterable[tuple], extra: dict) -> None:
    """Write the header, then each row as it arrives, to -o or to stdout.

    A failure after the -o file is opened removes the file, so no truncated
    table is left behind; on stdout the rows already written stay written.
    """
    if not cfg.output:
        _write_table(sys.stdout, cfg, fieldnames, rows, extra)
        return
    # opened outside the try: a file that could not be opened is not ours to remove
    fh = open(cfg.output, "w")
    try:
        with fh:
            _write_table(fh, cfg, fieldnames, rows, extra)
    except BaseException:
        # never unlink a device or a link such as /dev/stdout
        if os.path.isfile(cfg.output) and not os.path.islink(cfg.output):
            os.remove(cfg.output)
        raise


def run_command(cfg: RunConfig) -> int:
    """Execute one configured command, writing its table; returns the exit code."""
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
    p.add_argument("-T", "--rounds", type=_count_arg, required=True,
                   help="rounds per episode")
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
    p.add_argument("--sim-cap", dest="sim_cap", type=_count_arg, default=SIM_CAP,
                   help="largest N*M the cross-checking simulation touches")

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
    except (DegenerateInstance, NoGoodStates, InsufficientBudget) as exc:
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
