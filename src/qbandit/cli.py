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
budget below the arm count, 3 internal invariant violation.  A warning
raised during a run goes to stderr as one line, `qbandit: warning: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import threading
import warnings
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bandits import BanditInstance, summarize
from .comparison import SIM_CAP, ComparisonReport, compare, scaling_experiment
from .errors import DegenerateInstance, InvariantViolation, QbanditError
from .instances import FAMILIES, load_instance
from .qbai import (REFLECTIONS, SIM_AGREE_TOL, ClosedForm, build_operators, cross_check,
                   success_probability, sweep)
from .ucbe import (
    BONUS_VARIANTS,
    RngStream,
    estimate_error,
    tuned_explore,
    ucbe_error_bound,
    ucbe_min_rounds,
)
from .workers import Forked, processes


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs; the header block records it verbatim.

    The field defaults are the CLI's defaults: the parser leaves an unset
    option out of its namespace, and sets only validate's n and scale's sizes.
    """

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


def _sweep(cfg: RunConfig, inst: BanditInstance, alpha):
    """The simulated run after each of n = 0..cfg.n steps."""
    phase_rng = RngStream(cfg.seed, 0).generator() if cfg.phases == "random" else None
    ops = build_operators(inst, alpha, reflection=cfg.reflection, phase_rng=phase_rng)
    return sweep(ops, cfg.n)


def _arm_cols(inst: BanditInstance) -> list[str]:
    return [f"p{x}" for x in range(inst.n_arms)]


def _cmd_simulate(cfg: RunConfig):
    inst, alpha = load_instance(cfg.instance)
    # p = 0 leaves nothing to amplify: exit 2, as analytic and validate do
    success_probability(inst, alpha)
    runs = _sweep(cfg, inst, alpha)
    rows = ((run.n, run.good_amp, run.bad_amp, *run.p_rec.tolist()) for run in runs)
    return ["n", "good_amp", "bad_amp", *_arm_cols(inst)], rows, cfg.n + 1, {}


# cells per block: analytic evaluates the closed form on this many cells
# (step counts x arms) at a time, and each table is formatted in blocks of
# this many cells.  Each cell leaves as a Python float, several times its
# numpy size, so the block stays small and a streamed table's memory stays flat.
BLOCK_CELLS = 1 << 10


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
    if cfg.n > (ceiling := model.step_ceiling()):
        raise ValueError(f"--n {cfg.n} is above {ceiling}, the largest step count whose "
                         f"phase (2n+1) theta float64 rounds within {SIM_AGREE_TOL}")
    rows = _analytic_rows(model, cfg.n, max(1, BLOCK_CELLS // inst.n_arms))
    extra = {"p_success": model.p, "n_star": model.n_star}
    return ["n", "amplified", "c_factor", *_arm_cols(inst)], rows, cfg.n + 1, extra


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
        # the printed bonus ranks by means alone, so no explore entered the run
        "explore": float(explore) if cfg.bonus == "per-arm" else None,
        "bonus": cfg.bonus,
        "trials": cfg.trials,
        "e_hat": e_hat,
        "ci_halfwidth": ci,
        "error_bound": bound,
        "min_rounds": min_rounds,
    }
    return list(row), [tuple(row.values())], 1, {}


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
    return _COMPARE_COLS, [_report_row(report)], 1, {}


def _cmd_scale(cfg: RunConfig):
    result = scaling_experiment(FAMILIES[cfg.family], cfg.sizes, sim_cap=cfg.sim_cap)
    blank = (None,) * (len(_COMPARE_COLS) - 1)
    rows = [
        (sr.size, *blank, None, sr.error) if sr.report is None
        else (*_report_row(sr.report), sr.report.simulated, None)
        for sr in result.rows
    ]
    return [*_COMPARE_COLS, "simulated", "error"], rows, len(rows), {"slope": result.slope}


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
    return list(row), [tuple(row.values())], 1, {}


# each command returns (fieldnames, rows, row count, extra header fields)
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


# exact types a block may hold to go through one %r template; csv and json
# write a subclass such as bool or np.float64 in their own way
_NUMBERS = {int, float}


def _csv_block(width: int) -> Callable[[list[tuple]], str]:
    """A block formatter writing what csv.writer writes for the block's rows."""
    template = ",".join(["%r"] * width) + "\r\n"

    def fmt(block: list[tuple]) -> str:
        cells = tuple(chain.from_iterable(block))
        if set(map(type, cells)) <= _NUMBERS:
            return template * len(block) % cells
        buf = io.StringIO()
        csv.writer(buf).writerows(block)
        return buf.getvalue()

    return fmt


def _json_block(fieldnames: list[str]) -> Callable[[list[tuple]], str]:
    """A block formatter writing each row as json.dumps(indent=2,
    sort_keys=True) writes it inside the rows list, after a newline and an
    indent, rows joined by commas."""
    order = sorted(range(len(fieldnames)), key=fieldnames.__getitem__)
    keys = [fieldnames[i] for i in order]
    template = "\n    {\n      " + ",\n      ".join(
        json.dumps(key).replace("%", "%%") + ": %r" for key in keys) + "\n    }"
    # a flat row differs from its indent=2 form only in the separators, so
    # these separators let the C encoder write each row's body
    encode = json.JSONEncoder(separators=(",\n      ", ": ")).encode

    def fmt(block: list[tuple]) -> str:
        cells = tuple([row[i] for row in block for i in order])
        # json writes NaN and Infinity where repr writes nan and inf
        if set(map(type, cells)) <= _NUMBERS and all(
                map(math.isfinite, filter(float.__instancecheck__, cells))):
            return ",".join([template] * len(block)) % cells
        dicts = (dict(zip(keys, [row[i] for i in order])) for row in block)
        return ",".join("\n    {\n      " + encode(d)[1:-1] + "\n    }" for d in dicts)

    return fmt


def _share(rows: Iterator[tuple], size: int, blocks: int, first: int, procs: int,
           fmt: Callable[[list[tuple]], str]) -> Iterator[str]:
    """A writer's part of _write_rows: walking the rows from row 0, the text
    of block first and of every procs-th block after it."""
    # the parent walks the same rows and shows each warning once
    warnings.simplefilter("ignore")
    for b in range(first, blocks, procs):
        skip = (procs - 1 if b > first else first) * size
        yield fmt(list(islice(rows, skip, skip + size)))


def _write_rows(write: Callable[[str], object], rows: Iterable[tuple], count: int,
                width: int, fmt: Callable[[list[tuple]], str], sep: str) -> None:
    """Write the count rows block by block, each as fmt(block), in order, with
    sep between blocks.

    A block holds BLOCK_CELLS cells, or one row if a row is wider.  A table
    of k blocks is formatted by min(k, P) processes, P the CPU count, all
    forked before the first row is read: each walks rows, process b mod P
    formats block b, and this process writes every block in order, reading
    the others' text from their pipes.  A one-block table never counts the
    CPUs.  If rows raises, the rows read since the last block written are
    written, and the exception goes on.
    """
    size = max(1, BLOCK_CELLS // width)
    blocks = -(-count // size)
    procs = processes(blocks)
    rows = iter(rows)
    block = []
    with Forked() as forked:
        try:
            for w in range(1, procs):
                forked.start(_share, rows, size, blocks, w, procs, fmt)
            for b in range(blocks):
                block.extend(islice(rows, size))
                done, block = block, []
                text = fmt(done) if b % procs == 0 else forked.receive(b % procs - 1)
                write(sep + text if b else text)
        except BaseException:
            if block:
                write((sep if b else "") + fmt(block))
            raise


def _write_json(fh, fields: dict, fieldnames: list[str], rows: Iterable[tuple],
                count: int) -> None:
    """Write json.dumps({**fields, "rows": rows}, indent=2, sort_keys=True) and a
    newline, block by block; each of the count rows is a tuple in fieldnames
    order."""
    frame = json.dumps({**fields, "rows": []}, indent=2, sort_keys=True)
    head, _, tail = frame.partition('"rows": []')
    fh.write(head + '"rows": [')
    _write_rows(fh.write, rows, count, len(fieldnames), _json_block(fieldnames), ",")
    # json.dumps writes an empty list as []
    fh.write(("\n  ]" if count else "]") + tail + "\n")


def _write_table(fh, cfg: RunConfig, fieldnames: list[str], rows: Iterable[tuple],
                 count: int, extra: dict) -> None:
    timestamp = datetime.now(timezone.utc).isoformat()
    config = _recorded_config(cfg)
    if cfg.format == "json":
        _write_json(fh, {"config": config, "timestamp": timestamp, **extra},
                    fieldnames, rows, count)
        return
    fh.write(f"# qbandit {__version__} {cfg.command}\n")
    fh.write(f"# config = {json.dumps(config, sort_keys=True)}\n")
    for key, value in extra.items():
        fh.write(f"# {key} = {value}\n")
    fh.write(f"# timestamp = {timestamp}\n")
    csv.writer(fh).writerow(fieldnames)
    _write_rows(fh.write, rows, count, len(fieldnames), _csv_block(len(fieldnames)), "")


class _Terminated(BaseException):
    """SIGTERM, raised where it arrives while an -o file is open."""


def _terminate(signum, frame):
    raise _Terminated


def _emit(cfg: RunConfig, fieldnames: list[str], rows: Iterable[tuple], count: int,
          extra: dict) -> None:
    """Write the header, then the count rows block by block as they arrive,
    to -o or to stdout.

    A table above TABLE_CELL_CEILING is refused before anything is written
    or opened.  A table of more than one block is formatted by one process
    per CPU, each walking the same rows and holding one block at a time
    (_write_rows).  A failure after the -o file is opened removes the file,
    so no truncated table is left behind; so does SIGTERM, which then ends
    the process as it would have.  stdout keeps every row computed before a
    failure.
    """
    if (cells := count * len(fieldnames)) > TABLE_CELL_CEILING:
        # only the --n commands make tables that large
        raise ValueError(f"--n {cfg.n} makes a table of {cells} cells, above the "
                         f"ceiling {TABLE_CELL_CEILING} (rows x columns)")
    if not cfg.output:
        _write_table(sys.stdout, cfg, fieldnames, rows, count, extra)
        return
    # opened outside the try: a file that could not be opened is not ours to remove
    fh = open(cfg.output, "w")
    import signal
    # SIGTERM's default action would leave the file half written, so here it
    # unwinds instead.  A SIGTERM the caller ignores or handles is left to it,
    # as is a run off the main thread, where no handler can be set.
    trap = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    if trap:
        signal.signal(signal.SIGTERM, _terminate)
    try:
        with fh:
            _write_table(fh, cfg, fieldnames, rows, count, extra)
    except BaseException as exc:
        # never unlink a device or a link such as /dev/stdout
        if os.path.isfile(cfg.output) and not os.path.islink(cfg.output):
            os.remove(cfg.output)
        if isinstance(exc, _Terminated):
            # with the default action back, the signal ends the process
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if trap:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _Parser(argparse.ArgumentParser):
    # an option left unset stays out of the namespace, so RunConfig's
    # field default applies
    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    # argparse reads only -N and -N.N as negative numbers; any other token
    # float() parses (-1e5, -inf, -nan) is also a value, for the option's
    # own check to accept or reject
    def _parse_optional(self, arg_string: str):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None

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


# largest arm count scale accepts; a run's memory grows with N
SIZE_CEILING = 1 << 20
# largest table any command writes, in cells (rows x columns); only
# simulate's and analytic's --n reach it.  A table streams at about 1-1.8 s
# per million cells on a 2-vCPU VM and takes 10-17 bytes a cell in CSV,
# 28-35 in JSON, so one at the ceiling runs for 35-60 s and writes
# 0.35-1.2 GB.  It bounds the table, not the work behind each row:
# STEP_CEILING bounds a simulate sweep's.
TABLE_CELL_CEILING = 1 << 25


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("sizes list is empty")
    if max(sizes) > SIZE_CEILING:
        raise argparse.ArgumentTypeError(
            f"size {max(sizes)} is above the ceiling {SIZE_CEILING}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbandit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qbandit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, instance: bool = True) -> None:
        if instance:
            p.add_argument("--instance", required=True, help="instance file (JSON)")
        p.add_argument("-o", "--output", help="output path (stdout when omitted)")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=_count_arg,
                       help="base seed for every random stream in the run")

    def steps(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=_count_arg, help="largest step count in the sweep")

    def variants(p: argparse.ArgumentParser) -> None:
        p.add_argument("--reflection", choices=REFLECTIONS)
        p.add_argument("--phases", choices=("real", "random"))

    def sim_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sim-cap", dest="sim_cap", type=_count_arg,
                       help="largest N*M the cross-checking simulation touches")

    p = sub.add_parser("simulate", help="state-vector recommendation tables")
    common(p)
    steps(p)
    variants(p)

    p = sub.add_parser("analytic", help="closed-form recommendation tables")
    common(p)
    steps(p)

    p = sub.add_parser("ucbe", help="Monte Carlo error of the classical baseline")
    common(p)
    p.add_argument("-T", "--rounds", type=_count_arg, required=True,
                   help="rounds per episode")
    p.add_argument("--trials", type=int)
    p.add_argument("--explore", type=float,
                   help="exploration strength (default: tuned from the instance)")
    p.add_argument("--bonus", choices=BONUS_VARIANTS)
    p.add_argument("--delta", type=float,
                   help="also report the bound-implied minimum rounds at this confidence gap")

    p = sub.add_parser("compare", help="quantum vs classical on one instance")
    common(p)
    sim_cap(p)

    p = sub.add_parser("scale", help="family sweep with n_star growth fit")
    common(p, instance=False)
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--sizes", type=_sizes_arg,
                   default=(4, 8, 16, 32, 64, 128, 256, 512, 1024),
                   help="comma-separated arm counts")
    sim_cap(p)

    p = sub.add_parser("validate", help="closed form vs simulator; exit 3 on mismatch")
    common(p)
    steps(p)
    p.set_defaults(n=50)
    variants(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig(**vars(args))
    # the warning filters stay as they are; only the display changes, and
    # leaving the block restores it
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"qbandit: warning: {message}", file=sys.stderr)
        try:
            _emit(cfg, *_COMMANDS[cfg.command](cfg))
        except DegenerateInstance as exc:
            print(f"qbandit: degenerate instance: {exc}", file=sys.stderr)
            return 2
        except InvariantViolation as exc:
            print(f"qbandit: internal check failed: {exc}", file=sys.stderr)
            return 3
        except (QbanditError, ValueError, OSError) as exc:
            print(f"qbandit: error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
