"""Output checks: every CLI table against the independent oracle.

A check never compares against a stored copy of an earlier output.  It
compares against `oracle` (mpmath closed form, plain-Python UCB-E replay) or
against a property the method must have (normalization, the error bound, the
fitted growth rate).  Each check returns the number of data rows it read and
a list of failures; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import UCBE_DELTA

AGREE_TOL = 1e-10     # agreement with the high-precision law
NORM_TOL = 1e-12      # normalization of every recommendation row


def read_output(path: str | Path) -> tuple[dict, dict, list[dict]]:
    """(config, extra header values, rows) of a CSV or JSON output file.

    CSV cells come back as strings (a blank cell as ""); JSON keeps its types.
    """
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        payload = json.loads(text)
        config = payload.pop("config")
        rows = payload.pop("rows")
        payload.pop("timestamp", None)
        return config, payload, rows
    lines = text.splitlines()
    config: dict = {}
    extra: dict = {}
    body = 0
    while body < len(lines) and lines[body].startswith("#"):
        key, sep, value = lines[body][2:].partition(" = ")
        if key == "config":
            config = json.loads(value)
        elif sep and key != "timestamp":
            extra[key] = value
        body += 1
    reader = csv.reader(lines[body:])
    header = next(reader, [])
    rows = [dict(zip(header, cells)) for cells in reader]
    return config, extra, rows


def _num(value) -> float:
    return float("nan") if value is None or value == "" else float(value)


def _column(rows: list[dict], *names: str) -> np.ndarray:
    """The named columns as a float array; a blank cell is an error."""
    return np.array([[row[name] for name in names] for row in rows],
                    dtype=float).reshape(len(rows), len(names))


def _law_rows(rows, law: oracle.Law, n_max: int, errors: list[str]) -> np.ndarray:
    """Steps 0..n_max present in order, every row normalized and on the law."""
    steps = _column(rows, "n")[:, 0]
    if not np.array_equal(steps, np.arange(n_max + 1)):
        errors.append(f"expected steps 0..{n_max}, got {len(steps)} rows")
        return np.empty(0)
    probs = _column(rows, *(f"p{x}" for x in range(law.n_arms)))
    sums = np.array([math.fsum(r) for r in probs.tolist()])
    worst = float(np.abs(sums - 1.0).max())
    if not worst <= NORM_TOL:
        errors.append(f"a row sums to 1 only within {worst:.3e}")
    amp, want = law.table(n_max)
    dev = float(np.abs(probs - want).max())
    if not dev <= AGREE_TOL:
        errors.append(f"recommendation law off the oracle by {dev:.3e}")
    return amp


def _arg(job: dict, flag: str) -> str:
    return job["argv"][job["argv"].index(flag) + 1]


def _close(errors, what, got, want, tol) -> None:
    if got in (None, "") or not abs(float(got) - float(want)) <= tol:
        errors.append(f"{what} = {got}, oracle {float(want)!r}")


def _body(text: str) -> str:
    """The output without its timestamp line, which is all that may vary
    between runs of the same configuration."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith(("# timestamp = ", '  "timestamp": ')))


class Checker:
    """Checks the outputs of one workload's jobs.

    An output identical, timestamp aside, to one this checker has already
    verified against the oracle is accepted without parsing it again.
    """

    def __init__(self):
        self._laws: dict = {}
        self._replays: dict = {}
        self._verified: dict[str, tuple[str, int]] = {}

    def law(self, key, make) -> oracle.Law:
        if key not in self._laws:
            self._laws[key] = oracle.Law(make())
        return self._laws[key]

    def _file_law(self, job: dict) -> oracle.Law:
        path = _arg(job, "--instance")
        return self.law(path, lambda: oracle.Instance.load(path))

    def check(self, job: dict, out: str | Path) -> tuple[int, list[str]]:
        errors: list[str] = []
        rows: list = []
        try:
            text = Path(out).read_text()
            known = self._verified.get(job["name"])
            if known is not None and known[0] == _body(text):
                return known[1], []
            config, extra, rows = read_output(out)
            getattr(self, "_" + job["check"]["kind"])(job, config, extra, rows, errors)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if not errors:
            self._verified[job["name"]] = (_body(text), len(rows))
        return len(rows), [f"{job['name']}: {e}" for e in errors]

    def _ucbe(self, job, config, extra, rows, errors) -> None:
        law = self._file_law(job)
        (row,) = rows
        rounds, trials = int(_arg(job, "-T")), int(_arg(job, "--trials"))
        explore = _num(row["explore"])
        _close(errors, "explore", explore, oracle.tuned_explore(law, rounds),
               1e-12 * explore)
        e_hat = _num(row["e_hat"])
        wrong = round(e_hat * trials)
        if not abs(e_hat * trials - wrong) <= 1e-6:
            errors.append(f"e_hat = {e_hat} is not a count over {trials} trials")
        _close(errors, "ci_halfwidth", row["ci_halfwidth"],
               1.96 * math.sqrt(e_hat * (1 - e_hat) / trials), 1e-12)
        bound = row["error_bound"]
        if bound not in (None, "") and _num(bound) < 1 and \
                not e_hat <= _num(bound) + _num(row["ci_halfwidth"]):
            errors.append(f"e_hat = {e_hat} exceeds the bound {bound} + ci")
        _close(errors, "min_rounds", row["min_rounds"], law.min_rounds(UCBE_DELTA), 1)
        if job["check"]["replay"]:
            key = (job["name"], explore)
            if key not in self._replays:
                self._replays[key] = oracle.ucbe_misidentified(
                    oracle.Instance.load(_arg(job, "--instance")), rounds,
                    explore, trials, int(_arg(job, "--seed")))
            if wrong != self._replays[key]:
                errors.append(f"{wrong} misidentified, replay gives "
                              f"{self._replays[key]}")

    def _validate(self, job, config, extra, rows, errors) -> None:
        law = self._file_law(job)
        (row,) = rows
        for key in ("max_p_deviation", "max_amp_deviation"):
            if not _num(row[key]) <= AGREE_TOL:
                errors.append(f"{key} = {row[key]}")
        _close(errors, "p_success", row["p_success"], law.p, NORM_TOL)
        _close(errors, "n_max", row["n_max"], int(_arg(job, "--n")), 0)

    def _simulate(self, job, config, extra, rows, errors) -> None:
        law = self._file_law(job)
        amp = _law_rows(rows, law, int(_arg(job, "--n")), errors)
        if amp.size:
            for key, want in (("good_amp", np.sqrt(amp)), ("bad_amp", np.sqrt(1 - amp))):
                dev = float(np.abs(_column(rows, key)[:, 0] - want).max())
                if not dev <= AGREE_TOL:
                    errors.append(f"{key} off |sin|/|cos| by {dev:.3e}")

    def _analytic(self, job, config, extra, rows, errors) -> None:
        law = self._file_law(job)
        _close(errors, "header n_star", extra.get("n_star"), law.n_star, 0)
        _close(errors, "header p_success", extra.get("p_success"), law.p, NORM_TOL)
        amp = _law_rows(rows, law, int(_arg(job, "--n")), errors)
        if amp.size:
            got = _column(rows, "amplified")[:, 0]
            dev = float(np.abs(got - amp).max())
            if not dev <= AGREE_TOL:
                errors.append(f"amplified off the oracle by {dev:.3e}")

    def _compare_row(self, row, law: oracle.Law, errors) -> None:
        _close(errors, "N", row["N"], law.n_arms, 0)
        _close(errors, "p_success", row["p_success"], law.p, NORM_TOL)
        _close(errors, "n_star", row["n_star"], law.n_star, 0)
        _close(errors, "qbai_success", row["qbai_success"],
               law.p_rec(law.n_star)[law.x_star], AGREE_TOL)
        delta = law.matched_delta()
        if delta is None:
            if row["t_classical"] not in (None, ""):
                errors.append("t_classical given where no finite budget applies")
            return
        _close(errors, "delta", row["delta"], delta, AGREE_TOL)
        _close(errors, "t_classical", row["t_classical"], law.min_rounds(delta), 1)
        t, n_star = _num(row["t_classical"]), _num(row["n_star"])
        _close(errors, "ratio", row["ratio"], t / max(n_star, 1), 1e-12 * t)

    def _compare(self, job, config, extra, rows, errors) -> None:
        (row,) = rows
        self._compare_row(row, self._file_law(job), errors)

    def _scale(self, job, config, extra, rows, errors) -> None:
        family = job["check"]["family"]
        rest = 0.0 if family == "one-good-arm" else 0.25
        sizes = [int(_num(r["N"])) for r in rows]
        wanted = [int(s) for s in _arg(job, "--sizes").split(",")]
        if sizes != wanted:
            errors.append(f"rows for sizes {sizes}, asked for {wanted}")
            return
        points = []
        for size, row in zip(sizes, rows):
            if row["error"] not in (None, ""):
                errors.append(f"N={size}: {row['error']}")
                continue
            law = self.law((family, size), lambda: oracle.Instance(
                nu=[[v, 1.0 - v] for v in [0.5] + [rest] * (size - 1)],
                f=[[1, 0]] * size))
            self._compare_row(row, law, errors)
            if (row["simulated"] in (True, "True")) != (size * 2 <= config["sim_cap"]):
                errors.append(f"N={size}: simulated = {row['simulated']} "
                              f"with sim_cap {config['sim_cap']}")
            if law.n_star >= 1:
                points.append((size, law.n_star))
        if family != "one-good-arm" or errors:
            return
        slope = _num(extra.get("slope"))
        if not abs(slope - 0.5) <= 0.05:
            errors.append(f"slope {slope} is not within 0.05 of 0.5")
        _close(errors, "slope", slope, oracle.loglog_slope(points), 1e-9)
        ratios = [_num(r["ratio"]) for r in rows]
        if not all(b > a for a, b in zip(ratios, ratios[1:])):
            errors.append(f"ratios do not strictly increase: {ratios}")
