"""Reference values computed without the program under test.

Nothing here imports qbandit.  The closed form is evaluated in mpmath at 40
significant digits, straight from an instance file's tables, as the mixture

    P_n(x) = w_x [a_x sin^2((2n+1) theta) / p + (1 - a_x) cos^2((2n+1) theta) / q]

with w_x = 1/N, p = sum w a, q = sum w (1 - a) and theta = atan2(sqrt p, sqrt q).
The UCB-E replay is plain Python over the documented policy and seeding
contract; it takes its uniforms from the documented streams
PCG64(SeedSequence(seed, spawn_key=(k,))).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
from mpmath import mp, mpf

mp.dps = 40


@dataclass(frozen=True)
class Instance:
    """An instance file's tables as exact binary fractions."""

    nu: list[list[float]]
    f: list[list[int]]

    @classmethod
    def load(cls, path: str | Path) -> "Instance":
        data = json.loads(Path(path).read_text())
        return cls(nu=data["nu"], f=data["f"])

    @property
    def n_arms(self) -> int:
        return len(self.nu)

    @property
    def n_env(self) -> int:
        return len(self.nu[0])


class Law:
    """High-precision closed form of one instance under uniform amplitudes."""

    def __init__(self, inst: Instance):
        n = inst.n_arms
        self.n_arms = n
        self.a = [mpmath.fsum(mpf(v) * r for v, r in zip(nu_row, f_row))
                  for nu_row, f_row in zip(inst.nu, inst.f)]
        w = mpf(1) / n
        self.p = mpmath.fsum(self.a) * w
        self.q = mpmath.fsum(1 - a for a in self.a) * w
        self.theta = mpmath.atan2(mpmath.sqrt(self.p), mpmath.sqrt(self.q))
        self._good = [w * a / self.p for a in self.a]
        self._bad = [w * (1 - a) / self.q if self.q else mpf(0) for a in self.a]
        self.x_star = max(range(n), key=lambda x: (self.a[x], -x))
        raw = mpmath.pi / (4 * self.theta) - mpf(1) / 2
        lo = max(0, int(mpmath.floor(raw)))
        hi = max(0, int(mpmath.ceil(raw)))
        self.n_star = hi if self.amplified(hi) > self.amplified(lo) else lo
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def amplified(self, n: int) -> mpf:
        return mpmath.sin((2 * n + 1) * self.theta) ** 2

    def p_rec(self, n: int) -> list[mpf]:
        s = self.amplified(n)
        c = 1 - s
        return [g * s + b * c for g, b in zip(self._good, self._bad)]

    def table(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Amplified mass and the recommendation law for n = 0..n_max, as floats."""
        if n_max in self._tables:
            return self._tables[n_max]
        amp = np.empty(n_max + 1)
        law = np.empty((n_max + 1, self.n_arms))
        for n in range(n_max + 1):
            s = self.amplified(n)
            c = 1 - s
            amp[n] = float(s)
            law[n] = [float(g * s + b * c) for g, b in zip(self._good, self._bad)]
        self._tables[n_max] = amp, law
        return amp, law

    def h1(self) -> mpf:
        top = self.a[self.x_star]
        return mpmath.fsum(1 / (top - a) ** 2
                           for x, a in enumerate(self.a) if x != self.x_star)

    def min_rounds(self, delta) -> int:
        """floor(18 h1 ln(2N / delta) + N) + 1."""
        t = 18 * self.h1() * mpmath.log(2 * self.n_arms / mpf(delta)) + self.n_arms
        return int(mpmath.floor(t)) + 1

    def matched_delta(self) -> mpf | None:
        """The classical confidence level compare() documents, or None."""
        matched = 1 - self.a[self.x_star] / mpmath.fsum(self.a)
        if matched > 0:
            return matched
        attained = 1 - self.p_rec(self.n_star)[self.x_star]
        return attained if attained >= mpf("1e-12") else None


def tuned_explore(law: Law, rounds: int) -> mpf:
    """(25/36) (T - N) / h1, the documented default exploration strength."""
    return mpf(25) / 36 * (rounds - law.n_arms) / law.h1()


def ucbe_misidentified(inst: Instance, rounds: int, explore: float, trials: int,
                       seed: int) -> int:
    """Episodes among streams 0..trials-1 of `seed` that recommend a wrong arm.

    Per-arm bonus policy: pull each arm once in index order, then the arm with
    the largest mean + sqrt(explore / pulls) (lowest index on ties); arm x
    pulled with uniform u lands on outcome y = #{j : cdf_x[j] <= u}, capped at
    M - 1; the recommendation is the arm with the largest empirical mean.
    Only the pulled arm's score changes in a round, so only it is recomputed.
    """
    n, m = inst.n_arms, inst.n_env
    cdfs = []
    for row in inst.nu:
        acc, cdf = 0.0, []
        for v in row:
            acc += v
            cdf.append(acc)
        cdfs.append(cdf)
    values = [sum(v * r for v, r in zip(nu_row, f_row))
              for nu_row, f_row in zip(inst.nu, inst.f)]
    x_star = values.index(max(values))
    wrong = 0
    for k in range(trials):
        gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,))))
        us = gen.random(rounds).tolist()
        sums = [0.0] * n
        pulls = [0] * n
        scores = [0.0] * n
        for t, u in enumerate(us):
            x = t if t < n else scores.index(max(scores))
            cdf = cdfs[x]
            y = 0
            while y < m and cdf[y] <= u:
                y += 1
            sums[x] += inst.f[x][min(y, m - 1)]
            pulls[x] += 1
            scores[x] = sums[x] / pulls[x] + math.sqrt(explore / pulls[x])
        means = [s / c for s, c in zip(sums, pulls)]
        if means.index(max(means)) != x_star:
            wrong += 1
    return wrong


def loglog_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(n_star) against log(N)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
