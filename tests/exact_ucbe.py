"""Exact-law oracle for the classical side: UCB-E on two Bernoulli arms.

With two arms that pay 1 with probabilities v0 and v1, the policy is a
Markov chain on (pulls of arm 0, reward sum of arm 0, reward sum of arm 1)
at round t; arm 1 has t minus arm 0's pulls.  A forward dynamic program
carries the probability of every state through the T rounds, so the
misidentification probability comes out exactly, up to float summation.

The program picks each round's arm by the kernel's float score expression,
s / p + sqrt(explore / p) under the per-arm bonus and s / p under the printed
one, and breaks ties to the lower index, as argmax does.  It shares no code
with the package.  It is a test oracle, not a scalable path.
"""

from __future__ import annotations

import numpy as np


def _scores(T: int, explore: float, bonus: str) -> np.ndarray:
    """score[p, s] of an arm pulled p >= 1 times with reward sum s."""
    p = np.arange(1, T + 1, dtype=np.float64)[:, None]
    s = np.arange(T + 1, dtype=np.float64)[None, :]
    score = np.full((T + 1, T + 1), -np.inf)
    score[1:] = s / p + np.sqrt(explore / p) if bonus == "per-arm" else s / p
    return score


def exact_error(values: tuple[float, float], T: int, explore: float, bonus: str) -> float:
    """Probability that UCB-E with T >= 2 rounds recommends a suboptimal arm.

    law[k, s0, s1] is the probability that after t rounds arm 0 was pulled k
    times with reward sum s0 and arm 1 had reward sum s1.  The optimal arm is
    the lower index on a tie of values.
    """
    v0, v1 = values
    x_star = 0 if v0 >= v1 else 1
    score = _scores(T, explore, bonus)
    law = np.zeros((T + 1, T + 1, T + 1))
    # rounds 0 and 1 pull arm 0, then arm 1
    law[1, :2, :2] = np.outer([1.0 - v0, v0], [1.0 - v1, v1])
    for t in range(2, T):
        # before round t, 1 <= k <= t - 1 and both sums are below t
        k = np.arange(1, t)
        pull0 = score[k, :t, None] >= score[t - k, None, :t]
        here = law[1:t, :t, :t]
        mass0, mass1 = here * pull0, here * ~pull0
        law = np.zeros_like(law)
        law[2:t + 1, :t, :t] += (1.0 - v0) * mass0
        law[2:t + 1, 1:t + 1, :t] += v0 * mass0
        law[1:t, :t, :t] += (1.0 - v1) * mass1
        law[1:t, :t, 1:t + 1] += v1 * mass1
    k = np.arange(T + 1, dtype=np.float64)[:, None, None]
    s = np.arange(T + 1, dtype=np.float64)
    # k = 0 and k = T divide by zero, but every arm is pulled in rounds 0 and 1
    with np.errstate(divide="ignore", invalid="ignore"):
        recommend0 = s[None, :, None] / k >= s[None, None, :] / (T - k)
    miss = ~recommend0 if x_star == 0 else recommend0
    return float(law[miss].sum())
