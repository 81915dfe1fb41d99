"""Classical baseline: episodes, vectorized Monte Carlo, and the bound formulas."""

from __future__ import annotations

import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from exact_ucbe import exact_error
from helpers import four_arm_exact, no_child_left, write_instance
from qbandit import cli, ucbe, workers
from qbandit.bandits import BanditInstance, summarize
from qbandit.errors import DegenerateInstance
from qbandit.instances import bernoulli_instance, two_tier
from qbandit.ucbe import (
    BONUS_VARIANTS,
    RngStream,
    estimate_error,
    run_ucbe,
    tuned_explore,
    ucbe_error_bound,
    ucbe_min_rounds,
)


def draw(inst: BanditInstance, arms, u) -> tuple[list, list]:
    """Outcomes and rewards of the kernel's reward lookup on scripted uniforms."""
    cdf = np.cumsum(inst.nu, axis=1)
    y, r = ucbe._draw(cdf, inst.f, np.array(arms), np.array(u, dtype=float))
    return y.tolist(), r.tolist()


def reference_episode(inst: BanditInstance, T: int, explore: float, stream: RngStream,
                      bonus: str) -> tuple[list, list]:
    """The documented policy in plain Python floats: reward sums and pull counts."""
    n, m = inst.n_arms, inst.n_env
    cdf = np.cumsum(inst.nu, axis=1).tolist()
    sums, pulls = [0.0] * n, [0] * n
    for t, u in enumerate(stream.generator().random(T).tolist()):
        if t < n:
            x = t
        elif bonus == "per-arm":
            x = max(range(n), key=lambda a: sums[a] / pulls[a] + math.sqrt(explore / pulls[a]))
        else:
            x = max(range(n), key=lambda a: sums[a] / pulls[a])
        y = min(sum(c <= u for c in cdf[x]), m - 1)
        sums[x] += int(inst.f[x, y])
        pulls[x] += 1
    return sums, pulls


def per_arm_explore(explore: float, bonus: str) -> float:
    """The explore at which run_ucbe, always per-arm, runs the episodes that
    estimate_error runs under bonus: the printed bonus ranks means alone."""
    return explore if bonus == "per-arm" else 0.0


def three_arm_three_outcome() -> BanditInstance:
    """Arms worth 0.5, 0.6 and 0.55; two reward rows are non-monotone in y."""
    return BanditInstance(
        nu=[[0.2, 0.5, 0.3], [0.2, 0.4, 0.4], [0.25, 0.3, 0.45]],
        f=[[0, 1, 0], [1, 0, 1], [1, 1, 0]],
    )


def test_rng_stream_is_reproducible_and_disjoint():
    a = RngStream(42, 3).generator().random(8)
    b = RngStream(42, 3).generator().random(8)
    c = RngStream(42, 4).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)


def test_seed_words_match_seed_sequence():
    """A chunk's seed words, computed in bulk, are SeedSequence's, stream for
    stream, up to the top seed and stream below 2**32."""
    top = 2**32 - 1
    for seed in (0, 1, 2**31 - 1, top):
        for first, count in ((0, 64), (2**31, 1), (top - 1, 2)):
            words = ucbe._seed_words(seed, first, count)
            expected = [
                np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
                for k in range(first, first + count)
            ]
            assert words.dtype == np.uint64
            assert np.array_equal(words, expected)
    seq = ucbe._SeedWords(ucbe._seed_words(5, 0, 1)[0])
    for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="seed words"):
            seq.generate_state(n_words, dtype)
    for gen, k in zip(ucbe._generators(5, 40, 3), range(40, 43)):
        assert np.array_equal(gen.random(9), RngStream(5, k).generator().random(9))


@pytest.mark.parametrize("seed, first", [(2**32 - 1, 2**32 - 6), (7, 2**32 - 3), (2**32, 0)],
                         ids=["bulk-top", "straddle", "seed-2-32"])
def test_lockstep_replays_streams_at_the_bulk_seeding_edge(seed, first):
    """Chunks at the top of the bulk-seeded range, straddling stream 2**32 or
    seeded at 2**32 run each trial as the reference replays its stream."""
    inst = three_arm_three_outcome()
    T, count = 61, 6
    explore = tuned_explore(summarize(inst), T)
    sums, pulls = ucbe._lockstep(inst, T, explore, RngStream(seed, first), 0, count)
    for i in range(count):
        ref_sums, ref_pulls = reference_episode(inst, T, explore, RngStream(seed, first + i),
                                                "per-arm")
        assert pulls[i].tolist() == ref_pulls
        assert sums[i].tolist() == ref_sums


def test_draw_inverse_cdf():
    inst = bernoulli_instance([0.3])
    # cdf is (0.3, 1.0); u = 0.3 is not below the first entry, so outcome 1
    assert draw(inst, [0, 0, 0, 0], [0.0, 0.1, 0.3, 0.999]) == ([0, 0, 1, 1], [1, 1, 0, 0])


def test_draw_never_overflows():
    # row sum a hair under 1 is accepted untouched; a uniform above the last
    # cdf entry must still land on the final outcome
    inst = BanditInstance(nu=[[0.2, 0.3, 0.5 - 1e-10]], f=[[0, 0, 1]])
    assert draw(inst, [0], [1.0 - 1e-13]) == ([2], [1])


def test_draw_single_outcome():
    # M = 1: no cdf comparisons at all; the reward is the arm's only entry
    inst = BanditInstance(nu=[[1.0], [1.0], [1.0]], f=[[0], [1], [0]])
    assert draw(inst, [1, 0, 2, 1], [0.0, 0.5, 0.7, 1.0 - 1e-16]) == (
        [0, 0, 0, 0], [1, 0, 0, 1]
    )


def test_draw_non_monotone_rewards():
    inst = BanditInstance(nu=[[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]], f=[[0, 1, 0], [1, 0, 1]])
    cdf = np.cumsum(inst.nu, axis=1)
    u = [0.1, cdf[0, 0], 0.69, cdf[0, 1], 0.95, 0.59, cdf[1, 0], 0.8]
    y, r = draw(inst, [0, 0, 0, 0, 0, 1, 1, 1], u)
    assert y == [0, 1, 1, 2, 2, 0, 1, 2]
    assert r == [0, 1, 1, 0, 0, 1, 0, 1]


def test_tuned_explore():
    s = summarize(bernoulli_instance([0.5, 0.25]))
    assert tuned_explore(s, 1000) == pytest.approx((25 / 36) * 998 / 16, rel=1e-15)
    assert tuned_explore(summarize(bernoulli_instance([0.5])), 10) == 0.0
    with pytest.raises(DegenerateInstance, match="below arm count"):
        tuned_explore(s, 1)


def test_run_ucbe_hand_trace():
    """Deterministic arms (1, 0), no bonus: after one pull each, arm 0 wins out."""
    inst = four_arm_exact()
    two = bernoulli_instance([1.0, 0.0])
    trace = run_ucbe(two, 4, 0.0, RngStream(0))
    assert np.array_equal(trace.pulls, [3, 1])
    assert np.array_equal(trace.means, [1.0, 0.0])
    assert trace.recommendation == 0
    assert run_ucbe(inst, 12, 1.0, RngStream(0)).recommendation == 0


def test_run_ucbe_validation():
    inst = bernoulli_instance([0.5, 0.25])
    with pytest.raises(DegenerateInstance, match="below arm count"):
        run_ucbe(inst, 1, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        run_ucbe(inst, 10, -1.0, RngStream(0))
    for explore in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            run_ucbe(inst, 10, explore, RngStream(0))


def test_run_ucbe_accounting_and_reproducibility():
    inst = bernoulli_instance([0.6, 0.4, 0.3])
    a = run_ucbe(inst, 157, 2.0, RngStream(5, 9))
    b = run_ucbe(inst, 157, 2.0, RngStream(5, 9))
    assert int(a.pulls.sum()) == 157
    assert np.all(a.pulls >= 1)
    assert np.array_equal(a.pulls, b.pulls)
    assert np.array_equal(a.means, b.means)
    assert a.recommendation == b.recommendation


@pytest.mark.parametrize("bonus", BONUS_VARIANTS)
def test_run_ucbe_matches_reference_policy(bonus):
    for inst, T in ((three_arm_three_outcome(), 61), (four_arm_exact(), 40)):
        explore = tuned_explore(summarize(inst), T)
        for i in range(6):
            trace = run_ucbe(inst, T, per_arm_explore(explore, bonus), RngStream(4, i))
            sums, pulls = reference_episode(inst, T, explore, RngStream(4, i), bonus)
            assert trace.pulls.tolist() == pulls
            assert trace.means.tolist() == [s / p for s, p in zip(sums, pulls)]


@pytest.mark.parametrize("bonus", ["per-arm", "printed"])
def test_estimate_error_matches_sequential_episodes(monkeypatch, bonus):
    """The lockstep Monte Carlo is draw-for-draw the sequential episode."""
    inst = bernoulli_instance([0.6, 0.4, 0.3])
    explore = tuned_explore(summarize(inst), 60)
    trials = 37
    monkeypatch.setattr(ucbe, "DEFAULT_CHUNK", 10)
    e_hat, ci = estimate_error(inst, 60, explore, trials, RngStream(5, 100), bonus=bonus)
    x_star = summarize(inst).x_star
    scale = per_arm_explore(explore, bonus)
    wrong = sum(
        run_ucbe(inst, 60, scale, RngStream(5, 100 + i)).recommendation != x_star
        for i in range(trials)
    )
    assert e_hat == wrong / trials
    assert 0.0 < e_hat < 1.0   # a budget this small errs sometimes, not always
    assert ci == pytest.approx(1.96 * math.sqrt(e_hat * (1 - e_hat) / trials))


@pytest.mark.parametrize("explore", [0.0, 2.5])
@pytest.mark.parametrize("values", [[0.5, 0.25], [0.5] + [0.4] * 15],
                         ids=["two-arm", "sixteen-arm"])
def test_printed_bonus_is_the_per_arm_rule_without_bonus(values, explore):
    """The round-wide bonus shifts every score equally, so bonus="printed" at
    any explore runs bit for bit as the per-arm rule at explore 0."""
    inst = bernoulli_instance(values)
    T = 40 * len(values)
    scale = ucbe._check_args(inst, T, explore, "printed")
    for stream in range(4):
        sums, pulls = ucbe._lockstep(inst, T, scale, RngStream(3, stream), 0, 1)
        greedy = run_ucbe(inst, T, 0.0, RngStream(3, stream))
        assert pulls[0].astype(np.int64).tobytes() == greedy.pulls.tobytes()
        assert (sums[0] / pulls[0]).tobytes() == greedy.means.tobytes()
        assert int(np.argmax(sums[0] / pulls[0])) == greedy.recommendation
        assert (estimate_error(inst, T, explore, 60, RngStream(3, 10 * stream),
                               bonus="printed")
                == estimate_error(inst, T, 0.0, 60, RngStream(3, 10 * stream)))


def test_estimate_error_is_chunk_independent(monkeypatch):
    inst = bernoulli_instance([0.6, 0.4])
    monkeypatch.setattr(ucbe, "DEFAULT_CHUNK", 7)
    small = estimate_error(inst, 30, 1.0, 53, RngStream(2))
    monkeypatch.setattr(ucbe, "DEFAULT_CHUNK", 1000)
    large = estimate_error(inst, 30, 1.0, 53, RngStream(2))
    assert small == large


@pytest.mark.parametrize("bonus", BONUS_VARIANTS)
def test_block_boundaries_leave_episodes_unchanged(monkeypatch, bonus):
    """Uniforms drawn in blocks of a few rounds replay each stream exactly."""
    inst = three_arm_three_outcome()
    T, trials = 61, 23   # T is prime, so no block width of 2..60 rounds divides it
    explore = tuned_explore(summarize(inst), T)
    scale = per_arm_explore(explore, bonus)
    whole = [run_ucbe(inst, T, scale, RngStream(9, i)) for i in range(trials)]
    x_star = summarize(inst).x_star
    wrong = sum(trace.recommendation != x_star for trace in whole)
    assert 0 < wrong < trials

    # 560 bytes: 7 rounds per block at 10 trials, 23 at 3, 3 at 23
    monkeypatch.setattr(ucbe, "UNIFORM_BLOCK_BYTES", 560)
    sums, pulls = ucbe._lockstep(inst, T, scale, RngStream(9), 0, trials)
    assert np.array_equal(pulls, [trace.pulls for trace in whole])
    assert np.array_equal(sums / pulls, [trace.means for trace in whole])
    for chunk in (10, 4, 1000):
        monkeypatch.setattr(ucbe, "DEFAULT_CHUNK", chunk)
        e_hat, _ = estimate_error(inst, T, explore, trials, RngStream(9), bonus=bonus)
        assert e_hat == wrong / trials

    for i, trace in enumerate(whole[:5]):
        for rounds in (1, 3, 7, 60):
            monkeypatch.setattr(ucbe, "UNIFORM_BLOCK_BYTES", 8 * rounds)
            blocked = run_ucbe(inst, T, scale, RngStream(9, i))
            assert np.array_equal(blocked.pulls, trace.pulls)
            assert np.array_equal(blocked.means, trace.means)
            assert blocked.recommendation == trace.recommendation


@pytest.mark.parametrize("seed, base, trials", [
    (9, 0, 23), (9, 0, 1), (9, 0, 2), (7, 2**32 - 3, 6),
], ids=["chunk-edges", "one-trial", "two-trials", "stream-2-32"])
def test_worker_count_leaves_the_estimate_unchanged(monkeypatch, seed, base, trials):
    """Worker ranges of 4-trial chunks give the one-worker estimate: with
    fewer trials than workers, and with a worker starting at stream 2**32,
    where bulk seeding stops."""
    monkeypatch.setattr(ucbe, "DEFAULT_CHUNK", 4)
    inst = three_arm_three_outcome()
    T = 61
    explore = tuned_explore(summarize(inst), T)
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    one = estimate_error(inst, T, explore, trials, RngStream(seed, base))
    x_star = summarize(inst).x_star
    wrong = sum(run_ucbe(inst, T, explore, RngStream(seed, base + i)).recommendation != x_star
                for i in range(trials))
    assert one[0] == wrong / trials
    for w in (2, 3, 5):
        monkeypatch.setattr(workers, "cpus", lambda: w)
        assert estimate_error(inst, T, explore, trials, RngStream(seed, base)) == one


def fail_after_first_range(error: BaseException):
    """A _lockstep that raises error in every range but the first, so in a
    forked worker."""
    lockstep = ucbe._lockstep

    def failing(inst, T, scale, rng, start, count):
        if start > 0:
            raise error
        return lockstep(inst, T, scale, rng, start, count)

    return failing


def test_a_failing_worker_raises_in_the_parent(monkeypatch):
    monkeypatch.setattr(workers, "cpus", lambda: 3)
    monkeypatch.setattr(ucbe, "_lockstep", fail_after_first_range(ValueError("worker fault")))
    inst = bernoulli_instance([0.6, 0.4])
    with pytest.raises(ValueError, match="worker fault"):
        estimate_error(inst, 30, 1.0, 90, RngStream(2))
    assert no_child_left()


def test_a_worker_without_a_result_raises_in_the_parent(monkeypatch):
    lockstep = ucbe._lockstep

    def vanish(inst, T, scale, rng, start, count):
        if start > 0:
            os._exit(3)
        return lockstep(inst, T, scale, rng, start, count)

    monkeypatch.setattr(ucbe, "_lockstep", vanish)
    monkeypatch.setattr(workers, "cpus", lambda: 2)
    inst = bernoulli_instance([0.6, 0.4])
    with pytest.raises(ChildProcessError, match="without a result"):
        estimate_error(inst, 30, 1.0, 90, RngStream(2))
    assert no_child_left()


def test_workers_are_killed_when_the_parent_fails(monkeypatch):
    """The parent's own range raising stops and reaps the workers at once,
    rather than waiting out their 30 s."""
    lockstep = ucbe._lockstep

    def interrupted(inst, T, scale, rng, start, count):
        if start == 0:
            raise KeyboardInterrupt
        time.sleep(30)
        return lockstep(inst, T, scale, rng, start, count)

    monkeypatch.setattr(ucbe, "_lockstep", interrupted)
    monkeypatch.setattr(workers, "cpus", lambda: 3)
    inst = bernoulli_instance([0.6, 0.4])
    begin = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        estimate_error(inst, 30, 1.0, 90, RngStream(2))
    assert time.perf_counter() - begin < 10
    assert no_child_left()


def test_a_failing_worker_exits_the_cli_with_one_error_line(monkeypatch, tmp_path, capsys):
    path = tmp_path / "inst.json"
    write_instance(path, bernoulli_instance([0.5, 0.25]))
    monkeypatch.setattr(workers, "cpus", lambda: 2)
    monkeypatch.setattr(ucbe, "_lockstep", fail_after_first_range(ValueError("worker fault")))
    code = cli.main(["ucbe", "--instance", str(path), "-T", "40", "--trials", "50"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["qbandit: error: worker fault"]
    assert no_child_left()


def test_estimate_error_memory_is_bounded_by_budget(monkeypatch):
    """Held uniforms stay within the block budget, however long the episode.
    The trials run in one process, the most any one worker holds.

    Drawing all T uniforms of every trial at once would take 200 * 5000 * 8 B
    = 8 MB here, against a 64 KiB block.  Beyond the block, a trial holds one
    generator and one row view of the block (about 860 B traced together) and
    O(N) floats of state.
    """
    budget = 64 << 10
    monkeypatch.setattr(ucbe, "UNIFORM_BLOCK_BYTES", budget)
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    inst = bernoulli_instance([0.5, 0.25])
    T, trials = 5000, 200
    estimate_error(inst, 20, 1.0, 2, RngStream(0))   # warm imports and caches
    tracemalloc.start()
    try:
        estimate_error(inst, T, 1.0, trials, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * budget + 2048 * trials * inst.n_arms
    assert peak < trials * T * 8 / 4


def test_uniforms_are_held_once(monkeypatch):
    """The kernel reads each round straight from the block the generators
    wrote, so the uniforms are held once.  Here a block is 200 * 2621 * 8 B
    = 4.2 MB, all trials in one process; a second copy of it would put the
    peak above the bound."""
    budget = 4 << 20
    monkeypatch.setattr(ucbe, "UNIFORM_BLOCK_BYTES", budget)
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    inst = bernoulli_instance([0.5, 0.25])
    T, trials = 5000, 200
    estimate_error(inst, 20, 1.0, 2, RngStream(0))   # warm imports and caches
    tracemalloc.start()
    try:
        estimate_error(inst, T, 1.0, trials, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + 2048 * trials * inst.n_arms


def test_estimate_error_memory_at_the_default_block(monkeypatch):
    """The four-arm criterion-5 shape, T=900 with 2500 trials, holds one block
    of at most 2 MiB plus about 1 KB per trial: about 4.8 MiB traced, all
    trials in one process.  An 8 MiB block with one SeedSequence per trial
    traced 10.6 MiB."""
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    inst = four_arm_exact()
    explore = tuned_explore(summarize(inst), 900)
    estimate_error(inst, 20, explore, 2, RngStream(0))   # warm imports and caches
    tracemalloc.start()
    try:
        estimate_error(inst, 900, explore, 2500, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_estimate_error_memory_is_bounded_in_the_arm_count(monkeypatch):
    """Two-tier N = 1024, T = 1030 with 1000 trials, all in one process.  A
    chunk of 2 MiB / (8 N) = 256 trials holds the 2 MiB block, three (256, N)
    state arrays of 2 MiB each and 256 generators: about 8.3 MiB traced.
    One chunk of all 1000 trials, as a chunk size blind to N gives, traced
    26.4 MiB."""
    monkeypatch.setattr(workers, "cpus", lambda: 1)
    inst = two_tier(1024)
    explore = tuned_explore(summarize(inst), 1030)
    estimate_error(inst, 1030, explore, 2, RngStream(0))   # warm imports and caches
    tracemalloc.start()
    try:
        estimate_error(inst, 1030, explore, 1000, RngStream(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * ucbe.UNIFORM_BLOCK_BYTES


def test_a_one_trial_monte_carlo_never_counts_the_cpus(monkeypatch):
    def no_workers():
        pytest.fail("a one-trial Monte Carlo asked for workers")
    monkeypatch.setattr(workers, "cpus", no_workers)
    inst = bernoulli_instance([0.6, 0.4])
    e_hat, _ = estimate_error(inst, 30, 1.0, 1, RngStream(2))
    assert e_hat == (run_ucbe(inst, 30, 1.0, RngStream(2)).recommendation != 0)
    assert no_child_left()


def test_estimate_error_validation():
    inst = bernoulli_instance([0.6, 0.4])
    with pytest.raises(ValueError):
        estimate_error(inst, 30, 1.0, 0, RngStream(0))
    with pytest.raises(DegenerateInstance, match="below arm count"):
        estimate_error(inst, 1, 1.0, 10, RngStream(0))
    with pytest.raises(ValueError, match="finite"):
        estimate_error(inst, 30, math.nan, 10, RngStream(0))
    with pytest.raises(ValueError, match="bonus must be one of"):
        estimate_error(inst, 30, 1.0, 10, RngStream(0), bonus="round")


def test_error_rate_decays_with_budget():
    inst = bernoulli_instance([0.6, 0.4])
    s = summarize(inst)
    rough, rough_ci = estimate_error(inst, 20, tuned_explore(s, 20), 400, RngStream(8))
    fine, fine_ci = estimate_error(inst, 300, tuned_explore(s, 300), 400, RngStream(8))
    assert fine <= rough + rough_ci + fine_ci


def test_ucbe_error_bound():
    s = summarize(bernoulli_instance([0.5, 0.25]))
    assert ucbe_error_bound(s, 10_000) == pytest.approx(3.352790480153906e-11, rel=1e-12)
    assert ucbe_error_bound(summarize(bernoulli_instance([0.5])), 10) == 0.0
    with pytest.raises(ValueError):
        ucbe_error_bound(s, 2)


def test_ucbe_min_rounds_frozen_values():
    s = summarize(bernoulli_instance([0.5, 0.25]))
    assert ucbe_min_rounds(s, 0.05) == 1265
    assert ucbe_min_rounds(summarize(four_arm_exact()), 0.5) == 154


def test_ucbe_min_rounds_is_strictly_greater():
    s = summarize(bernoulli_instance([0.5, 0.25]))
    for delta in (0.9, 0.5, 0.1, 0.01):
        raw = 18.0 * s.h1 * math.log(2 * 2 / delta) + 2
        t = ucbe_min_rounds(s, delta)
        assert raw < t <= raw + 1
    with pytest.raises(ValueError):
        ucbe_min_rounds(s, 0.0)
    with pytest.raises(ValueError):
        ucbe_min_rounds(s, 1.0)


# seed and trial count fixed before the first comparison; a miss is reported,
# never re-seeded away
EXACT_TRIALS = 4000


@pytest.mark.parametrize("bonus", BONUS_VARIANTS)
@pytest.mark.parametrize("T", [10, 30, 60])
@pytest.mark.parametrize("values", [(0.5, 0.25), (0.4, 0.6), (0.7, 0.65)],
                         ids=["half-quarter", "best-second", "close"])
def test_estimate_error_matches_the_exact_law(values, T, bonus):
    """The Monte Carlo rate lands within 4 standard errors of the exact
    misidentification probability of the two-arm Markov chain."""
    inst = bernoulli_instance(list(values))
    explore = tuned_explore(summarize(inst), T)
    exact = exact_error(values, T, explore, bonus)
    e_hat, _ = estimate_error(inst, T, explore, EXACT_TRIALS, RngStream(5), bonus=bonus)
    sigma = math.sqrt(exact * (1.0 - exact) / EXACT_TRIALS)
    assert abs(e_hat - exact) <= 4.0 * sigma, (e_hat, exact, sigma)
