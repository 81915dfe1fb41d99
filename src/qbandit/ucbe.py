"""Classical baseline: environment sampling and the UCB-E exploration policy.

The policy pulls every arm once, then pulls the arm maximizing an optimism
bonus on top of the empirical mean.  The default bonus sqrt(explore / pulls_x)
shrinks per arm with its pull count, matching the Hoeffding radius the
analysis needs; estimate_error's bonus="printed" selects the round-wide
sqrt(explore / (t - 1)) form instead, which shifts every score equally and so
degenerates to the greedy choice: it runs as the per-arm bonus with explore = 0.

Randomness policy: every consumer derives a fresh generator from an explicit
(seed, stream) pair, one uniform draw per round, so any trial can be replayed
in isolation and results cannot depend on scheduling or worker count.
RngStream.generator() defines stream k; for a seed and streams below 2**32
the kernel computes the same PCG64 seed words for a whole chunk at once,
so its generators draw exactly as RngStream's would.  The kernel draws each
trial's uniforms in blocks of rounds; PCG64 random(a) followed by random(b)
equals random(a + b) bit for bit, so the block width changes no draw.  Each
round is read straight from the block the generators wrote, so a process
holds one block of at most UNIFORM_BLOCK_BYTES (2 MiB) whatever T is, plus
one chunk of lockstep trials: about 1 KB per trial for its generator and row
view, and (trials, N) float arrays of state.  estimate_error caps a chunk at
UNIFORM_BLOCK_BYTES // (8 N) trials, at least one, so no state array holds
more than 262 144 cells, the uniforms a block holds, unless one trial's N
cells are more.  It runs its trials on workers.processes(trials) processes,
each over a contiguous range of streams, and sums their integer counts, so
its tables do not depend on the worker count and a run holds at most one
block plus one chunk per CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandits import BanditInstance, InstanceSummary, summarize
from .errors import DegenerateInstance
from .workers import Forked, processes

BONUS_VARIANTS = ("per-arm", "printed")
# the most trials run in lockstep by one kernel call
DEFAULT_CHUNK = 2500
# bytes of uniforms drawn per block of rounds (at least one round); the kernel
# holds one block, whatever T is
UNIFORM_BLOCK_BYTES = 2 << 20
# numpy's SeedSequence hash constants; NEP 19 fixes its algorithm
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """A named random stream: (seed, stream) pins the whole draw sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be non-negative")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class UcbeTrace:
    """One episode: pull counts, empirical means, and the final recommendation."""

    pulls: np.ndarray
    means: np.ndarray
    recommendation: int


class _SeedWords:
    """One stream's PCG64 seed words, computed ahead, as numpy's ISeedSequence.

    _generators registers the class as one on first use, so importing this
    module does not import numpy.random.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words are 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix: each call hashes one word at the next constant.

    Words are Python ints, kept to 32 bits by the mask, or uint32 arrays,
    whose arithmetic wraps silently.
    """

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y):
    """SeedSequence's mix of pool word x, a Python int, with hashed word y."""
    value = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 seed words of streams [first, first + count), shape (count, 4):
    row i is SeedSequence(seed, spawn_key=(first + i,)).generate_state(4, np.uint64).

    For a seed and streams below 2**32 the entropy is (seed, 0, 0, 0, k).
    SeedSequence hashes the first four words into its pool and mixes the pool,
    the same for every stream k, and only then hashes k into each pool word.
    So the pool is mixed once, in Python ints; the streams go through the rest
    together, as uint32 arrays.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (seed, 0, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    streams = np.arange(first, first + count, dtype=np.uint32)
    pool = [_mix(word, hashmix(streams)) for word in pool]
    emit = _hasher(_INIT_B, _MULT_B)
    state = np.empty((count, 8), dtype="<u4")
    for i in range(8):
        state[:, i] = emit(pool[i % 4])
    # uint32 pairs read as little-endian uint64, as generate_state reads them
    return state.view("<u8").astype(np.uint64)


def _generators(seed: int, first: int, count: int) -> list[np.random.Generator]:
    """Generators of streams [first, first + count) of seed; each draws
    exactly as RngStream(seed, k).generator() does."""
    if seed > _MASK32 or first + count - 1 > _MASK32:
        return [RngStream(seed, k).generator() for k in range(first, first + count)]
    np.random.bit_generator.ISeedSequence.register(_SeedWords)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row)))
            for row in _seed_words(seed, first, count)]


def tuned_explore(summary: InstanceSummary, T: int) -> float:
    """Default exploration strength (25/36) * (T - N) / h1."""
    n = len(summary.a)
    if T < n:
        raise DegenerateInstance(f"budget T={T} below arm count N={n}")
    if summary.h1 == 0.0:
        return 0.0
    return (25.0 / 36.0) * (T - n) / summary.h1


def _check_args(inst: BanditInstance, T: int, explore: float, bonus: str) -> float:
    """Check the arguments; return the scale in the per-arm bonus sqrt(scale / p)."""
    if bonus not in BONUS_VARIANTS:
        raise ValueError(f"bonus must be one of {BONUS_VARIANTS}, got {bonus!r}")
    if not math.isfinite(explore) or explore < 0:
        raise ValueError(f"explore must be finite and non-negative, got {explore}")
    if T < inst.n_arms:
        raise DegenerateInstance(f"budget T={T} below arm count N={inst.n_arms}")
    # the printed bonus shifts every score equally; ranking means alone is
    # the per-arm rule with no bonus, and s / p + 0.0 is s / p bit for bit
    return explore if bonus == "per-arm" else 0.0


def _draw(
    cdf: np.ndarray, f: np.ndarray, arms: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes y and rewards r of pulling arms[i] on uniform u[i], by inverse CDF.

    cdf rows are nondecreasing, so the count of entries j < M - 1 with
    cdf[x, j] <= u is min(#{j : cdf[x, j] <= u}, M - 1): the first outcome
    whose cumulative mass exceeds u, and the last one when roundoff leaves
    the row total below u.
    """
    m = cdf.shape[1]
    y = np.zeros(len(arms), dtype=np.int64)
    for j in range(m - 1):
        y += cdf[:, j].take(arms) <= u
    return y, f.ravel().take(arms * m + y)


def _lockstep(
    inst: BanditInstance,
    T: int,
    scale: float,
    rng: RngStream,
    start: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reward sums and pull counts, shape (count, N), of trials [start, start + count).

    After one pull of each arm, each round pulls the arm maximizing
    s / p + sqrt(scale / p), s the arm's reward sum and p its pull count.
    Trial i consumes stream rng.stream + start + i, one uniform per round in
    round order.  Uniforms come in blocks of rounds no larger than
    UNIFORM_BLOCK_BYTES, one row per trial, filled through row views made
    once per block width, and round k of a block is read as column k of the
    block the generators wrote, with no copy.
    Only the pulled entry of each trial's score row is recomputed per round,
    by the same float operations on the same values as a full recomputation,
    so argmax breaks ties identically.
    """
    n = inst.n_arms
    gens = _generators(rng.seed, rng.stream + start, count)
    width = max(1, min(T, UNIFORM_BLOCK_BYTES // (8 * count)))
    drawn = np.empty((count, width))
    rows = list(drawn)
    cdf = np.cumsum(inst.nu, axis=1)
    sums = np.zeros((count, n))
    # float64 counts are exact and divide without an int64-to-float conversion
    pulls = np.zeros((count, n))
    scores = np.zeros((count, n))
    sums_flat, pulls_flat, scores_flat = sums.ravel(), pulls.ravel(), scores.ravel()
    offsets = np.arange(count) * n
    for t in range(T):
        k = t % width
        if k == 0:
            if T - t < width:
                rows = [row[: T - t] for row in rows]
            for gen, row in zip(gens, rows):
                gen.random(out=row)
        arms = np.full(count, t) if t < n else scores.argmax(axis=1)
        _, r = _draw(cdf, inst.f, arms, drawn[:, k])
        flat = offsets + arms
        s = sums_flat.take(flat) + r
        p = pulls_flat.take(flat) + 1
        sums_flat[flat] = s
        pulls_flat[flat] = p
        scores_flat[flat] = s / p + np.sqrt(scale / p)
    return sums, pulls


def run_ucbe(inst: BanditInstance, T: int, explore: float, rng: RngStream) -> UcbeTrace:
    """One UCB-E episode of T rounds under the per-arm bonus; bit-for-bit
    reproducible from (seed, stream)."""
    scale = _check_args(inst, T, explore, "per-arm")
    sums, pulls = _lockstep(inst, T, scale, rng, 0, 1)
    means = sums[0] / pulls[0]
    means.setflags(write=False)
    pulls = pulls[0].astype(np.int64)
    pulls.setflags(write=False)
    return UcbeTrace(pulls=pulls, means=means, recommendation=int(np.argmax(means)))


def estimate_error(
    inst: BanditInstance,
    T: int,
    explore: float,
    trials: int,
    rng: RngStream,
    *,
    bonus: str = "per-arm",
) -> tuple[float, float]:
    """Monte Carlo misidentification rate and its 95% half-width.

    Trial i uses stream rng.stream + i, so the estimate is reproducible and
    independent of chunking and of the worker count.  The trials split into
    workers.processes(trials) contiguous ranges; the first runs here, each
    other in a forked worker that sends back its count.  Within a range,
    chunks of min(DEFAULT_CHUNK, UNIFORM_BLOCK_BYTES // (8 N)) trials, at
    least one, run in vectorized lockstep.  Each trial is draw-for-draw
    identical to run_ucbe on its own stream, at explore = 0 under the
    printed bonus.  Each process holds one uniform block and one chunk:
    about 1 KB per trial, and state arrays no larger than the block unless
    one trial's N cells are more.  A run holds at most that much per CPU.
    """
    scale = _check_args(inst, T, explore, bonus)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    x_star = summarize(inst).x_star
    chunk = min(DEFAULT_CHUNK, max(1, UNIFORM_BLOCK_BYTES // (8 * inst.n_arms)))

    def misidentified(start: int, stop: int) -> int:
        wrong = 0
        for first in range(start, stop, chunk):
            sums, pulls = _lockstep(inst, T, scale, rng, first, min(chunk, stop - first))
            wrong += int((np.argmax(sums / pulls, axis=1) != x_star).sum())
            del sums, pulls   # not held while the next chunk runs
        return wrong

    def frames(start: int, stop: int):
        yield b"%d" % misidentified(start, stop)

    procs = processes(trials)
    bounds = [trials * w // procs for w in range(procs + 1)]
    with Forked() as forked:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            forked.start(frames, start, stop)
        wrong = misidentified(0, bounds[1])
        wrong += sum(int(forked.receive(w)) for w in range(procs - 1))
    e_hat = wrong / trials
    ci = 1.96 * math.sqrt(e_hat * (1.0 - e_hat) / trials)
    return e_hat, ci


def ucbe_error_bound(summary: InstanceSummary, T: int) -> float:
    """Misidentification bound 2*T*N*exp(-(T - N) / (18*h1)) for tuned explore."""
    n = len(summary.a)
    if T <= n:
        raise ValueError(f"bound needs T > N, got T={T}, N={n}")
    if summary.h1 == 0.0:
        return 0.0
    return 2.0 * T * n * math.exp(-(T - n) / (18.0 * summary.h1))


def ucbe_min_rounds(summary: InstanceSummary, delta: float) -> int:
    """Smallest round budget whose bound guarantees error below delta.

    This is the smallest integer strictly greater than
    18 * h1 * ln(2N / delta) + N.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = len(summary.a)
    rounds = 18.0 * summary.h1 * math.log(2.0 * n / delta) + n
    if not math.isfinite(rounds):
        raise ValueError(f"delta {delta} puts the minimum rounds beyond float range")
    return math.floor(rounds) + 1
