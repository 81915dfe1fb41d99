"""Amplification loop against the closed-form law it must obey."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dense import densify, oracle_matrix, step_matrix
from helpers import (ceiling, four_arm_exact, one_good, random_instance, two_arm_stochastic,
                     variant_run)
from qbandit.bandits import BanditInstance, arm_values
from qbandit.comparison import compare
from qbandit.errors import DegenerateInstance, InvariantViolation
from qbandit.instances import bernoulli_instance, one_good_arm
from qbandit.qbai import (
    CHECK_BLOCK_CELLS,
    SIM_AGREE_TOL,
    _householder,
    analytic_recommendation,
    build_operators,
    cross_check,
    grover_step,
    marginal_over_y,
    run_qbai,
    success_probability,
    sweep,
)
from qbandit.ucbe import RngStream


def completion(column: np.ndarray) -> np.ndarray:
    """Dense W of the Householder preparation whose first column is column:
    the environment preparation of one arm with len(column) outcomes."""
    c = np.asarray(column, dtype=complex)
    return densify(*_householder(c[None, :]), (1, c.size))


@pytest.mark.parametrize("seed", range(12))
def test_complete_unitary(seed):
    """The preparation completes a random unit column to a unitary."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 40))
    c = rng.normal(size=d) + (1j * rng.normal(size=d) if seed % 2 else 0.0)
    c = c / np.linalg.norm(c)
    u = completion(c)
    assert np.abs(u[:, 0] - c).max() <= 1e-14
    assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12
    assert np.array_equal(u, completion(c))


def test_complete_unitary_on_basis_vector():
    # first column e_2, so c0 = 0: the stable sign still gives a unit reflector
    u = completion(np.array([0.0, 0.0, 1.0, 0.0]))
    assert np.abs(u[:, 0] - np.array([0.0, 0.0, 1.0, 0.0])).max() <= 1e-15
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize(
    "column",
    [
        [1.0, 0.0, 0.0],        # e0 itself
        [0.0, 0.6, 0.8j],       # c0 = 0
        [0.6j, 0.0, -0.8],      # purely imaginary c0
        [0.36 + 0.48j, 0.8],    # complex c0
        [1.0],                  # length 1
        [-1j],                  # length 1, complex
        [1e-300, 1.0],          # c0 far below roundoff
    ],
)
def test_complete_unitary_edge_columns(column):
    c = np.asarray(column, dtype=complex)
    c = c / np.linalg.norm(c)
    u = completion(c)
    assert np.abs(u[:, 0] - c).max() <= 1e-14
    assert np.abs(u.conj().T @ u - np.eye(c.size)).max() <= 1e-12
    # the same columns as environment blocks, several arms at once
    stack = np.stack([c, c[::-1]])
    env = densify(*_householder(stack), (2, c.size))
    assert np.abs(env[:c.size, 0] - c).max() <= 1e-14
    assert np.abs(env[c.size:, c.size] - c[::-1]).max() <= 1e-14
    assert np.abs(env.conj().T @ env - np.eye(2 * c.size)).max() <= 1e-12


def test_build_operators_prepared_state():
    """psi0 amplitudes are alpha_x * sqrt(nu[x, y]) under real phases."""
    rng = np.random.default_rng(2)
    inst, alpha = random_instance(rng)
    ops = build_operators(inst, alpha)
    al = np.full(inst.n_arms, 1.0 / math.sqrt(inst.n_arms)) if alpha is None else alpha
    expected = (al[:, None] * np.sqrt(inst.nu)).reshape(-1)
    assert np.abs(ops.psi0_state.amps - expected).max() <= 1e-12
    assert np.array_equal(ops.sign, np.where(inst.f.T == 1, -1.0, 1.0))
    assert ops.reflection == "composite"
    tensor = build_operators(inst, alpha, reflection="tensor")
    assert tensor.reflection == "tensor"


def test_reflectors_are_stored_along_the_buffer():
    """alpha is one contiguous (N,) row, the environment reflectors an (M, N)
    array with arm x's reflector in column x, and the oracle sign an (M, N)
    array of -1 on rewarded pairs, all contiguous.  The readout indices
    list each rewarded and each unrewarded pair once, in x-major order."""
    rng = np.random.default_rng(6)
    inst, alpha = random_instance(rng)
    n, m = inst.n_arms, inst.n_env
    ops = build_operators(inst, alpha)
    assert ops.alpha.shape == (n,) and ops.alpha.flags.c_contiguous
    assert abs(np.linalg.norm(ops.alpha) - 1.0) <= 1e-14
    assert ops.u.shape == ops.u_conj.shape == (m, n)
    assert ops.u.flags.c_contiguous and ops.u_conj.flags.c_contiguous
    assert np.array_equal(ops.u_conj, ops.u.conj())
    assert np.abs(np.linalg.norm(ops.u, axis=0) - 1.0).max() <= 1e-14
    # the phases build_operators folds into alpha, from the instance's columns
    _, g = _householder(np.sqrt(inst.nu))
    assert g.shape == (n,)
    assert np.abs(np.abs(g) - 1.0).max() <= 1e-14
    assert ops.sign.shape == (m, n) and ops.sign.flags.c_contiguous
    assert np.array_equal(ops.sign, np.where(inst.f.T == 1, -1.0, 1.0))
    flat = np.arange(m * n).reshape(m, n).T.reshape(-1)
    good = (inst.f == 1).reshape(-1)
    assert np.array_equal(ops.good_index, flat[good])
    assert np.array_equal(ops.bad_index, flat[~good])
    # column x of the environment reflectors belongs to arm x
    arm = int(rng.integers(n))
    alone = build_operators(BanditInstance(nu=inst.nu[arm:arm + 1], f=inst.f[arm:arm + 1]))
    assert np.array_equal(ops.u[:, arm], alone.u[:, 0])


def test_build_operators_validation():
    inst = four_arm_exact()
    with pytest.raises(ValueError):
        build_operators(inst, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        build_operators(inst, np.full(4, 0.5 + 1e-6))
    with pytest.raises(ValueError):
        build_operators(inst, reflection="mirror")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_alpha_rejected(bad):
    """A NaN norm passes a tolerance test, so non-finite alpha is rejected first."""
    inst = two_arm_stochastic()
    for build in (build_operators, success_probability):
        with pytest.raises(ValueError, match="alpha must be finite"):
            build(inst, np.array([bad, 1.0]))


@pytest.mark.parametrize("complex_alpha", [False, True],
                         ids=["real-alpha", "complex-alpha"])
def test_prepared_state_carries_the_environment_phases(complex_alpha):
    """The kernel folds each arm's phase g into alpha, yet psi0_state is the
    true prepared state alpha_x c_x / |c_x|, c_x arm x's phased column
    sqrt(nu[x]) exp(2 pi i r) from the same draws r; one grover_step of it
    equals the dense step.  A fold by conj(g) would leave every law alone
    and move these phases."""
    rng = np.random.default_rng(12)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(5), size=6),
                          f=(rng.random((6, 5)) < 0.4).astype(int))
    alpha = rng.normal(size=6) + (1j * rng.normal(size=6) if complex_alpha else 0.0)
    alpha /= np.linalg.norm(alpha)
    ops = build_operators(inst, alpha, phase_rng=RngStream(8).generator())
    c = np.sqrt(inst.nu) * np.exp(2j * np.pi * RngStream(8).generator().random((6, 5)))
    want = alpha[:, None] * c / np.linalg.norm(c, axis=1)[:, None]
    psi0 = ops.psi0_state.amps
    assert np.abs(psi0 - want.reshape(-1)).max() <= 1e-15
    stepped = grover_step(ops, ops.psi0_state).amps
    assert np.abs(stepped - step_matrix(ops, inst.f == 1) @ psi0).max() <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_real_kernel_phases_are_exactly_minus_one(seed):
    """Real columns are normalized in float64, so every phase is -1 bit for
    bit and the kernel's alpha is exactly minus the agent amplitudes, on the
    uniform default and on a real alpha of +-1/16 entries, whose norm is
    exactly 1."""
    rng = np.random.default_rng(seed)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(16), size=256),
                          f=(rng.random((256, 16)) < 0.1).astype(int))
    signs = np.where(rng.random(256) < 0.5, -1.0, 1.0) / 16
    _, g = _householder(np.sqrt(inst.nu))
    assert g.dtype == np.float64
    assert np.array_equal(g, np.full(256, -1.0))
    for alpha, want in ((None, np.full(256, 1 / 16)), (signs, signs)):
        ops = build_operators(inst, alpha)
        assert ops.alpha.dtype == np.float64
        assert ops.alpha.tobytes() == (-want).tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_grover_step_matches_dense_reflection(seed):
    """W S W* O equals the dense (2|psi0><psi0| - I) O, whatever the completion."""
    rng = np.random.default_rng(400 + seed)
    inst, alpha = random_instance(rng)
    phase_rng = RngStream(seed).generator() if seed % 2 else None
    ops = build_operators(inst, alpha, phase_rng=phase_rng)
    psi0 = ops.psi0_state.amps
    step = (2.0 * np.outer(psi0, psi0.conj()) - np.eye(psi0.size)) @ oracle_matrix(inst.f == 1)
    state = ops.psi0_state
    dense = psi0
    for _ in range(20):
        state = grover_step(ops, state)
        dense = step @ dense
        assert np.abs(state.amps - dense).max() <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_tensor_and_random_phase_steps_match_dense_oracle(seed):
    """20 steps of every reflection and phase variant equal powers of the
    dense W S W* O, under complex alpha."""
    rng = np.random.default_rng(500 + seed)
    inst, _ = random_instance(rng)
    alpha = rng.normal(size=inst.n_arms) + 1j * rng.normal(size=inst.n_arms)
    alpha /= np.linalg.norm(alpha)
    reflection = ("composite", "tensor")[seed % 2]
    phase_rng = RngStream(seed).generator() if seed % 3 else None
    ops = build_operators(inst, alpha, reflection=reflection, phase_rng=phase_rng)
    step = step_matrix(ops, inst.f == 1)
    state = ops.psi0_state
    dense = state.amps
    for _ in range(20):
        state = grover_step(ops, state)
        dense = step @ dense
        assert np.abs(state.amps - dense).max() <= 1e-12


@pytest.mark.parametrize("log_n", [12, 14])
def test_simulator_tracks_closed_form_at_large_n(log_n):
    """One good arm among N to n_star: the kernel's agent-axis projections
    are pairwise sums, so the law and the norm stay within 1e-13, far inside
    the 1e-10 gate, where one-term-at-a-time sums drift by over 1e-12."""
    inst = one_good_arm(2**log_n)
    model = success_probability(inst)
    run = run_qbai(inst, n=model.n_star)
    assert np.abs(run.p_rec - model.p_rec(model.n_star)).max() <= 1e-13
    assert abs(math.hypot(run.good_amp, run.bad_amp) - 1.0) <= 1e-13


def held_bytes(obj) -> int:
    """Bytes of every array reachable through dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if not dataclasses.is_dataclass(obj):
        return 0
    return sum(held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))


def test_operator_memory_is_linear():
    """Operators and their build stay O(N*M): no N x N or (N, M, M) array.

    At N = 4096 a single N x N complex matrix is 16 N / M = 32768 bytes per
    amplitude, far above either bound.
    """
    inst = one_good_arm(4096)
    amplitudes = inst.n_arms * inst.n_env
    tracemalloc.start()
    try:
        ops = build_operators(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held_bytes(ops) <= 128 * amplitudes
    assert peak <= 256 * amplitudes


def test_success_probability_exact_quarter():
    params = success_probability(four_arm_exact())
    assert params.p == pytest.approx(0.25, abs=1e-15)
    assert params.theta == pytest.approx(math.pi / 6, rel=1e-15)
    assert params.n_star == 1


def test_success_probability_half_prefers_zero_steps():
    # one-hot alpha on an arm worth exactly 0.5 makes p = 1/2 with no
    # normalization rounding; one step overshoots, so zero steps win
    params = success_probability(bernoulli_instance([0.5, 0.25]), np.array([1.0, 0.0]))
    assert params.p == 0.5
    assert params.n_star == 0


def test_success_probability_sums_the_failure_mass_directly():
    # next to p = 1, 1 - p keeps only the digits of q above the rounding of p;
    # here 1 - a is exact, so the directly summed q is exact too
    model = success_probability(bernoulli_instance([1.0, 1.0 - 1e-12]))
    assert model.q == 0.5 * (1.0 - (1.0 - 1e-12))
    assert model.q != 1.0 - model.p


def test_success_probability_no_good_states():
    with pytest.raises(DegenerateInstance, match="p = 0"):
        success_probability(bernoulli_instance([0.0, 0.0]))


def test_n_star_picks_the_better_rounding():
    """n_star is the integer nearest to pi/(4 theta) - 1/2, the better of its
    floor and ceiling for the first peak.

    The rule is evaluated in mpmath from the model's p and q; draws within
    1e-9 of a half-integer are skipped, since there float rounding of theta
    may decide.  The exact tie at p = 1/2 is pinned by its own test.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(50):
        inst, alpha = random_instance(rng)
        model = success_probability(inst, alpha)
        with mpmath.workdps(40):
            theta = mpmath.atan2(mpmath.sqrt(model.p), mpmath.sqrt(model.q))
            raw = mpmath.pi / (4 * theta) - mpmath.mpf(1) / 2
            if abs(raw - mpmath.floor(raw) - mpmath.mpf(1) / 2) <= 1e-9:
                continue
            assert model.n_star == int(mpmath.floor(raw + mpmath.mpf(1) / 2))
        checked += 1
    assert checked >= 45


def test_rotation_identity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        inst, alpha = random_instance(rng)
        params = success_probability(inst, alpha)
        ops = build_operators(inst, alpha)
        mask = (inst.f == 1).reshape(-1)
        state = ops.psi0_state
        for n in range(31):
            if n > 0:
                state = grover_step(ops, state)
            good = float(np.linalg.norm(state.amps[mask]))
            assert abs(good - abs(math.sin((2 * n + 1) * params.theta))) <= 1e-10


def test_exact_amplification_cases():
    run = run_qbai(four_arm_exact(), n=1)
    assert np.abs(run.p_rec - np.array([1.0, 0.0, 0.0, 0.0])).max() <= 1e-12
    # the worthless arms carry cos^2(fl(3 theta)) / 3, about 1e-33, not 0
    analytic = analytic_recommendation(four_arm_exact(), None, 1)
    assert analytic[0] == 1.0
    assert np.all(np.abs(analytic[1:]) <= 1e-30)
    run2 = run_qbai(two_arm_stochastic(), n=1)
    assert run2.p_rec[0] == pytest.approx(1.0, abs=1e-12)


def _exact_law(inst: BanditInstance, n: int) -> tuple[list, np.ndarray]:
    """P_n of each distinct arm row under uniform alpha, in 50-digit mpmath.

    Works from the instance tables alone, as the mixture
    w [a sin^2((2n+1) theta) / p + (1 - a) cos^2((2n+1) theta) / q].  Returns
    the exact values and, for each, the index of one arm with that row.
    """
    mpmath = pytest.importorskip("mpmath")
    rows = np.concatenate([inst.nu, inst.f], axis=1)
    uniq, first, counts = np.unique(rows, axis=0, return_index=True,
                                    return_counts=True)
    m = inst.n_env
    with mpmath.workdps(50):
        w = mpmath.mpf(1) / inst.n_arms
        a = [mpmath.fsum(mpmath.mpf(v) * int(r) for v, r in zip(row[:m], row[m:]))
             for row in uniq.tolist()]
        p = w * mpmath.fsum(k * x for k, x in zip(counts.tolist(), a))
        q = w * mpmath.fsum(k * (1 - x) for k, x in zip(counts.tolist(), a))
        angle = (2 * n + 1) * mpmath.atan2(mpmath.sqrt(p), mpmath.sqrt(q))
        s, c = mpmath.sin(angle) ** 2, mpmath.cos(angle) ** 2
        exact = [w * (x * s / p + ((1 - x) * c / q if q else 0)) for x in a]
    return exact, first


@pytest.mark.parametrize(
    "inst, steps",
    [
        (one_good(2**18, 1e-6), None),
        (one_good(4096, 1e-3), None),
        (bernoulli_instance([1.0, 1.0, 1.0 - 1e-12]), (0, 1, 5)),
        (bernoulli_instance([1.0, 1.0 - 1e-9]), (0, 1, 5)),
        (bernoulli_instance([0.5, 0.1, 0.1, 0.1]), (10**6,)),
    ],
    ids=["tiny-p-2^18", "tiny-p-4096", "p-near-1-three-arms", "p-near-1-two-arms",
         "million-steps"],
)
def test_closed_form_matches_high_precision_law(inst, steps):
    """Every arm within 1e-9 relative of the exact law, where the absolute
    1e-10 gate cannot see the error: tiny p at n_star, p next to 1, and a
    step count far past the first peak.  steps=None means n_star."""
    mpmath = pytest.importorskip("mpmath")
    for n in steps or (success_probability(inst).n_star,):
        got = analytic_recommendation(inst, None, n)
        exact, arms = _exact_law(inst, n)
        for want, x in zip(exact, arms):
            if want != 0:
                rel = abs((mpmath.mpf(float(got[x])) - want) / want)
                assert rel <= 1e-9, (n, int(x), float(rel))


def test_success_next_to_one_stays_within_an_ulp():
    """The larger of sin^2 and cos^2 is taken as 1 minus the smaller, so a
    law value next to 1 keeps its error below 1 ulp: one good arm among 2048
    at n_star, exact value 0.99994535945560787442..., comes out
    0.9999453594556078 (0.60 ulp off), where squaring the rounded sine gave
    ...077 (1.60 ulp off)."""
    mpmath = pytest.importorskip("mpmath")
    inst = one_good_arm(2048)
    model = success_probability(inst)
    exact, arms = _exact_law(inst, model.n_star)
    got = model.p_rec(model.n_star)[0]
    assert arms[int(np.argmax([float(v) for v in exact]))] == 0
    ulp = np.spacing(got)
    assert abs(mpmath.mpf(float(got)) - max(exact)) < ulp
    assert compare(inst).qbai_success == got == 0.9999453594556078


@pytest.mark.parametrize("inst", [bernoulli_instance([0.5, 0.25, 0.25, 0.25]),
                                  one_good_arm(64)], ids=["four-arm", "one-good-arm-64"])
def test_int_step_count_matches_its_array_row_bit_for_bit(inst):
    """The law and the amplified mass at an int n equal row n of the array
    evaluation bit for bit, so validate and compare check the numbers that
    analytic prints."""
    model = success_probability(inst)
    ns = np.arange(2001)
    table, amplified = model.p_rec(ns), model.amplified(ns)
    for n in ns.tolist():
        assert model.p_rec(n).tobytes() == table[n].tobytes(), n
        assert np.float64(model.amplified(n)).tobytes() == amplified[n].tobytes(), n


def test_closed_form_frozen_values():
    inst = bernoulli_instance([0.5, 0.1, 0.1, 0.1])
    params = success_probability(inst)
    assert params.p == pytest.approx(0.2, rel=1e-12)
    assert params.n_star == 1
    assert math.sin(3 * params.theta) ** 2 == pytest.approx(0.968, rel=1e-12)
    p_rec = analytic_recommendation(inst, None, 1)
    assert np.allclose(p_rec, [0.61, 0.13, 0.13, 0.13], atol=1e-12)


def test_all_rewarded_is_fixed_point():
    """p = 1: every step leaves the arm marginal at |alpha|^2."""
    inst = BanditInstance(nu=np.full((3, 2), 0.5), f=np.ones((3, 2), dtype=int))
    params = success_probability(inst)
    assert params.p == 1.0
    assert params.n_star == 0
    weights = np.full(3, 1.0 / 3.0)
    for n in (0, 1, 5):
        assert np.abs(analytic_recommendation(inst, None, n) - weights).max() <= 1e-15
        run = run_qbai(inst, n=n)
        assert np.abs(run.p_rec - weights).max() <= 1e-10


def test_all_rewarded_above_one_is_fixed_point():
    """Rows within the normalization tolerance stay unrescaled, so an
    all-rewarded arm can reach a = 1 + 1e-10; the model clips it to 1."""
    nu = np.array([[0.5, 0.5000000001], [0.25, 0.7500000001]])
    inst = BanditInstance(nu=nu, f=np.ones((2, 2), dtype=int))
    model = success_probability(inst)
    assert model.q == 0.0
    assert model.n_star == 0
    for n in (0, 1, 5):
        p_rec = analytic_recommendation(inst, None, n)
        assert np.array_equal(p_rec, [0.5, 0.5])
        assert p_rec.flags.writeable
        assert np.abs(run_qbai(inst, n=n).p_rec - p_rec).max() <= 1e-10
    assert model.p_rec(np.arange(3)).flags.writeable


def test_unrescaled_all_rewarded_arm_keeps_the_law_non_negative():
    nu = np.array([[0.5, 0.5000000001], [0.5, 0.5]])
    inst = BanditInstance(nu=nu, f=np.array([[1, 1], [1, 0]]))
    model = success_probability(inst)
    assert model.a.max() == 1.0
    for n in range(6):
        p_rec = model.p_rec(n)
        assert p_rec.min() >= 0.0
        assert np.abs(run_qbai(inst, n=n).p_rec - p_rec).max() <= 1e-10


def test_period_six_at_quarter():
    # p = 1/4 gives theta = pi/6, so the rotation has period six
    inst = two_arm_stochastic()
    a = run_qbai(inst, n=1).p_rec
    b = run_qbai(inst, n=7).p_rec
    assert np.abs(a - b).max() <= 1e-8


def test_phase_scramble_leaves_marginals_alone():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst, alpha = random_instance(rng)
        plain = run_qbai(inst, alpha, 6)
        scrambled = variant_run(inst, alpha, 6, phase_rng=RngStream(99).generator())
        assert np.abs(plain.p_rec - scrambled.p_rec).max() <= 1e-10
        assert abs(plain.good_amp - scrambled.good_amp) <= 1e-10


def test_tensor_reflection_matches_composite_when_env_is_trivial():
    inst = four_arm_exact()   # M = 1: the two reflections coincide
    a = run_qbai(inst, n=2)
    b = variant_run(inst, None, 2, reflection="tensor")
    assert np.abs(a.p_rec - b.p_rec).max() <= 1e-12


def test_tensor_reflection_diverges_from_closed_form():
    """With a non-trivial environment the product reflection is a different
    operator, and the closed-form law genuinely does not apply to it."""
    inst = bernoulli_instance([0.5, 0.25, 0.25, 0.25])
    run = variant_run(inst, None, 1, reflection="tensor")
    analytic = analytic_recommendation(inst, None, 1)
    assert np.abs(run.p_rec - analytic).max() > 1e-6
    assert run.p_rec.sum() == pytest.approx(1.0, abs=1e-12)


def test_peak_recommendation_frozen_values():
    model = success_probability(bernoulli_instance([0.5, 0.1, 0.1, 0.1]))
    assert model.n_star == 1
    assert ceiling(model) == pytest.approx(0.625, rel=1e-12)
    assert model.p_rec(model.n_star)[0] == pytest.approx(0.61, rel=1e-12)
    exact = success_probability(four_arm_exact())
    assert ceiling(exact) == 1.0
    assert exact.p_rec(exact.n_star)[0] == 1.0


def test_peak_dominates_first_rise_and_ceiling_bounds_everything():
    rng = np.random.default_rng(33)
    for _ in range(20):
        inst, _ = random_instance(rng)
        model = success_probability(inst)
        x_star = int(np.argmax(arm_values(inst)))
        peak = model.p_rec(model.n_star)[x_star]
        # up to the first peak the optimal arm's probability only grows; a
        # tiny p puts that peak ~1/sqrt(p) steps out, so take blocks of steps
        for start in range(0, model.n_star + 1, 4096):
            ns = np.arange(start, min(start + 4096, model.n_star + 1))
            assert (peak + 1e-12 >= model.p_rec(ns)[:, x_star]).all()
        # the ceiling bounds every step count, not just the first rise
        for n in range(51):
            p_n = analytic_recommendation(inst, None, n)[x_star]
            assert p_n <= ceiling(model) + 1e-12


@pytest.mark.parametrize("n", [2_500, 10_000])
def test_simulator_deviation_grows_at_most_as_n_eps(n):
    """The simulator's deviation from the closed form grows about as n eps,
    which is what STEP_CEILING budgets for.  On four arms worth {1e-9,
    1e-10 x3} (n_star = 43566) it measures, as a multiple of n 2^-52,
    0.13 (law) and 0.020 (amplitude) at n = 2500, and 0.15 and 0.20 at
    n = 10000.  The bound c = 0.5 leaves a margin of at least 2.5x."""
    inst = bernoulli_instance([1e-9, 1e-10, 1e-10, 1e-10])
    law_dev, amp_dev = cross_check(success_probability(inst), [run_qbai(inst, n=n)])
    bound = 0.5 * n * 2.0**-52
    assert law_dev <= bound and amp_dev <= bound, (law_dev, amp_dev, bound)


def test_run_qbai_validation_and_state():
    with pytest.raises(ValueError):
        run_qbai(four_arm_exact(), n=-1)
    run = run_qbai(four_arm_exact(), n=3)
    assert run.good_amp**2 + run.bad_amp**2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m, real", [(2, False), (16, False), (2, True), (16, True)],
                         ids=["2", "16", "2-real", "16-real"])
def test_readout_matches_the_state_bit_for_bit(m, real):
    """Each run sweep reads off the kernel's buffer equals, bit for bit, what
    the StateVector that grover_step reaches gives.  At M = 16 numpy sums an
    arm's terms pairwise only along a contiguous row, so a readout summing
    across the buffer's rows would round differently.  On the real kernel
    (default alpha, no phases) the prepared state is float64 too, so
    grover_step steps in the same arithmetic as sweep."""
    rng = np.random.default_rng(40 + m)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(m), size=5),
                          f=(rng.random((5, m)) < 0.5).astype(int))
    if real:
        ops = build_operators(inst)
    else:
        alpha = rng.normal(size=5) + 1j * rng.normal(size=5)
        ops = build_operators(inst, alpha / np.linalg.norm(alpha),
                              phase_rng=RngStream(m).generator())
    good = (inst.f == 1).reshape(-1)
    state = ops.psi0_state
    assert state.amps.dtype == (np.float64 if real else np.complex128)
    for run in sweep(ops, 6):
        if run.n > 0:
            state = grover_step(ops, state)
        assert run.p_rec.tobytes() == marginal_over_y(state).tobytes()
        assert run.good_amp == float(np.linalg.norm(state.amps[good]))
        assert run.bad_amp == float(np.linalg.norm(state.amps[~good]))
    assert run.n == 6


@pytest.mark.parametrize("n_arms", [2**13, 2**15, 2**16, 10**5])
def test_simulator_matches_high_precision_law_at_many_arms(n_arms):
    """One good arm among n_arms to n_star against the two-valued law in
    40-digit mpmath: the best arm's value, the common value of the other
    arms, and the rewarded amplitude sqrt(sin^2((2n+1) theta)).  1/sqrt(N)
    is inexact at 2^13, 2^15 and 10^5."""
    mpmath = pytest.importorskip("mpmath")
    inst = one_good_arm(n_arms)
    n = success_probability(inst).n_star
    run = run_qbai(inst, n=n)
    rest = run.p_rec[1:]
    with mpmath.workdps(40):
        p = mpmath.mpf(0.5) / n_arms
        q = 1 - p
        s = mpmath.sin((2 * n + 1) * mpmath.atan2(mpmath.sqrt(p), mpmath.sqrt(q))) ** 2
        best, other = s + (1 - s) * p / q, (1 - s) / (n_arms * q)
        law_dev = max(abs(mpmath.mpf(float(run.p_rec[0])) - best),
                      abs(mpmath.mpf(float(rest.max())) - other),
                      abs(mpmath.mpf(float(rest.min())) - other))
        amp_dev = abs(mpmath.mpf(run.good_amp) - mpmath.sqrt(s))
    assert law_dev <= 1e-12, float(law_dev)
    assert amp_dev <= 1e-12, float(amp_dev)


def _prep_dtypes(ops) -> set:
    return {a.dtype for a in (ops.alpha, ops.u, ops.u_conj)}


def test_operator_dtype_follows_alpha_and_phases():
    """Real alpha (or uniform) without phases gives float64 operators; a
    phase scramble or complex alpha gives complex128.  The prepared state
    comes in the operators' dtype."""
    inst = bernoulli_instance([0.5, 0.25, 0.1])
    real_alpha = np.array([0.6, 0.0, 0.8])
    for alpha in (None, real_alpha):
        ops = build_operators(inst, alpha)
        assert _prep_dtypes(ops) == {np.dtype(np.float64)}
        assert ops.psi0_state.amps.dtype == np.float64
    for alpha, phase_rng in ((None, RngStream(1).generator()),
                             (real_alpha.astype(complex), None),
                             (np.array([0.6, 0.0, 0.8j]), None)):
        ops = build_operators(inst, alpha, phase_rng=phase_rng)
        assert _prep_dtypes(ops) == {np.dtype(np.complex128)}
        assert ops.psi0_state.amps.dtype == np.complex128


def _as_complex(ops):
    """The same operators with alpha, every reflector and the prepared
    state cast to complex128: the kernel's dtype is the prepared state's."""
    psi0 = ops.psi0_state
    return dataclasses.replace(ops, **{
        name: getattr(ops, name).astype(np.complex128)
        for name in ("alpha", "u", "u_conj")},
        psi0_state=dataclasses.replace(psi0, amps=psi0.amps.astype(np.complex128)))


@pytest.mark.parametrize("seed", range(8))
def test_real_kernel_matches_its_complex_cast(seed):
    """The float64 sweep and a sweep of the same operators cast to
    complex128 agree within 1e-14 at every step, under both reflections; so
    does one grover_step of the prepared state, which the real operators
    step in float64 and their complex cast in complex128."""
    rng = np.random.default_rng(700 + seed)
    inst, alpha = random_instance(rng)
    if alpha is not None:
        alpha = np.abs(alpha)
    ops = build_operators(inst, alpha, reflection=("composite", "tensor")[seed % 2])
    assert _prep_dtypes(ops) == {np.dtype(np.float64)}
    cops = _as_complex(ops)
    for real, cplx in zip(sweep(ops, 30), sweep(cops, 30)):
        assert np.abs(real.p_rec - cplx.p_rec).max() <= 1e-14, real.n
        assert abs(real.good_amp - cplx.good_amp) <= 1e-14, real.n
        assert abs(real.bad_amp - cplx.bad_amp) <= 1e-14, real.n
    stepped = grover_step(ops, ops.psi0_state)
    cstepped = grover_step(cops, cops.psi0_state)
    assert stepped.amps.dtype == np.float64
    assert cstepped.amps.dtype == np.complex128
    assert np.abs(stepped.amps - cstepped.amps).max() <= 1e-14


def per_run_cross_check(model, runs) -> tuple[float, float]:
    """cross_check's two maxima, the closed form evaluated at one n per run."""
    max_p_dev = max_amp_dev = 0.0
    for run in runs:
        max_p_dev = max(max_p_dev, float(np.abs(run.p_rec - model.p_rec(run.n)).max()))
        max_amp_dev = max(max_amp_dev,
                          abs(run.good_amp - math.sqrt(model.amplified(run.n))))
    return max_p_dev, max_amp_dev


def _many_block_sweep():
    """1600 arms, so cross_check reads 10 runs a block:
    46 runs make four full blocks and a last one of six."""
    assert CHECK_BLOCK_CELLS // 1600 == 10
    rng = np.random.default_rng(31)
    inst = BanditInstance(nu=rng.dirichlet(np.ones(3), size=1600),
                          f=(rng.random((1600, 3)) < 0.3).astype(int))
    return success_probability(inst), list(sweep(build_operators(inst), 45))


def test_blocked_cross_check_equals_the_per_run_check():
    model, runs = _many_block_sweep()
    assert cross_check(model, runs) == per_run_cross_check(model, runs)
    # a one-shot generator is read once, block by block
    assert cross_check(model, (run for run in runs)) == per_run_cross_check(model, runs)


@pytest.mark.parametrize("field", ["p_rec", "good_amp"])
def test_blocked_cross_check_catches_a_run_in_the_last_block(field):
    """A run 1e-9 off in the last, partial block fails the check."""
    model, runs = _many_block_sweep()
    runs[-2] = dataclasses.replace(runs[-2], **{field: getattr(runs[-2], field) + 1e-9})
    assert per_run_cross_check(model, runs)[field == "good_amp"] > SIM_AGREE_TOL
    with pytest.raises(InvariantViolation, match="disagree"):
        cross_check(model, iter(runs))


@pytest.mark.parametrize("field", ["p_rec", "good_amp"])
def test_cross_check_fails_on_a_nan_run(field):
    """A NaN deviation compares false with the tolerance, so it must not be
    dropped on the way to the maximum."""
    model, runs = _many_block_sweep()
    runs[12] = dataclasses.replace(runs[12], **{field: getattr(runs[12], field) * math.nan})
    with pytest.raises(InvariantViolation, match="nan"):
        cross_check(model, runs)
