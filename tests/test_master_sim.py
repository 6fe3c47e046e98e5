import copy
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from kinlab import cli, master_sim
from kinlab.geometry import (
    ConservationMode,
    DegenerateStateError,
    ManifoldSpec,
    NonFiniteStateError,
    block_states,
    constraint_errors,
    sample_uniform_batch,
)
from kinlab.master_sim import (
    KernelSpec,
    SimConfig,
    TestPolynomial,
    _capped_beta,
    _capped_norm,
    _n_rounds,
    _pair_round_kick,
    _rotate_rows,
    generator_apply,
    run_ensemble,
    sheared_sampler,
    shifted_sampler,
    step_pair_diffusion,
    step_sphere_diffusion,
    tagged_shift_sampler,
    uniform_sampler,
)
from kinlab.observables import radial_ks_statistic
from kinlab.spectral import eigenvalue_scaled

from oracles import (
    AntitheticGenerator,
    capped_norm_axis_sum,
    generator_apply_fd,
    generator_conservation_residuals,
    pair_kick_contraction,
    pair_projector_apply,
    restoration_inputs,
    run_sphere_whole,
    sample_uniform_whole,
    sphere_step_contraction,
    step_pair_diffusion_reference,
    step_sphere_diffusion_reference,
)


COULOMB = KernelSpec(-3.0)


def kick_round(states, k_idx, l_idx, eta, gamma, cutoff, diff_scale, dt):
    """Kick the (R, P) pairs (k_idx, l_idx) of (R, N, 3) states in place
    with (R, P, 3) noise, through the sweep's component-major round layout:
    k sides, then l sides, then the remaining particles."""
    r, n, _ = states.shape
    rest = [[i for i in range(n) if i not in set(k) | set(l)]
            for k, l in zip(k_idx, l_idx)]
    layout = np.concatenate([k_idx, l_idx, np.array(rest, dtype=int).reshape(r, -1)],
                            axis=1)
    rows = np.arange(r)[:, None]
    work = np.ascontiguousarray(states[rows, layout].transpose(2, 1, 0))
    _pair_round_kick(work, np.ascontiguousarray(eta.transpose(2, 1, 0)), gamma,
                     cutoff, diff_scale, dt)
    states[rows, layout] = work.transpose(2, 1, 0)


def test_kernel_validation():
    for gamma in (-5.0, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(gamma)
    assert KernelSpec(-4.9).gamma == -4.9
    # the pair cutoff is the manifold's, 1e-8 sqrt(eps)
    assert ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=4.0).cutoff == \
        pytest.approx(2e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_end=1.0, n_replicas=1)
    with pytest.raises(ValueError):
        SimConfig(dt=0.1, t_end=0.05, n_replicas=1)
    cfg = SimConfig(dt=0.1, t_end=0.0, n_replicas=1)
    assert cfg.n_steps == 0


def test_t_end_and_snapshot_times_share_one_step_grid_rule():
    # a time within 1e-9 of a step is that step, for t_end as for the
    # snapshot times; a negative t_end or one between two steps is refused
    t = 0.01 * (1 - 1e-10)
    cfg = SimConfig(dt=0.01, t_end=t, n_replicas=2)
    assert cfg.n_steps == 1
    assert cfg.snapshot_steps([t]) == {1: t}
    for t_end in (-0.05, 0.005):
        with pytest.raises(ValueError, match="^t_end must be a multiple of dt"):
            SimConfig(dt=0.01, t_end=t_end, n_replicas=2)


def test_non_finite_dt_or_t_end_is_named():
    for name in ("dt", "t_end"):
        for value in (math.inf, -math.inf, math.nan):
            times = {"dt": 0.01, "t_end": 0.02, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SimConfig(n_replicas=2, **times)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_snapshot_time_is_not_a_step(t):
    cfg = SimConfig(dt=0.01, t_end=0.02, n_replicas=2)
    match = f"^snapshot time {t} is not a step of the run"
    with pytest.raises(ValueError, match=match):
        cfg.snapshot_steps([0.01, t])
    spec = ManifoldSpec(4, ConservationMode.ENERGY_ONLY, eps=1.0)
    with pytest.raises(ValueError, match=match):
        run_ensemble(spec, cfg, ["sum_v1"], rng=np.random.default_rng(0),
                     snapshot_times=[t])


def test_round_layout_is_a_round_robin_schedule():
    # a sweep of particle labels: gathered in a random relabeled order, the
    # rows rotated from round to round form perfect matchings (i, P + i);
    # over the n_rounds rounds every unordered pair appears exactly once,
    # for odd n each particle has the bye (row n - 1) once; the n_rounds
    # rotations, one after each round, bring every row home, so the scatter
    # through the relabeling itself returns every row to its own particle
    for n in (2, 3, 4, 5, 8, 9, 16, 33):
        n_rounds = _n_rounds(n)
        p = n // 2
        assert n_rounds == n - 1 + n % 2
        labels = np.arange(n)[None, :]
        perm = np.argsort(np.random.default_rng(n).random((1, n)), axis=1)
        work, spare = labels[:, perm[0]], np.empty_like(labels)
        pairs, byes = set(), []
        for _ in range(n_rounds):
            row = work[0].tolist()
            pairs.update(frozenset(kl) for kl in zip(row[:p], row[p:2 * p]))
            byes += row[2 * p:]
            _rotate_rows(work, spare)
            work, spare = spare, work
        assert len(pairs) == n_rounds * p == n * (n - 1) // 2
        assert sorted(byes) == (list(range(n)) if n % 2 else [])
        np.testing.assert_array_equal(work, labels[:, perm[0]])
        back = np.full_like(labels, -1)
        back[:, perm[0]] = work
        np.testing.assert_array_equal(back, labels)


@pytest.mark.parametrize("n, mode, gamma, antithetic", [
    (2, ConservationMode.ENERGY_MOMENTUM, -3.0, False),
    # the odd and the even ring of length 3
    (3, ConservationMode.ENERGY_ONLY, -3.0, False),
    (4, ConservationMode.ENERGY_MOMENTUM, 0.0, False),
    (9, ConservationMode.ENERGY_ONLY, 3.0, False),
    (33, ConservationMode.ENERGY_MOMENTUM, -4.5, False),
    (64, ConservationMode.ENERGY_ONLY, 0.0, False),
    (7, ConservationMode.ENERGY_MOMENTUM, -3.0, True),
])
def test_pair_sweep_matches_natural_order_reference(n, mode, gamma, antithetic):
    spec = ManifoldSpec(n, mode, eps=1.5)
    kernel = KernelSpec(gamma)
    start = sample_uniform_batch(spec, 6, np.random.default_rng(n))
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    if antithetic:
        rng_a, rng_b = AntitheticGenerator(rng_a), AntitheticGenerator(rng_b)
    # the first step's round 0 has, in replica 0, a pair 1e-9 sqrt(eps)
    # apart, below the cutoff, and (for P >= 2) a coincident pair, beside
    # the pairs it kicks: pair i of a round is rows i and P + i of the
    # relabeling
    perm = np.argsort(copy.deepcopy(rng_a).random((6, n)), axis=1)
    p = n // 2
    for i, sep in enumerate([0.0, 1e-9 * math.sqrt(spec.eps)][-p:]):
        start[0, perm[0, p + i]] = start[0, perm[0, i]] + [sep, 0.0, 0.0]
    a, b = start.copy(), start.copy()
    # both steps restore in place; the kicked arrays are captured before that
    with restoration_inputs(master_sim, oracles) as kicked:
        for step in range(3):
            assert step_pair_diffusion(spec, a, kernel, 0.02, rng_a) is a
            step_pair_diffusion_reference(spec, b, kernel, 0.02, rng_b)
            np.testing.assert_array_equal(a, b)
            assert len(kicked) == 2 * (step + 1)
            np.testing.assert_array_equal(kicked[-2], kicked[-1])


def test_antithetic_generator_pairs_its_halves():
    gen = AntitheticGenerator(np.random.default_rng(1))
    u = gen.random((4, 5))
    np.testing.assert_array_equal(u[:2], u[2:])
    g = gen.standard_normal((4, 2, 3))
    np.testing.assert_array_equal(g[:2], -g[2:])
    for draw in (gen.random, gen.standard_normal):
        with pytest.raises(ValueError, match="even"):
            draw((3, 2))


@pytest.mark.parametrize("n", [3, 5])
def test_pair_sweep_exchangeable_in_law(n):
    # relabeling the particles of the start state relabels the law of the
    # sweep: from V and from V permuted by sigma, the per-particle mean
    # velocities after one sweep agree once relabeled. A long step makes a
    # schedule that favours some labels visible: a sweep with a fixed round
    # order and no relabeling misses by 7 stderr at N=5
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    rng = np.random.default_rng(70 + n)
    v = sample_uniform_batch(spec, 1, rng)[0]
    sigma = np.roll(np.arange(n), 1)
    m = 20000
    a = step_pair_diffusion(spec, np.broadcast_to(v, (m, n, 3)).copy(),
                            KernelSpec(0.0), 1.0, rng)[:, sigma]
    b = step_pair_diffusion(spec, np.broadcast_to(v[sigma], (m, n, 3)).copy(),
                            KernelSpec(0.0), 1.0, rng)
    se = np.hypot(a.std(0, ddof=1), b.std(0, ddof=1)) / math.sqrt(m)
    assert (np.abs(a.mean(0) - b.mean(0)) <= 5 * se).all()


def test_sphere_step_preserves_constraints(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1, 0, 0])
    v = sample_uniform_batch(spec, 1, rng)
    for _ in range(50):
        v = step_sphere_diffusion(spec, v, 1e-3, rng.standard_normal((1, 8, 3)))
        energy_err, mom_err = constraint_errors(spec, v)
        assert abs(energy_err[0]) <= 1e-12
        assert mom_err[0] <= 1e-12



SPHERE_SPECS = {
    "c1": ManifoldSpec(7, ConservationMode.ENERGY_ONLY, eps=1.5),
    "c4_u": ManifoldSpec(7, ConservationMode.ENERGY_MOMENTUM, eps=1.5,
                         u=[1.0, -0.5, 0.25]),
}

# N = 512 and R = 100: sphere steps and samples run in replica blocks of
# 42, 42 and 16 (``geometry.block_states``)
BLOCKED_SPECS = {
    "c1": ManifoldSpec(512, ConservationMode.ENERGY_ONLY, eps=1.5),
    "c4_u": ManifoldSpec(512, ConservationMode.ENERGY_MOMENTUM, eps=1.5,
                         u=[1.0, -0.5, 0.25]),
}


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
@pytest.mark.parametrize("dt", [1e-6, 1e-3, 0.1])
def test_sphere_step_matches_two_call_reference(mode, dt, rng):
    spec = SPHERE_SPECS[mode]
    states = sample_uniform_batch(spec, 5, rng)
    ref = states.copy()
    for _ in range(4):
        xi = rng.standard_normal(states.shape)
        states = step_sphere_diffusion(spec, states, dt, xi)
        ref = step_sphere_diffusion_reference(spec, ref, dt, xi)
        np.testing.assert_allclose(states, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
def test_sphere_step_updates_states_in_place(mode, rng):
    # the step overwrites and returns the states array and only reads xi
    spec = SPHERE_SPECS[mode]
    states = sample_uniform_batch(spec, 4, rng)
    xi = rng.standard_normal(states.shape)
    ref = step_sphere_diffusion_reference(spec, states.copy(), 1e-2, xi)
    xi_before = xi.copy()
    assert step_sphere_diffusion(spec, states, 1e-2, xi) is states
    np.testing.assert_array_equal(xi, xi_before)
    np.testing.assert_allclose(states, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
@pytest.mark.parametrize("where", ["states", "xi"])
def test_sphere_step_names_non_finite_replica(mode, where, rng):
    spec = SPHERE_SPECS[mode]
    arrays = {"states": sample_uniform_batch(spec, 6, rng)}
    arrays["xi"] = rng.standard_normal(arrays["states"].shape)
    arrays[where][3, 2, 1] = np.nan
    with pytest.raises(NonFiniteStateError) as info:
        step_sphere_diffusion(spec, arrays["states"], 1e-3, arrays["xi"])
    assert info.value.replicas == [3]


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
def test_sphere_step_rejects_zero_deviation(mode, rng):
    spec = SPHERE_SPECS[mode]
    states = sample_uniform_batch(spec, 3, rng)
    states[1] = spec.u
    with pytest.raises(DegenerateStateError):
        step_sphere_diffusion(spec, states, 1e-3, rng.standard_normal(states.shape))


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
def test_sphere_step_peak_allocation(mode, rng):
    # the step runs in place on the states: it holds per-replica vectors
    # and ufunc buffers only, no array of the states' shape
    spec = ManifoldSpec(64, SPHERE_SPECS[mode].mode, eps=1.5, u=SPHERE_SPECS[mode].u)
    states = sample_uniform_batch(spec, 256, rng)
    xi = rng.standard_normal(states.shape)
    step_sphere_diffusion(spec, states, 1e-3, xi)  # warm caches outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        step_sphere_diffusion(spec, states, 1e-3, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * states.nbytes

def test_pair_step_conserves_and_restores_pairs(rng):
    spec = ManifoldSpec(6, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)
    for _ in range(50):
        v = step_pair_diffusion(spec, v, COULOMB, 1e-3, rng)
        energy_err, mom_err = constraint_errors(spec, v)
        assert abs(energy_err[0]) <= 1e-12
        assert mom_err[0] <= 1e-12


def test_pair_round_restores_alpha_beta_exactly(rng):
    # single-round check: pair momentum and separation restored to machine
    # precision before any global renormalization
    spec = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    states = sample_uniform_batch(spec, 64, rng)
    k_idx = np.tile([0, 1], (64, 1))[:, :1]
    l_idx = np.tile([2, 3], (64, 1))[:, :1]
    before_alpha = states[np.arange(64), 0] + states[np.arange(64), 2]
    before_beta = np.linalg.norm(states[np.arange(64), 0] - states[np.arange(64), 2], axis=1)
    eta = rng.standard_normal((64, 1, 3))
    kick_round(states, k_idx, l_idx, eta, -3.0, 1e-8, 2.0 / 3.0, 1e-3)
    after_alpha = states[np.arange(64), 0] + states[np.arange(64), 2]
    after_beta = np.linalg.norm(states[np.arange(64), 0] - states[np.arange(64), 2], axis=1)
    np.testing.assert_allclose(after_alpha, before_alpha, atol=1e-14)
    np.testing.assert_allclose(after_beta, before_beta, rtol=1e-13)


def test_pair_round_kick_is_the_projected_increment(rng):
    # to leading order one round moves pair (k, l) by amp * P_kl x, with
    # x_k = eta, x_l = -eta and amp = sqrt(2 beta^{2+gamma} dt / (N-1));
    # restoring the separation adds O(dt), so the relative error falls like
    # sqrt(dt). N = 5 leaves particle 4 out of the round (the bye).
    n, gamma = 5, -3.0
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)
    k_idx = np.array([[0, 2]])
    l_idx = np.array([[1, 3]])
    eta = rng.standard_normal((1, 2, 3))
    errors = []
    for dt in (1e-4, 1e-5):
        states = v.copy()
        kick_round(states, k_idx, l_idx, eta.copy(), gamma, spec.cutoff,
                   2.0 / (n - 1), dt)
        expect = np.zeros_like(v)
        for i, (k, l) in enumerate(zip(k_idx[0], l_idx[0])):
            beta = np.linalg.norm(v[0, k] - v[0, l])
            amp = math.sqrt(2.0 * beta ** (2.0 + gamma) * dt / (n - 1))
            x = np.zeros_like(v)
            x[0, k] = eta[0, i]
            x[0, l] = -eta[0, i]
            expect += amp * pair_projector_apply(spec, v, k, l, x)
        increment = states - v
        assert np.all(increment[0, 4] == 0.0)
        errors.append(np.linalg.norm(increment - expect) / np.linalg.norm(expect))
    assert errors[0] < 1e-2
    assert errors[0] / errors[1] == pytest.approx(math.sqrt(10.0), rel=1e-2)


def test_pair_step_skips_coincident_pairs():
    spec = ManifoldSpec(6, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    p = np.zeros((6, 3))
    p[0] = p[1] = [1.0, 0.0, 0.0]       # coincident pair
    p[2] = [-1.0, 0.0, 0.0]             # a pair below the cutoff
    p[3] = p[2] + [1e-9 * math.sqrt(spec.eps), 0.0, 0.0]
    p[4] = [0.0, 1.0, 0.0]              # a pair kicked in the same round
    p[5] = [0.0, -1.0, 0.0]
    states = p[None].copy()
    k_idx = np.array([[0, 2, 4]])
    l_idx = np.array([[1, 3, 5]])
    eta = np.ones((1, 3, 3))
    kick_round(states, k_idx, l_idx, eta, -3.0, spec.cutoff, 0.4, 1e-3)
    np.testing.assert_array_equal(states[0, :4], p[:4])
    assert np.all(states[0, 4:] != p[4:])


def test_exchangeability_equivariance(rng):
    # permuting particles, pair labels and reusing the same noise yields the
    # permuted update (S_N symmetry of the dynamics)
    spec = ManifoldSpec(6, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    states = sample_uniform_batch(spec, 1, rng)
    perm = rng.permutation(6)
    k_idx = np.array([[0, 2, 4]])
    l_idx = np.array([[1, 3, 5]])
    eta = rng.standard_normal((1, 3, 3))
    a = states.copy()
    kick_round(a, k_idx, l_idx, eta, -3.0, spec.cutoff, 0.4, 1e-3)
    b = states[:, perm].copy()
    inv = np.argsort(perm)
    kick_round(b, inv[k_idx], inv[l_idx], eta, -3.0, spec.cutoff, 0.4, 1e-3)
    np.testing.assert_allclose(b, a[:, perm], atol=1e-12)
    # same for the isotropic step with explicit noise
    xi = rng.standard_normal((1, 6, 3))
    sa = step_sphere_diffusion(spec, states.copy(), 1e-3, xi)
    sb = step_sphere_diffusion(spec, states[:, perm].copy(), 1e-3, xi[:, perm])
    np.testing.assert_allclose(sb, sa[:, perm], atol=1e-12)


def test_generator_conserves_energy_and_momentum(spec_c4, rng):
    # from the generator's own arithmetic, not from hard-coded zeros
    v = sample_uniform_batch(spec_c4, 1, rng)[0]
    for kernel in (COULOMB, KernelSpec(0.0)):
        residuals = generator_conservation_residuals(spec_c4, v, kernel)
        assert len(residuals) == 4
        assert max(residuals) <= 1e-12


def test_generator_coordinate_closed_form_n2(rng):
    spec = ManifoldSpec(2, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    d = v[0] - v[1]
    beta = np.linalg.norm(d)
    expect = -4.0 * d[0] / beta ** 3
    assert generator_apply(spec, v, COULOMB, TestPolynomial.coord(0, 0)) == \
        pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("gamma", [-3.0, -2.0, 0.0, 3.0])
def test_generator_matches_finite_differences(gamma, rng):
    spec = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    kernel = KernelSpec(gamma)
    polys = [
        TestPolynomial.coord(0, 0),
        TestPolynomial.coord(2, 1),
        TestPolynomial.quad(0, 0, 1, 1),
        TestPolynomial.quad(0, 0, 0, 1),
        TestPolynomial.quad(3, 2, 3, 2),
        TestPolynomial.quad(1, 0, 2, 0),
    ]
    for phi in polys:
        cf = generator_apply(spec, v, kernel, phi)
        fd = generator_apply_fd(spec, v, kernel, phi)
        assert cf == pytest.approx(fd, rel=2e-7, abs=1e-9)


@pytest.mark.parametrize("batch", [False, True])
def test_generator_norms_match_the_axis_norm(batch, rng):
    # the generator's capped separations sum components 0, 1, 2 through
    # geometry.dot3, bit for bit with np.linalg.norm over the last axis, on
    # one state and on a batch, with a coincident pair capped at the cutoff
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    p = sample_uniform_batch(spec, 50, rng)
    p[:, 3] = p[:, 5]
    p = p if batch else p[0]
    for k in (0, 3):
        d, beta = _capped_beta(p, k, spec.cutoff)
        assert np.array_equal(beta, capped_norm_axis_sum(d, spec.cutoff))
    for k, m in ((0, 1), (3, 5)):
        d_km = p[..., k, :] - p[..., m, :]
        got = _capped_norm(d_km, spec.cutoff)
        assert np.shape(got) == p.shape[:-2]
        assert np.array_equal(got, capped_norm_axis_sum(d_km, spec.cutoff))
    assert np.all(_capped_norm(p[..., 3, :] - p[..., 5, :], spec.cutoff) == spec.cutoff)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
def test_gamma0_generator_exact_eigenfunctions(n, mode, rng):
    # at gamma = 0 the weight |d|^2 maps polynomials of degree <= 2 to
    # themselves: centered coordinates and centered anisotropic second
    # moments are eigenfunctions at every state, vbar = P/N being the
    # state's own mean velocity (u on the energy-momentum sphere)
    base = SPHERE_SPECS[mode]
    spec = ManifoldSpec(n, base.mode, eps=base.eps, u=base.u)
    v = sample_uniform_batch(spec, 4, rng)
    kernel = KernelSpec(0.0)

    def gen(*args):
        make = TestPolynomial.coord if len(args) == 2 else TestPolynomial.quad
        return generator_apply(spec, v, kernel, make(*args))

    def check(l_f, f, rate):
        expect = -rate * f
        assert np.all(np.abs(l_f - expect) <= 1e-12 * (1.0 + np.abs(expect)))

    vbar = v.mean(axis=1)
    l_coord = np.array([[gen(k, s) for s in range(3)] for k in range(n)])
    l_coord = l_coord.transpose(2, 0, 1)   # (R, N, 3), as v
    for k in range(n):
        for s in range(3):
            check(l_coord[..., k, s] - l_coord[..., s].mean(axis=-1),
                  v[:, k, s] - vbar[:, s], 4.0 * n / (n - 1))

    p = v.sum(axis=1)

    def l_second_moment(s, t):
        # L of sum_k v_ks v_kt - P_s P_t / N, term by term
        return (sum(gen(k, s, k, t) for k in range(n))
                - sum(gen(k, s, m, t) for k in range(n) for m in range(n)) / n)

    rate2 = 12.0 * n / (n - 1)
    check(l_second_moment(0, 1),
          (v[..., 0] * v[..., 1]).sum(axis=1) - p[:, 0] * p[:, 1] / n, rate2)
    check(l_second_moment(0, 0) - l_second_moment(1, 1),
          (v[..., 0] ** 2 - v[..., 1] ** 2).sum(axis=1)
          - (p[:, 0] ** 2 - p[:, 1] ** 2) / n, rate2)


def test_pair_weak_consistency_small(rng):
    # one-step drift against the generator oracle (antithetic noise);
    # a light version of acceptance criterion 6
    spec = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    dt = 1e-4
    m = 60000
    for phi in (TestPolynomial.coord(0, 0), TestPolynomial.quad(0, 0, 1, 1)):
        base = np.broadcast_to(v, (2 * m, 4, 3)).copy()
        out = step_pair_diffusion(spec, base, COULOMB, dt,
                                  AntitheticGenerator(np.random.default_rng(5)))
        vals = phi.evaluate(out)
        drift = (0.5 * (vals[:m] + vals[m:]) - phi.evaluate(v))
        est = drift.mean() / dt
        se = drift.std(ddof=1) / math.sqrt(m) / dt
        gen = generator_apply(spec, v, COULOMB, phi)
        assert abs(est - gen) <= max(0.1 * abs(gen), 4 * se)


def test_sphere_weak_consistency_small(rng):
    spec = ManifoldSpec(4, ConservationMode.ENERGY_ONLY, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    lam = eigenvalue_scaled(spec, 1)
    dt = 1e-4
    m = 60000
    xi = np.random.default_rng(6).standard_normal((m, 4, 3))
    xi = np.concatenate([xi, -xi])
    out = step_sphere_diffusion(spec, np.broadcast_to(v, (2 * m, 4, 3)).copy(),
                                dt, xi)
    phi0 = v[:, 0].sum()
    vals = out[:, :, 0].sum(1)
    drift = 0.5 * (vals[:m] + vals[m:]) - phi0
    est = drift.mean() / dt
    assert est == pytest.approx(-lam * phi0, rel=0.05)


def test_run_ensemble_determinism(spec_c1):
    cfg = SimConfig(dt=1e-3, t_end=0.01, n_replicas=16, record_every=2)
    a = run_ensemble(spec_c1, cfg, ["sum_v1", "energy_per_particle"],
                     rng=np.random.default_rng(99))
    b = run_ensemble(spec_c1, cfg, ["sum_v1", "energy_per_particle"],
                     rng=np.random.default_rng(99))
    for name in a.series:
        np.testing.assert_array_equal(a.series[name].means, b.series[name].means)
        np.testing.assert_array_equal(a.series[name].stderrs, b.series[name].stderrs)


def test_run_ensemble_single_snapshot_pair(spec_c1):
    cfg = SimConfig(dt=1e-3, t_end=1e-3, n_replicas=1)
    res = run_ensemble(spec_c1, cfg, ["energy_per_particle"], rng=np.random.default_rng(1))
    s = res.series["energy_per_particle"]
    np.testing.assert_allclose(s.times, [0.0, 1e-3])
    np.testing.assert_allclose(s.means, [1.0, 1.0], atol=1e-12)


def test_run_ensemble_t_end_zero_is_empty(spec_c1, producer_starts):
    cfg = SimConfig(dt=1e-3, t_end=0.0, n_replicas=2)
    res = run_ensemble(spec_c1, cfg, ["sum_v1"], rng=np.random.default_rng(1))
    assert res.series["sum_v1"].times.size == 0
    assert producer_starts == []


def test_equilibrium_moments_stationary(rng):
    # from a uniform start every moment observable is statistically flat
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    cfg = SimConfig(dt=2e-3, t_end=0.5, n_replicas=4096, record_every=50)
    res = run_ensemble(spec, cfg, ["sum_v1", "sum_v1v2"], rng=np.random.default_rng(7),
                       initial_sampler=uniform_sampler)
    for name in ("sum_v1", "sum_v1v2"):
        s = res.series[name]
        assert np.all(np.abs(s.means) <= 4.0 * s.stderrs + 1e-12)


def test_pair_process_equilibrium_preservation(rng):
    # conserved observables exactly flat; moment observables statistically
    # stationary from a uniform start
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    cfg = SimConfig(dt=2e-3, t_end=0.2, n_replicas=512,
                    kernel=COULOMB, record_every=20)
    res = run_ensemble(spec, cfg, ["energy_per_particle",
                                   "momentum_per_particle_1", "sum_v1v2"],
                       rng=np.random.default_rng(3))
    np.testing.assert_allclose(res.series["energy_per_particle"].means, 1.0,
                               atol=1e-12)
    np.testing.assert_allclose(res.series["momentum_per_particle_1"].means, 0.0,
                               atol=1e-12)
    s = res.series["sum_v1v2"]
    assert np.all(np.abs(s.means) <= 4.0 * s.stderrs + 1e-12)


@pytest.mark.parametrize("gamma", [None, -3.0, 0.0])
def test_uniform_law_exactly_invariant_at_large_dt(gamma, rng):
    # both chains keep the uniform law exactly at any dt: a pair move's
    # kernel on its pair sphere depends only on the angle it turns, and the
    # sphere step is the same construction on the whole manifold. Three
    # steps at dt = 1 from exact uniform samples must leave a uniform sample
    # (gamma None: the sphere step)
    n, m = 8, 40000
    spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
    v = sample_uniform_batch(spec, m, rng)
    for _ in range(3):
        if gamma is None:
            v = step_sphere_diffusion(spec, v, 1.0, rng.standard_normal(v.shape))
        else:
            v = step_pair_diffusion(spec, v, KernelSpec(gamma), 1.0, rng)
    ks, pooled = radial_ks_statistic(v, spec)
    assert pooled == n * m
    # Kolmogorov tail P(sqrt(m) D > x) <= 2 exp(-2 x^2) at 1e-6
    assert ks < math.sqrt(math.log(2e6) / 2.0) / math.sqrt(pooled)
    # |v_k|^2 / (2 N eps) ~ Beta(a, b): E sum_k |v_k|^4 in closed form
    a, b = 1.5, (3 * n - 3) / 2.0
    exact = n * (2 * n * spec.eps) ** 2 * a * (a + 1) / ((a + b) * (a + b + 1))
    fourth = (np.einsum("rki,rki->rk", v, v) ** 2).sum(axis=1)
    z = (fourth.mean() - exact) / (fourth.std(ddof=1) / math.sqrt(m))
    assert abs(z) <= 5.0


@pytest.mark.parametrize("process", ["sphere", "pair"])
def test_run_ensemble_names_breakdown_step_and_replica(process, spec_c4, producer_starts):
    def nan_in_replica_3(spec, n_states, rng):
        states = sample_uniform_batch(spec, n_states, rng)
        states[3, 1, 2] = np.nan
        return states

    cfg = SimConfig(dt=1e-3, t_end=0.005, n_replicas=6,
                    kernel=COULOMB if process == "pair" else None)
    assert cfg.process == process
    before = threading.active_count()
    with pytest.raises(NonFiniteStateError, match="step 1") as info:
        run_ensemble(spec_c4, cfg, ["sum_v1v2"], rng=np.random.default_rng(1),
                     initial_sampler=nan_in_replica_3)
    assert threading.active_count() == before
    assert producer_starts == [2 if process == "sphere" else 4]
    assert info.value.step == 1
    assert info.value.replicas == [3]


@pytest.mark.parametrize("mode", sorted(BLOCKED_SPECS))
def test_run_ensemble_names_bad_replicas_across_blocks(mode):
    # replica 5 is in the first block and replica 90 in the third: the
    # other blocks are still stepped and both are named by global index
    def nan_in_replicas_5_and_90(spec, n_states, rng):
        states = sample_uniform_batch(spec, n_states, rng)
        states[[5, 90], 0, 1] = np.nan
        return states

    spec = BLOCKED_SPECS[mode]
    assert block_states(spec.n_particles) == 42
    with pytest.raises(NonFiniteStateError) as info:
        run_ensemble(spec, SimConfig(dt=1e-3, t_end=2e-3, n_replicas=100), ["tagged_v1"],
                     rng=np.random.default_rng(3), initial_sampler=nan_in_replicas_5_and_90)
    assert info.value.step == 1
    assert info.value.replicas == [5, 90]


@pytest.mark.parametrize("mode", sorted(BLOCKED_SPECS))
def test_blocked_sphere_run_matches_whole_array_loop(mode):
    # the normals form one stream and every reduction is per replica, so
    # replica blocks change no bit of the sample or of the run
    spec = BLOCKED_SPECS[mode]
    np.testing.assert_array_equal(
        sample_uniform_batch(spec, 100, np.random.default_rng(21)),
        sample_uniform_whole(spec, 100, np.random.default_rng(21)))
    cfg = SimConfig(dt=0.01, t_end=0.03, n_replicas=100)
    result = run_ensemble(spec, cfg, ["tagged_v1"], rng=np.random.default_rng(22),
                          snapshot_times=[0.03])
    np.testing.assert_array_equal(
        result.snapshots[0].velocities,
        run_sphere_whole(spec, 100, 0.01, 3, np.random.default_rng(22)))


@pytest.mark.parametrize("mode", sorted(BLOCKED_SPECS))
def test_blocked_sphere_run_peak_allocation(mode):
    # the run's one state array is the sampler's own, restored in place by
    # the perturbed samplers and stepped in place, plus block-sized step
    # arrays; a copy of the sample alone would make 2x
    spec = BLOCKED_SPECS[mode]
    cfg = SimConfig(dt=1e-3, t_end=3e-3, n_replicas=128)
    states_nbytes = 128 * spec.n_particles * 3 * 8
    starts = {"uniform": uniform_sampler, "shear": sheared_sampler(0.5),
              "tagged_shift": tagged_shift_sampler(0.5)}
    if spec.mode is ConservationMode.ENERGY_ONLY:
        starts["shift"] = shifted_sampler(0.5)
    peaks = {}
    for name, sampler in starts.items():
        def run():
            run_ensemble(spec, cfg, ["tagged_v1"], rng=np.random.default_rng(4),
                         initial_sampler=sampler)
        run()  # warm caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] / states_nbytes
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1.5, peaks


@pytest.mark.parametrize("n, n_replicas", [(16, 256), (33, 64)])
def test_pair_run_peak_allocation(n, n_replicas):
    # the state array, the sweep's work and spare copies, the kick's
    # temporaries and the four draws ahead come to about 8.5x; a copy of
    # the states or one more draw of the round's normals would show
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1.0, -0.5, 0.25])
    cfg = SimConfig(dt=1e-3, t_end=3e-3, n_replicas=n_replicas, kernel=COULOMB)

    def run():
        run_ensemble(spec, cfg, ["sum_v1"], rng=np.random.default_rng(4))

    run()  # warm caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1] / (n_replicas * n * 3 * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 8.75, peak


# ---------------------------------------------------------------------------
# the draws on a producer thread: the serial steppers' bits, and no thread left


@pytest.fixture
def producer_starts(monkeypatch):
    """The list to which ``run_ensemble`` appends its lead each time it
    starts a producer thread, at the first draw of a run."""
    starts = []
    drawn_ahead = master_sim._drawn_ahead

    def counted(draws, lead):
        starts.append(lead)
        yield from drawn_ahead(draws, lead)

    monkeypatch.setattr(master_sim, "_drawn_ahead", counted)
    return starts


def _assert_run_is_serial_loop(spec, cfg, serial_loop, lead, starts, **kwargs):
    """Run one seeded ensemble: its final states and the Generator's state
    after it must equal those that ``serial_loop(rng)`` leaves from the same
    seed, one producer must have started and none may be left.

    The run switches threads every microsecond, so that a draw overwritten
    while still in use would show in the states."""
    rng = np.random.default_rng(31)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_ensemble(spec, cfg, ["sum_v1"], rng=rng,
                              snapshot_times=[cfg.t_end], **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert starts == [lead]
    serial_rng = np.random.default_rng(31)
    np.testing.assert_array_equal(result.snapshots[0].velocities, serial_loop(serial_rng))
    assert rng.bit_generator.state == serial_rng.bit_generator.state


@pytest.mark.parametrize("mode", sorted(BLOCKED_SPECS))
@pytest.mark.parametrize("n_replicas", [100, 10])
def test_sphere_run_same_on_both_draw_paths(mode, n_replicas, producer_starts):
    # 100 replicas are half-blocks of 21 and a ragged one of 16; 10 are
    # fewer than one half-block
    spec = BLOCKED_SPECS[mode]
    assert block_states(spec.n_particles) == 42
    cfg = SimConfig(dt=1e-3, t_end=4e-3, n_replicas=n_replicas)
    _assert_run_is_serial_loop(
        spec, cfg, lambda rng: run_sphere_whole(spec, n_replicas, cfg.dt, cfg.n_steps, rng,
                                                sampler=sheared_sampler(0.5)),
        2, producer_starts, initial_sampler=sheared_sampler(0.5))


@pytest.mark.parametrize("n", [6, 7])
def test_pair_run_same_on_both_draw_paths(n, producer_starts):
    # odd N has a bye particle in every round
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1.0, -0.5, 0.25])
    cfg = SimConfig(dt=1e-2, t_end=3e-2, n_replicas=12, kernel=COULOMB)

    def serial_loop(rng):
        states = uniform_sampler(spec, cfg.n_replicas, rng)
        for _ in range(cfg.n_steps):
            step_pair_diffusion(spec, states, COULOMB, cfg.dt, rng)
        return states

    _assert_run_is_serial_loop(spec, cfg, serial_loop, 4, producer_starts)


def test_chaos_tables_same_on_both_draw_paths(producer_starts, tmp_path):
    # chaos draws each N's pair subsample from the stream the run leaves;
    # the tables may not depend on when the threads take turns
    cfg = ("n_list = 4,7\ngamma = -3\ndt = 0.01\nt_end = 0.03\n"
           "pair_samples = 2000\nbins = 8\nseed = 4\n")
    cli.run(cli.parse_config(cfg, "chaos"), tmp_path / "default")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cli.run(cli.parse_config(cfg, "chaos"), tmp_path / "fast")
    finally:
        sys.setswitchinterval(interval)
    assert producer_starts == [4, 4] * 2
    tables = sorted(path.name for path in (tmp_path / "default").glob("*.csv"))
    assert tables
    for name in tables:
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "fast" / name).read_bytes()), name


@pytest.mark.parametrize("n", [8, 7])
def test_pair_run_draws_relabeling_then_one_block_per_round(n, producer_starts):
    # the pair stream, independently of the kick arithmetic: per step the
    # relabeling uniforms, then n_rounds normal blocks, and nothing else
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    start = sample_uniform_batch(spec, 5, np.random.default_rng(9))
    cfg = SimConfig(dt=1e-2, t_end=3e-2, n_replicas=5, kernel=COULOMB)
    rng, expected = np.random.default_rng(12), np.random.default_rng(12)
    run_ensemble(spec, cfg, ["sum_v1"], rng=rng,
                 initial_sampler=lambda spec, n_states, rng: start.copy())
    assert producer_starts == [4]
    for _ in range(cfg.n_steps):
        expected.random((5, n))
        for _ in range(n - 1 + n % 2):
            expected.standard_normal((5, n // 2, 3))
    assert rng.bit_generator.state == expected.bit_generator.state


def test_sphere_breakdown_in_a_middle_block(producer_starts):
    # replica 50 is in the middle half-block [42, 63); the other blocks are
    # still stepped, and it is named by its index in the ensemble
    arrays = []

    def nan_in_replica_50(spec, n_states, rng):
        states = sample_uniform_batch(spec, n_states, rng)
        states[50, 0, 1] = np.nan
        arrays.append((states, states.copy()))
        return states

    before = threading.active_count()
    with pytest.raises(NonFiniteStateError) as info:
        run_ensemble(BLOCKED_SPECS["c4_u"], SimConfig(dt=1e-3, t_end=3e-3, n_replicas=100),
                     ["tagged_v1"], rng=np.random.default_rng(3),
                     initial_sampler=nan_in_replica_50)
    assert threading.active_count() == before
    assert producer_starts == [2]
    assert info.value.step == 1 and info.value.replicas == [50]
    # the run steps the sampler's own array in place
    states, start = arrays[0]
    stepped = np.all(states != start, axis=(1, 2))
    assert stepped[:42].all() and stepped[63:].all()


@pytest.mark.parametrize("draw_path", ["ahead"])
def test_pair_breakdown_on_both_draw_paths(draw_path, spec_c4, producer_starts):
    # "ahead" is the producer thread, the one path by which a run draws
    def nan_in_replica_3(spec, n_states, rng):
        states = sample_uniform_batch(spec, n_states, rng)
        states[3, 1, 2] = np.nan
        return states

    before = threading.active_count()
    with pytest.raises(NonFiniteStateError) as info:
        run_ensemble(spec_c4, SimConfig(dt=1e-3, t_end=5e-3, n_replicas=6, kernel=COULOMB),
                     ["sum_v1v2"], rng=np.random.default_rng(1),
                     initial_sampler=nan_in_replica_3)
    assert threading.active_count() == before
    assert producer_starts == [4]
    assert info.value.step == 1 and info.value.replicas == [3]


@pytest.mark.parametrize("lead", [1, 2, 3, 8])
def test_drawn_ahead_lead_only_caps_memory(lead):
    # every draw is a new array, so the lead changes no bit of what the
    # stepper reads, and no kept draw is written again; 10 replicas in
    # blocks of 4 end in a ragged block, and N = 7 has a bye each round
    sources = {"sphere": lambda rng: master_sim._sphere_draws(rng, (10, 5, 3), 4, 3),
               "pair": lambda rng: master_sim._pair_draws(rng, 6, 7, 2)}
    for name, draws in sources.items():
        inline = [x.copy() for x in draws(np.random.default_rng(8))]
        ahead = master_sim._drawn_ahead(draws(np.random.default_rng(8)), lead)
        kept = [next(ahead) for _ in inline]
        ahead.close()
        assert len(kept) == len(inline) > 8, name
        for x, y in zip(kept, inline):
            np.testing.assert_array_equal(x, y)
        for i, x in enumerate(kept):
            assert not any(np.shares_memory(x, y) for y in kept[i + 1:]), (name, i)


def test_drawn_ahead_ends_when_its_draws_end():
    # drained with list(), the producer's end ends the consumer and the
    # producer is joined; a consumer that hangs fails here, not the suite
    sources = {"ints": (lambda rng: iter([1, 2]), 2),
               "sphere": (lambda rng: master_sim._sphere_draws(rng, (10, 5, 3), 4, 3), 2),
               "pair": (lambda rng: master_sim._pair_draws(rng, 6, 7, 2), 4)}
    for name, (draws, lead) in sources.items():
        inline = list(draws(np.random.default_rng(8)))
        before = threading.active_count()
        drained = []
        watchdog = threading.Thread(daemon=True, target=lambda: drained.append(
            list(master_sim._drawn_ahead(draws(np.random.default_rng(8)), lead))))
        watchdog.start()
        watchdog.join(timeout=10)
        assert not watchdog.is_alive(), f"{name}: draining _drawn_ahead did not end"
        assert threading.active_count() == before, name
        assert len(drained[0]) == len(inline), name
        for x, y in zip(drained[0], inline):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("spec", [
    ManifoldSpec(9, ConservationMode.ENERGY_ONLY, eps=1.5),
    ManifoldSpec(9, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1.0, -0.5, 0.25]),
], ids=["c1", "c4_u"])
def test_sweep_sphere_steps_as_many_replicas_as_each_normals_block(spec):
    # uneven hand-made blocks step the states as one whole-array step on
    # the concatenated normals, bit for bit; a bad replica in the middle
    # block is named by its index in the ensemble
    rng = np.random.default_rng(17)
    states = sample_uniform_batch(spec, 20, rng)
    blocks = [rng.standard_normal((r, 9, 3)) for r in (7, 3, 10)]
    whole = step_sphere_diffusion(spec, states.copy(), 0.01, np.concatenate(blocks))
    swept = master_sim._sweep_sphere(spec, states.copy(), 0.01, iter(blocks))
    np.testing.assert_array_equal(swept, whole)
    blocks[1][1, 4, 2] = np.nan
    with pytest.raises(NonFiniteStateError) as info:
        master_sim._sweep_sphere(spec, states.copy(), 0.01, iter(blocks))
    assert info.value.replicas == [8]


class _FailingNormals:
    """A Generator stand-in whose uniforms work and whose normals raise."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        return self.rng.random(shape)

    def standard_normal(self, *args, **kwargs):
        raise RuntimeError("no normals")


@pytest.mark.parametrize("process", ["sphere", "pair"])
def test_failing_draw_raises_from_the_producer(process, producer_starts, spec_c4):
    start = sample_uniform_batch(spec_c4, 50, np.random.default_rng(2))
    cfg = SimConfig(dt=1e-3, t_end=5e-3, n_replicas=50,
                    kernel=COULOMB if process == "pair" else None)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="no normals"):
        run_ensemble(spec_c4, cfg, ["sum_v1v2"],
                     rng=_FailingNormals(np.random.default_rng(1)),
                     initial_sampler=lambda spec, n_states, rng: start.copy())
    assert threading.active_count() == before
    assert producer_starts == [4 if process == "pair" else 2]


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
def test_sphere_step_contracts_tagged_mean_exactly(mode, rng):
    # every replica starts from one state V; after one step the mean of
    # v_11 is u_1 + kappa(dt) (V_11 - u_1), kappa by quadrature over the
    # chi^2(3N - C) law. 2000 replicas at N = 64 span 6 blocks of 341
    base = SPHERE_SPECS[mode]
    spec = ManifoldSpec(64, base.mode, eps=base.eps, u=base.u)
    v0 = tagged_shift_sampler(4.0)(spec, 1, rng)[0]
    dt = 0.05
    result = run_ensemble(spec, SimConfig(dt=dt, t_end=dt, n_replicas=2000), ["tagged_v1"],
                          rng=rng, initial_sampler=lambda s, m, g: np.broadcast_to(v0, (m, 64, 3)))
    series = result.series["tagged_v1"]
    u1 = spec.u[0]
    expected = u1 + sphere_step_contraction(spec, dt) * (v0[0, 0] - u1)
    assert series.means[0] == pytest.approx(v0[0, 0], rel=1e-12)
    assert abs(series.means[1] - expected) <= 5.0 * series.stderrs[1]


def _weak_order_ratios(kappa, rate, dts):
    """Ratios of successive differences of g(dt) = (-log kappa(dt)/dt - rate)/dt
    over halving dts. A contraction of weak order 1 has -log kappa(dt)/dt =
    rate + c1 dt + c2 dt^2 + ..., so g's differences halve with dt; a wrong
    rate adds (rate error)/dt to g, whose differences double instead."""
    g = [(-math.log(kappa(dt)) / dt - rate) / dt for dt in dts]
    diffs = np.diff(g)
    return diffs[:-1] / diffs[1:]


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
@pytest.mark.parametrize("n", [16, 64])
def test_sphere_step_weak_order_one(mode, n):
    # exact one-step contraction of the tagged mean against the degree-1
    # eigenvalue, by quadrature; no Monte Carlo
    base = SPHERE_SPECS[mode]
    spec = ManifoldSpec(n, base.mode, eps=base.eps, u=base.u)
    ratios = _weak_order_ratios(lambda dt: sphere_step_contraction(spec, dt),
                                eigenvalue_scaled(spec, 1), [0.04, 0.02, 0.01, 0.005])
    assert ((1.8 <= ratios) & (ratios <= 2.2)).all(), ratios


def test_pair_kick_weak_order_one():
    # at N = 2 the pair separation contracts at the generator rate 8 (gamma
    # = 0); kappa_2 overflows below dt = 8.9e-5
    ratios = _weak_order_ratios(lambda dt: pair_kick_contraction(2, dt), 8.0,
                                [2e-3, 1e-3, 5e-4, 2.5e-4])
    assert ((1.8 <= ratios) & (ratios <= 2.2)).all(), ratios


def test_pair_kick_contraction_matches_quadrature():
    # kappa_2 in closed form against E[(1 + c X)^(-1/2)], X ~ chi^2_2
    from scipy.integrate import quad

    for n, dt in [(2, 0.01), (2, 0.2), (5, 0.05), (64, 0.01)]:
        c = 8.0 * dt / (n - 1)
        val, _ = quad(lambda x: 0.5 * math.exp(-0.5 * x) / math.sqrt(1.0 + c * x),
                      0.0, math.inf, epsabs=0.0, epsrel=1e-12)
        assert pair_kick_contraction(n, dt) == pytest.approx(val, rel=1e-10)


@pytest.mark.parametrize("mode", sorted(SPHERE_SPECS))
@pytest.mark.parametrize("dt", [0.01, 0.05, 0.2])
def test_pair_sweep_contracts_separation_exactly_at_n2(mode, dt):
    # at N = 2 a sweep is one gamma = 0 pair move and the restoration is
    # exact, so from any fixed state E[v_2' - v_1'] = kappa_2 (v_2 - v_1)
    base = SPHERE_SPECS[mode]
    spec = ManifoldSpec(2, base.mode, eps=base.eps, u=base.u)
    rng = np.random.default_rng(int(1000 * dt))
    v0 = sample_uniform_batch(spec, 1, rng)[0]
    m = 40000
    out = step_pair_diffusion(spec, np.broadcast_to(v0, (m, 2, 3)).copy(), KernelSpec(0.0),
                              dt, rng)
    d = out[:, 1] - out[:, 0]
    expected = pair_kick_contraction(2, dt) * (v0[1] - v0[0])
    z = (d.mean(axis=0) - expected) / (d.std(axis=0, ddof=1) / math.sqrt(m))
    assert (np.abs(z) <= 5.0).all(), z
