import math

import numpy as np
import pytest
import scipy.special

from kinlab.geometry import ConservationMode, ManifoldSpec, sample_uniform_batch
from kinlab.kinetic_limits import velocity_histogram3d
from kinlab.master_sim import SimConfig, run_ensemble
from kinlab.observables import (
    ObservableSeries,
    _pooled_speeds,
    check_marginal_args,
    chaos_distance,
    decay_rate_fit,
    get_observable,
    ks_quantile_99,
    one_marginal,
    pair_marginal,
    radial_ks_statistic,
)

from oracles import pooled_speeds_axis_sum, radial_ks_statistic_full


def test_series_validation():
    with pytest.raises(ValueError):
        ObservableSeries([0, 1], [1.0], [0.0])
    with pytest.raises(ValueError):
        ObservableSeries([0, 1], [1.0, 2.0], [0.0, np.inf])
    with pytest.raises(ValueError):
        ObservableSeries([1, 0], [1.0, 2.0], [0.0, 0.0])


def test_unknown_observable_rejected():
    with pytest.raises(ValueError):
        get_observable("nope")


def test_conserved_series_exact(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1, 0, 0])
    cfg = SimConfig(dt=1e-3, t_end=0.02, n_replicas=8)
    res = run_ensemble(spec, cfg, ["energy_per_particle", "momentum_per_particle_1"],
                       rng=np.random.default_rng(5))
    np.testing.assert_allclose(res.series["energy_per_particle"].means, 1.5,
                               atol=1e-12)
    np.testing.assert_allclose(res.series["momentum_per_particle_1"].means, 1.0,
                               atol=1e-12)


def test_histogram_counts_sum_to_one(spec_c1, rng):
    vel = sample_uniform_batch(spec_c1, 100, rng)
    edges = np.linspace(-4, 4, 17)
    h1 = one_marginal(vel, edges, 0)
    assert h1.shape == (16,)
    assert h1.sum() == pytest.approx(1.0, abs=1e-12)
    h2 = pair_marginal(vel, edges, 1, 2000, rng)
    assert h2.shape == (16, 16)
    assert h2.sum() == pytest.approx(1.0, abs=1e-12)
    h3 = velocity_histogram3d(vel, (edges,) * 3)
    assert h3.shape == (16, 16, 16)
    assert h3.sum() == pytest.approx(1.0, abs=1e-12)


def test_histogram_mass_nan_rejected(spec_c1, rng):
    # all samples outside the grid: the 0/0 normalization (NaN mass) must
    # raise, not pass as a histogram
    vel = sample_uniform_batch(spec_c1, 4, rng)
    edges = np.linspace(10.0, 11.0, 3)
    with pytest.raises(ValueError, match="inside the grid"):
        one_marginal(vel, edges, 0)
    with pytest.raises(ValueError, match="inside the grid"):
        pair_marginal(vel, edges, 0, 100, rng)
    with pytest.raises(ValueError, match="inside the grid"):
        velocity_histogram3d(vel, (edges,) * 3)


def test_histogram_arguments_checked(spec_c1, rng):
    vel = sample_uniform_batch(spec_c1, 4, rng)
    edges = np.linspace(-4, 4, 17)
    with pytest.raises(ValueError, match="bin"):
        one_marginal(vel, edges[:1], 0)
    with pytest.raises(ValueError, match="bin"):
        pair_marginal(vel, edges[:1], 0, 10, rng)
    for component in (-1, 3, None):
        with pytest.raises(ValueError, match="component"):
            one_marginal(vel, edges, component)
        with pytest.raises(ValueError, match="component"):
            pair_marginal(vel, edges, component, 10, rng)
    for n_pairs in (0, -1):
        with pytest.raises(ValueError, match="pair"):
            pair_marginal(vel, edges, 0, n_pairs, rng)


def test_pair_grid_cell_cap(spec_c1, rng):
    vel = sample_uniform_batch(spec_c1, 4, rng)
    check_marginal_args(pair_bins=4096)
    with pytest.raises(ValueError, match="cells exceed"):
        check_marginal_args(pair_bins=4097)
    # refused before the draws, so the stream is untouched
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="cells exceed"):
        pair_marginal(vel, np.linspace(-4, 4, 4098), 0, 10, rng)
    assert rng.bit_generator.state == state


def test_histogram_two_pooled_points(rng):
    spec = ManifoldSpec(2, ConservationMode.ENERGY_ONLY, eps=1.0)
    vel = sample_uniform_batch(spec, 1, rng)
    edges = np.linspace(-3, 3, 7)
    h = one_marginal(vel, edges, 0)
    assert sorted(h[h > 0]) in ([0.5, 0.5], [1.0])
    # the pairs of (-1, 1) are (-1, 1) and (1, -1), never a particle with itself
    h2 = pair_marginal(np.array([[[-1.0, 0, 0], [1.0, 0, 0]]]), edges, 0, 1000, rng)
    np.testing.assert_array_equal(np.argwhere(h2 > 0), [[2, 4], [4, 2]])


def test_histogram_permutation_invariance(spec_c1, rng):
    vel = sample_uniform_batch(spec_c1, 50, rng)
    perm = rng.permutation(spec_c1.n_particles)
    edges = np.linspace(-4, 4, 17)
    np.testing.assert_array_equal(velocity_histogram3d(vel, (edges,) * 3),
                                  velocity_histogram3d(vel[:, perm], (edges,) * 3))
    np.testing.assert_array_equal(one_marginal(vel, edges, 2),
                                  one_marginal(vel[:, perm], edges, 2))


def test_chaos_distance_exact_product():
    c1 = np.array([0.1, 0.2, 0.3, 0.4])
    assert chaos_distance(np.outer(c1, c1), c1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        chaos_distance(np.outer(c1, c1), c1[:-1] / c1[:-1].sum())
    with pytest.raises(ValueError):
        chaos_distance(c1, c1)


def test_chaos_distance_decreases_with_n_uniform(rng):
    # equilibrium ensembles factorize better as N grows
    edges = np.linspace(-4 * math.sqrt(2 / 3), 4 * math.sqrt(2 / 3), 13)
    dists = []
    for n in (8, 128):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        n_rep = max(8, 400000 // (n * (n - 1)))
        vel = sample_uniform_batch(spec, n_rep, rng)
        h2 = pair_marginal(vel, edges, 0, 400000, rng)
        h1 = one_marginal(vel, edges, 0)
        dists.append(chaos_distance(h2, h1))
    assert dists[1] < dists[0]


def test_radial_ks_uniform_ensemble(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    vel = sample_uniform_batch(spec, 25000, rng)
    ks, n = radial_ks_statistic(vel, spec)
    assert n == 200000
    assert ks < ks_quantile_99(n)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_radial_ks_bracketing_is_exact(n):
    # the bracketed scan takes the max over the same elementwise terms as
    # the full evaluation, so the two agree bit for bit, at pooled sizes
    # below, at and just past one bracketing block
    spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pooled = sample_uniform_batch(spec, -(-100000 // n), rng).reshape(-1, 3)
        for size in (1, 15, 16, 17, 1000, 100000):
            v = pooled[:size]
            assert radial_ks_statistic(v, spec) == radial_ks_statistic_full(v, spec)
    # far from the null the maximum sits in another block and is large
    ks, m = radial_ks_statistic(1.05 * pooled, spec)
    assert ks > 5 * ks_quantile_99(m)
    assert (ks, m) == radial_ks_statistic_full(1.05 * pooled, spec)


@pytest.mark.parametrize("layout", ["contiguous", "transposed_copy"])
def test_radial_ks_speeds_match_the_norm(layout, rng):
    # the pooled speeds sum components 0, 1, 2 through geometry.dot3, bit
    # for bit with np.linalg.norm over the last axis, on the workload's
    # 100,000 pooled rows
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    vel = sample_uniform_batch(spec, 12500, rng)
    if layout == "transposed_copy":
        vel = np.ascontiguousarray(vel.T).T
        assert not vel.flags.c_contiguous
    for u in (spec.u, np.array([0.5, -1.0, 2.0])):
        assert np.array_equal(_pooled_speeds(vel, u), pooled_speeds_axis_sum(vel, u))
    assert radial_ks_statistic(vel, spec) == radial_ks_statistic_full(vel, spec)


def test_radial_ks_evaluates_few_points(monkeypatch, rng):
    # under the null, the blocks that can hold the maximum are a small share
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    vel = sample_uniform_batch(spec, 12500, rng)
    sizes = []
    betainc = scipy.special.betainc

    def counted(a, b, x):
        sizes.append(np.size(x))
        return betainc(a, b, x)

    monkeypatch.setattr(scipy.special, "betainc", counted)
    radial_ks_statistic(vel, spec)
    assert 0 < sum(sizes) < 0.2 * 100000


def test_radial_ks_rejects_momentum_constraint(rng):
    # with momentum conserved the radial law is ((N-1)/N) Beta(3/2, (3N-6)/2),
    # not the energy-only law the statistic tests against
    spec = ManifoldSpec(3, ConservationMode.ENERGY_MOMENTUM, eps=1.0, u=[0.3, 0, 0])
    vel = sample_uniform_batch(spec, 100, rng)
    with pytest.raises(ValueError, match="energy-only"):
        radial_ks_statistic(vel, spec)


def test_decay_fit_exact_synthetic():
    t = np.linspace(0, 2, 21)
    s = ObservableSeries(t, 3.0 * np.exp(-2.0 * t), np.zeros_like(t))
    fit = decay_rate_fit(s)
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.low_r2_warning


def test_decay_fit_noisy_synthetic(rng):
    t = np.linspace(0, 2, 41)
    amp = 3.0 * np.exp(-2.0 * t)
    noise = 0.01 * amp[0]
    means = amp + rng.normal(0, noise, len(t))
    s = ObservableSeries(t, means, np.full_like(t, noise))
    fit = decay_rate_fit(s)
    assert fit.rate == pytest.approx(2.0, abs=0.1)


def test_decay_fit_constant_series():
    t = np.linspace(0, 1, 11)
    s = ObservableSeries(t, np.full_like(t, 0.7), np.zeros_like(t))
    fit = decay_rate_fit(s)
    assert fit.rate == pytest.approx(0.0, abs=1e-12)
    assert fit.ci_low <= 0.0 <= fit.ci_high


def test_decay_fit_scale_invariance(rng):
    t = np.linspace(0, 2, 31)
    means = 2.0 * np.exp(-1.3 * t) * (1 + 0.01 * rng.standard_normal(len(t)))
    errs = np.full_like(t, 0.02)
    s = ObservableSeries(t, means, errs)
    f1 = decay_rate_fit(s)
    f2 = decay_rate_fit(ObservableSeries(t, 137.0 * means, 137.0 * errs))
    assert f2.rate == pytest.approx(f1.rate, rel=1e-10)


def test_decay_fit_low_r2_warning_flag(rng):
    t = np.linspace(0, 1, 30)
    means = 1.0 + 0.5 * np.sin(20 * t)
    s = ObservableSeries(t, means, np.full_like(t, 0.01))
    fit = decay_rate_fit(s)
    assert fit.low_r2_warning


def test_decay_fit_sign_change_rejected():
    t = np.linspace(0, 1, 5)
    s = ObservableSeries(t, np.array([1.0, 0.5, -0.5, -1.0, -2.0]),
                         np.zeros(5))
    with pytest.raises(ValueError):
        decay_rate_fit(s)


def test_decay_fit_window_trims_noise_floor():
    t = np.linspace(0, 3, 31)
    means = np.exp(-2.0 * t)
    errs = np.full_like(t, 0.02)     # floor crosses 5x stderr around t ~ 1.15
    s = ObservableSeries(t, means, errs)
    fit = decay_rate_fit(s)
    assert fit.window[1] <= 1.2
    assert fit.rate == pytest.approx(2.0, rel=1e-6)
