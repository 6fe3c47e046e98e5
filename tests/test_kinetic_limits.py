"""Closed-form limit objects against independent quadrature / Monte Carlo
oracles.

Moment-flow derivations under test (the oracles):

* linear Fokker-Planck: integrating the flow against v gives
  m' = -(3/2 eps0)(m - u); against v (x) v gives S' = 2I - (3/eps0) S for
  the centered second moment (checked below by Gaussian quadrature of the
  drift term and by finite differences in t);

* Maxwell-molecule collision flow: integrating the collision integral
  against v_a v_b gives M2' = E[2|d|^2 I - 6 d (x) d] = 4 tr(S) I - 12 S
  (checked below by direct Monte Carlo over Gaussian pairs), so the
  anisotropy decays at exactly rate 12.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from kinlab.geometry import ConservationMode, ManifoldSpec
from kinlab.kinetic_limits import (
    LimitParams,
    check_covariance,
    entropy_grid_edges,
    fpe_moment_flow,
    landau_moment_flow,
    maxwellian_eval,
    relative_entropy,
    stationary_marginal_eval,
    velocity_histogram3d,
)
from kinlab.spectral import eigenvalue_scaled, limit_eigenvalue

from oracles import (
    finite_n_marginal_rates,
    fpe_mean_rhs_quadrature,
    landau_second_moment_rhs_mc,
    maxwellian_eval_axis_sum,
    moment_anisotropy,
    moment_energy,
    moment_second,
    stationary_radial_pdf,
    velocity_histogram3d_histogramdd,
)


def test_maxwellian_peak_value():
    p = LimitParams(eps0=1.0)
    assert maxwellian_eval(p, np.zeros(3)) == pytest.approx(
        (3.0 / (4.0 * math.pi)) ** 1.5, rel=1e-12)
    assert maxwellian_eval(p, np.zeros(3)) == pytest.approx(0.116645, abs=5e-7)


def test_maxwellian_sums_components_as_the_axis_sum(rng):
    # |v - u|^2 through geometry.dot3 equals the last-axis sum bit for bit:
    # one velocity, rows, a strided view, a component-major copy and a grid
    p = LimitParams(eps0=0.7, u=[0.3, -0.2, 0.1])
    rows = 2.0 * rng.standard_normal((1000, 3))
    rows[:3] = [[np.nan, 0, 0], [np.inf, 1, 1], [1e-160, 0, 0]]
    probe = 3.0 * rng.standard_normal((40, 1, 3))
    edges = [np.linspace(-3, 3, n) for n in (5, 6, 7)]
    centers = np.stack(np.meshgrid(*[(e[1:] + e[:-1]) / 2 for e in edges],
                                   indexing="ij"), axis=-1)
    for v in (rows[10], rows, probe[:, 0, :], np.ascontiguousarray(rows.T).T, centers):
        with np.errstate(invalid="ignore"):
            got, want = maxwellian_eval(p, v), maxwellian_eval_axis_sum(p, v)
        assert type(got) is type(want)
        assert np.array_equal(got, want, equal_nan=True)


def test_maxwellian_quadrature():
    p = LimitParams(eps0=0.7, u=[0.3, -0.2, 0.1])
    # isotropic about u: radial quadrature is exact for mass and energy
    mass, _ = quad(lambda r: 4 * math.pi * r * r
                   * maxwellian_eval(p, p.u + np.array([r, 0, 0])), 0, 30, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    second, _ = quad(lambda r: 4 * math.pi * r ** 4
                     * maxwellian_eval(p, p.u + np.array([r, 0, 0])), 0, 30, limit=200)
    assert second == pytest.approx(2 * p.eps0, abs=1e-8)


def test_stationary_marginal_value_n2():
    spec = ManifoldSpec(2, ConservationMode.ENERGY_ONLY, eps=1.0)
    assert stationary_marginal_eval(spec, 1, np.zeros((1, 3))) == pytest.approx(
        1.0 / (2 * math.pi ** 2), rel=1e-12)


def test_stationary_marginal_is_probability_density():
    for n in (2, 8):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        val, err = quad(lambda r: stationary_radial_pdf(spec, r), 0.0,
                        spec.radius, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_stationary_marginal_outside_ball_zero():
    spec = ManifoldSpec(2, ConservationMode.ENERGY_ONLY, eps=1.0)
    v = np.zeros((1, 3))
    v[0, 0] = spec.radius + 0.1
    assert stationary_marginal_eval(spec, 1, v) == 0.0


def test_stationary_marginal_two_particle_normalization():
    # n = 2 marginal integrates to 1 (double radial quadrature, isotropy in
    # each argument after fixing the other's direction is NOT available, so
    # integrate the exact radial form: the density depends on |v1|^2+|v2|^2)
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    r2 = spec.radius_sq

    def inner(s1):
        # integrate over |v2|: measure 4 pi r^2 dr for each velocity
        def f(r):
            v = np.zeros((2, 3))
            v[0, 0] = math.sqrt(s1)
            v[1, 0] = r
            return 4 * math.pi * r * r * stationary_marginal_eval(spec, 2, v)
        val, _ = quad(f, 0.0, math.sqrt(max(r2 - s1, 0.0)), limit=100)
        return val

    total, _ = quad(lambda r1: 4 * math.pi * r1 * r1 * inner(r1 * r1),
                    0.0, spec.radius, limit=100)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_stationary_marginal_converges_to_maxwellian():
    p = LimitParams(eps0=1.0)
    prev = None
    for n in (8, 32, 128):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        r = np.linspace(0, spec.radius, 512)
        v = np.zeros((len(r), 1, 3))
        v[:, 0, 0] = r
        d = float(np.max(np.abs(stationary_marginal_eval(spec, 1, v)
                                - maxwellian_eval(p, v[:, 0, :]))))
        if prev is not None:
            assert d < prev
        prev = d


def _maxwellian_bin_masses(p, edges):
    from scipy.special import erf
    sig = math.sqrt(2.0 * p.eps0 / 3.0)
    per_axis = []
    for i, e in enumerate(edges):
        z = (np.asarray(e) - p.u[i]) / (sig * math.sqrt(2.0))
        per_axis.append(np.diff(0.5 * (1 + erf(z))))
    return np.einsum("i,j,k->ijk", *per_axis)


def test_relative_entropy_of_maxwellian_grid_is_zero():
    # exact bin masses of the Maxwellian (product of Gaussian erf factors)
    # score ~0: only the bin-center discretization remains
    p = LimitParams(eps0=1.0)
    edges = entropy_grid_edges(p, bins=30)
    hist3 = _maxwellian_bin_masses(p, edges)
    hist3 /= hist3.sum()
    assert relative_entropy(hist3, edges, p) == pytest.approx(0.0, abs=5e-4)


def test_relative_entropy_gibbs_two_bin():
    # brute-force 2-bin check: the estimator matches the hand formula and
    # the Maxwellian weights maximize it (Gibbs)
    p = LimitParams(eps0=1.0)
    edges = (np.array([-1.0, 0.0, 1.0]), np.array([-1.0, 1.0]),
             np.array([-1.0, 1.0]))
    centers = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    q = maxwellian_eval(p, centers) * 4.0          # bin volume 1*2*2
    w_star = q[0] / q.sum()
    scores = {}
    for w in (0.1, 0.3, w_star, 0.7, 0.9):
        h = np.array([[[w]], [[1 - w]]])
        hand = -(w * math.log(w / q[0]) + (1 - w) * math.log((1 - w) / q[1]))
        got = relative_entropy(h, edges, p)
        assert got == pytest.approx(hand, rel=1e-12)
        scores[w] = got
    best = scores.pop(w_star)
    assert all(v < best for v in scores.values())


def test_relative_entropy_empty_rejected():
    p = LimitParams(eps0=1.0)
    edges = (np.array([0.0, 1.0]),) * 3
    with pytest.raises(ValueError, match="empty"):
        relative_entropy(np.zeros((1, 1, 1)), edges, p)
    with pytest.raises(ValueError, match="grid"):
        relative_entropy(np.ones((2, 1, 1)), edges, p)


def _edge_points(edges, rng):
    """(M, 3) velocities: on each axis every edge and one ulp either side of
    it, points inside the grid, and NaN, +-inf and +-1e300; once with the
    axes aligned, so that points sit on edges of all three at once, and once
    with each axis shuffled."""
    off = [np.nan, np.inf, -np.inf, 1e300, -1e300]
    cols = [np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                            rng.uniform(e[0], e[-1], 200), off]) for e in edges]
    return np.concatenate([np.stack(cols, axis=1),
                           np.stack([rng.permutation(c) for c in cols], axis=1)])


def _assert_histogramdd_counts(velocities, edges):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = velocity_histogram3d(velocities, edges)
    # equal masses over one set of kept samples are equal counts
    assert np.array_equal(got, velocity_histogram3d_histogramdd(velocities, edges))


@pytest.mark.parametrize("bins", [1, 2, 20, 128])
@pytest.mark.parametrize("eps0", [1e-3, 0.37, 1e3])
@pytest.mark.parametrize("u", [(0.0, 0.0, 0.0), (0.5, -1.25, 3.0)])
def test_histogram3d_counts_match_histogramdd(bins, eps0, u):
    edges = entropy_grid_edges(LimitParams(eps0=eps0, u=np.array(u)), bins=bins)
    _assert_histogramdd_counts(_edge_points(edges, np.random.default_rng(bins)), edges)


@pytest.mark.parametrize("start", [-3.0, 1.0, 1e-300, 5e-324, 1e300])
@pytest.mark.parametrize("ulps_per_bin", [1, 2, 3, 5])
def test_histogram3d_counts_match_histogramdd_on_bins_a_few_ulps_wide(start, ulps_per_bin):
    # every float from one ulp below the grid to two above it, where the
    # index arithmetic is most often one bin off before its correction
    values = [np.nextafter(start, -np.inf), start]
    while len(values) < 16 * ulps_per_bin + 4:
        values.append(np.nextafter(values[-1], np.inf))
    x = np.array(values)
    edges = (np.linspace(start, x[16 * ulps_per_bin + 1], 17),) * 3
    _assert_histogramdd_counts(np.stack([x, x[::-1], np.roll(x, 5)], axis=1), edges)


def test_histogram3d_refuses_grids_it_cannot_bin_by_index():
    vel = np.zeros((4, 3))
    even = np.linspace(-1.0, 1.0, 5)
    for bad in ([0.0, 1.0, 3.0], [1.0, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf], [0.0],
                even[::-1]):
        with pytest.raises(ValueError, match="evenly spaced"):
            velocity_histogram3d(vel, (even, np.asarray(bad), even))
    with pytest.raises(ValueError, match="3 velocity axes"):
        velocity_histogram3d(vel, (even, even))
    # 10 sigma = 3e-50 is below the spacing of floats at u = 1: one edge
    with pytest.raises(ValueError, match="evenly spaced"):
        entropy_grid_edges(LimitParams(eps0=1e-100, u=np.array([1.0, 0.0, 0.0])), bins=4)


def test_entropy_grid_cell_cap():
    p = LimitParams(eps0=1.0)
    assert len(entropy_grid_edges(p, bins=128)[0]) == 129
    with pytest.raises(ValueError, match="cells exceed"):
        entropy_grid_edges(p, bins=129)


def test_fpe_moment_flow_identity_and_halving():
    p = LimitParams(eps0=0.8, u=[0.5, 0.0, -0.2])
    m0 = np.array([1.0, 0.3, 0.0])
    s0 = np.diag([1.2, 0.5, 0.9])
    st0 = fpe_moment_flow(p, m0, s0, 0.0)
    np.testing.assert_allclose(st0.mean, m0, atol=1e-15)
    np.testing.assert_allclose(moment_second(st0), s0 + np.outer(m0, m0), atol=1e-14)
    np.testing.assert_array_equal(st0.centered, s0)
    t_half = (2 * p.eps0 / 3) * math.log(2.0)
    st = fpe_moment_flow(p, m0, s0, t_half)
    np.testing.assert_allclose(st.mean - p.u, 0.5 * (m0 - p.u), rtol=1e-12)
    with pytest.raises(ValueError):
        fpe_moment_flow(p, m0, s0, -0.1)


def test_limit_params_eps0_in_the_manifold_window():
    # the window of geometry.EPS_RANGE: at eps0 = 1e-320, 1.5 / eps0 is inf
    # and the FPE flow's t = 0 moments would be inf * 0 = NaN
    for eps0 in (1e-320, 1e101, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^eps0 must be in"):
            LimitParams(eps0=eps0)
    for eps0 in (1e-100, 1e100):
        assert LimitParams(eps0=eps0).eps0 == eps0


def test_moment_flows_reject_non_psd_covariance():
    bad = np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="semidefinite"):
        fpe_moment_flow(LimitParams(1.0), np.zeros(3), bad, 0.0)
    with pytest.raises(ValueError, match="semidefinite"):
        landau_moment_flow(np.zeros(3), bad, 0.0)


def test_moment_flows_reject_non_finite_time():
    # a NaN t passes "t < 0" and would make every moment NaN
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^t must be finite"):
            fpe_moment_flow(LimitParams(1.0), np.zeros(3), np.eye(3), t)
        with pytest.raises(ValueError, match="^t must be finite"):
            landau_moment_flow(np.zeros(3), np.eye(3), t)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
def test_moment_flows_reject_non_finite_mean(bad):
    with pytest.raises(ValueError, match="^m0 must be finite"):
        fpe_moment_flow(LimitParams(1.0), bad, np.eye(3), 0.5)
    with pytest.raises(ValueError, match="^m0 must be finite"):
        landau_moment_flow(bad, np.eye(3), 0.5)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0]])
def test_limit_params_reject_non_finite_drift(bad):
    # maxwellian_eval would return NaN everywhere
    with pytest.raises(ValueError, match="^u must be finite"):
        LimitParams(1.0, u=bad)


def test_fpe_moment_flow_mean_rhs_quadrature_oracle():
    # the mean drift produced by the flow matches the quadrature of the
    # drift-diffusion integrand at t=0
    p = LimitParams(eps0=0.8, u=[0.5, 0.0, -0.2])
    m0 = np.array([1.0, 0.3, 0.0])
    rhs = fpe_mean_rhs_quadrature(p, m0)
    h = 1e-6
    st = fpe_moment_flow(p, m0, (2 * p.eps0 / 3) * np.eye(3), h)
    np.testing.assert_allclose((st.mean - m0) / h, rhs, rtol=1e-4)


def test_fpe_moment_flow_limits_and_conservation():
    p = LimitParams(eps0=0.8, u=[0.5, 0.0, -0.2])
    # initialized consistently (mean u, tr S0 = 2 eps0, i.e. energy
    # eps0 + |u|^2/2) the flow conserves mass, momentum and energy
    s0 = np.diag([0.8, 0.5, 0.3])
    for t in (0.0, 0.1, 0.7, 3.0):
        st = fpe_moment_flow(p, p.u, s0, t)
        np.testing.assert_allclose(st.mean, p.u, atol=1e-14)
        assert moment_energy(st) == pytest.approx(p.eps0 + 0.5 * p.u @ p.u, rel=1e-12)
    inf = fpe_moment_flow(p, p.u, s0, 200.0)
    np.testing.assert_allclose(moment_second(inf),
                               (2 * p.eps0 / 3) * np.eye(3) + np.outer(p.u, p.u),
                               atol=1e-12)


def test_landau_moment_flow_isotropic_stationary():
    st = landau_moment_flow(np.zeros(3), 0.9 * np.eye(3), 2.0)
    np.testing.assert_allclose(moment_second(st), 0.9 * np.eye(3), atol=1e-14)


def test_landau_moment_flow_conservation_and_rate():
    m0 = np.array([0.2, -0.1, 0.4])
    s0 = np.array([[1.0, 0.3, 0.0], [0.3, 0.7, 0.1], [0.0, 0.1, 0.6]])
    for t in (0.0, 0.05, 0.2):
        st = landau_moment_flow(m0, s0, t)
        np.testing.assert_allclose(st.mean, m0, atol=1e-15)
        assert np.trace(st.centered) == pytest.approx(np.trace(s0), rel=1e-12)
        np.testing.assert_allclose(moment_anisotropy(st),
                                   (s0 - np.trace(s0) / 3 * np.eye(3))
                                   * math.exp(-12.0 * t), rtol=1e-12)


def test_landau_second_moment_rhs_mc_oracle(rng):
    # Monte Carlo over Gaussian pairs reproduces M2' = 4 tr(S) I - 12 S
    m0 = np.array([0.1, 0.0, -0.3])
    s0 = np.array([[0.9, 0.25, 0.0], [0.25, 0.6, 0.05], [0.0, 0.05, 0.5]])
    mc = landau_second_moment_rhs_mc(m0, s0, 400000, rng)
    closed = 4 * np.trace(s0) * np.eye(3) - 12 * s0
    np.testing.assert_allclose(mc, closed, atol=0.08)
    # and the flow's own derivative matches the closed form
    h = 1e-7
    st = landau_moment_flow(m0, s0, h)
    deriv = (st.centered - s0) / h
    np.testing.assert_allclose(deriv, closed, rtol=1e-4, atol=1e-8)


def test_finite_n_marginal_rates_match_spectrum():
    c1 = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
    rows = {r.observable: r for r in finite_n_marginal_rates(c1)}
    assert rows["mean_component"].rate == eigenvalue_scaled(c1, 1)
    assert rows["mean_component"].rate == pytest.approx((3 * 16 - 1) / (2 * 16.0))
    assert rows["offdiag_second_moment"].rate == eigenvalue_scaled(c1, 2)
    c4 = ManifoldSpec(16, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    rows4 = {r.observable: r for r in finite_n_marginal_rates(c4)}
    assert rows4["mean_component"].rate == 0.0
    assert rows4["offdiag_second_moment"].rate == eigenvalue_scaled(c4, 2)


def test_finite_n_marginal_rates_converge_to_limit():
    for n in (8, 64, 512):
        c1 = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        for row in finite_n_marginal_rates(c1):
            if row.degree is not None:
                assert abs(row.rate - row.limit_rate) <= 3.0 / n
                assert row.limit_rate == limit_eigenvalue(row.degree, 1.0)


def test_check_covariance():
    np.testing.assert_array_equal(check_covariance(np.diag([1.0, 0.0, 2.0])),
                                  np.diag([1.0, 0.0, 2.0]))
    # a rank-one covariance with rounding-level negative eigenvalues passes
    a = np.array([0.1, 0.7, -0.3])
    check_covariance(np.outer(a, a))
    bad = {
        "positive semidefinite": np.diag([-1.0, 1.0, 1.0]),
        "symmetric": np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "finite": np.diag([np.nan, 1.0, 1.0]),
    }
    for what, s0 in bad.items():
        with pytest.raises(ValueError, match=what):
            check_covariance(s0)
    unit_offdiag_2 = np.eye(3)
    unit_offdiag_2[0, 1] = unit_offdiag_2[1, 0] = 2.0
    with pytest.raises(ValueError, match="semidefinite"):
        check_covariance(unit_offdiag_2)
