import itertools
import math
import tracemalloc

import numpy as np
import pytest

from kinlab.geometry import (
    ConservationMode,
    ManifoldSpec,
    constraint_errors,
    sample_uniform_batch,
)
from kinlab.master_sim import KernelSpec
from kinlab.spectral import (
    _pair_terms,
    eigenvalue_scaled,
    eigenvalue_unscaled,
    gap_scan,
    lambda1_bound,
    limit_eigenvalue,
    rayleigh_quotient_mc,
    spectrum_table,
    standard_trial_function,
)

from oracles import (
    conserved_quadratic_form_mc,
    family_decay_rate,
    get_family,
    is_constant_on,
    pair_terms_axis_sum,
    rayleigh_quotient_exact,
    rayleigh_quotient_mc_axis_sum,
    rayleigh_quotient_mc_reference,
    symmetric_eigenfunction,
    trial_eval,
)


COULOMB = KernelSpec(-3.0)


def test_eigenvalues_closed_form():
    c1_n2 = ManifoldSpec(2, ConservationMode.ENERGY_ONLY, eps=1.0)
    assert eigenvalue_scaled(c1_n2, 0) == 0.0
    assert eigenvalue_scaled(c1_n2, 1) == pytest.approx(5.0 / 4.0, abs=0)
    c1_n16 = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
    assert eigenvalue_scaled(c1_n16, 1) == pytest.approx(47.0 / 32.0, abs=0)
    c4_n16 = ManifoldSpec(16, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    assert eigenvalue_scaled(c4_n16, 2) == pytest.approx(2.8125, abs=0)


def test_eigenvalue_integer_arithmetic():
    # for 2 N eps integer the scaled eigenvalue is an exact ratio of ints
    for n in (2, 8, 32):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        for j in range(5):
            num = j * (j + 3 * n - 2)
            assert eigenvalue_unscaled(spec, j) == float(num)
            assert eigenvalue_scaled(spec, j) == num / (2 * n)


def test_limit_eigenvalue():
    assert limit_eigenvalue(0, 1.0) == 0.0
    assert limit_eigenvalue(2, 1.0) == pytest.approx(3.0, abs=0)
    # finite-N gap at j=1, C=1: scaled - limit = -1/(2N)
    for n in (8, 32, 128, 512):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        gap = eigenvalue_scaled(spec, 1) - limit_eigenvalue(1, 1.0)
        assert gap == pytest.approx(-1.0 / (2 * n), abs=1e-15)


def test_limit_convergence_monotone():
    for j in (1, 2, 3, 4):
        gaps = []
        for n in (8, 32, 128, 512):
            spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
            gaps.append(abs(eigenvalue_scaled(spec, j) - limit_eigenvalue(j, 1.0)))
        assert all(b < a or (a == b == 0) for a, b in zip(gaps, gaps[1:]))


def test_spectrum_table():
    spec = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
    tab = spectrum_table(spec, 4)
    js = [row[0] for row in tab]
    assert js == [0, 1, 2, 3, 4]
    scaled = [row[2] for row in tab]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))
    assert tab[1][2] == pytest.approx(1.46875, abs=0)


def test_symmetric_eigenfunction_values(spec_c1):
    p = np.zeros((8, 3))
    p[0] = [2.0, 1.0, 0.0]
    p[1] = [0.0, 1.0, 3.0]
    assert symmetric_eigenfunction(spec_c1, p, "sum_v1") == pytest.approx(2.0)
    assert symmetric_eigenfunction(spec_c1, p, "sum_v1v2") == pytest.approx(2.0)
    assert symmetric_eigenfunction(spec_c1, p, "sum_v1v2v3") == pytest.approx(0.0)
    assert symmetric_eigenfunction(spec_c1, p, "sum_axial_quadrupole") == pytest.approx(
        (4 + 1) + (1 - 18))


def test_degree1_constant_on_momentum_manifold(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    with pytest.raises(ValueError):
        symmetric_eigenfunction(spec, v, "sum_v1")
    assert is_constant_on(get_family("sum_v1"), spec)
    # the constraint pins the sum at N*u exactly
    assert v[:, 0].sum() == pytest.approx(0.0, abs=1e-12)


def test_axial_quadrupole_not_constant(spec_c1, rng):
    # recorded finding: sum_k (v1^2 + v2^2 - 2 v3^2) is NOT constant on the
    # energy sphere (it equals 2 N eps - 3 sum_k v3^2), though it IS a
    # degree-2 harmonic eigenfunction.
    batch = sample_uniform_batch(spec_c1, 20000, rng)
    vals = get_family("sum_axial_quadrupole").fn(batch)
    assert vals.std() > 0.5
    alt = 2 * 8 * 1.0 - 3 * (batch[:, :, 2] ** 2).sum(axis=1)
    np.testing.assert_allclose(vals, alt, rtol=1e-10)
    assert family_decay_rate(spec_c1, "sum_axial_quadrupole") == eigenvalue_scaled(spec_c1, 2)


def test_trial_function_constants():
    tf = standard_trial_function(8)
    assert tf.c_const == pytest.approx(8.0 / 3.0)
    assert tf.a_const == pytest.approx(1.5 / 8.0 * math.sqrt(23.0))


def test_trial_eval_crafted_state():
    # all energy in components 2 and 3: sum v_{i,1}^2 = 0
    n = 8
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    p = np.zeros((n, 3))
    p[::2, 1] = math.sqrt(2.0)
    p[1::2, 1] = -math.sqrt(2.0)
    energy_err, mom_err = constraint_errors(spec, p)
    assert abs(energy_err) <= 1e-12 and mom_err <= 1e-12
    tf = standard_trial_function(n)
    assert trial_eval(tf, spec, p) == pytest.approx(-tf.a_const * n / 3.0, rel=1e-14)


def test_trial_eval_rejects_nonstandard(rng):
    tf = standard_trial_function(8)
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=2.0)
    v = sample_uniform_batch(spec, 1, rng)[0]
    with pytest.raises(ValueError):
        trial_eval(tf, spec, v)


def test_trial_normalization_mc(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    tf = standard_trial_function(8)
    batch = sample_uniform_batch(spec, 100000, rng)
    psi = tf.a_const * (0.5 * (batch[:, :, 0] ** 2).sum(axis=1) - tf.c_const)
    n = len(psi)
    assert abs(psi.mean()) <= 3.0 * psi.std(ddof=1) / math.sqrt(n)
    sq = psi ** 2
    assert abs(sq.mean() - 1.0) <= 3.0 * sq.std(ddof=1) / math.sqrt(n)


def test_rayleigh_requires_budget(rng):
    spec = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    with pytest.raises(ValueError):
        rayleigh_quotient_mc(spec, standard_trial_function(4), COULOMB, 10, rng)


def test_rayleigh_names_a_non_finite_estimate(rng):
    # the weights pass KernelSpec.check_weights (8^201 ~ 1e182 at most),
    # but their squares overflow the stderr's sum
    spec = ManifoldSpec(2, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    kernel = KernelSpec(400.0)
    kernel.check_weights(spec)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="N = 2, gamma = 400"):
        rayleigh_quotient_mc(spec, standard_trial_function(2), kernel, 1000, rng)


def test_rayleigh_at_n2_draws_only_its_normals():
    # at N = 2 the pair spans the sphere: the shape-0 gamma variates are
    # zeros and take nothing from the stream
    spec = ManifoldSpec(2, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    rng, twin = np.random.default_rng(1600), np.random.default_rng(1600)
    rayleigh_quotient_mc(spec, standard_trial_function(2), COULOMB, 1000, rng)
    twin.standard_normal((1000, 3))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_rayleigh_matches_exact_closed_form(rng):
    # dual-route check of the estimator: Beta-moment closed form
    for n, gamma in [(2, -3.0), (4, -3.0), (8, -3.0), (8, 0.0), (8, -2.0)]:
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        tf = standard_trial_function(n)
        est, err = rayleigh_quotient_mc(spec, tf, KernelSpec(gamma), 120000, rng)
        exact = rayleigh_quotient_exact(n, gamma)
        assert est == pytest.approx(exact, abs=4.5 * err)
        assert est > 0


def test_rayleigh_matches_n_particle_reference():
    # the pair-law sampler against the estimator over whole N-particle
    # states, which shares no sampling code with it
    for k, (n, gamma) in enumerate(itertools.product((2, 3, 8), (-3.0, 0.0, 3.0))):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        tf = standard_trial_function(n)
        kernel = KernelSpec(gamma)
        est, err = rayleigh_quotient_mc(spec, tf, kernel, 40000,
                                        np.random.default_rng(1300 + k))
        ref, ref_err = rayleigh_quotient_mc_reference(
            spec, tf, kernel, 40000, np.random.default_rng(1400 + k))
        assert est == pytest.approx(ref, abs=4.5 * math.hypot(err, ref_err))


@pytest.mark.parametrize("gamma", [-3.0, 0.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_rayleigh_sums_components_as_the_axis_sum(n, gamma):
    # |g|^2 and |d| through geometry.dot3 give the last-axis reductions'
    # estimate bit for bit, over two whole chunks and a partial one; at
    # N = 2, q = 0 and |d| is the sphere's pair radius itself
    spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    tf = standard_trial_function(n)
    rng, twin = np.random.default_rng(1600 + n), np.random.default_rng(1600 + n)
    got = rayleigh_quotient_mc(spec, tf, KernelSpec(gamma), 45000, rng)
    want = rayleigh_quotient_mc_axis_sum(spec, tf, KernelSpec(gamma), 45000, twin)
    assert got[0] == want[0] and got[1] == want[1]
    assert rng.bit_generator.state == twin.bit_generator.state
    # each term, not only their sums, which round most one-ulp changes
    # away; rows at the cutoff, at subnormal and at huge scale included
    g = rng.standard_normal((20000, 3))
    g[:4] *= np.array([1e-300, 1e-160, 1e150, 0.0])[:, None]
    q = 2.0 * rng.standard_gamma(1.5 * (n - 2), 20000)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        terms = _pair_terms(spec, tf, KernelSpec(gamma), g, q)
        want_terms = pair_terms_axis_sum(spec, tf, KernelSpec(gamma), g, q)
    assert np.array_equal(terms, want_terms, equal_nan=True)


def test_rayleigh_memory_flat_in_n():
    # only the pair difference is drawn: no N-particle state is allocated
    peaks = {}
    for n in (8, 4096):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        tf = standard_trial_function(n)
        tracemalloc.start()
        try:
            est, err = rayleigh_quotient_mc(spec, tf, COULOMB, 1000,
                                            np.random.default_rng(1500 + n))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4096] <= 1.5 * peaks[8]
    assert est == pytest.approx(rayleigh_quotient_exact(4096, -3.0), abs=6 * err)


def test_rayleigh_exact_value_n2():
    # at N=2 the trial function is the lowest symmetric eigenfunction of the
    # Coulomb-weight generator and its quadratic form is exactly 3 sqrt(2)/4
    assert rayleigh_quotient_exact(2, -3.0) == pytest.approx(3 * math.sqrt(2) / 4,
                                                             rel=1e-12)


def test_conserved_quadratic_form_vanishes(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    assert conserved_quadratic_form_mc(spec, "mass", COULOMB, 1000, rng) == (0.0, 0.0)
    assert conserved_quadratic_form_mc(spec, "momentum", COULOMB, 1000, rng) == (0.0, 0.0)
    est, err = conserved_quadratic_form_mc(spec, "energy", COULOMB, 5000, rng)
    assert abs(est) < 1e-25


def test_lambda1_bound_values():
    assert lambda1_bound(2) == pytest.approx(0.718096, abs=5e-6)
    assert lambda1_bound(8) == pytest.approx(0.227083, abs=5e-6)
    vals = [lambda1_bound(n) for n in (2, 4, 8, 16, 32, 64, 1 << 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2


def test_gap_scan_requires_three_points(rng):
    with pytest.raises(ValueError):
        gap_scan([8, 16], COULOMB, 2000, rng)
    with pytest.raises(ValueError):
        gap_scan([8, 8, 16], COULOMB, 2000, rng)


def test_gap_scan_matches_exact_scaling(rng):
    # the measured exponent must match the exact closed form's log-log slope
    ns = [8, 16, 32]
    res = gap_scan(ns, COULOMB, 40000, rng)
    exact = [rayleigh_quotient_exact(n, -3.0) for n in ns]
    slope = np.polyfit(np.log(ns), np.log(exact), 1)[0]
    assert res.exponent == pytest.approx(slope, abs=0.02)
    for est, ex, err in zip(res.estimates, exact, res.stderrs):
        assert est == pytest.approx(ex, abs=4.5 * err)
