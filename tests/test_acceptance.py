"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line, or rely on
the per-test PASSED/FAILED markers of ``pytest -v``. Budgets are desk scale
(a few minutes total). All tolerances are pinned here, none deferred.

Criteria 7 and 8 (soft-potential clause) FAIL by construction: the bound
formula in ``lambda1_bound`` is provably not an upper bound for the trial
function's quadratic form (the exact closed form at N=2 is 3*sqrt(2)/4 ~
1.0607 > 0.7181, and it tends to a positive constant as N grows, so neither
the inequality nor the N^(-1/2) scaling can hold). The estimator itself is
verified against the exact closed form in tests/test_spectral.py. See
README "Known red criteria".
"""

import math

import numpy as np
import pytest

from kinlab.geometry import (
    ConservationMode,
    ManifoldSpec,
    constraint_errors,
    sample_uniform_batch,
)
from kinlab.kinetic_limits import (
    LimitParams,
    entropy_grid_edges,
    fpe_moment_flow,
    landau_moment_flow,
    maxwellian_eval,
    relative_entropy,
    stationary_marginal_eval,
    velocity_histogram3d,
)
from kinlab.master_sim import (
    KernelSpec,
    SimConfig,
    TestPolynomial,
    generator_apply,
    run_ensemble,
    sheared_sampler,
    shifted_sampler,
    step_pair_diffusion,
    tagged_shift_sampler,
)
from kinlab.observables import (
    chaos_distance,
    decay_rate_fit,
    ks_quantile_99,
    one_marginal,
    pair_marginal,
    radial_ks_statistic,
)
from kinlab.spectral import (
    eigenvalue_scaled,
    gap_scan,
    lambda1_bound,
    limit_eigenvalue,
    rayleigh_quotient_mc,
    standard_trial_function,
)

from oracles import AntitheticGenerator, generator_conservation_residuals

COULOMB = KernelSpec(-3.0)


def _report(num: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_spectrum_tables():
    worst = 0.0
    for n in (8, 32, 128, 512):
        c1 = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        c4 = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        for j in range(5):
            # exact integer arithmetic (2 N eps = 2N is an integer here)
            assert eigenvalue_scaled(c1, j) == j * (j + 3 * n - 2) / (2 * n)
            assert eigenvalue_scaled(c4, j) == j * (j + 3 * n - 5) / (2 * n)
            if j == 0:
                continue
            for spec in (c1, c4):
                gap = abs(eigenvalue_scaled(spec, j) - limit_eigenvalue(j, 1.0))
                # 3 j^2/(2 N eps) with an explicit factor-2 slack for the
                # (1 + o(1)): the exact gaps are j|j-2|/(2N) and j|j-5|/(2N)
                bound = 2.0 * 3.0 * j * j / (2.0 * n)
                worst = max(worst, gap / bound)
                assert gap <= bound
    _report("01", True, f"spectrum tables exact; worst gap/bound = {worst:.3f}")


def test_criterion_02_sphere_decay_energy_only():
    spec = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
    cfg = SimConfig(dt=1e-3, t_end=2.0, n_replicas=4096, record_every=50)
    res = run_ensemble(spec, cfg, ["sum_v1"], rng=np.random.default_rng(210),
                       initial_sampler=shifted_sampler(0.7))
    fit = decay_rate_fit(res.series["sum_v1"])
    target = 1.46875
    rel = fit.rate / target - 1.0
    _report("02", abs(rel) <= 0.05,
            f"sum_v1 decay rate {fit.rate:.5f} vs {target} ({rel:+.2%}, "
            f"tol 5%, R^2={fit.r_squared:.4f})")


def test_criterion_03_sphere_decay_energy_momentum():
    spec = ManifoldSpec(16, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    cfg = SimConfig(dt=2e-3, t_end=1.2, n_replicas=4096, record_every=15)
    res = run_ensemble(spec, cfg, ["sum_v1v2"], rng=np.random.default_rng(310),
                       initial_sampler=sheared_sampler(0.5))
    fit = decay_rate_fit(res.series["sum_v1v2"])
    target = 2.8125
    rel = fit.rate / target - 1.0
    _report("03", abs(rel) <= 0.10,
            f"sum_v1v2 decay rate {fit.rate:.5f} vs {target} ({rel:+.2%}, "
            f"tol 10%, R^2={fit.r_squared:.4f})")


def test_criterion_04_stationary_marginal():
    rng = np.random.default_rng(410)
    spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
    velocities = sample_uniform_batch(spec, 125000, rng)   # 1e6 pooled
    ks, n_pool = radial_ks_statistic(velocities, spec)
    q99 = ks_quantile_99(n_pool)
    ks_ok = ks < q99
    sups = []
    p = LimitParams(eps0=1.0)
    for n in (8, 32, 128):
        s = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
        r = np.linspace(0.0, s.radius, 512)
        v = np.zeros((512, 1, 3))
        v[:, 0, 0] = r
        sups.append(float(np.max(np.abs(stationary_marginal_eval(s, 1, v)
                                        - maxwellian_eval(p, v[:, 0, :])))))
    mono = sups[0] > sups[1] > sups[2]
    _report("04", ks_ok and mono,
            f"radial KS {ks:.2e} < q99 {q99:.2e} at n={n_pool}; supnorm to "
            f"Maxwellian over N=8,32,128: {sups[0]:.2e} > {sups[1]:.2e} > "
            f"{sups[2]:.2e}")


def test_criterion_05_fpe_mean_tracking():
    p = LimitParams(eps0=1.0)
    # exact halving of m - u at t = (2 eps0/3) ln 2
    m0 = np.array([1.0, -0.4, 0.2])
    t_half = (2.0 * p.eps0 / 3.0) * math.log(2.0)
    st = fpe_moment_flow(p, m0, (2.0 / 3.0) * np.eye(3), t_half)
    exact = np.allclose(st.mean - p.u, 0.5 * (m0 - p.u), rtol=1e-12)

    spec = ManifoldSpec(512, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    cfg = SimConfig(dt=2.5e-3, t_end=1.0, n_replicas=1024, record_every=40)
    res = run_ensemble(spec, cfg, ["tagged_v1"], rng=np.random.default_rng(510),
                       initial_sampler=tagged_shift_sampler(1.2))
    s = res.series["tagged_v1"]
    m_hat0, se0 = s.means[0], s.stderrs[0]
    kappa = 1.5 / p.eps0
    zs = []
    for i in range(1, len(s.times)):
        t = s.times[i]
        oracle = fpe_moment_flow(p, [m_hat0, 0, 0], (2 / 3) * np.eye(3), t).mean[0]
        band = math.hypot(s.stderrs[i], se0 * math.exp(-kappa * t))
        zs.append((s.means[i] - oracle) / band)
    worst = max(abs(z) for z in zs)
    _report("05", exact and len(zs) == 10 and worst <= 3.0,
            f"halving exact: {exact}; tagged mean tracks the moment flow at "
            f"10 checkpoints, worst |z| = {worst:.2f} (tol 3)")


def test_criterion_06_bp_conservation_and_generator():
    rng = np.random.default_rng(610)
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)
    worst_e = worst_p = 0.0
    for _ in range(200):
        v = step_pair_diffusion(spec, v, COULOMB, 1e-3, rng)
        energy_err, mom_err = constraint_errors(spec, v[0])
        worst_e = max(worst_e, abs(energy_err))
        worst_p = max(worst_p, mom_err)
    cons_ok = worst_e <= 1e-12 and worst_p <= 1e-12

    gen_residual = max(generator_conservation_residuals(spec, v[0], COULOMB))
    gen_ok = gen_residual <= 1e-12

    spec4 = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v0 = sample_uniform_batch(spec4, 1, np.random.default_rng(51))[0]
    dt = 1e-4
    total_pairs = 500000            # 1e6 one-step samples, antithetic
    chunk = 125000
    rels = []
    for idx, phi in enumerate([TestPolynomial.coord(0, 0),
                               TestPolynomial.quad(0, 0, 1, 1),
                               TestPolynomial.quad(0, 0, 0, 1)]):
        phi0 = float(phi.evaluate(v0))
        acc = 0.0
        acc_sq = 0.0
        step_rng = np.random.default_rng(6100 + idx)
        for start in range(0, total_pairs, chunk):
            m = min(chunk, total_pairs - start)
            base = np.broadcast_to(v0, (2 * m, 4, 3)).copy()
            out = step_pair_diffusion(spec4, base, COULOMB, dt,
                                      AntitheticGenerator(step_rng))
            vals = phi.evaluate(out)
            pair_mean = 0.5 * (vals[:m] + vals[m:]) - phi0
            acc += pair_mean.sum()
            acc_sq += (pair_mean ** 2).sum()
        drift = acc / total_pairs / dt
        gen = generator_apply(spec4, v0, COULOMB, phi)
        rels.append(abs(drift - gen) / abs(gen))
    weak_ok = all(r <= 0.10 for r in rels)
    _report("06", cons_ok and gen_ok and weak_ok,
            f"per-step errors e={worst_e:.1e}, p={worst_p:.1e} (tol 1e-12); "
            f"generator on energy and momentum {gen_residual:.1e} of its terms "
            f"(tol 1e-12); weak drift rel "
            f"errors {['%.3f' % r for r in rels]} (tol 0.10)")


def test_criterion_07_variational_bound_inequality():
    rng = np.random.default_rng(710)
    rows = []
    ok = True
    for n in (2, 4, 8, 16, 32, 64):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        est, err = rayleigh_quotient_mc(spec, standard_trial_function(n),
                                        COULOMB, 100000, rng)
        bound = lambda1_bound(n)
        rows.append(f"N={n}: {est:.4f}+-{err:.4f} vs bound {bound:.4f}")
        ok = ok and est <= bound + 3 * err
    _report("07a", ok, "Rayleigh estimate <= bound within 3 stderr; "
            + "; ".join(rows))


def test_criterion_07_gap_scan_exponent():
    rng = np.random.default_rng(711)
    res = gap_scan([8, 16, 32, 64], COULOMB, 100000, rng)
    ok = abs(res.exponent + 0.5) <= 0.1
    _report("07b", ok,
            f"gamma=-3 gap-scan exponent {res.exponent:+.4f} vs -0.5 +- 0.1 "
            f"(estimates {np.round(res.estimates, 4).tolist()})")


def test_criterion_08_soft_potential_exponent():
    rng = np.random.default_rng(810)
    res = gap_scan([8, 16, 32, 64], KernelSpec(-2.0), 100000, rng)
    ok = res.exponent < -0.1
    _report("08a", ok,
            f"gamma=-2 gap-scan exponent {res.exponent:+.4f} (needs < -0.1; "
            f"estimates {np.round(res.estimates, 4).tolist()})")


def test_criterion_08_hard_potential_flat():
    rng = np.random.default_rng(811)
    res = gap_scan([8, 16, 32, 64], KernelSpec(3.0), 100000, rng)
    floor = float(np.min(res.estimates - 3 * res.stderrs))
    ok = abs(res.exponent) < 0.15 and floor > 0
    _report("08b", ok,
            f"gamma=+3 gap-scan exponent {res.exponent:+.4f} (|.| < 0.15), "
            f"positive lower bound {floor:.3f}")


def _entropy_series(snapshots, p, edges, blocks=8):
    out = []
    for snap in snapshots:
        vel = snap.velocities
        s_all = relative_entropy(velocity_histogram3d(vel, edges), edges, p)
        parts = [relative_entropy(velocity_histogram3d(vel[idx], edges), edges, p)
                 for idx in np.array_split(np.arange(vel.shape[0]), blocks)]
        out.append((snap.time, s_all, float(np.std(parts) / math.sqrt(blocks))))
    return out


def _monotone_within_noise(series, factor=2.0):
    for (t0, s0, e0), (t1, s1, e1) in zip(series, series[1:]):
        if s1 < s0 - factor * math.hypot(e0, e1):
            return False, f"S({t1}) = {s1:.4f} < S({t0}) = {s0:.4f} beyond noise"
    return True, ""


def test_criterion_09_h_theorem():
    p = LimitParams(eps0=1.0)
    edges = entropy_grid_edges(p, bins=20)
    times = [0.0, 0.15, 0.3, 0.5, 0.75, 1.0, 1.5]

    spec1 = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
    cfg1 = SimConfig(dt=2.5e-3, t_end=1.5, n_replicas=8192, record_every=600)
    res1 = run_ensemble(spec1, cfg1, ["energy_per_particle"],
                        rng=np.random.default_rng(910),
                        initial_sampler=shifted_sampler(0.8),
                        snapshot_times=times)
    ser1 = _entropy_series(res1.snapshots, p, edges)
    ok1, why1 = _monotone_within_noise(ser1)

    spec2 = ManifoldSpec(16, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    cfg2 = SimConfig(dt=2.5e-3, t_end=1.5, n_replicas=2048,
                     kernel=COULOMB, record_every=600)
    res2 = run_ensemble(spec2, cfg2, ["energy_per_particle"],
                        rng=np.random.default_rng(911),
                        initial_sampler=sheared_sampler(0.9),
                        snapshot_times=times)
    ser2 = _entropy_series(res2.snapshots, p, edges)
    ok2, why2 = _monotone_within_noise(ser2)

    _report("09a", ok1 and ok2,
            f"relative entropy nondecreasing (2x noise floor): sphere "
            f"{ser1[0][1]:.3f} -> {ser1[-1][1]:.3f}, pair {ser2[0][1]:.3f} -> "
            f"{ser2[-1][1]:.3f} {why1}{why2}")


def test_criterion_09_chaos_distance():
    rng = np.random.default_rng(912)
    sigma = math.sqrt(2.0 / 3.0)
    edges = np.linspace(-4 * sigma, 4 * sigma, 17)
    target = 1000000
    dists = []
    for i, n in enumerate((8, 32, 128)):
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        n_rep = max(8, int(math.ceil(target / (n * (n - 1)))))
        cfg = SimConfig(dt=4e-3, t_end=0.4, n_replicas=n_rep, kernel=COULOMB)
        res = run_ensemble(spec, cfg, ["energy_per_particle"],
                           rng=np.random.default_rng(9200 + i),
                           snapshot_times=[0.4])
        vel = res.snapshots[-1].velocities
        h2 = pair_marginal(vel, edges, 0, target, rng)
        h1 = one_marginal(vel, edges, 0)
        dists.append(chaos_distance(h2, h1))
    ok = dists[0] > dists[1] > dists[2]
    _report("09b", ok,
            f"pair-marginal factorization distance at t=0.4 over N=8,32,128: "
            f"{dists[0]:.4f} > {dists[1]:.4f} > {dists[2]:.4f}")


def test_criterion_10_maxwell_molecule_cross_check():
    spec = ManifoldSpec(256, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    cfg = SimConfig(dt=2e-3, t_end=0.25, n_replicas=48,
                    kernel=KernelSpec(0.0), record_every=5)
    res = run_ensemble(spec, cfg, ["mean_v1v2"], rng=np.random.default_rng(1010),
                       initial_sampler=sheared_sampler(0.6))
    fit = decay_rate_fit(res.series["mean_v1v2"])
    # oracle rate extracted from the moment flow itself
    s0 = np.array([[2 / 3, 0.2, 0.0], [0.2, 2 / 3, 0.0], [0.0, 0.0, 2 / 3]])
    t_probe = 0.1
    st = landau_moment_flow(np.zeros(3), s0, t_probe)
    oracle_rate = -math.log(st.centered[0, 1] / s0[0, 1]) / t_probe
    rel = fit.rate / oracle_rate - 1.0
    _report("10", abs(rel) <= 0.10,
            f"gamma=0 pair-diffusion anisotropy rate {fit.rate:.3f} vs moment "
            f"flow {oracle_rate:.3f} ({rel:+.2%}, tol 10%)")
