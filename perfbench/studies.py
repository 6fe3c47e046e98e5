"""The four benchmark workloads.

Each workload is a fixed list of kinlab studies. A study is the config text
handed to ``kinlab.cli.parse_config`` (the only input kinlab receives) plus a
check of the artifacts that ``kinlab.cli.run`` writes, against an exact
oracle. Shapes (N, R, gamma, initial state) come from the recipes that
dominate recipe and test time; step and sample counts are sized so that one
repetition of a workload takes 0.5 to 1.5 seconds on a desk core, and dt is
chosen so that every check holds on any seed with a wide margin (the cost of
a step does not depend on dt).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betaln

# Moment-flow anisotropy rate of the Maxwell-molecule (gamma = 0) collision
# flow: A' = -12 A (derivation in kinlab.kinetic_limits).
LANDAU_RATE = 12.0
# Tail probability of the radial KS check. The recipe's 99% quantile fails on
# about one seed in a hundred by construction; the benchmark must pass on
# every seed, so it uses the same Kolmogorov asymptotic at this level.
KS_TAIL = 1e-6
# Constraint tolerance that README promises after every step and sample.
CONSTRAINT_RTOL = 1e-12
# z bound for Monte Carlo estimates against their closed form.
MC_Z = 6.0
# Relative bound on fitted decay rates. At the sizes below the fitted rate
# spreads over seeds by about 6% (pair-many-rounds, mean +2%) and 5%
# (sphere-large-n, mean -4%: the O(dt) bias), so the bound is at least five
# standard deviations from either mean.
RATE_RTOL = 0.30


@dataclass(frozen=True)
class Study:
    name: str
    config: str
    check: Callable[[Path, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple[Study, ...]
    sizes: dict
    work: int
    work_unit: str


def study_seed(seed: int, index: int) -> int:
    """Per-study kinlab seed derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def read_table(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _config(command: str, **keys) -> str:
    lines = [f"command = {command}"]
    for key, value in keys.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _energy_violations(series: list[dict[str, float]], eps: float) -> list[str]:
    out = []
    for row in series:
        rel = abs(row["energy_per_particle_mean"] / eps - 1.0)
        if not rel <= CONSTRAINT_RTOL:
            out.append(f"energy_per_particle at t={row['time']:g} off by {rel:.3e} relative")
    return out


def _rate_violations(manifest: dict, exact: float) -> list[str]:
    fit = manifest["extras"].get("decay_fit")
    if fit is None:
        return ["no decay fit in the manifest"]
    rel = fit["rate"] / exact - 1.0
    if not abs(rel) <= RATE_RTOL:
        return [f"fitted {fit['observable']} rate {fit['rate']:.4f} vs exact "
                f"{exact:.4f} ({rel:+.1%}, bound {RATE_RTOL:.0%})"]
    return []


# ---------------------------------------------------------------------------
# pair-many-replicas: recipe h_theorem_bp_n16


def pair_many_replicas(seed: int) -> Workload:
    n, r, dt, steps = 16, 2048, 0.01, 6
    t_end = steps * dt

    def check(out: Path, manifest: dict) -> list[str]:
        bad = _energy_violations(read_table(out / "series.csv"), 1.0)
        ent = read_table(out / "entropy.csv")
        if len(ent) != 3:
            bad.append(f"entropy table has {len(ent)} rows, expected 3")
        s0 = ent[0]["relative_entropy"]
        for row in ent[1:]:
            if not row["relative_entropy"] > s0:
                bad.append(f"relative entropy at t={row['time']:g} "
                           f"({row['relative_entropy']:.5f}) not above t=0 ({s0:.5f})")
        return bad

    cfg = _config("sim-bp", n_particles=n, mode="energy-momentum", eps=1.0,
                  gamma=-3, dt=dt, t_end=repr(t_end), n_replicas=r,
                  record_every=steps // 2, observables="sum_v1v2,energy_per_particle",
                  init="shear", init_strength=0.9,
                  entropy_times=(0, repr(steps // 2 * dt), repr(t_end)),
                  entropy_bins=20, seed=study_seed(seed, 0))
    updates = r * steps * n * (n - 1) // 2
    return Workload("pair-many-replicas", (Study("h_theorem_bp", cfg, check),),
                    {"n_particles": n, "n_replicas": r, "gamma": -3.0, "dt": dt,
                     "steps": steps, "rounds_per_step": n - 1},
                    updates, "pair updates")


# ---------------------------------------------------------------------------
# pair-many-rounds: recipe landau_anisotropy_n256


def pair_many_rounds(seed: int) -> Workload:
    n, r, dt, steps = 256, 48, 0.01, 2

    def check(out: Path, manifest: dict) -> list[str]:
        bad = _energy_violations(read_table(out / "series.csv"), 1.0)
        return bad + _rate_violations(manifest, LANDAU_RATE)

    cfg = _config("sim-bp", n_particles=n, mode="energy-momentum", eps=1.0,
                  gamma=0, dt=dt, t_end=repr(steps * dt), n_replicas=r,
                  record_every=1, observables="mean_v1v2,energy_per_particle",
                  init="shear", init_strength=0.6, fit_observable="mean_v1v2",
                  seed=study_seed(seed, 0))
    updates = r * steps * n * (n - 1) // 2
    return Workload("pair-many-rounds", (Study("landau_anisotropy", cfg, check),),
                    {"n_particles": n, "n_replicas": r, "gamma": 0.0, "dt": dt,
                     "steps": steps, "rounds_per_step": n - 1},
                    updates, "pair updates")


# ---------------------------------------------------------------------------
# sphere-large-n: recipe fpe_tracking_n512


def sphere_large_n(seed: int) -> Workload:
    n, r, dt, steps = 512, 1024, 0.04, 8
    # Degree-1 eigenvalue j(j + 3N - 5)/(2 N eps0) of the energy-momentum
    # sphere at j = 1.
    exact = (3 * n - 4) / (2.0 * n)

    def check(out: Path, manifest: dict) -> list[str]:
        return _rate_violations(manifest, exact)

    cfg = _config("sim-sphere", n_particles=n, mode="energy-momentum", eps=1.0,
                  dt=dt, t_end=repr(steps * dt), n_replicas=r, record_every=1,
                  observables="tagged_v1", init="tagged-shift", init_strength=1.2,
                  fit_observable="tagged_v1", seed=study_seed(seed, 0))
    return Workload("sphere-large-n", (Study("fpe_tracking", cfg, check),),
                    {"n_particles": n, "n_replicas": r, "dt": dt, "steps": steps},
                    r * 3 * n * steps, "coordinate-steps")


# ---------------------------------------------------------------------------
# equilibrium-mc: gap scan, marginal comparison and sampling, no dynamics


def rayleigh_exact(n: int, gamma: float) -> float:
    """Closed-form quadratic form of the standard trial function.

    With d = v_2 - v_1 on the energy-momentum sphere (u = 0, eps = 1),
    |d|^2 = 4 N B with B ~ Beta(3/2, (3N-6)/2), and the direction of d is
    uniform on S^2 and independent of |d|, so the Monte Carlo integrand
    (N/2) |d|^{2+gamma} A^2 d_1^2 (1 - n_1^2) averages to
    (9 (3N-1) / (8N)) (2/15) E[|d|^{4+gamma}].
    """
    s = 0.5 * (4.0 + gamma)
    a, b = 1.5, 1.5 * (n - 2)
    moment = math.exp(s * math.log(4.0 * n) + betaln(a + s, b) - betaln(a, b))
    return (9.0 * (3 * n - 1) / (8.0 * n)) * (2.0 / 15.0) * moment


def ks_bound(n_samples: int) -> float:
    """Kolmogorov asymptotic quantile at tail probability KS_TAIL."""
    return math.sqrt(math.log(2.0 / KS_TAIL) / 2.0) / math.sqrt(n_samples)


def equilibrium_mc(seed: int) -> Workload:
    gamma, n_list, mc_samples = -3.0, (8, 16, 32, 64), 25000
    marg_n, marg_samples, marg_list = 8, 100000, (8, 32, 128)
    sample_n, sample_states = 64, 1250

    def check_gap(out: Path, manifest: dict) -> list[str]:
        rows = read_table(out / "gap_scan.csv")
        bad = [] if [int(r["N"]) for r in rows] == list(n_list) else ["wrong N rows"]
        for row in rows:
            exact = rayleigh_exact(int(row["N"]), gamma)
            z = (row["estimate"] - exact) / row["stderr"]
            if not abs(z) <= MC_Z:
                bad.append(f"Rayleigh estimate at N={int(row['N'])} "
                           f"{row['estimate']:.5f} vs exact {exact:.5f} (z={z:+.1f})")
        return bad

    def check_marginal(out: Path, manifest: dict) -> list[str]:
        bad = []
        (ks,) = read_table(out / "ks.csv")
        bound = ks_bound(int(ks["n_pooled"]))
        if not ks["ks_statistic"] <= bound:
            bad.append(f"radial KS {ks['ks_statistic']:.3e} above {bound:.3e}")
        sup = [row["supnorm_distance_to_maxwellian"]
               for row in read_table(out / "supnorm.csv")]
        if not all(a > b for a, b in zip(sup, sup[1:])):
            bad.append(f"sup-norm distance not decreasing in N: {sup}")
        return bad

    def check_sample(out: Path, manifest: dict) -> list[str]:
        rows = read_table(out / "samples.csv")
        bad = [] if len(rows) == sample_states else [f"{len(rows)} sample rows"]
        worst_e = max(abs(r["energy_rel_error"]) for r in rows)
        worst_p = max(r["momentum_error"] for r in rows)
        worst_sep = max(r["max_pair_sep_sq_over_4Neps"] for r in rows)
        if not worst_e <= CONSTRAINT_RTOL:
            bad.append(f"sampled energy off by {worst_e:.3e} relative")
        if not worst_p <= CONSTRAINT_RTOL:
            bad.append(f"sampled momentum off by {worst_p:.3e}")
        if not worst_sep <= 1.0 + CONSTRAINT_RTOL:
            bad.append(f"pair separation bound exceeded: {worst_sep:.6f}")
        return bad

    studies = (
        Study("gap_scan", _config("gap-scan", n_list=n_list, gamma=-3,
                                  n_samples=mc_samples, seed=study_seed(seed, 0)),
              check_gap),
        Study("marginal_compare",
              _config("marginal-compare", n_particles=marg_n, eps=1.0,
                      n_samples=marg_samples, n_list=marg_list,
                      seed=study_seed(seed, 1)),
              check_marginal),
        Study("sample", _config("sample", n_particles=sample_n,
                                mode="energy-momentum", eps=1.0,
                                n_samples=sample_states, seed=study_seed(seed, 2)),
              check_sample),
    )
    pooled = (marg_samples // marg_n) * marg_n
    work = len(n_list) * mc_samples + pooled + sample_states
    return Workload("equilibrium-mc", studies,
                    {"gamma": gamma, "gap_scan_n": list(n_list),
                     "rayleigh_samples_per_n": mc_samples,
                     "marginal_n": marg_n, "marginal_pooled_speeds": pooled,
                     "sample_n": sample_n, "sample_states": sample_states},
                    work, "Monte Carlo samples (Rayleigh samples + pooled KS speeds "
                          "+ sampled states)")


WORKLOADS = {
    "pair-many-replicas": pair_many_replicas,
    "pair-many-rounds": pair_many_rounds,
    "sphere-large-n": sphere_large_n,
    "equilibrium-mc": equilibrium_mc,
}
