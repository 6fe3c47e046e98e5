#!/usr/bin/env python3
"""Kinetic limits: Fokker-Planck mean tracking, Maxwell-molecule anisotropy
relaxation, the H theorem, and the marginal-factorization diagnostic.

Large-N runs of the two sphere diffusions reproduce the closed moment flows
of their limiting kinetic equations; the relative entropy increases
monotonically; and the pair marginal factorizes better as N grows.
"""

import math

import numpy as np

from kinlab import ConservationMode, KernelSpec, ManifoldSpec, sample_uniform_batch
from kinlab.kinetic_limits import (LimitParams, entropy_grid_edges,
                                   fpe_moment_flow, landau_moment_flow,
                                   relative_entropy, velocity_histogram3d)
from kinlab.master_sim import (SimConfig, run_ensemble, sheared_sampler,
                               shifted_sampler, tagged_shift_sampler)
from kinlab.observables import (chaos_distance, decay_rate_fit, one_marginal,
                                pair_marginal)

p = LimitParams(eps0=1.0)

# --- tagged mean vs the linear Fokker-Planck flow (N = 256 keeps it quick)
spec = ManifoldSpec(256, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
cfg = SimConfig(dt=2.5e-3, t_end=1.0, n_replicas=512, record_every=80)
res = run_ensemble(spec, cfg, ["tagged_v1"], rng=np.random.default_rng(61),
                   initial_sampler=tagged_shift_sampler(1.2))
s = res.series["tagged_v1"]
print("tagged mean vs Fokker-Planck flow (mean relaxes at 3/(2 eps0)):")
for i, t in enumerate(s.times):
    oracle = fpe_moment_flow(p, [s.means[0], 0, 0],
                             (2 / 3) * np.eye(3), t).mean[0]
    print(f"  t={t:.2f}: sim {s.means[i]:+.4f} +- {s.stderrs[i]:.4f}   "
          f"flow {oracle:+.4f}")

# --- Maxwell-molecule (gamma = 0) anisotropy rate
spec = ManifoldSpec(128, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
cfg = SimConfig(dt=2e-3, t_end=0.25, n_replicas=64,
                kernel=KernelSpec(0.0), record_every=5)
res = run_ensemble(spec, cfg, ["mean_v1v2"], rng=np.random.default_rng(62),
                   initial_sampler=sheared_sampler(0.6))
fit = decay_rate_fit(res.series["mean_v1v2"])
s0 = (2 / 3) * np.eye(3) + 0.2 * (np.eye(3) == 0)
st = landau_moment_flow(np.zeros(3), s0, 0.1)
flow_rate = -math.log(st.centered[0, 1] / s0[0, 1]) / 0.1
print(f"\ngamma=0 anisotropy rate: fitted {fit.rate:.2f} vs moment flow {flow_rate:.2f}")

# --- H theorem along the isotropic diffusion
spec = ManifoldSpec(16, ConservationMode.ENERGY_ONLY, eps=1.0)
times = [0.0, 0.25, 0.5, 1.0, 1.5]
cfg = SimConfig(dt=2.5e-3, t_end=1.5, n_replicas=4096, record_every=200)
res = run_ensemble(spec, cfg, ["sum_v1"], rng=np.random.default_rng(63),
                   initial_sampler=shifted_sampler(0.8),
                   snapshot_times=times)
edges = entropy_grid_edges(p, bins=20)
print("\nrelative entropy along the isotropic diffusion:")
for snap in res.snapshots:
    sval = relative_entropy(velocity_histogram3d(snap.velocities, edges), edges, p)
    print(f"  t={snap.time:.2f}: S = {sval:+.4f}")

# --- marginal factorization improves with N
sigma = math.sqrt(2 / 3)
edges1 = np.linspace(-4 * sigma, 4 * sigma, 17)
rng = np.random.default_rng(64)
print("\npair-marginal factorization distance (uniform ensembles):")
for n in (8, 32, 128):
    spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
    vel = sample_uniform_batch(spec, max(8, 400000 // (n * (n - 1))), rng)
    h2 = pair_marginal(vel, edges1, 0, 400000, rng)
    h1 = one_marginal(vel, edges1, 0)
    print(f"  N={n:>4}: {chaos_distance(h2, h1):.4f}")
