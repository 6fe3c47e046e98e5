#!/usr/bin/env python3
"""Uniform sampling on the constraint spheres and exact stationary marginals.

Draws equilibrium ensembles, checks the conservation constraints hold to
machine precision, compares the pooled single-velocity distribution with the
exact stationary marginal (radial Kolmogorov-Smirnov), and shows the
marginal converging to the Maxwellian as N grows.
"""

import numpy as np

from kinlab import (ConservationMode, ManifoldSpec, max_pair_separation_sq,
                    sample_uniform_batch)
from kinlab.kinetic_limits import (LimitParams, maxwellian_eval,
                                   stationary_marginal_eval)
from kinlab.observables import ks_quantile_99, radial_ks_statistic

rng = np.random.default_rng(2)

spec = ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0)
batch = sample_uniform_batch(spec, 50000, rng)
energy = 0.5 * (batch ** 2).sum(axis=(1, 2))
print(f"max |energy - N eps| over 5e4 samples: {np.abs(energy - 8).max():.2e}")

# pair separations obey |v_k - v_l|^2 <= 4 N eps on the sphere
pair_sq = max_pair_separation_sq(batch)
print(f"max pair separation^2 / (4 N eps): {pair_sq.max() / 32:.4f}  (< 1)")

ks, n_pool = radial_ks_statistic(batch, spec)
print(f"radial KS vs exact stationary marginal: {ks:.2e} "
      f"(99% quantile at n={n_pool}: {ks_quantile_99(n_pool):.2e})")

print("\nsup-norm distance of the 1-marginal to the Maxwellian:")
p = LimitParams(eps0=1.0)
for n in (8, 32, 128, 512):
    s = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
    r = np.linspace(0, s.radius, 512)
    v = np.zeros((512, 1, 3))
    v[:, 0, 0] = r
    d = np.max(np.abs(stationary_marginal_eval(s, 1, v)
                      - maxwellian_eval(p, v[:, 0, :])))
    print(f"  N={n:>4}: {d:.3e}")
