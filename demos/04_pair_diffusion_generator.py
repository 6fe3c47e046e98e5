#!/usr/bin/env python3
"""The pairwise collision diffusion and its exact generator.

Each unordered pair (k,l) diffuses on the 2-sphere of its relative-velocity
direction with diffusivity 2 |v_k - v_l|^{2+gamma} / (N-1); pair momentum
and separation are restored exactly after every kick, so total energy and
momentum never drift. The one-step ensemble drift of catalog polynomials
matches the closed-form generator action.
"""

import math

import numpy as np

from kinlab import (ConservationMode, KernelSpec, ManifoldSpec, constraint_errors,
                    generator_apply, sample_uniform_batch, step_pair_diffusion)
from kinlab.master_sim import TestPolynomial

rng = np.random.default_rng(4)
kernel = KernelSpec(-3.0)    # Coulomb weight |v_k - v_l|^{-1}

spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
v = sample_uniform_batch(spec, 1, rng)
worst = 0.0
for _ in range(200):
    v = step_pair_diffusion(spec, v, kernel, 1e-3, rng)
    energy_err, mom_err = constraint_errors(spec, v[0])
    worst = max(worst, abs(energy_err), mom_err)
print(f"200 steps: worst constraint violation {worst:.2e}")

print("\nthe generator annihilates energy and momentum, as sums of its action")
print("on v_ks^2 / 2 and on v_ks over all particles k:")
n = spec.n_particles
gen = lambda phi: generator_apply(spec, v[0], kernel, phi)
sums = {"energy": [0.5 * gen(TestPolynomial.quad(k, s, k, s))
                   for k in range(n) for s in range(3)]}
for s in range(3):
    sums[f"momentum_{s + 1}"] = [gen(TestPolynomial.coord(k, s)) for k in range(n)]
for name, terms in sums.items():
    print(f"  generator[{name}] = {sum(terms):+.1e}   "
          f"(sum of |terms| {sum(map(abs, terms)):.1e})")


class Antithetic:
    """Generator stand-in whose second half of every draw mirrors the first:
    the same schedule, the noise negated. Pairing each replica with its
    mirror cancels the O(sqrt(dt)) fluctuation of the one-step drift."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        x = self.rng.random((shape[0] // 2, *shape[1:]))
        return np.concatenate([x, x])

    def standard_normal(self, shape):
        x = self.rng.standard_normal((shape[0] // 2, *shape[1:]))
        return np.concatenate([x, -x])


print("\none-step weak drift vs closed-form generator (N=4, dt=1e-4):")
spec4 = ManifoldSpec(4, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
v0 = sample_uniform_batch(spec4, 1, np.random.default_rng(51))[0]
dt, m = 1e-4, 100000
for phi in (TestPolynomial.coord(0, 0), TestPolynomial.quad(0, 0, 1, 1)):
    base = np.broadcast_to(v0, (2 * m, 4, 3)).copy()
    out = step_pair_diffusion(spec4, base, kernel, dt,
                              Antithetic(np.random.default_rng(5)))
    vals = phi.evaluate(out)
    drift = (0.5 * (vals[:m] + vals[m:]) - phi.evaluate(v0))
    est = drift.mean() / dt
    se = drift.std(ddof=1) / math.sqrt(m) / dt
    gen = generator_apply(spec4, v0, kernel, phi)
    print(f"  {phi.kind:<6} drift {est:+.5f} +- {se:.5f}   generator {gen:+.5f}")
