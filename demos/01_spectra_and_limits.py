#!/usr/bin/env python3
"""Exact sphere-Laplacian spectra and their large-N limit.

The constraint manifolds are spheres, so the relaxation spectrum of the
isotropic diffusion is known in closed form: j(j + 3N - 2)/(2 N eps) with
energy conservation only, j(j + 3N - 5)/(2 N eps0) with momentum
conservation too. As N grows both ladders converge to the equally spaced
harmonic-oscillator ladder 3j/(2 eps_eff).
"""

from kinlab import (ConservationMode, ManifoldSpec, eigenvalue_scaled,
                    limit_eigenvalue, spectrum_table)

for mode, label in [(ConservationMode.ENERGY_ONLY, "energy only (C=1)"),
                    (ConservationMode.ENERGY_MOMENTUM, "energy+momentum (C=4)")]:
    spec = ManifoldSpec(16, mode, eps=1.0)
    tab = spectrum_table(spec, 4)
    print(f"\nN = 16, {label}")
    print(f"{'j':>3} {'unscaled':>10} {'scaled':>10} {'limit':>8}")
    for j, unscaled, scaled, limit in tab:
        print(f"{j:>3} {unscaled:>10.1f} {scaled:>10.5f} {limit:>8.3f}")

print("\nconvergence of the j=1 eigenvalue (energy only, eps=1):")
for n in (8, 32, 128, 512, 4096):
    spec = ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=1.0)
    lam = eigenvalue_scaled(spec, 1)
    print(f"  N={n:>5}: {lam:.6f}   gap to limit {lam - limit_eigenvalue(1, 1.0):+.2e}"
          f"   (exactly -1/(2N) = {-1/(2*n):+.2e})")
