"""Exact sphere-Laplacian spectra and the variational spectral-gap machinery
for the pairwise diffusion.

Eigenvalues: the unit D-sphere Laplacian has spectrum j(j + D - 1); on our
manifolds (D = 3N-1 or 3N-4, radius^2 = 2N eps or 2N eps0) the scaled
eigenvalues are j(j + 3N - 2)/(2N eps) and j(j + 3N - 5)/(2N eps0), with the
N -> infinity limit 3j/(2 eps0) (eps0 = eps on the energy-only sphere): the
harmonic-oscillator ladder. The degree-j entries of
``observables.OBSERVABLES`` are exact eigenfunctions.

The variational side evaluates the quadratic form of the pairwise generator
on the mean-field trial function psi = A (sum_i v_{i,1}^2 / 2 - C) by Monte
Carlo over equilibrium samples; by permutation symmetry the form reduces to
a single-pair integral
    (N/2) * E[ w_12 * |P_perp (d_2 - d_1) psi|^2 ],   w_12 = |v_2-v_1|^{2+gamma},
which depends on the state only through d = v_2 - v_1. On the standard
energy-momentum sphere d has the exact two-particle law
    d = sqrt(2 radius^2) g / sqrt(|g|^2 + Q),   g ~ N(0, I_3), Q ~ chi^2(3N-6),
with Q independent of g (Q = 0 at N=2): |d|^2 = 4N Beta(3/2, (3N-6)/2) and
the direction of d is uniform. The estimator draws d from this law, so a
sample costs O(1), not O(N).

Normalization: expectations are over the probability measure dtau/|M|,
so ``a_const`` is the probability-normalized constant (3/2N) sqrt(3N-1)
with E[psi^2] = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    ConservationMode,
    ManifoldSpec,
    dot3,
    sample_uniform_batch,  # noqa: F401 - perfbench/spans.py wraps it by name
)
from .master_sim import KernelSpec
from .observables import weighted_log_linear_fit


# ---------------------------------------------------------------------------
# exact spectra


def eigenvalue_unscaled(spec: ManifoldSpec, j: int) -> float:
    """Unit D-sphere eigenvalue j(j + D - 1): j(j + 3N - 2) or j(j + 3N - 5)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    return float(j * (j + spec.dim - 1))


def eigenvalue_scaled(spec: ManifoldSpec, j: int) -> float:
    """Eigenvalue on the physical manifold (unit-sphere value / radius^2)."""
    return eigenvalue_unscaled(spec, j) / spec.radius_sq


def limit_eigenvalue(j: int, eps_eff: float) -> float:
    """N -> infinity eigenvalue 3j/(2 eps_eff)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    if not eps_eff > 0:
        raise ValueError("eps_eff must be positive")
    return 1.5 * j / eps_eff


def spectrum_table(spec: ManifoldSpec,
                   j_max: int) -> list[tuple[int, float, float, float]]:
    """Rows (j, unscaled, scaled, limit) for j = 0..j_max."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    return [
        (j, eigenvalue_unscaled(spec, j), eigenvalue_scaled(spec, j),
         limit_eigenvalue(j, spec.eps0))
        for j in range(j_max + 1)
    ]


# ---------------------------------------------------------------------------
# variational trial function


def _require_standard(spec: ManifoldSpec):
    if (spec.mode is not ConservationMode.ENERGY_MOMENTUM
            or spec.eps != 1.0 or np.any(spec.u != 0.0)):
        raise ValueError(
            "trial machinery is defined for the standard case u=0, eps=1 on "
            "the energy-momentum manifold; map other cases by "
            "V -> u + sqrt(eps0) V"
        )


@dataclass(frozen=True)
class TrialFunction:
    """Mean-field trial function psi = a_const (sum_i v_{i,1}^2/2 - c_const).

    c_const = N/3 makes it mean-zero; a_const = (3/2N) sqrt(3N-1) makes
    E[psi^2] = 1 under uniform sampling (standard case u=0, eps=1).
    """

    n_particles: int
    c_const: float
    a_const: float


def standard_trial_function(n_particles: int) -> TrialFunction:
    if n_particles < 2:
        raise ValueError("need N >= 2")
    return TrialFunction(
        n_particles=n_particles,
        c_const=n_particles / 3.0,
        a_const=1.5 / n_particles * math.sqrt(3 * n_particles - 1),
    )


def check_mc_budget(n_samples: int) -> None:
    """The Rayleigh estimator needs at least 1000 samples."""
    if n_samples < 1000:
        raise ValueError("n_samples must be >= 1000")


def _pair_terms(spec: ManifoldSpec, tf: TrialFunction, kernel: KernelSpec,
                g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(N/2) w_12 |P_perp (d_2 - d_1) psi|^2 at the pair differences
    d = sqrt(2 radius^2) g / sqrt(|g|^2 + q) of (m, 3) normals g and (m,)
    chi^2 draws q. |g|^2 and |d|^2 sum components 0, 1, 2 through
    ``geometry.dot3``; the difference gradient is A d_1 e_1 in closed form.
    """
    scale = math.sqrt(2.0 * spec.radius_sq)
    d = g * (scale / np.sqrt(dot3(g.T, g.T) + q))[:, None]
    beta = np.maximum(np.sqrt(dot3(d.T, d.T)), spec.cutoff)
    w = beta ** (2.0 + kernel.gamma)
    grad_sq = (tf.a_const * d[:, 0]) ** 2 * (1.0 - (d[:, 0] / beta) ** 2)
    return 0.5 * spec.n_particles * w * grad_sq


def rayleigh_quotient_mc(spec: ManifoldSpec, tf: TrialFunction,
                         kernel: KernelSpec, n_samples: int,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the quadratic form of the trial function.

    Averages (N/2) w_12 |P_perp (d_2 - d_1) psi|^2 over the exact law of the
    pair difference d = v_2 - v_1 under uniform sampling (module docstring),
    drawn 20000 at a time as 3 normals and one gamma variate each: the cost
    and memory per sample do not grow with N. Each term (``_pair_terms``)
    sums the components 0, 1, 2 of |g|^2 and |d|^2 through
    ``geometry.dot3``. Returns (estimate, stderr); raises
    FloatingPointError, naming N and gamma, when either is not finite.
    """
    _require_standard(spec)
    if tf.n_particles != spec.n_particles:
        raise ValueError("trial function and manifold have different N")
    check_mc_budget(n_samples)
    n = spec.n_particles
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(20000, n_samples - done)
        g = rng.standard_normal((m, 3))
        # Q ~ chi^2(3N-6) = 2 Gamma(3(N-2)/2); the pair spans the sphere at
        # N=2, where the shape-0 gamma returns zeros and draws nothing
        q = 2.0 * rng.standard_gamma(1.5 * (n - 2), m)
        vals = _pair_terms(spec, tf, kernel, g, q)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0)
    stderr = math.sqrt(var / n_samples)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise FloatingPointError(f"Rayleigh estimate {mean:g} +- {stderr:g} is not "
                                 f"finite at N = {n}, gamma = {kernel.gamma:g}")
    return float(mean), float(stderr)


def lambda1_bound(n_particles: int) -> float:
    """Printed variational upper-bound formula 9/(5 sqrt(pi)) / sqrt(3N-4)."""
    if n_particles <= 1:
        raise ValueError("need N > 1")
    return 9.0 / (5.0 * math.sqrt(math.pi)) / math.sqrt(3 * n_particles - 4)


# ---------------------------------------------------------------------------
# N-scaling study


@dataclass
class GapScanResult:
    estimates: np.ndarray
    stderrs: np.ndarray
    exponent: float
    exponent_stderr: float


def check_scan_n_list(n_list: Sequence[int]) -> None:
    """A gap scan needs at least 3 strictly ascending N values."""
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("need at least 3 strictly ascending N values")


def gap_scan(n_list: Sequence[int], kernel: KernelSpec, n_samples: int,
             rng: np.random.Generator) -> GapScanResult:
    """Rayleigh estimates across N plus a weighted log-log power-law fit.

    Standard case (u=0, eps=1) at every N. Requires >= 3 ascending N.
    """
    n_list = list(n_list)
    check_scan_n_list(n_list)
    est, err = [], []
    for n in n_list:
        spec = ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
        tf = standard_trial_function(n)
        e, s = rayleigh_quotient_mc(spec, tf, kernel, n_samples, rng)
        est.append(e)
        err.append(s)
    est = np.asarray(est)
    err = np.asarray(err)
    slope, slope_stderr, _ = weighted_log_linear_fit(
        np.log(np.asarray(n_list, dtype=float)), est, err)
    return GapScanResult(
        estimates=est,
        stderrs=err,
        exponent=slope,
        exponent_stderr=slope_stderr,
    )
