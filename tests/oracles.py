"""Independent oracles used by the test suite.

Everything here is derived by a route independent of the implementation it
checks: Beta-moment identities on spheres, finite differences, plain Monte
Carlo over Gaussians, and closed-form properties of the paper's objects
(the pair-manifold projector, the affine map between manifolds, the
stationary radial law and its KS statistic over every point, the
eigenfunction catalog and its decay rates, the trial function, the quadratic
form on conserved quantities, and the Rayleigh estimator over whole
N-particle states), which the library itself does not need. It also holds
the antithetic Generator stand-in of the weak-order tests, the capture of
the arrays handed to the in-place restoration, each length-3 component
sum of the library as numpy's last-axis reduction that ``geometry.dot3``
must equal bit for bit, the table writer as the ``csv`` module and the 3-D
velocity histogram as ``np.histogramdd``, which the library's one-pass
versions must equal byte for byte and count for count.
"""

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln

from kinlab.geometry import (
    ConservationMode,
    DegenerateStateError,
    ManifoldSpec,
    NonFiniteStateError,
    renormalize_batch,
    sample_uniform_batch,
    tangent_project_batch,
)
from kinlab.kinetic_limits import stationary_marginal_eval
from kinlab.master_sim import (
    TestPolynomial,
    generator_apply,
    step_sphere_diffusion,
)
from kinlab.observables import OBSERVABLES, Observable, _pooled, bin_masses
from kinlab.spectral import (
    TrialFunction,
    _require_standard,
    check_mc_budget,
    eigenvalue_scaled,
    limit_eigenvalue,
)


# ---------------------------------------------------------------------------
# geometry


class DegeneratePairError(ValueError):
    """Pair separation below the singularity cutoff."""


def pair_projector_apply(spec: ManifoldSpec, v: np.ndarray, k: int, l: int,
                         x: np.ndarray, cutoff: float | None = None) -> np.ndarray:
    """Project vectors x onto the tangent planes of the pair manifold at v.

    v and x have shape (..., N, 3). In the pair frame alpha = v_k + v_l,
    beta = |v_k - v_l|, n = (v_k - v_l)/beta, the projector is nonzero only
    in blocks k and l, where it acts as +-(1/2) P_perp(n) on the block
    difference; its range is the 2-dimensional tangent space of the
    pair-collision manifold (fixed alpha and beta).

    Raises DegeneratePairError when beta is below the cutoff.
    """
    if cutoff is None:
        cutoff = spec.cutoff
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    d = v[..., k, :] - v[..., l, :]
    beta = np.linalg.norm(d, axis=-1, keepdims=True)
    if np.any(beta < cutoff):
        raise DegeneratePairError(
            f"pair ({k},{l}) separation {beta.min():.3e} below cutoff"
        )
    nhat = d / beta
    c = 0.5 * (x[..., k, :] - x[..., l, :])
    c_perp = c - nhat * (nhat * c).sum(-1, keepdims=True)
    out = np.zeros(np.broadcast_shapes(v.shape, x.shape))
    out[..., k, :] = c_perp
    out[..., l, :] = -c_perp
    return out


def max_pair_separation_sq_full(states: np.ndarray) -> np.ndarray:
    """``max_pair_separation_sq`` over all N(N-1)/2 pairs, the reference for
    the library's descending-speed scan.

    Scans the particles k in turn: the differences d = v_{k+1:} - v_k are
    taken component-major, with the states along the fast axis, and a
    running per-state maximum keeps the largest |d|^2.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[-2]
    # (3, N, R): one contiguous (N, R) plane per velocity component
    comp = np.ascontiguousarray(np.moveaxis(states.reshape(-1, n, 3), (1, 2), (1, 0)))
    diff = np.empty((3, n - 1, comp.shape[2]))
    sq = np.empty(diff.shape[1:])
    best = np.zeros(comp.shape[2])
    for k in range(n - 1):
        d, s = diff[:, :n - 1 - k], sq[:n - 1 - k]
        np.subtract(comp[:, k + 1:], comp[:, k, None], out=d)
        np.multiply(d, d, out=d)
        np.add(d[0], d[1], out=s)
        s += d[2]
        np.maximum(best, s.max(axis=0), out=best)
    return best.reshape(states.shape[:-2])


def renormalize_reference(spec: ManifoldSpec, states: np.ndarray) -> np.ndarray:
    """Exact constraint restoration written out with broadcast means and
    sums, the plain reference for ``geometry.renormalize_batch``: center
    about the per-replica mean (C=4), rescale to the radius, add u. Returns
    a new array."""
    states = np.asarray(states, dtype=float)
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        centered = states - states.mean(axis=1, keepdims=True)
    else:
        centered = states
    norm = np.sqrt((centered * centered).sum(axis=(1, 2), keepdims=True))
    if not np.isfinite(norm).all():
        raise NonFiniteStateError(np.flatnonzero(~np.isfinite(norm)))
    if np.any(norm == 0.0):
        raise DegenerateStateError("all velocities equal u; cannot rescale")
    out = centered * (spec.radius / norm)
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        out += spec.u
    return out


def state_from_standard(spec: ManifoldSpec, states: np.ndarray) -> np.ndarray:
    """Map states on the standard manifold (u=0, eps=1) to spec's manifold.

    The correct affine map is V -> U + sqrt(eps0)*V (the sqrt makes the
    energy bookkeeping close: N|u|^2/2 + eps0*N = N*eps).
    """
    states = np.asarray(states, dtype=float)
    return spec.u + math.sqrt(spec.eps0) * states


# ---------------------------------------------------------------------------
# stationary marginals and relaxation rates


def stationary_radial_pdf(spec: ManifoldSpec, r) -> np.ndarray:
    """Radial density 4 pi r^2 F1(r) of one velocity's magnitude."""
    r = np.asarray(r, dtype=float)
    v = np.zeros(r.shape + (1, 3))
    v[..., 0, 0] = r
    return 4.0 * math.pi * r ** 2 * stationary_marginal_eval(spec, 1, v)


def radial_ks_statistic_full(velocities: np.ndarray,
                             spec: ManifoldSpec) -> tuple[float, int]:
    """``radial_ks_statistic`` with the radial CDF evaluated at every pooled
    speed, the reference for the library's bracketed scan."""
    if spec.mode is not ConservationMode.ENERGY_ONLY:
        raise ValueError("the radial law is for the energy-only manifold")
    n = spec.n_particles
    r = np.sort(np.linalg.norm(_pooled(velocities) - spec.u, axis=1))
    s = np.clip(r ** 2 / (2.0 * n * spec.eps0), 0.0, 1.0)
    cdf = betainc(1.5, 1.5 * (n - 1), s)
    m = len(r)
    grid = np.arange(1, m + 1) / m
    d_plus = np.max(grid - cdf)
    d_minus = np.max(cdf - (np.arange(m) / m))
    return float(max(d_plus, d_minus)), m


@dataclass(frozen=True)
class MarginalRate:
    observable: str
    degree: int | None
    rate: float
    limit_rate: float


def finite_n_marginal_rates(spec: ManifoldSpec) -> list[MarginalRate]:
    """Exact decay rates of low-order one-particle moments under the sphere
    diffusion, with the corresponding limit Fokker-Planck rates.

    Rates follow from the generator acting on the symmetric polynomial
    lifts (degree-j harmonic sums are exact eigenfunctions), so each rate
    equals ``eigenvalue_scaled`` at the matching degree. On the
    momentum-conserving manifold the exchangeable one-particle mean is
    pinned at u (rate 0). Limit rates are those of the limiting
    Fokker-Planck equation.
    """
    rows = []
    if spec.mode is ConservationMode.ENERGY_ONLY:
        rows.append(MarginalRate("mean_component", 1,
                                 eigenvalue_scaled(spec, 1),
                                 limit_eigenvalue(1, spec.eps0)))
    else:
        rows.append(MarginalRate("mean_component", None, 0.0, 0.0))
    for name in ("offdiag_second_moment", "diagonal_difference_second_moment"):
        rows.append(MarginalRate(name, 2, eigenvalue_scaled(spec, 2),
                                 limit_eigenvalue(2, spec.eps0)))
    return rows


# ---------------------------------------------------------------------------
# symmetric eigenfunctions from the observable catalog


def get_family(name: str) -> Observable:
    """The observable-catalog entry ``name``, which must carry a degree."""
    entry = OBSERVABLES.get(name)
    if entry is None or entry.degree is None:
        raise ValueError(f"{name!r} is not an observable with a harmonic degree")
    return entry


def is_constant_on(entry: Observable, spec: ManifoldSpec) -> bool:
    """Degree-1 sums equal N*u_sigma on momentum-conserving manifolds."""
    return entry.degree == 1 and spec.mode is ConservationMode.ENERGY_MOMENTUM


def symmetric_eigenfunction(spec: ManifoldSpec, v: np.ndarray, family: str):
    """Evaluate a symmetric eigenfunction sum on (..., N, 3) states; returns
    shape (...).

    Raises ValueError when the family is constant on spec's manifold
    (degree-1 sums on momentum-conserving manifolds).
    """
    fam = get_family(family)
    if is_constant_on(fam, spec):
        raise ValueError(
            f"family {family!r} is constant (= N u) on ENERGY_MOMENTUM manifolds"
        )
    return fam.fn(np.asarray(v, dtype=float))


def family_decay_rate(spec: ManifoldSpec, family: str) -> float:
    """Predicted relaxation rate of the family under the sphere diffusion."""
    return eigenvalue_scaled(spec, get_family(family).degree)


# ---------------------------------------------------------------------------
# variational trial function


def trial_eval(tf: TrialFunction, spec: ManifoldSpec, v: np.ndarray):
    """Evaluate the trial function at (..., N, 3) states on spec's manifold
    (standard case only); returns shape (...)."""
    _require_standard(spec)
    if spec.n_particles != tf.n_particles:
        raise ValueError("trial function and state have different N")
    v = np.asarray(v, dtype=float)
    return tf.a_const * (0.5 * (v[..., 0] ** 2).sum(-1) - tf.c_const)


def conserved_quadratic_form_mc(spec: ManifoldSpec, which: str, kernel,
                                n_samples: int,
                                rng: np.random.Generator) -> tuple[float, float]:
    """Quadratic form evaluated on a conserved quantity (mass, energy,
    momentum component): the projected difference gradient vanishes
    identically, so the estimate is exactly zero.

    mass and momentum have difference gradient 0; for the energy it equals
    v_2 - v_1, which the perpendicular projector annihilates. Evaluated
    numerically for the energy to exercise the annihilation.
    """
    if which in ("mass", "momentum"):
        return 0.0, 0.0
    if which != "energy":
        raise ValueError("which must be 'mass', 'momentum' or 'energy'")
    n = spec.n_particles
    v = sample_uniform_batch(spec, n_samples, rng)
    d = v[:, 1] - v[:, 0]
    beta = np.maximum(np.linalg.norm(d, axis=1), spec.cutoff)
    nhat = d / beta[:, None]
    resid = d - nhat * (nhat * d).sum(axis=1, keepdims=True)
    vals = 0.5 * n * beta ** (2.0 + kernel.gamma) * (resid ** 2).sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


# ---------------------------------------------------------------------------
# closed forms, finite differences and reference kernels


def rayleigh_quotient_exact(n: int, gamma: float) -> float:
    """Exact quadratic form of the standard trial function (u=0, eps=1).

    Derivation: with d = v_2 - v_1 on the energy-momentum manifold,
    |d|^2 = 4N B with B ~ Beta(3/2, (3N-6)/2) (squared projection of a
    uniform sphere point onto the 3-dimensional pair-difference subspace),
    and the direction of d is uniform on S^2, independent of |d|. The
    integrand (N/2) w_12 A^2 d_1^2 (1 - n_1^2) then factorizes:
        (N/2) A^2 E[|d|^{4+gamma}] E[n_1^2 (1 - n_1^2)]
      = (9 (3N-1) / (8N)) * (2/15) * E[|d|^{4+gamma}].
    At N=2 the Beta degenerates to the constant |d|^2 = 8.
    """
    s = 0.5 * (4.0 + gamma)
    if n == 2:
        moment = 8.0 ** s
    else:
        a, b = 1.5, 1.5 * (n - 2)
        moment = math.exp(s * math.log(4.0 * n) + betaln(a + s, b) - betaln(a, b))
    return (9.0 * (3 * n - 1) / (8.0 * n)) * (2.0 / 15.0) * moment


def rayleigh_quotient_mc_reference(spec: ManifoldSpec, tf: TrialFunction, kernel,
                                   n_samples: int,
                                   rng: np.random.Generator) -> tuple[float, float]:
    """The Rayleigh estimator over whole N-particle states: draws uniform
    samples 20000 at a time and reads v_1 and v_2 of each. Independent of the
    library's two-particle law; returns (estimate, stderr)."""
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
        v = sample_uniform_batch(spec, m, rng)
        d = v[:, 1] - v[:, 0]
        beta = np.maximum(np.linalg.norm(d, axis=1), spec.cutoff)
        w = beta ** (2.0 + kernel.gamma)
        grad_sq = (tf.a_const * d[:, 0]) ** 2 * (1.0 - (d[:, 0] / beta) ** 2)
        vals = 0.5 * n * w * grad_sq
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0)
    return float(mean), float(math.sqrt(var / n_samples))


def _poly_gradient(phi, vflat, n):
    v = vflat.reshape(n, 3)
    g = np.zeros_like(v)
    if phi.kind == "coord":
        g[phi.k, phi.sigma] = 1.0
    elif phi.kind == "quad":
        g[phi.k, phi.sigma] += v[phi.m, phi.tau]
        g[phi.m, phi.tau] += v[phi.k, phi.sigma]
    return g.ravel()


def generator_apply_fd(spec, v, kernel, phi, h: float = 1e-5) -> float:
    """Finite-difference evaluation of the pairwise generator at one (N, 3)
    state v.

    sum over pairs of a_kl * div(P_B grad phi) with the divergence taken by
    central differences of the projected-gradient field P_B grad phi
    (``pair_projector_apply``).
    """
    n = spec.n_particles
    p = np.asarray(v, dtype=float).reshape(n, 3)
    vflat = p.ravel()
    total = 0.0
    for k in range(n):
        for l in range(k + 1, n):
            beta = float(np.linalg.norm(p[k] - p[l]))
            a = 2.0 * beta ** (2.0 + kernel.gamma) / (n - 1)
            div = 0.0
            for idx in range(3 * n):
                vp = vflat.copy()
                vp[idx] += h
                vm = vflat.copy()
                vm[idx] -= h
                up = pair_projector_apply(spec, vp.reshape(n, 3), k, l,
                                          _poly_gradient(phi, vp, n).reshape(n, 3)).ravel()
                um = pair_projector_apply(spec, vm.reshape(n, 3), k, l,
                                          _poly_gradient(phi, vm, n).reshape(n, 3)).ravel()
                div += (up[idx] - um[idx]) / (2.0 * h)
            total += a * div
    return total


def generator_conservation_residuals(spec, v, kernel) -> list[float]:
    """|sum| / sum|terms| of the exact generator applied to the energy and to
    each momentum component of one (N, 3) state, assembled from its action
    on catalog entries: energy = 1/2 sum_{k,s} G[v_ks^2], momentum_s =
    sum_k G[v_ks]. Conservation makes each sum cancel to rounding."""
    n = spec.n_particles
    groups = [[0.5 * generator_apply(spec, v, kernel, TestPolynomial.quad(k, s, k, s))
               for k in range(n) for s in range(3)]]
    groups += [[generator_apply(spec, v, kernel, TestPolynomial.coord(k, s))
                for k in range(n)] for s in range(3)]
    return [abs(sum(g)) / sum(abs(x) for x in g) for g in groups]


def moment_second(st):
    """Second moment matrix M2 = S + m (x) m of a ``MomentState``."""
    return st.centered + np.outer(st.mean, st.mean)


def moment_energy(st):
    """Energy per particle tr(M2) / 2 of a ``MomentState``."""
    return 0.5 * float(np.trace(moment_second(st)))


def moment_anisotropy(st):
    """Anisotropic part S - (tr S / 3) I of a ``MomentState``'s covariance."""
    s = st.centered
    return s - np.trace(s) / 3.0 * np.eye(3)


def landau_second_moment_rhs_mc(mean, cov, n_samples, rng):
    """Monte Carlo evaluation of the Maxwell-molecule second-moment flow.

    Direct average of the collision-integral moment identity
    E_{f f'}[2 |d|^2 I - 6 d (x) d], d = v - w, for f Gaussian(mean, cov);
    independent check of the closed form 4 tr(S) I - 12 S.
    """
    chol = np.linalg.cholesky(cov)
    v = mean + rng.standard_normal((n_samples, 3)) @ chol.T
    w = mean + rng.standard_normal((n_samples, 3)) @ chol.T
    d = v - w
    dsq = (d * d).sum(axis=1)
    term = 2.0 * dsq[:, None, None] * np.eye(3) \
        - 6.0 * np.einsum("na,nb->nab", d, d)
    return term.mean(axis=0)


def fpe_mean_rhs_quadrature(p, m0):
    """Mean drift of the linear Fokker-Planck flow by 1D Gaussian quadrature.

    Integrates v against d.(df + (3/2 eps0)(v-u) f) for a Gaussian f with
    mean m0; integration by parts gives -(3/2 eps0)(m0 - u), and this
    helper evaluates the same object numerically on a grid.
    """
    from scipy.integrate import quad

    kappa = 1.5 / p.eps0
    out = np.zeros(3)
    sigma = p.sigma
    for axis in range(3):
        def integrand(x, axis=axis):
            # d/dx (f' + kappa (x - u) f) against x reduces, after parts,
            # to -(f' + kappa (x - u) f)
            mu = m0[axis]
            f = math.exp(-0.5 * (x - mu) ** 2 / sigma ** 2) / (sigma * math.sqrt(2 * math.pi))
            fp = -(x - mu) / sigma ** 2 * f
            return -(fp + kappa * (x - p.u[axis]) * f)
        val, _ = quad(integrand, m0[axis] - 12 * sigma, m0[axis] + 12 * sigma, limit=200)
        out[axis] = val
    return out


def step_sphere_diffusion_reference(spec, states, dt, xi):
    """The sphere step as two calls, the plain reference for
    ``master_sim.step_sphere_diffusion``: the projected Euler-Maruyama
    increment sqrt(2 dt) P xi, then exact constraint restoration. It shares
    no code with the library's centering and restoration."""
    moved = states + math.sqrt(2.0 * dt) * tangent_project_batch(spec, states, xi)
    return renormalize_reference(spec, moved)


def sample_uniform_whole(spec, n_states, rng):
    """Uniform states by one draw of every normal and one restoration of the
    whole array: ``geometry.sample_uniform_batch`` without its blocks."""
    return renormalize_batch(spec, rng.standard_normal((n_states, spec.n_particles, 3)))


def run_sphere_whole(spec, n_replicas, dt, n_steps, rng, sampler=sample_uniform_whole):
    """Final states of a sphere run as a whole-array loop: the start drawn
    by ``sampler`` (by default the uniform one of ``sample_uniform_whole``),
    then per step one draw of every replica's normals and one
    ``step_sphere_diffusion`` call on the whole array.
    ``master_sim.run_ensemble`` without its replica blocks or its producer
    thread."""
    states = sampler(spec, n_replicas, rng)
    for _ in range(n_steps):
        states = step_sphere_diffusion(spec, states, dt, rng.standard_normal(states.shape))
    return states


def sphere_step_contraction(spec, dt):
    """kappa(dt) of the sphere step: E[V' - u | V] = kappa(dt) (V - u).

    The step sends the deviation w = V - u (|w|^2 = r^2 = 2 N eps0) to
    r (w + a z) / |w + a z|, with a = sqrt(2 dt) and z the normals
    projected onto the tangent space (dimension 3N - C), which is
    orthogonal to w. So |w + a z|^2 = r^2 + a^2 Q with Q = |z|^2 ~
    chi^2(3N - C), and the z term averages out under z -> -z, leaving
    kappa = E[(1 + 2 dt Q / r^2)^(-1/2)], evaluated here by quadrature
    over the chi^2 law.
    """
    from scipy.integrate import quad
    from scipy.stats import chi2

    k, r2 = spec.dim, spec.radius_sq
    val, _ = quad(lambda q: chi2.pdf(q, k) / math.sqrt(1.0 + 2.0 * dt * q / r2),
                  chi2.ppf(1e-16, k), chi2.isf(1e-16, k), limit=200,
                  epsabs=0.0, epsrel=1e-12)
    return val


def pair_kick_contraction(n, dt):
    """kappa_2(dt) of one gamma = 0 pair move: E[d' | d] = kappa_2 d for the
    pair separation d = v_k - v_l.

    The move sends d to beta (d + 2 a zeta) / |d + 2 a zeta|, with
    beta = |d|, a^2 = 2 dt beta^2 / (N - 1) at gamma = 0 and zeta the
    normals projected onto the plane orthogonal to d. So
    |d + 2 a zeta|^2 = beta^2 (1 + c X) with c = 8 dt / (N - 1) and
    X = |zeta|^2 ~ chi^2_2, the zeta term averages out under zeta -> -zeta,
    and kappa_2 = E[(1 + c X)^(-1/2)] = sqrt(pi / 2c) e^(1/2c)
    erfc(1 / sqrt(2c)). e^(1/2c) overflows for c below about 1/1400.
    """
    c = 8.0 * dt / (n - 1)
    x = 0.5 / c
    return math.sqrt(math.pi * x) * math.exp(x) * math.erfc(math.sqrt(x))


class AntitheticGenerator:
    """A Generator stand-in whose draws come in antithetic halves.

    ``random(shape)`` draws shape[0] // 2 rows and repeats them;
    ``standard_normal(shape)`` draws half the rows and appends their
    negation; an odd row count raises ValueError. Handed to
    ``step_pair_diffusion`` with R replicas, replica q + R/2 then runs the
    schedule of replica q with negated noise, which cancels the
    O(sqrt(dt)) fluctuation of one-step drift estimates.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def _half(self, shape):
        if shape[0] % 2:
            raise ValueError("antithetic draws need an even row count")
        return (shape[0] // 2, *shape[1:])

    def random(self, shape):
        x = self.rng.random(self._half(shape))
        return np.concatenate([x, x])

    def standard_normal(self, shape):
        x = self.rng.standard_normal(self._half(shape))
        return np.concatenate([x, -x])


@contextmanager
def restoration_inputs(*modules):
    """Yield a list that collects a copy of every array handed to
    ``renormalize_batch`` inside the block, taken before the array is
    restored in place: the kicked, not yet restored states of a pair sweep.

    The name is replaced by setattr on each of ``modules``, the modules
    through which the code under test looks it up (``master_sim`` for the
    library's steps, this module for ``step_pair_diffusion_reference``),
    and put back on exit.
    """
    seen = []
    saved = [(module, module.renormalize_batch) for module in modules]

    def capturing(restore):
        def run(spec, x):
            seen.append(x.copy())
            return restore(spec, x)
        return run

    try:
        for module, restore in saved:
            module.renormalize_batch = capturing(restore)
        yield seen
    finally:
        for module, restore in saved:
            module.renormalize_batch = restore


def circle_schedule(n):
    """The circle-method round robin of n players as a plain table.

    Returns (n_rounds, P, 2): round t's pairs (k, l). Players sit at the
    positions 0..m-1 of a circle, m = n rounded up to even; position c
    plays position m-1-c, position 0 stays, and in round t position c >= 1
    holds the player that sat at position 1 + (c - 1 - t) mod (m - 1) in
    round 0. For odd n a dummy takes position 0 and its partner has the
    bye. Players are named by their row in round 0 of ``master_sim``'s
    sweep: pair i's k side (position i + n % 2) is row i, its l side
    (position n - 1 - i) row P + i, and the bye (position n) row n - 1.
    """
    m, p, odd = n + n % 2, n // 2, n % 2
    row_at = np.full(m, -1)
    row_at[np.arange(p) + odd] = np.arange(p)
    row_at[n - 1 - np.arange(p)] = p + np.arange(p)
    if odd:
        row_at[n] = n - 1
    pairs = []
    for t in range(m - 1):
        def player(c):
            return row_at[c if c == 0 else 1 + (c - 1 - t) % (m - 1)]
        pairs.append([(player(i + odd), player(n - 1 - i)) for i in range(p)])
    return np.array(pairs, dtype=np.intp).reshape(m - 1, p, 2)


def step_pair_diffusion_reference(spec, states, kernel, dt, rng):
    """The pair sweep in natural particle order, the plain reference for
    ``master_sim.step_pair_diffusion``.

    Same RNG draws in the same order and the same per-pair arithmetic, but
    each round gathers the k and l particles of the ``circle_schedule``
    table, relabeled, by 2-D fancy indexing and scatters the kicked
    velocities back, so the rotated layout of the library kernel must
    reproduce it bit for bit.
    """
    r, n, _ = states.shape
    rounds = circle_schedule(n)
    perm = np.argsort(rng.random((r, n)), axis=1)
    diff_scale = 2.0 / (n - 1)
    rows = np.arange(r)[:, None]
    for pairs in rounds:
        k_idx = perm[:, pairs[:, 0]]
        l_idx = perm[:, pairs[:, 1]]
        eta = rng.standard_normal((r,) + k_idx.shape[1:] + (3,))
        vk = states[rows, k_idx]
        vl = states[rows, l_idx]
        d = vk - vl
        beta = np.sqrt((d * d).sum(-1))
        ok = beta >= spec.cutoff
        safe = np.where(ok, beta, 1.0)
        amp = np.sqrt(diff_scale * dt * safe ** (2.0 + kernel.gamma))
        nhat = d / safe[..., None]
        eta_perp = eta - nhat * (nhat * eta).sum(-1, keepdims=True)
        d_new = d + (2.0 * amp)[..., None] * eta_perp
        norm = np.sqrt((d_new * d_new).sum(-1, keepdims=True))
        d_rest = d_new * (beta[..., None] / norm)
        half = np.where(ok[..., None], 0.5 * (d_rest - d), 0.0)
        states[rows, k_idx] = vk + half
        states[rows, l_idx] = vl - half
    return renormalize_batch(spec, states)


# ---------------------------------------------------------------------------
# numpy's last-axis reductions at the sites that sum a velocity's components
# through ``geometry.dot3``: the references of their bit-for-bit contract


def constraint_errors_axis_sum(spec: ManifoldSpec,
                               states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``geometry.constraint_errors`` with each |v_k|^2 a last-axis sum."""
    states = np.asarray(states, dtype=float)
    n = spec.n_particles
    energy = 0.5 * (states * states).sum(-1).sum(-1) / (n * spec.eps) - 1.0
    if spec.mode is ConservationMode.ENERGY_ONLY:
        return energy, np.zeros_like(energy)
    momentum = np.abs(states.sum(axis=-2) - n * spec.u).max(axis=-1)
    return energy, momentum / math.sqrt(n)


def pooled_speeds_axis_sum(velocities: np.ndarray, u) -> np.ndarray:
    """``observables._pooled_speeds`` as ``np.linalg.norm`` over the last axis."""
    return np.linalg.norm(_pooled(velocities) - u, axis=1)


def capped_norm_axis_sum(d: np.ndarray, cutoff: float) -> np.ndarray:
    """``master_sim._capped_norm`` as ``np.linalg.norm`` over the last axis."""
    return np.maximum(np.linalg.norm(d, axis=-1), cutoff)


def maxwellian_eval_axis_sum(p, v):
    """``kinetic_limits.maxwellian_eval`` with |v - u|^2 a last-axis sum."""
    v = np.asarray(v, dtype=float)
    dv = v - p.u
    r2 = (dv * dv).sum(axis=-1)
    norm = (3.0 / (4.0 * math.pi * p.eps0)) ** 1.5
    out = norm * np.exp(-3.0 * r2 / (4.0 * p.eps0))
    return float(out) if out.ndim == 0 else out


def pair_terms_axis_sum(spec: ManifoldSpec, tf: TrialFunction, kernel,
                        g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``spectral._pair_terms`` with |g|^2 and |d| last-axis reductions."""
    scale = math.sqrt(2.0 * spec.radius_sq)
    d = g * (scale / np.sqrt((g ** 2).sum(axis=1) + q))[:, None]
    beta = np.maximum(np.linalg.norm(d, axis=1), spec.cutoff)
    w = beta ** (2.0 + kernel.gamma)
    grad_sq = (tf.a_const * d[:, 0]) ** 2 * (1.0 - (d[:, 0] / beta) ** 2)
    return 0.5 * spec.n_particles * w * grad_sq


def rayleigh_quotient_mc_axis_sum(spec: ManifoldSpec, tf: TrialFunction, kernel,
                                  n_samples: int,
                                  rng: np.random.Generator) -> tuple[float, float]:
    """``spectral.rayleigh_quotient_mc`` over ``pair_terms_axis_sum``: the
    same draws and the same arithmetic otherwise."""
    _require_standard(spec)
    check_mc_budget(n_samples)
    n = spec.n_particles
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(20000, n_samples - done)
        g = rng.standard_normal((m, 3))
        q = 2.0 * rng.standard_gamma(1.5 * (n - 2), m)
        vals = pair_terms_axis_sum(spec, tf, kernel, g, q)
        total += vals.sum()
        total_sq += (vals ** 2).sum()
        done += m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean ** 2, 0.0)
    return float(mean), float(math.sqrt(var / n_samples))


# ---------------------------------------------------------------------------
# table writer and 3-D histogram


def write_table_csv(path, header, rows) -> None:
    """``cli._write_table`` through ``csv.writer`` (minimal quoting, CRLF),
    each float cell formatted to 17 significant digits."""

    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return f"{float(x):.17g}"
        return str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def velocity_histogram3d_histogramdd(velocities, edges) -> np.ndarray:
    """``kinetic_limits.velocity_histogram3d`` through ``np.histogramdd``."""
    counts, _ = np.histogramdd(np.asarray(velocities, dtype=float).reshape(-1, 3),
                               bins=edges)
    return bin_masses(counts)
