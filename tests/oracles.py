"""Independent oracles used by the test suite.

Everything here is derived by a route independent of the implementation it
checks: Beta-moment identities on spheres, finite differences, and plain
Monte Carlo over Gaussians.
"""

import math

import numpy as np
from scipy.special import betaln


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


def _pair_projected_gradient(vflat, k, l, grad):
    """Ambient field P_B(V) grad for the pair (k, l)."""
    n = len(vflat) // 3
    v = vflat.reshape(n, 3)
    g = grad.reshape(n, 3)
    d = v[k] - v[l]
    nh = d / np.linalg.norm(d)
    c = 0.5 * (g[k] - g[l])
    cp = c - nh * (nh @ c)
    out = np.zeros_like(v)
    out[k] = cp
    out[l] = -cp
    return out.ravel()


def _poly_gradient(phi, vflat, n):
    v = vflat.reshape(n, 3)
    g = np.zeros_like(v)
    if phi.kind == "coord":
        g[phi.k, phi.sigma] = 1.0
    elif phi.kind == "quad":
        g[phi.k, phi.sigma] += v[phi.m, phi.tau]
        g[phi.m, phi.tau] += v[phi.k, phi.sigma]
    elif phi.kind == "energy":
        g = v.copy()
    elif phi.kind == "momentum":
        g[:, phi.sigma] = 1.0
    return g.ravel()


def generator_apply_fd(spec, v, kernel, phi, h: float = 1e-5) -> float:
    """Finite-difference evaluation of the pairwise generator at one (N, 3)
    state v.

    sum over pairs of a_kl * div(P_B grad phi) with the divergence taken by
    central differences of the projected-gradient field.
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
                up = _pair_projected_gradient(vp, k, l, _poly_gradient(phi, vp, n))
                um = _pair_projected_gradient(vm, k, l, _poly_gradient(phi, vm, n))
                div += (up[idx] - um[idx]) / (2.0 * h)
            total += a * div
    return total


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


def step_pair_diffusion_reference(spec, states, kernel, dt, rng, antithetic=False):
    """The pair sweep in natural particle order, the plain reference for
    ``master_sim.step_pair_diffusion``.

    Same RNG draws in the same order and the same per-pair arithmetic, but
    each round gathers the k and l particles by 2-D fancy indexing and
    scatters the kicked velocities back, so the relabeled layout of the
    library kernel must reproduce it bit for bit.
    """
    from kinlab.geometry import renormalize_batch
    from kinlab.master_sim import _round_robin_rounds

    r, n, _ = states.shape
    rounds = _round_robin_rounds(n)
    n_rounds = rounds.shape[0]
    r_draw = r // 2 if antithetic else r
    perm = np.argsort(rng.random((r_draw, n)), axis=1)
    order = np.argsort(rng.random((r_draw, n_rounds)), axis=1)
    if antithetic:
        perm = np.concatenate([perm, perm])
        order = np.concatenate([order, order])
    cutoff = kernel.resolve_cutoff(spec)
    diff_scale = 2.0 / (n - 1)
    rows = np.arange(r)[:, None]
    for j in range(n_rounds):
        base = rounds[order[:, j]]
        k_idx = np.take_along_axis(perm, base[:, :, 0], axis=1)
        l_idx = np.take_along_axis(perm, base[:, :, 1], axis=1)
        eta = rng.standard_normal((r_draw,) + k_idx.shape[1:] + (3,))
        if antithetic:
            eta = np.concatenate([eta, -eta])
        vk = states[rows, k_idx]
        vl = states[rows, l_idx]
        d = vk - vl
        beta = np.sqrt((d * d).sum(-1))
        ok = beta >= cutoff
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
