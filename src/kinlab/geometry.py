"""Constraint manifolds for N-particle velocity ensembles.

An N-particle micro-state is a vector V = (v_1, ..., v_N) in R^{3N}. Two
families of constraint manifolds are supported:

* energy only:            (1/2) sum |v_k|^2 = N*eps            (a 3N-1 sphere)
* energy and momentum:    additionally sum v_k = N*u           (a 3N-4 sphere
  of radius sqrt(2*N*eps0), eps0 = eps - |u|^2/2, centered at (u, ..., u)
  inside the zero-total-momentum subspace)

This module provides uniform sampling, exact constraint restoration, tangent
projectors for the full manifold and for the two-dimensional pair-collision
submanifolds (fixed pair momentum v_k+v_l and fixed pair separation
|v_k-v_l|), and hypersphere surface areas.

Batch variants operate on arrays of shape (R, N, 3) (R independent states)
and are what the simulators use; the single-state functions are thin wrappers
around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import gammaln

# Relative tolerance a state must satisfy to count as "on the manifold".
FEASIBILITY_RTOL = 1e-9

# Pairs closer than CUTOFF_SCALE * sqrt(eps) have an ill-defined separation
# direction and are skipped by diffusion steps.
CUTOFF_SCALE = 1e-8


class DegenerateStateError(ValueError):
    """All velocities coincide with u; constraints cannot be restored."""


class DegeneratePairError(ValueError):
    """Pair separation below the singularity cutoff."""


class ConservationMode(Enum):
    """Which quantities the process conserves (C = number of constraints)."""

    ENERGY_ONLY = 1
    ENERGY_MOMENTUM = 4


@dataclass(frozen=True)
class ManifoldSpec:
    """Constraint manifold for N particles.

    Parameters
    ----------
    n_particles : int
        Particle count N >= 2.
    mode : ConservationMode
        ENERGY_ONLY (C=1) or ENERGY_MOMENTUM (C=4).
    eps : float
        Energy per particle; total energy is N*eps.
    u : array_like of shape (3,), optional
        Mean velocity (momentum per particle). Must be zero in
        ENERGY_ONLY mode.
    """

    n_particles: int
    mode: ConservationMode
    eps: float
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.mode is ConservationMode.ENERGY_ONLY:
            if np.any(self.u != 0.0):
                raise ValueError("u must be 0 in ENERGY_ONLY mode")
        else:
            if not self.eps > 0.5 * float(self.u @ self.u):
                raise ValueError(
                    "need eps > |u|^2/2 so that eps0 = eps - |u|^2/2 > 0"
                )

    @property
    def eps0(self) -> float:
        """Energy per particle in the co-moving frame."""
        return self.eps - 0.5 * float(self.u @ self.u)

    @property
    def n_constraints(self) -> int:
        return 1 if self.mode is ConservationMode.ENERGY_ONLY else 4

    @property
    def dim(self) -> int:
        """Intrinsic manifold dimension (3N-1 or 3N-4)."""
        return 3 * self.n_particles - self.n_constraints

    @property
    def radius_sq(self) -> float:
        """Squared sphere radius 2*N*eps0 (eps0 = eps in ENERGY_ONLY mode)."""
        return 2.0 * self.n_particles * self.eps0

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)

    @property
    def cutoff(self) -> float:
        """Default singularity cutoff for pair separations."""
        return CUTOFF_SCALE * math.sqrt(self.eps)


@dataclass
class VelocityState:
    """A point V on a constraint manifold, stored flat with length 3N."""

    spec: ManifoldSpec
    v: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float).reshape(3 * self.spec.n_particles)

    @property
    def particles(self) -> np.ndarray:
        """View of shape (N, 3)."""
        return self.v.reshape(self.spec.n_particles, 3)

    def energy(self) -> float:
        return 0.5 * float(self.v @ self.v)

    def momentum(self) -> np.ndarray:
        return self.particles.sum(axis=0)

    def energy_error(self) -> float:
        """Relative energy constraint violation."""
        n, eps = self.spec.n_particles, self.spec.eps
        return abs(self.energy() - n * eps) / (n * eps)

    def momentum_error(self) -> float:
        """Max per-component momentum violation in units of sqrt(N)."""
        n = self.spec.n_particles
        target = n * self.spec.u
        return float(np.max(np.abs(self.momentum() - target))) / math.sqrt(n)

    def is_feasible(self, rtol: float = FEASIBILITY_RTOL) -> bool:
        ok = self.energy_error() <= rtol
        if self.spec.mode is ConservationMode.ENERGY_MOMENTUM:
            ok = ok and self.momentum_error() <= rtol
        return ok


@dataclass
class PairFrame:
    """Decomposition of a particle pair into conserved collision variables.

    alpha = v_k + v_l, beta = |v_k - v_l|, n = (v_k - v_l)/beta. The pair is
    reconstructed exactly as v_k = (alpha + beta*n)/2, v_l = (alpha - beta*n)/2.
    ``defined`` is False when beta is below the singularity cutoff (n is then
    meaningless).
    """

    k: int
    l: int
    alpha: np.ndarray
    beta: float
    n: np.ndarray
    defined: bool


# ---------------------------------------------------------------------------
# sampling and restoration


def sample_uniform_batch(spec: ManifoldSpec, n_states: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw states from the uniform surface measure, shape (n_states, N, 3).

    Gaussian construction: 3N iid standard normals are isotropic, so after
    projecting out the constrained directions and rescaling to the exact
    radius the result is uniform on the sphere. Constraints hold to machine
    precision by construction.
    """
    n = spec.n_particles
    xi = rng.standard_normal((n_states, n, 3))
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        xi -= xi.mean(axis=1, keepdims=True)
    norm = np.sqrt((xi * xi).sum(axis=(1, 2), keepdims=True))
    if np.any(norm == 0.0):
        raise DegenerateStateError("zero-norm Gaussian draw")
    out = xi * (spec.radius / norm)
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        out += spec.u
    return out


def sample_uniform(spec: ManifoldSpec, rng: np.random.Generator) -> VelocityState:
    """Sample one state from the uniform measure on the manifold."""
    return VelocityState(spec, sample_uniform_batch(spec, 1, rng)[0].ravel())


def renormalize_batch(spec: ManifoldSpec, states: np.ndarray) -> np.ndarray:
    """Restore constraints exactly on an (R, N, 3) array (returns new array).

    Momentum is restored by a uniform shift of all particles; energy by
    rescaling the deviations about u. Directions of the deviations are
    unchanged.
    """
    states = np.asarray(states, dtype=float)
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        centered = states - states.mean(axis=1, keepdims=True)
    else:
        centered = states
    norm = np.sqrt((centered * centered).sum(axis=(1, 2), keepdims=True))
    if np.any(norm == 0.0):
        raise DegenerateStateError("all velocities equal u; cannot rescale")
    out = centered * (spec.radius / norm)
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        out += spec.u
    return out


def renormalize(spec: ManifoldSpec, state: VelocityState) -> VelocityState:
    """Restore the conservation constraints of a single state exactly."""
    arr = renormalize_batch(spec, state.particles[None])
    return VelocityState(spec, arr[0].ravel())


def state_from_standard(spec: ManifoldSpec, states: np.ndarray) -> np.ndarray:
    """Map states on the standard manifold (u=0, eps=1) to spec's manifold.

    The correct affine map is V -> U + sqrt(eps0)*V (the sqrt makes the
    energy bookkeeping close: N|u|^2/2 + eps0*N = N*eps).
    """
    states = np.asarray(states, dtype=float)
    return spec.u + math.sqrt(spec.eps0) * states


# ---------------------------------------------------------------------------
# tangent projectors


def tangent_project_batch(spec: ManifoldSpec, states: np.ndarray,
                          x: np.ndarray) -> np.ndarray:
    """Project vectors x onto the manifold tangent spaces at states.

    Both arrays have shape (R, N, 3). For C=1 the normal space is spanned by
    V; for C=4 by the centered deviation w = V - mean(V) and the three
    constant directions e_sigma repeated over particles.
    """
    if spec.mode is ConservationMode.ENERGY_ONLY:
        w = states
        y = x
    else:
        w = states - states.mean(axis=1, keepdims=True)
        y = x - x.mean(axis=1, keepdims=True)
    wsq = (w * w).sum(axis=(1, 2), keepdims=True)
    coef = (w * y).sum(axis=(1, 2), keepdims=True) / wsq
    return y - coef * w


def tangent_project_manifold(spec: ManifoldSpec, state: VelocityState,
                             x: np.ndarray) -> np.ndarray:
    """Apply the manifold tangent projector to a flat 3N-vector."""
    n = spec.n_particles
    x = np.asarray(x, dtype=float).reshape(n, 3)
    out = tangent_project_batch(spec, state.particles[None], x[None])
    return out[0].ravel()


def pair_frame(state: VelocityState, k: int, l: int,
               cutoff: float | None = None) -> PairFrame:
    """Conserved-variable frame of the pair (k, l)."""
    if cutoff is None:
        cutoff = state.spec.cutoff
    p = state.particles
    vk, vl = p[k], p[l]
    alpha = vk + vl
    d = vk - vl
    beta = float(np.linalg.norm(d))
    if beta < cutoff:
        return PairFrame(k, l, alpha, beta, np.zeros(3), defined=False)
    return PairFrame(k, l, alpha, beta, d / beta, defined=True)


def pair_projector_apply(state: VelocityState, k: int, l: int,
                         x: np.ndarray, cutoff: float | None = None) -> np.ndarray:
    """Project a flat 3N-vector onto the tangent plane of the pair manifold.

    The projector is nonzero only in blocks k and l, where it acts as
    +-(1/2) P_perp(v_k - v_l) on the block difference; its range is the
    2-dimensional tangent space of the pair-collision manifold.

    Raises DegeneratePairError below the cutoff (caller must skip or
    regularize).
    """
    frame = pair_frame(state, k, l, cutoff)
    if not frame.defined:
        raise DegeneratePairError(
            f"pair ({k},{l}) separation {frame.beta:.3e} below cutoff"
        )
    n = state.spec.n_particles
    x = np.asarray(x, dtype=float).reshape(n, 3)
    c = 0.5 * (x[k] - x[l])
    c_perp = c - frame.n * (frame.n @ c)
    out = np.zeros_like(x)
    out[k] = c_perp
    out[l] = -c_perp
    return out.ravel()


# ---------------------------------------------------------------------------
# sphere areas


def log_sphere_area(dim: int, radius: float = 1.0) -> float:
    """log surface measure of the dim-sphere of given radius.

    |S^D_r| = 2 pi^{(D+1)/2} r^D / Gamma((D+1)/2); evaluated in log form so
    that D ~ 3N stays finite for N ~ 1e3.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    half = 0.5 * (dim + 1)
    return math.log(2.0) + half * math.log(math.pi) - gammaln(half) \
        + dim * math.log(radius)


def sphere_area(dim: int, radius: float = 1.0) -> float:
    """Surface measure of the dim-sphere of given radius."""
    return math.exp(log_sphere_area(dim, radius))


def manifold_log_area(spec: ManifoldSpec) -> float:
    """log surface measure of the constraint manifold."""
    return log_sphere_area(spec.dim, spec.radius)
