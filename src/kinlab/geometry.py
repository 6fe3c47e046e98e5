"""Constraint manifolds for N-particle velocity ensembles.

An N-particle micro-state is a vector V = (v_1, ..., v_N) in R^{3N}. Two
families of constraint manifolds are supported:

* energy only:            (1/2) sum |v_k|^2 = N*eps            (a 3N-1 sphere)
* energy and momentum:    additionally sum v_k = N*u           (a 3N-4 sphere
  of radius sqrt(2*N*eps0), eps0 = eps - |u|^2/2, centered at (u, ..., u)
  inside the zero-total-momentum subspace)

This module provides uniform sampling, exact constraint restoration in
place (``renormalize_batch``) and its error measure, the largest pair
separation of a state, the tangent projector of the manifold, log
hypersphere surface areas, the block size of the loops that run over
states in cache-sized blocks (``block_states``), and the one sum over a
velocity's three components (``dot3``).

States are float arrays of shape (..., N, 3); the batch functions take
(R, N, 3), and a single state is the batch R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Pairs closer than CUTOFF_SCALE * sqrt(eps) have an ill-defined separation
# direction and are skipped by diffusion steps.
CUTOFF_SCALE = 1e-8

# Coordinates (states x 3N) that a blocked loop over states handles at once:
# 512 KiB of doubles per array, so a block's few arrays stay in a 2 MB L2
# cache. 42 states at N = 512, 341 at N = 64.
STATE_BLOCK_ENTRIES = 1 << 16

# The energies per particle that ManifoldSpec accepts, for eps and for the
# co-moving eps0 = eps - |u|^2/2. The processes are scale-covariant, so no
# study needs more; within the window the squared radius 2 N eps0, eps^2
# and the Maxwellian normalisation (4 pi eps0 / 3)^(-3/2) stay finite.
EPS_RANGE = (1e-100, 1e100)

# Widening of the stop bound of ``max_pair_separation_sq``: a relative slack
# far above the few ulps of rounding in a speed, and an absolute floor above
# the error sqrt(few subnormal ulps) ~ 4e-162 of a speed whose squares
# underflow. Neither moves the stop of a state at ordinary scale.
_SPEED_SLACK = 1e-12
_SPEED_FLOOR = 1e-160


def block_states(n_particles: int) -> int:
    """States per block of ``STATE_BLOCK_ENTRIES`` coordinates, at least one."""
    return max(1, STATE_BLOCK_ENTRIES // (3 * n_particles))


def dot3(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None,
         tmp: np.ndarray | None = None) -> np.ndarray:
    """x[0] y[0] + x[1] y[1] + x[2] y[2], summed in that order.

    x and y are component-first, shape (3, ...): ``g.T`` of an (m, 3)
    array or ``np.moveaxis(states, -1, 0)``. Three whole-plane products
    cost a fraction of numpy's reduction over a length-3 last axis, which
    adds a row in the same order, (a0 + a1) + a2 (numpy 2.4), so
    ``dot3(x.T, x.T)`` equals ``(x * x).sum(-1)`` bit for bit.

    The sum is written into ``out`` and the second and third products
    into ``tmp``, planes of the result's shape that overlap neither x nor
    y; a plane not given is allocated, so with both given nothing is.
    """
    out = np.multiply(x[0], y[0], out=out)
    out += np.multiply(x[1], y[1], out=tmp)
    out += np.multiply(x[2], y[2], out=tmp)
    return out


class DegenerateStateError(ValueError):
    """All velocities coincide with u; constraints cannot be restored."""


class NonFiniteStateError(FloatingPointError):
    """States hold NaN or inf: a numerical breakdown of the run.

    ``replicas`` lists the affected replica indices; ``step`` is the time
    step that produced them, when the ensemble driver knows it.
    """

    def __init__(self, replicas, step: int | None = None):
        self.replicas = [int(i) for i in replicas]
        self.step = step
        at = "" if step is None else f" at step {step}"
        super().__init__(f"non-finite states{at} in replicas {self.replicas}")


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
        Energy per particle; total energy is N*eps. It and eps0 must lie in
        ``EPS_RANGE``.
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
        lo, hi = EPS_RANGE
        if not lo <= self.eps <= hi:
            raise ValueError(f"eps must be in [{lo:g}, {hi:g}]")
        if self.mode is ConservationMode.ENERGY_ONLY:
            if np.any(self.u != 0.0):
                raise ValueError("u must be 0 in ENERGY_ONLY mode")
        elif not lo <= self.eps0 <= hi:
            raise ValueError(f"need eps0 = eps - |u|^2/2 in [{lo:g}, {hi:g}]")

    @property
    def eps0(self) -> float:
        """Energy per particle in the co-moving frame."""
        return self.eps - 0.5 * float(self.u @ self.u)

    @property
    def n_constraints(self) -> int:
        return self.mode.value

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


# ---------------------------------------------------------------------------
# sampling and restoration


def check_n_states(n_states: int) -> None:
    """A sample holds at least one state."""
    if n_states < 1:
        raise ValueError(f"need at least one state, got {n_states}")


def sample_uniform_batch(spec: ManifoldSpec, n_states: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw states from the uniform surface measure, shape (n_states, N, 3).

    Gaussian construction: 3N iid standard normals are isotropic, so their
    restoration onto the manifold (``renormalize_batch``, run in place on
    the draw) is uniform on the sphere. Constraints hold to machine precision
    by construction.

    The output array is filled in blocks of ``block_states`` states, each
    drawn and restored while it is in cache. The normals are consumed in
    the same order as one whole draw and restoration is per state, so the
    result does not depend on the block size, bit for bit.
    """
    check_n_states(n_states)
    out = np.empty((n_states, spec.n_particles, 3))
    block = block_states(spec.n_particles)
    for i in range(0, n_states, block):
        b = out[i:i + block]
        renormalize_batch(spec, rng.standard_normal(out=b))
    return out


def center_batch(spec: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Center the (R, N, 3) float array x in place about its per-replica
    particle mean and return it. For C=1, where u = 0 and the sphere is
    centered at the origin, x is left as it is."""
    if spec.mode is ConservationMode.ENERGY_ONLY:
        return x
    n = x.shape[1]
    mean = (np.ones(n) @ x) / n
    # per-replica means go in one component at a time: a (R, 1, 3)
    # broadcast would run numpy's inner loop over 3 elements, this over N
    for j in range(3):
        x[:, :, j] -= mean[:, j, None]
    return x


def renormalize_batch(spec: ManifoldSpec, x: np.ndarray) -> np.ndarray:
    """Restore the constraints of the (R, N, 3) float array x exactly, in
    place; returns x.

    Momentum is restored by a uniform shift of all particles to mean u,
    energy by rescaling the deviations about the particle mean
    (``center_batch``) to the radius. Directions of the deviations are
    unchanged. Raises NonFiniteStateError, naming the replicas, when a
    state holds NaN or inf, and DegenerateStateError when a deviation is
    zero; both are read off the per-replica norm, and x is then left
    centered.
    """
    center_batch(spec, x)
    norm = np.sqrt(np.einsum("rij,rij->r", x, x))
    if not np.isfinite(norm).all():
        raise NonFiniteStateError(np.flatnonzero(~np.isfinite(norm)))
    if np.any(norm == 0.0):
        raise DegenerateStateError("all velocities equal u; cannot rescale")
    x *= (spec.radius / norm)[:, None, None]
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        for j in range(3):
            x[:, :, j] += spec.u[j]
    return x


def constraint_errors(spec: ManifoldSpec,
                      states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constraint violations of (..., N, 3) states, each of shape (...).

    Returns the signed relative energy error E/(N eps) - 1 and the largest
    per-component momentum violation |sum_k v_k - N u| in units of sqrt(N).
    The energy-only sphere conserves no momentum, so its momentum violation
    is 0. Each |v_k|^2 sums components 0, 1, 2 through ``dot3``.
    """
    states = np.asarray(states, dtype=float)
    n = spec.n_particles
    c = np.moveaxis(states, -1, 0)
    energy = 0.5 * dot3(c, c).sum(-1) / (n * spec.eps) - 1.0
    if spec.mode is ConservationMode.ENERGY_ONLY:
        return energy, np.zeros_like(energy)
    momentum = np.abs(states.sum(axis=-2) - n * spec.u).max(axis=-1)
    return energy, momentum / math.sqrt(n)


def max_pair_separation_sq(states: np.ndarray) -> np.ndarray:
    """Largest squared pair separation max_{k<l} |v_k - v_l|^2 of each of
    the (..., N, 3) states, shape (...).

    Scans each state's particles in descending speed s_1 >= s_2 >= ...
    about the state's particle mean c (s_i = |v_i - c|). Step k differences
    the k-th fastest particle against all N, component-major with the
    states along the fast axis, and keeps a running per-state maximum of
    |d|^2. After step k every unseen pair has both particles at rank k+1 or
    later, so by the triangle inequality none exceeds (s_{k+1} + s_{k+2})^2;
    the scan stops once every state's maximum reaches that bound, widened
    by ``_SPEED_SLACK`` (relative) and ``_SPEED_FLOOR`` (absolute) so that
    rounding in the speeds cannot stop it early. A state with a NaN or an
    infinite speed never passes the test and is scanned in full.

    The result is the maximum of the same terms as the scan over all pairs
    k < l (``tests/oracles.py``), bit for bit: (a - b)^2 equals (b - a)^2
    exactly, the components are summed in the order 0, 1, 2, and repeated
    pairs and the self-pair, set to 0, leave the maximum unchanged.
    Memory is O(N) per state (no N x N array), and squaring the differences
    themselves has no cancellation, unlike |v_k|^2 + |v_l|^2 - 2 v_k.v_l
    away from the origin.
    """
    states = np.asarray(states, dtype=float)
    n = states.shape[-2]
    # (3, N, R): one contiguous (N, R) plane per velocity component
    comp = np.ascontiguousarray(np.moveaxis(states.reshape(-1, n, 3), (1, 2), (1, 0)))
    r = comp.shape[2]
    sq, d = np.empty((n, r)), np.empty((n, r))

    def squared_distances_to(point):
        # |v_i - point|^2 of every particle i, point of shape (3, R); one
        # component at a time, so the scratch is two (N, R) planes
        np.subtract(comp[0], point[0], out=sq)
        np.multiply(sq, sq, out=sq)
        for j in (1, 2):
            np.subtract(comp[j], point[j], out=d)
            np.multiply(d, d, out=d)
            np.add(sq, d, out=sq)
        return sq

    speed = np.sqrt(squared_distances_to(comp.mean(axis=1)))
    # NaN fails every comparison, so a non-finite state, or one whose
    # squared speeds overflow, never passes the stop test
    speed[np.isinf(speed)] = np.nan
    order = np.argsort(-speed, axis=0)
    cols = np.arange(r)
    best = np.zeros(r)
    for k in range(n - 1):
        row = squared_distances_to(comp[:, order[k], cols])
        row[order[k], cols] = 0.0   # the self-pair, NaN for an infinite particle
        np.maximum(best, row.max(axis=0), out=best)
        if k + 2 < n:
            tail = speed[order[k + 1], cols] + speed[order[k + 2], cols]
            if np.all(best >= (tail * (1.0 + _SPEED_SLACK) + _SPEED_FLOOR) ** 2):
                break
    return best.reshape(states.shape[:-2])


# ---------------------------------------------------------------------------
# tangent projector


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


# ---------------------------------------------------------------------------
# sphere areas


def log_sphere_area(dim: int) -> float:
    """log surface measure of the unit dim-sphere.

    |S^D| = 2 pi^{(D+1)/2} / Gamma((D+1)/2); evaluated in log form so that
    D ~ 3N stays finite for N ~ 1e3.
    """
    if dim < 0:
        raise ValueError("dim must be >= 0")
    from scipy.special import gammaln  # here, so importing kinlab skips scipy

    half = 0.5 * (dim + 1)
    return math.log(2.0) + half * math.log(math.pi) - gammaln(half)
