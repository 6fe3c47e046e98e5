"""Time steppers for the two velocity-sphere diffusions.

Two Markov processes on the constraint manifolds are simulated, both weak
order O(dt):

* isotropic sphere diffusion, generator Delta_M (Laplace-Beltrami on the
  full manifold): projected Euler-Maruyama increments sqrt(2 dt) P xi
  followed by exact constraint restoration, fused into one closed-form
  map per replica;

* pairwise diffusion, generator (1/(N-1)) sum_{k != l} w_kl Delta_{B_kl}
  with weight w_kl = |v_k - v_l|^{2+gamma} (gamma = -3 is the Coulomb
  weight |v_k - v_l|^{-1}): per unordered pair, a tangent kick on the
  2-dimensional pair-collision manifold with diffusivity a_kl =
  2 w_kl / (N-1), followed by exact restoration of the pair momentum and
  separation (the binary-collision conservation laws), then a global
  cleanup renormalization.

Each step visits every unordered pair exactly once, in the rounds of the
circle-method round robin, in one fixed order, after a random particle
relabeling per replica per step; pairs within a round are disjoint, so the
vectorized simultaneous update coincides with a sequential sweep. After
each round the rows of the sweep's work array rotate one place along the
circle, with no per-replica index; a sweep is one full turn, so the
relabeling that gathers the states also scatters them back.

Each process's draw order is written once, as a generator of the run's
draws (``_sphere_draws``, ``_pair_draws``), each a new array; the pair
draws hand each step's relabeling over already sorted into the sweep's
gather index. ``run_ensemble`` iterates it on a producer thread
(``_drawn_ahead``), so that the next block's or round's normals are drawn
while the current one is stepped; the stream and the results are those of
the serial steppers, ``step_sphere_diffusion`` on the run's normals and
``step_pair_diffusion``, bit for bit.

A pair run sweeps in memory it allocates once (``_PairBuffers``): the
component-major work array, its spare for the rotation, and the kick's
scratch (``_KickScratch``, its largest planes lent by the spare, which is
free while the kick runs), into which every kick operation writes through
``out=``. The sweep gathers the states into the work array and scatters
them back through the step's index, with no copy in between, so a sweep
allocates nothing of the states' size. ``step_pair_diffusion``, the serial
reference, allocates its own buffers per call.

`generator_apply` evaluates the pairwise generator exactly on a catalog of
test polynomials and is the oracle for the weak-consistency tests.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import observables as obs_mod
from .geometry import (
    ConservationMode,
    DegenerateStateError,
    ManifoldSpec,
    NonFiniteStateError,
    block_states,
    center_batch,
    dot3,
    renormalize_batch,
    sample_uniform_batch,
    tangent_project_batch,  # noqa: F401 - perfbench/spans.py wraps it by name
)


# The largest pair weight a run may meet. A kick squares about
# 8 dt w |eta|^2 / (N - 1), so this leaves some 100 decades for dt and the
# noise below the float range.
PAIR_WEIGHT_MAX = 1e200


@dataclass(frozen=True)
class KernelSpec:
    """Collision-kernel exponent gamma, finite and > -5.

    The pair weight is |v_k - v_l|^{2+gamma}; gamma = -3 reproduces the
    Coulomb weight |v_k - v_l|^{-1}. A pair closer than the manifold's
    cutoff (``ManifoldSpec.cutoff``, 1e-8 sqrt(eps)) has no separation
    direction: the sweep and the generator cap its separation at the
    cutoff, and the sweep leaves the pair unmoved.
    """

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > -5.0):
            raise ValueError("kernel exponent must be finite with gamma > -5")

    def check_weights(self, spec: ManifoldSpec) -> None:
        """Raise ValueError unless every pair weight on ``spec``'s manifold
        is at most ``PAIR_WEIGHT_MAX``.

        A separation is at most sqrt(4 N eps), as sum_k |v_k|^2 = 2 N eps,
        and the sweep and the generator use at least the cutoff; the
        weight is largest at one of the two ends.
        """
        ends = (0.5 * math.log(4.0 * spec.n_particles * spec.eps), math.log(spec.cutoff))
        log10_w = max((2.0 + self.gamma) * end for end in ends) / math.log(10.0)
        if log10_w > math.log10(PAIR_WEIGHT_MAX):
            raise ValueError(
                f"pair weights reach 1e{log10_w:.0f} at N = {spec.n_particles}, eps = "
                f"{spec.eps:g}, gamma = {self.gamma:g}; need at most {PAIR_WEIGHT_MAX:g}: "
                "lower eps or gamma")


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run parameters.

    dt > 0 and t_end are finite; t_end is a multiple of dt, 0 or more, by
    ``_step_at``, the grid rule of the snapshot times too (t_end = 0 gives
    no records), and n_steps = t_end / dt is set on construction. A run
    with a kernel is a pair diffusion, one without a sphere diffusion.
    """

    dt: float
    t_end: float
    n_replicas: int
    kernel: KernelSpec | None = None
    record_every: int = 1
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        n = self._step_at(self.t_end)
        if n is None or n < 0:
            raise ValueError("t_end must be a multiple of dt, 0 or more")
        object.__setattr__(self, "n_steps", n)

    def _step_at(self, t: float) -> int | None:
        """The step count of time t, or None if t is not finite or not a
        multiple of dt to 1e-9 relative."""
        if not math.isfinite(t):
            return None
        s = int(round(t / self.dt))
        return s if abs(s * self.dt - t) <= 1e-9 * max(self.dt, abs(t)) else None

    @property
    def process(self) -> str:
        """"pair" for a run with a kernel, else "sphere"."""
        return "sphere" if self.kernel is None else "pair"

    def snapshot_steps(self, times: Sequence[float]) -> dict[int, float]:
        """Map each snapshot time to its step; every time must be a step
        multiple within the run, and no two times the same step."""
        steps = {}
        for t in times:
            s = self._step_at(t)
            if s is None or not 0 <= s <= self.n_steps:
                raise ValueError(f"snapshot time {t} is not a step of the run")
            if s in steps:
                raise ValueError(f"snapshot times {steps[s]} and {t} are the same step")
            steps[s] = t
        return steps


@dataclass
class EnsembleSnapshot:
    """States of every replica at one time; velocities has shape (R, N, 3)."""

    time: float
    velocities: np.ndarray


@dataclass
class SimResult:
    """Recorded series by observable name, and the requested snapshots."""

    series: dict[str, "obs_mod.ObservableSeries"]
    snapshots: list[EnsembleSnapshot]


# ---------------------------------------------------------------------------
# sphere diffusion


def step_sphere_diffusion(spec: ManifoldSpec, states: np.ndarray, dt: float,
                          xi: np.ndarray) -> np.ndarray:
    """One projected Euler-Maruyama step of Brownian motion on the manifold.

    Overwrites the (R, N, 3) ``states`` with the new states, on the
    manifold, and returns ``states`` itself; the standard normals xi, of
    the same shape, are only read. The step allocates no array of their
    shape.

    The projection and the renormalization are one affine map per replica.
    With w the deviation of the states about their mean (``center_batch``,
    run in place on ``states``; w = states for C=1, where u = 0), y that of
    xi, a = sqrt(2 dt) and c = <w,y>/<w,w>, the projected move is
    w + a (y - c w) = b w + a y with b = 1 - a c. Restoration centers its
    input and ignores a positive factor, so restoring (b/a) w + xi gives
    the restored b w + a y and the projected array is never built: a step
    costs two per-replica reductions (<w,y> = <w,xi>, as w sums to zero
    over the particles), one scaled sum, and ``renormalize_batch``, each
    run in place on ``states``.

    Raises NonFiniteStateError, naming the replicas, when NaN or inf in
    states or xi reaches the restored norm, and DegenerateStateError when a
    replica's deviation is zero; ``states`` is then left part-way through
    the step.
    """
    a = math.sqrt(2.0 * dt)
    w = center_batch(spec, states)
    wsq = np.einsum("rij,rij->r", w, w)
    if np.any(wsq == 0.0):
        raise DegenerateStateError("all velocities equal u; cannot rescale")
    c = np.einsum("rij,rij->r", w, xi) / wsq
    w *= ((1.0 - a * c) / a)[:, None, None]
    w += xi
    return renormalize_batch(spec, w)


# ---------------------------------------------------------------------------
# pairwise diffusion


def _rotate_rows(src: np.ndarray, dst: np.ndarray) -> None:
    """Write ``src`` into ``dst`` with its rows (axis 1) moved one round on
    along the circle-method schedule.

    Row i < P holds the k side of pair i and row P + i its l side, P =
    n // 2; for odd n, row n - 1 holds the bye. The rows form a ring,
    ascending over the k sides, descending over the l sides, then the bye
    row; each row's content moves one place along it. For even n, row 0 is
    the fixed player and stays. Every new round is a perfect matching, and
    the ring's ``_n_rounds(n)`` rounds meet every unordered pair once (for
    odd n, each player has the bye once); as many rotations bring every row
    home. For n = 2 the ring is row 1 alone, so ``dst[:, s]`` is written
    last.
    """
    n = src.shape[1]
    p = n // 2
    s = 1 - n % 2                   # even n: row 0 stays
    dst[:, :s] = src[:, :s]
    dst[:, s + 1:p] = src[:, s:p - 1]
    dst[:, p:2 * p - 1] = src[:, p + 1:2 * p]
    dst[:, 2 * p - 1] = src[:, p - 1]
    if n % 2:
        dst[:, 2 * p] = src[:, p]
    dst[:, s] = src[:, 2 * p if n % 2 else p]


def _n_rounds(n: int) -> int:
    """The rounds of the circle-method schedule of n players, the length
    of ``_rotate_rows``' ring: n - 1 for even n, n for odd n."""
    return n - 1 + n % 2


class _KickScratch(NamedTuple):
    """The planes one round's kick writes through ``out=``: the separation
    d and its direction, (3, P, R) each; beta, the amplitude and a
    component sum, (P, R) each; and the skip mask."""

    d: np.ndarray
    nhat: np.ndarray
    beta: np.ndarray
    amp: np.ndarray
    total: np.ndarray
    ok: np.ndarray


def _pair_round_kick(work: np.ndarray, eta: np.ndarray, gamma: float,
                     cutoff: float, diff_scale: float, dt: float,
                     scratch: _KickScratch) -> None:
    """Kick one round of disjoint pairs in place.

    ``work`` (3, N, R) holds the replicas component-major in the round's
    layout: position i < P is the k side of pair i and position P + i its
    l side, with P = eta.shape[1]; ``eta`` (3, P, R) holds standard normals
    and is overwritten. Per pair: increment sqrt(a dt) P_perp eta on
    particle k, the opposite on l (a = diff_scale * beta^{2+gamma}), then
    rescale the separation back to beta exactly. Pair momentum is conserved
    identically. A pair below the cutoff runs the same arithmetic with beta
    capped at the cutoff, and its move is scaled by 0.

    Every operation writes through ``out=`` into ``scratch``
    (``_PairBuffers.scratch``), so the kick allocates nothing of its
    own. A plane that is free at the time is the scratch of each component
    sum: a plane of ``nhat`` before ``nhat`` is set and after its last
    use, ``amp`` before the amplitude.
    """
    p = eta.shape[1]
    d, nhat, beta, amp, total, ok = scratch
    vk = work[:, :p]
    vl = work[:, p:2 * p]
    # the strided k and l sides go one plane at a time: numpy copies a
    # small strided (3, P, R) operand into buffers of its size
    for c in range(3):
        np.subtract(vk[c], vl[c], out=d[c])
    np.sqrt(dot3(d, d, out=beta, tmp=nhat[0]), out=beta)
    np.greater_equal(beta, cutoff, out=ok)
    np.maximum(beta, cutoff, out=beta)
    np.divide(d, beta, out=nhat)
    eta -= np.multiply(nhat, dot3(nhat, eta, out=total, tmp=amp), out=nhat)  # P_perp eta
    np.power(beta, 2.0 + gamma, out=amp)
    np.multiply(diff_scale * dt, amp, out=amp)
    np.sqrt(amp, out=amp)
    eta *= np.multiply(2.0, amp, out=amp)
    eta += d                                # kicked separation
    np.sqrt(dot3(eta, eta, out=total, tmp=nhat[0]), out=total)
    eta *= np.divide(beta, total, out=total)   # restored to length beta
    eta -= d
    eta *= np.multiply(ok, 0.5, out=amp)    # half move, 0 below the cutoff
    for c in range(3):
        vk[c] += eta[c]
        vl[c] -= eta[c]


class _PairBuffers(NamedTuple):
    """The memory a pair sweep of R replicas of N particles works in: the
    component-major (3, N, R) work array and its spare for the rotation,
    and the kick's scratch for a round whose work array is ``work``
    (``scratch[0]``) or ``spare`` (``scratch[1]``).

    A kick runs while the round's spare is free, so its two (3, P, R)
    planes are the spare's first 6 P R entries (3 N R >= 6 P R); only the
    (P, R) planes and the skip mask, shared by the two, are memory of
    their own. The buffers come to about 2.5 times the states."""

    work: np.ndarray
    spare: np.ndarray
    scratch: tuple[_KickScratch, _KickScratch]

    @classmethod
    def new(cls, r: int, n: int) -> "_PairBuffers":
        p = n // 2
        work, spare = np.empty((3, n, r)), np.empty((3, n, r))
        planes = np.empty((p, r)), np.empty((p, r)), np.empty((p, r)), np.empty((p, r), bool)

        def kick_scratch(free: np.ndarray) -> _KickScratch:
            flat = free.reshape(-1)
            return _KickScratch(flat[:3 * p * r].reshape(3, p, r),
                                flat[3 * p * r:6 * p * r].reshape(3, p, r), *planes)

        return cls(work, spare, (kick_scratch(spare), kick_scratch(work)))


def step_pair_diffusion(spec: ManifoldSpec, states: np.ndarray, kernel: KernelSpec,
                        dt: float, rng: np.random.Generator) -> np.ndarray:
    """One weak-O(dt) sweep of the pairwise collision diffusion.

    Overwrites the (R, N, 3) ``states`` with the new states, on the
    manifold, and returns ``states`` itself: every pair is kicked, the
    kicked velocities are scattered back into ``states``, and
    ``renormalize_batch`` restores it in place.

    Draw order per step (fixed, for reproducibility; ``_pair_draws``):
    particle relabeling ``rng.random((R, N))``, then one
    ``rng.standard_normal((R, P, 3))`` block per round. ``rng`` needs only
    these two methods, so a stand-in such as an antithetic wrapper works
    too. ``run_ensemble`` sweeps with the same draws, taken from one
    sequence for the whole run.

    The rounds run in the circle-method order of ``_rotate_rows``, the same
    for every replica; the relabeling, drawn per replica, makes the sweep
    exchangeable. Each pair move keeps the uniform law by itself, so the
    order of the rounds changes only O(dt^2) terms. The sweep runs on a
    component-major (3, N, R) copy of the states, gathered once in the
    relabeled order, so each round's k and l sides are the contiguous
    slices [:P] and [P:2P], kicked in place. One fixed rotation of the
    copy's rows, a few slice copies, follows each round, with no
    per-replica index; the sweep is one full turn of the circle, so the
    copy is scattered back once, through the relabeling itself.

    This is the serial reference of ``run_ensemble``'s sweeps: it
    allocates the buffers of one sweep (``_PairBuffers``) itself, where a
    run allocates them once. A ``states`` array that is not C-contiguous
    is swept in a contiguous copy, written back into it.
    """
    r, n, _ = states.shape
    swept = np.ascontiguousarray(states, dtype=float)
    _sweep_pairs(spec, swept, kernel, dt, _pair_draws(rng, r, n, n_steps=1),
                 _PairBuffers.new(r, n))
    if swept is not states:
        states[...] = swept
    return states


def _pair_draws(rng, r: int, n: int, n_steps: int) -> Iterator[np.ndarray]:
    """The draws of ``n_steps`` pair sweeps of R replicas of N particles,
    in the order ``step_pair_diffusion`` documents, each a new array.

    Per step: the relabeling, drawn as the uniforms (R, N) and yielded as
    the (N, R) gather index of the sweep's work array. Entry (j, q) is the
    offset, in the flattened C-contiguous (R, N, 3) states, of component 0
    of particle perm[q, j] of replica q, with perm the uniforms' argsort
    along each replica. Then per round the (R, P, 3) normals, copied
    component-major into a new (3, P, R) array, which the sweep kicks in
    place. Calls nothing but ``rng`` and numpy, so it can run on a
    producer thread, the argsort included.
    """
    p = n // 2
    # the offset of each replica's first coordinate
    start = np.arange(0, 3 * r * n, 3 * n)
    for _ in range(n_steps):
        # sorting the transposed uniforms down each column gives perm.T
        # C-contiguous, with no transposing copy
        at = np.argsort(rng.random((r, n)).T, axis=0)
        at *= 3
        at += start
        yield at
        for _ in range(_n_rounds(n)):
            yield rng.standard_normal((r, p, 3)).transpose(2, 1, 0).copy()


def _sweep_pairs(spec: ManifoldSpec, states: np.ndarray, kernel: KernelSpec, dt: float,
                 draws: Iterator[np.ndarray], buffers: _PairBuffers) -> np.ndarray:
    """``step_pair_diffusion`` of the C-contiguous (R, N, 3) ``states``
    with its draws taken from ``draws`` (``_pair_draws``): exactly one
    sweep's worth, 1 + n_rounds items.

    The sweep works in ``buffers`` (``_PairBuffers.new(R, N)``),
    overwritten: each velocity component is gathered through the step's
    index with one ``np.take`` straight into its plane of the work array,
    and scattered back through the same index, so the sweep allocates
    nothing of the states' size.
    """
    n = states.shape[1]
    work, spare, scratch = buffers
    at = next(draws)
    flat = states.reshape(-1)
    # row j of replica q holds particle perm[q, j] in round 0, and again
    # after the last round's rotation; take's default mode "raise" would
    # gather into a copy of ``out``
    for c in range(3):
        np.take(flat[c:], at, out=work[c], mode="clip")
    diff_scale = 2.0 / (n - 1)
    for i in range(_n_rounds(n)):
        _pair_round_kick(work, next(draws), kernel.gamma, spec.cutoff, diff_scale, dt,
                         scratch[i % 2])
        _rotate_rows(work, spare)
        work, spare = spare, work
    for c in range(3):
        flat[c:][at] = work[c]
    return renormalize_batch(spec, states)


# ---------------------------------------------------------------------------
# exact generator action on the test-polynomial catalog


@dataclass(frozen=True)
class TestPolynomial:
    """Catalog entry for weak-consistency oracles.

    kinds: "coord" v_{k,sigma}; "quad" v_{k,sigma} v_{m,tau}.
    """

    __test__ = False  # not a pytest class

    kind: str
    k: int = 0
    sigma: int = 0
    m: int = 0
    tau: int = 0

    @staticmethod
    def coord(k: int, sigma: int) -> "TestPolynomial":
        return TestPolynomial("coord", k=k, sigma=sigma)

    @staticmethod
    def quad(k: int, sigma: int, m: int, tau: int) -> "TestPolynomial":
        return TestPolynomial("quad", k=k, sigma=sigma, m=m, tau=tau)

    def evaluate(self, velocities: np.ndarray) -> np.ndarray:
        """Evaluate on (..., N, 3) velocities; returns shape (...)."""
        v = np.asarray(velocities, dtype=float)
        if self.kind == "coord":
            return v[..., self.k, self.sigma]
        if self.kind == "quad":
            return v[..., self.k, self.sigma] * v[..., self.m, self.tau]
        raise ValueError(f"unknown test polynomial kind {self.kind!r}")


def _capped_norm(d: np.ndarray, cutoff: float) -> np.ndarray:
    """|d| over the last (component) axis, capped below at the cutoff."""
    c = np.moveaxis(d, -1, 0)
    return np.maximum(np.sqrt(dot3(c, c)), cutoff)


def _capped_beta(p: np.ndarray, k: int, cutoff: float):
    """Separations v_k - v_l from the other particles l != k, shape
    (..., N-1, 3), and their magnitudes capped below at the cutoff."""
    others = np.arange(p.shape[-2]) != k
    d = (p[..., k, None, :] - p)[..., others, :]
    return d, _capped_norm(d, cutoff)


def generator_apply(spec: ManifoldSpec, v: np.ndarray, kernel: KernelSpec,
                    phi: TestPolynomial) -> np.ndarray:
    """Exact action of the pairwise-diffusion generator on a catalog entry.

    Returns the drift d/dt E[phi] at each of the (..., N, 3) states v, shape
    (...). Pairs below the cutoff contribute their capped weight (beta
    replaced by the cutoff in both the weight and the curvature factors).
    """
    p = np.asarray(v, dtype=float)
    n = spec.n_particles
    cutoff = spec.cutoff
    g = kernel.gamma
    scale = 2.0 / (n - 1)

    if phi.kind == "coord":
        d, beta_t = _capped_beta(p, phi.k, cutoff)
        # sum_l a_kl * (-2 d_sigma / beta^2), a_kl = scale * beta^{2+gamma}
        return -2.0 * scale * (beta_t ** g * d[..., phi.sigma]).sum(-1)

    if phi.kind == "quad":
        k, s, m, t = phi.k, phi.sigma, phi.m, phi.tau
        # product-rule terms: Delta acting on each factor
        dk, beta_k = _capped_beta(p, k, cutoff)
        total = -2.0 * scale * (p[..., m, t, None] * beta_k ** g * dk[..., s]).sum(-1)
        dm, beta_m = _capped_beta(p, m, cutoff)
        total += -2.0 * scale * (p[..., k, s, None] * beta_m ** g * dm[..., t]).sum(-1)
        # cross terms 2 <P_B grad v_ks, grad v_mt>
        if k == m:
            w = beta_k ** (2.0 + g)
            proj = float(s == t) - dk[..., s] * dk[..., t] / beta_k ** 2
            total += scale * (w * proj).sum(-1)
        else:
            d_km = p[..., k, :] - p[..., m, :]
            b = _capped_norm(d_km, cutoff)
            proj = float(s == t) - d_km[..., s] * d_km[..., t] / b ** 2
            total += -scale * b ** (2.0 + g) * proj
        return total

    raise ValueError(f"unknown test polynomial kind {phi.kind!r}")


# ---------------------------------------------------------------------------
# initial-state samplers (artifact plumbing for non-equilibrium starts)


Sampler = Callable[[ManifoldSpec, int, np.random.Generator], np.ndarray]


def uniform_sampler(spec: ManifoldSpec, n_states: int,
                    rng: np.random.Generator) -> np.ndarray:
    return sample_uniform_batch(spec, n_states, rng)


def check_shiftable(spec: ManifoldSpec) -> None:
    """A shift of every particle survives only on the energy-only sphere."""
    if spec.mode is not ConservationMode.ENERGY_ONLY:
        raise ValueError("the momentum restoration removes a shift of every "
                         "particle; use the energy-only mode")


def shifted_sampler(strength: float) -> Sampler:
    """Uniform sample, then add ``strength`` to every particle's v_1 and
    restore the constraints in place. Biases the mean observables; raises
    ValueError on the energy-momentum sphere (``check_shiftable``)."""

    def sample(spec, n_states, rng):
        check_shiftable(spec)
        out = sample_uniform_batch(spec, n_states, rng)
        out[..., 0] += strength
        return renormalize_batch(spec, out)

    return sample


def sheared_sampler(strength: float) -> Sampler:
    """Uniform sample, then v_1 += strength * (v_2 - u_2) and restore the
    constraints in place.

    Biases the off-diagonal second moment sum_k v_{k,1} v_{k,2} while
    preserving the momentum constraint.
    """

    def sample(spec, n_states, rng):
        out = sample_uniform_batch(spec, n_states, rng)
        out[..., 0] += strength * (out[..., 1] - spec.u[1])
        return renormalize_batch(spec, out)

    return sample


def tagged_shift_sampler(strength: float) -> Sampler:
    """Uniform sample, then add ``strength`` to particle 0's v_1 (compensated
    by the others so the momentum constraint is kept) and restore the
    constraints in place. Biases the tagged one-particle mean."""

    def sample(spec, n_states, rng):
        out = sample_uniform_batch(spec, n_states, rng)
        out[:, 0, 0] += strength
        out[:, 1:, 0] -= strength / (spec.n_particles - 1)
        return renormalize_batch(spec, out)

    return sample


# ---------------------------------------------------------------------------
# ensemble driver


def _sphere_draws(rng, shape: tuple, block: int, n_steps: int) -> Iterator[np.ndarray]:
    """The normals of ``n_steps`` sphere steps of the (R, N, 3) ``shape``,
    in one stream: per step, one new array per ``block`` replicas in
    replica order (the last one ragged). The stream does not depend on
    ``block``. Calls nothing but ``rng`` and numpy, so it can run on a
    producer thread."""
    r = shape[0]
    for _ in range(n_steps):
        for i in range(0, r, block):
            yield rng.standard_normal((min(block, r - i),) + shape[1:])


def _sweep_sphere(spec: ManifoldSpec, states: np.ndarray, dt: float,
                  draws: Iterator[np.ndarray]) -> np.ndarray:
    """One sphere step of the (R, N, 3) ``states`` in place, block by
    block: each next normals array of ``draws`` (``_sphere_draws``) steps
    as many replicas as it holds, until all R are stepped.

    Every block is stepped; a NonFiniteStateError then names the bad
    replicas of all of them by their index in ``states``.
    """
    bad: list[int] = []
    i = 0
    while i < len(states):
        xi = next(draws)
        try:
            step_sphere_diffusion(spec, states[i:i + len(xi)], dt, xi)
        except NonFiniteStateError as exc:
            bad += [i + q for q in exc.replicas]
        i += len(xi)
    if bad:
        raise NonFiniteStateError(bad)
    return states


def _drawn_ahead(draws: Iterator, lead: int) -> Iterator:
    """Iterate ``draws`` on a producer thread and yield its items in order.

    The producer starts item m only after the consumer has asked for item
    m - lead + 1, that is once it is done with item m - lead; so ``lead``
    caps how many items are drawn ahead, and with them the memory they
    take. An exception of the producer is raised here, in its place in the
    sequence; the end of ``draws`` ends this generator. Closing this
    generator stops the producer and joins it.
    """
    items: queue.SimpleQueue = queue.SimpleQueue()
    free = threading.Semaphore(lead - 1)
    stop = threading.Event()
    end = object()

    def produce():
        try:
            for item in draws:
                items.put(item)
                free.acquire()
                if stop.is_set():
                    return
            items.put(end)
        except BaseException as exc:  # raised again by the consumer
            items.put(exc)

    producer = threading.Thread(target=produce, name="kinlab-draws", daemon=True)
    producer.start()
    try:
        while (item := items.get()) is not end:
            if isinstance(item, BaseException):
                raise item
            yield item
            free.release()
    finally:
        stop.set()
        free.release()
        producer.join()


def run_ensemble(spec: ManifoldSpec, config: SimConfig,
                 observables: Sequence[str], *, rng: np.random.Generator,
                 initial_sampler: Sampler | None = None,
                 snapshot_times: Sequence[float] = ()) -> SimResult:
    """Evolve n_replicas independent states and record observable series.

    ``observables`` names catalog entries (``observables.OBSERVABLES``).
    The run is a pair diffusion when ``config.kernel`` is set, else a
    sphere diffusion.

    Every draw comes from ``rng``, in a fixed order: the initial sample,
    then each step's schedule and noise, as written once by
    ``_sphere_draws`` and ``_pair_draws``. Generators in the same state
    give bit-identical results, and leave ``rng`` in the same state.
    Ensemble means are reported with standard errors (std/sqrt(R),
    ddof=1).

    The steps' draws are made on a producer thread, in that same order,
    while this thread steps the previous block or round (``_drawn_ahead``):
    at most two sphere noise blocks or four pair draws ahead. Each draw is
    a new array, and at most that many are waiting or in use at once. The
    producer starts at the first step, draws exactly ``config.n_steps``
    steps' worth and is joined before the run returns or raises. The
    results and the final ``rng`` state are those of the serial steppers;
    after a raise, ``rng`` may have drawn ahead of them.

    The run holds one (R, N, 3) state array: the sampler's own when that
    is a writable C-contiguous float array that owns its data, else a copy
    (of a read-only or borrowed array, such as a ``broadcast_to`` view).
    Every step overwrites it in place. A pair step sweeps the whole array
    (``_sweep_pairs``) in the buffers the run allocates once, after the
    initial sample (``_PairBuffers``, about 2.5 times the state array),
    and frees after the last sweep, before that step's record and
    snapshot, so that these do not add to the sweeps' peak memory; a
    sphere step (``_sweep_sphere``) runs
    ``step_sphere_diffusion`` in place on blocks of as many replicas as
    each noise array holds, half ``block_states`` as ``_sphere_draws``
    alone picks (the two drawn at once hold one block), so their arrays
    stay in cache. The normals are consumed in the same order as one
    whole-array draw and every reduction of the step is per replica, so
    the states do not depend on the block size, bit for bit.

    A step that leaves NaN or inf in some replica raises
    NonFiniteStateError naming that step and those replicas (all of them,
    across the blocks of a sphere step).
    """
    fns = {name: obs_mod.get_observable(name) for name in observables}
    snap_steps = config.snapshot_steps(snapshot_times)
    sampler = initial_sampler if initial_sampler is not None else uniform_sampler
    states = np.require(sampler(spec, config.n_replicas, rng), float, "CWO")

    n_steps = config.n_steps

    times: list[float] = []
    records: dict[str, list[tuple[float, float]]] = {name: [] for name in fns}
    snapshots: list[EnsembleSnapshot] = []

    def record(step: int):
        times.append(step * config.dt)
        for name, fn in fns.items():
            vals = np.asarray(fn(states), dtype=float)
            mean = float(vals.mean())
            err = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            records[name].append((mean, err))

    def maybe_snapshot(step: int):
        if step in snap_steps:
            snapshots.append(EnsembleSnapshot(step * config.dt, states.copy()))

    maybe_snapshot(0)
    if n_steps > 0:
        record(0)
    r, n, _ = states.shape
    # lead = drawn arrays waiting or in use; two sphere half-blocks hold one block
    if config.kernel is None:
        lead = 2
        draws = _sphere_draws(rng, states.shape, max(1, block_states(n) // 2), n_steps)
        sweep = partial(_sweep_sphere, spec, states, config.dt)
    else:
        lead = 4
        draws = _pair_draws(rng, r, n, n_steps)
        sweep = partial(_sweep_pairs, spec, states, config.kernel, config.dt,
                        buffers=_PairBuffers.new(r, n))
    draws = _drawn_ahead(draws, lead)
    try:
        for step in range(1, n_steps + 1):
            try:
                sweep(draws)
            except NonFiniteStateError as exc:
                raise NonFiniteStateError(exc.replicas, step=step) from None
            if step == n_steps:
                del sweep  # a pair run's buffers go before the last record
            if step % config.record_every == 0 or step == n_steps:
                record(step)
            maybe_snapshot(step)
    finally:
        draws.close()

    t_arr = np.asarray(times)
    series = {
        name: obs_mod.ObservableSeries(
            times=t_arr,
            means=np.asarray([m for m, _ in rec]),
            stderrs=np.asarray([e for _, e in rec]),
        )
        for name, rec in records.items()
    }
    return SimResult(series=series, snapshots=snapshots)
