"""Closed-form limit objects: drifting Maxwellian, exact finite-N stationary
marginals, relative entropy, and the moment flows of the limiting linear
Fokker-Planck equation and of the Maxwell-molecule (gamma = 0) collision
flow.

Moment flows are handled at the moment level (closed linear ODEs with exact
exponential solutions) rather than as 3D grid PDEs: every target here is a
moment or a closed-form density.

Derivations used as oracles (committed here and exercised in the tests):

* Linear Fokker-Planck  df = d.(df + (3/2 eps0)(v-u) f):
  integrating against v gives  m' = -(3/2 eps0)(m - u); against v (x) v and
  centering gives  S' = 2 I - (3/eps0) S  for S = M2 - m (x) m. Hence m
  relaxes to u at rate 3/(2 eps0) and S to (2 eps0/3) I at rate 3/eps0.

* Maxwell-molecule collision flow (kernel |v-w|^2 P_perp): integrating the
  collision integral against v_a v_b and symmetrizing gives
      M2' = E_{f f'}[ 2|d|^2 delta_ab - 6 d_a d_b ],  d = v - w,
  and with E[|d|^2] = 2 tr S, E[d (x) d] = 2 S this closes to
      M2' = 4 tr(S) I - 12 S.
  The mean and tr S are conserved and the anisotropic part
  A = S - (tr S/3) I obeys A' = -12 A: exponential decay at rate 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import EPS_RANGE, ConservationMode, ManifoldSpec, dot3, log_sphere_area
from .observables import bin_masses


@dataclass(frozen=True)
class LimitParams:
    """Finite drift u and co-moving energy per particle eps0 of the limit
    objects; eps0 lies in ``geometry.EPS_RANGE``, as a manifold's does."""

    eps0: float
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "u", _finite3("u", self.u))
        lo, hi = EPS_RANGE
        if not lo <= self.eps0 <= hi:
            raise ValueError(f"eps0 must be in [{lo:g}, {hi:g}]")

    @property
    def sigma(self) -> float:
        """Per-component standard deviation sqrt(2 eps0 / 3)."""
        return math.sqrt(2.0 * self.eps0 / 3.0)


@dataclass
class MomentState:
    """Mean m and covariance S of a velocity density; the second moment
    matrix int v (x) v f is M2 = S + m (x) m."""

    mean: np.ndarray
    centered: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(3)
        self.centered = np.asarray(self.centered, dtype=float).reshape(3, 3)


def maxwellian_eval(p: LimitParams, v) -> np.ndarray | float:
    """Drifting Maxwellian (3/(4 pi eps0))^(3/2) exp(-3|v-u|^2/(4 eps0)) at
    (..., 3) velocities; |v - u|^2 sums components 0, 1, 2 through ``dot3``."""
    dv = np.moveaxis(np.asarray(v, dtype=float) - p.u, -1, 0)
    r2 = dot3(dv, dv)
    norm = (3.0 / (4.0 * math.pi * p.eps0)) ** 1.5
    out = norm * np.exp(-3.0 * r2 / (4.0 * p.eps0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# exact stationary marginals of the uniform measure (energy-only manifold)


def stationary_marginal_eval(spec: ManifoldSpec, n: int, velocities) -> np.ndarray | float:
    """Exact n-velocity marginal of the uniform measure on the energy sphere.

    Density at (v_1..v_n):
        (|S^{3(N-n)-1}| / |S^{3N-1}|) (2 N eps)^{-3n/2}
            (1 - sum |v_k|^2 / (2 N eps))^{(3(N-n)-2)/2}
    for sum |v_k|^2 < 2 N eps, zero outside. The exponent carries the co-area
    Jacobian of the surface-measure disintegration, which makes the density
    integrate to exactly 1 (checked by quadrature in the tests).

    ``velocities`` has shape (..., n, 3); returns shape (...).
    """
    if spec.mode is not ConservationMode.ENERGY_ONLY:
        raise ValueError("stationary marginal is for the energy-only manifold")
    if not 1 <= n < spec.n_particles:
        raise ValueError("need 1 <= n < N")
    v = np.asarray(velocities, dtype=float)
    if v.shape[-2:] != (n, 3):
        raise ValueError(f"velocities must have shape (..., {n}, 3)")
    big_n = spec.n_particles
    s = (v * v).sum(axis=(-1, -2)) / spec.radius_sq
    expo = 0.5 * (3 * (big_n - n) - 2)
    pref = math.exp(log_sphere_area(3 * (big_n - n) - 1) - log_sphere_area(3 * big_n - 1)
                    - 1.5 * n * math.log(spec.radius_sq))
    out = np.where(s < 1.0, pref * np.maximum(1.0 - s, 0.0) ** expo, 0.0)
    return float(out) if out.ndim == 0 else out


def radial_probe(spec: ManifoldSpec, points: int) -> np.ndarray:
    """(points, 1, 3) velocities (r, 0, 0) with r evenly spaced over
    [0, radius], the support of the one-velocity marginal."""
    if points < 1:
        raise ValueError("need at least one radial point")
    v = np.zeros((points, 1, 3))
    v[:, 0, 0] = np.linspace(0.0, spec.radius, points)
    return v


# ---------------------------------------------------------------------------
# relative entropy


# Most cells of an entropy grid, bins^3 (bins <= 128): ``relative_entropy``
# builds a few float64 arrays of bins^3 cells and three more for the centers,
# about 200 MiB at the cap.
ENTROPY_GRID_MAX_CELLS = 2 ** 21


def _evenly_spaced(edges) -> np.ndarray:
    """One axis's edges, checked to be increasing and evenly spaced: exactly
    ``np.linspace`` of their end points, as ``entropy_grid_edges`` makes them."""
    e = np.asarray(edges, dtype=float)
    if not (e.ndim == 1 and len(e) >= 2 and np.isfinite(e).all()
            and (e[1:] > e[:-1]).all()
            and np.array_equal(e, np.linspace(e[0], e[-1], len(e)))):
        raise ValueError("edges must be increasing and evenly spaced "
                         "(np.linspace of their end points)")
    return e


def entropy_grid_edges(p: LimitParams, bins: int):
    """Per-axis cubic-bin edges over [u - 5 sigma, u + 5 sigma]^3, each a
    ``np.linspace`` of bins + 1 points; bins^3 is at most
    ``ENTROPY_GRID_MAX_CELLS``, and 10 sigma / bins must be wide enough at u
    for the edges to increase."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bins ** 3 > ENTROPY_GRID_MAX_CELLS:
        raise ValueError(f"bins^3 = {bins ** 3} cells exceed the entropy grid's "
                         f"{ENTROPY_GRID_MAX_CELLS}")
    h = 5.0 * p.sigma
    return tuple(_evenly_spaced(np.linspace(p.u[i] - h, p.u[i] + h, bins + 1))
                 for i in range(3))


def _axis_bins(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin index of each value x on the evenly spaced edges e, and whether x
    lies on the grid [e[0], e[-1]] (NaN and +-inf do not).

    np.histogram's uniform-bin rule: the index (x - e[0]) / (e[-1] - e[0])
    * bins, truncated, is corrected by one comparison with the edge on each
    side, so that e[i] <= x < e[i + 1], or x <= e[-1] in the closed last bin.
    Values off the grid are clamped onto it first, so no step overflows or
    casts a NaN; their indices are discarded by the caller.
    """
    bins = len(e) - 1
    c = np.fmax(x, e[0])   # NaN -> e[0]
    np.fmin(c, e[-1], out=c)
    inside = c == x
    f = np.subtract(c, e[0])
    f /= e[-1] - e[0]
    f *= bins
    idx = f.astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)
    idx -= c < e.take(idx)
    # the upper edge of each bin, open except the last
    idx += c >= np.append(e[1:-1], np.inf).take(idx)
    return idx, inside


def velocity_histogram3d(velocities: np.ndarray, edges) -> np.ndarray:
    """Bin masses (total 1) of the pooled velocities on the three per-axis
    ``edges``, each increasing and evenly spaced (``entropy_grid_edges``).

    Each axis is binned by index arithmetic (``_axis_bins``) and one
    ``np.bincount`` counts the cells: the counts of ``np.histogramdd`` on
    the same edges, whose bins are half-open but for the closed last one.
    Samples outside the grid, NaN and +-inf are dropped.
    """
    if len(edges) != 3:
        raise ValueError("need the edges of 3 velocity axes")
    edges = [_evenly_spaced(e) for e in edges]
    pooled = np.asarray(velocities, dtype=float).reshape(-1, 3)
    shape = tuple(len(e) - 1 for e in edges)
    flat, inside = _axis_bins(pooled[:, 0], edges[0])
    for axis in (1, 2):
        idx, on_grid = _axis_bins(pooled[:, axis], edges[axis])
        flat *= shape[axis]
        flat += idx
        inside &= on_grid
    if not inside.all():
        flat = flat[inside]
    return bin_masses(np.bincount(flat, minlength=math.prod(shape)).reshape(shape))


def relative_entropy(masses: np.ndarray, edges, p: LimitParams) -> float:
    """S(f | f_M) = -sum_bins f ln(f / f_M) dv, with 0 ln 0 = 0, for the 3D
    bin ``masses`` on the per-axis ``edges``.

    Nonpositive (Gibbs), zero iff the masses coincide with the
    bin-discretized Maxwellian.
    """
    masses = np.asarray(masses, dtype=float)
    ex, ey, ez = (np.asarray(e) for e in edges)
    if masses.shape != (len(ex) - 1, len(ey) - 1, len(ez) - 1):
        raise ValueError("bin masses do not match the grid")
    if not masses.sum() > 0:
        raise ValueError("empty histogram")
    cx, cy, cz = [(e[1:] + e[:-1]) / 2.0 for e in (ex, ey, ez)]
    vol = np.einsum("i,j,k->ijk", np.diff(ex), np.diff(ey), np.diff(ez))
    centers = np.stack(np.meshgrid(cx, cy, cz, indexing="ij"), axis=-1)
    fm = maxwellian_eval(p, centers)
    mask = masses > 0
    # compare against the Maxwellian bin mass fm*vol
    ratio = masses[mask] / (fm[mask] * vol[mask])
    return float(-(masses[mask] * np.log(ratio)).sum())


# ---------------------------------------------------------------------------
# moment flows


def check_time(t: float) -> None:
    """Moment flows run forward in time only, to a finite t."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and >= 0")


def _finite3(name: str, x) -> np.ndarray:
    """x as a 3-vector, checked to be finite; a ValueError names it."""
    x = np.asarray(x, dtype=float).reshape(3)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


# smallest eigenvalue a covariance may have, relative to max(1, largest |eigenvalue|)
COVARIANCE_TOL = 1e-12


def check_covariance(s0) -> np.ndarray:
    """Return s0 as a (3, 3) array once it is checked to be a covariance:
    finite, exactly symmetric, and positive semidefinite up to rounding
    (eigenvalues >= -COVARIANCE_TOL * max(1, largest |eigenvalue|))."""
    s0 = np.asarray(s0, dtype=float).reshape(3, 3)
    if not np.isfinite(s0).all():
        raise ValueError("covariance must be finite")
    if not np.array_equal(s0, s0.T):
        raise ValueError("covariance must be symmetric")
    eig = np.linalg.eigvalsh(s0)
    if eig[0] < -COVARIANCE_TOL * max(1.0, float(np.abs(eig).max())):
        raise ValueError("covariance must be positive semidefinite "
                         f"(smallest eigenvalue {eig[0]:.6g})")
    return s0


def fpe_moment_flow(p: LimitParams, m0, s0, t: float) -> MomentState:
    """Exact moment solution of the limiting linear Fokker-Planck flow from
    mean m0 and covariance s0 (checked by ``check_covariance``).

    m(t) = u + (m0 - u) exp(-3t/(2 eps0));
    S(t) = (2 eps0/3) I + (S0 - (2 eps0/3) I) exp(-3t/eps0).
    """
    check_time(t)
    s0 = check_covariance(s0)
    m0 = _finite3("m0", m0)
    kappa = 1.5 / p.eps0
    m_t = p.u + (m0 - p.u) * math.exp(-kappa * t)
    s_inf = (2.0 * p.eps0 / 3.0) * np.eye(3)
    s_t = s_inf + (s0 - s_inf) * math.exp(-2.0 * kappa * t)
    return MomentState(mean=m_t, centered=s_t)


def landau_moment_flow(m0, s0, t: float) -> MomentState:
    """Exact second-moment relaxation of the Maxwell-molecule (gamma = 0)
    collision flow from mean m0 and covariance s0 (checked by
    ``check_covariance``); no other gamma closes at second-moment level.

    Mean and tr S are conserved; the anisotropy S - (tr S/3) I decays as
    exp(-12 t) (rate derived in the module docstring).
    """
    check_time(t)
    s0 = check_covariance(s0)
    m0 = _finite3("m0", m0)
    iso = np.trace(s0) / 3.0 * np.eye(3)
    s_t = iso + (s0 - iso) * math.exp(-12.0 * t)
    return MomentState(mean=m0, centered=s_t)
