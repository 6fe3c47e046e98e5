"""Estimators over ensembles: moment series, histograms, decay-rate fits,
and the marginal-factorization (chaos) diagnostic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ConservationMode, ManifoldSpec, dot3


@dataclass
class ObservableSeries:
    """Time-indexed ensemble averages of one observable."""

    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.stderrs = np.asarray(self.stderrs, dtype=float)
        if not (len(self.times) == len(self.means) == len(self.stderrs)):
            raise ValueError("times/means/stderrs must have equal length")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(~np.isfinite(self.stderrs)) or np.any(self.stderrs < 0):
            raise ValueError("stderrs must be finite and nonnegative")


# ---------------------------------------------------------------------------
# observable catalog: name -> entry whose fn maps velocities (..., N, 3) to (...)


@dataclass(frozen=True)
class Observable:
    """A catalog entry. ``degree`` is j when fn is a symmetric sum sum_k p(v_k)
    of a harmonic polynomial p of degree j, an exact eigenfunction of the
    sphere Laplacian (the per-particle means scale p by 1/N); it is None for
    every other entry."""

    fn: Callable[[np.ndarray], np.ndarray]
    degree: int | None = None


OBSERVABLES: dict[str, Observable] = {
    "sum_v1": Observable(lambda v: v[..., 0].sum(-1), 1),
    "sum_v2": Observable(lambda v: v[..., 1].sum(-1), 1),
    "sum_v3": Observable(lambda v: v[..., 2].sum(-1), 1),
    "sum_v1v2": Observable(lambda v: (v[..., 0] * v[..., 1]).sum(-1), 2),
    "sum_v1v3": Observable(lambda v: (v[..., 0] * v[..., 2]).sum(-1), 2),
    "sum_v2v3": Observable(lambda v: (v[..., 1] * v[..., 2]).sum(-1), 2),
    "sum_v1sq_minus_v2sq": Observable(
        lambda v: (v[..., 0] ** 2 - v[..., 1] ** 2).sum(-1), 2),
    "sum_v2sq_minus_v3sq": Observable(
        lambda v: (v[..., 1] ** 2 - v[..., 2] ** 2).sum(-1), 2),
    # the axial quadrupole v1^2 + v2^2 - 2 v3^2 (harmonic but NOT constant
    # on the energy sphere: it equals 2 N eps - 3 sum_k v_{k,3}^2)
    "sum_axial_quadrupole": Observable(
        lambda v: (v[..., 0] ** 2 + v[..., 1] ** 2 - 2.0 * v[..., 2] ** 2).sum(-1), 2),
    "sum_v1v2v3": Observable(lambda v: (v[..., 0] * v[..., 1] * v[..., 2]).sum(-1), 3),
    "sum_v1_v2sq_minus_v3sq": Observable(
        lambda v: (v[..., 0] * (v[..., 1] ** 2 - v[..., 2] ** 2)).sum(-1), 3),
    "mean_v1v2": Observable(lambda v: (v[..., 0] * v[..., 1]).mean(-1), 2),
    "tagged_v1": Observable(lambda v: v[..., 0, 0]),
    "tagged_v2": Observable(lambda v: v[..., 0, 1]),
    "tagged_v3": Observable(lambda v: v[..., 0, 2]),
    "energy_per_particle": Observable(
        lambda v: 0.5 * (v * v).sum(axis=(-2, -1)) / v.shape[-2]),
    "momentum_per_particle_1": Observable(lambda v: v[..., 0].mean(-1), 1),
    "momentum_per_particle_2": Observable(lambda v: v[..., 1].mean(-1), 1),
    "momentum_per_particle_3": Observable(lambda v: v[..., 2].mean(-1), 1),
}


def get_observable(name: str) -> Callable[[np.ndarray], np.ndarray]:
    try:
        return OBSERVABLES[name].fn
    except KeyError:
        raise ValueError(f"unknown observable {name!r}; "
                         f"catalog: {sorted(OBSERVABLES)}") from None


# ---------------------------------------------------------------------------
# histograms


def _pooled(velocities: np.ndarray) -> np.ndarray:
    return np.asarray(velocities, dtype=float).reshape(-1, 3)


def _pooled_speeds(velocities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """|v - u| of every pooled particle, summed through ``dot3``; v - u is
    written component-major, so that ``dot3`` reads contiguous planes."""
    pooled = _pooled(velocities)
    dv = np.empty((3, len(pooled)))
    np.subtract(pooled.T, np.reshape(u, (3, 1)), out=dv)
    r2 = dot3(dv, dv)
    return np.sqrt(r2, out=r2)


def bin_masses(counts: np.ndarray) -> np.ndarray:
    """Bin counts scaled to total mass 1: every histogram's normalisation."""
    total = counts.sum()
    if total == 0:
        raise ValueError("no samples fall inside the grid")
    return counts / total


# Most cells of a pair-marginal grid, bins^2 (bins <= 4096): ``pair_marginal``
# and ``chaos_distance`` build a few float64 arrays of bins^2 cells, 128 MiB
# each at the cap.
PAIR_GRID_MAX_CELLS = 2 ** 24


def check_marginal_args(edges=None, n_pairs: int | None = None,
                        pair_bins: int | None = None) -> None:
    """Arguments of ``one_marginal`` and ``pair_marginal``: at least one bin,
    at least one sampled pair, and a pair grid of ``pair_bins``^2 cells, at
    most ``PAIR_GRID_MAX_CELLS``. An argument left as None is not checked."""
    if edges is not None and np.size(edges) < 2:
        raise ValueError("need at least one bin")
    if pair_bins is not None:
        if pair_bins < 1:
            raise ValueError("need at least one bin")
        if pair_bins ** 2 > PAIR_GRID_MAX_CELLS:
            raise ValueError(f"bins^2 = {pair_bins ** 2} cells exceed the pair grid's "
                             f"{PAIR_GRID_MAX_CELLS}")
    if n_pairs is not None and n_pairs < 1:
        raise ValueError("need at least one sampled pair")


def _component_values(velocities, edges, component):
    """The (R, N) values of one velocity component and the checked edges."""
    if component not in (0, 1, 2):
        raise ValueError("component must index one of the 3 velocity axes")
    check_marginal_args(edges)
    return (np.asarray(velocities, dtype=float)[..., component],
            np.asarray(edges, dtype=float))


def one_marginal(velocities: np.ndarray, edges: np.ndarray,
                 component: int) -> np.ndarray:
    """Pooled empirical one-velocity marginal of one velocity component.

    Pools the (R, N, 3) velocities over replicas and (by exchangeability)
    over particles, and returns the bin masses on the 1D ``edges``. Samples
    outside the grid are dropped before normalization to mass 1.
    """
    values, edges = _component_values(velocities, edges, component)
    counts, _ = np.histogram(values.ravel(), bins=edges)
    return bin_masses(counts)


def pair_marginal(velocities: np.ndarray, edges: np.ndarray, component: int,
                  n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Empirical two-velocity marginal of one velocity component, as 2D bin
    masses on ``edges`` x ``edges``.

    Draws ``n_pairs`` ordered pairs of distinct particles of the (R, N, 3)
    velocities, with replacement: the replicas, then the first particles k,
    then the offsets 1..N-1 from k to the second. Samples outside the grid
    are dropped before normalization to mass 1.
    """
    check_marginal_args(n_pairs=n_pairs, pair_bins=np.size(edges) - 1)
    values, edges = _component_values(velocities, edges, component)
    r, n = values.shape
    rep = rng.integers(0, r, size=n_pairs)
    k = rng.integers(0, n, size=n_pairs)
    l = (k + rng.integers(1, n, size=n_pairs)) % n
    counts, _, _ = np.histogram2d(values[rep, k], values[rep, l], bins=(edges, edges))
    return bin_masses(counts)


def chaos_distance(h2: np.ndarray, h1: np.ndarray) -> float:
    """L1 distance between a 2-marginal and the product of 1-marginals, both
    bin masses of one component on one grid.

    Zero iff the empirical pair distribution factorizes on the grid.
    """
    h1 = np.asarray(h1)
    prod = np.multiply.outer(h1, h1)
    if h1.ndim != 1 or np.shape(h2) != prod.shape:
        raise ValueError("need a 2-marginal and a 1-marginal on one grid")
    return float(np.abs(h2 - prod).sum())


# ---------------------------------------------------------------------------
# radial goodness of fit


# Sorted points per block of the radial KS scan, and the slack on a block's
# bound that absorbs ulp-level non-monotonicity of betainc.
_KS_STRIDE = 16
_KS_SLACK = 1e-12


def _ks_terms(i: np.ndarray, cdf: np.ndarray, m: int) -> np.ndarray:
    """The larger of (i+1)/m - F and F - i/m at sorted positions i."""
    return np.maximum((i + 1) / m - cdf, cdf - i / m)


def radial_ks_statistic(velocities: np.ndarray, spec: ManifoldSpec) -> tuple[float, int]:
    """KS distance between the pooled speeds |v - u| of all particles and
    replicas and the exact stationary radial law.

    Under the uniform measure on the energy-only sphere, s = r^2 / (2 N eps0)
    follows a Beta(3/2, (3N-3)/2) law, which gives the radial CDF in closed
    form. Each |v - u|^2 sums components 0, 1, 2 through ``geometry.dot3``.
    Returns (statistic, pooled sample count).

    The CDF F is evaluated first at every ``_KS_STRIDE``-th sorted point and
    the last one. F is monotone, so no point of the block between sorted
    positions lo and hi has a term above max((hi+1)/m - F(lo), F(hi) - lo/m);
    F is evaluated inside only the blocks whose bound can reach the maximum
    found so far. The statistic is the maximum of the same elementwise terms
    as a full evaluation, so it is bit-identical to one.
    """
    if spec.mode is not ConservationMode.ENERGY_ONLY:
        raise ValueError("the radial law is for the energy-only manifold")
    from scipy.special import betainc  # here, so importing kinlab skips scipy

    n = spec.n_particles
    r = np.sort(_pooled_speeds(velocities, spec.u))
    s = np.clip(r ** 2 / (2.0 * n * spec.eps0), 0.0, 1.0)
    m = len(r)
    a, b = 1.5, 1.5 * (n - 1)
    ends = np.unique(np.append(np.arange(0, m, _KS_STRIDE), m - 1))
    cdf = betainc(a, b, s[ends])
    best = _ks_terms(ends, cdf, m).max()
    lo, hi = ends[:-1], ends[1:]
    bound = np.maximum((hi + 1) / m - cdf[:-1], cdf[1:] - lo / m)
    can_hold_max = bound > best - _KS_SLACK
    inner = lo[can_hold_max, None] + np.arange(1, _KS_STRIDE)
    inner = inner[inner < hi[can_hold_max, None]]
    if inner.size:
        best = max(best, _ks_terms(inner, betainc(a, b, s[inner]), m).max())
    return float(best), m


def ks_quantile_99(n_samples: int) -> float:
    """Asymptotic 99% Kolmogorov quantile for n samples."""
    return 1.6276 / math.sqrt(n_samples)


# ---------------------------------------------------------------------------
# decay-rate fits


def weighted_log_linear_fit(x: np.ndarray, values: np.ndarray,
                            stderrs: np.ndarray) -> tuple[float, float, float]:
    """Weighted least squares of ln|values| against x.

    Weights are the inverse variances of ln|values| propagated from the
    standard errors, floored at 1e-6 of the smallest positive one. When
    every standard error is zero the points are weighted equally and the
    slope error comes from the residuals. Returns (slope, stderr, R^2).
    """
    y = np.log(np.abs(values))
    var_y = (stderrs / np.abs(values)) ** 2
    known_sigma = bool(np.any(var_y > 0))
    w = 1.0 / np.maximum(var_y, var_y[var_y > 0].min() * 1e-6) \
        if known_sigma else np.ones_like(y)
    wsum = w.sum()
    x_bar = (w * x).sum() / wsum
    y_bar = (w * y).sum() / wsum
    s_xx = (w * (x - x_bar) ** 2).sum()
    slope = (w * (x - x_bar) * (y - y_bar)).sum() / s_xx
    resid = y - (y_bar + slope * (x - x_bar))
    if known_sigma:
        var_slope = 1.0 / s_xx
    else:
        dof = max(len(x) - 2, 1)
        var_slope = (resid ** 2).sum() / dof / ((x - x_bar) ** 2).sum()
    ss_tot = (w * (y - y_bar) ** 2).sum()
    r2 = 1.0 if ss_tot == 0 else 1.0 - (w * resid ** 2).sum() / ss_tot
    return float(slope), math.sqrt(var_slope), float(r2)


@dataclass
class DecayFit:
    rate: float
    rate_stderr: float
    ci_low: float
    ci_high: float
    r_squared: float
    low_r2_warning: bool
    window: tuple[float, float]


def decay_rate_fit(series: ObservableSeries) -> DecayFit:
    """Weighted linear regression of ln|mean| against time.

    The fit window keeps points with |mean| > 5 stderr
    (trimming the noise floor); the mean must be sign-constant there.
    The fit is ``weighted_log_linear_fit``; the returned rate is the
    negated slope with a 95% confidence interval. A weighted R^2 below 0.9
    sets ``low_r2_warning`` (profile not exponential) rather than failing.

    The interval treats the points as independent; ensemble-mean series
    share replicas across times, so the true rate spread is somewhat
    wider than the propagated one.
    """
    t, m, e = series.times, series.means, series.stderrs
    keep = np.abs(m) > 5.0 * e
    t, m, e = t[keep], m[keep], e[keep]
    if len(t) < 2:
        raise ValueError("fewer than 2 usable points in the fit window")
    if not (np.all(m > 0) or np.all(m < 0)):
        raise ValueError("mean changes sign on the fit window")
    slope, se, r2 = weighted_log_linear_fit(t, m, e)
    rate = -slope
    return DecayFit(rate=rate, rate_stderr=se,
                    ci_low=rate - 1.96 * se, ci_high=rate + 1.96 * se,
                    r_squared=r2, low_r2_warning=bool(r2 < 0.9),
                    window=(float(t[0]), float(t[-1])))
