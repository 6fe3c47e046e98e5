import math
import tracemalloc

import numpy as np
import pytest

from kinlab.geometry import (
    ConservationMode,
    DegenerateStateError,
    ManifoldSpec,
    NonFiniteStateError,
    constraint_errors,
    dot3,
    log_sphere_area,
    max_pair_separation_sq,
    renormalize_batch,
    sample_uniform_batch,
    tangent_project_batch,
)

from oracles import (
    DegeneratePairError,
    constraint_errors_axis_sum,
    max_pair_separation_sq_full,
    pair_projector_apply,
    renormalize_reference,
    state_from_standard,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=-1.0)
    with pytest.raises(ValueError):
        ManifoldSpec(8, ConservationMode.ENERGY_ONLY, eps=1.0, u=[1, 0, 0])
    with pytest.raises(ValueError):
        ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=0.3, u=[1, 0, 0])
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1, 0, 0])
    assert spec.eps0 == pytest.approx(1.0)
    assert spec.radius_sq == pytest.approx(16.0)
    assert spec.dim == 20


def _energy(v):
    return 0.5 * (v * v).sum(axis=(-1, -2))


def test_sample_energy_exact(spec_c1, rng):
    v = sample_uniform_batch(spec_c1, 1, rng)
    assert _energy(v)[0] == pytest.approx(8.0, abs=1e-12)
    assert abs(constraint_errors(spec_c1, v)[0][0]) <= 1e-12


def test_sample_momentum_exact(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0, u=[1, 0, 0])
    v = sample_uniform_batch(spec, 1, rng)
    np.testing.assert_allclose(v[0].sum(axis=0), [8.0, 0.0, 0.0], atol=1e-12)
    assert abs(_energy(v)[0] - 8.0) <= 1e-12 * 8.0


@pytest.mark.parametrize("n_states", [0, -3])
def test_sample_needs_a_state(spec_c1, rng, n_states):
    with pytest.raises(ValueError, match="at least one state"):
        sample_uniform_batch(spec_c1, n_states, rng)


def test_sample_mean_symmetry(spec_c1, spec_c4, rng):
    # V -> -V maps a sphere centered at 0 onto itself, so the exact mean is
    # 0; the empirical mean over 1e5 samples must sit within 3 standard
    # errors of it.
    batch = sample_uniform_batch(spec_c1, 100000, rng)
    vals = batch[:, 0, 0]
    assert abs(vals.mean()) <= 3.0 * vals.std(ddof=1) / math.sqrt(len(vals))
    # the restoration that turns normals into the sample commutes with that
    # map bit for bit (C=1, and C=4 with u = 0)
    xi = rng.standard_normal((64, 8, 3))
    for spec in (spec_c1, spec_c4):
        np.testing.assert_array_equal(renormalize_batch(spec, -xi),
                                      -renormalize_batch(spec, xi.copy()))


def test_sample_moments(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1, 0, 0])
    batch = sample_uniform_batch(spec, 60000, rng)
    mean = batch.mean(axis=(0, 1))
    np.testing.assert_allclose(mean, spec.u, atol=5e-3)
    sq = (batch ** 2).sum(-1).mean()
    assert sq == pytest.approx(2.0 * spec.eps, rel=3e-3)


def test_pair_separation_bound(spec_c1, spec_c4, spec_c4_drift, rng):
    # |v_k - v_l|^2 <= 4 N eps on every sampled state, and the scan over pair
    # differences agrees with the Gram form |v_k|^2 + |v_l|^2 - 2 v_k.v_l
    for spec in (spec_c1, spec_c4, spec_c4_drift):
        batch = sample_uniform_batch(spec, 2000, rng)
        sq = (batch ** 2).sum(-1)
        dots = np.einsum("rkc,rlc->rkl", batch, batch)
        pair_sq = sq[:, :, None] + sq[:, None, :] - 2 * dots
        assert pair_sq.max() <= 4 * spec.n_particles * spec.eps + 1e-9
        np.testing.assert_allclose(max_pair_separation_sq(batch), pair_sq.max(axis=(1, 2)),
                                   rtol=0, atol=1e-12 * 4 * spec.n_particles * spec.eps)


@pytest.mark.parametrize("mode", list(ConservationMode))
@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_max_pair_separation_matches_pair_loop(mode, n, rng):
    # a double loop over pairs in plain floats, squaring the same differences
    # in the same component order, gives the scan bit for bit
    u = [0.7, -0.4, 0.2] if mode is ConservationMode.ENERGY_MOMENTUM else [0, 0, 0]
    spec = ManifoldSpec(n, mode, eps=1.5, u=u)
    states = sample_uniform_batch(spec, 60, rng)
    want = [max(sum((a - b) ** 2 for a, b in zip(v[k], v[l]))
                for k in range(n) for l in range(k + 1, n))
            for v in states.tolist()]
    assert max_pair_separation_sq(states).tolist() == want
    assert max_pair_separation_sq(states.reshape(3, 20, n, 3)).tolist() == \
        np.reshape(want, (3, 20)).tolist()


_C1, _C4 = ConservationMode.ENERGY_ONLY, ConservationMode.ENERGY_MOMENTUM


def _uniform(mode, n, r=120, u=(0.0, 0.0, 0.0), eps=1.5):
    return lambda rng: sample_uniform_batch(ManifoldSpec(n, mode, eps=eps, u=u), r, rng)


def _scaled(rng):
    # off the sphere, anisotropic: speed order no longer follows any axis
    return _uniform(_C4, 64)(rng) * [1e-3, 1.0, 30.0]


def _duplicated(rng):
    v = _uniform(_C4, 32)(rng)
    v[:, 16:] = v[:, :16]
    return v


def _reflected(rng):
    # pairs u + w, u - w of one length: every speed ties and every pair
    # reaches the triangle bound up to rounding, so only the slack stops
    # the scan from ending before the largest one is seen
    w = rng.standard_normal((150, 12, 3))
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    u = np.array([0.3, -1.2, 0.5])
    return np.concatenate([u + w, u - w], axis=1)


def _pair_behind_fastest(rng):
    # the fastest particle (speed 1.2) is orthogonal to the largest pair, two
    # particles reflected through the mean (speeds 1, separation 2), and ten
    # slow ones balance it: the scan must not stop after the first particle
    base = np.zeros((13, 3))
    base[0, 0], base[1, 1], base[2, 1], base[3:, 0] = 1.2, 1.0, -1.0, -0.12
    rot = np.linalg.qr(rng.standard_normal((40, 3, 3)))[0]
    return base @ rot + rng.standard_normal((40, 1, 3))


def _underflow(rng):
    # v = +-delta (1, 1, 1) about 0: delta^2 rounds to 0, so every speed
    # is 0, but (2 delta)^2 does not, so the pair is not 0
    v = np.zeros((50, 6, 3))
    delta = rng.uniform(8e-163, 1.5e-162, size=(50, 1))
    v[:, 4], v[:, 5] = delta, -delta
    return v


def _all_equal(rng):
    return np.repeat(rng.standard_normal((40, 1, 3)), 9, axis=1)


def _nan(rng):
    v = _uniform(_C4, 16, r=8)(rng)
    v[3, 5, 1] = np.nan
    return v


def _inf(rng):
    # a batch of its own: a NaN state would keep the whole block scanning
    v = _uniform(_C4, 16, r=8)(rng)
    v[3, 2, 0] = v[3, 9, 0] = np.inf    # inf - inf: the full scan gives NaN
    v[5, 7, 2] = -np.inf                # one infinite particle: inf
    return v


PAIR_SCAN_CASES = {
    **{f"uniform_c{mode.value}_n{n}": _uniform(mode, n)
       for mode in (_C1, _C4) for n in (2, 3, 8, 64, 257)},
    "drift_u50": _uniform(_C4, 64, u=(50.0, 0.0, 0.0), eps=1251.0),
    "scaled": _scaled,
    "underflow": _underflow,
    "huge": lambda rng: _uniform(_C4, 16)(rng) * 1e154,    # pair squares overflow
    "pair_behind_fastest": _pair_behind_fastest,
    "duplicated": _duplicated,
    "reflected": _reflected,
    "all_equal": _all_equal,
    "empty": lambda rng: np.empty((0, 6, 3)),
    "nan": _nan,
    "inf": _inf,
}


@pytest.mark.parametrize("case", sorted(PAIR_SCAN_CASES))
def test_max_pair_separation_matches_full_scan(case, rng):
    # the descending-speed scan returns the full scan's maximum bit for bit
    states = PAIR_SCAN_CASES[case](rng)
    with np.errstate(invalid="ignore", over="ignore"):   # nan, inf, huge
        got = max_pair_separation_sq(states)
        want = max_pair_separation_sq_full(states)
    assert got.shape == want.shape == states.shape[:-2]
    assert np.array_equal(got, want, equal_nan=True)
    if case == "all_equal":
        assert not got.any()
    if case == "nan":
        assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()
    if case == "inf":
        assert np.isnan(got[3]) and got[5] == np.inf
        assert np.isfinite(np.delete(got, [3, 5])).all()


def _layout(x, layout):
    """x itself, or an equal array whose components are not the fast axis:
    a component-major copy seen as (..., 3), or every other row of an array
    with twice the rows."""
    if layout == "component_major":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    if layout == "strided":
        wide = np.full(x.shape[:-1] + (2, 3), -1.0)
        wide[..., 0, :] = x
        return wide[..., 0, :]
    return x


def _component_rows(rng, shape):
    """(..., 3) rows at scales from 1e-150 to 1e150, one scale per row, so
    that the order of the component sum decides its rounding; some rows
    hold NaN, +-inf, squares that overflow or underflow, and subnormals."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape[:-1] + (1,))
    rows = x.reshape(-1, 3)
    for i, value in enumerate([np.nan, np.inf, -np.inf, 1e150, -1e160, 1e-150,
                               1e-310, -5e-324]):
        rows[5 * i, i % 3] = value
    rows[2] = (1e-310, -2e-320, 5e-324)       # subnormal components
    rows[3] = (1e-160, -2e-161, 3e-162)       # subnormal squares
    rows[4] = (1e154, 1e154, -1e154)          # the sum overflows
    return x


@pytest.mark.parametrize("layout", ["contiguous", "component_major", "strided"])
@pytest.mark.parametrize("shape", [(400, 3), (16, 9, 3)])
def test_dot3_matches_numpy_last_axis_sum(shape, layout, rng):
    # numpy adds a length-3 row as (a0 + a1) + a2, the order of dot3
    x = _layout(_component_rows(rng, shape), layout)
    y = _layout(_component_rows(rng, shape), layout)
    assert (layout == "contiguous") == x.flags.c_contiguous
    cx, cy = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = dot3(cx, cx)
        assert np.array_equal(sq, (x * x).sum(-1), equal_nan=True)
        assert np.array_equal(np.sqrt(sq), np.linalg.norm(x, axis=-1), equal_nan=True)
        assert np.array_equal(dot3(cx, cy), (x * y).sum(-1), equal_nan=True)
        # the rows tell the orders apart: a0 + (a1 + a2) differs somewhere
        other = x[..., 0] ** 2 + (x[..., 1] ** 2 + x[..., 2] ** 2)
    assert not np.array_equal(sq, other, equal_nan=True)
    assert np.isnan(sq).any() and np.isinf(sq).any()
    assert ((sq > 0) & (sq < np.finfo(float).tiny)).any()   # a subnormal sum


@pytest.mark.parametrize("layout", ["single", "batch", "component_major"])
@pytest.mark.parametrize("n", [2, 8, 64])
@pytest.mark.parametrize("mode", list(ConservationMode))
def test_constraint_errors_match_axis_sum(mode, n, layout, rng):
    # the energy sums each |v_k|^2 through dot3, bit for bit with the
    # last-axis sum it replaced
    u = [1.0, -0.5, 0.25] if mode is ConservationMode.ENERGY_MOMENTUM else [0.0] * 3
    spec = ManifoldSpec(n, mode, eps=1.5, u=u)
    states = sample_uniform_batch(spec, 40, rng)
    states *= 1.0 + 1e-6 * rng.standard_normal(states.shape)
    states = states[0] if layout == "single" else _layout(states, layout)
    got = constraint_errors(spec, states)
    want = constraint_errors_axis_sum(spec, states)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) == states.shape[:-2]
        assert np.array_equal(g, w)
    assert np.all(got[0] != 0.0)


def test_renormalize_fixed_point(spec_c4, rng):
    v = sample_uniform_batch(spec_c4, 1, rng)
    w = renormalize_batch(spec_c4, v.copy())
    np.testing.assert_allclose(w, v, rtol=0, atol=1e-15 * spec_c4.radius)


def test_renormalize_pure_rescale(spec_c1, rng):
    v = sample_uniform_batch(spec_c1, 1, rng)
    scaled = 1.01 * v
    # the energy error of the rescaled state is 1.01^2 - 1
    energy_err, _ = constraint_errors(spec_c1, scaled)
    assert energy_err[0] == pytest.approx(0.0201, rel=1e-12)
    w = renormalize_batch(spec_c1, scaled)
    assert _energy(w)[0] == pytest.approx(8.0, abs=1e-12)
    assert abs(constraint_errors(spec_c1, w)[0][0]) <= 1e-12
    # directions unchanged: restored state is exactly proportional
    np.testing.assert_allclose(w, v, rtol=1e-13)


def test_renormalize_shift_preserves_relative_geometry(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    v = sample_uniform_batch(spec, 1, rng)
    delta = np.array([0.05, -0.02, 0.01])
    shifted = v + delta
    # a uniform shift by delta moves the momentum by N delta
    _, mom_err = constraint_errors(spec, shifted)
    assert mom_err[0] == pytest.approx(math.sqrt(8) * np.abs(delta).max(), rel=1e-12)
    w = renormalize_batch(spec, shifted)
    energy_err, mom_err = constraint_errors(spec, w)
    assert abs(energy_err[0]) <= 1e-12 and mom_err[0] <= 1e-12
    # the shift correction is uniform: pairwise differences rescale only
    dv = v[0, :, None] - v[0, None, :]
    dw = w[0, :, None] - w[0, None, :]
    ratio = dw[dv != 0] / dv[dv != 0]
    np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)


def test_renormalize_degenerate(spec_c1):
    with pytest.raises(DegenerateStateError):
        renormalize_batch(spec_c1, np.zeros((1, 8, 3)))


# C=1, and C=4 about a nonzero u
RESTORE_MODES = {
    "c1": (ConservationMode.ENERGY_ONLY, 1.5, (0.0, 0.0, 0.0)),
    "c4_u": (ConservationMode.ENERGY_MOMENTUM, 1.5, (1.0, -0.5, 0.25)),
}


def _restore_spec(mode, n):
    kind, eps, u = RESTORE_MODES[mode]
    return ManifoldSpec(n, kind, eps=eps, u=u)


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("r", [1, 4])
def test_renormalize_matches_reference(mode, n, r, rng):
    spec = _restore_spec(mode, n)
    # off the manifold, with a mean that the C=4 restoration must remove
    states = 0.8 * rng.standard_normal((r, n, 3)) + [0.3, -0.7, 0.2]
    before = states.copy()
    out = renormalize_batch(spec, states)
    # restored in place: the array given is the array returned
    assert out is states
    np.testing.assert_allclose(out, renormalize_reference(spec, before),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("r", [1, 4])
def test_sample_is_the_restored_normal_draw(mode, n, r):
    spec = _restore_spec(mode, n)
    draw = np.random.default_rng(77).standard_normal((r, n, 3))
    np.testing.assert_allclose(sample_uniform_batch(spec, r, np.random.default_rng(77)),
                               renormalize_reference(spec, draw), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
def test_renormalize_names_non_finite_replica(mode, rng):
    spec = _restore_spec(mode, 5)
    states = sample_uniform_batch(spec, 4, rng)
    states[2, 3, 1] = np.nan
    with pytest.raises(NonFiniteStateError) as info:
        renormalize_batch(spec, states)
    assert info.value.replicas == [2]


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
def test_renormalize_rejects_zero_deviation(mode, rng):
    spec = _restore_spec(mode, 5)
    states = sample_uniform_batch(spec, 3, rng)
    states[1] = spec.u
    with pytest.raises(DegenerateStateError):
        renormalize_batch(spec, states)


@pytest.mark.parametrize("mode", sorted(RESTORE_MODES))
@pytest.mark.parametrize("which", ["sample", "renormalize"])
def test_restoration_peak_allocation(mode, which, rng):
    # sampling restores its own draw in place and renormalization restores
    # the array it is given: sampling holds one (R, N, 3) array plus
    # per-replica vectors, renormalization only per-replica vectors and
    # numpy's internal buffers (0.18x here)
    spec = _restore_spec(mode, 64)
    states = sample_uniform_batch(spec, 256, rng)
    run = {"sample": lambda: sample_uniform_batch(spec, 256, rng),
           "renormalize": lambda: renormalize_batch(spec, states)}[which]
    run()  # warm caches outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= {"sample": 1.25, "renormalize": 0.25}[which] * states.nbytes


def test_projector_annihilates_normals(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.5, u=[1, 0, 0])
    v = sample_uniform_batch(spec, 1, rng)
    w = v - v.mean(axis=1, keepdims=True)
    assert np.abs(tangent_project_batch(spec, v, w)).max() < 1e-12
    for sigma in range(3):
        e = np.zeros((1, 8, 3))
        e[..., sigma] = 1.0
        assert np.abs(tangent_project_batch(spec, v, e)).max() < 1e-12


def test_projector_idempotent_symmetric(spec_c1, spec_c4, rng):
    for spec in (spec_c1, spec_c4):
        v = sample_uniform_batch(spec, 1, rng)
        for _ in range(5):
            x = rng.standard_normal(24).reshape(1, 8, 3)
            y = rng.standard_normal(24).reshape(1, 8, 3)
            px = tangent_project_batch(spec, v, x)
            ppx = tangent_project_batch(spec, v, px)
            assert np.linalg.norm(ppx - px) <= 1e-12 * np.linalg.norm(x)
            py = tangent_project_batch(spec, v, y)
            assert (x * py).sum() == pytest.approx((px * y).sum(), rel=1e-12, abs=1e-12)


def test_pair_projector_annihilates_radial_and_uniform(spec_c4, rng):
    v = sample_uniform_batch(spec_c4, 1, rng)[0]
    d = v[0] - v[1]
    x = np.zeros((8, 3))
    x[0] = d
    assert np.abs(pair_projector_apply(spec_c4, v, 0, 1, x)).max() < 1e-12
    for sigma in range(3):
        e = np.zeros((8, 3))
        e[:, sigma] = 1.0
        assert np.abs(pair_projector_apply(spec_c4, v, 0, 1, e)).max() < 1e-12


def test_pair_projector_trace_is_two(spec_c4, rng):
    # brute-force trace over the 3N coordinate directions: rank of a 2-plane
    v = sample_uniform_batch(spec_c4, 1, rng)[0]
    tr = 0.0
    for idx in range(24):
        x = np.zeros(24)
        x[idx] = 1.0
        tr += pair_projector_apply(spec_c4, v, 2, 5, x.reshape(8, 3)).ravel()[idx]
    assert tr == pytest.approx(2.0, abs=1e-12)


def test_pair_projector_idempotent_and_tangent(spec_c4, rng):
    v = sample_uniform_batch(spec_c4, 1, rng)
    x = rng.standard_normal(24).reshape(1, 8, 3)
    px = pair_projector_apply(spec_c4, v, 1, 4, x)
    ppx = pair_projector_apply(spec_c4, v, 1, 4, px)
    np.testing.assert_allclose(ppx, px, atol=1e-12)
    # pair-collision manifolds sit inside the big manifold: the manifold
    # projector leaves their tangent vectors alone
    np.testing.assert_allclose(tangent_project_batch(spec_c4, v, px), px,
                               atol=1e-12)


def test_pair_projector_nonzero_blocks_only(spec_c4, rng):
    v = sample_uniform_batch(spec_c4, 1, rng)[0]
    x = rng.standard_normal(24).reshape(8, 3)
    px = pair_projector_apply(spec_c4, v, 1, 4, x)
    others = [i for i in range(8) if i not in (1, 4)]
    assert np.abs(px[others]).max() == 0.0


def test_pair_projector_degenerate_pair(spec_c4):
    p = np.zeros((8, 3))
    p[0] = [1.0, 0.0, 0.0]
    p[1] = [-1.0, 0.0, 0.0]
    # coincident pair: below the cutoff
    with pytest.raises(DegeneratePairError):
        pair_projector_apply(spec_c4, p, 2, 3, np.ones((8, 3)))


def test_sphere_area_values():
    assert math.exp(log_sphere_area(2)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert math.exp(log_sphere_area(5)) == pytest.approx(math.pi ** 3, rel=1e-14)
    # log form stays finite at dimensions ~ 3N for N ~ 1e3
    assert np.isfinite(log_sphere_area(3 * 1000 - 1))


def test_state_from_standard_maps_onto_manifold(rng):
    spec = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=3.0, u=[1, 0, 1])
    std = ManifoldSpec(8, ConservationMode.ENERGY_MOMENTUM, eps=1.0)
    batch = sample_uniform_batch(std, 100, rng)
    mapped = state_from_standard(spec, batch)
    energy = 0.5 * (mapped ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(energy, 8 * spec.eps, rtol=1e-12)
    np.testing.assert_allclose(mapped.sum(axis=1) - 8 * spec.u, 0.0, atol=1e-12)
    # the naive scaling by eps0 (instead of sqrt(eps0)) misses the manifold
    wrong = spec.u + spec.eps0 * batch
    energy_wrong = 0.5 * (wrong ** 2).sum(axis=(1, 2))
    assert np.all(np.abs(energy_wrong - 8 * spec.eps) > 1e-3)
