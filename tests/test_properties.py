"""Property tests of the constraint contracts, and of exchangeability, on
randomly drawn manifolds: C = 1 and C = 4, N from 2 to 9 (odd N included),
and a nonzero drift u with eps > |u|^2/2 on the energy-momentum sphere."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinlab import master_sim
from kinlab.geometry import (
    ConservationMode,
    ManifoldSpec,
    constraint_errors,
    renormalize_batch,
    sample_uniform_batch,
)
from kinlab.master_sim import KernelSpec, step_pair_diffusion, step_sphere_diffusion

from oracles import restoration_inputs

TOL = 1e-12
# deterministic and small, so the suite stays reproducible and fast
SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)


@st.composite
def specs(draw):
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        return ManifoldSpec(n, ConservationMode.ENERGY_ONLY, eps=draw(st.floats(0.1, 4.0)))
    u = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    assume(np.any(u != 0.0))
    eps0 = draw(st.floats(0.1, 4.0))
    return ManifoldSpec(n, ConservationMode.ENERGY_MOMENTUM, eps=eps0 + 0.5 * float(u @ u),
                        u=u)


seeds = st.integers(0, 2 ** 32 - 1)
steps = st.floats(1e-4, 0.05)


def _assert_on_manifold(spec, states):
    energy, momentum = constraint_errors(spec, states)
    assert np.abs(energy).max() <= TOL
    if spec.mode is ConservationMode.ENERGY_MOMENTUM:
        assert momentum.max() <= TOL


@SETTINGS
@given(specs(), seeds)
def test_sample_meets_constraints(spec, seed):
    _assert_on_manifold(spec, sample_uniform_batch(spec, 3, np.random.default_rng(seed)))


@SETTINGS
@given(specs(), seeds, st.floats(0.01, 1.0))
def test_renormalize_restores_constraints(spec, seed, size):
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    states += size * rng.standard_normal(states.shape)
    _assert_on_manifold(spec, renormalize_batch(spec, states))


@SETTINGS
@given(specs(), seeds, steps)
def test_sphere_step_meets_constraints(spec, seed, dt):
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    xi = rng.standard_normal(states.shape)
    _assert_on_manifold(spec, step_sphere_diffusion(spec, states, dt, xi))


@SETTINGS
@given(specs(), seeds, steps, st.sampled_from([-3.0, 0.0, 2.0]))
def test_pair_step_meets_constraints(spec, seed, dt, gamma):
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    _assert_on_manifold(spec, step_pair_diffusion(spec, states, KernelSpec(gamma), dt, rng))


@SETTINGS
@given(specs(), seeds, steps, st.sampled_from([-3.0, 0.0, 2.0]))
def test_pair_sweep_conserves_kicked_momentum(spec, seed, dt, gamma):
    # each pair kick conserves the pair momentum, so the kicked states the
    # sweep hands to its in-place restoration keep the total momentum
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    before = states.sum(axis=1)
    with restoration_inputs(master_sim) as kicked:
        step_pair_diffusion(spec, states, KernelSpec(gamma), dt, rng)
    np.testing.assert_allclose(kicked[0].sum(axis=1), before, rtol=0, atol=TOL)


@SETTINGS
@given(specs(), seeds, st.floats(0.01, 1.0))
def test_renormalize_commutes_with_particle_permutation(spec, seed, size):
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    states += size * rng.standard_normal(states.shape)
    perm = rng.permutation(spec.n_particles)
    np.testing.assert_allclose(renormalize_batch(spec, states[:, perm]),
                               renormalize_batch(spec, states)[:, perm], rtol=0, atol=TOL)


@SETTINGS
@given(specs(), seeds, steps)
def test_sphere_step_commutes_with_particle_permutation(spec, seed, dt):
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, 3, rng)
    xi = rng.standard_normal(states.shape)
    perm = rng.permutation(spec.n_particles)
    np.testing.assert_allclose(step_sphere_diffusion(spec, states[:, perm], dt, xi[:, perm]),
                               step_sphere_diffusion(spec, states, dt, xi)[:, perm],
                               rtol=0, atol=TOL)
