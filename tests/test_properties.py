"""Property tests of the constraint contracts, and of exchangeability, on
randomly drawn manifolds: C = 1 and C = 4, N from 2 to 9 (odd N included),
and a nonzero drift u with eps > |u|^2/2 on the energy-momentum sphere; and
of the CLI's exit contract on configs drawn from every command's schema."""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kinlab import cli, master_sim
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


# ---------------------------------------------------------------------------
# every command's config schema, drawn at small sizes: a config is refused
# with exit 2 before any output, runs to exit 0, or stops with exit 1 at a
# named numerical breakdown, and nothing else


def _text(values):
    return values.map(repr)


def _ints(lo, hi):
    return _text(st.integers(lo, hi))


def _floats(lo, hi):
    return _text(st.floats(lo, hi))


def _list(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


def _vec3(lo, hi):
    return st.lists(_floats(lo, hi), min_size=3, max_size=3).map(",".join)


def _bad(*values):
    return st.sampled_from(values)


# key -> (valid values, invalid ones); a valid value may still clash with
# another key's
_SEED = (_ints(0, 2 ** 64 - 1), _bad("-1", "x"))
_GAMMA = (_floats(-4.9, 4.0), _bad("-5", "inf", "200", "2000"))
_EPS = (_floats(0.5, 4.0), _bad("0", "-1", "nan", "1e300"))
_MANIFOLD = {"n_particles": (_ints(2, 9), _bad("-1", "0", "1", "2.5")),
             "mode": (st.sampled_from(["energy", "energy-momentum"]), _bad("c4")),
             "eps": _EPS,
             "u": (st.just("0,0,0") | _vec3(-0.5, 0.5), _bad("1,2", "nan,0,0"))}
_OBSERVABLE = st.sampled_from(sorted(cli.observables.OBSERVABLES))
_SIM = {**_MANIFOLD, "n_replicas": (_ints(1, 8), _bad("0")),
        "record_every": (_ints(1, 3), _bad("0")),
        "observables": (_list(_OBSERVABLE), _bad("", "nope", "sum_v1,sum_v1")),
        "init": (st.sampled_from(["uniform", "shift", "shear", "tagged-shift"]),
                 _bad("bogus")),
        "init_strength": (_floats(-1.0, 1.0), _bad("inf")),
        "fit_observable": (_OBSERVABLE, _bad("nope")),
        "entropy_bins": (_ints(1, 6), _bad("0", "129")), "seed": _SEED}
_SIM_RUN = (st.floats(1e-3, 0.05) | st.just(1e-12), _bad("0", "-0.01"), 6, ["entropy_times"])
_COV = {"s0_diag": (_vec3(0.5, 2.0), _bad("-1,1,1")),
        "s0_offdiag": (_vec3(-0.2, 0.2), _bad("2,0,0"))}

# command -> (keys; those of them that bound the run's size, always written
# like the required keys; for a run: its dt, invalid dt, most steps and keys
# of time lists)
SCHEMAS = {
    "spectrum": ({**_MANIFOLD, "j_max": (_ints(0, 4), _bad("-1")), "seed": _SEED}, (), None),
    "sample": ({**_MANIFOLD, "n_samples": (_ints(1, 300), _bad("0", "-3")), "seed": _SEED},
               ("n_samples",), None),
    "sim-sphere": (_SIM, (), _SIM_RUN),
    "sim-bp": ({**_SIM, "gamma": _GAMMA}, (), _SIM_RUN),
    "rayleigh": ({"n_particles": _MANIFOLD["n_particles"], "gamma": _GAMMA,
                  "n_samples": (_ints(1000, 3000), _bad("999")), "seed": _SEED},
                 ("n_samples",), None),
    "gap-scan": ({"n_list": (st.lists(st.integers(2, 12), min_size=3, max_size=4, unique=True)
                             .map(lambda ns: ",".join(map(str, sorted(ns)))),
                             _bad("4,8", "16,8,4", "1,4,8")),
                  "gamma": _GAMMA, "n_samples": (_ints(1000, 2000), _bad("999")),
                  "seed": _SEED}, ("n_samples",), None),
    "marginal-compare": ({"n_particles": _MANIFOLD["n_particles"], "eps": _EPS,
                          "n_samples": (_ints(10, 2000), _bad("1")),
                          "n_list": (_list(_ints(2, 40)), _bad("1,8")), "seed": _SEED},
                         ("n_samples", "n_list"), None),
    "fpe-moments": ({"flow": (st.sampled_from(["fpe", "landau"]), _bad("bgk")),
                     "eps0": _EPS, "u": _MANIFOLD["u"], "m0": _MANIFOLD["u"], **_COV,
                     "t_list": (_list(_floats(0.0, 3.0)), _bad("-0.5", "0,inf")),
                     "seed": _SEED}, (), None),
    "chaos": ({"n_list": (_list(_ints(2, 8)), _bad("1,8")), "eps": _EPS, "gamma": _GAMMA,
               "pair_samples": (_ints(1, 400), _bad("0")),
               "bins": (_ints(1, 8), _bad("0", "4097")), "seed": _SEED},
              ("n_list", "pair_samples", "dt", "t_end"),
              (st.sampled_from([0.005, 0.01]), _bad("0"), 4, [])),
}


@st.composite
def _configs(draw, command):
    """A config of ``command``: valid values, or one key invalid. A run's
    t_end is at most its most steps of dt, and its time lists at most one
    more, on the grid of dt or (invalid) off it."""
    keys, sized, run = SCHEMAS[command]
    keys = dict(keys)
    if run is not None:
        dts, bad_dt, most, timed = run
        dt = draw(dts)

        def times(max_steps, on_grid=True):
            steps = st.integers(0, max_steps) if on_grid else st.floats(0.0, max_steps)
            return _text(steps.map(lambda k: k * dt))

        keys["dt"] = (st.just(repr(dt)), bad_dt)
        keys["t_end"] = (times(most), times(most, on_grid=False))
        keys.update({key: (_list(times(most + 1)), _list(times(most + 1, on_grid=False)))
                     for key in timed})
    schema = cli.COMMANDS[command][0]
    written = [key for key in keys if key in sized or schema[key].required]
    lines = {key: draw(keys[key][0]) for key in written}
    lines.update(draw(st.fixed_dictionaries({}, optional={
        key: good for key, (good, _) in keys.items() if key not in written})))
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(keys)))
        lines[key] = draw(keys[key][1])
    return lines


# configs that the draws above do not reach: the Rayleigh stderr sums the
# squared weights, which overflow at N = 2 and gamma = 400 (weights up to
# 8^201 ~ 1e182 pass the weight bound)
EXAMPLES = {"rayleigh": {"n_particles": "2", "gamma": "400", "n_samples": "1000"}}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_drawn_config_is_refused_run_or_stopped_at_a_breakdown(command):
    written = set()

    @SETTINGS
    @given(_configs(command))
    def check(lines):
        written.update(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
            path.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([command, "--config", str(path), "--out", str(out)])
            if code == 2:
                assert json.loads(stdout.getvalue())["violations"]
                assert not out.exists()
            elif code == 0:
                manifest = json.loads((out / "manifest.json").read_text())
                for name in manifest["outputs"]:
                    with open(out / name, newline="") as fh:
                        _, *rows = csv.reader(fh)
                    assert np.isfinite(np.array(rows, dtype=float)).all(), name
            else:
                report = json.loads(stdout.getvalue())
                assert code == 1, report
                if report["error"] == "FloatingPointError" \
                        and command in ("rayleigh", "gap-scan"):
                    # an estimate or stderr that overflows below the weight bound
                    assert re.search(r"at N = \d+, gamma = ", report["message"]), report
                else:
                    assert report["error"] == "NonFiniteStateError", report
                    assert report["step"] >= 1 and report["replicas"], report

    if command in EXAMPLES:
        check = example(EXAMPLES[command])(check)
    check()
    # every key of the schema was written in some drawn config
    assert set(cli.COMMANDS[command][0]) <= written
