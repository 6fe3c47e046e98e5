"""Golden trajectories of the pair sweep and the sphere step.

The cases and the runners live in tests/data/make_pair_golden.py and
tests/data/make_sphere_golden.py, which wrote tests/data/pair_golden.npz
and tests/data/sphere_golden.npz. A pair-kernel rewrite that keeps the RNG
draw order and the per-pair arithmetic reproduces its file to 1e-13. The
sphere file was written by the project-then-renormalize step; the fused
closed-form step reorders the arithmetic, so it is compared to 1e-12.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from kinlab.geometry import renormalize_batch

DATA = Path(__file__).resolve().parent / "data"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load("make_pair_golden")
sphere_golden = _load("make_sphere_golden")

HINT = ("pair sweep differs from tests/data/pair_golden.npz; if the dynamics "
        "are meant to change, rerun tests/data/make_pair_golden.py")
SPHERE_HINT = ("sphere step differs from tests/data/sphere_golden.npz; if the "
               "dynamics are meant to change, rerun tests/data/make_sphere_golden.py")


def _read(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def stored():
    return _read(golden.OUT)


@pytest.fixture(scope="module")
def stored_sphere():
    return _read(sphere_golden.OUT)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_pair_sweep_matches_golden(name, stored):
    final, kicked = golden.run_case(name)
    # atol covers components near zero, whose relative error means nothing
    np.testing.assert_allclose(final, stored[f"{name}/final"], rtol=1e-13,
                               atol=1e-13, err_msg=HINT)
    np.testing.assert_allclose(kicked, stored[f"{name}/kicked"], rtol=1e-13,
                               atol=1e-13, err_msg=HINT)
    # the restoration moves the kicked states by about 1e-16, below the
    # tolerance above, so the final states are pinned to it bit for bit
    np.testing.assert_array_equal(
        final, renormalize_batch(golden.case_spec(name), kicked.copy()))


@pytest.mark.parametrize("name", sorted(sphere_golden.CASES))
def test_sphere_step_matches_golden(name, stored_sphere):
    np.testing.assert_allclose(sphere_golden.run_case(name), stored_sphere[name],
                               rtol=1e-12, atol=1e-12, err_msg=SPHERE_HINT)


def test_golden_file_records_its_commit(stored, stored_sphere):
    assert len(str(stored["commit"])) == 40
    assert len(str(stored_sphere["commit"])) == 40
