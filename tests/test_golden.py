"""Golden trajectories of the pair sweep (tests/data/pair_golden.npz).

The cases and the runner live in tests/data/make_pair_golden.py, which wrote
the data file; a kernel rewrite that keeps the RNG draw order and the
per-pair arithmetic reproduces it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_pair_golden",
                                               DATA / "make_pair_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

HINT = ("pair sweep differs from tests/data/pair_golden.npz; if the dynamics "
        "are meant to change, rerun tests/data/make_pair_golden.py")


@pytest.fixture(scope="module")
def stored():
    with np.load(golden.OUT) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_pair_sweep_matches_golden(name, stored):
    final, kicked = golden.run_case(name)
    # atol covers components near zero, whose relative error means nothing
    np.testing.assert_allclose(final, stored[f"{name}/final"], rtol=1e-13,
                               atol=1e-13, err_msg=HINT)
    np.testing.assert_allclose(kicked, stored[f"{name}/kicked"], rtol=1e-13,
                               atol=1e-13, err_msg=HINT)


def test_golden_file_records_its_commit(stored):
    assert len(str(stored["commit"])) == 40
