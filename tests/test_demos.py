"""Smoke test: the quick demos run to completion against the current API.

Demo 03 is left out for its run time (about 15 s); demo 06 (about 20 s) is
kept because it exercises the kinetic-limit and histogram APIs end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_spectra_and_limits.py", "02_sampling_and_marginals.py",
         "04_pair_diffusion_generator.py", "05_variational_gap_scan.py",
         "06_kinetic_limits.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
