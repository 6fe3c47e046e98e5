"""Write tests/data/sphere_golden.npz, the golden trajectories of the sphere step.

Each case runs 3 steps of ``master_sim.step_sphere_diffusion`` from a
uniform sample of R = 4 states, with standard normals drawn from a fixed
seed, and stores a copy of the states after every step (the step updates
its states array in place). ``tests/test_golden.py``
reruns the cases and compares to 1e-12: the closed-form step is not
bit-identical to the project-then-renormalize step that wrote the file,
so these data pin the dynamics, not the rounding. Regenerate only when the
dynamics are meant to change.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_sphere_golden.py

The commit the file was written at is stored under the key ``commit``.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import numpy as np

from kinlab.geometry import ConservationMode, ManifoldSpec, sample_uniform_batch
from kinlab.master_sim import step_sphere_diffusion

OUT = Path(__file__).resolve().parent / "sphere_golden.npz"
N_REPLICAS = 4
N_STEPS = 3
DT = 1e-2

C1 = ConservationMode.ENERGY_ONLY
C4 = ConservationMode.ENERGY_MOMENTUM

# name -> (N, mode, eps, u, seed)
CASES = {
    "c1_n2": (2, C1, 1.0, (0.0, 0.0, 0.0), 21),
    "c1_n5": (5, C1, 1.5, (0.0, 0.0, 0.0), 22),
    "c1_n16": (16, C1, 1.0, (0.0, 0.0, 0.0), 23),
    "c4_n2_u": (2, C4, 1.5, (1.0, -0.5, 0.25), 24),
    "c4_n5_u": (5, C4, 1.5, (1.0, -0.5, 0.25), 25),
    "c4_n16_u": (16, C4, 2.0, (-0.5, 0.75, 1.0), 26),
}


def run_case(name: str) -> np.ndarray:
    """States after each step, shape (N_STEPS, R, N, 3)."""
    n, mode, eps, u, seed = CASES[name]
    spec = ManifoldSpec(n, mode, eps=eps, u=u)
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, N_REPLICAS, rng)
    xi = rng.standard_normal((N_STEPS,) + states.shape)
    out = []
    for k in range(N_STEPS):
        step_sphere_diffusion(spec, states, DT, xi[k])
        out.append(states.copy())
    return np.stack(out)


def _commit() -> str:
    root = Path(__file__).resolve().parents[2]
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    arrays = {"commit": np.array(_commit())}
    for name in CASES:
        arrays[name] = run_case(name)
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes) at commit {arrays['commit']}")


if __name__ == "__main__":
    main()
