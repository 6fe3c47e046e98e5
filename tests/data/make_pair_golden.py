"""Write tests/data/pair_golden.npz, the golden trajectories of the pair sweep.

Each case runs 3 fixed-seed steps of ``master_sim.step_pair_diffusion`` from
a uniform sample of R = 4 states and stores the final (renormalized) states
and the last step's kicked, not yet renormalized array: the step restores
``states`` in place, so ``oracles.restoration_inputs`` copies the array it
hands to ``master_sim.renormalize_batch``.
``tests/test_golden.py`` reruns the cases and compares. A kernel rewrite
must keep the RNG draw order and the per-pair arithmetic, so these files
pin it; regenerate only when the dynamics are meant to change. The
antithetic case draws its steps through ``oracles.AntitheticGenerator``.

Run from the repository root:

    PYTHONPATH=src:tests python tests/data/make_pair_golden.py

The commit the file was written at is stored under the key ``commit``.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import numpy as np

from kinlab import master_sim
from kinlab.geometry import ConservationMode, ManifoldSpec, sample_uniform_batch
from kinlab.master_sim import KernelSpec, step_pair_diffusion
from oracles import AntitheticGenerator, restoration_inputs

OUT = Path(__file__).resolve().parent / "pair_golden.npz"
N_REPLICAS = 4
N_STEPS = 3
DT = 1e-2

C1 = ConservationMode.ENERGY_ONLY
C4 = ConservationMode.ENERGY_MOMENTUM

# name -> (N, mode, eps, u, gamma, antithetic, seed)
CASES = {
    "c1_n6_g0": (6, C1, 1.0, (0.0, 0.0, 0.0), 0.0, False, 11),
    "c1_n5_gm3_bye": (5, C1, 1.0, (0.0, 0.0, 0.0), -3.0, False, 12),
    "c4_n8_gm3": (8, C4, 1.0, (0.0, 0.0, 0.0), -3.0, False, 13),
    "c4_n6_g3": (6, C4, 2.0, (0.0, 0.0, 0.0), 3.0, False, 14),
    "c4_n7_g0_bye": (7, C4, 1.0, (0.0, 0.0, 0.0), 0.0, False, 15),
    "c4_n6_gm3_u": (6, C4, 1.5, (1.0, -0.5, 0.25), -3.0, False, 16),
    "c4_n16_gm4p5": (16, C4, 1.0, (0.0, 0.0, 0.0), -4.5, False, 17),
    "c4_n5_gm3_antithetic": (5, C4, 1.0, (0.0, 0.0, 0.0), -3.0, True, 18),
}


def case_spec(name: str) -> ManifoldSpec:
    n, mode, eps, u, *_ = CASES[name]
    return ManifoldSpec(n, mode, eps=eps, u=u)


def run_case(name: str) -> tuple[np.ndarray, np.ndarray]:
    """Final states and the last step's kicked array, both (R, N, 3)."""
    *_, gamma, antithetic, seed = CASES[name]
    spec = case_spec(name)
    kernel = KernelSpec(gamma)
    rng = np.random.default_rng(seed)
    states = sample_uniform_batch(spec, N_REPLICAS, rng)
    step_rng = AntitheticGenerator(rng) if antithetic else rng
    with restoration_inputs(master_sim) as kicked:
        for _ in range(N_STEPS):
            step_pair_diffusion(spec, states, kernel, DT, step_rng)
    return states, kicked[-1]


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
        final, kicked = run_case(name)
        arrays[f"{name}/final"] = final
        arrays[f"{name}/kicked"] = kicked
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes) at commit {arrays['commit']}")


if __name__ == "__main__":
    main()
