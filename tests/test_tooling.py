"""The traced benchmark wraps kinlab names by setattr; each must exist, and
a run must still call through them."""

import importlib.util
from pathlib import Path

from kinlab import cli, kinetic_limits, master_sim, observables, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {"cli": cli, "master_sim": master_sim, "spectral": spectral,
           "observables": observables, "kinetic_limits": kinetic_limits}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_spans_install_and_restore():
    spans = _load_spans()
    before = {name: dict(vars(m)) for name, m in MODULES.items()}
    with spans.installed(spans.SpanRecorder(), MODULES):
        assert cli.run is not before["cli"]["run"]
    for name, m in MODULES.items():
        assert {k: v for k, v in vars(m).items() if k in before[name]} == before[name]


def test_perfbench_spans_cover_a_sim_bp_run(tmp_path):
    # a call that stops going through a wrapped name drops its span
    spans = _load_spans()
    config = ("n_particles = 4\nmode = energy-momentum\ndt = 0.01\nt_end = 0.02\n"
              "n_replicas = 4\ngamma = -3\nobservables = sum_v1v2\n"
              "entropy_times = 0,0.02\nseed = 3\n")
    with spans.installed(spans.SpanRecorder(), MODULES) as rec:
        cli.run(cli.parse_config(config, "sim-bp"), tmp_path)
    names = [span[0] for span in rec.spans]
    assert {"cli.parse", "cli.run", "master_sim.run_ensemble", "geometry.renorm",
            "observables.record", "kinetic_limits.entropy"} <= set(names)
    # the grid once, then a histogram and an entropy per snapshot
    assert names.count("kinetic_limits.entropy") == 1 + 2 * 2
