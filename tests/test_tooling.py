"""The traced benchmark wraps kinlab names by setattr; each must exist."""

import importlib.util
from pathlib import Path

from kinlab import cli, kinetic_limits, master_sim, observables, spectral

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_spans_install_and_restore():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "master_sim": master_sim, "spectral": spectral,
               "observables": observables, "kinetic_limits": kinetic_limits}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    with spans.installed(spans.SpanRecorder(), modules):
        assert cli.run is not before["cli"]["run"]
    for name, m in modules.items():
        assert {k: v for k, v in vars(m).items() if k in before[name]} == before[name]
