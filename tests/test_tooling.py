"""The traced benchmark wraps kinlab names by setattr; each must exist, and
a run must still call through them. The library seeds no Generator of its
own, imports no name it does not use, and importing it does not load
scipy."""

import ast
import importlib.util
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from kinlab import cli, kinetic_limits, master_sim, observables, spectral

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
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


# command -> (config, spans the traced run must record, per-layer counts it
# must report); the benchmark's workloads run these commands
TRACED_RUNS = {
    "sim-sphere": ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.02\n"
                   "n_replicas = 4\nobservables = sum_v1\ninit = shift\n"
                   "init_strength = 0.5\nseed = 3\n",
                   {"master_sim.run_ensemble", "master_sim.init_sample",
                    "geometry.sample", "geometry.renorm"},
                   # the shift sampler restores its draw once and each of the
                   # 2 steps its one replica block; the fused step projects
                   # nothing
                   {"geometry.sample_calls": 1, "geometry.project_calls": 0,
                    "geometry.renorm_calls": 3, "master_sim.pair_updates": 0}),
    # the shear sampler restores once and each of the 3 sweeps once; a sweep
    # at N = 5 is 5 rounds of 2 pairs in each of 4 replicas
    "sim-bp": ("n_particles = 5\nmode = energy-momentum\ndt = 0.01\nt_end = 0.03\n"
               "n_replicas = 4\ngamma = -3\nobservables = sum_v1v2\ninit = shear\n"
               "init_strength = 0.5\nseed = 3\n",
               {"master_sim.run_ensemble", "master_sim.init_sample",
                "geometry.sample", "geometry.renorm"},
               {"geometry.sample_calls": 1, "geometry.renorm_calls": 4,
                "master_sim.pair_updates": 120, "master_sim.pair_rounds": 15}),
    # the Rayleigh estimator draws pair differences, never N-particle states
    "gap-scan": ("n_list = 4,5,6\nn_samples = 1000\nseed = 3\n",
                 {"spectral.gap_scan", "spectral.rayleigh"},
                 {"geometry.sample_calls": 0, "spectral.samples": 3000}),
    "marginal-compare": ("n_particles = 4\nn_samples = 40\nn_list = 4,8\n"
                         "seed = 3\n",
                         {"geometry.sample", "observables.ks",
                          "kinetic_limits.marginal_eval"},
                         {"geometry.sample_calls": 1}),
    "sample": ("n_particles = 4\nn_samples = 5\nseed = 3\n", {"geometry.sample"},
               {"geometry.sample_calls": 1}),
}


@pytest.mark.parametrize("command", sorted(TRACED_RUNS))
def test_perfbench_spans_cover_the_work_functions(command, tmp_path):
    # the work functions read the call arguments (config.process, the
    # Rayleigh and sampler signatures); a change there fails here, not in
    # the next traced benchmark run
    spans = _load_spans()
    config, expected_spans, expected_counts = TRACED_RUNS[command]
    callers = set()

    class Recorder(spans.SpanRecorder):
        def wrap(self, name, fn, work=None):
            traced = super().wrap(name, fn, work)

            def call(*args, **kwargs):
                callers.add(threading.current_thread())
                return traced(*args, **kwargs)

            return call

    with spans.installed(Recorder(), MODULES) as rec:
        t0 = time.perf_counter()
        cli.run(cli.parse_config(config, command), tmp_path)
        wall = time.perf_counter() - t0
    names = [span[0] for span in rec.spans]
    assert expected_spans <= set(names)
    # the recorder keeps one stack of open spans and is not thread-safe: a
    # wrapped name called from another thread (such as the draw producer of
    # a pair or sphere run) would record spans outside their parents
    assert callers == {threading.current_thread()}
    for name, start, end, parent, _ in rec.spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = rec.spans[parent]
            assert p_start <= start and end <= p_end, (name, rec.spans[parent][0])
    if expected_counts.get("geometry.sample_calls") == 0:
        # layer_metrics divides by the sampled coordinate count, so it cannot
        # describe a run that samples nothing; count the spans directly
        metrics = {"geometry.sample_calls": names.count("geometry.sample"),
                   "spectral.samples": sum(w["samples"] for n, *_, w in rec.spans
                                           if n == "spectral.rayleigh")}
    else:
        normal_ns = 1e9 * spans.Probes.normal_s((4, 4, 3)) / 48
        metrics = spans.layer_metrics(rec, wall, spans.Probes(), normal_ns)
    assert {k: metrics[k] for k in expected_counts} == expected_counts
    if command == "sim-sphere":
        assert metrics["master_sim.sphere_ns_per_coord"] > 0


def test_only_cli_turns_a_seed_into_a_generator():
    # one random stream per run: cli.run seeds it, and every library
    # function that draws takes that Generator as an argument. A call of
    # a Generator, seed-sequence or bit-generator constructor is flagged,
    # and any other mention of one but Generator, so an annotation such as
    # np.random.Generator stays allowed
    constructors = {"Generator", "default_rng", "SeedSequence", "RandomState",
                    "PCG64", "PCG64DXSM", "SFC64", "Philox", "MT19937"}

    def name_of(node):
        return (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) else
                node.name if isinstance(node, ast.alias) else None)

    modules = sorted((ROOT / "src" / "kinlab").glob("*.py"))
    assert "cli.py" in {path.name for path in modules}
    offenders = []
    for path in modules:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            call = isinstance(node, ast.Call)
            name = name_of(node.func if call else node)
            if name in constructors and (call or name != "Generator"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_every_import_is_used():
    # an imported name that nothing reads is dead code; the one exception
    # is a name that perfbench/spans.py wraps on that module by setattr
    wrapped = set()
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[0], ast.Name)
                and isinstance(node.elts[1], ast.Constant)):
            wrapped.add((node.elts[0].id, node.elts[1].value))
    unused = []
    for path in sorted((ROOT / "src" / "kinlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and (path.stem, name) not in wrapped:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_one_component_sum():
    # one kernel sums a velocity's three components, geometry.dot3: no other
    # module defines or assigns a dot3 of its own, private or not, and
    # master_sim's former private copy is gone
    defined = []
    for path in sorted((ROOT / "src" / "kinlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else
                     [t.id for t in node.targets if isinstance(t, ast.Name)]
                     if isinstance(node, ast.Assign) else [])
            defined += [(path.stem, name) for name in names if name.lstrip("_") == "dot3"]
    assert defined == [("geometry", "dot3")]
    ms = ast.parse((ROOT / "src" / "kinlab" / "master_sim.py").read_text())
    assert "_dot3" not in {getattr(node, "id", getattr(node, "attr", None))
                           for node in ast.walk(ms)}


def test_one_table_writer_and_one_3d_binning():
    # cli._write_table writes every table and kinetic_limits.velocity_histogram3d
    # bins every 3-D histogram: no module imports csv or calls np.histogramdd
    found = []
    for path in sorted((ROOT / "src" / "kinlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.append((path.stem, "csv"))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "histogramdd":
                found.append((path.stem, "histogramdd"))
    assert found == []


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy.special takes a large share of a fresh import's time and memory;
    # only the functions that evaluate its special functions import it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys, kinlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
