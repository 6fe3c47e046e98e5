"""kinlab benchmark: four study workloads driven through the public CLI path.

Run from the root of a kinlab checkout:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One invocation runs one workload in this fresh process: it repeats the
workload's studies (``kinlab.cli.parse_config`` then ``kinlab.cli.run``,
artifacts written under ``.perfbench_out/``) one after another, a closed loop
with one client, until ``--seconds`` have passed, checks every study's
artifacts against an exact oracle, and prints one JSON line last. With
``--trace 0`` that line holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, from repetitions traced by
wrapping public kinlab functions (see spans.py), alternated with untraced
ones. ``--workload all`` runs every workload in its own process and prints
one table of every metric with its unit and sample count.

The full result (environment, sizes, work counts, per-repetition samples,
artifact digests, every per-layer metric and per-call span statistics) is
written to ``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``; a
traced run also writes its spans to ``.perfbench_out/spans-...json``.
"""

from __future__ import annotations

import os

# Single-process numpy, as the lab runs it; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Probes, SpanRecorder, installed, layer_metrics, per_call_stats  # noqa: E402
from studies import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
SETUP_IMPORTS = 9
# sphere-large-n state shape (R, N, 3), where the machine probes run
STATE_SHAPE = (1024, 512, 3)
IMPORT_SNIPPET = ("import sys, time\nt = time.perf_counter()\n"
                  "sys.path.insert(0, {src!r})\nimport kinlab.cli\n"
                  "print(time.perf_counter() - t)")


def environment(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        llc = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "llc": llc, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": seed}


class Calibration:
    """A fixed numpy and Python kernel, independent of kinlab.

    Shared hosts slow down by up to about 1.6x for seconds to minutes at a
    time, and this kernel slows with them: a repetition's time divided by
    the kernel's spreads about half as much as its raw time (tried against
    kernels shaped like each workload, which tracked no better). Every
    repetition and every set-up import is bracketed by calibration runs, and
    its time is reported in reference seconds: raw time * REF_S / (mean
    calibration time around it). REF_S is the kernel's time on the host
    where the benchmark was defined (2-core Xeon, quiet), so there reference
    seconds are wall seconds.
    """

    REF_S = 0.013

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.x = self.rng.standard_normal((64, 256, 3))
        self.idx = self.rng.integers(0, 256, size=(64, 128))
        self.rows = np.arange(64)[:, None]

    def _kernel(self):
        # gather/scatter, an RNG draw and interpreter work, the mix the
        # workloads are made of
        x = self.x.copy()
        for _ in range(12):
            y = x[self.rows, self.idx]
            x[self.rows, self.idx] = y / np.sqrt((y * y).sum(-1, keepdims=True))
        self.rng.standard_normal((256, 512, 3))
        sum(i * i for i in range(20000))

    def time_s(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def bracketed(calib: Calibration, fn, done, seconds: float) -> list[tuple]:
    """Call fn(results so far) until done(results) and ``seconds`` have passed.

    fn returns (raw seconds, other result); each call's entry in the returned
    list is (raw seconds, reference seconds, other result).
    """
    out = []
    before = calib.time_s()
    start = time.perf_counter()
    while not done(out) or time.perf_counter() - start < seconds:
        raw, extra = fn(out)
        after = calib.time_s()
        out.append((raw, raw * Calibration.REF_S / (0.5 * (before + after)), extra))
        before = after
    return out


def import_once(_=None) -> tuple[float, None]:
    """Import time of kinlab (numpy and scipy included) in a fresh process."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET.format(src=str(SRC))]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1]), None


def import_kinlab() -> dict:
    sys.path.insert(0, str(SRC))
    import kinlab
    from kinlab import cli, kinetic_limits, master_sim, observables, spectral

    if Path(kinlab.__file__).resolve().parent != (SRC / "kinlab").resolve():
        raise RuntimeError(f"kinlab imported from {kinlab.__file__}, not {SRC}")
    return {"cli": cli, "master_sim": master_sim, "spectral": spectral,
            "observables": observables, "kinetic_limits": kinetic_limits}


def csv_digest(directory: Path) -> str:
    """sha256 over the CSV tables; manifest.json embeds paths and the code
    version, so it is left out."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs repetitions of one workload and keeps the outcome of each study."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.base = OUT / "artifacts" / workload.name
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def repetition(self) -> float:
        dirs = [self.base / st.name for st in self.workload.studies]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        manifests = []
        t0 = time.perf_counter()
        for st, d in zip(self.workload.studies, dirs):
            try:
                manifests.append(self.cli.run(self.cli.parse_config(st.config), d))
            except Exception as exc:  # noqa: BLE001 - a raising study is a failed study
                manifests.append(exc)
        wall = time.perf_counter() - t0
        for st, d, manifest in zip(self.workload.studies, dirs, manifests):
            problems = self._check(st, d, manifest)
            self.attempted += 1
            self.failed += bool(problems)
            self.failures += [f"{st.name}: {p}" for p in problems]
        return wall

    def _check(self, study, directory: Path, manifest) -> list[str]:
        if isinstance(manifest, Exception):
            return [f"raised {type(manifest).__name__}: {manifest}"]
        try:
            problems = study.check(directory, manifest)
        except (OSError, LookupError, ValueError) as exc:
            return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]
        digest = csv_digest(directory)
        first = self.digests.setdefault(study.name, digest)
        if digest != first:
            problems.append("CSV tables differ from the first repetition's")
        return problems


def spread(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "samples": values}


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; returns (full result, metrics for the last line)."""
    workload = WORKLOADS[args.workload](args.seed)
    result = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed), "sizes": workload.sizes,
              "work": {"unit": workload.work_unit, "per_repetition": workload.work},
              "calibration_ref_s": Calibration.REF_S}
    mods = import_kinlab()
    runner = Runner(workload, mods["cli"])
    # An uncounted first repetition takes the first-call costs. The peak RSS
    # after it is that of a process that runs the workload once, read before
    # the calibration kernel allocates anything.
    runner.repetition()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib = Calibration()
    if not args.trace:
        setup = bracketed(calib, import_once, lambda out: len(out) >= SETUP_IMPORTS, 0.0)

    def untraced(out):
        return runner.repetition(), None

    def n_traced(out):
        return sum(rec is not None for _, _, rec in out)

    def alternate(out):
        """Untraced and traced repetitions in turn, untraced first."""
        if len(out) - n_traced(out) <= n_traced(out):
            return untraced(out)
        rec = SpanRecorder()
        with installed(rec, mods):
            wall = runner.repetition()
        return wall, rec

    if not args.trace:
        reps = bracketed(calib, untraced, lambda out: len(out) >= MIN_REPS, args.seconds)
        walls = [ref for _, ref, _ in reps]
        wall = statistics.median(walls)
        values = {"wall_ref_s": wall,
                  "setup_s": statistics.median(ref for _, ref, _ in setup),
                  "work_per_ref_s": workload.work / wall,
                  "peak_rss_mb": peak_rss_mb}
        samples = {"wall_ref_s": len(walls), "setup_s": len(setup),
                   "work_per_ref_s": len(walls), "peak_rss_mb": 1}
        result["wall_ref_s"] = spread(walls)
        result["wall_raw_s"] = spread([raw for raw, _, _ in reps])
        result["setup_s"] = spread([ref for _, ref, _ in setup])
        result["setup_raw_s"] = spread([raw for raw, _, _ in setup])
        names = spec["end_to_end"]
        n_reps = len(reps)
    else:
        reps = bracketed(calib, alternate,
                         lambda out: min(len(out) - n_traced(out), n_traced(out)) >= 2,
                         args.seconds)
        traced = [(raw, ref, rec) for raw, ref, rec in reps if rec is not None]
        plain = [ref for _, ref, rec in reps if rec is None]
        probes = Probes()
        elems = math.prod(STATE_SHAPE)
        normal_ns = 1e9 * probes.normal_s(STATE_SHAPE) / elems
        per_rep = []
        for raw, ref, rec in traced:
            m = layer_metrics(rec, raw, probes, normal_ns)
            # times in reference units, like the end-to-end metrics
            per_rep.append({k: v * ref / raw if unit_of(k, spec) in ("s", "ns", "us") else v
                            for k, v in m.items()})
        values = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
        values["machine.normal_ns"] = normal_ns
        values["machine.add_ns_per_elem"] = 1e9 * probes.add_s(STATE_SHAPE) / elems
        values["trace.overhead_frac"] = (statistics.median(ref for _, ref, _ in traced)
                                         / statistics.median(plain))
        samples = {k: len(traced) for k in values}
        samples["machine.normal_ns"] = samples["machine.add_ns_per_elem"] = Probes.REPEATS
        result["wall_ref_s"] = {"untraced": spread(plain),
                                "traced": spread([ref for _, ref, _ in traced])}
        result["per_call"] = per_call_stats([rec for _, _, rec in traced])
        names = spec["per_layer"]
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([rec.to_json() for _, _, rec in traced]))
        n_reps = len(reps)
    result["work"]["repetitions"] = n_reps
    result["work"]["total"] = n_reps * workload.work
    result["studies"] = [{"name": st.name, "config": st.config,
                          "csv_sha256": runner.digests.get(st.name)}
                         for st in workload.studies]
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    result["metrics"] = {k: {"value": v, "n": samples.get(k)} for k, v in values.items()}
    line = {"correct": not runner.failures, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in names}}
    return result, line


def print_report(result: dict, units: dict):
    env = result["environment"]
    print(f"perfbench {result['workload']}  seed {env['seed']}  trace {result['trace']}")
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  {env['cpu_model']}  LLC {env['llc']}")
    work = result["work"]
    print(f"  sizes {json.dumps(result['sizes'])}")
    print(f"  work  {work['per_repetition']} {work['unit']} per repetition, "
          f"{work['repetitions']} repetitions")
    if "wall_raw_s" in result:
        raw = result["wall_raw_s"]
        print(f"  raw wall time per repetition: median {raw['median']:.4f} s, "
              f"min {raw['min']:.4f} s, max {raw['max']:.4f} s, n {raw['n']}")
    for st in result["studies"]:
        print(f"  study {st['name']:<18} csv sha256 {st['csv_sha256']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  {'metric':<38} {'value':>16} {'unit':<8} n")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6g} {units.get(name, ''):<8} {m['n']}")
    for name, st in result.get("per_call", {}).items():
        print(f"  span {name:<33} median {st['median_s']:.6g} s  "
              f"p{st['pct']:g} {st['pct_s']:.6g} s  n {st['n']}")


def unit_of(name: str, spec: dict) -> str:
    """Unit of a metric: BENCHMARK.json's, else read off its name."""
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    for part, unit in (("_frac", "frac"), ("_over_", "ratio"), ("_array_passes", "adds"),
                       ("_ns", "ns"), ("_us_", "us")):
        if part in name:
            return unit
    return "s" if name.endswith("_s") else "count"


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(proc.stdout.splitlines()[:-1]))
        line = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and line["correct"]
        print(f"  correct {line['correct']}  attempted {line['attempted']}  "
              f"failed {line['failed']}\n")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kinlab" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'kinlab'} not found; run from the root of a "
              "kinlab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, line = measure(args, spec)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_report(result, {k: unit_of(k, spec) for k in result["metrics"]})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
