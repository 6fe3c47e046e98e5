"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's own files: ``installed`` replaces
public kinlab functions by timing wrappers at the module attribute through
which the calling module looks them up (``cli.run_ensemble``,
``master_sim.renormalize_batch``, ``spectral.sample_uniform_batch``, the
functions ``observables.get_observable`` returns, ...), and restores them on
exit. No private kinlab name is wrapped and no kinlab file is edited.

A span is named ``<layer>.<operation>``; the layer is a module of
``src/kinlab``. Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class SpanRecorder:
    """Keeps spans in memory as [name, start, end, parent index, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if work is not None:
                    rec[4] = work(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "work": w}
                for n, s, e, p, w in self.spans]


# ---------------------------------------------------------------------------
# work counted at each boundary, from the call's arguments


def _sample_work(spec, n_states, rng):
    return {"coords": n_states * spec.n_particles * 3}


def _array_work(spec, states, *rest):
    return {"coords": int(states.size), "shape": list(states.shape)}


def _ensemble_work(spec, config, observables, **kwargs):
    return {"process": config.process, "replicas": config.n_replicas,
            "particles": spec.n_particles, "steps": config.n_steps}


def _rayleigh_work(spec, tf, kernel, n_samples, rng, *rest, **kwargs):
    return {"samples": n_samples, "particles": spec.n_particles}


@contextmanager
def installed(rec: SpanRecorder, kinlab_modules: dict):
    """Wrap the public names listed below for the duration of the block."""
    cli = kinlab_modules["cli"]
    master_sim = kinlab_modules["master_sim"]
    spectral = kinlab_modules["spectral"]
    observables = kinlab_modules["observables"]
    kinetic_limits = kinlab_modules["kinetic_limits"]

    def sampler_factory(factory):
        def make(*args, **kwargs):
            return rec.wrap("master_sim.init_sample", factory(*args, **kwargs))
        return make

    get_observable = observables.get_observable
    replacements = [
        (cli, "parse_config", rec.wrap("cli.parse", cli.parse_config)),
        (cli, "run", rec.wrap("cli.run", cli.run)),
        (cli, "run_ensemble",
         rec.wrap("master_sim.run_ensemble", cli.run_ensemble, _ensemble_work)),
        (cli, "uniform_sampler", rec.wrap("master_sim.init_sample", cli.uniform_sampler)),
        (cli, "shifted_sampler", sampler_factory(cli.shifted_sampler)),
        (cli, "sheared_sampler", sampler_factory(cli.sheared_sampler)),
        (cli, "tagged_shift_sampler", sampler_factory(cli.tagged_shift_sampler)),
        (cli, "sample_uniform_batch",
         rec.wrap("geometry.sample", cli.sample_uniform_batch, _sample_work)),
        (cli, "gap_scan", rec.wrap("spectral.gap_scan", cli.gap_scan)),
        (cli, "radial_ks_statistic", rec.wrap("observables.ks", cli.radial_ks_statistic)),
        (cli, "decay_rate_fit", rec.wrap("observables.fit", cli.decay_rate_fit)),
        (cli, "stationary_marginal_eval",
         rec.wrap("kinetic_limits.marginal_eval", cli.stationary_marginal_eval)),
        (cli, "maxwellian_eval",
         rec.wrap("kinetic_limits.marginal_eval", cli.maxwellian_eval)),
        (master_sim, "sample_uniform_batch",
         rec.wrap("geometry.sample", master_sim.sample_uniform_batch, _sample_work)),
        (master_sim, "renormalize_batch",
         rec.wrap("geometry.renorm", master_sim.renormalize_batch, _array_work)),
        (master_sim, "tangent_project_batch",
         rec.wrap("geometry.project", master_sim.tangent_project_batch, _array_work)),
        (spectral, "sample_uniform_batch",
         rec.wrap("geometry.sample", spectral.sample_uniform_batch, _sample_work)),
        (spectral, "rayleigh_quotient_mc",
         rec.wrap("spectral.rayleigh", spectral.rayleigh_quotient_mc, _rayleigh_work)),
        (observables, "get_observable",
         lambda name: rec.wrap("observables.record", get_observable(name))),
        # cli imports these lazily from the module at call time
        *[(kinetic_limits, name,
           rec.wrap("kinetic_limits.entropy", getattr(kinetic_limits, name)))
          for name in ("entropy_grid_edges", "velocity_histogram3d", "relative_entropy")],
    ]
    saved = []
    try:
        for module, attr, wrapper in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# same-run machine probes


def _median_time(fn) -> float:
    times = []
    for _ in range(Probes.REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probes:
    """Times of one ``np.add`` and one ``standard_normal`` draw, per shape
    (medians of REPEATS calls)."""

    REPEATS = 7

    def __init__(self):
        self._add: dict[tuple, float] = {}

    def add_s(self, shape) -> float:
        shape = tuple(shape)
        if shape not in self._add:
            a = np.ones(shape)
            b = np.ones(shape)
            self._add[shape] = _median_time(lambda: np.add(a, b))
        return self._add[shape]

    @staticmethod
    def normal_s(shape) -> float:
        rng = np.random.default_rng(0)
        return _median_time(lambda: rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition


def _rounds_per_step(n: int) -> int:
    return n - 1 if n % 2 == 0 else n


def layer_metrics(rec: SpanRecorder, wall_s: float, probes: Probes,
                  normal_ns: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Metrics of a layer that did no work in the repetition are left out.
    """
    spans = rec.spans
    self_t = rec.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, _, _), s in zip(spans, self_t):
        total[name] += end - start
        own[name] += s
        calls[name] += 1

    def work_sum(name, key):
        return sum(w[key] for n, _, _, _, w in spans if n == name)

    m: dict[str, float] = {
        "cli.parse_s": total["cli.parse"],
        "cli.self_s": own["cli.run"],
        "geometry.sample_s": total["geometry.sample"],
        "geometry.sample_calls": calls["geometry.sample"],
        "geometry.sample_ns_per_coord":
            1e9 * total["geometry.sample"] / work_sum("geometry.sample", "coords"),
        "geometry.project_calls": calls["geometry.project"],
        "geometry.renorm_calls": calls["geometry.renorm"],
        "observables.self_s": sum(v for k, v in own.items()
                                  if k.startswith("observables.")),
        "observables.record_calls": calls["observables.record"],
        "trace.span_coverage":
            sum(s for (name, *_), s in zip(spans, self_t) if name != "cli.run") / wall_s,
    }
    for op in ("project", "renorm"):
        name = f"geometry.{op}"
        if calls[name]:
            m[f"{name}_s"] = total[name]
            m[f"{name}_ns_per_coord"] = 1e9 * total[name] / work_sum(name, "coords")
            m[f"{name}_array_passes"] = statistics.mean(
                (e - s) / probes.add_s(w["shape"])
                for n, s, e, _, w in spans if n == name)

    runs = [(i, sp) for i, sp in enumerate(spans) if sp[0] == "master_sim.run_ensemble"]
    if runs:
        m["master_sim.self_s"] = own["master_sim.run_ensemble"] + own["master_sim.init_sample"]
    pair = [(i, sp) for i, sp in runs if sp[4]["process"] == "pair"]
    sphere = [(i, sp) for i, sp in runs if sp[4]["process"] == "sphere"]
    updates = sum(w["replicas"] * w["steps"] * w["particles"] * (w["particles"] - 1) // 2
                  for _, (_, _, _, _, w) in pair)
    rounds = sum(w["steps"] * _rounds_per_step(w["particles"])
                 for _, (_, _, _, _, w) in pair)
    m["master_sim.pair_updates"] = updates
    m["master_sim.pair_rounds"] = rounds
    if updates:
        pair_self = sum(self_t[i] for i, _ in pair)
        m["master_sim.pair_ns_per_update"] = 1e9 * pair_self / updates
        m["master_sim.pair_us_per_round"] = 1e6 * pair_self / rounds
    if sphere:
        # step time: the run minus its initial sample and observable records
        step_s = 0.0
        coord_steps = 0
        for i, (_, start, end, _, w) in sphere:
            aside = sum(e - s for n, s, e, p, _ in spans
                        if p == i and n in ("master_sim.init_sample", "observables.record"))
            step_s += end - start - aside
            coord_steps += w["replicas"] * 3 * w["particles"] * w["steps"]
        m["master_sim.sphere_ns_per_coord"] = 1e9 * step_s / coord_steps
        m["master_sim.sphere_step_over_draw"] = m["master_sim.sphere_ns_per_coord"] / normal_ns

    ray = [w for n, _, _, _, w in spans if n == "spectral.rayleigh"]
    m["spectral.samples"] = sum(w["samples"] for w in ray)
    if ray:
        m["spectral.rayleigh_s"] = total["spectral.rayleigh"]
        m["spectral.rayleigh_self_s"] = own["spectral.rayleigh"]
        m["spectral.rayleigh_ns_per_sample"] = 1e9 * total["spectral.rayleigh"] / m["spectral.samples"]
        # the estimator reads particles 1 and 2 of each N-particle sample
        m["spectral.sampled_coord_use_frac"] = (
            sum(6 * w["samples"] for w in ray)
            / sum(3 * w["particles"] * w["samples"] for w in ray))

    for name in ("observables.record", "observables.fit", "observables.ks",
                 "kinetic_limits.entropy", "kinetic_limits.marginal_eval"):
        if calls[name]:
            m[f"{name}_s"] = total[name]
    return m


def per_call_stats(recorders: list[SpanRecorder], min_calls: int = 100) -> dict:
    """Median and the highest percentile with at least ten calls beyond it,
    for every span name with at least ``min_calls`` calls."""
    durations = defaultdict(list)
    for rec in recorders:
        for name, start, end, _, _ in rec.spans:
            durations[name].append(end - start)
    out = {}
    for name, ds in sorted(durations.items()):
        if len(ds) < min_calls:
            continue
        ds.sort()
        pct = next(p for p in (99.9, 99.0, 90.0) if len(ds) * (100 - p) / 100 >= 10)
        out[name] = {"n": len(ds), "median_s": statistics.median(ds), "pct": pct,
                     "pct_s": ds[min(len(ds) - 1, math.ceil(len(ds) * pct / 100) - 1)]}
    return out
