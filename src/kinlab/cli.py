"""Experiment runner: every study is a subcommand driven by a key=value
config file, writing a run-manifest JSON plus CSV tables.

Subcommands: spectrum, sample, sim-sphere, sim-bp, rayleigh, gap-scan,
marginal-compare, fpe-moments, chaos. Flags: --config PATH, --out DIR,
--seed SEED (an integer >= 0, written into the plan as its ``seed``, so
the manifest's plan reruns the run). A subcommand is one ``COMMANDS``
entry: its config schema and the builder that makes its run objects at
parse time and returns the runner that ``run`` calls. ``run(plan,
out_dir)`` is the one way to run a plan, at the plan's own seed.

Config format: UTF-8 lines "key = value", with or without a leading
byte-order mark; '#' starts a comment; unknown keys are rejected and all
violations are reported together with their line numbers. Identical
plan + seed reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, kinetic_limits, observables
from .geometry import (
    ConservationMode,
    ManifoldSpec,
    NonFiniteStateError,
    block_states,
    check_n_states,
    constraint_errors,
    max_pair_separation_sq,
    sample_uniform_batch,
)
from .kinetic_limits import (
    LimitParams,
    check_covariance,
    check_time,
    fpe_moment_flow,
    landau_moment_flow,
    maxwellian_eval,
    radial_probe,
    stationary_marginal_eval,
)
from .master_sim import (
    KernelSpec,
    SimConfig,
    check_shiftable,
    run_ensemble,
    sheared_sampler,
    shifted_sampler,
    tagged_shift_sampler,
    uniform_sampler,
)
from .observables import (
    check_marginal_args,
    decay_rate_fit,
    chaos_distance,
    ks_quantile_99,
    one_marginal,
    pair_marginal,
    radial_ks_statistic,
)
from .spectral import check_mc_budget, check_scan_n_list, gap_scan, \
    lambda1_bound, rayleigh_quotient_mc, spectrum_table, standard_trial_function


class ConfigError(ValueError):
    """Carries the full list of config violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------------------
# config schema


def _parse_int(s):
    return int(s, 0)


def check_seed(s):
    """A seed is an integer >= 0: the entropy of the run's numpy
    SeedSequence. The one parser of every ``seed`` key and of --seed."""
    seed = int(s, 0)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def _parse_float(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"need a finite number, got {s.strip()!r}")
    return x


def _parse_vec3(s):
    parts = [_parse_float(x) for x in s.split(",")]
    if len(parts) != 3:
        raise ValueError("need three comma-separated numbers")
    return parts


def _parse_int_list(s):
    return [_parse_int(x) for x in s.split(",")]


def _parse_float_list(s):
    return [_parse_float(x) for x in s.split(",")]


def _one_of(choices):
    def parse(s):
        if s not in choices:
            raise ValueError(f"use one of {', '.join(choices)}")
        return s
    return parse


_C1, _C4 = ConservationMode.ENERGY_ONLY, ConservationMode.ENERGY_MOMENTUM
_MODES = {"energy": _C1, "energy-momentum": _C4}
# init name -> sampler factory of init_strength; the factories are looked up
# at call time, so a caller may replace them on this module
_INITS = {
    "uniform": lambda s: uniform_sampler,
    "shift": lambda s: shifted_sampler(s),
    "shear": lambda s: sheared_sampler(s),
    "tagged-shift": lambda s: tagged_shift_sampler(s),
}


@dataclass
class Field:
    parse: object
    default: object = None
    required: bool = False


_SEED = Field(check_seed, default=12345)
_MANIFOLD = {
    "n_particles": Field(_parse_int, required=True),
    "mode": Field(_one_of(_MODES), default="energy-momentum"),
    "eps": Field(_parse_float, default=1.0),
    "u": Field(_parse_vec3, default=[0.0, 0.0, 0.0]),
}
_SIM = {
    **_MANIFOLD,
    "dt": Field(_parse_float, required=True),
    "t_end": Field(_parse_float, required=True),
    "n_replicas": Field(_parse_int, default=1024),
    "record_every": Field(_parse_int, default=1),
    "observables": Field(str, default="energy_per_particle"),
    "init": Field(_one_of(_INITS), default="uniform"),
    "init_strength": Field(_parse_float, default=0.0),
    "fit_observable": Field(str, default=""),
    "entropy_times": Field(_parse_float_list, default=[]),
    "entropy_bins": Field(_parse_int, default=20),
}


@dataclass
class ExperimentPlan:
    """Validated experiment: command kind, typed parameters, and the runner
    ``rng -> (tables, extras)`` that the command's builder made from them."""

    command: str
    params: dict = field(default_factory=dict)
    runner: object = None


def parse_config(text: str, command: str | None = None) -> ExperimentPlan:
    """Parse and validate a config, reporting ALL violations at once.

    ``command`` (usually the CLI subcommand) may also be given by a
    ``command =`` line in the config; if both are present they must agree.
    """
    violations: list[str] = []
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            violations.append(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {entries[key][0]})"
            )
            continue
        entries[key] = (lineno, value)

    if "command" in entries:
        lineno, value = entries.pop("command")
        if command is None:
            command = value
        elif value != command:
            violations.append(
                f"line {lineno}: config command {value!r} does not match "
                f"subcommand {command!r}"
            )
    if command is None:
        violations.append("no command given (subcommand or 'command =' line)")
        raise ConfigError(violations)
    if command not in COMMANDS:
        violations.append(f"unknown command {command!r}; known: {sorted(COMMANDS)}")
        raise ConfigError(violations)

    schema, builder = COMMANDS[command]
    params: dict = {}
    for key, (lineno, value) in entries.items():
        if key not in schema:
            violations.append(
                f"line {lineno}: unknown key {key!r} for command {command!r}"
            )
            continue
        try:
            params[key] = schema[key].parse(value)
        except ValueError as exc:
            violations.append(f"line {lineno}: bad value for {key!r}: {exc}")
    for key, fld in schema.items():
        if key in entries:   # parsed, or reported above
            continue
        if fld.required:
            violations.append(f"missing required key {key!r}")
        else:
            params[key] = fld.default

    def build(keys, make, *needs):
        """Return ``make()``, or None when one of ``keys`` failed to parse,
        an object it ``needs`` failed, or it raises ValueError; that error
        is recorded once, citing the lines of ``keys``."""
        if any(k not in params for k in keys) or any(n is None for n in needs):
            return None
        try:
            return make()
        except ValueError as exc:
            cited = sorted((entries[k][0], k) for k in keys if k in entries)
            msg = ", ".join(f"line {n} ({k})" for n, k in cited) + f": {exc}"
            if msg not in violations:
                violations.append(msg)
            return None

    runner = builder(params, build)
    if violations:
        raise ConfigError(violations)
    return ExperimentPlan(command=command, params=params, runner=runner)


# ---------------------------------------------------------------------------
# output helpers


def _cell(x) -> str:
    """One table cell: a float to 17 significant digits, anything else as
    its ``str``, which must be nonempty and free of , " CR and LF (the
    characters that CSV quotes)."""
    if isinstance(x, (float, np.floating)):
        return "%.17g" % x
    text = str(x)
    if not text or any(c in text for c in ',"\r\n'):
        raise ValueError(f"table cell {text!r} would need CSV quoting")
    return text


def _column(cells) -> tuple[str, list]:
    """The %-format of one column's cells and the values it formats: floats
    alone format as ``%.17g``, ints alone as ``%s`` (their ``str``), and
    any other column is formatted cell by cell by ``_cell``."""
    kinds = set(map(type, cells))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.17g", cells
    if kinds <= {int}:
        return "%s", cells
    return "%s", [_cell(x) for x in cells]


def _write_table(path: Path, header: list[str], rows: list[list]):
    """The one table format: RFC-4180 CSV with CRLF line ends and floats to
    17 significant digits (they round-trip). Each column picks its format
    once, every cell is formatted once by one % of the whole body, and the
    text is written in one go. No cell is quoted: one that would need it
    raises ValueError, as does an empty header or a row whose length differs
    from the header's."""
    if not header or set(map(len, rows)) - {len(header)}:
        raise ValueError("every row must have the header's cells, at least one")
    specs, columns = zip(*map(_column, zip(*rows))) if rows else ((), ())
    body = "".join([",".join(specs) + "\r\n"] * len(rows))
    text = ",".join(map(_cell, header)) + "\r\n" + body % tuple(
        chain.from_iterable(zip(*columns)))
    with open(path, "w", newline="") as fh:
        fh.write(text)


@lru_cache(maxsize=None)
def _code_version() -> str:
    """``git describe`` of the source tree, looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except Exception:
        pass
    return f"kinlab-{__version__}"


def _series_rows(result, names):
    header = ["time"]
    for name in names:
        header += [f"{name}_mean", f"{name}_stderr"]
    rows = []
    for i, t in enumerate(result.series[names[0]].times):
        row = [t]
        for name in names:
            s = result.series[name]
            row += [s.means[i], s.stderrs[i]]
        rows.append(row)
    return header, rows


# ---------------------------------------------------------------------------
# commands: each builder gets the parsed params and the violation-recording
# ``build`` helper of parse_config, builds the run objects through ``build``
# and returns the runner rng -> (tables, extras); tables: name -> (header, rows)


def _manifold(p, build):
    return build(("n_particles", "mode", "eps", "u"), lambda: ManifoldSpec(
        p["n_particles"], _MODES[p["mode"]], eps=p["eps"], u=np.asarray(p["u"])))


def _sim(p, build, pair=False):
    kernel = build(("gamma",), lambda: KernelSpec(p["gamma"])) if pair else None
    spec = _manifold(p, build)
    if pair:
        build(("n_particles", "eps", "gamma"), lambda: kernel.check_weights(spec),
              kernel, spec)
    config = build(("dt", "t_end", "n_replicas", "record_every"),
                   lambda: SimConfig(dt=p["dt"], t_end=p["t_end"],
                                     n_replicas=p["n_replicas"], kernel=kernel,
                                     record_every=p["record_every"]),
                   *((kernel,) if pair else ()))
    names = [n.strip() for n in p["observables"].split(",") if n.strip()]

    def known_names():
        if not names:
            raise ValueError("need at least one observable")
        for i, name in enumerate(names):
            observables.get_observable(name)   # raises on a name not in the catalog
            if name in names[:i]:
                raise ValueError(f"observable {name!r} is listed twice")
        return names

    obs_names = build(("observables",), known_names)
    sampler = build(("init", "init_strength"),
                    lambda: _INITS[p["init"]](p["init_strength"]))
    if p.get("init") == "shift":
        build(("init", "mode"), lambda: check_shiftable(spec), spec)
    build(("entropy_times", "dt", "t_end"),
          lambda: config.snapshot_steps(p["entropy_times"]), config)
    limit = edges = None
    if p.get("entropy_times") and spec is not None:
        limit = LimitParams(eps0=spec.eps0, u=spec.u)
        edges = build(("entropy_bins",), lambda: (
            kinetic_limits.entropy_grid_edges(limit, bins=p["entropy_bins"])))
    fit_name = p["fit_observable"]

    def recorded_fit():
        if fit_name not in names:
            raise ValueError(f"fit_observable {fit_name!r} is not one of {names}")

    if fit_name:
        build(("fit_observable", "observables"), recorded_fit)

    def run_sim(rng):
        result = run_ensemble(spec, config, obs_names, rng=rng, initial_sampler=sampler,
                              snapshot_times=p["entropy_times"])
        tables = {"series": _series_rows(result, obs_names)}
        extras = {}
        if p["entropy_times"]:
            ent_rows = []
            for snap in result.snapshots:
                h = kinetic_limits.velocity_histogram3d(snap.velocities, edges)
                ent_rows.append([snap.time,
                                 kinetic_limits.relative_entropy(h, edges, limit)])
            tables["entropy"] = (["time", "relative_entropy"], ent_rows)
        if fit_name:
            # a fit that cannot be made is reported like a poor one: the tables stay
            try:
                fit = decay_rate_fit(result.series[fit_name])
                report = {"rate": fit.rate, "rate_stderr": fit.rate_stderr,
                          "ci": [fit.ci_low, fit.ci_high], "r_squared": fit.r_squared,
                          "low_r2_warning": fit.low_r2_warning}
            except ValueError as exc:
                report = {"error": str(exc)}
            extras["decay_fit"] = {"observable": fit_name, **report}
        return tables, extras

    return run_sim


def _spectrum(p, build):
    spec = _manifold(p, build)
    table = build(("j_max",), lambda: spectrum_table(spec, p["j_max"]), spec)
    return lambda rng: ({"spectrum": (["j", "unscaled", "scaled", "limit"],
                                      [list(row) for row in table])}, {})


def _sample(p, build):
    spec = _manifold(p, build)
    build(("n_samples",), lambda: check_n_states(p["n_samples"]))

    def run_sample(rng):
        n, n_states = spec.n_particles, p["n_samples"]
        block = block_states(n)   # drawn and scanned at once
        rows = []
        for start in range(0, n_states, block):
            b = sample_uniform_batch(spec, min(block, n_states - start), rng)
            ratio = max_pair_separation_sq(b) / (4 * n * spec.eps)
            energy_err, mom_err = constraint_errors(spec, b)
            rows += [[start + i, *errs] for i, errs in enumerate(
                zip(energy_err.tolist(), mom_err.tolist(), ratio.tolist()))]
        header = ["sample", "energy_rel_error", "momentum_error",
                  "max_pair_sep_sq_over_4Neps"]
        return {"samples": (header, rows)}, \
            {"max_pair_sep_sq_over_4Neps": float(max(row[3] for row in rows))}

    return run_sample


def _rayleigh(p, build):
    kernel = build(("gamma",), lambda: KernelSpec(p["gamma"]))
    spec = build(("n_particles",), lambda: ManifoldSpec(p["n_particles"], _C4, eps=1.0))
    build(("n_particles", "gamma"), lambda: kernel.check_weights(spec), kernel, spec)
    trial = build(("n_particles",), lambda: standard_trial_function(p["n_particles"]),
                  spec)
    build(("n_samples",), lambda: check_mc_budget(p["n_samples"]))

    def run_rayleigh(rng):
        n = spec.n_particles
        est, err = rayleigh_quotient_mc(spec, trial, kernel, p["n_samples"], rng)
        rows = [[n, est, err, lambda1_bound(n)]]
        return {"rayleigh": (["N", "estimate", "stderr", "bound"], rows)}, \
            {"estimate": est, "stderr": err}

    return run_rayleigh


def _gap_scan(p, build):
    kernel = build(("gamma",), lambda: KernelSpec(p["gamma"]))
    build(("n_list",), lambda: check_scan_n_list(p["n_list"]))
    specs = [build(("n_list",), lambda n=n: ManifoldSpec(n, _C4, eps=1.0))
             for n in p.get("n_list", [])]
    build(("n_list", "gamma"),
          lambda: kernel.check_weights(max(specs, key=lambda s: s.n_particles)),
          kernel, *specs)
    build(("n_samples",), lambda: check_mc_budget(p["n_samples"]))

    def run_gap_scan(rng):
        res = gap_scan(p["n_list"], kernel, p["n_samples"], rng)
        rows = [[n, e, s, lambda1_bound(n)] for n, e, s in
                zip(p["n_list"], res.estimates, res.stderrs)]
        extras = {"exponent": res.exponent, "exponent_stderr": res.exponent_stderr}
        return {"gap_scan": (["N", "estimate", "stderr", "bound"], rows)}, extras

    return run_gap_scan


# Speeds at which the sup-norm table compares each marginal to the Maxwellian.
_RADIAL_POINTS = 512


def _marginal_compare(p, build):
    spec = build(("n_particles", "eps"),
                 lambda: ManifoldSpec(p["n_particles"], _C1, eps=p["eps"]))
    specs = [build(("n_list", "eps"), lambda n=n: ManifoldSpec(n, _C1, eps=p["eps"]))
             for n in p.get("n_list", [])]
    limit = build(("eps",), lambda: LimitParams(eps0=p["eps"]), spec)
    build(("n_samples", "n_particles"),
          lambda: check_n_states(p["n_samples"] // p["n_particles"]), spec)

    def run_marginal_compare(rng):
        velocities = sample_uniform_batch(spec, p["n_samples"] // spec.n_particles, rng)
        ks, pooled = radial_ks_statistic(velocities, spec)
        ks_rows = [[pooled, ks, ks_quantile_99(pooled)]]
        sup_rows = []
        for s in specs:
            v = radial_probe(s, _RADIAL_POINTS)
            fstat = stationary_marginal_eval(s, 1, v)
            fm = maxwellian_eval(limit, v[:, 0, :])
            sup_rows.append([s.n_particles, float(np.max(np.abs(fstat - fm)))])
        return {
            "ks": (["n_pooled", "ks_statistic", "ks_quantile_99"], ks_rows),
            "supnorm": (["N", "supnorm_distance_to_maxwellian"], sup_rows),
        }, {"ks_statistic": ks}

    return run_marginal_compare


def _fpe_moments(p, build):
    if p.get("flow") == "landau":   # reads neither eps0 nor u
        flow = landau_moment_flow
    else:
        flow = build(("eps0", "u"), lambda: partial(
            fpe_moment_flow, LimitParams(p["eps0"], u=np.asarray(p["u"]))))

    def s0():
        s = np.diag(p["s0_diag"]).astype(float)
        off = p["s0_offdiag"]
        s[0, 1] = s[1, 0] = off[0]
        s[0, 2] = s[2, 0] = off[1]
        s[1, 2] = s[2, 1] = off[2]
        return check_covariance(s)

    cov = build(("s0_diag", "s0_offdiag"), s0)
    for t in p.get("t_list", []):
        build(("t_list",), lambda t=t: check_time(t))

    def run_fpe_moments(rng):
        rows = []
        for t in p["t_list"]:
            st = flow(p["m0"], cov, t)
            c = st.centered
            rows.append([t, *st.mean, c[0, 0], c[1, 1], c[2, 2],
                         c[0, 1], c[0, 2], c[1, 2]])
        header = ["t", "m1", "m2", "m3", "S11", "S22", "S33", "S12", "S13", "S23"]
        return {"moments": (header, rows)}, {}

    return run_fpe_moments


def _chaos(p, build):
    kernel = build(("gamma",), lambda: KernelSpec(p["gamma"]))
    specs, configs = [], []
    for n in p.get("n_list", []):
        spec = build(("n_list", "eps"), lambda n=n: ManifoldSpec(n, _C4, eps=p["eps"]))
        specs.append(spec)
        configs.append(build(
            ("n_list", "pair_samples", "dt", "t_end"),
            lambda n=n: SimConfig(
                dt=p["dt"], t_end=p["t_end"],
                n_replicas=max(8, int(math.ceil(p["pair_samples"] / (n * (n - 1))))),
                kernel=kernel),
            spec, kernel))

    # the weights grow with N for gamma > -2 and are largest at the
    # cutoff below it, where N does not enter
    build(("n_list", "eps", "gamma"),
          lambda: kernel.check_weights(max(specs, key=lambda s: s.n_particles)),
          kernel, *specs)

    def grid():
        check_marginal_args(pair_bins=p["bins"])   # before the edges are built
        sigma = LimitParams(eps0=p["eps"]).sigma
        return np.linspace(-4 * sigma, 4 * sigma, p["bins"] + 1)

    edges = build(("bins",), grid, *specs)
    build(("pair_samples",), lambda: check_marginal_args(n_pairs=p["pair_samples"]))

    def run_chaos(rng):
        rows = []
        # the law starts uniform at u = 0 and the pair kicks are rotation
        # equivariant, so the three velocity axes share one law; axis 1 is
        # read. One stream: each N's simulation, then its pair subsample
        for spec, config in zip(specs, configs):
            result = run_ensemble(spec, config, [], rng=rng, snapshot_times=[p["t_end"]])
            velocities = result.snapshots[-1].velocities
            h2 = pair_marginal(velocities, edges, 0, p["pair_samples"], rng=rng)
            h1 = one_marginal(velocities, edges, 0)
            rows.append([spec.n_particles, p["t_end"], chaos_distance(h2, h1),
                         p["pair_samples"]])
        return {"chaos": (["N", "t", "l1_distance", "n_pairs"], rows)}, {}

    return run_chaos


# command name -> (config schema, builder); every schema ends with the run's seed
COMMANDS: dict[str, tuple[dict[str, Field], object]] = {
    "spectrum": ({**_MANIFOLD, "j_max": Field(_parse_int, default=4)}, _spectrum),
    "sample": ({**_MANIFOLD, "n_samples": Field(_parse_int, default=1000)}, _sample),
    "sim-sphere": (_SIM, _sim),
    "sim-bp": ({**_SIM, "gamma": Field(_parse_float, required=True)},
               partial(_sim, pair=True)),
    "rayleigh": ({"n_particles": Field(_parse_int, required=True),
                  "gamma": Field(_parse_float, default=-3.0),
                  "n_samples": Field(_parse_int, default=100000)}, _rayleigh),
    "gap-scan": ({"n_list": Field(_parse_int_list, required=True),
                  "gamma": Field(_parse_float, default=-3.0),
                  "n_samples": Field(_parse_int, default=100000)}, _gap_scan),
    "marginal-compare": ({"n_particles": Field(_parse_int, required=True),
                          "eps": Field(_parse_float, default=1.0),
                          "n_samples": Field(_parse_int, default=1000000),
                          "n_list": Field(_parse_int_list, default=[8, 32, 128])},
                         _marginal_compare),
    "fpe-moments": ({"flow": Field(_one_of(("fpe", "landau")), default="fpe"),
                     "eps0": Field(_parse_float, default=1.0),
                     "u": Field(_parse_vec3, default=[0.0, 0.0, 0.0]),
                     "m0": Field(_parse_vec3, default=[0.0, 0.0, 0.0]),
                     "s0_diag": Field(_parse_vec3, default=[1.0, 1.0, 1.0]),
                     "s0_offdiag": Field(_parse_vec3, default=[0.0, 0.0, 0.0]),
                     "t_list": Field(_parse_float_list, required=True)},
                    _fpe_moments),
    "chaos": ({"n_list": Field(_parse_int_list, default=[8, 32, 128]),
               "eps": Field(_parse_float, default=1.0),
               "gamma": Field(_parse_float, default=-3.0),
               "dt": Field(_parse_float, default=0.004),
               "t_end": Field(_parse_float, default=0.4),
               "pair_samples": Field(_parse_int, default=1000000),
               "bins": Field(_parse_int, default=16)}, _chaos),
}
COMMANDS = {name: ({**schema, "seed": _SEED}, builder)
            for name, (schema, builder) in COMMANDS.items()}


# ---------------------------------------------------------------------------
# driver


def run(plan: ExperimentPlan, out_dir: str | Path) -> dict:
    """Execute a validated plan at its own seed; writes the CSV tables and
    the manifest, and returns the manifest."""
    seed = plan.params["seed"]
    # the one place a seed becomes a Generator: every draw of the run
    # comes from this SFC64 stream (a negative seed raises before any
    # output); SFC64 feeds numpy's normal and gamma samplers faster than
    # PCG64, and each sampler keeps its exact law
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tables, extras = plan.runner(rng)

    for name, (header, rows) in tables.items():
        _write_table(out / f"{name}.csv", header, rows)

    manifest = {
        "command": plan.command,
        "plan": {"command": plan.command, "params": plan.params},
        "seed": seed,
        "bit_generator": type(rng.bit_generator).__name__,
        "version": _code_version(),
        "outputs": [f"{name}.csv" for name in tables],
        "extras": extras,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, default=str) + "\n")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinlab",
        description="Reproducible experiments on velocity-sphere diffusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
    args = parser.parse_args(argv)

    try:
        # one list: the config's violations, then --seed's, which is
        # checked whatever the config holds
        violations, seed = [], None
        try:
            text = Path(args.config).read_text(encoding="utf-8-sig")
            plan = parse_config(text, args.command)
        except (OSError, UnicodeDecodeError) as exc:
            violations.append(f"--config: cannot read {args.config}: {exc}")
        except ConfigError as exc:
            violations += exc.violations
        if args.seed is not None:
            try:
                seed = check_seed(args.seed)
            except ValueError as exc:
                violations.append(f"--seed: {exc}")
        if violations:
            raise ConfigError(violations)
        if seed is not None:
            plan.params["seed"] = seed
        out_dir = args.out if args.out is not None else f"out-{args.command}"
        run(plan, out_dir)
    except ConfigError as exc:
        print(json.dumps({"error": "invalid config",
                          "violations": exc.violations}, indent=1))
        return 2
    except Exception as exc:  # noqa: BLE001 - machine-readable failure contract
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonFiniteStateError):
            report.update(step=exc.step, replicas=exc.replicas)
        print(json.dumps(report))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
