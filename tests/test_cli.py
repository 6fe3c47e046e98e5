import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinlab import cli, geometry
from kinlab.cli import ConfigError, main, parse_config, run
from oracles import rayleigh_quotient_exact, write_table_csv

RECIPES = Path(__file__).resolve().parents[1] / "recipes"


SPECTRUM_CFG = """
# exact sphere spectrum
n_particles = 16
mode = energy
eps = 1.0
j_max = 4
"""


def _state_json(state):
    # a bit generator's state as text; SFC64's holds a numpy array
    return json.dumps(state, sort_keys=True, default=lambda a: a.tolist())


def _flags_of_main(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


def test_readme_lists_every_command_and_config_key(capsys):
    readme = (RECIPES.parent / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    missing = [f"{command}: {key}" for command, (schema, _) in cli.COMMANDS.items()
               for key in (command, *schema) if f"`{key}`" not in section]
    assert not missing, missing
    # the Flags sentence names exactly the flags every subcommand takes
    sentence = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", sentence))
    for command in cli.COMMANDS:
        assert _flags_of_main(command, capsys) == documented, command


def test_parse_minimal_fills_defaults():
    plan = parse_config(SPECTRUM_CFG, "spectrum")
    assert plan.command == "spectrum"
    assert plan.params["j_max"] == 4
    assert plan.params["seed"] == 12345
    assert plan.params["u"] == [0.0, 0.0, 0.0]


def test_parse_reports_all_violations():
    bad = "n_particles = 8\nfoo = 1\nbar = 2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad, "spectrum")
    msgs = exc.value.violations
    assert len(msgs) == 2
    assert "line 2" in msgs[0] and "foo" in msgs[0]
    assert "line 3" in msgs[1] and "bar" in msgs[1]


def test_parse_duplicate_key_names_both_lines():
    bad = "n_particles = 8\neps = 1.0\neps = 2.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad, "spectrum")
    msg = exc.value.violations[0]
    assert "line 3" in msg and "line 2" in msg and "eps" in msg


def test_parse_eps0_constraint_named():
    bad = "n_particles = 8\nmode = energy-momentum\neps = 0.3\nu = 1,0,0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad, "sample")
    assert any("eps0" in v for v in exc.value.violations)


def test_parse_command_mismatch():
    with pytest.raises(ConfigError):
        parse_config("command = sample\nn_particles = 4\n", "spectrum")


def test_spectrum_csv_values(tmp_path):
    plan = parse_config(SPECTRUM_CFG, "spectrum")
    manifest = run(plan, tmp_path)
    text = (tmp_path / "spectrum.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "j,unscaled,scaled,limit"
    row1 = lines[2].split(",")
    assert int(row1[0]) == 1
    assert float(row1[2]) == pytest.approx(1.46875, abs=0)
    assert manifest["command"] == "spectrum"
    assert (tmp_path / "manifest.json").exists()


def test_run_determinism_byte_identical(tmp_path):
    cfg = ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.05\n"
           "n_replicas = 8\nobservables = sum_v1\nseed = 7\n")
    plan = parse_config(cfg, "sim-sphere")
    run(plan, tmp_path / "a")
    run(plan, tmp_path / "b")
    assert (tmp_path / "a/series.csv").read_bytes() == \
        (tmp_path / "b/series.csv").read_bytes()


def test_seed_override_changes_output(tmp_path):
    cfg = ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.05\n"
           "n_replicas = 8\nobservables = sum_v1\nseed = 7\n")
    plan = parse_config(cfg, "sim-sphere")
    run(plan, tmp_path / "a")
    plan.params["seed"] = 8
    manifest = run(plan, tmp_path / "c")
    assert manifest["seed"] == 8
    assert (tmp_path / "a/series.csv").read_bytes() != \
        (tmp_path / "c/series.csv").read_bytes()


def test_run_draws_from_the_sfc64_stream_of_its_seed(tmp_path):
    # cli.run hands its runner Generator(SFC64(SeedSequence(seed))), before
    # any draw, and the manifest names that bit generator
    plan = parse_config("n_particles = 4\nmode = energy\neps = 1.0\n"
                        "n_samples = 3\nseed = 29\n", "sample")
    handed = []

    def capturing(rng):
        handed.append((rng, rng.bit_generator.state))
        return runner(rng)

    runner, plan.runner = plan.runner, capturing
    manifest = run(plan, tmp_path)
    [(rng, state)] = handed
    assert isinstance(rng.bit_generator, np.random.SFC64)
    expected = np.random.SFC64(np.random.SeedSequence(29)).state
    assert _state_json(state) == _state_json(expected)
    assert manifest["bit_generator"] == "SFC64"


def test_negative_seed_to_run_raises_before_output(tmp_path):
    plan = parse_config(SPECTRUM_CFG, "spectrum")
    plan.params["seed"] = -1
    with pytest.raises(ValueError):
        run(plan, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_recorded_in_the_plan(tmp_path):
    # the manifest's plan reruns the run: --seed replaces the config's seed
    config = ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.05\n"
              "n_replicas = 8\nobservables = sum_v1\nseed = {}\n")
    for name, seed in (("flag", 5), ("config", 9)):
        (tmp_path / f"{name}.cfg").write_text(config.format(seed))
    assert main(["sim-sphere", "--config", str(tmp_path / "flag.cfg"),
                 "--out", str(tmp_path / "flag"), "--seed", "9"]) == 0
    assert main(["sim-sphere", "--config", str(tmp_path / "config.cfg"),
                 "--out", str(tmp_path / "config")]) == 0
    manifest = json.loads((tmp_path / "flag/manifest.json").read_text())
    assert manifest["seed"] == manifest["plan"]["params"]["seed"] == 9
    assert sorted(manifest) == ["bit_generator", "command", "extras", "outputs",
                                "plan", "seed", "version"]
    assert (tmp_path / "flag/series.csv").read_bytes() == \
        (tmp_path / "config/series.csv").read_bytes()


def test_t_end_zero_header_only(tmp_path):
    cfg = ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0\n"
           "n_replicas = 2\nobservables = sum_v1,energy_per_particle\n")
    plan = parse_config(cfg, "sim-sphere")
    run(plan, tmp_path)
    lines = (tmp_path / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("time,sum_v1_mean,sum_v1_stderr")


def test_sim_bp_runs_and_fits(tmp_path):
    cfg = ("n_particles = 8\nmode = energy-momentum\ndt = 0.002\nt_end = 0.3\n"
           "n_replicas = 256\nrecord_every = 10\ngamma = -3\n"
           "observables = sum_v1v2\ninit = shear\ninit_strength = 0.6\n"
           "fit_observable = sum_v1v2\nseed = 3\n")
    plan = parse_config(cfg, "sim-bp")
    manifest = run(plan, tmp_path)
    assert "decay_fit" in manifest["extras"]
    assert manifest["extras"]["decay_fit"]["rate"] > 0


def test_gap_scan_csv_and_manifest(tmp_path):
    cfg = "n_list = 4,8,16\ngamma = -3\nn_samples = 4000\nseed = 11\n"
    plan = parse_config(cfg, "gap-scan")
    manifest = run(plan, tmp_path)
    assert "exponent" in manifest["extras"]
    lines = (tmp_path / "gap_scan.csv").read_text().strip().splitlines()
    assert lines[0] == "N,estimate,stderr,bound"
    assert len(lines) == 4


def test_int_list_items_parse_as_single_ints():
    # every integer key, listed or not, takes the same literals
    plan = parse_config("n_list = 4,0x8,16\ngamma = -3\n", "gap-scan")
    assert plan.params["n_list"] == [4, 8, 16]


def test_fpe_moments_table(tmp_path):
    cfg = ("flow = fpe\neps0 = 1.0\nm0 = 1,0,0\ns0_diag = 0.9,0.6,0.5\n"
           "t_list = 0,0.4620981203732968\n")
    plan = parse_config(cfg, "fpe-moments")
    run(plan, tmp_path)
    lines = (tmp_path / "moments.csv").read_text().strip().splitlines()
    # halving time (2 eps0/3) ln 2 takes m1 from 1 to 1/2 exactly
    assert float(lines[2].split(",")[1]) == pytest.approx(0.5, rel=1e-12)


def test_landau_flow_neither_reads_nor_checks_eps0(tmp_path):
    # eps0 = 0 is outside geometry.EPS_RANGE, but the landau flow never reads it
    tables = []
    for eps0 in ("0", "1"):
        cfg = tmp_path / f"landau_{eps0}.cfg"
        cfg.write_text(f"flow = landau\neps0 = {eps0}\nm0 = 1,0,0\nt_list = 0,0.5\n")
        out = tmp_path / f"out_{eps0}"
        assert main(["fpe-moments", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / "moments.csv").read_bytes())
    assert tables[0] == tables[1]


def test_config_with_byte_order_mark_runs_like_without(tmp_path):
    # some editors save UTF-8 text with a leading byte-order mark
    text = b"n_particles = 16\nmode = energy\nj_max = 4\n"
    tables = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(prefix + text)
        out = tmp_path / f"out_{name}"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        tables.append((out / "spectrum.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("flag", [["--threads", "1"], ["--plot"], ["--format", "json"]])
def test_removed_flags_rejected(flag, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SPECTRUM_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o"), *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(SPECTRUM_CFG)
    assert main(["spectrum", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert main(["spectrum", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 2
    assert main(["spectrum", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_marginal_compare_outputs(tmp_path):
    cfg = "n_particles = 8\neps = 1.0\nn_samples = 40000\nn_list = 8,32\nseed = 2\n"
    plan = parse_config(cfg, "marginal-compare")
    manifest = run(plan, tmp_path)
    ks_lines = (tmp_path / "ks.csv").read_text().strip().splitlines()
    assert ks_lines[0] == "n_pooled,ks_statistic,ks_quantile_99"
    sup_lines = (tmp_path / "supnorm.csv").read_text().strip().splitlines()
    sups = [float(l.split(",")[1]) for l in sup_lines[1:]]
    assert sups[1] < sups[0]


def test_chaos_command_small(tmp_path):
    cfg = ("n_list = 4,8,16\ngamma = -3\ndt = 0.01\nt_end = 0.05\n"
           "pair_samples = 30000\nbins = 8\nseed = 4\n")
    plan = parse_config(cfg, "chaos")
    run(plan, tmp_path)
    lines = (tmp_path / "chaos.csv").read_text().strip().splitlines()
    assert lines[0] == "N,t,l1_distance,n_pairs"
    assert len(lines) == 4


SIM = [("n_particles", "4"), ("mode", "energy"), ("dt", "0.01"),
       ("t_end", "0.05"), ("n_replicas", "8"), ("observables", "sum_v1")]


def _with(base, **changes):
    keys = [k for k, _ in base]
    return [(k, changes.get(k, v)) for k, v in base] + \
        [(k, v) for k, v in changes.items() if k not in keys]


# (command, config lines, one entry per expected violation: a key, or a
# tuple of keys that one violation cites together)
INVALID_CONFIGS = {
    "record_every_zero": ("sim-sphere", _with(SIM, record_every="0"), ["record_every"]),
    "no_replicas": ("sim-sphere", _with(SIM, n_replicas="0"), ["n_replicas"]),
    "t_end_off_grid": ("sim-sphere", _with(SIM, t_end="0.055"), ["t_end"]),
    "unknown_observable": ("sim-sphere", _with(SIM, observables="sum_v1,nope"),
                           ["observables"]),
    "entropy_time_off_grid": ("sim-sphere", _with(SIM, entropy_times="0,0.015"),
                              ["entropy_times"]),
    # off the grid by half a step and by a tenth of one, at a dt far below 1
    "entropy_time_off_a_fine_grid": ("sim-sphere", _with(SIM, dt="1e-12", t_end="1e-11",
                                                         entropy_times="1.5e-12,4.4e-12"),
                                     ["entropy_times"]),
    "fit_not_recorded": ("sim-sphere", _with(SIM, fit_observable="tagged_v1"),
                         ["fit_observable"]),
    "entropy_bins_zero": ("sim-sphere", _with(SIM, entropy_times="0.05", entropy_bins="0"),
                          ["entropy_bins"]),
    # bins^3 = 8e9 cells would ask relative_entropy for about 60 GiB after the run
    "entropy_bins_huge": ("sim-sphere", _with(SIM, entropy_times="0.05", entropy_bins="2000"),
                          ["entropy_bins"]),
    "mode_unknown": ("sim-sphere", _with(SIM, mode="bogus"), ["mode"]),
    "mode_c4": ("sim-sphere", _with(SIM, mode="c4"), ["mode"]),
    "mode_energy_only": ("sim-sphere", _with(SIM, mode="energy-only"), ["mode"]),
    "rayleigh_gamma": ("rayleigh", [("n_particles", "8"), ("gamma", "-6")], ["gamma"]),
    "gap_scan_descending": ("gap-scan", [("n_list", "16,8,4"), ("n_samples", "1000")],
                            ["n_list"]),
    # a list item takes the literals of a single int key, so no leading zero
    "gap_scan_n_list_leading_zero": ("gap-scan", [("n_list", "08,16,32")], ["n_list"]),
    "chaos_single_particle": ("chaos", [("n_list", "1,8"), ("t_end", "0.04")], ["n_list"]),
    "marginal_single_particle": ("marginal-compare",
                                 [("n_particles", "8"), ("n_list", "1,8")], ["n_list"]),
    "two_bad_objects": ("sim-sphere", _with(SIM, record_every="0", observables="nope"),
                        ["record_every", "observables"]),
    "seed_negative": ("sim-sphere", _with(SIM, seed="-1"), ["seed"]),
    "sample_seed_negative": ("sample", [("n_particles", "4"), ("seed", "-1")], ["seed"]),
    # the sup-norm probe size is a constant, not a config key
    "marginal_radial_points_zero": ("marginal-compare", [("n_particles", "8"),
                                    ("n_list", "8,32"), ("radial_points", "0")],
                                    ["radial_points"]),
    "chaos_component_four": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"),
                                       ("component", "4")], ["component"]),
    "chaos_component_zero": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"),
                                       ("component", "0")], ["component"]),
    "chaos_pair_samples_zero": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"),
                                          ("pair_samples", "0")], ["pair_samples"]),
    "chaos_bins_zero": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"), ("bins", "0")],
                        ["bins"]),
    # bins^2 = 1e10 cells would ask pair_marginal for about 75 GiB after a run
    "chaos_bins_huge": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"), ("bins", "100000")],
                        ["bins"]),
    "spectrum_j_max_negative": ("spectrum", [("n_particles", "8"), ("j_max", "-1")],
                                ["j_max"]),
    "fpe_s0_diag_negative": ("fpe-moments", [("t_list", "0,1"), ("s0_diag", "-1,1,1")],
                             ["s0_diag"]),
    "fpe_s0_offdiag_not_psd": ("fpe-moments", [("t_list", "0,1"),
                                               ("s0_offdiag", "2,0,0")], ["s0_offdiag"]),
    # the pair cutoff is the manifold's, not a config key: every value of it,
    # once valid or not, is an unknown key
    "bp_cutoff_negative": ("sim-bp", _with(SIM, gamma="-3", cutoff="-1"), ["cutoff"]),
    "bp_cutoff_zero": ("sim-bp", _with(SIM, gamma="-3", cutoff="0"), ["cutoff"]),
    "bp_cutoff_unknown": ("sim-bp", _with(SIM, gamma="-3", cutoff="1e-6"), ["cutoff"]),
    "sample_n_samples_negative": ("sample", [("n_particles", "4"), ("n_samples", "-3")],
                                  ["n_samples"]),
    "marginal_n_samples_below_n_particles": ("marginal-compare", [
        ("n_particles", "8"), ("n_list", "8,32"), ("n_samples", "7")], ["n_samples"]),
    # every float key, scalar or in a list, is finite
    "t_end_inf": ("sim-sphere", _with(SIM, t_end="inf"), ["t_end"]),
    "spectrum_eps_inf": ("spectrum", [("n_particles", "8"), ("eps", "inf")], ["eps"]),
    "sample_eps_inf": ("sample", [("n_particles", "4"), ("eps", "inf")], ["eps"]),
    "fpe_eps0_inf": ("fpe-moments", [("t_list", "0,1"), ("eps0", "inf")], ["eps0"]),
    # the fpe flow reads eps0, so it is checked there (and not for landau)
    "fpe_eps0_zero": ("fpe-moments", [("flow", "fpe"), ("t_list", "0,1"), ("eps0", "0")],
                      ["eps0"]),
    "bp_gamma_inf": ("sim-bp", _with(SIM, gamma="inf"), ["gamma"]),
    "u_nan": ("sim-sphere", _with(SIM, mode="energy-momentum", u="nan,0,0"), ["u"]),
    "fpe_t_list_inf": ("fpe-moments", [("t_list", "0,inf")], ["t_list"]),
    # an eps outside geometry.EPS_RANGE would overflow the recorded moments,
    # the marginal's normalisation or the pair weights at run time
    "sphere_eps_huge": ("sim-sphere", _with(SIM, eps="1e200"), ["eps"]),
    "marginal_eps_tiny": ("marginal-compare", [("n_particles", "8"), ("n_list", "8,32"),
                                               ("eps", "1e-300")],
                          [("n_particles", "eps"), ("n_list", "eps")]),
    "bp_eps_huge": ("sim-bp", _with(SIM, eps="1e300", gamma="200"), ["eps"]),
    # an fpe-moments eps0 in the window too: at 1e-320 the t = 0 row is NaN
    "fpe_eps0_tiny": ("fpe-moments", [("t_list", "0,0.5"), ("eps0", "1e-320")], ["eps0"]),
    "eps0_tiny": ("sim-sphere", _with(SIM, mode="energy-momentum", eps="1e-100",
                                      u="1e-50,0,0"), [("eps", "u")]),
    # a pair weight above master_sim.PAIR_WEIGHT_MAX, (4 N eps)^((2+gamma)/2)
    # = 1e10222 here, would overflow in the first kick
    "bp_weight_overflow": ("sim-bp", _with(SIM, eps="1e100", gamma="200"),
                           [("n_particles", "eps", "gamma")]),
    "chaos_weight_overflow": ("chaos", [("n_list", "4,8"), ("t_end", "0.04"),
                                        ("eps", "1e100"), ("gamma", "200")],
                              [("n_list", "eps", "gamma")]),
    # the Rayleigh estimator's separations have the same bound, sqrt(4 N eps)
    "rayleigh_weight_overflow": ("rayleigh", [("n_particles", "8"), ("gamma", "2000"),
                                              ("n_samples", "1000")],
                                 [("n_particles", "gamma")]),
    "gap_scan_weight_overflow": ("gap-scan", [("n_list", "4,8,16"), ("gamma", "600"),
                                              ("n_samples", "1000")],
                                 [("n_list", "gamma")]),
    # 1e200.9, just above the bound (eps = 5.9 runs: 1e199.5)
    "bp_weight_above_bound": ("sim-bp", _with(SIM, eps="6.1", gamma="200"),
                              [("n_particles", "eps", "gamma")]),
    # the momentum restoration would remove the shift
    "shift_on_energy_momentum": ("sim-sphere", _with(SIM, mode="energy-momentum",
                                                     init="shift", init_strength="0.5"),
                                 [("init", "mode")]),
    # a series with no observable would drop the recorded times
    "observables_empty": ("sim-bp", _with(SIM, gamma="-3", observables=""),
                          ["observables"]),
    # a repeated column or snapshot would make the tables disagree with the
    # request
    "observables_repeated": ("sim-sphere", _with(SIM, observables="sum_v1,sum_v1"),
                             ["observables"]),
    "entropy_times_repeated": ("sim-sphere", _with(SIM, entropy_times="0.02,0.02,0"),
                               ["entropy_times"]),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_exits_2_before_output(case, tmp_path, capsys):
    command, lines, keys = INVALID_CONFIGS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert len(violations) == len(keys)
    line_of = {k: n for n, (k, _) in enumerate(lines, start=1)}

    def cites(v, key):
        return (f"line {line_of[key]} ({key})" in v
                or f"line {line_of[key]}: bad value for {key!r}" in v
                or f"line {line_of[key]}: unknown key {key!r}" in v)

    for entry in keys:
        group = entry if isinstance(entry, tuple) else (entry,)
        assert any(all(cites(v, key) for key in group) for v in violations), violations
    assert not out.exists()


@pytest.mark.parametrize("command, lines", [
    # the largest eps, with pair weights up to 1e197
    ("sim-bp", _with(SIM, eps="1e100", gamma="1.9", observables="sum_v1,sum_v1v2")),
    # pair weights up to 1e199.5 at N = 4 and at N = 8
    ("sim-bp", _with(SIM, eps="5.9", gamma="200")),
    ("chaos", [("n_list", "4,8"), ("t_end", "0.04"), ("eps", "2.9"), ("gamma", "200"),
               ("pair_samples", "2000"), ("bins", "8")]),
], ids=["bp_eps_max", "bp_gamma_200", "chaos_gamma_200"])
def test_pair_weights_just_inside_the_bound_run_to_finite_tables(command, lines, tmp_path):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    tables = sorted(out.glob("*.csv"))
    assert tables
    for path in tables:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert values.size and np.isfinite(values).all(), path.name


def test_negative_seed_flag_exits_2_before_output(tmp_path, capsys):
    cfg = tmp_path / "good.cfg"
    cfg.write_text(SPECTRUM_CFG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert len(violations) == 1 and "--seed" in violations[0]
    assert not out.exists()


def test_negative_seed_flag_listed_with_config_violations(tmp_path, capsys):
    # --seed is checked even when the config has violations of its own
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SPECTRUM_CFG + "colour = red\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert len(violations) == 2
    assert "unknown key 'colour'" in violations[0] and "--seed" in violations[1]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_exits_2_with_seed_violation(kind, tmp_path, capsys):
    # a --config that cannot be read is a violation like any other: it is
    # listed with a bad --seed, and nothing is written
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes(SPECTRUM_CFG.encode() + b"# \xff\xfe\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert len(violations) == 2
    assert violations[0].startswith(f"--config: cannot read {cfg}") and "--seed" in violations[1]
    assert not out.exists()


def test_chaos_draws_from_one_stream(tmp_path, monkeypatch):
    # the run's one Generator is handed to each N's simulation and pair
    # subsample in turn, so every call starts from a new state; the
    # 1-marginal draws nothing
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            rng = kwargs.get("rng")
            calls.append((name, None if rng is None else
                          _state_json(rng.bit_generator.state)))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "run_ensemble", recording("sim", cli.run_ensemble))
    monkeypatch.setattr(cli, "pair_marginal", recording("pair", cli.pair_marginal))
    monkeypatch.setattr(cli, "one_marginal", recording("one", cli.one_marginal))
    cfg = ("n_list = 4,8,16\ngamma = -3\ndt = 0.01\nt_end = 0.02\n"
           "pair_samples = 2000\nbins = 8\nseed = 912\n")
    run(parse_config(cfg, "chaos"), tmp_path)
    assert [name for name, _ in calls] == ["sim", "pair", "one"] * 3
    assert [state is None for _, state in calls] == [False, False, True] * 3
    states = [state for _, state in calls if state is not None]
    assert len(set(states)) == len(states)


def test_manifest_independent_of_out_dir(tmp_path):
    cfg = ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.05\n"
           "n_replicas = 8\nobservables = sum_v1\nentropy_times = 0.05\nseed = 7\n")
    plan = parse_config(cfg, "sim-sphere")
    a = run(plan, tmp_path / "a")
    run(plan, tmp_path / "b" / "nested")
    assert a["outputs"] == ["series.csv", "entropy.csv"]
    assert (tmp_path / "a/manifest.json").read_bytes() == \
        (tmp_path / "b/nested/manifest.json").read_bytes()


def test_breakdown_reported_with_step_and_replica(tmp_path, capsys, monkeypatch):
    def nan_in_replica_3(spec, n_states, rng):
        states = cli.sample_uniform_batch(spec, n_states, rng)
        states[3, 0, 0] = np.nan
        return states

    monkeypatch.setattr(cli, "uniform_sampler", nan_in_replica_3)
    cfg = tmp_path / "bp.cfg"
    cfg.write_text("n_particles = 4\ndt = 0.01\nt_end = 0.05\nn_replicas = 8\n"
                   "gamma = -3\n")
    assert main(["sim-bp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "NonFiniteStateError"
    assert report["step"] == 1 and report["replicas"] == [3]


def test_failed_decay_fit_reported_and_tables_written(tmp_path, capsys):
    # four noisy points of sum_v1 leave no usable fit window; the fit error
    # goes to the manifest, as a poor fit's low_r2_warning does
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("n_particles = 4\nmode = energy\nn_replicas = 64\ndt = 0.01\n"
                   "t_end = 0.05\nobservables = sum_v1\nfit_observable = sum_v1\n"
                   "entropy_times = 0.05\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["sim-sphere", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["series.csv", "entropy.csv"]
    fit = manifest["extras"]["decay_fit"]
    assert fit["observable"] == "sum_v1"
    assert fit["error"] in ("fewer than 2 usable points in the fit window",
                            "mean changes sign on the fit window")
    assert len((out / "series.csv").read_text().strip().splitlines()) == 1 + 6


def test_decay_fit_at_t_end_zero_reports_its_error(tmp_path):
    # a run of no steps records no points; the requested fit is reported as
    # failed, not left out of the manifest
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("n_particles = 4\nmode = energy\nn_replicas = 8\ndt = 0.01\n"
                   "t_end = 0\nobservables = sum_v1\nfit_observable = sum_v1\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["sim-sphere", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["decay_fit"] == {
        "observable": "sum_v1", "error": "fewer than 2 usable points in the fit window"}


# command -> (config, table name -> header); small sizes of every command
COMMAND_RUNS = {
    "spectrum": ("n_particles = 8\nj_max = 2\n",
                 {"spectrum": "j,unscaled,scaled,limit"}),
    "sample": ("n_particles = 6\nmode = energy-momentum\neps = 1.5\nu = 1,0,0\n"
               "n_samples = 300\nseed = 5\n",
               {"samples": "sample,energy_rel_error,momentum_error,"
                           "max_pair_sep_sq_over_4Neps"}),
    "sim-sphere": ("n_particles = 4\nmode = energy\ndt = 0.01\nt_end = 0.04\n"
                   "n_replicas = 16\nobservables = sum_v1,energy_per_particle\n"
                   "entropy_times = 0,0.04\nentropy_bins = 6\nseed = 5\n",
                   {"series": "time,sum_v1_mean,sum_v1_stderr,"
                              "energy_per_particle_mean,energy_per_particle_stderr",
                    "entropy": "time,relative_entropy"}),
    "sim-bp": ("n_particles = 4\ndt = 0.01\nt_end = 0.04\nn_replicas = 16\n"
               "gamma = -3\nobservables = sum_v1v2\nseed = 5\n",
               {"series": "time,sum_v1v2_mean,sum_v1v2_stderr"}),
    "rayleigh": ("n_particles = 8\ngamma = -3\nn_samples = 20000\nseed = 5\n",
                 {"rayleigh": "N,estimate,stderr,bound"}),
    "gap-scan": ("n_list = 4,8,16\nn_samples = 2000\nseed = 5\n",
                 {"gap_scan": "N,estimate,stderr,bound"}),
    "marginal-compare": ("n_particles = 8\nn_samples = 800\nn_list = 8,16\n"
                         "seed = 5\n",
                         {"ks": "n_pooled,ks_statistic,ks_quantile_99",
                          "supnorm": "N,supnorm_distance_to_maxwellian"}),
    "fpe-moments": ("flow = landau\nt_list = 0,0.5\n",
                    {"moments": "t,m1,m2,m3,S11,S22,S33,S12,S13,S23"}),
    "chaos": ("n_list = 4,8\ndt = 0.01\nt_end = 0.02\npair_samples = 500\n"
              "bins = 6\nseed = 5\n",
              {"chaos": "N,t,l1_distance,n_pairs"}),
}


def test_command_runs_cover_every_command():
    assert sorted(COMMAND_RUNS) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMAND_RUNS))
def test_every_command_runs_end_to_end(command, tmp_path):
    config, headers = COMMAND_RUNS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [f"{name}.csv" for name in headers]
    tables = {}
    for name, header in headers.items():
        with open(out / f"{name}.csv", newline="") as fh:
            first, *rows = list(csv.reader(fh))
        assert ",".join(first) == header
        assert rows
        tables[name] = [dict(zip(first, row)) for row in rows]
    if command == "rayleigh":
        (row,) = tables["rayleigh"]
        exact = rayleigh_quotient_exact(8, -3.0)
        assert abs(float(row["estimate"]) - exact) <= 6 * float(row["stderr"])
    if command == "sample":
        assert len(tables["samples"]) == 300
        assert max(float(r["energy_rel_error"]) for r in tables["samples"]) <= 1e-12


def test_sample_memory_is_linear_in_n(tmp_path):
    # the pair-separation scan holds O(N) per state; one (128, N, N) float
    # block of pair separations at N = 64 alone would be the whole 4 MiB
    plan = parse_config("n_particles = 64\nmode = energy-momentum\n"
                        "n_samples = 1250\nseed = 3\n", "sample")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run(plan, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 64 * 64 * 8


def test_sample_table_is_independent_of_block_size(monkeypatch, tmp_path):
    # consecutive normal draws form one stream, and every column is computed
    # state by state, so the table does not depend on how states are blocked
    plan = parse_config("n_particles = 5\nmode = energy-momentum\nu = 0.3,0,0\n"
                        "n_samples = 100\nseed = 8\n", "sample")
    run(plan, tmp_path / "default")
    monkeypatch.setattr(geometry, "STATE_BLOCK_ENTRIES", 7 * 3 * 5)
    run(plan, tmp_path / "blocks_of_7")
    assert (tmp_path / "default" / "samples.csv").read_bytes() == \
        (tmp_path / "blocks_of_7" / "samples.csv").read_bytes()


def test_sample_table_bytes_are_pinned(tmp_path):
    # two blocks (341 + 59 states) of the sampler and the pair scan, drawn
    # from cli.run's SFC64 stream and written by the CSV writer: any change
    # to one of them or to the stream changes this digest and must say so
    # by updating it
    plan = parse_config("n_particles = 64\nmode = energy-momentum\neps = 1.0\n"
                        "u = 0.5,-0.25,0\nn_samples = 400\nseed = 29\n", "sample")
    run(plan, tmp_path)
    assert hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest() == \
        "9795816819a11e749956862533b5fcdcccc8e16442dc03e15a0768505c779b7e"


# one row of every kind of number a table holds, floats at the extremes
_MIXED_ROW = [0, -7, np.int64(2 ** 62), 0.1, np.float64(-2.5e-300), np.float32(0.1),
              float("nan"), np.float64("inf"), -np.inf, -0.0, 5e-324,
              1.7976931348623157e308, np.float32(-np.inf), True]


@pytest.mark.parametrize("rows", [
    [_MIXED_ROW, _MIXED_ROW[::-1], [float(x) for x in _MIXED_ROW]],
    [],
], ids=["mixed_numbers", "header_only"])
def test_table_writer_matches_the_csv_module(rows, tmp_path):
    header = [f"col{i}" for i in range(len(_MIXED_ROW))]
    cli._write_table(tmp_path / "one_pass.csv", header, rows)
    write_table_csv(tmp_path / "csv_module.csv", header, rows)
    one_pass = (tmp_path / "one_pass.csv").read_bytes()
    assert one_pass == (tmp_path / "csv_module.csv").read_bytes()
    assert one_pass.count(b"\r\n") == 1 + len(rows)


def test_sample_table_writer_matches_the_csv_module(tmp_path):
    # the sample runner hands over Python floats; the csv module writes the
    # numpy float64 cells the runner handed over before, to the same bytes
    plan = parse_config("n_particles = 8\nmode = energy-momentum\nu = 0.5,0,-0.25\n"
                        "n_samples = 1250\nseed = 12\n", "sample")
    tables, _ = plan.runner(np.random.default_rng(12))
    header, rows = tables["samples"]
    assert len(rows) == 1250
    assert {type(x) for row in rows for x in row[1:]} == {float}
    cli._write_table(tmp_path / "one_pass.csv", header, rows)
    write_table_csv(tmp_path / "csv_module.csv", header,
                    [[i, *map(np.float64, cells)] for i, *cells in rows])
    assert (tmp_path / "one_pass.csv").read_bytes() == \
        (tmp_path / "csv_module.csv").read_bytes()


@pytest.mark.parametrize("header, rows", [
    (["a,b"], [[1]]), (['say "x"'], [[1]]), (["line\nbreak"], [[1]]),
    (["cr\r"], [[1]]), ([""], [[1]]), (["a"], [["1,5"]]), (["a", "b"], [[1, ""]]),
    (["a", "b"], [[1, 2], [3]]), (["a"], [[1, 2]]), ([], []),
], ids=["comma", "quote", "lf", "cr", "empty_header", "comma_cell", "empty_cell",
        "short_row", "long_row", "no_columns"])
def test_table_writer_refuses_what_csv_would_quote_or_misalign(header, rows, tmp_path):
    with pytest.raises(ValueError):
        cli._write_table(tmp_path / "t.csv", header, rows)
    assert not (tmp_path / "t.csv").exists()


def test_sample_on_energy_sphere_reports_no_momentum_error(tmp_path):
    # C = 1 conserves no momentum, so there is no momentum constraint to break
    plan = parse_config("n_particles = 8\nmode = energy\nn_samples = 50\nseed = 3\n",
                        "sample")
    run(plan, tmp_path)
    with open(tmp_path / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert {row["momentum_error"] for row in rows} == {"0"}


@pytest.mark.parametrize("recipe", sorted(p.name for p in RECIPES.glob("*.cfg")))
def test_recipe_parses(recipe):
    # the command comes from the recipe's own 'command =' line; nothing runs
    plan = parse_config((RECIPES / recipe).read_text())
    assert plan.command in cli.COMMANDS
