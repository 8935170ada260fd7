"""End-to-end tests of the command-line interface.

Everything goes through qmotion.cli.run() in-process so exit codes and
console output can be asserted exactly; files land in tmp_path.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from qmotion import ode, trajectory
from qmotion.cli import ConfigError, load_config, run, scenario_from_config
from qmotion.trajectory import CSV_HEADER, ScenarioConfig
from test_trajectory import BARRIER_XS, BARRIERS, first_root_ahead


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def free_doc(out_path, a=1.0, t1=5.0, samples=64, fmt="both"):
    return {
        "potential": {"kind": "free"},
        "physics": {"hbar": 1.0, "mu": 1.0, "energy": 0.5},
        "quantum": {"a": a, "b": 0.0},
        "run": {"law": "velocity", "x_start": 0.0, "t0": 0.0, "t1": t1,
                "samples": samples},
        "output": {"path": out_path, "format": fmt},
    }


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, {"potential": {"kind": "free"},
                                   "extras": {"x": 1}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"potential": {"kind": "free", "slop": 1.0}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_omitted_run_keys_take_the_scenario_defaults():
    """A document without run keys gives the scenario that ScenarioConfig
    builds from the same potential, params and state."""
    s = scenario_from_config({})
    lib = ScenarioConfig(s.potential, s.params, s.q)
    for name in ("x_start", "t_span", "law", "samples", "domain", "grid_step"):
        assert getattr(s, name) == getattr(lib, name), name
    assert scenario_from_config({"run": {"t1": 3.0}}).t_span == (0.0, 3.0)


def test_every_run_key_round_trips():
    s = scenario_from_config({
        "run": {"law": "newton", "x_start": 0.25, "t0": 1, "t1": 3.5,
                "samples": 17, "domain": [-4.0, 5.0], "grid_step": 2e-3}})
    assert (s.law, s.x_start, s.t_span, s.samples, s.domain, s.grid_step) \
        == ("newton", 0.25, (1.0, 3.5), 17, (-4.0, 5.0), 2e-3)
    assert type(s.t_span[0]) is float


# ---------------------------------------------------------------------------
# trajectory subcommand
# ---------------------------------------------------------------------------

def test_trajectory_free_run(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    cfg = write_config(tmp_path, free_doc(out))
    assert run(["trajectory", "--config", cfg]) == 0
    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 65
    # x tracks t for the unit state
    t, x = (float(v) for v in lines[-1].split(",")[:2])
    assert x == pytest.approx(t, abs=1e-9)
    summary = json.loads((tmp_path / "run.csv.json").read_text())
    assert summary["energy_conserved"] is True


def test_trajectory_reproducible(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cfg1 = write_config(tmp_path, free_doc(out1, a=2.0), "c1.json")
    cfg2 = write_config(tmp_path, free_doc(out2, a=2.0), "c2.json")
    assert run(["trajectory", "--config", cfg1, "--quiet"]) == 0
    assert run(["trajectory", "--config", cfg2, "--quiet"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_trajectory_law_override(tmp_path):
    out = str(tmp_path / "n.csv")
    cfg = write_config(tmp_path, free_doc(out, a=2.0, t1=2.0))
    assert run(["trajectory", "--config", cfg, "--law", "newton",
                "--quiet"]) == 0
    body = (tmp_path / "n.csv").read_text()
    assert body.startswith(CSV_HEADER)


def test_trajectory_requires_out_path(tmp_path):
    doc = free_doc("ignored")
    del doc["output"]
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 2


def test_unknown_law_option_exits_2(tmp_path, capsys):
    # --law is checked by ScenarioConfig, like run.law, not by argparse
    cfg = write_config(tmp_path, free_doc(str(tmp_path / "x.csv")))
    assert run(["trajectory", "--config", cfg, "--law", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for law in ("velocity", "newton", "legacy"):
        assert law in err


def test_bad_config_exits_2(tmp_path, capsys):
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["run"]["law"] = "warp"
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "master", "--tol-scale", "2"],
    ["trajectory", "--seed", "1", "--config", "cfg.json"],
    ["sweep", "--seed", "1", "--config", "cfg.json"],
    ["demo", "legacy-stall", "--seed", "1"],
], ids=["tol-scale", "trajectory-seed", "sweep-seed", "legacy-stall-seed"])
def test_options_a_subcommand_does_not_read_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_integrator_settings_exit_2_for_every_law(tmp_path, capsys):
    """The newton law's tolerances and step budget are module constants, so
    an integrator section, even one that sets their values, is an unknown
    section: every law and the sweep exit 2 before any work and write
    nothing."""
    out = tmp_path / "x.csv"
    doc = free_doc(str(out))
    doc["integrator"] = {"rel_tol": 1e-10, "abs_tol": 1e-12,
                         "max_steps": 1000000}
    doc["sweep"] = {"a": [1.0], "b": [0.0]}
    cfg = write_config(tmp_path, doc)
    for argv in (["trajectory", "--law", "velocity"],
                 ["trajectory", "--law", "newton"],
                 ["trajectory", "--law", "legacy"], ["sweep"]):
        assert run(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "config error: unknown config section 'integrator'\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "sweep"])
def test_free_pair_without_positive_energy_exits_2(tmp_path, capsys,
                                                   command):
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["physics"]["energy"] = -0.5
    doc["sweep"] = {"a": [1.0], "b": [0.0], "energy": [0.5, 0.0]}
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, "--quiet"]) == 2
    assert "positive energy" in capsys.readouterr().err


# an integer that JSON carries but a float cannot hold
TOO_BIG = int("1" + "0" * 400)
SCENARIO = "bad scenario configuration"


@pytest.mark.parametrize("command, section, key, value, where", [
    ("sweep", "sweep", "a", [TOO_BIG], "sweep axis 'a'"),
    # the energy axis defaults to physics.energy
    ("sweep", "physics", "energy", TOO_BIG, "sweep axis 'energy'"),
    ("trajectory", "physics", "energy", TOO_BIG, SCENARIO),
    ("trajectory", "run", "t1", TOO_BIG, SCENARIO),
    ("trajectory", "run", "domain", [-1, TOO_BIG], SCENARIO),
    ("trajectory", "potential", "slope", TOO_BIG, SCENARIO),
    ("trajectory", "quantum", "b", TOO_BIG, SCENARIO),
], ids=["sweep.a", "sweep-physics.energy", "physics.energy", "run.t1",
        "run.domain", "potential.slope", "quantum.b"])
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, command,
                                               section, key, value, where):
    """It used to raise OverflowError out of the command: a traceback and
    exit 1, the code of a failed verification."""
    out = tmp_path / "x.csv"
    doc = free_doc(str(out), t1=0.5, samples=8, fmt="csv")
    doc["potential"] = {"kind": "linear", "slope": 0.5}
    doc["run"]["domain"] = [-3.0, 3.0]
    doc["sweep"] = {"a": [1.0], "b": [0.0]}
    doc[section][key] = value
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {where}: int too large to convert to float\n")
    assert not out.exists()


@pytest.mark.parametrize("potential", [None, {"kind": "free"},
                                       {"kind": "harmonic", "stiffness": 1.0}],
                         ids=["no-potential", "free", "harmonic"])
def test_demo_legacy_stall_with_a_t1_too_large_for_a_float_exits_2(
        tmp_path, capsys, potential):
    """Without a potential, or with the free one, the demo sets its own
    potential and t1 = max(40, t1), which used to raise OverflowError out of
    the command (a traceback and exit 1); now every potential gives the
    config error that ``scenario_from_config`` gives."""
    doc = {"run": {"t1": TOO_BIG}}
    if potential is not None:
        doc["potential"] = potential
    cfg = write_config(tmp_path, doc)
    assert run(["demo", "legacy-stall", "--config", cfg]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {SCENARIO}: int too large to convert to float\n")


# the finite b makes D = (a phi1 + b phi2)^2 + phi2^2 overflow, so S0' = 0
UNDERFLOW = {"potential": {"kind": "harmonic", "stiffness": 1.0},
             "quantum": {"a": 1.0, "b": 1e308},
             "run": {"t1": 0.5, "samples": 16, "domain": [-3.0, 3.0]},
             "sweep": {"a": [1.0], "b": [0.3, 1e308]}}


@pytest.mark.parametrize("command", ["trajectory", "sweep"])
@pytest.mark.parametrize("law", ["velocity", "newton", "legacy"])
def test_state_whose_s0p_underflows_is_a_numerical_failure(
        tmp_path, capsys, command, law):
    """Every law fails in one line that names S0' and x_start, with no
    numpy warning before it; the sweep's first cell, at b = 0.3, runs
    first.  The laws used to print numpy warnings and then each a symptom
    of its own: an x(t) not found, a non-finite initial jet, a division by
    a jet with zero value."""
    out = tmp_path / "u.csv"
    doc = {**UNDERFLOW, "run": {**UNDERFLOW["run"], "law": law}}
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert [str(w.message) for w in caught] == []
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: S0' at x_start = 0 is 0: it under- or "
        "overflows\n")
    assert not out.exists()


@pytest.mark.parametrize("law, message", [
    ("velocity", "observables undefined at 256 of 256 samples (xd = 0, or its "
     "powers under- or overflow)"),
    ("newton", "the consistent initial jet at x = 0 is not finite: "
     "[0.0, 1e+150, 0.0, -inf]"),
    ("legacy", "the motion jet (x, xd, xdd, xddd) is not finite at 256 of 256 "
     "samples")])
def test_state_whose_motion_jet_overflows_is_a_numerical_failure(
        tmp_path, capsys, law, message):
    """At a = 1e150 S0' is finite at x_start but its jet overflows: every
    law fails in one line with no numpy warning, here raised as an error.
    The legacy law used to exit 0 with inf in every row's xdddot."""
    out = tmp_path / "o.csv"
    cfg = write_config(tmp_path, {"quantum": {"a": 1e150}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["trajectory", "--config", cfg, "--law", law,
                  "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("law", ["velocity", "newton"])
def test_a_cell_failing_before_an_underflowing_one_is_reported(
        tmp_path, capsys, law):
    """The sweep reports the first failure in grid order: here the first
    cell's domain edge, not the second cell's S0', and no numpy warning."""
    out = tmp_path / "u.csv"
    doc = {"potential": {"kind": "linear", "slope": 0.5},
           "quantum": {"a": 1.0},
           "run": {"law": law, "t1": 50.0, "samples": 16,
                   "domain": [-2.0, 3.0]},
           "sweep": {"a": [1.0], "b": [0.0, 1e308]}}
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["sweep", "--config", cfg, "--out", str(out), "--quiet"])
    assert [str(w.message) for w in caught] == []
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: the run reaches x = 3 at t = 14.3894, before "
        "t1 = 50; later positions are outside solved domain [-2, 3]\n")


@pytest.mark.parametrize("command", ["trajectory", "sweep"])
def test_kappa_is_not_a_config_key(tmp_path, capsys, command):
    """kappa shifts S0 by a constant, and nothing a command writes depends
    on it, so a document that sets it is rejected."""
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["quantum"]["kappa"] = 0.25
    doc["sweep"] = {"a": [1.0], "b": [0.0]}
    cfg = write_config(tmp_path, doc)
    assert run([command, "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr() == (
        "", "config error: unknown keys in section 'quantum': ['kappa']\n")


def test_truncated_pair_reported_on_stderr(tmp_path, capsys):
    # from x = 2 the legacy law runs uphill at 2(E - V)/S0', which grows
    # with the pair, so it reaches the overflow cap at x = 7.794
    out = tmp_path / "t.csv"
    doc = free_doc(str(out), a=-1.0, t1=0.02, samples=8)
    doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
    doc["run"].update(law="legacy", x_start=2.0, domain=[-30.0, 30.0])
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 3
    line = ("Taylor-marched pair truncated at the overflow cap: requested "
            "domain [-30, 30], covered [-7.794, 7.794]")
    note, failure = capsys.readouterr().err.splitlines()
    assert note == line
    assert failure.startswith("numerical failure: the run reaches x = 7.794")
    assert "outside solved domain [-7.794, 7.794]" in failure
    notes = json.loads((tmp_path / "t.csv.json").read_text())["notes"]
    assert notes[0] == line
    assert notes[1].startswith("domain edge x = 7.794 reached at t = ")


def test_run_short_of_the_cap_reports_no_truncation(tmp_path, capsys):
    # the same pair, but a velocity run from x = 0 ends near x = 0.8: the
    # march never gets to the cap, so nothing is noted
    out = tmp_path / "t.csv"
    doc = free_doc(str(out), t1=1.0, samples=8)
    doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
    doc["run"]["domain"] = [-30.0, 30.0]
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "t.csv.json").read_text())["notes"] == []


def test_wide_domain_stores_only_the_marched_nodes(tmp_path, capsys):
    # a grid of 2e9 nodes, of which the run marches a few thousand: the
    # pair stores only those, so the run allocates a few MB (traced, so
    # the bound does not depend on the machine) and writes the bytes of
    # the same run on [-30, 30]
    rows = {}
    for name, domain in (("wide", [-1e6, 1e6]), ("narrow", [-30.0, 30.0])):
        out = tmp_path / f"{name}.csv"
        doc = free_doc(str(out), a=1.4, t1=1.0, samples=256)
        doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
        doc["quantum"]["b"] = 0.3
        doc["run"].update(domain=domain, grid_step=1e-3)
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        tracemalloc.start()
        try:
            assert run(["trajectory", "--config", cfg, "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        rows[name] = out.read_bytes()
    assert capsys.readouterr().err == ""
    assert rows["wide"] == rows["narrow"]


@pytest.mark.parametrize("domain", [[1.0], [3.0, -3.0]])
def test_bad_domain_exits_2(tmp_path, capsys, domain):
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
    doc["run"]["domain"] = domain
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_start_outside_domain_exits_2(tmp_path, capsys):
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
    doc["run"]["x_start"] = 9.0
    doc["run"]["domain"] = [-2.0, 2.0]
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2


@pytest.mark.parametrize("key, value, message", [
    ("x_start", float("nan"), "x_start must be finite"),
    ("grid_step", -0.001, "grid_step must be finite and positive"),
], ids=["x_start", "grid_step"])
def test_bad_run_value_exits_2(tmp_path, capsys, key, value, message):
    # on a grid pair whose domain follows from x_start, neither reaches
    # ScenarioConfig's domain check
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["potential"] = {"kind": "harmonic", "stiffness": 1.0}
    doc["run"][key] = value
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "x.csv").exists()


def test_missing_potential_csv_exits_2(tmp_path, capsys):
    doc = free_doc(str(tmp_path / "x.csv"))
    doc["potential"] = {"kind": "tabulated",
                        "csv": str(tmp_path / "missing.csv")}
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "missing.csv" in err


@pytest.mark.parametrize("source", ["config", "csv"])
def test_non_finite_table_exits_2(tmp_path, capsys, source):
    # a NaN in the table's V column is a usage error, whether the table is
    # given inline or read from a CSV file
    doc = free_doc(str(tmp_path / "x.csv"))
    xs, vs = [-3.5, -1.0, 0.0, 1.0, 3.5], [6.125, 0.5, float("nan"), 0.5, 6.125]
    if source == "csv":
        table = tmp_path / "table.csv"
        table.write_text("".join(f"{x},{v}\n" for x, v in zip(xs, vs)))
        doc["potential"] = {"kind": "tabulated", "csv": str(table)}
    else:
        doc["potential"] = {"kind": "tabulated", "xs": xs, "vs": vs}
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "table x and V values must be finite" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["trajectory", "sweep"])
@pytest.mark.parametrize("out", ["missing-dir", "a-dir"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, command, out):
    import qmotion.trajectory as traj

    path = tmp_path / "nowhere" / "x.csv" if out == "missing-dir" else tmp_path
    doc = free_doc("ignored", t1=0.5, samples=8, fmt="csv")
    doc["sweep"] = {"a": [1.0], "b": [0.0]}
    cfg = write_config(tmp_path, doc)
    # the output is checked before any pair is built or law is run
    work = []
    for name in ("solve_pair", "run_scenario"):
        monkeypatch.setattr(traj, name,
                            lambda *args, name=name: work.append(name))
    assert run([command, "--config", cfg, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert work == []
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_non_string_output_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, free_doc(5, t1=0.5, samples=8))
    assert run(["trajectory", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("config error: output path must be a "
                                       "string, got 5\n")


def test_step_budget_exhaustion_exits_3(tmp_path, capsys, monkeypatch):
    # the step budget binds the integrated laws; the velocity law runs none
    monkeypatch.setattr(ode, "MAX_STEPS", 3)
    doc = free_doc(str(tmp_path / "x.csv"), a=2.0)
    doc["run"]["law"] = "newton"
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("law", ["newton", "legacy"])
def test_unconverged_position_solve_exits_3(tmp_path, capsys, monkeypatch,
                                            law):
    """A sample whose x the Newton solve does not find in its step budget
    is a numerical failure in one line."""
    monkeypatch.setattr(trajectory, "_NEWTON_STEPS", 1)
    out = tmp_path / "x.csv"
    doc = free_doc(str(out), a=2.0)
    doc["quantum"]["b"] = 0.5
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--law", law]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: x(t) at t = ")
    assert err.endswith(" not found in 1 Newton steps\n")
    assert err.count("\n") == 1 and not out.exists()


def test_newton_run_whose_speed_falls_below_the_floor_exits_3(tmp_path,
                                                            capsys):
    """On the free pair at k = 1e-12, a = 0.5, the speed a k/D falls from
    1.6e-12 at x_start to 0.5e-12 at x = 0: the newton law's series stops
    at the floor 1e-12 in one line."""
    doc = {"potential": {"kind": "free"},
           "physics": {"hbar": 1.0, "mu": 1.0, "energy": 5e-25},
           "quantum": {"a": 0.5},
           "run": {"law": "newton", "x_start": -1.3e12, "t1": 1e24,
                   "samples": 16}}
    out = tmp_path / "f.csv"
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: |xd| below 1e-12 at t = ")
    assert err.count("\n") == 1 and not out.exists()


def _free_config(tmp_path, energy):
    return write_config(tmp_path, {
        "potential": {"kind": "free"},
        "physics": {"hbar": 1.0, "mu": 1.0, "energy": energy},
        "quantum": {"a": 1.4, "b": 0.3}, "run": {"t1": 0.5, "samples": 16}})


def test_legacy_direction_at_a_large_energy_raises_no_warning(tmp_path,
                                                              capsys):
    """The legacy law takes its direction from the signs of E - V and S0'
    at x_start, not from their product, which overflows at E = 1e300: its
    RuntimeWarning, an error here, ended the run in a traceback.  The run
    then fails in one line, as the motion jet overflows."""
    out = tmp_path / "l.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["trajectory", "--config", _free_config(tmp_path, 1e300),
                  "--law", "legacy", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical failure: the motion jet (x, xd, xdd, xddd) is not finite"
        " at 16 of 16 samples\n")


def _capped_cli(argv):
    """Run the CLI on argv in a fresh interpreter under -W error, with an
    address space of 1 GB and a wall time of 30 s."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qmotion.cli import run\n"
            f"sys.exit(run({argv!r}))\n")
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=_src_env(),
                          timeout=30)


@pytest.mark.parametrize("law", ["velocity", "legacy"])
def test_free_run_at_a_large_energy_is_bounded(tmp_path, law):
    """The free pair's t(x) is closed form, so a run's cost does not grow
    with E t1.  Summed one period pi/k at a time, this run held 7.6 GB and
    had not ended after 60 s."""
    out = tmp_path / "f.csv"
    res = _capped_cli(["trajectory", "--config", _free_config(tmp_path, 1e10),
                       "--law", law, "--out", str(out), "--quiet"])
    assert (res.returncode, res.stderr) == (0, "")
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 17
    assert all(math.isfinite(float(v)) for row in lines[1:]
               for v in row.split(","))


def test_free_velocity_run_at_an_overflowing_energy_exits_3(tmp_path):
    """At E = 1e300 the motion jet overflows: one line, exit 3, and no
    warning.  Summed one period at a time, the run did not end."""
    res = _capped_cli(["trajectory", "--config",
                       _free_config(tmp_path, 1e300),
                       "--out", str(tmp_path / "f.csv")])
    assert res.returncode == 3
    assert res.stderr == (
        "numerical failure: observables undefined at 16 of 16 samples (xd ="
        " 0, or its powers under- or overflow)\n")


@pytest.mark.parametrize("physics, potential, law", [
    ({"hbar": 1e300}, {"kind": "harmonic", "stiffness": 1.0}, "velocity"),
    ({"hbar": 1e300, "mu": 1e300}, {"kind": "free"}, "newton"),
], ids=["harmonic-velocity", "free-newton"])
def test_hbar_whose_square_overflows_exits_2(tmp_path, capsys, physics,
                                             potential, law):
    """hbar^2 overflows at hbar = 1e300: the parameters are rejected in one
    line, where the run ended in an OverflowError traceback."""
    cfg = write_config(tmp_path, {"potential": potential, "physics": physics,
                                  "run": {"law": law, "domain": [-3.0, 3.0]}})
    assert run(["trajectory", "--config", cfg,
                "--out", str(tmp_path / "h.csv")]) == 2
    assert capsys.readouterr().err == (
        f"config error: bad scenario configuration: hbar = 1e+300 and mu = "
        f"{physics.get('mu', 1.0):g} must be positive, with hbar^2, 2 "
        "mu/hbar^2 and hbar^2/(4 mu) finite and not 0\n")


@pytest.mark.parametrize("law, run_keys, lines", [
    ("velocity", {}, ["numerical failure: the time across the pair's cells "
                      "from x_start = 0 is NaN"]),
    ("legacy", {"t1": 5e-324, "samples": 2},
     ["Taylor-marched pair truncated at the overflow cap: requested domain "
      "[-3, 3], covered [0, 0]",
      "numerical failure: the run reaches x = 0 at t = 0, before t1 = "
      "4.94066e-324; later positions are outside solved domain [0, 0]"]),
], ids=["velocity", "legacy"])
def test_well_whose_taylor_coefficients_overflow_exits_3(
        tmp_path, capsys, law, run_keys, lines):
    """At stiffness 1e300 the wave equation's Taylor coefficients overflow
    one grid step from the anchor, so the pair covers the anchor alone: the
    run fails in a line or two and raises no warning.  The velocity run
    wrote no samples and exited 0 after RuntimeWarnings, the legacy run
    exited 0 with an energy drift of 1e300."""
    cfg = write_config(tmp_path, {
        "potential": {"kind": "harmonic", "stiffness": 1e300},
        "run": {"law": law, "domain": [-3.0, 3.0], **run_keys}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["trajectory", "--config", cfg, "--quiet",
                  "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert capsys.readouterr().err.splitlines() == lines


def test_sample_times_that_repeat_exit_2(tmp_path, capsys):
    """16 samples over t1 = 5e-324 repeat the sample times 0 and 5e-324: a
    configuration error, where the run exited 0 with a NaN Bohm gap."""
    doc = free_doc(str(tmp_path / "r.csv"), t1=5e-324, samples=16)
    assert run(["trajectory", "--config", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "config error: bad scenario configuration: the sample times over "
        "(0.0, 5e-324) repeat\n")


def _barrier_config(tmp_path, name):
    return write_config(tmp_path, {
        "potential": {"kind": "tabulated", "xs": BARRIER_XS.tolist(),
                      "vs": BARRIERS[name].tolist()},
        "quantum": {"a": 1.4, "b": 0.3},
        "run": {"law": "legacy", "t1": 10.0, "samples": 64,
                "domain": [-3.0, 3.0]}})


@pytest.mark.parametrize("name", BARRIERS)
def test_legacy_run_stalls_at_the_first_barrier_ahead(tmp_path, capsys,
                                                      name):
    """The stall line names the first root of V = E ahead, on the bump's
    rising side: the run left the domain at x = 3 past the bump alone, and
    named the second barrier's root behind the bump."""
    cfg = _barrier_config(tmp_path, name)
    assert run(["trajectory", "--config", cfg,
                "--out", str(tmp_path / "b.csv")]) == 0
    stall, = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("legacy law stalled near x = ")]
    lo, hi = first_root_ahead(scenario_from_config(load_config(cfg)).potential,
                              0.5, 0.0, 3.0)
    assert float(stall.rpartition("(turning point ")[2][:-1]) in (lo, hi)


def test_legacy_run_toward_a_far_turning_point_marches_one_chunk(
        tmp_path, monkeypatch):
    """Uphill on V = x/2 at E = 20 the run stands at x = 0.26 at t1 = 0.05,
    and the turning point is x = 40: the pair is marched one chunk, where
    a search for the turning point marched it out to x = 40 first."""
    from qmotion import schrodinger

    marches, march = [], schrodinger._Nodes.march
    monkeypatch.setattr(schrodinger._Nodes, "march", lambda self, step: (
        marches.append(step) or march(self, step)))
    cfg = write_config(tmp_path, {
        "potential": {"kind": "linear", "slope": 0.5},
        "physics": {"energy": 20.0},
        "run": {"law": "legacy", "t1": 0.05, "domain": [-60.0, 60.0]}})
    assert run(["trajectory", "--config", cfg, "--quiet",
                "--out", str(tmp_path / "f.csv")]) == 0
    assert marches == [1]


def test_legacy_law_ignores_the_step_budget(tmp_path, capsys, monkeypatch):
    """The legacy law integrates no ODE, so the integrator's step budget
    does not bind it: it writes every sample and exits 0, where the newton
    law on the same config exits 3 and writes nothing."""
    monkeypatch.setattr(ode, "MAX_STEPS", 3)
    out = tmp_path / "h.csv"
    doc = {"potential": {"kind": "harmonic", "stiffness": 1.0},
           "run": {"law": "legacy", "domain": [-3.0, 3.0]},
           "output": {"path": str(out), "format": "both"}}
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 257
    summary = json.loads((tmp_path / "h.csv.json").read_text())
    assert summary["t_span"] == [0.0, 10.0] and summary["notes"] == []
    out.unlink()
    (tmp_path / "h.csv.json").unlink()
    assert run(["trajectory", "--config", cfg, "--law", "newton"]) == 3
    assert "step budget of 3 exhausted" in capsys.readouterr().err
    assert not out.exists()


# a linear barrier the velocity law crosses, on a domain whose right edge it
# reaches at t = 14.39, long before t1
EDGE_DOC = {
    "potential": {"kind": "linear", "slope": 0.5},
    "quantum": {"a": 1.0, "b": 0.0},
    "run": {"law": "velocity", "t1": 50.0, "samples": 256,
            "domain": [-2.0, 3.0]},
}


def test_domain_edge_writes_partial_result_and_exits_3(tmp_path, capsys):
    out = tmp_path / "edge.csv"
    doc = dict(EDGE_DOC, output={"path": str(out), "format": "both"})
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 3
    assert "outside solved domain" in capsys.readouterr().err
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().split("\n")[1:]]
    summary = json.loads((tmp_path / "edge.csv.json").read_text())
    (note,) = summary["notes"]
    assert note.startswith("domain edge x = 3 reached at t = ")
    t_edge = float(note.split("t = ")[1].split(";")[0])
    assert 2 < len(rows) < 256
    assert rows[-1][0] <= t_edge < rows[-1][0] + 50.0 / 255
    assert 2.9 < rows[-1][1] <= 3.0
    assert summary["samples"] == len(rows)
    assert summary["t_span"] == [0.0, rows[-1][0]]
    again = tmp_path / "again.csv"
    assert run(["trajectory", "--config", cfg, "--out", str(again),
                "--quiet"]) == 3
    assert again.read_bytes() == out.read_bytes()


def test_newton_domain_edge_writes_partial_result_and_exits_3(tmp_path,
                                                              capsys):
    """The newton law stops at the first step past the edge; the samples up
    to the time at which it reaches the edge are written, then the run
    exits 3."""
    out = tmp_path / "edge.csv"
    doc = dict(EDGE_DOC, output={"path": str(out), "format": "both"})
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--law", "newton",
                "--quiet"]) == 3
    assert "outside solved domain" in capsys.readouterr().err
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().split("\n")[1:]]
    summary = json.loads((tmp_path / "edge.csv.json").read_text())
    assert 1 < len(rows) < 256
    assert all(row[1] <= 3.0 for row in rows)
    assert summary["law"] == "newton" and summary["samples"] == len(rows)
    assert summary["t_span"] == [0.0, rows[-1][0]]
    (note,) = summary["notes"]
    assert note.startswith("domain edge x = 3 reached at t = ")
    t_edge = float(note.split("t = ")[1].split(";")[0])
    assert rows[-1][0] <= t_edge < rows[-1][0] + 50.0 / 255


def test_legacy_domain_edge_writes_partial_result_and_exits_3(tmp_path,
                                                              capsys):
    """Downhill the legacy law meets no turning point and reaches x = 3;
    it writes its samples up to the edge and exits 3, as the velocity law
    does."""
    out = tmp_path / "edge.csv"
    doc = dict(EDGE_DOC, potential={"kind": "linear", "slope": -0.5},
               output={"path": str(out), "format": "both"})
    cfg = write_config(tmp_path, doc)
    assert run(["trajectory", "--config", cfg, "--law", "legacy",
                "--quiet"]) == 3
    assert "outside solved domain" in capsys.readouterr().err
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().strip().split("\n")[1:]]
    summary = json.loads((tmp_path / "edge.csv.json").read_text())
    assert 1 < len(rows) < 256 and all(row[1] <= 3.0 for row in rows)
    assert summary["law"] == "legacy" and summary["samples"] == len(rows)
    (note,) = summary["notes"]
    assert note.startswith("domain edge x = 3 reached at t = ")


def test_domain_edge_error_survives_pickling():
    import pickle

    from qmotion.trajectory import DomainEdgeError

    exc = DomainEdgeError("x = 3 outside solved domain", partial=object())
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is DomainEdgeError and str(back) == str(exc)
    assert back.partial is None


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def test_verify_qshje(capsys):
    assert run(["verify", "qshje", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "free pair: max residual" in out
    assert "harmonic pair: max residual" in out


def _src_env():
    """The environment with the package's source first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _modules_after(code, package):
    """The modules of ``package`` loaded once ``code`` has run in a fresh
    interpreter."""
    code += ("\nprint(*sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def _cli_code(argvs):
    """Code that runs each of ``argvs`` through ``qmotion.cli.run``, each
    exiting 0."""
    return ("import io, sys, contextlib\n"
            "import qmotion.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            + "".join(f"    assert qmotion.cli.run({a!r}) == 0\n"
                      for a in argvs))


IDENTITY_ARGVS = (["verify", "master", "--samples", "10"],
                  ["coefficients", "--levels", "1"])


def test_identity_commands_do_not_import_scipy():
    # verify master and coefficients need no scipy, which costs most of the
    # package's import time, so they must not load it
    assert _modules_after(_cli_code(IDENTITY_ARGVS), "scipy") == []


def test_commands_load_only_their_own_modules(tmp_path):
    # the trajectory runs and the kinetic-series identities are separate
    # halves of the package: a command must not compile the other half
    loaded = _modules_after(_cli_code(IDENTITY_ARGVS), "qmotion")
    assert "qmotion.kinetic_series" in loaded
    for name in ("trajectory", "ode", "rootfind", "reduced_action",
                 "mechanics"):
        assert f"qmotion.{name}" not in loaded
    doc = {"potential": {"kind": "harmonic", "stiffness": 1.0},
           "run": {"t1": 1.0, "samples": 16, "domain": [-3.0, 3.0]}}
    cfg = write_config(tmp_path, doc)
    loaded = _modules_after(_cli_code(
        ["trajectory", "--config", cfg, "--law", law,
         "--out", str(tmp_path / f"{law}.csv")]
        for law in ("velocity", "newton", "legacy")), "qmotion")
    assert "qmotion.trajectory" in loaded
    assert "qmotion.kinetic_series" not in loaded
    assert "qmotion.mechanics" not in loaded


def test_reduced_action_on_numerov_pair_does_not_import_scipy_integrate():
    # S0' and its jets are read off the pair, nothing is a quadrature
    code = ("import sys\n"
            "from qmotion.reduced_action import (QuantumStateParams,\n"
            "    qshje_residual, s0p, s0p_jet)\n"
            "from qmotion.schrodinger import PhysParams, PotentialModel, solve_pair\n"
            "pair = solve_pair(PotentialModel.harmonic(1.0),\n"
            "                  PhysParams(1.0, 1.0, 4.5), (-3.0, 3.0))\n"
            "q = QuantumStateParams(a=1.3, b=0.2)\n"
            "s0p(pair, q, 2.5), s0p_jet(pair, q, 2.5, 3)\n"
            "qshje_residual(pair, q, 2.5)")
    assert "scipy.integrate" not in _modules_after(code, "scipy")


def test_trajectory_and_sweep_runs_do_not_import_scipy(tmp_path):
    # the integrator and a tabulated potential's spline are the package's
    # own, so no command loads scipy
    harmonic = {"kind": "harmonic", "stiffness": 1.0}
    xs = [-3.5 + 0.05 * i for i in range(141)]
    tabulated = {"kind": "tabulated", "xs": xs, "vs": [0.5 * x * x for x in xs]}
    runs = []
    for law in ("velocity", "newton", "legacy"):
        for name, potential in (("free", {"kind": "free"}),
                                ("harmonic", harmonic),
                                ("tabulated", tabulated)):
            out = str(tmp_path / f"{name}-{law}.csv")
            doc = {"potential": potential, "quantum": {"a": 1.4, "b": 0.3},
                   "run": {"law": law, "t1": 2.0, "samples": 16,
                           "domain": [-3.0, 3.0]}}
            runs.append(["trajectory", "--config",
                         write_config(tmp_path, doc, f"{name}-{law}.json"),
                         "--out", out])
    sweep = write_config(tmp_path, dict(HARMONIC_SWEEP_DOC), "sweep.json")
    for workers in ("1", "2"):
        runs.append(["sweep", "--config", sweep, "--workers", workers,
                     "--out", str(tmp_path / f"sweep{workers}.csv")])
    assert _modules_after(_cli_code(runs), "scipy") == []


def test_verify_master_canonical(capsys):
    assert run(["verify", "master", "--samples", "50"]) == 0
    assert "master residual" in capsys.readouterr().out


def test_verify_master_perturbed_fails(capsys):
    # exit code 1 is the verification-failure signal
    assert run(["verify", "master", "--samples", "50",
                "--perturb", "alpha20=0.7"]) == 1
    assert "master residual" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_no_parsed_state(capsys):
    from qmotion.cli import build_parser

    assert build_parser() is build_parser()
    argv = ["verify", "master", "--samples", "20"]
    assert run(argv + ["--perturb", "alpha20=0.7"]) == 1
    assert run(argv) == 0
    assert build_parser().parse_args(argv).perturb is None


def test_verify_master_rejects_bad_perturb(capsys):
    assert run(["verify", "master", "--perturb", "gamma=1"]) == 2


def test_verify_master_fails_the_benchmark_perturbation(capsys):
    # alpha20 off its canonical 0.625 by 0.01 breaks the identity at level 2
    argv = ["verify", "master", "--samples", "1000", "--seed", "3"]
    assert run(argv) == 0
    assert run(argv + ["--perturb", "alpha20=0.635"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "master", "--samples", "0"],
    ["verify", "master", "--samples", "-1"],
    ["verify", "qshje", "--samples", "0"],
    ["verify", "conservation", "--samples", "0"],
    ["verify", "conservation", "--samples", "-3"],
])
def test_verify_over_no_samples_is_a_usage_error(capsys, argv):
    """A verification over no samples would pass having checked nothing,
    so a sample count below 1 exits 2 before any work."""
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--samples: expected a positive integer" in err


def test_verify_conservation(capsys):
    assert run(["verify", "conservation", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "velocity" in out and "newton" in out


# ---------------------------------------------------------------------------
# coefficients and demos
# ---------------------------------------------------------------------------

def test_coefficients_command(capsys):
    assert run(["coefficients", "--levels", "1"]) == 0
    out = capsys.readouterr().out
    assert "level 0" in out
    assert "unique: True" in out


def test_demo_linear_term(capsys):
    assert run(["demo", "linear-term", "--i", "2"]) == 0
    assert "consistent: True" in capsys.readouterr().out


def test_demo_linear_term_regularized(capsys):
    assert run(["demo", "linear-term", "--i", "1", "--lam", "1e-3",
                "--potential", "linear", "--slope", "0.5"]) == 0


def test_demo_legacy_stall(capsys):
    assert run(["demo", "legacy-stall"]) == 0
    out = capsys.readouterr().out
    assert "stall" in out.lower()


def test_demo_legacy_stall_builds_one_pair(monkeypatch, capsys):
    """The velocity comparison runs on the legacy scenario's pair."""
    import qmotion.trajectory as traj

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return solve_pair(*args, **kwargs)

    solve_pair = traj.solve_pair
    monkeypatch.setattr(traj, "solve_pair", counting)
    assert run(["demo", "legacy-stall"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("option", ["--f-const", "--stiffness"])
def test_linear_term_constants_are_not_options(option, capsys):
    assert run(["demo", "linear-term", option, "0.5"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_demo_legacy_stall_defaults_are_the_config_defaults(tmp_path, capsys):
    """Without --config the demo runs the scenario an empty config gives
    (a = 1, the state of acceptance criterion 10), and it stalls."""
    assert run(["demo", "legacy-stall"]) == 0
    bare = capsys.readouterr().out
    assert run(["demo", "legacy-stall", "--config",
                write_config(tmp_path, {})]) == 0
    assert bare == capsys.readouterr().out
    assert "  stalled: True" in bare.splitlines()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_DOC = {
    "potential": {"kind": "free"},
    "physics": {"hbar": 1.0, "mu": 1.0, "energy": 0.5},
    "quantum": {"a": 1.0, "b": 0.0},
    "run": {"law": "velocity", "t0": 0.0, "t1": 2.0, "samples": 32},
    "sweep": {"a": [1.0, 2.0], "b": [0.0], "energy": [0.5, 1.0]},
}


def test_sweep_rows_and_determinism(tmp_path):
    cfg = write_config(tmp_path, dict(SWEEP_DOC))
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(["sweep", "--config", cfg, "--out", str(serial),
                "--workers", "1", "--quiet"]) == 0
    assert run(["sweep", "--config", cfg, "--out", str(parallel),
                "--workers", "3", "--quiet"]) == 0
    body = serial.read_text().strip().split("\n")
    assert body[0].startswith("a,b,energy,")
    assert len(body) == 5  # header + 2 x 1 x 2 cells
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("axis", [1.4, [1.4, None], "0.5", []],
                         ids=["number", "null", "string", "empty"])
def test_malformed_sweep_axis_exits_2(tmp_path, capsys, axis):
    # a string axis used to be read character by character
    doc = dict(SWEEP_DOC, sweep={"a": [1.0], "energy": axis})
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: sweep axis 'energy'")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_without_a_worker_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                 workers):
    """A worker count below 1 exits 2 before any pair is built; it used to
    run the sweep serially and exit 0."""
    import qmotion.cli as cli

    def no_pairs(*args, **kwargs):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(cli, "_sweep_group", no_pairs)
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, SWEEP_DOC)
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--workers", workers, "--quiet"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "--workers: expected a positive integer" in err
    assert not out.exists()


# so stiff a harmonic well that the newton law's first series is not finite:
# every cell fails at t = 0 with an IntegrationFailure
STIFF_POTENTIAL = {"kind": "harmonic", "stiffness": 1e150}
STIFF_RUN = {"law": "newton", "domain": [-1e-70, 1e-70], "grid_step": 1e-72}
STIFF_FAILURE = "numerical failure: non-finite derivative at t = 0.0\n"


@pytest.mark.parametrize("workers", ["2", "1"])
def test_sweep_failing_cell_exits_3(tmp_path, capsys, workers):
    # the cell's IntegrationFailure must cross the process boundary intact:
    # two energies, so --workers 2 runs a pool of two
    doc = dict(SWEEP_DOC, potential=STIFF_POTENTIAL,
               run=dict(SWEEP_DOC["run"], **STIFF_RUN),
               sweep={"a": [1.0, 2.0], "b": [0.0], "energy": [0.5, 1.0]})
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", workers,
                "--quiet"]) == 3
    assert capsys.readouterr().err == STIFF_FAILURE


HARMONIC_SWEEP_DOC = {
    "potential": {"kind": "harmonic", "stiffness": 1.0},
    "physics": {"hbar": 1.0, "mu": 1.0, "energy": 0.5},
    "run": {"law": "velocity", "t1": 0.5, "samples": 16,
            "domain": [-3.0, 3.0], "grid_step": 1e-3},
    "sweep": {"a": [1.4, -0.8], "b": [0.3], "energy": [0.5, 0.8, 0.5]},
}


def _sweep_reference(doc) -> bytes:
    """The sweep CSV with every cell run on its own freshly built scenario,
    so with its own solution pair."""
    from qmotion.cli import scenario_from_config
    from qmotion.trajectory import run_scenario, summarize

    lines = ["a,b,energy,x_last,max_energy_drift_rel,max_bohm_gap_rel,"
             "min_abs_xdot,energy_conserved"]
    grid = doc["sweep"]
    for a in grid["a"]:
        for b in grid["b"]:
            for energy in grid["energy"]:
                cell = json.loads(json.dumps(doc))
                cell["quantum"] = {"a": a, "b": b}
                cell["physics"]["energy"] = energy
                s = summarize(run_scenario(scenario_from_config(cell))[0])
                row = (a, b, energy, s["x_last"], s["max_energy_drift_rel"],
                       s["max_bohm_gap_rel"], s["min_abs_xdot"])
                lines.append(",".join("%.17g" % v for v in row)
                             + f",{int(s['energy_conserved'])}")
    return ("\n".join(lines) + "\n").encode()


def test_sweep_shares_one_numerov_pair_per_energy(tmp_path, monkeypatch):
    import qmotion.trajectory as traj

    cfg = write_config(tmp_path, HARMONIC_SWEEP_DOC)
    out = {w: tmp_path / f"w{w}.csv" for w in ("1", "2")}
    assert run(["sweep", "--config", cfg, "--out", str(out["2"]),
                "--workers", "2", "--quiet"]) == 0
    builds, solve_pair = [], traj.solve_pair

    def counted(*args, **kwargs):
        builds.append(args[1].energy)
        return solve_pair(*args, **kwargs)

    monkeypatch.setattr(traj, "solve_pair", counted)
    assert run(["sweep", "--config", cfg, "--out", str(out["1"]),
                "--workers", "1", "--quiet"]) == 0
    assert builds == [0.5, 0.8]  # one build per distinct energy
    monkeypatch.undo()
    body = out["1"].read_bytes()
    assert len(body.decode().strip().split("\n")) == 1 + 2 * 3
    assert body == out["2"].read_bytes() == _sweep_reference(HARMONIC_SWEEP_DOC)


def test_sweep_builds_one_pair_per_energy_at_any_worker_count(tmp_path,
                                                              monkeypatch):
    """Each distinct energy is one pool task: three workers build the two
    energies' pairs once each.  The pool used to slice each energy's cells
    across the workers, and every slice built the pair again.  The newton
    law runs its cells one at a time, so its sweep still forks the pool."""
    import qmotion.trajectory as traj

    log = tmp_path / "builds.log"
    solve_pair = traj.solve_pair

    def logged(*args, **kwargs):
        # the forked workers inherit the patch and append to one file
        with open(log, "a") as fh:
            fh.write(f"{args[1].energy!r}\n")
        return solve_pair(*args, **kwargs)

    monkeypatch.setattr(traj, "solve_pair", logged)
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["run"]["law"] = "newton"
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "w3.csv"
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--workers", "3", "--quiet"]) == 0
    assert sorted(log.read_text().split()) == ["0.5", "0.8"]
    monkeypatch.undo()
    assert out.read_bytes() == _sweep_reference(doc)


def test_tabulated_sweep_reads_its_csv_once_per_energy(tmp_path, monkeypatch):
    """An energy's cells share one scenario, so a tabulated potential is
    read and splined once per energy, not once per cell."""
    from qmotion.schrodinger import PotentialModel

    table = tmp_path / "potential.csv"
    table.write_text("x,V\n" + "".join(
        f"{x / 20},{0.5 * (x / 20) ** 2}\n" for x in range(-70, 71)))
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["potential"] = {"kind": "tabulated", "csv": str(table)}
    cfg = write_config(tmp_path, doc)
    reads, from_csv = [], PotentialModel.from_csv

    def counted(path):
        reads.append(path)
        return from_csv(path)

    monkeypatch.setattr(PotentialModel, "from_csv", counted)
    out = tmp_path / "tab.csv"
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--workers", "1", "--quiet"]) == 0
    assert reads == [str(table)] * 2  # energies 0.5 and 0.8
    monkeypatch.undo()
    assert out.read_bytes() == _sweep_reference(doc)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("a", [[0.0, 1.4], [1.4, 0.0, -0.8]],
                         ids=["first", "later"])
@pytest.mark.parametrize("law", ["velocity", "newton", "legacy"])
def test_sweep_cell_with_a_zero_exits_2(tmp_path, capsys, workers, a, law):
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["run"]["law"] = law
    doc["sweep"]["a"] = a
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", workers]) == 2
    assert capsys.readouterr() == (
        "", "config error: bad scenario configuration: parameter a must be "
            "nonzero\n")


@pytest.mark.parametrize("base", [HARMONIC_SWEEP_DOC, SWEEP_DOC],
                         ids=["harmonic", "free"])
def test_sweep_batches_match_cells_run_one_at_a_time(tmp_path, base):
    # both signs of a, so both directions of motion, and several b per a;
    # each energy's 9 cells are one task and one batch, at any worker count
    doc = json.loads(json.dumps(base))
    doc["sweep"] = {"a": [1.4, -0.8, 0.6], "b": [0.3, -0.2, 0.0],
                    "energy": [0.5, 0.8]}
    cfg = write_config(tmp_path, doc)
    out = {w: tmp_path / f"w{w}.csv" for w in ("1", "2")}
    for workers, path in out.items():
        assert run(["sweep", "--config", cfg, "--out", str(path),
                    "--workers", workers, "--quiet"]) == 0
    assert out["1"].read_bytes() == out["2"].read_bytes()
    assert out["1"].read_bytes() == _sweep_reference(doc)


def _edge_message(edge, t_edge):
    return (f"numerical failure: the run reaches x = {edge} at t = {t_edge}, "
            "before t1 = 20; later positions are outside solved domain "
            "[-2, 3]\n")


@pytest.mark.parametrize("a, workers, message", [
    ([3.0, 1.0], "1", _edge_message(3, 14.3894)),
    ([3.0, 1.0], "2", _edge_message(3, 14.3894)),
    # a later cell's bad state does not pre-empt an earlier cell's error
    ([3.0, 1.0, 0.0], "1", _edge_message(3, 14.3894)),
    # the first error in grid order, whichever way the cells move
    ([3.0, -1.0, 1.0], "1", _edge_message(-2, 1.57804)),
    ([3.0, 1.0, -1.0], "1", _edge_message(3, 14.3894)),
    # one task per energy, so a worker count does not change the order
    ([3.0, 1.0, 0.0], "2", _edge_message(3, 14.3894)),
    ([3.0, -1.0, 1.0], "2", _edge_message(-2, 1.57804)),
    ([3.0, 1.0, -1.0], "2", _edge_message(3, 14.3894)),
])
def test_sweep_reports_the_first_cell_reaching_the_edge(tmp_path, capsys, a,
                                                        workers, message):
    # a = 3 moves right too slowly to reach x = 3 by t1 = 20
    doc = dict(EDGE_DOC, run=dict(EDGE_DOC["run"], t1=20.0),
               sweep={"a": a, "b": [0.0]})
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", workers,
                "--quiet"]) == 3
    assert capsys.readouterr().err == message


def test_sweep_keeps_signed_zero_energies_apart(tmp_path):
    # 0.0 and -0.0 are equal floats but print differently, so each keeps
    # its own rows
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["sweep"]["energy"] = [0.0, -0.0]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "zero.csv"
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--workers", "1", "--quiet"]) == 0
    assert out.read_bytes() == _sweep_reference(doc)


@pytest.mark.parametrize("workers", ["2", "1"])
def test_sweep_failing_harmonic_cell_exits_3(tmp_path, capsys, workers):
    doc = dict(HARMONIC_SWEEP_DOC, potential=STIFF_POTENTIAL,
               run=dict(HARMONIC_SWEEP_DOC["run"], **STIFF_RUN))
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", workers,
                "--quiet"]) == 3
    assert capsys.readouterr().err == STIFF_FAILURE


@pytest.mark.parametrize("workers", ["2", "1"])
def test_sweep_cell_reaching_domain_edge_exits_3(tmp_path, capsys, workers):
    doc = dict(EDGE_DOC, sweep={"a": [1.0, 2.0], "b": [0.0]})
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", workers,
                "--quiet"]) == 3
    assert "outside solved domain" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_reports_truncated_pair_once_per_energy(tmp_path, capsys,
                                                      workers):
    from qmotion.schrodinger import PhysParams, PotentialModel, solve_pair

    # from x = 4.5 the march gets to the caps at |x| = 7.92 and 7.79 of the
    # two energies, though no cell's path reaches them
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["run"].update(domain=[-30.0, 30.0], x_start=4.5)
    doc["sweep"]["energy"] = [0.8, 0.5, 0.8]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", cfg, "--out", str(out),
                "--workers", workers, "--quiet"]) == 0
    captured = capsys.readouterr()
    pairs = [solve_pair(PotentialModel.harmonic(1.0), PhysParams(1.0, 1.0, e),
                        (-30.0, 30.0)) for e in (0.8, 0.5)]
    assert all(pair.truncated for pair in pairs)
    notes = [pair.truncation_note() for pair in pairs]
    assert captured.err.splitlines() == notes
    assert captured.out == ""
    assert out.read_bytes() == _sweep_reference(doc)


@pytest.fixture
def inline_pools(monkeypatch):
    """Replace the sweep's ProcessPoolExecutor by one that runs its tasks in
    this process, on a host of 4 usable cores; returns the max_workers of
    each pool made, in order."""
    import concurrent.futures

    made = []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    return made


# sized as the bench's sweep: 4 x 3 harmonic velocity cells at each of 2
# energies, on a 48k-node pair
BENCH_SWEEP_DOC = {
    "potential": {"kind": "harmonic", "stiffness": 1.0},
    "run": {"law": "velocity", "t1": 0.5, "samples": 16,
            "domain": [-6.0, 6.0], "grid_step": 2.5e-4},
    "sweep": {"a": [1.62, -0.71, 1.13, -1.88], "b": [-0.42, 0.17, 0.86],
              "energy": [0.5, 0.8]},
}


def test_small_velocity_sweep_forks_no_pool(tmp_path, monkeypatch):
    """Each energy's velocity cells are one array pass, which a child
    process only slows down at this size: --workers 2 runs in process and
    writes the --workers 1 bytes."""
    import concurrent.futures

    cfg = write_config(tmp_path, BENCH_SWEEP_DOC)
    out = {w: tmp_path / f"w{w}.csv" for w in ("1", "2")}
    assert run(["sweep", "--config", cfg, "--out", str(out["1"]),
                "--workers", "1", "--quiet"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert run(["sweep", "--config", cfg, "--out", str(out["2"]),
                "--workers", "2", "--quiet"]) == 0
    assert out["2"].read_bytes() == out["1"].read_bytes()


def test_newton_sweep_reaches_the_pool(tmp_path, inline_pools):
    # the newton law runs an energy's cells one at a time, so two energies
    # still go to two workers
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["run"]["law"] = "newton"
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", "2", "--quiet"]) == 0
    assert inline_pools == [2]


def test_large_velocity_groups_reach_the_pool(tmp_path, monkeypatch,
                                              inline_pools):
    import qmotion.cli as cli

    cfg = write_config(tmp_path, HARMONIC_SWEEP_DOC)
    out = tmp_path / "pool.csv"
    # energy 0.5 appears twice, so its group holds 4 cells, the largest
    monkeypatch.setattr(cli, "_POOL_MIN_CELLS", 5)
    assert run(["sweep", "--config", cfg, "--out", str(out), "--workers", "2",
                "--quiet"]) == 0
    assert inline_pools == []
    monkeypatch.setattr(cli, "_POOL_MIN_CELLS", 4)
    assert run(["sweep", "--config", cfg, "--out", str(out), "--workers", "2",
                "--quiet"]) == 0
    assert inline_pools == [2]
    assert out.read_bytes() == _sweep_reference(HARMONIC_SWEEP_DOC)


@pytest.mark.parametrize("cores, workers", [
    ({0, 1, 2}, 3),                 # the affinity mask caps 64 workers
    (set(range(8)), 4),             # so do the 4 energies
    (None, 2),                      # no affinity mask: os.cpu_count()
])
def test_sweep_pool_is_capped_at_the_usable_cores(tmp_path, monkeypatch,
                                                  inline_pools, cores,
                                                  workers):
    import qmotion.cli as cli

    if cores is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores,
                            raising=False)
    monkeypatch.setattr(cli, "_POOL_MIN_CELLS", 1)
    doc = json.loads(json.dumps(HARMONIC_SWEEP_DOC))
    doc["sweep"] = {"a": [1.4], "b": [0.3], "energy": [0.5, 0.6, 0.7, 0.8]}
    cfg = write_config(tmp_path, doc)
    assert run(["sweep", "--config", cfg, "--workers", "64", "--quiet"]) == 0
    assert inline_pools == [workers]


def test_sweep_pool_reports_the_first_energy_reaching_the_edge(
        tmp_path, capsys, monkeypatch):
    """A domain edge error crosses a real pool of two workers.  Both
    energies' newton tasks fail: the first energy's error is the one
    reported, though the second energy's failing cell (3, 0, 0.8) comes
    first in grid order, and of the first energy's cells the first to fail
    in grid order, (-1, 0, 0.5)."""
    import concurrent.futures

    made, pool = [], concurrent.futures.ProcessPoolExecutor

    class CountedPool(pool):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    doc = dict(EDGE_DOC, run=dict(EDGE_DOC["run"], t1=20.0, law="newton"),
               sweep={"a": [3.0, -1.0, 1.0], "b": [0.0], "energy": [0.5, 0.8]})
    cfg = write_config(tmp_path, doc)
    errs = []
    for workers in ("1", "2"):
        assert run(["sweep", "--config", cfg, "--workers", workers,
                    "--quiet"]) == 3
        errs.append(capsys.readouterr().err)
    assert made == [2]
    assert errs == [_edge_message(-2, 1.57804)] * 2


def test_quiet_silences_stdout(tmp_path, capsys):
    out = str(tmp_path / "q.csv")
    cfg = write_config(tmp_path, free_doc(out, t1=1.0, samples=8, fmt="csv"))
    assert run(["trajectory", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
