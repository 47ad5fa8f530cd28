"""Command-line contract: exit codes, option resolution, artifact files,
the printed verdict line, and byte-level determinism.

Everything drives cli.main() in-process with small grids; the heavy pinned
resolutions belong to the acceptance suite.  Exit codes are the contract
(0 ok, 1 config, 2 solver, 3 verification), so each test asserts the code
first and the artifacts second.
"""

import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import eulerlab
from eulerlab import acceptance, cli, flows
from eulerlab import diagnostics as dg
from eulerlab import serialize as ser
from eulerlab import streamlines as sl
from eulerlab.grid import Grid, STRIP


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# config errors (exit 1)


def test_no_command_is_config_error(capsys):
    assert cli.main([]) == 1
    assert "command" in capsys.readouterr().err


def test_unknown_command_is_config_error(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_missing_family_is_config_error(capsys):
    assert cli.main(["solve1d"]) == 1
    assert "--family" in capsys.readouterr().err


def test_missing_lambda_names_the_field(capsys):
    assert cli.main(["solve1d", "--family", "arctan"]) == 1
    assert "--lambda" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert cli.main(["solve1d", "--famly", "arctan"]) == 1


def test_trace_requires_seed(tmp_path, capsys):
    code = cli.main(["trace", "--catalog", "couette",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_malformed_seed_is_config_error(tmp_path, capsys):
    args = ["trace", "--catalog", "couette", "--out", str(tmp_path)]
    assert cli.main(args + ["--seed", "0.5"]) == 1
    assert cli.main(args + ["--seed", "a,b"]) == 1


def test_seed_outside_domain_is_config_error(tmp_path, capsys):
    code = cli.main(["trace", "--catalog", "couette", "--seed", "0,3",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "outside" in capsys.readouterr().err


def test_grid_spec_errors(tmp_path, capsys):
    base = ["analyze", "--catalog", "couette", "--out", str(tmp_path)]
    assert cli.main(base + ["--grid", "torus"]) == 1
    assert cli.main(base + ["--grid", "strip:12:257"]) == 1
    assert cli.main(base + ["--grid", "hexagon:1:9:9"]) == 1
    # parseable grid of the wrong kind for the catalog flow
    assert cli.main(base + ["--grid", "torus:64"]) == 1


def test_analyze_requires_exactly_one_source(tmp_path, capsys):
    assert cli.main(["analyze", "--out", str(tmp_path)]) == 1
    assert cli.main(["analyze", "--catalog", "couette", "--solve", "strip",
                     "--out", str(tmp_path)]) == 1


def test_unreadable_flow_file_is_config_error(tmp_path, capsys):
    assert cli.main(["analyze", "--file", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path)]) == 1


def test_bad_radii_are_config_errors(tmp_path):
    base = ["analyze", "--catalog", "couette", "--out", str(tmp_path)]
    assert cli.main(base + ["--R", "4,-6"]) == 1
    assert cli.main(base + ["--R", "abc"]) == 1


def test_unknown_suite_is_config_error(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "everything",
                     "--out", str(tmp_path)]) == 1
    assert "suite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve1d


def test_solve1d_writes_profile_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve1d", "--family", "arctan", "--lambda", "4",
                     "--n", "257", "--out", str(out)])
    assert code == 0
    assert (out / "profile.csv").exists()
    rep = read_json(out / "report.json")
    assert rep["schema_version"] == ser.SCHEMA_VERSION
    assert rep["error"] is None
    assert rep["residual"] < 1e-10
    assert rep["config"]["command"] == "solve1d"
    assert rep["config"]["lam"] == 4.0
    assert rep["config"]["n"] == 257


def test_solve1d_below_threshold_is_solver_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve1d", "--family", "arctan", "--lambda", "2",
                     "--out", str(out)])
    assert code == 2
    rep = read_json(out / "report.json")
    assert rep["error"] == "NoSubsolution"
    assert "NoSubsolution" in capsys.readouterr().err


def test_solve1d_heteroclinic(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve1d", "--family", "allen-cahn", "--n", "801",
                     "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["error"] is None
    assert rep["residual"] < 1e-8


def test_solve1d_large_lambda_on_a_coarse_grid(tmp_path):
    # at h = 1/64 the rounding floor sits far below tol, and with the shift
    # at 0.1 the sweeps contract at about 0.04 instead of about 1 - 1e-3
    out = tmp_path / "run"
    assert cli.main(["solve1d", "--family", "arctan", "--lambda", "1e3",
                     "--n", "129", "--out", str(out)]) == 0
    rep = read_json(out / "report.json")
    assert rep["error"] is None and rep["residual"] < 1e-10


@pytest.mark.parametrize("lam", ["100", "1000"])
def test_large_lambda_strip_descends_in_few_sweeps(lam, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
                     "--lambda", lam, "--out", str(out)]) == 0
    rep = read_json(out / "report.json")
    assert rep["error"] is None and rep["solver"]["iterations"] <= 15


# on long intervals the float64 iterate comes within rounding of the
# unstable state 0, where the engine's clamp keeps it in the sandwich
@pytest.mark.parametrize("L", ["100", "200"])
def test_solve1d_heteroclinic_on_long_intervals(L, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["solve1d", "--family", "allen-cahn", "--L", L,
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = read_json(out / "report.json")
    assert rep["error"] is None and rep["residual"] < 1e-10


# ---------------------------------------------------------------------------
# config file and environment resolution


def test_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "arctan", "lambda": 2.0,
                               "n": 257}))
    out = tmp_path / "run"
    # config alone would exit 2 (lambda 2 has no subsolution); the flag
    # overrides it while n still comes from the file
    code = cli.main(["solve1d", "--config", str(cfg), "--lambda", "4",
                     "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["config"]["lam"] == 4.0
    assert rep["config"]["n"] == 257


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "arctan", "lambada": 3}))
    assert cli.main(["solve1d", "--config", str(cfg)]) == 1
    assert "lambada" in capsys.readouterr().err


# a config key is the long flag without its dashes, and nothing else
@pytest.mark.parametrize("argv, entry", [
    (["solve1d", "--family", "arctan"], {"lam": 4}),
    (["solve", "strip"], {"far_field": "zero"}),
])
def test_config_key_other_than_the_long_flag_is_rejected(argv, entry,
                                                         tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    capsys.readouterr()
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "config error: unknown config key %r for command %r\n"
        % (next(iter(entry)), argv[0]))


def test_config_file_type_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "arctan", "lambda": 4.0,
                               "n": "many"}))
    assert cli.main(["solve1d", "--config", str(cfg)]) == 1
    cfg.write_text(json.dumps([1, 2, 3]))
    assert cli.main(["solve1d", "--config", str(cfg)]) == 1


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("EULERLAB_OUT", str(envdir))
    code = cli.main(["analyze", "--catalog", "couette",
                     "--grid", "strip:4:65:17"])
    assert code == 0
    assert (envdir / "report.json").exists()


def test_explicit_out_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("EULERLAB_OUT", str(tmp_path / "ignored"))
    chosen = tmp_path / "chosen"
    code = cli.main(["analyze", "--catalog", "couette",
                     "--grid", "strip:4:65:17", "--out", str(chosen)])
    assert code == 0
    assert (chosen / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_couette_verdict_line(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--catalog", "couette",
                     "--grid", "strip:12:257:65", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == "classification=Shear TC=0 Jinf=0 gap=0"
    for name in ("report.json", "angle_set.csv", "curvature_profile.csv"):
        assert (out / name).exists()
    rep = read_json(out / "report.json")
    assert rep["verdict"]["kind"] == "Shear"
    assert rep["config"]["grid"] == "strip:12:257:65"


def test_analyze_taylor_green_verdict(tmp_path, capsys):
    code = cli.main(["analyze", "--catalog", "TAYLOR-GREEN",
                     "--grid", "torus:256", "--out", str(tmp_path / "run")])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("classification=FullCircle TC=")


def test_analyze_radii_are_used(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["analyze", "--catalog", "couette",
                     "--grid", "strip:12:257:65", "--R", "4,6",
                     "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert [pair[0] for pair in rep["J_inf_trace"]] == [4.0, 6.0]


def test_analyze_is_byte_deterministic(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
            "--out", str(out)]
    assert cli.main(args) == 0
    first = {name: (out / name).read_bytes()
             for name in ("report.json", "angle_set.csv",
                          "curvature_profile.csv")}
    assert cli.main(args) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


# ---------------------------------------------------------------------------
# solve


def test_solve_strip_clean_attachment(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", "strip", "--lambda", "4", "--L", "8",
                     "--nx", "257", "--ny", "33", "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["error"] is None
    assert rep["attachment_warning"] is False
    assert rep["solver"]["iterations"] > 0
    flow = flows.load_flow(out / "flow.json")
    assert flow.pressure is not None


def test_solve_strip_short_truncation_warns(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["solve", "strip", "--lambda", "4", "--L", "2",
                     "--nx", "129", "--ny", "33", "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["attachment_warning"] is True
    assert rep["attachment_gap"] > cli.ATTACHMENT_WARN
    assert "attachment warning" in capsys.readouterr().out


def test_solve_halfplane(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["solve", "halfplane", "--L", "14", "--n", "81",
                     "--out", str(out)])
    assert code == 0
    rep = read_json(out / "report.json")
    assert rep["attachment_warning"] is False
    flow = flows.load_flow(out / "flow.json")
    assert flow.grid.kind == "HalfPlaneTruncation"


# ---------------------------------------------------------------------------
# trace and reproduce


def test_trace_couette_is_horizontal(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["trace", "--catalog", "couette", "--seed", "0,0.5",
                     "--out", str(out)])
    assert code == 0
    header, cols = ser.read_csv(out / "traces.csv")
    assert header == ["trace_id", "order", "x", "y"]
    assert np.all(cols[0] == 0)
    assert np.max(np.abs(cols[3] - 0.5)) == 0.0
    manifest = read_json(out / "traces.json")
    assert len(manifest["traces"]) == 1
    assert manifest["traces"][0]["termination"] == "LeftDomain"
    assert manifest["config"]["command"] == "trace"


def test_trace_multiple_seeds(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["trace", "--catalog", "couette", "--seed", "0,0.5",
                     "--seed", "0,-0.25", "--out", str(out)])
    assert code == 0
    manifest = read_json(out / "traces.json")
    assert len(manifest["traces"]) == 2


def test_reproduce_figure2(tmp_path):
    out = tmp_path / "figs"
    code = cli.main(["reproduce", "figure2", "--out", str(out)])
    assert code == 0
    for name in ("figure2_separatrices.csv", "figure2_separatrices.json",
                 "figure2_traces.csv", "figure2_traces.json",
                 "figure2_stagnation.csv"):
        assert (out / name).exists()
    header, cols = ser.read_csv(out / "figure2_stagnation.csv")
    assert header == ["x", "y", "speed"]
    ys = sorted(cols[1])
    assert len(ys) == 2
    assert ys[0] == pytest.approx(-1.0, abs=1e-9)
    assert ys[1] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(cols[0])) <= 1e-9
    assert np.max(cols[2]) == 0.0


# ---------------------------------------------------------------------------
# verify


def test_verify_shears_suite_passes(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["verify", "--suite", "shears", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS shear_curvature[Couette]" in printed
    assert "FAIL" not in printed
    rep = read_json(out / "verify.json")
    assert rep["all_passed"] is True
    assert rep["config"]["suite"] == "shears"
    assert all(entry["passed"] for entry in rep["results"])


def test_verify_oned_suite_passes(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "oned",
                     "--out", str(tmp_path)]) == 0


def test_a_saddle_without_a_stagnation_point_prints_every_line(
        tmp_path, capsys, monkeypatch, cache):
    # the origin check fails instead of going missing, so a failing saddle
    # prints as many lines as a passing one
    monkeypatch.setattr(sl, "stagnation_points", lambda flow: [])
    monkeypatch.setattr(cache, "drop", lambda key: None)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: cache)
    assert len(acceptance.check_saddle_flow(cache)) == 5
    code = cli.main(["verify", "--suite", "all", "--out", str(tmp_path)])
    assert code == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 48 and lines[-1] == "suite all: 47 checks, 2 failed"
    assert "FAIL saddle_stagnation_at_origin measured=none expected=0 " \
           "tol=<= 2h" in lines


# ---------------------------------------------------------------------------
# front-door robustness and the documented commands


@pytest.mark.parametrize("argv", [
    ["solve1d", "--family", "arctan", "--lambda", "4", "--tol", "nan"],
    ["solve1d", "--family", "arctan", "--lambda", "inf"],
    ["solve1d", "--family", "arctan", "--lambda", "-1"],
    ["analyze", "--catalog", "couette", "--out", "{file}/x"],
    ["solve", "strip", "--nx", "9"],
    ["solve", "strip", "--nx", "16"],
    ["solve", "halfplane", "--n", "5"],
    ["analyze", "--catalog", "couette", "--bins", "0"],
    ["analyze", "--solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
     "--bins", "4"],
    ["analyze", "--catalog", "couette", "--kappa-bins", "8"],
    ["analyze", "--catalog", "couette", "--R", "nan"],
    ["trace", "--catalog", "couette", "--seed", "0,0.5", "--step", "0"],
    ["trace", "--catalog", "couette", "--seed", "0,0.5", "--max-steps", "0"],
    ["trace", "--catalog", "couette", "--seed", "inf,0.5"],
    ["trace", "--catalog", "taylor-green", "--seed", "1e308,0.5"],
    ["analyze", "--file", "{bundle:no-csv}"],
    ["analyze", "--file", "{bundle:short-csv}"],
    ["analyze", "--file", "{bundle:no-fields}"],
    ["analyze", "--file", "{bundle:foreign-csv}"],
    ["analyze", "--catalog", "couette", "--grid", "strip:inf:257:65"],
    ["analyze", "--catalog", "couette", "--grid", "strip:1e308:257:65"],
    ["analyze", "--solve", "halfplane", "--n", "41", "--R", "0.5"],
    ["analyze", "--solve", "halfplane", "--n", "41", "--R", "1,5"],
    # a plateau radius wider than the strip's half-width
    ["analyze", "--catalog", "couette", "--grid", "strip:4:65:33", "--R", "5"],
    # a seed off a bounded grid
    ["trace", "--catalog", "couette", "--grid", "strip:4:33:17",
     "--seed", "0,5"],
    ["analyze", "--catalog", "couette", "--shear-tol", "-1"],
    # spacings whose h^2 overflows or underflows
    ["solve1d", "--family", "allen-cahn", "--L", "1e300"],
    ["solve", "halfplane", "--L", "1e300", "--n", "41"],
    ["solve", "strip", "--L", "1e300", "--nx", "97", "--ny", "33"],
    ["solve", "strip", "--L", "1e-300", "--nx", "97", "--ny", "33"],
    # the acceptance suite has one resolution
    ["verify", "--fast"],
    # the 2D solves descend from their supersolution: no starting side
    ["solve", "strip", "--start", "sub"],
    # options of the other geometry, which its solve would never read
    ["solve", "halfplane", "--n", "41", "--far-field", "zero"],
    ["solve", "halfplane", "--n", "41", "--nx", "99"],
    ["solve", "halfplane", "--n", "41", "--ny", "33"],
    ["solve", "strip", "--nx", "97", "--ny", "33", "--n", "41"],
    ["analyze", "--solve", "halfplane", "--n", "41", "--nx", "99"],
    ["trace", "--solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
     "--n", "41", "--seed", "0,0.5"],
    ["solve", "halfplane", "--n", "41", "--config", "{zero_config}"],
    ["solve", "halfplane", "--n", "41", "--nx", "3"],
    ["solve", "strip", "--config", "{start_config}"],
    # a torus march so long that (x - x0) / h overflows
    ["trace", "--catalog", "taylor-green", "--grid", "torus:64",
     "--seed=1,1", "--step", "1e308"],
    # envelope entries of the wrong JSON type
    ["analyze", "--file", "{bundle:array}"],
    ["analyze", "--file", "{bundle:csv-number}"],
    ["analyze", "--file", "{bundle:csv-null}"],
    ["analyze", "--file", "{bundle:x-range-number}"],
    ["analyze", "--file", "{bundle:provenance-number}"],
    # wall rows that are not the grid's
    ["analyze", "--file", "{bundle:boundary-rows}"],
    ["trace", "--file", "{bundle:array}", "--seed", "0,0.5"],
    # a finite flow whose diagnostics overflow the double range
    ["analyze", "--catalog", "exponential-counterexample", "--grid",
     "plane:200:65:65"],
    # sizes whose first array numpy refuses (7.28 TiB each)
    ["analyze", "--catalog", "taylor-green", "--grid", "torus:64",
     "--bins", "1000000000000"],
    ["analyze", "--catalog", "taylor-green", "--grid", "torus:1000000"],
])
def test_bad_input_is_one_line_config_error(argv, tmp_path, capsys):
    plain = tmp_path / "plain_file"
    plain.write_text("")
    zero = tmp_path / "zero_far_field.json"
    zero.write_text('{"far-field": "zero"}')
    start = tmp_path / "start.json"
    start.write_text('{"start": "sub"}')
    argv = [a.replace("{file}", str(plain)).replace("{zero_config}", str(zero))
            .replace("{start_config}", str(start)) for a in argv]
    expected = ""
    for damage, (spoil, message) in BUNDLE_DAMAGE.items():
        tag = "{bundle:%s}" % damage
        if tag in argv:
            argv[argv.index(tag)] = str(_damaged_bundle(tmp_path, spoil))
            expected = message
    capsys.readouterr()
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + expected)
    assert err.count("\n") == 1
    assert "Traceback" not in err


# an option the run would not read is refused by name before its value is
# range-checked, alike from a flag and from --config
@pytest.mark.parametrize("argv, key, value, says", [
    (["solve", "halfplane", "--n", "41"], "nx", "3",
     "the strip solve, not to halfplane"),
    (["solve", "halfplane", "--n", "41"], "lambda", "7",
     "the strip solve, not to halfplane"),
    (["solve1d", "--family", "allen-cahn", "--n", "401"], "lambda", "9",
     "the arctan family, not to allen-cahn"),
    (["solve1d", "--family", "allen-cahn", "--n", "401"], "start", "super",
     "the arctan family, not to allen-cahn"),
    (["solve1d", "--family", "arctan", "--lambda", "4", "--n", "129"], "L",
     "55", "the allen-cahn family, not to arctan"),
    (["analyze", "--catalog", "taylor-green", "--grid", "torus:16"], "nx",
     "99", "--solve, not to --catalog"),
    (["trace", "--catalog", "couette", "--seed", "0,0.5"], "far-field",
     "zero", "--solve, not to --catalog"),
    (["trace", "--file", "flow.json", "--seed", "0,0.5"], "tol", "1e-3",
     "--solve, not to --file"),
    (["analyze", "--file", "flow.json"], "grid", "torus:16",
     "--catalog, not to --file"),
    (["analyze", "--solve", "strip"], "grid", "torus:16",
     "--catalog, not to --solve"),
])
def test_option_the_run_does_not_read_is_refused(argv, key, value, says,
                                                 tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = "--" + key
    capsys.readouterr()
    for extra in ([flag, value], ["--config", str(cfg)]):
        assert cli.main(argv + extra + ["--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == ("config error: %s belongs to %s\n"
                                           % (flag, says))


def test_construction_parameters_are_solver_options():
    # the CLI reads each command's options and defaults off the signatures
    # of the library calls it makes, so a renamed library parameter must
    # fail here, not go quietly unset
    solve_dests = {o.dest for o in cli._solver_options()}
    family_dests = {o.dest for o in cli._COMMANDS["solve1d"]["options"]}
    for which in cli._CONSTRUCTIONS:
        params = cli._parameters(which)
        family = which in cli._NONLINEARITIES
        assert set(params) <= (family_dests if family else solve_dests), which
        assert all(p.kind == p.POSITIONAL_OR_KEYWORD
                   for p in params.values())
        required = {k for k, p in params.items() if p.default is p.empty}
        assert required == ({"lam"} if which == "arctan" else set()), which
    for fn, cmd in ((dg.run_diagnostics, "analyze"), (sl.trace, "trace")):
        dests = {o.dest for o in cli._COMMANDS[cmd]["options"]}
        # past the flow, every parameter is an option of the command
        assert set(list(inspect.signature(fn).parameters)[1:]) <= dests, cmd


# the one default that no golden run covers: each family's node count
@pytest.mark.parametrize("argv, echo", [
    (["--family", "arctan", "--lambda", "4"],
     {"lam": 4.0, "n": 2001, "tol": 1e-10, "start": "sub", "L": None}),
    (["--family", "allen-cahn"],
     {"lam": None, "n": 4001, "tol": 1e-10, "start": None, "L": 20.0}),
])
def test_solve1d_echoes_the_defaults_of_its_solver(argv, echo, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["solve1d"] + argv + ["--out", str(out)]) == 0
    cfg = read_json(out / "report.json")["config"]
    assert {k: cfg[k] for k in echo} == echo


@pytest.mark.parametrize("argv, says", [
    # the 1D profile's tol sits below the rounding floor of its
    # extended-precision polish, so its float64 phase ends at once
    pytest.param(["analyze", "--solve", "strip", "--nx", "97", "--ny", "33",
                  "--L", "6", "--tol", "1e-300"],
                 "below the rounding floor", id="argv0"),
    # the 2D sweeps stall on a strip too thin for the defect to pass
    pytest.param(["solve", "strip", "--L", "1e-150", "--nx", "97",
                  "--ny", "33"], "stalled at sweep", id="argv1"),
])
# the folded ring of the thin strip is ~1e303, so a norm that overflowed
# would warn here, and its infinite bound would pass every linear solve
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stalled_iteration_is_one_line_solver_error(argv, says, tmp_path,
                                                    capsys):
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("solver error: ")]
    assert len(lines) == 1
    assert says in lines[0]


# runs that cannot finish end at once with one line, and nothing on the way
# warns: lambda*pi/2 past float range is refused up front, the arctan f'
# overflows quietly to its limit 0 on the huge sandwich, a tol below the
# long-double defect's rounding floor is refused at the first settled rate,
# a right side that overflows is refused before its transform, a
# transform that overflows before its residual check, and a polish that
# rounding stalls above tol names the defect it reached
@pytest.mark.parametrize("argv, code, head, says", [
    # |u| reaches lam*pi/4, so the floor 2*eps*max|u|/h^2 passes tol 1e-10
    # from lam ~ 600 on at h = 1e-3
    (["solve1d", "--family", "arctan", "--lambda", "1e6"], 2,
     "solver error: NonConvergence: ", "below the rounding floor"),
    (["solve1d", "--family", "arctan", "--lambda", "1e200"], 2,
     "solver error: NonConvergence: ", "below the rounding floor"),
    (["solve1d", "--family", "arctan", "--lambda", "1e300"], 2,
     "solver error: NonConvergence: ", "below the rounding floor"),
    (["solve1d", "--family", "arctan", "--lambda", "1e308"], 1,
     "config error: ", "--lambda 1e+308 is too large"),
    (["solve", "strip", "--lambda", "1e308"], 1,
     "config error: ", "--lambda 1e+308 is too large"),
    # f(u) + shift*u overflows in the sweep's right side
    (["solve1d", "--family", "arctan", "--lambda", "5e307"], 2,
     "solver error: NonConvergence: ", "right side of the sine-transform "
     "solve is not finite"),
    # at |u| ~ 800 and h = 1e-3 the default tol 1e-10 sits below the
    # long-double defect's rounding floor
    (["solve1d", "--family", "arctan", "--lambda", "1e3"], 2,
     "solver error: NonConvergence: ", "below the rounding floor"),
    # the right side is finite, but its sine-transform sums overflow
    (["solve1d", "--family", "arctan", "--lambda", "1e305"], 2,
     "solver error: NonConvergence: ", "sine transform of a right side of "
     "7.115e+306 overflowed"),
    (["solve1d", "--family", "arctan", "--lambda", "1e306"], 2,
     "solver error: NonConvergence: ", "sine transform of a right side of "
     "2.624e+307 overflowed"),
    # under the floor estimate 6.8e-11 the tol still sits within reach of
    # rounding: the polish's sweep returns its input at a defect of 2.1e-10
    (["solve1d", "--family", "arctan", "--lambda", "400"], 2,
     "solver error: NonConvergence: ", "the long-double polish stalled at "
     "a defect of 2.130e-10, above tol 1.000e-10"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_lambda_is_one_error_line(argv, code, head, says, tmp_path,
                                        capsys):
    capsys.readouterr()
    start = time.perf_counter()
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == code
    # a run that spends its 200,000 float64 sweeps takes about a minute
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(head) and says in err


# a catalog sample or a diagnostic past the double range is refused by
# name, with nothing written and nothing warned on the way
@pytest.mark.parametrize("command, width, says", [
    (["analyze"], 200, "kappa_cv_upper overflows the double range"),
    (["analyze"], 700, "ExponentialCounterexample overflows on Grid(Plane"),
    (["trace", "--seed", "0,0.5"], 700,
     "ExponentialCounterexample overflows on Grid(Plane"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_counterexample_is_refused_quietly(command, width, says,
                                                       tmp_path, capsys):
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(command + ["--catalog", "exponential-counterexample",
                               "--grid", "plane:%d:65:65" % width,
                               "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert says in err
    assert os.listdir(out) == []


def _checked_options():
    return [(cmd, opt) for cmd, spec in sorted(cli._COMMANDS.items())
            for opt in spec["options"]
            if opt.choices or opt.conv in (float, int)]


@pytest.mark.parametrize("cmd, opt", _checked_options(),
                         ids=lambda v: getattr(v, "flag", v))
def test_flag_and_config_values_pass_one_check(cmd, opt, tmp_path, capsys):
    # a bad value fails alike on the command line and in a --config file;
    # only the name of its source differs
    spec = cli._COMMANDS[cmd]
    bad = "nope" if opt.choices else "abc"
    key = opt.flag[2:]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    argv = [cmd] + [choices[0] for _, choices in spec["positionals"]]
    lines = []
    capsys.readouterr()
    for extra, name in (([opt.flag, bad], opt.flag),
                        (["--config", str(cfg)], "config key %r" % key)):
        assert cli.main(argv + extra + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert name in err
        lines.append(err.replace(name, "<source>"))
    assert lines[0] == lines[1]


def _drop_last_row(bundle):
    rows = (bundle / "flow.csv").read_text().splitlines(keepends=True)
    (bundle / "flow.csv").write_text("".join(rows[:-1]))


def _drop_csv_entry(bundle):
    env = ser.read_json(bundle / "flow.json")
    del env["csv"]
    ser.write_json(env, bundle / "flow.json")


def _name_a_foreign_csv(bundle):
    # a 32x24 envelope naming the CSV of a 48x16 strip: same node count,
    # other nodes
    for nx, ny, name in ((32, 24, "flow"), (48, 16, "other")):
        grid = Grid(STRIP, nx, ny, (-4.0, 4.0), (-1.0, 1.0))
        flows.save_flow(flows.analytic_flow("Poiseuille", grid),
                        bundle / (name + ".csv"), bundle / (name + ".json"))
    env = ser.read_json(bundle / "flow.json")
    env["csv"] = "other.csv"
    ser.write_json(env, bundle / "flow.json")


def _edit_envelope(edit):
    def spoil(bundle):
        env = ser.read_json(bundle / "flow.json")
        ser.write_json(edit(env), bundle / "flow.json")
    return spoil


# a flow bundle with one defect, and the start of the message it must give
BUNDLE_DAMAGE = {
    "no-csv": (lambda b: (b / "flow.csv").unlink(),
               "cannot read flow bundle"),
    "short-csv": (_drop_last_row, "not a flow bundle"),
    "no-fields": (_drop_csv_entry, "not a flow bundle"),
    "foreign-csv": (_name_a_foreign_csv, "not a flow bundle"),
    "array": (_edit_envelope(lambda env: [env]), "not a flow bundle"),
    "csv-number": (_edit_envelope(lambda env: dict(env, csv=5)),
                   "not a flow bundle"),
    "csv-null": (_edit_envelope(lambda env: dict(env, csv=None)),
                 "not a flow bundle"),
    "x-range-number": (_edit_envelope(lambda env: dict(
        env, grid=dict(env["grid"], x_range=3))), "not a flow bundle"),
    "provenance-number": (_edit_envelope(lambda env: dict(env, provenance=7)),
                          "not a flow bundle"),
    "boundary-rows": (_edit_envelope(lambda env: dict(env, boundary_rows=[3])),
                      "not a flow bundle"),
}


def _damaged_bundle(tmp_path, spoil):
    bundle = tmp_path / "bundle"
    assert cli.main(["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
                     "--out", str(bundle)]) == 0
    spoil(bundle)
    return bundle / "flow.json"


def test_cli_import_leaves_scipy_out():
    # scipy serves only the sine transforms of a solve and loads on the
    # first one; importing it up front cost every command ~0.3 s of start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulerlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, eulerlab.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_concurrent_futures_out():
    # verify imports its worker pool when a suite runs; loading it with the
    # CLI cost every command ~4 ms of start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulerlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, eulerlab.cli; print(sorted(m for m in sys.modules"
            " if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_solve_leaves_the_scipy_fft_package_out(tmp_path):
    # a solve loads scipy's sine-transform extension from its file; the
    # scipy.fft package and the scipy.special it pulls in stay unloaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(eulerlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from eulerlab import cli; code = cli.main(['solve',"
            " 'strip', '--L', '6', '--nx', '97', '--ny', '33', '--out',"
            " sys.argv[1]]); print(sorted(m for m in sys.modules if"
            " m.startswith(('scipy.fft', 'scipy.special')))); sys.exit(code)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_file_bundle_reads_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
                     "--out", "bundle"]) == 0
    assert cli.main(["analyze", "--file", "bundle/flow.json",
                     "--out", "here"]) == 0
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert cli.main(["analyze", "--file", "../bundle/flow.json",
                     "--out", "../there"]) == 0
    for name in ("angle_set.csv", "curvature_profile.csv"):
        assert ((tmp_path / "there" / name).read_bytes()
                == (tmp_path / "here" / name).read_bytes())


def test_negative_seed_needs_no_equals_sign(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["trace", "--catalog", "couette", "--seed", "-3,-0.5",
                     "--seed", "-2,0.25", "--out", str(out)])
    assert code == 0
    manifest = read_json(out / "traces.json")
    assert [t["seed"] for t in manifest["traces"]] == [[-3.0, -0.5],
                                                       [-2.0, 0.25]]


def _readme():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        return fh.read()


def _readme_commands():
    text = _readme()
    return (re.findall(r"^eulerlab .*$", text, re.M)
            + re.findall(r"`(eulerlab [^`]+)`", text))


def test_readme_commands_parse_and_resolve(monkeypatch):
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 14
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        ns = cli._build_parser().parse_args(argv)
        resolved = cli._resolve(ns.command, ns)
        assert resolved["out"] == "eulerlab_out", line


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys, cache):
    # the commands of the README's fenced blocks, in order, so that
    # analyze --file eulerlab_out/flow.json reads the bundle the solve
    # before it wrote; verify and reproduce take their flows from the
    # session's flow cache, which keeps them for later modules
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EULERLAB_OUT", raising=False)
    monkeypatch.setattr(cache, "drop", lambda key: None)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: cache)
    lines = [line for block in _readme().split("```")[1::2]
             for line in block.splitlines() if line.startswith("eulerlab ")]
    assert len(lines) == 13
    capsys.readouterr()
    for line in lines:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(shlex.split(line, comments=True)[1:])
        assert (code, capsys.readouterr().err, caught) == (0, "", []), line
