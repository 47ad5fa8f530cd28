"""Command-line contract: exit codes, option resolution, artifact files,
the printed verdict line, and byte-level determinism.

Everything drives cli.main() in-process with small grids; the heavy pinned
resolutions belong to the acceptance suite.  Exit codes are the contract
(0 ok, 1 config, 2 solver, 3 verification), so each test asserts the code
first and the artifacts second.
"""

import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import eulerlab
from eulerlab import cli, flows
from eulerlab import serialize as ser
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
    ["analyze", "--catalog", "couette", "--shear-tol", "-1"],
    # spacings whose h^2 overflows or underflows
    ["solve1d", "--family", "allen-cahn", "--L", "1e300"],
    ["solve", "halfplane", "--L", "1e300", "--n", "41"],
    ["solve", "strip", "--L", "1e300", "--nx", "97", "--ny", "33"],
    ["solve", "strip", "--L", "1e-300", "--nx", "97", "--ny", "33"],
    # the acceptance suite has one resolution
    ["verify", "--fast"],
])
def test_bad_input_is_one_line_config_error(argv, tmp_path, capsys):
    plain = tmp_path / "plain_file"
    plain.write_text("")
    argv = [a.replace("{file}", str(plain)) for a in argv]
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


@pytest.mark.parametrize("argv", [
    # the 1D profile's extended-precision polish stalls below rounding
    ["analyze", "--solve", "strip", "--nx", "97", "--ny", "33", "--L", "6",
     "--tol", "1e-300"],
    # the 2D sweeps stall on a strip too thin for the defect to pass
    ["solve", "strip", "--L", "1e-150", "--nx", "97", "--ny", "33"],
])
# the folded ring of the thin strip is ~1e303, so a norm that overflowed
# would warn here, and its infinite bound would pass every linear solve
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stalled_iteration_is_one_line_solver_error(argv, tmp_path, capsys):
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("solver error: ")]
    assert len(lines) == 1
    assert "stalled at sweep" in lines[0]


# runs that cannot finish end at once with one line, and nothing on the way
# warns: lambda*pi/2 past float range is refused up front, the arctan f'
# overflows quietly to its limit 0 on the huge sandwich, and a right side
# that overflows is refused before its transform
@pytest.mark.parametrize("argv, code, head, says", [
    (["solve1d", "--family", "arctan", "--lambda", "1e6"], 2,
     "solver error: NonConvergence: ", "predicts no end"),
    (["solve1d", "--family", "arctan", "--lambda", "1e200"], 2,
     "solver error: NonConvergence: ", "predicts no end"),
    (["solve1d", "--family", "arctan", "--lambda", "1e300"], 2,
     "solver error: NonConvergence: ", "predicts no end"),
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
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_lambda_is_one_error_line(argv, code, head, says, tmp_path,
                                        capsys):
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(head) and says in err


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


# a flow bundle with one defect, and the start of the message it must give
BUNDLE_DAMAGE = {
    "no-csv": (lambda b: (b / "flow.csv").unlink(),
               "cannot read flow bundle"),
    "short-csv": (_drop_last_row, "not a flow bundle"),
    "no-fields": (_drop_csv_entry, "not a flow bundle"),
    "foreign-csv": (_name_a_foreign_csv, "not a flow bundle"),
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


def _readme_commands():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read()
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
