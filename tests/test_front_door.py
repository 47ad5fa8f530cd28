"""The front-door contract, with argv drawn from the option table itself.

Whatever a user passes, on the command line or through ``--config``, a
command exits 0, 1 or 2, prints no traceback and no warning, and a failure
(exit 1 or 2) is exactly one ``config error:`` or ``solver error:`` line.
Each drawn option takes a workable value or, one time in eight, a hostile
one: signed zeros, the ends of the float range, nan and infinities, and
each ``_AT_LEAST`` bound -1.  Grids stay at 33 x 17 or smaller and lambda
below 1e3, so every draw runs in milliseconds; ``reproduce`` and ``verify``,
which take no size option, get only values they must refuse.  A run echoes
``null`` for every option it does not read: such an option is refused when
given, and never defaulted.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from eulerlab import cli, flows, serialize

HOSTILE = ["0", "-0", "1e-300", "1e300", "1e308", "5e-324", "nan", "inf",
           "-inf"]

# workable values; the sizes are each _AT_LEAST bound, +1, and the largest
# the time budget allows
WORKABLE = {
    "lam": ["3", "4", "10"],
    "L": ["4", "6", "20"],
    "nx": ["15", "16", "17", "33"],
    "ny": ["8", "9", "17"],
    "n": ["8", "9", "33"],
    "tol": ["1e-8", "1e-6"],
    "bins": ["16", "17", "360"],
    "kappa_bins": ["16", "17", "64"],
    "max_steps": ["1", "2", "100"],
    "step": ["0.05", "0.5"],
    "shear_tol": ["1e-8"],
    "catalog": ["couette", "kolmogorov", "taylor-green",
                "exponential-counterexample"],
    "grid": ["strip:4:33:17", "halfplane:4:33:17", "plane:1:17:17",
             "torus:16"],
    "file": ["{bundle}"],
    "seed": ["0,0.5", "-1,0.25", "0.5,0.5"],
    "R": ["1,2"],
}
# options that every draw carries, so no default grid or suite runs
FORCED = ("nx", "ny", "n", "grid", "suite")
SOLVER = tuple(o.dest for o in cli._solver_options())
FAMILY = tuple(o.dest for o in cli._COMMANDS["solve1d"]["options"]
               if o.dest not in ("family", "out", "config"))
# the options a run does not read, by its solve geometry, 1D family or flow
# source; they are refused when given, so a draw leaves them out (a file
# run may still draw --solve, the one draw of two flow sources).  A solve
# does not read the options of its table that its library calls do not take
FOREIGN = {which: tuple(
    k for k in (FAMILY if which in cli._NONLINEARITIES else SOLVER + ("grid",))
    if k not in cli._parameters(which)) for which in cli._CONSTRUCTIONS}
FOREIGN.update(catalog=SOLVER + ("file", "solve"), file=SOLVER + ("grid",))


def _hostile(opt):
    if opt.dest in cli._AT_LEAST:
        return [str(cli._AT_LEAST[opt.dest] - 1)] + HOSTILE
    if opt.dest == "lam":  # lambda from 1e3 up can take seconds to refuse
        return [v for v in HOSTILE if float(v) < 1e3]
    if opt.dest == "grid":
        return ["strip:%s:33:17" % v for v in HOSTILE] + ["torus:7",
                                                          "strip:4:33"]
    if opt.dest == "seed":
        return ["nan,0", "1e308,0.5", "0", "inf,-inf"]
    return HOSTILE


def _workable(opt):
    if opt.dest == "suite":  # a real suite runs at acceptance size
        return []
    return WORKABLE.get(opt.dest) or list(opt.choices or ())


def _grids_for(catalog):
    """The workable grid specs of the kind that the catalog table in
    ``flows`` names for a catalog flow."""
    kind = flows._CATALOG[cli._catalog_name(catalog)][0]
    return [v for v in WORKABLE["grid"] if cli._parse_grid(v).kind == kind]


@st.composite
def invocations(draw, hostile=True):
    """(argv, config, which) for one command: a random subset of its
    options, each on the command line (as --flag=value or --flag value) or
    in a --config object, and the FOREIGN key of the run.  Without
    ``hostile``, an option with workable values takes one of them."""
    cmd = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[cmd]
    argv = [cmd]
    for name, choices in spec["positionals"]:
        # a valid figure would run the full-size reference solves
        pool = HOSTILE if cmd == "reproduce" else list(choices)
        argv.append(draw(st.sampled_from(pool)))
    which = argv[1] if cmd == "solve" else None
    catalog = None
    config = {}
    # the flow source comes before the grid, which only a catalog reads
    for opt in sorted(spec["options"], key=lambda o: o.dest == "grid"):
        if opt.dest in ("out", "config") + FOREIGN.get(which, ()):
            continue
        if opt.dest not in FORCED and not draw(st.booleans()):
            continue
        pool = _workable(opt)
        if opt.dest == "grid" and catalog in WORKABLE["catalog"]:
            pool = _grids_for(catalog)
        if not pool or hostile and draw(st.integers(0, 7)) == 0:
            pool = _hostile(opt)
        value = draw(st.sampled_from(pool))
        if opt.dest in ("solve", "family"):
            which = value
        elif opt.dest in ("catalog", "file"):
            which = opt.dest
            catalog = value if which == "catalog" else None
        route = draw(st.sampled_from(["glued", "split", "config"]))
        if route == "glued":
            argv.append(opt.flag + "=" + value)
        elif route == "split":
            argv += [opt.flag, value]
        elif opt.action == "append":
            config[opt.flag[2:]] = [value]
        else:
            config[opt.flag[2:]] = _json_value(opt, value)
    return argv, config, which


def _json_value(opt, value):
    # numbers go in as JSON numbers (nan and inf as NaN and Infinity)
    # where they parse, and as strings where they do not
    if opt.conv in (float, int):
        try:
            return opt.conv(value)
        except ValueError:
            pass
    return value


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    assert cli.main(["solve", "strip", "--L", "4", "--nx", "33", "--ny",
                     "17", "--out", str(out)]) == 0
    return str(out / "flow.json")


def _run(bundle, argv, config):
    """Exit code, stderr, warnings and the echoed configurations of one
    drawn invocation."""
    argv = [a.replace("{bundle}", bundle) for a in argv]
    config = {k: v.replace("{bundle}", bundle) if isinstance(v, str) else v
              for k, v in config.items()}
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", os.path.join(tmp, "run")]
        if config:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv += ["--config", path]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        run = os.path.join(tmp, "run")
        echoes = [serialize.read_json(os.path.join(run, name))["config"]
                  for name in sorted(os.listdir(run)) if name.endswith(".json")
                  ] if code == 0 else []
    return code, err.getvalue(), caught, echoes


PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(invocation=invocations())
def test_every_command_keeps_the_exit_contract(bundle, invocation):
    argv, config, _ = invocation
    code, text, caught, _ = _run(bundle, argv, config)
    assert code in (0, 1, 2), (argv, config, code)
    assert not caught, (argv, config, [str(w.message) for w in caught])
    assert "Traceback" not in text and "Warning" not in text, (argv, text)
    if code:
        head = "config error: " if code == 1 else "solver error: "
        assert text.startswith(head) and text.count("\n") == 1, (argv, text)


@PROPERTY
@given(invocation=invocations(hostile=False))
def test_a_run_echoes_null_for_what_it_does_not_read(bundle, invocation):
    argv, config, which = invocation
    code, _, _, echoes = _run(bundle, argv, config)
    assert (code != 0) == (not echoes), (argv, config, code)
    for echo in echoes:
        assert [k for k in FOREIGN.get(which, ())
                if echo.get(k) is not None] == [], (argv, config, echo)


# each catalog flow runs on a grid of its kind; exponential-counterexample
# takes the plane:<L>:<nx>:<ny> spec that the README documents
@pytest.mark.parametrize("cmd", ["analyze", "trace"])
@pytest.mark.parametrize("catalog", WORKABLE["catalog"])
def test_every_catalog_flow_runs_on_its_grid_kind(bundle, cmd, catalog):
    for grid in _grids_for(catalog):
        argv = [cmd, "--catalog", catalog, "--grid", grid]
        if cmd == "trace":
            argv += ["--seed=0.5,0.5", "--max-steps", "100"]
        code, text, caught, echoes = _run(bundle, argv, {})
        assert (code, text, caught) == (0, "", []), (argv, text)
        assert [e["grid"] for e in echoes] == [grid]
