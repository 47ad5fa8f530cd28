"""Command-line front door for the laboratory.

Six subcommands cover the workflow end to end: ``solve1d`` (transverse
profile / heteroclinic), ``solve`` (strip and half-plane stream functions),
``analyze`` (full diagnostics on a catalog, file, or freshly solved flow),
``trace`` (streamline polylines), ``reproduce`` (the two reference figure
artifact sets), and ``verify`` (the acceptance checks, printed PASS/FAIL).

Exit codes separate failure classes for CI: 0 success, 1 configuration
error, 2 solver failure, 3 verification failure.

Option values resolve as explicit flags over the EULERLAB_OUT environment
variable (output directory only) over ``--config`` JSON file entries over
built-in defaults; the fully resolved configuration is echoed into every
JSON artifact next to the schema version, so outputs are self-describing.
All numeric output goes through the shared 17-digit formatter, and a fixed
iteration order everywhere makes identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from . import acceptance
from . import diagnostics as dg
from . import elliptic2d, flows, oned
from . import serialize as _ser
from . import streamlines as sl
from .grid import Grid, ScalarField, GridError, STRIP, HALF_PLANE, PLANE, TORUS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3

_SOLVER_ERRORS = (oned.NoSubsolution, oned.NonConvergence,
                  oned.BadTruncation)


class ConfigError(ValueError):
    """Invalid or missing configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad flags; raise instead so main() can
    # report the field-precise message and return the config exit code
    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads any token that starts with a dash as a flag unless
        # it is a plain negative number, so "--seed -8,-0.5" would lose its
        # value; glue such a value onto its flag as "--seed=-8,-0.5"
        args = list(sys.argv[1:] if args is None else args)
        flags = self._option_string_actions
        glued = []
        while args:
            tok = args.pop(0)
            action = flags.get(tok)
            if (action is not None and action.nargs is None and args
                    and args[0].startswith("-") and args[0] not in flags):
                tok += "=" + args.pop(0)
            glued.append(tok)
        return super().parse_known_args(glued, namespace)


# ---------------------------------------------------------------------------
# option tables


_Opt = namedtuple("_Opt", "flag dest conv choices action help",
                  defaults=(str, None, "store", ""))


def _common_options():
    return [
        _Opt("--out", "out", str, help="output directory"),
        _Opt("--config", "config", str,
             help="JSON file of option values; explicit flags win"),
    ]


def _solver_options():
    return [
        _Opt("--lambda", "lam", float,
             help="slope parameter of the arctan nonlinearity"),
        _Opt("--L", "L", float, help="domain half-width / height"),
        _Opt("--nx", "nx", int, help="nodes along x1 (strip; must be odd)"),
        _Opt("--ny", "ny", int, help="nodes along x2 (strip)"),
        _Opt("--n", "n", int, help="nodes per quadrant axis (half plane)"),
        _Opt("--tol", "tol", float, help="iteration stopping tolerance"),
        _Opt("--start", "start", str, choices=("sub", "super"),
             help="monotone iteration starting side"),
        _Opt("--far-field", "far_field", str, choices=("profile", "zero"),
             help="strip data at x1 = +-L"),
    ]


def _source_options():
    return [
        _Opt("--catalog", "catalog", str, help="closed-form flow by name"),
        _Opt("--grid", "grid", str,
             help="grid spec, e.g. torus:512 or strip:12:257:65"),
        _Opt("--file", "file", str, help="flow bundle JSON written by solve"),
        _Opt("--solve", "solve", str, choices=("strip", "halfplane"),
             help="solve a fresh flow first"),
    ]


_COMMANDS = {
    "solve1d": {
        "help": "solve a 1D transverse profile or heteroclinic",
        "positionals": [],
        "options": [
            _Opt("--family", "family", str, choices=("arctan", "allen-cahn"),
                 help="nonlinearity family"),
            _Opt("--lambda", "lam", float,
                 help="slope parameter (arctan family)"),
            _Opt("--n", "n", int, help="node count"),
            _Opt("--L", "L", float, help="truncation length (allen-cahn)"),
            _Opt("--tol", "tol", float, help="residual tolerance"),
            _Opt("--start", "start", str, choices=("sub", "super"),
                 help="iteration starting side (arctan)"),
        ],
    },
    "solve": {
        "help": "solve the strip or half-plane stream function",
        "positionals": [("which", ("strip", "halfplane"))],
        "options": _solver_options(),
    },
    "analyze": {
        "help": "run the full diagnostics on one flow",
        "positionals": [],
        "options": _source_options() + _solver_options() + [
            _Opt("--bins", "bins", int, help="direction bins (default 360)"),
            _Opt("--kappa-bins", "kappa_bins", int,
                 help="curvature profile bins (default 64)"),
            _Opt("--R", "R", str,
                 help="comma list of wall-trace cutoff radii"),
            _Opt("--shear-tol", "shear_tol", float,
                 help="curvature floor below which the verdict is Shear"),
        ],
    },
    "trace": {
        "help": "march streamlines from seed points",
        "positionals": [],
        "options": _source_options() + _solver_options() + [
            _Opt("--seed", "seed", str, action="append",
                 help="seed point x,y (repeatable)"),
            _Opt("--step", "step", float,
                 help="arc-length step (default half the finer spacing)"),
            _Opt("--max-steps", "max_steps", int,
                 help="step budget per trace"),
        ],
    },
    "reproduce": {
        "help": "emit the reference figure artifact sets",
        "positionals": [("figure", ("figure1", "figure2", "all"))],
        "options": [],
    },
    "verify": {
        "help": "run acceptance checks and print PASS/FAIL lines",
        "positionals": [],
        "options": [
            _Opt("--suite", "suite", str, help="check suite (default all)"),
        ],
    },
}

for _spec in _COMMANDS.values():
    _spec["options"] = _spec["options"] + _common_options()


def _build_parser() -> _Parser:
    top = _Parser(prog="eulerlab",
                  description="numerical laboratory for steady planar flows")
    sub = top.add_subparsers(dest="command", metavar="<command>")
    for cmd, spec in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=spec["help"])
        for name, choices in spec["positionals"]:
            sp.add_argument(name, choices=choices)
        for o in spec["options"]:
            kwargs = {"dest": o.dest, "default": None, "help": o.help}
            if o.action == "append":
                kwargs["action"] = "append"
            else:
                if o.choices:
                    kwargs["choices"] = o.choices
                if o.conv in (float, int):
                    kwargs["type"] = o.conv
            sp.add_argument(o.flag, **kwargs)
    return top


# ---------------------------------------------------------------------------
# config resolution: flags > EULERLAB_OUT > config file > defaults


def _coerce_config(opt: _Opt, key, val):
    if opt.action == "append":
        return list(val) if isinstance(val, (list, tuple)) else [val]
    if opt.dest == "R":
        return val
    if opt.conv in (float, int):
        kind = "a number" if opt.conv is float else "an integer"
        types = (int, float, str) if opt.conv is float else (int, str)
        if isinstance(val, bool) or not isinstance(val, types):
            raise ConfigError("config key %r must be %s" % (key, kind))
        try:
            return opt.conv(val)
        except ValueError:
            raise ConfigError("config key %r must be %s, got %r"
                              % (key, kind, val))
    if not isinstance(val, str):
        raise ConfigError("config key %r must be a string" % key)
    if opt.choices and val not in opt.choices:
        raise ConfigError("config key %r must be one of %s"
                          % (key, ", ".join(opt.choices)))
    return val


def _load_config(path, cmd, opts):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config file %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("config file %s is not valid JSON: %s" % (path, e))
    if not isinstance(raw, dict):
        raise ConfigError("config file %s must hold a JSON object" % path)
    out = {}
    for key, val in raw.items():
        dest = "lam" if key == "lambda" else str(key).replace("-", "_")
        if dest == "config" or dest not in opts:
            raise ConfigError("unknown config key %r for command %r"
                              % (key, cmd))
        out[dest] = _coerce_config(opts[dest], key, val)
    return out


def _default(r, key, value):
    if r.get(key) is None:
        r[key] = value


# floats that must be positive, and integers with their least admissible
# value (the smallest grids and bin counts the library accepts); every
# numeric option must also be finite
_POSITIVE = ("lam", "L", "tol", "step", "shear_tol")
_AT_LEAST = {"nx": 15, "ny": 8, "n": 8, "bins": 16, "kappa_bins": 16,
             "max_steps": 1}


def _check_numbers(r, opts):
    for dest, opt in opts.items():
        val = r[dest]
        if val is None or opt.conv not in (float, int):
            continue
        if not math.isfinite(val):
            raise ConfigError("%s must be finite, got %r" % (opt.flag, val))
        if dest in _POSITIVE and not val > 0.0:
            raise ConfigError("%s must be positive, got %r" % (opt.flag, val))
        if val < _AT_LEAST.get(dest, val):
            raise ConfigError("%s must be at least %d, got %d"
                              % (opt.flag, _AT_LEAST[dest], val))


def _resolve(cmd, ns):
    spec = _COMMANDS[cmd]
    opts = {o.dest: o for o in spec["options"]}
    cfg = _load_config(ns.config, cmd, opts) if ns.config else {}
    r = {}
    for dest in opts:
        val = getattr(ns, dest)
        if val is None and dest == "out":
            val = os.environ.get("EULERLAB_OUT") or None
        if val is None and dest in cfg:
            val = cfg[dest]
        r[dest] = val
    for name, _ in spec["positionals"]:
        r[name] = getattr(ns, name)
    _default(r, "out", "eulerlab_out")
    _check_numbers(r, opts)
    _FINISH[cmd](r)
    return r


def _check_arctan_lambda(lam):
    # the sandwich is built from lam*pi/2 and the sweeps from the Picard
    # shift; past float range either one fills the solve with inf and nan
    nl = oned.arctan_family(lam)
    if not (math.isfinite(nl.bound_M)
            and math.isfinite(oned.picard_shift(nl, nl.bound_M))):
        raise ConfigError("--lambda %r is too large: lambda*pi/2 and the "
                          "Picard shift must be finite" % lam)


def _finish_solve1d(r):
    if not r["family"]:
        raise ConfigError("missing required option: --family")
    if r["family"] == "arctan":
        if r["lam"] is None:
            raise ConfigError("missing required option: --lambda (the "
                              "arctan family needs it)")
        _check_arctan_lambda(r["lam"])
    _default(r, "n", 2001 if r["family"] == "arctan" else 4001)
    _default(r, "L", 20.0)
    _default(r, "tol", 1e-10)
    _default(r, "start", "sub")


def _solver_defaults(r, which):
    _default(r, "lam", 4.0)
    _default(r, "L", 12.0 if which == "strip" else 20.0)
    _default(r, "nx", 769)
    _default(r, "ny", 129)
    _default(r, "n", 321)
    _default(r, "tol", 1e-8)
    _default(r, "far_field", "profile")
    _default(r, "start", "sub" if which == "strip" else "super")
    if which == "strip" and r["nx"] % 2 == 0:
        raise ConfigError("--nx must be odd so that x1 = 0 is a node "
                          "column, got %d" % r["nx"])
    if which == "strip":
        _check_arctan_lambda(r["lam"])


def _finish_solve(r):
    _solver_defaults(r, r["which"])


def _require_one_source(r):
    given = [k for k in ("catalog", "file", "solve") if r.get(k)]
    if len(given) != 1:
        raise ConfigError(
            "exactly one flow source is required: --catalog, --file, "
            "or --solve (got %s)" % (", ".join(given) or "none"))
    if r["solve"]:
        _solver_defaults(r, r["solve"])


def _finish_analyze(r):
    _require_one_source(r)
    _default(r, "bins", 360)
    _default(r, "kappa_bins", 64)
    _default(r, "shear_tol", 1e-8)
    r["R"] = _parse_radii(r["R"])


def _finish_trace(r):
    _require_one_source(r)
    if not r["seed"]:
        raise ConfigError("missing required option: --seed x,y (repeatable)")
    r["seed"] = [_parse_seed(s) for s in r["seed"]]
    _default(r, "max_steps", 10000)


def _finish_verify(r):
    _default(r, "suite", "all")
    suites = acceptance._SUITES
    if r["suite"] not in suites:
        raise ConfigError("unknown suite %r; known suites: %s"
                          % (r["suite"], ", ".join(sorted(suites))))


def _finish_reproduce(r):
    pass


_FINISH = {
    "solve1d": _finish_solve1d,
    "solve": _finish_solve,
    "analyze": _finish_analyze,
    "trace": _finish_trace,
    "verify": _finish_verify,
    "reproduce": _finish_reproduce,
}


def _echo_config(r, cmd):
    out = {"command": cmd}
    for key in sorted(r):
        val = r[key]
        if key == "seed" and val:
            val = [list(p) for p in val]
        out[key] = val
    return out


# ---------------------------------------------------------------------------
# small spec parsers


def _parse_seed(s):
    vals = list(s) if isinstance(s, (list, tuple)) else str(s).split(",")
    if len(vals) != 2:
        raise ConfigError("seed must be x,y — two numbers, got %r" % (s,))
    try:
        x, y = float(vals[0]), float(vals[1])
    except (TypeError, ValueError):
        raise ConfigError("seed must be numeric x,y, got %r" % (s,))
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError("seed must be finite x,y, got %r" % (s,))
    return x, y


def _parse_radii(spec):
    if spec is None:
        return None
    vals = list(spec) if isinstance(spec, (list, tuple)) else str(spec).split(",")
    try:
        radii = [float(v) for v in vals]
    except (TypeError, ValueError):
        raise ConfigError("--R must be a comma list of numbers, got %r"
                          % (spec,))
    if not all(0.0 < v < math.inf for v in radii):
        raise ConfigError("--R radii must be positive and finite")
    return radii


def _parse_grid(spec):
    parts = str(spec).split(":")
    kind = parts[0].lower()
    if kind == "torus":
        if len(parts) not in (2, 3):
            raise ConfigError("grid spec torus:<n> or torus:<nx>:<ny>, "
                              "got %r" % spec)
        try:
            nx = int(parts[1])
            ny = int(parts[2]) if len(parts) == 3 else nx
        except ValueError:
            raise ConfigError("grid spec %r needs integer node counts" % spec)
        box = (0.0, 2.0 * np.pi)
        return _wrap_grid(TORUS, nx, ny, box, box, spec)
    if kind in ("strip", "halfplane", "plane"):
        if len(parts) != 4:
            raise ConfigError("grid spec %s:<L>:<nx>:<ny>, got %r"
                              % (kind, spec))
        try:
            L = float(parts[1])
            nx, ny = int(parts[2]), int(parts[3])
        except ValueError:
            raise ConfigError("grid spec %r needs L and integer node counts"
                              % spec)
        if kind == "strip":
            return _wrap_grid(STRIP, nx, ny, (-L, L), (-1.0, 1.0), spec)
        if kind == "halfplane":
            return _wrap_grid(HALF_PLANE, nx, ny, (-L, L), (0.0, L), spec)
        return _wrap_grid(PLANE, nx, ny, (-L, L), (-L, L), spec)
    raise ConfigError("unknown grid kind %r (torus, strip, halfplane, plane)"
                      % parts[0])


def _wrap_grid(kind, nx, ny, x_range, y_range, spec):
    try:
        return Grid(kind, nx, ny, x_range, y_range)
    except GridError as e:
        raise ConfigError("bad grid spec %r: %s" % (spec, e))


def _catalog_name(s):
    key = str(s).replace("-", "").replace("_", "").lower()
    for name in flows.ANALYTIC_NAMES:
        if name.lower() == key:
            return name
    raise ConfigError("unknown catalog flow %r; catalog: %s"
                      % (s, ", ".join(flows.ANALYTIC_NAMES)))


# grids used when --catalog is given without --grid
_DEFAULT_GRIDS = {
    "Couette": "strip:4:257:65",
    "Poiseuille": "strip:4:257:65",
    "Kolmogorov": "strip:4:257:65",
    "ExampleSignEq": "strip:4:257:65",
    "TaylorGreen": "torus:256",
    "ExponentialCounterexample": "plane:1:129:129",
}


def _solve_flow(which, r):
    """Fresh 2D solve from the resolved options; returns (stream field,
    solver report, nonlinearity)."""
    if which == "strip":
        nl = oned.arctan_family(r["lam"])
        field, srep = elliptic2d.solve_type3_strip(
            nl, L=r["L"], nx=r["nx"], ny=r["ny"], tol=r["tol"],
            far_field=r["far_field"], start=r["start"])
    else:
        nl = oned.allen_cahn()
        field, srep = elliptic2d.solve_saddle_quadrant(
            nl, L=r["L"], n=r["n"], tol=r["tol"], start=r["start"])
    return field, srep, nl


def _flow_from_source(r):
    if r["catalog"]:
        name = _catalog_name(r["catalog"])
        grid = _parse_grid(r["grid"] or _DEFAULT_GRIDS[name])
        try:
            return flows.analytic_flow(name, grid)
        except (GridError, ValueError) as e:
            raise ConfigError(str(e))
    if r["file"]:
        try:
            return flows.load_flow(r["file"])
        except OSError as e:
            raise ConfigError("cannot read flow bundle %s: %s"
                              % (r["file"], e))
        except (ValueError, KeyError) as e:
            raise ConfigError("not a flow bundle: %s (%s)" % (r["file"], e))
    field, _, nl = _solve_flow(r["solve"], r)
    return flows.velocity_from_stream(field, nl)


def _outdir(r):
    d = r["out"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as e:
        raise ConfigError("cannot create output directory %s: %s" % (d, e))
    return d


# ---------------------------------------------------------------------------
# commands


def _solver_failure(e, cfg, report_path) -> int:
    _ser.write_json({"schema_version": _ser.SCHEMA_VERSION, "config": cfg,
                     "error": type(e).__name__, "message": str(e)},
                    report_path)
    print("solver error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
    return EXIT_SOLVER


def cmd_solve1d(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "solve1d")
    report_path = os.path.join(out, "report.json")
    try:
        if r["family"] == "arctan":
            nl = oned.arctan_family(r["lam"])
            prof = oned.solve_strip_profile(nl, r["n"], tol=r["tol"],
                                            start=r["start"])
        else:
            nl = oned.allen_cahn()
            prof = oned.solve_heteroclinic(nl, L=r["L"], n=r["n"],
                                           tol=r["tol"])
    except _SOLVER_ERRORS as e:
        return _solver_failure(e, cfg, report_path)
    oned.save_profile(prof, os.path.join(out, "profile.csv"), report_path,
                      extra={"config": cfg, "error": None})
    print("profile: residual %s after %d sweeps"
          % (_ser.fmt17(prof.residual), prof.iterations))
    print("wrote %s" % out)
    return EXIT_OK


# relative far-field mismatch above which a solve is flagged as not yet
# attached to its one-dimensional limit (truncation chosen too short)
ATTACHMENT_WARN = 1e-2


def attachment_gap(field: ScalarField, limit: oned.Profile) -> float:
    """Relative gap between the solved stream and its 1D far-field limit,
    sampled at 0.9 of the truncation length.

    ``limit`` is the transverse profile (strip) or heteroclinic (half plane)
    the solve itself used, as carried on its report.  By the field's grid,
    a strip is compared column-against-transverse-profile, a half plane
    row-against-odd-heteroclinic.  Well-attached truncations sit orders of
    magnitude below ATTACHMENT_WARN; too-short ones land well above it.
    """
    g = field.grid
    u = field.values
    scale = np.max(np.abs(limit.values))
    if g.kind == STRIP:
        col = int(np.argmin(np.abs(g.x_nodes() - 0.9 * g.x_range[1])))
        return float(np.max(np.abs(u[col, :] - limit.values)) / scale)
    row = int(np.argmin(np.abs(g.y_nodes() - 0.9 * g.y_range[1])))
    x = g.x_nodes()
    ref = np.sign(x) * np.interp(np.abs(x), limit.nodes(), limit.values)
    return float(np.max(np.abs(u[:, row] - ref)) / scale)


def cmd_solve(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "solve")
    report_path = os.path.join(out, "report.json")
    try:
        field, srep, nl = _solve_flow(r["which"], r)
    except _SOLVER_ERRORS as e:
        return _solver_failure(e, cfg, report_path)
    flow = flows.velocity_from_stream(field, nl)
    flows.save_flow(flow, os.path.join(out, "flow.csv"),
                    os.path.join(out, "flow.json"), extra={"config": cfg})
    gap = attachment_gap(field, srep.profile)
    warn = gap > ATTACHMENT_WARN
    _ser.write_json({"schema_version": _ser.SCHEMA_VERSION,
                     "config": cfg,
                     "solver": srep.to_dict(),
                     "attachment_gap": gap,
                     "attachment_warning": warn,
                     "error": None}, report_path)
    print("solver: %d sweeps, residual %s"
          % (srep.iterations, _ser.fmt17(srep.final_residual)))
    if warn:
        print("attachment warning: far-field gap %s at 0.9L exceeds %s "
              "(truncation too short)"
              % (_ser.fmt17(gap), _ser.fmt17(ATTACHMENT_WARN)))
    print("wrote %s" % out)
    return EXIT_OK


def cmd_analyze(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "analyze")
    flow = _flow_from_source(r)
    try:
        rep = dg.run_diagnostics(flow, R_list=r["R"], n_bins=r["bins"],
                                 kappa_bins=r["kappa_bins"],
                                 shear_tol=r["shear_tol"])
    except (dg.RTooLarge, dg.RTooSmall, dg.NotAStripGrid) as e:
        raise ConfigError(str(e))
    dg.save_angle_set(rep.angle_set, os.path.join(out, "angle_set.csv"))
    dg.save_curvature_profile(rep.kappa_profile,
                              os.path.join(out, "curvature_profile.csv"))
    dg.save_report(rep, os.path.join(out, "report.json"),
                   extra={"config": cfg})
    print("classification=%s TC=%s Jinf=%s gap=%s"
          % (rep.verdict.kind, _ser.fmt17(rep.total_curvature),
             _ser.fmt17(rep.J_inf_signed), _ser.fmt17(rep.lower_bound_gap)))
    return EXIT_OK


def cmd_trace(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "trace")
    flow = _flow_from_source(r)
    polys = []
    for seed in r["seed"]:
        try:
            polys.append(sl.trace(flow, seed, step=r["step"],
                                  max_steps=r["max_steps"]))
        except sl.SeedOutsideDomain as e:
            raise ConfigError(str(e))
    sl.save_polylines(polys, os.path.join(out, "traces.csv"),
                      os.path.join(out, "traces.json"),
                      extra={"config": cfg})
    for k, poly in enumerate(polys):
        print("trace %d: %d points, termination=%s"
              % (k, len(poly), poly.termination))
    print("wrote %s" % out)
    return EXIT_OK


def _reproduce_figure(out, cfg, tag, field, nl, seeds):
    """Separatrices (the zero level set), a trace fan from ``seeds`` and
    the stagnation points of one solved stream field."""
    flow = flows.velocity_from_stream(field, nl)
    seps = sl.level_contours(field, [0.0])
    sl.save_polylines(seps, os.path.join(out, tag + "_separatrices.csv"),
                      os.path.join(out, tag + "_separatrices.json"),
                      extra={"config": cfg})
    traces = [sl.trace(flow, s) for s in seeds]
    sl.save_polylines(traces, os.path.join(out, tag + "_traces.csv"),
                      os.path.join(out, tag + "_traces.json"),
                      extra={"config": cfg})
    pts = sl.stagnation_points(flow)
    _ser.write_csv(os.path.join(out, tag + "_stagnation.csv"),
                   ["x", "y", "speed"], [[p[0] for p in pts],
                                         [p[1] for p in pts],
                                         [p[2] for p in pts]])
    print("%s: %d separatrix chains, %d traces, %d stagnation points"
          % (tag, len(seps), len(traces), len(pts)))


def cmd_reproduce(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "reproduce")
    if r["figure"] in ("figure1", "all"):
        # half-plane saddle: separatrix pair (the zero level set: wall plus
        # vertical axis, crossing at the origin) and a hyperbolic trace fan
        nl = oned.allen_cahn()
        field, _ = elliptic2d.solve_saddle_quadrant(nl, L=20.0, n=321)
        _reproduce_figure(out, cfg, "figure1", field,
                          nl, [(-12.0, 0.5), (-8.0, 0.5), (-4.0, 0.5),
                               (4.0, 0.5), (8.0, 0.5), (12.0, 0.5)])
    if r["figure"] in ("figure2", "all"):
        # strip flow: hairpin fan entering from both far ends plus the
        # central separatrix, hinging on the two wall stagnation points
        # (0, -1), (0, 1)
        nl = oned.arctan_family(4.0)
        field, _ = elliptic2d.solve_type3_strip(nl)
        _reproduce_figure(out, cfg, "figure2", field, nl,
                          [(-8.0, -0.25), (-8.0, -0.5), (-8.0, -0.75),
                           (8.0, 0.25), (8.0, 0.5), (8.0, 0.75)])
    print("wrote %s" % out)
    return EXIT_OK


def cmd_verify(r) -> int:
    out = _outdir(r)
    cfg = _echo_config(r, "verify")
    cache = acceptance._FlowCache()
    results = []
    for name in acceptance._SUITES[r["suite"]]:
        results.extend(acceptance._CHECK_MAP[name](cache))
    for res in results:
        print(res.line())
    failed = sum(1 for res in results if not res.passed)
    _ser.write_json({"schema_version": _ser.SCHEMA_VERSION,
                     "config": cfg,
                     "results": [res.to_dict() for res in results],
                     "all_passed": failed == 0}, os.path.join(out,
                                                              "verify.json"))
    print("suite %s: %d checks, %d failed" % (r["suite"], len(results),
                                              failed))
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point


_DISPATCH = {
    "solve1d": cmd_solve1d,
    "solve": cmd_solve,
    "analyze": cmd_analyze,
    "trace": cmd_trace,
    "reproduce": cmd_reproduce,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if not getattr(ns, "command", None):
            raise ConfigError("a command is required: %s"
                              % ", ".join(_COMMANDS))
        return _DISPATCH[ns.command](_resolve(ns.command, ns))
    except (ConfigError, GridError) as e:
        # grids the options built that no solver can take (h^2 out of range)
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as e:
        print("solver error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
