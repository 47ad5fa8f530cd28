"""Command-line front door for the laboratory.

Six subcommands cover the workflow end to end: ``solve1d`` (transverse
profile / heteroclinic), ``solve`` (strip and half-plane stream functions),
``analyze`` (full diagnostics on a catalog, file, or freshly solved flow),
``trace`` (streamline polylines), ``reproduce`` (the two reference figure
artifact sets), and ``verify`` (the acceptance checks, printed PASS/FAIL).

Exit codes separate failure classes for CI: 0 success, 1 configuration
error, 2 solver failure, 3 verification failure.

Option values resolve as explicit flags over the EULERLAB_OUT environment
variable (output directory only) over ``--config`` entries keyed by the long
flags over the defaults read off the signature of the library call a command
makes.  argparse only splits the command line: a value from a flag and one
from ``--config`` pass the same check and fail with the same message.  The
fully resolved configuration is echoed into every JSON artifact next to
the schema version, so outputs are self-describing.
All numeric output goes through the shared 17-digit formatter, and a fixed
iteration order everywhere makes identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
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


# what the options ask for and the run refuses: grids no solver can take (h^2
# out of range), radii the domain cannot hold, overflow, seeds off the grid
_CONFIG_ERRORS = (ConfigError, GridError, dg.RTooLarge, dg.RTooSmall,
                  dg.DiagnosticOverflow, sl.SeedOutsideDomain)


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
            _Opt("--bins", "bins", int, help="direction bins"),
            _Opt("--kappa-bins", "kappa_bins", int,
                 help="curvature profile bins"),
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
            _Opt("--suite", "suite", str, choices=tuple(acceptance._SUITES),
                 help="check suite (default all)"),
        ],
    },
}

for _spec in _COMMANDS.values():
    _spec["options"] = _spec["options"] + _common_options()
# every dest has one flag, whichever command takes it
_FLAGS = {o.dest: o.flag for _spec in _COMMANDS.values()
          for o in _spec["options"]}


def _build_parser() -> _Parser:
    top = _Parser(prog="eulerlab",
                  description="numerical laboratory for steady planar flows")
    sub = top.add_subparsers(dest="command", metavar="<command>")
    for cmd, spec in _COMMANDS.items():
        sp = sub.add_parser(cmd, help=spec["help"])
        for name, choices in spec["positionals"]:
            sp.add_argument(name, choices=choices)
        for o in spec["options"]:
            # values stay strings here; _resolve checks them with _coerce
            sp.add_argument(o.flag, dest=o.dest, action=o.action, help=o.help,
                            metavar="{%s}" % ",".join(o.choices)
                            if o.choices else None)
    return top


# ---------------------------------------------------------------------------
# config resolution: flags > EULERLAB_OUT > config file > defaults


def _coerce(opt: _Opt, name, val):
    """``val`` converted and checked for ``opt``; ``name`` says where the
    value came from (``--nx`` or ``config key 'nx'``)."""
    if opt.action == "append":
        return list(val) if isinstance(val, (list, tuple)) else [val]
    if opt.dest == "R":
        return val
    if opt.conv in (float, int):
        kind = "a number" if opt.conv is float else "an integer"
        types = (int, float, str) if opt.conv is float else (int, str)
        if isinstance(val, bool) or not isinstance(val, types):
            raise ConfigError("%s must be %s" % (name, kind))
        try:
            return opt.conv(val)
        except ValueError:
            raise ConfigError("%s must be %s, got %r" % (name, kind, val))
    if not isinstance(val, str):
        raise ConfigError("%s must be a string" % name)
    if opt.choices and val not in opt.choices:
        raise ConfigError("%s must be one of %s"
                          % (name, ", ".join(opt.choices)))
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
    # a key is the long flag of an option, without its dashes
    dests = {o.flag[2:]: dest for dest, o in opts.items() if dest != "config"}
    out = {}
    for key, val in raw.items():
        dest = dests.get(key)
        if dest is None:
            raise ConfigError("unknown config key %r for command %r"
                              % (key, cmd))
        out[dest] = _coerce(opts[dest], "config key %r" % key, val)
    return out


def _default(r, key, value):
    if r.get(key) is None:
        r[key] = value


# floats that must be positive, and integers with their least admissible
# value (the smallest grids and bin counts the library accepts); every
# numeric option must also be finite
_POSITIVE = ("lam", "L", "tol", "step", "shear_tol")
_AT_LEAST = {"nx": 15, "ny": 8, "n": 8, "bins": dg.MIN_BINS,
             "kappa_bins": dg.MIN_BINS, "max_steps": 1}


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
    for dest, opt in opts.items():
        val = getattr(ns, dest)
        if val is None and dest == "out":
            val = os.environ.get("EULERLAB_OUT") or None
        r[dest] = cfg.get(dest) if val is None else _coerce(opt, opt.flag, val)
    for name, _ in spec["positionals"]:
        r[name] = getattr(ns, name)
    _default(r, "out", "eulerlab_out")
    # the finish step refuses what the run would not read before any range
    # check, so an option of another run is named as such whatever its value
    _DISPATCH[cmd][0](r)
    _check_numbers(r, opts)
    if r.get("lam") is not None:  # set only where the arctan family reads it
        _check_arctan_lambda(r["lam"])
    return r


def _check_arctan_lambda(lam):
    # the sandwich is built from lam*pi/2; past float range it fills the
    # solve with inf and nan
    if not math.isfinite(oned.arctan_family(lam).bound_M):
        raise ConfigError("--lambda %r is too large: lambda*pi/2 must be "
                          "finite" % lam)


def _refuse(r, dests, owner, here):
    """Refuse each of ``dests`` that is set: ``owner`` reads it, the run
    ``here`` does not.  Left unset, it shows as null in the echo."""
    for dest in dests:
        if r.get(dest) is not None:
            raise ConfigError("%s belongs to %s, not to %s"
                              % (_FLAGS[dest], owner, here))


# the library call of each solve, by the value that selects it, and the
# nonlinearity builder of each 1D family: their parameters but ``nl`` are
# the options a solve reads, required where they have no default.  Each call
# is a dict value of its own, so the tracer's wrappers see it
_CONSTRUCTIONS = {"strip": elliptic2d.solve_type3_strip,
                  "halfplane": elliptic2d.solve_saddle_quadrant,
                  "arctan": oned.solve_strip_profile,
                  "allen-cahn": oned.solve_heteroclinic}
_NONLINEARITIES = {"arctan": oned.arctan_family,
                   "allen-cahn": oned.allen_cahn}


def _parameters(which):
    """The options the solve ``which`` reads, as parameters of its calls."""
    fns = (_NONLINEARITIES.get(which), _CONSTRUCTIONS[which])
    return {k: p for fn in fns if fn is not None
            for k, p in inspect.signature(fn).parameters.items() if k != "nl"}


def _read_solve(r, which):
    """Refuse the options that only a rival of the solve ``which`` reads
    (one the same option selects), then fill ``r`` off its parameters."""
    if not which:  # only --family may be left out
        raise ConfigError("missing required option: --family")
    family = which in _NONLINEARITIES
    noun = "family" if family else "solve"
    params = _parameters(which)
    for rival in _CONSTRUCTIONS:
        if rival != which and (rival in _NONLINEARITIES) == family:
            _refuse(r, [k for k in _parameters(rival) if k not in params],
                    "the %s %s" % (rival, noun), which)
    for key, p in params.items():
        if r[key] is None and p.default is p.empty:
            raise ConfigError("missing required option: %s (the %s %s "
                              "needs it)" % (_FLAGS[key], which, noun))
        _default(r, key, p.default)
    if r.get("nx") is not None and r["nx"] % 2 == 0:
        raise ConfigError("--nx must be odd so that x1 = 0 is a node "
                          "column, got %d" % r["nx"])


def _read_defaults(r, fn):
    """Give each unset option of ``r`` that ``fn`` takes its default."""
    for key, p in inspect.signature(fn).parameters.items():
        if key in r and p.default is not p.empty:
            _default(r, key, p.default)


def _require_one_source(r):
    given = [k for k in ("catalog", "file", "solve") if r.get(k)]
    if len(given) != 1:
        raise ConfigError(
            "exactly one flow source is required: --catalog, --file, "
            "or --solve (got %s)" % (", ".join(given) or "none"))
    here = "--" + given[0]
    if not r["catalog"]:
        _refuse(r, ("grid",), "--catalog", here)
    if r["solve"]:
        _read_solve(r, r["solve"])
    else:
        _refuse(r, [o.dest for o in _solver_options()], "--solve", here)


def _finish_analyze(r):
    _require_one_source(r)
    _read_defaults(r, dg.run_diagnostics)
    r["R"] = _parse_radii(r["R"])


def _finish_trace(r):
    _require_one_source(r)
    if not r["seed"]:
        raise ConfigError("missing required option: --seed x,y (repeatable)")
    r["seed"] = [_parse_seed(s) for s in r["seed"]]
    _read_defaults(r, sl.trace)


def _echo_config(r, cmd):
    return {"command": cmd, **{key: r[key] for key in sorted(r)}}


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


# the grid of a --catalog run without --grid, by the grid kind that the
# catalog table names for the flow
_DEFAULT_GRIDS = {STRIP: "strip:4:257:65", TORUS: "torus:256",
                  PLANE: "plane:1:129:129"}


def _call(fn, r, **kwargs):
    """``fn`` called with ``kwargs`` and the resolved options it takes."""
    params = inspect.signature(fn).parameters
    return fn(**{k: r[k] for k in params if k in r}, **kwargs)


def _construct(which, r):
    """The solve ``which`` on the resolved options: a 1D family's profile,
    or a 2D solve's (stream field, flow, report)."""
    build = _NONLINEARITIES.get(which)
    nl = {"nl": _call(build, r)} if build else {}
    return _call(_CONSTRUCTIONS[which], r, **nl)


def _flow_from_source(r):
    if r["catalog"]:
        name = _catalog_name(r["catalog"])
        grid = _parse_grid(r["grid"]
                           or _DEFAULT_GRIDS[flows._CATALOG[name][0]])
        try:
            return flows.analytic_flow(name, grid)
        except ValueError as e:
            raise ConfigError(str(e))
    if r["file"]:
        try:
            return flows.load_flow(r["file"])
        except OSError as e:
            raise ConfigError("cannot read flow bundle %s: %s"
                              % (r["file"], e))
        except (ValueError, KeyError, TypeError) as e:
            # TypeError: an envelope entry of the wrong JSON type
            raise ConfigError("not a flow bundle: %s (%s)" % (r["file"], e))
    return _construct(r["solve"], r)[1]


# ---------------------------------------------------------------------------
# commands


def _solver_failure(e, cfg, report_path) -> int:
    _ser.write_json({"schema_version": _ser.SCHEMA_VERSION, "config": cfg,
                     "error": type(e).__name__, "message": str(e)},
                    report_path)
    print("solver error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
    return EXIT_SOLVER


def cmd_solve1d(r, out, cfg) -> int:
    report_path = os.path.join(out, "report.json")
    try:
        prof = _construct(r["family"], r)
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


def cmd_solve(r, out, cfg) -> int:
    report_path = os.path.join(out, "report.json")
    try:
        field, flow, srep = _construct(r["which"], r)
    except _SOLVER_ERRORS as e:
        return _solver_failure(e, cfg, report_path)
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


def cmd_analyze(r, out, cfg) -> int:
    rep = _call(dg.run_diagnostics, r, flow=_flow_from_source(r))
    dg.save_angle_set(rep.angle_set, os.path.join(out, "angle_set.csv"))
    dg.save_curvature_profile(rep.kappa_profile,
                              os.path.join(out, "curvature_profile.csv"))
    dg.save_report(rep, os.path.join(out, "report.json"),
                   extra={"config": cfg})
    print("classification=%s TC=%s Jinf=%s gap=%s"
          % (rep.verdict.kind, _ser.fmt17(rep.total_curvature),
             _ser.fmt17(rep.J_inf_signed), _ser.fmt17(rep.lower_bound_gap)))
    return EXIT_OK


def cmd_trace(r, out, cfg) -> int:
    flow = _flow_from_source(r)
    polys = [sl.trace(flow, seed, step=r["step"], max_steps=r["max_steps"])
             for seed in r["seed"]]
    sl.save_polylines(polys, os.path.join(out, "traces.csv"),
                      os.path.join(out, "traces.json"),
                      extra={"config": cfg})
    for k, poly in enumerate(polys):
        print("trace %d: %d points, termination=%s"
              % (k, len(poly), poly.termination))
    print("wrote %s" % out)
    return EXIT_OK


def _reproduce_figure(out, cfg, tag, field, flow, seeds):
    """Separatrices (the zero level set), a trace fan from ``seeds`` and
    the stagnation points of one solved stream field and its flow."""
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


def cmd_reproduce(r, out, cfg) -> int:
    # the acceptance resolutions: arctan lambda = 4 strip, Allen-Cahn saddle;
    # each flow, with the sampler kept on it, is freed after its figure
    if r["figure"] in ("figure1", "all"):
        # half-plane saddle: separatrix pair (the zero level set: wall plus
        # vertical axis, crossing at the origin) and a hyperbolic trace fan
        _reproduce_figure(out, cfg, "figure1",
                          *elliptic2d.solve_saddle_quadrant()[:2],
                          [(-12.0, 0.5), (-8.0, 0.5), (-4.0, 0.5),
                           (4.0, 0.5), (8.0, 0.5), (12.0, 0.5)])
    if r["figure"] in ("figure2", "all"):
        # strip flow: hairpin fan entering from both far ends plus the
        # central separatrix, hinging on the two wall stagnation points
        # (0, -1), (0, 1)
        _reproduce_figure(out, cfg, "figure2",
                          *elliptic2d.solve_type3_strip()[:2],
                          [(-8.0, -0.25), (-8.0, -0.5), (-8.0, -0.75),
                           (8.0, 0.25), (8.0, 0.5), (8.0, 0.75)])
    print("wrote %s" % out)
    return EXIT_OK


def cmd_verify(r, out, cfg) -> int:
    results = acceptance.run_suite(r["suite"])
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


# command -> (finish, run): finish fills the defaults and cross-checks the
# resolved options, run executes the command in its output directory
_DISPATCH = {
    "solve1d": (lambda r: _read_solve(r, r["family"]), cmd_solve1d),
    "solve": (lambda r: _read_solve(r, r["which"]), cmd_solve),
    "analyze": (_finish_analyze, cmd_analyze),
    "trace": (_finish_trace, cmd_trace),
    "reproduce": (lambda r: None, cmd_reproduce),
    "verify": (lambda r: _default(r, "suite", "all"), cmd_verify),
}


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if not getattr(ns, "command", None):
            raise ConfigError("a command is required: %s"
                              % ", ".join(_COMMANDS))
        r = _resolve(ns.command, ns)
        try:
            os.makedirs(r["out"], exist_ok=True)
        except OSError as e:
            raise ConfigError("cannot create output directory %s: %s"
                              % (r["out"], e))
        cfg = _echo_config(r, ns.command)
        return _DISPATCH[ns.command][1](r, r["out"], cfg)
    except _CONFIG_ERRORS as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:
        # sizes that the options ask for and the machine cannot hold
        print("config error: the run does not fit in memory: %s" % e,
              file=sys.stderr)
        return EXIT_CONFIG
    except _SOLVER_ERRORS as e:
        print("solver error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
