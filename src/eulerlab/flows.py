"""Flow fields from stream functions, and the analytic oracle catalog.

A stream function u carries the velocity (-du/dx2, du/dx1), its vorticity is
the Laplacian, and when u solves -Lap(u) = f(u) the pressure closes the
momentum balance in closed form.  Sign convention for that closure: the
stream-function statement of the balance reads Lap(u) = F'(u) with
P = F(u) - |grad u|^2/2, while the solvers here use -Lap(u) = f(u), so
F' = -f and the pressure is built from the negated antiderivative.  That
reconciliation happens in exactly one place, :func:`pressure_from_stream`.

The catalog flows carry closed-form derivative evaluators next to the sampled
fields so tests can separate discretization error from modeling error.
"""

from __future__ import annotations

import os

import numpy as np

from . import grid as _g
from .grid import (Grid, GridError, IncompatibleGrid, ScalarField, VectorField,
                   STRIP, TORUS, PLANE)
from . import serialize as _ser


class MissingPressure(ValueError):
    pass


class NonConstantWallTrace(ValueError):
    """The stream function varies along a wall, so the wall is not a
    streamline and the slip condition fails."""


class ParityViolation(ValueError):
    pass


class Flow:
    """A steady velocity field with vorticity and optional pressure.

    ``provenance`` records where the fields came from: {"kind": "FromStream",
    "tag": <nonlinearity family>} or {"kind": "Analytic", "name": <name>}.
    ``closed_form``, when present, maps field and derivative names to
    callables of node coordinates (analytic catalog only; not serialized).
    """

    def __init__(self, grid: Grid, velocity: VectorField,
                 vorticity: ScalarField, pressure: ScalarField | None = None,
                 provenance=None, closed_form=None):
        if velocity.grid != grid or vorticity.grid != grid:
            raise IncompatibleGrid("flow fields live on different grids")
        if pressure is not None and pressure.grid != grid:
            raise IncompatibleGrid("pressure lives on a different grid")
        self.grid = grid
        self.velocity = velocity
        self.vorticity = vorticity
        self.pressure = pressure
        self.provenance = dict(provenance or {"kind": "Unknown"})
        self.closed_form = closed_form


def velocity_from_stream(u: ScalarField, nl=None) -> Flow:
    """Flow carried by a stream function: velocity (-du/dx2, du/dx1).

    Walls must be streamlines: the trace of u along each wall row may vary by
    at most 1e-10, and the resulting wall-tangential stream derivative (the
    normal velocity) must vanish to 1e-12.  Passing the nonlinearity attaches
    the pressure and tags the provenance with its family (else "unknown").
    """
    g = u.grid
    for j in g.wall_rows():
        trace = u.values[:, j]
        if float(trace.max() - trace.min()) > 1e-10:
            raise NonConstantWallTrace(
                "stream function varies by %.3e along wall row %d"
                % (float(trace.max() - trace.min()), j))
    velocity = _g.perp_gradient(u)
    for j in g.wall_rows():
        worst = float(np.max(np.abs(velocity.vy[:, j])))
        if worst > 1e-12:
            raise NonConstantWallTrace(
                "wall-normal velocity reaches %.3e on wall row %d" % (worst, j))
    vorticity = _g.laplacian(u)
    pressure = pressure_from_stream(u, nl) if nl is not None else None
    tag = nl.family if nl is not None else "unknown"
    return Flow(g, velocity, vorticity, pressure,
                provenance={"kind": "FromStream", "tag": tag})


def _matched_diff1(v: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    """First derivative whose rim closure carries the centered truncation.

    The usual (-3, 4, -1)/(2h) closure errs by -h^2/3 f''' while the centered
    stencil errs by +h^2/6 f'''.  A field built from such derivatives has an
    error jump at the rim, and taking one more centered derivative a row
    inside divides that jump by h, degrading second-order checks to first
    order there.  The (-4, 7, -4, 1)/(2h) closure errs by +h^2/6 f''' too, so
    the error field stays smooth up to the rim.
    """
    if periodic:
        return _g._diff1(v, h, axis, True)
    if v.shape[axis] < 4:
        raise GridError("matched rim closure needs at least 4 nodes per axis")
    out = _g._diff1(v, h, axis, False)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    o[0] = (-4.0 * w[0] + 7.0 * w[1] - 4.0 * w[2] + w[3]) / (2.0 * h)
    o[-1] = (4.0 * w[-1] - 7.0 * w[-2] + 4.0 * w[-3] - w[-4]) / (2.0 * h)
    return out


def pressure_from_stream(u: ScalarField, nl) -> ScalarField:
    """Pressure closing the momentum balance for -Lap(u) = f(u).

    With F_nl the antiderivative of f (F_nl(0) = 0), the pressure is
    P = -F_nl(u) - |grad u|^2 / 2.  The sign on F_nl absorbs, once and for
    all, the difference between writing the equation as Lap(u) = F'(u)
    (where P = F(u) - |grad u|^2/2) and as -Lap(u) = f(u).

    The gradient here uses rim closures matched to the centered truncation
    (see :func:`_matched_diff1`); pressure gradients taken one row inside the
    rim stay second order only because of that.
    """
    g = u.grid
    gx = _matched_diff1(u.values, g.hx, 0, g.periodic)
    gy = _matched_diff1(u.values, g.hy, 1, g.periodic)
    return ScalarField(g, -nl.F(u.values) - 0.5 * (gx ** 2 + gy ** 2))


def euler_residual(flow: Flow):
    """Momentum residual v.grad(v) + grad(P) and divergence, by finite
    differences (centered inside, one-sided on the rim).  The divergence is
    the trace of the same velocity gradient, so it equals
    grid.divergence(velocity) bit for bit."""
    if flow.pressure is None:
        raise MissingPressure("flow carries no pressure field")
    v = flow.velocity
    v1x, v1y, v2x, v2y = _g.vector_gradient(v)
    pg = _g.gradient(flow.pressure)
    mom = VectorField(flow.grid,
                      v.vx * v1x + v.vy * v1y + pg.vx,
                      v.vx * v2x + v.vy * v2y + pg.vy)
    return mom, ScalarField(flow.grid, v1x + v2y)


def closed_form_momentum_residual(flow: Flow) -> VectorField:
    """v.grad(v) + grad(P) evaluated with the catalog's exact derivatives."""
    cf = flow.closed_form
    if cf is None:
        raise ValueError("flow carries no closed-form evaluators")
    X, Y = flow.grid.mesh()
    v1, v2 = cf["v1"](X, Y), cf["v2"](X, Y)
    r1 = v1 * cf["v1_x"](X, Y) + v2 * cf["v1_y"](X, Y) + cf["P_x"](X, Y)
    r2 = v1 * cf["v2_x"](X, Y) + v2 * cf["v2_y"](X, Y) + cf["P_y"](X, Y)
    return VectorField(flow.grid, r1, r2)


def _zero(X, Y):
    return np.zeros_like(X)


def _shear(profile, slope, omega):
    # closed forms for (s(x2), 0) with constant pressure
    return {
        "v1": lambda X, Y: profile(Y), "v2": _zero, "P": _zero,
        "omega": lambda X, Y: omega(Y),
        "v1_x": _zero, "v1_y": lambda X, Y: slope(Y),
        "v2_x": _zero, "v2_y": _zero, "P_x": _zero, "P_y": _zero,
    }


_CATALOG = {
    "Couette": (STRIP, _shear(lambda y: y, lambda y: np.ones_like(y),
                              lambda y: -np.ones_like(y))),
    "Poiseuille": (STRIP, _shear(lambda y: y ** 2, lambda y: 2.0 * y,
                                 lambda y: -2.0 * y)),
    "Kolmogorov": (STRIP, _shear(lambda y: np.sin(np.pi * y),
                                 lambda y: np.pi * np.cos(np.pi * y),
                                 lambda y: -np.pi * np.cos(np.pi * y))),
    "ExponentialCounterexample": (PLANE, {
        "v1": lambda X, Y: -np.exp(X), "v2": lambda X, Y: Y * np.exp(X),
        "P": lambda X, Y: -0.5 * np.exp(2.0 * X),
        "omega": lambda X, Y: Y * np.exp(X),
        "v1_x": lambda X, Y: -np.exp(X), "v1_y": _zero,
        "v2_x": lambda X, Y: Y * np.exp(X), "v2_y": lambda X, Y: np.exp(X),
        "P_x": lambda X, Y: -np.exp(2.0 * X), "P_y": _zero,
    }),
    "TaylorGreen": (TORUS, {
        "v1": lambda X, Y: -np.sin(X) * np.cos(Y),
        "v2": lambda X, Y: np.cos(X) * np.sin(Y),
        "P": lambda X, Y: -0.5 * (np.sin(X) ** 2 + np.sin(Y) ** 2),
        "omega": lambda X, Y: -2.0 * np.sin(X) * np.sin(Y),
        "v1_x": lambda X, Y: -np.cos(X) * np.cos(Y),
        "v1_y": lambda X, Y: np.sin(X) * np.sin(Y),
        "v2_x": lambda X, Y: -np.sin(X) * np.sin(Y),
        "v2_y": lambda X, Y: np.cos(X) * np.cos(Y),
        "P_x": lambda X, Y: -np.sin(X) * np.cos(X),
        "P_y": lambda X, Y: -np.sin(Y) * np.cos(Y),
    }),
    "ExampleSignEq": (STRIP, _shear(lambda y: -np.abs(y),
                                    lambda y: -np.sign(y),
                                    lambda y: np.sign(y))),
}

ANALYTIC_NAMES = tuple(_CATALOG)


def analytic_flow(name: str, grid: Grid) -> Flow:
    """Sample a catalog flow on a grid of the kind it lives on.

    The shear flows need a strip, the cellular flow a torus, and the
    non-shear counterexample a plane patch.
    """
    if name not in _CATALOG:
        raise ValueError("unknown flow %r; catalog: %s"
                         % (name, ", ".join(ANALYTIC_NAMES)))
    kind, cf = _CATALOG[name]
    if grid.kind != kind:
        raise IncompatibleGrid("%s needs a %s grid, got %s"
                               % (name, kind, grid.kind))
    # each closed form runs on the node axes, a column and a row, and its
    # result is broadcast to the grid: every node gets the value the mesh
    # would give it, for one evaluation per coordinate instead of per node
    X, Y = grid.x_nodes()[:, None], grid.y_nodes()[None, :]
    # the exponential counterexample overflows on a wide enough patch
    with np.errstate(over="ignore", invalid="ignore"):
        f = {k: cf[k](X, Y) for k in ("v1", "v2", "omega", "P")}
    for k, a in f.items():
        if not np.all(np.isfinite(a)):
            raise ValueError("%s overflows on %r: %s is not finite"
                             % (name, grid, k))
        # the field freezes a C-contiguous copy of a column or a row
        f[k] = np.broadcast_to(a, grid.shape)
    velocity = VectorField(grid, f["v1"], f["v2"])
    vorticity = ScalarField(grid, f["omega"])
    pressure = ScalarField(grid, f["P"])
    return Flow(grid, velocity, vorticity, pressure,
                provenance={"kind": "Analytic", "name": name},
                closed_form=cf)


def odd_extend_x1(f: ScalarField) -> ScalarField:
    """Reflect a field on a half grid x1 >= 0 oddly through the x2 axis.

    Mirror values are the exact negatives, and the x1 = 0 trace must vanish.
    The full grid keeps the half grid's kind.
    """
    g = f.grid
    if g.periodic:
        raise GridError("cannot reflect a periodic direction")
    if g.x_range[0] != 0.0:
        raise GridError("half grid must start at x1 = 0, got x1 >= %g"
                        % g.x_range[0])
    worst = float(np.max(np.abs(f.values[0, :])))
    if worst > 1e-12:
        raise ParityViolation(
            "odd extension needs a zero trace on x1 = 0; found %.3e" % worst)
    L = g.x_range[1]
    full = Grid(g.kind, 2 * g.nx - 1, g.ny, (-L, L), g.y_range)
    vals = np.empty((full.nx, full.ny))
    vals[g.nx - 1:, :] = f.values
    vals[:g.nx - 1, :] = -f.values[:0:-1, :]
    vals[g.nx - 1, :] = 0.0
    return ScalarField(full, vals)


# ---------------------------------------------------------------------------
# serialization


def _node_table(grid: Grid):
    xx, yy = grid.mesh()
    # rows scan the bottom node row first, left to right
    return xx.T.ravel(), yy.T.ravel()


def save_flow(flow: Flow, csv_path, json_path, extra=None) -> None:
    """One CSV row per node (x, y, vx, vy, P, omega) plus a JSON envelope.

    The CSV is the only copy of the node fields; the envelope names it under
    ``"csv"``, relative to the JSON's directory.  Flows without pressure
    write zeros in the P column and say so in the envelope.
    """
    g = flow.grid
    xv, yv = _node_table(g)
    has_p = flow.pressure is not None
    pvals = flow.pressure.values if has_p else np.zeros(g.shape)
    _ser.write_csv(csv_path, ["x", "y", "vx", "vy", "P", "omega"],
                   [xv, yv, flow.velocity.vx.T, flow.velocity.vy.T, pvals.T,
                    flow.vorticity.values.T])
    interior = g.interior_mask()
    if has_p:
        mom, div = euler_residual(flow)
    else:
        div = _g.divergence(flow.velocity)
    norms = {"divergence_max": float(np.max(np.abs(div.values[interior])))}
    if has_p:
        norms["momentum_max"] = float(max(
            np.max(np.abs(mom.vx[interior])), np.max(np.abs(mom.vy[interior]))))
    env = {
        "schema_version": _ser.SCHEMA_VERSION,
        "grid": g.to_dict(),
        "provenance": flow.provenance,
        "boundary_rows": list(g.wall_rows()),
        "has_pressure": has_p,
        "residual_norms": norms,
        "csv": os.path.relpath(csv_path,
                               os.path.dirname(os.path.abspath(json_path))),
    }
    if extra:
        env.update(extra)
    _ser.write_json(env, json_path)


def load_flow(json_path) -> Flow:
    """Read a bundle written by :func:`save_flow`; a schema-1 envelope, with
    no ``"csv"`` entry, carries the node fields itself as (nx, ny) arrays.
    The CSV's x/y columns must equal the envelope grid's node table, and
    the envelope's ``boundary_rows``, when given, the grid's wall rows."""
    d = _ser.read_json(json_path)
    g = Grid.from_dict(d["grid"])
    walls = list(g.wall_rows())
    if d.get("boundary_rows", walls) != walls:
        raise ValueError("boundary_rows %r are not the wall rows %r of grid %r"
                         % (d["boundary_rows"], walls, g))
    if "csv" in d:
        header, cols = _ser.read_csv(
            os.path.join(os.path.dirname(json_path), d["csv"]))
        table = dict(zip(header, cols))
        if not all(map(np.array_equal, (table["x"], table["y"]),
                       _node_table(g))):
            raise ValueError("CSV nodes are not those of grid %r" % (g,))
        d.update((k, c.reshape(g.ny, g.nx).T) for k, c in table.items())
    velocity = VectorField(g, np.asarray(d["vx"]), np.asarray(d["vy"]))
    vorticity = ScalarField(g, np.asarray(d["omega"]))
    pressure = ScalarField(g, np.asarray(d["P"])) if d.get("has_pressure") else None
    return Flow(g, velocity, vorticity, pressure, provenance=d.get("provenance"))
