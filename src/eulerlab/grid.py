"""Tensor-product node grids and second-order finite differences.

The domains are rectangles standing in for the five flow geometries: a
truncated channel strip, a truncated half plane, a quarter plane, a doubly
periodic square, and a plain rectangle.  Nodes sit at the tensor product of
uniformly spaced coordinates; values live on nodes.  Derivatives use centered
second-order stencils in the interior, one-sided second-order stencils at
non-periodic edges, and wrap-around on periodic axes.  Quadrature is the
trapezoid rule, degenerating to the rectangle rule on periodic axes (where it
is spectrally accurate).

Field values are stored with shape ``(nx, ny)`` indexed ``[i, j]`` for node
``(x_i, y_j)``, and the arrays are frozen: operations always allocate.
"""

from __future__ import annotations

import numpy as np

STRIP = "StripTruncation"
HALF_PLANE = "HalfPlaneTruncation"
QUADRANT = "Quadrant"
TORUS = "Torus"
PLANE = "Plane"
KINDS = (STRIP, HALF_PLANE, QUADRANT, TORUS, PLANE)


class GridError(ValueError):
    pass


class IncompatibleGrid(GridError):
    """Raised when an operation mixes fields from different grids."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class Grid:
    """Uniform tensor grid over a rectangle.

    Parameters
    ----------
    kind : str
        One of ``KINDS``.  ``Torus`` is periodic in both directions; every
        other kind is a plain rectangle with boundary nodes.
    nx, ny : int
        Node counts per axis, at least 8 each.  On periodic axes the node at
        the right end is omitted (it duplicates the left end).
    x_range, y_range : (float, float)
        Coordinate extents.  A strip must span exactly [-1, 1] transversally;
        a half plane has its wall at y = 0; a quadrant has both walls at 0.
    """

    def __init__(self, kind, nx, ny, x_range, y_range):
        if kind not in KINDS:
            raise GridError("unknown grid kind %r" % (kind,))
        nx, ny = int(nx), int(ny)
        if nx < 8 or ny < 8:
            raise GridError("need at least 8 nodes per axis, got %dx%d" % (nx, ny))
        x0, x1 = (float(x_range[0]), float(x_range[1]))
        y0, y1 = (float(y_range[0]), float(y_range[1]))
        if not (x1 > x0 and y1 > y0):
            raise GridError("degenerate coordinate range")
        if kind == STRIP and (y0, y1) != (-1.0, 1.0):
            raise GridError("a strip grid spans y in [-1, 1], got [%g, %g]" % (y0, y1))
        if kind == HALF_PLANE and y0 != 0.0:
            raise GridError("a half-plane grid has its wall at y = 0")
        if kind == QUADRANT and (x0 != 0.0 or y0 != 0.0):
            raise GridError("a quadrant grid has its corner at the origin")
        self.kind = kind
        self.nx = nx
        self.ny = ny
        self.x_range = (x0, x1)
        self.y_range = (y0, y1)
        self.periodic_x = kind == TORUS
        self.periodic_y = kind == TORUS
        self.hx = (x1 - x0) / (nx if self.periodic_x else nx - 1)
        self.hy = (y1 - y0) / (ny if self.periodic_y else ny - 1)

    @property
    def shape(self):
        return (self.nx, self.ny)

    def x_nodes(self) -> np.ndarray:
        return self.x_range[0] + self.hx * np.arange(self.nx)

    def y_nodes(self) -> np.ndarray:
        return self.y_range[0] + self.hy * np.arange(self.ny)

    def mesh(self):
        return np.meshgrid(self.x_nodes(), self.y_nodes(), indexing="ij")

    def interior_mask(self) -> np.ndarray:
        """True at nodes whose 5-point stencil stays on the grid."""
        m = np.ones(self.shape, dtype=bool)
        if not self.periodic_x:
            m[0, :] = m[-1, :] = False
        if not self.periodic_y:
            m[:, 0] = m[:, -1] = False
        return m

    def wall_rows(self):
        """Indices of the slip-wall node rows (j-index) for this geometry."""
        if self.kind == STRIP:
            return (0, self.ny - 1)
        if self.kind in (HALF_PLANE, QUADRANT):
            return (0,)
        return ()

    def __eq__(self, other):
        return isinstance(other, Grid) and (
            self.kind, self.nx, self.ny, self.x_range, self.y_range
        ) == (other.kind, other.nx, other.ny, other.x_range, other.y_range)

    def __hash__(self):
        return hash((self.kind, self.nx, self.ny, self.x_range, self.y_range))

    def __repr__(self):
        return "Grid(%s, %dx%d, x=%r, y=%r)" % (
            self.kind, self.nx, self.ny, self.x_range, self.y_range)

    def to_dict(self):
        return {
            "kind": self.kind,
            "nx": self.nx,
            "ny": self.ny,
            "x_range": list(self.x_range),
            "y_range": list(self.y_range),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["kind"], d["nx"], d["ny"], d["x_range"], d["y_range"])


def _check_values(grid: Grid, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise GridError("field shape %r does not match grid %r" % (v.shape, grid.shape))
    if not np.all(np.isfinite(v)):
        raise GridError("field contains non-finite values")
    return _freeze(v)


class ScalarField:
    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = _check_values(grid, values)

    @classmethod
    def from_function(cls, grid: Grid, fn):
        xx, yy = grid.mesh()
        return cls(grid, fn(xx, yy))


class VectorField:
    def __init__(self, grid: Grid, vx, vy):
        self.grid = grid
        self.vx = _check_values(grid, vx)
        self.vy = _check_values(grid, vy)


def same_grid(a, b) -> Grid:
    if a.grid != b.grid:
        raise IncompatibleGrid("fields live on different grids")
    return a.grid


# ---------------------------------------------------------------------------
# stencils (along one axis of an array of any rank, so 1D profiles share them)


def _diff1(v: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (w[2:] - w[:-2]) / (2.0 * h)
    # one-sided second-order closures at the edges
    o[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
    o[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
    return out


def _diff2(v: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    h2 = h * h
    if periodic:
        return (np.roll(v, -1, axis) - 2.0 * v + np.roll(v, 1, axis)) / h2
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / h2
    # (2, -5, 4, -1)/h^2 is second order and exact through cubics
    o[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h2
    o[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h2
    return out


def _neg_lap(v: np.ndarray, spacings) -> np.ndarray:
    """-Lap_h on the interior nodes of an array of any rank: the
    (2, -1, -1)/h^2 stencil summed over the axes, one spacing per axis.
    Spacings in the dtype of ``v`` keep its precision."""
    inner = (slice(1, -1),) * v.ndim
    out = None
    for axis, h in enumerate(spacings):
        hi, lo = list(inner), list(inner)
        hi[axis], lo[axis] = slice(2, None), slice(None, -2)
        term = (2.0 * v[inner] - v[tuple(hi)] - v[tuple(lo)]) / h ** 2
        out = term if out is None else out + term
    return out


def ddx(f: ScalarField) -> np.ndarray:
    return _diff1(f.values, f.grid.hx, 0, f.grid.periodic_x)


def ddy(f: ScalarField) -> np.ndarray:
    return _diff1(f.values, f.grid.hy, 1, f.grid.periodic_y)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, ddx(f), ddy(f))


def perp_gradient(f: ScalarField) -> VectorField:
    """Rotate the gradient a quarter turn: (-df/dy, df/dx).

    This is the velocity carried by a stream function, so its divergence
    vanishes identically in the continuum.
    """
    return VectorField(f.grid, -ddy(f), ddx(f))


def divergence(w: VectorField) -> ScalarField:
    g = w.grid
    return ScalarField(g, _diff1(w.vx, g.hx, 0, g.periodic_x)
                       + _diff1(w.vy, g.hy, 1, g.periodic_y))


def laplacian(f: ScalarField) -> ScalarField:
    g = f.grid
    return ScalarField(g, _diff2(f.values, g.hx, 0, g.periodic_x)
                       + _diff2(f.values, g.hy, 1, g.periodic_y))


def vector_gradient(w: VectorField):
    """All four first partials of a vector field, as arrays.

    Returns (dvx_dx, dvx_dy, dvy_dx, dvy_dy).
    """
    g = w.grid
    return (_diff1(w.vx, g.hx, 0, g.periodic_x),
            _diff1(w.vx, g.hy, 1, g.periodic_y),
            _diff1(w.vy, g.hx, 0, g.periodic_x),
            _diff1(w.vy, g.hy, 1, g.periodic_y))


# ---------------------------------------------------------------------------
# quadrature


def axis_weights(n: int, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return np.full(n, h)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def quadrature_weights(grid: Grid) -> np.ndarray:
    return np.outer(axis_weights(grid.nx, grid.hx, grid.periodic_x),
                    axis_weights(grid.ny, grid.hy, grid.periodic_y))


def integrate(f, mask=None) -> float:
    """Trapezoid-rule integral of a scalar field.

    ``mask`` is an optional boolean node array; masked-out nodes contribute
    zero.
    """
    if isinstance(f, ScalarField):
        grid, v = f.grid, f.values
    else:
        raise TypeError("integrate expects a ScalarField; got %r" % type(f))
    w = quadrature_weights(grid)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != grid.shape:
            raise GridError("mask shape %r does not match grid" % (mask.shape,))
        w = np.where(mask, w, 0.0)
    return float(np.sum(v * w))
