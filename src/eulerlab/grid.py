"""Tensor-product node grids and second-order finite differences.

The domains are rectangles standing in for the four flow geometries: a
truncated channel strip, a truncated half plane, a doubly periodic square,
and a plain rectangle.  Nodes sit at the tensor product of uniformly spaced
coordinates; values live on nodes.  A grid is periodic on both axes (the
torus) or bounded on both (every other kind), so one flag,
``Grid.periodic``, says what lies beyond every edge, and ``Grid.pad`` gives
the one-node apron that neighbour tests read.  Slip walls are the one other
edge fact: ``Grid.wall_rows()`` names them (both strip rows, the half
plane's y = 0 row, none elsewhere), and every module reads them there.
Derivatives use centered second-order stencils in the interior, one-sided
second-order stencils at bounded edges, and wrap around on the torus.
Quadrature is the trapezoid rule, degenerating to the rectangle rule on the
torus (where it is spectrally accurate).

Field values are stored with shape ``(nx, ny)`` indexed ``[i, j]`` for node
``(x_i, y_j)``, and the arrays are frozen: operations always allocate.
"""

from __future__ import annotations

import numpy as np

STRIP = "StripTruncation"
HALF_PLANE = "HalfPlaneTruncation"
TORUS = "Torus"
PLANE = "Plane"
KINDS = (STRIP, HALF_PLANE, TORUS, PLANE)


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
        Node counts per axis, at least 8 each.  On the torus the node at
        the right end is omitted (it duplicates the left end).
    x_range, y_range : (float, float)
        Coordinate extents.  A strip must span exactly [-1, 1] transversally;
        a half plane has its wall at y = 0.
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
        periodic = kind == TORUS
        hx = (x1 - x0) / (nx if periodic else nx - 1)
        hy = (y1 - y0) / (ny if periodic else ny - 1)
        # an infinite extent, or one whose width overflows, has no spacing
        if not (np.all(np.isfinite((x0, x1, y0, y1, hx, hy)))
                and hx > 0.0 and hy > 0.0):
            raise GridError("coordinate ranges and spacings must be finite "
                            "and the spacings positive, got x=%r, y=%r"
                            % ((x0, x1), (y0, y1)))
        self.kind = kind
        self.nx = nx
        self.ny = ny
        self.x_range = (x0, x1)
        self.y_range = (y0, y1)
        self.periodic = periodic
        self.hx = hx
        self.hy = hy

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
        if not self.periodic:
            m[[0, -1], :] = m[:, [0, -1]] = False
        return m

    def pad(self, a, fill) -> np.ndarray:
        """``a`` with a one-node apron: the wrapped nodes on a periodic
        grid, ``fill`` beyond the edges of a bounded one."""
        if self.periodic:
            return np.pad(a, 1, mode="wrap")
        return np.pad(a, 1, constant_values=fill)

    def wall_rows(self):
        """Indices of the slip-wall node rows (j-index) for this geometry;
        empty exactly when the grid has no walls (torus and plane)."""
        if self.kind == STRIP:
            return (0, self.ny - 1)
        if self.kind == HALF_PLANE:
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
    _check_finite(v)
    return _freeze(v)


def _check_finite(v: np.ndarray) -> None:
    if not np.all(np.isfinite(v)):
        raise GridError("field contains non-finite values")


class ScalarField:
    def __init__(self, grid: Grid, values):
        self.grid = grid
        self.values = _check_values(grid, values)


class VectorField:
    def __init__(self, grid: Grid, vx, vy):
        self.grid = grid
        self.vx = _check_values(grid, vx)
        self.vy = _check_values(grid, vy)


# ---------------------------------------------------------------------------
# stencils (along one axis of an array of any rank, so 1D profiles share them)


def _diff1(v: np.ndarray, h: float, axis: int, periodic: bool) -> np.ndarray:
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    if periodic:
        # v[i+1] - v[i-1] written into the output by slices, the two wrap
        # rows included, with no shifted copies
        np.subtract(w[2:], w[:-2], out=o[1:-1])
        np.subtract(w[1:2], w[-1:], out=o[:1])
        np.subtract(w[:1], w[-2:-1], out=o[-1:])
        o /= 2.0 * h
        return out
    # the bounded interior keeps its temporary: written in place, it read
    # 0.9 MB more peak RSS over two solves and their writes in one process
    # (glibc's sliding mmap threshold) and saved nothing at their peak
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
    return _diff1(f.values, f.grid.hx, 0, f.grid.periodic)


def ddy(f: ScalarField) -> np.ndarray:
    return _diff1(f.values, f.grid.hy, 1, f.grid.periodic)


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
    return ScalarField(g, _diff1(w.vx, g.hx, 0, g.periodic)
                       + _diff1(w.vy, g.hy, 1, g.periodic))


def laplacian(f: ScalarField) -> ScalarField:
    g = f.grid
    return ScalarField(g, _diff2(f.values, g.hx, 0, g.periodic)
                       + _diff2(f.values, g.hy, 1, g.periodic))


def vector_gradient(w: VectorField):
    """All four first partials of a vector field, as arrays.

    Returns (dvx_dx, dvx_dy, dvy_dx, dvy_dy).
    """
    g = w.grid
    return (_diff1(w.vx, g.hx, 0, g.periodic),
            _diff1(w.vx, g.hy, 1, g.periodic),
            _diff1(w.vy, g.hx, 0, g.periodic),
            _diff1(w.vy, g.hy, 1, g.periodic))


# ---------------------------------------------------------------------------
# quadrature


def axis_weights(n: int, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return np.full(n, h)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def quadrature_weights(grid: Grid) -> np.ndarray:
    return np.outer(axis_weights(grid.nx, grid.hx, grid.periodic),
                    axis_weights(grid.ny, grid.hy, grid.periodic))
