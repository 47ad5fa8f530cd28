"""Streamline traces, level-set extraction, and stagnation-point location.

Three independent views of the same flow geometry:

* :func:`trace` marches a path along the velocity direction field, so it
  sees the flow the way a particle does (and stops the way a particle
  would: leaving the box, stalling, or coming back around).
* :func:`level_contours` extracts level sets of the stream function, which
  are the same curves obtained without integrating anything.
* :func:`stagnation_points` finds where the speed vanishes, the hinge
  points of the streamline portrait.

Traces advance the unit field v/|v| rather than v itself: the polyline then
samples the path at uniform arclength and step control does not depend on
the local speed.  On the torus a trace lives in the covering plane
(coordinates are not wrapped back); interpolation wraps internally, so the
path is continuous and never "exits".  What lies beyond an edge is read
off the grid's one periodic flag, and the neighbour tests of contours and
stagnation points read the one-node apron of ``Grid.pad``.

Tracing runs on scalars.  Each flow gets one kernel ``unit(x, y)``, built
on its first trace and kept on the flow: a closure over the velocity rows
as Python float lists, the grid constants and the stagnation floor, with
the grid locate written out in it.  A stage sample then costs a few float
operations instead of a dozen small numpy calls, and it reproduces
:func:`bilinear_sample` bit for bit because it performs the same IEEE
operations in the same order: a bounded grid clamps exactly as
``np.clip`` (a point strictly outside moves to the edge), the torus wraps
with float ``%``, which is ``np.mod`` to the bit, and the blend is evaluated
left to right as ``v*(1-fx)*(1-fy) + v*fx*(1-fy) + ...``.  Precomputing a
weight product such as ``(1-fx)*(1-fy)`` regroups the multiplication and
moves the last bit, so the kernel must not.  The speed is
``abs(complex(vx, vy))``: CPython's complex abs calls the C library
``hypot``, the function ``np.hypot`` calls, at a fifth of the cost of a
numpy scalar call; where the result overflows it raises instead of
returning inf, and the kernel reads inf.  ``math.hypot`` is not the same
function (CPython computes it itself) and differs from ``np.hypot`` in the
last bit on some inputs.  The RK4 update keeps ``((k1 + 2 k2) + 2 k3) +
k4``.  :func:`bilinear_sample` stays the array API and the reference the
kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from . import serialize as _ser
from .diagnostics import cell_speed_variation, stagnation_floor
from .grid import Grid, ScalarField, VectorField


class SeedOutsideDomain(ValueError):
    pass


TERMINATIONS = ("MaxSteps", "LeftDomain", "Stagnated", "Closed")


class Polyline:
    """An ordered point path with its seed and the reason marching stopped.

    ``points`` is an (n, 2) float array.  ``closed``, read off a "Closed"
    termination, marks loops, whose first and last points coincide up to one
    step.  Contour polylines reuse the same container with the seed set to
    their first point.
    """

    def __init__(self, points, seed, termination: str):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("a polyline needs an (n, 2) point array")
        if termination not in TERMINATIONS:
            raise ValueError("unknown termination %r" % (termination,))
        self.points = pts
        self.closed = termination == "Closed"
        self.seed = (float(seed[0]), float(seed[1]))
        self.termination = termination

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return "Polyline(%d points, closed=%s, %s)" % (
            len(self), self.closed, self.termination)

    def to_dict(self):
        return {
            "seed": [self.seed[0], self.seed[1]],
            "closed": self.closed,
            "termination": self.termination,
            "n_points": len(self),
        }


# ---------------------------------------------------------------------------
# interpolation


def _axis_locate(coord, origin, h, n, periodic):
    """Cell index and fractional offset along one axis.

    Periodic axes wrap; bounded axes clamp, so querying a hair outside the
    rectangle returns boundary values (RK4 stages may poke past an edge by
    a fraction of a step before the exit test sees the full step).
    """
    t = (coord - origin) / h
    if periodic:
        t = np.mod(t, n)
        i0 = np.floor(t).astype(int)
        frac = t - i0
        i0 = np.mod(i0, n)
        i1 = np.mod(i0 + 1, n)
        return i0, i1, frac
    t = np.clip(t, 0.0, n - 1.0)
    i0 = np.minimum(np.floor(t).astype(int), n - 2)
    frac = t - i0
    return i0, i0 + 1, frac


def bilinear_sample(field, points):
    """Bilinear interpolation of a node field at arbitrary points.

    ``field`` is a ScalarField or VectorField; ``points`` is (..., 2).
    Returns values of shape points.shape[:-1] for scalars and points.shape
    for vectors.
    """
    grid = field.grid
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 2:
        raise ValueError("points must have (x, y) pairs on the last axis")
    x0, _ = grid.x_range
    y0, _ = grid.y_range
    i0, i1, fx = _axis_locate(pts[..., 0], x0, grid.hx, grid.nx,
                              grid.periodic)
    j0, j1, fy = _axis_locate(pts[..., 1], y0, grid.hy, grid.ny,
                              grid.periodic)

    def blend(v):
        return (v[i0, j0] * (1.0 - fx) * (1.0 - fy)
                + v[i1, j0] * fx * (1.0 - fy)
                + v[i0, j1] * (1.0 - fx) * fy
                + v[i1, j1] * fx * fy)

    if isinstance(field, VectorField):
        return np.stack([blend(field.vx), blend(field.vy)], axis=-1)
    if isinstance(field, ScalarField):
        return blend(field.values)
    raise TypeError("bilinear_sample expects a ScalarField or VectorField")


# ---------------------------------------------------------------------------
# tracing


def _inside(grid: Grid, p) -> bool:
    return grid.periodic or (grid.x_range[0] <= p[0] <= grid.x_range[1]
                             and grid.y_range[0] <= p[1] <= grid.y_range[1])


def _unit_kernel(flow):
    """One flow's unit velocity direction as a closure ``unit(x, y)``, or
    None at or below the stagnation floor.

    It is :func:`bilinear_sample` divided by its ``np.hypot`` speed, to the
    bit, with the locate of :func:`_axis_locate` written out and the
    velocity rows, grid constants and floor bound once (see the module
    docstring for the order rules).
    """
    # the floor's gradient pass runs and frees its arrays before the
    # velocity rows become Python float lists, so the two never coexist
    stall = stagnation_floor(flow)
    v = flow.velocity
    g = v.grid
    vx, vy = v.vx.tolist(), v.vy.tolist()
    x0, y0, hx, hy = g.x_range[0], g.y_range[0], g.hx, g.hy
    nx, ny, periodic = g.nx, g.ny, g.periodic
    xmax, ymax, ilast, jlast = nx - 1.0, ny - 1.0, nx - 2, ny - 2
    floor = math.floor

    def unit(x, y):
        t = (x - x0) / hx
        s = (y - y0) / hy
        if periodic:
            # float % matches np.mod bit for bit, negative zero included
            t, s = t % nx, s % ny
            i0, j0 = floor(t), floor(s)
            fx, fy = t - i0, s - j0
            i0, j0 = i0 % nx, j0 % ny
            i1, j1 = (i0 + 1) % nx, (j0 + 1) % ny
        else:
            # np.clip keeps t unless it lies strictly outside the range
            t = 0.0 if t < 0.0 else xmax if t > xmax else t
            s = 0.0 if s < 0.0 else ymax if s > ymax else s
            i0, j0 = floor(t), floor(s)
            if i0 > ilast:
                i0 = ilast
            if j0 > jlast:
                j0 = jlast
            fx, fy = t - i0, s - j0
            i1, j1 = i0 + 1, j0 + 1
        gx, gy = 1.0 - fx, 1.0 - fy
        a, b = vx[i0], vx[i1]
        wx = (a[j0] * gx * gy + b[j0] * fx * gy
              + a[j1] * gx * fy + b[j1] * fx * fy)
        a, b = vy[i0], vy[i1]
        wy = (a[j0] * gx * gy + b[j0] * fx * gy
              + a[j1] * gx * fy + b[j1] * fx * fy)
        try:
            m = abs(complex(wx, wy))
        except OverflowError:
            m = math.inf  # where np.hypot returns inf
        if m <= stall:
            return None
        return wx / m, wy / m

    return unit


def _sampler(flow):
    """The flow's :func:`_unit_kernel`, built on first use and kept on the
    flow until its velocity is replaced (field arrays are read-only, so
    the same velocity object always holds the same values)."""
    kept = getattr(flow, "_sampler", None)
    if kept is None or kept[0] is not flow.velocity:
        kept = flow._sampler = (flow.velocity, _unit_kernel(flow))
    return kept[1]


def trace(flow, seed, step: float | None = None,
          max_steps: int = 10000) -> Polyline:
    """March a streamline from seed with classical fourth-order Runge-Kutta.

    Each stage samples the interpolated velocity and normalizes it, so the
    advance per step is one step length of arclength no matter how fast or
    slow the flow is there.  Marching stops when

    * a stage lands below the stagnation floor (``Stagnated``: the direction
      field is no longer defined),
    * the next point would leave a bounded axis (``LeftDomain``; the outside
      point is not kept),
    * the path returns within one step of the seed after at least ten steps
      (``Closed``), or
    * ``max_steps`` points have been appended (``MaxSteps``).

    The default step is half the finer grid spacing, matching the sampling
    error of bilinear interpolation.  Traces of one flow share its sampler.
    """
    grid = flow.grid
    sx, sy = float(seed[0]), float(seed[1])
    # the torus has no edge to catch a coordinate the grid cannot
    # locate: non-finite, or so large that (x - x0) / h overflows
    if not (math.isfinite((sx - grid.x_range[0]) / grid.hx)
            and math.isfinite((sy - grid.y_range[0]) / grid.hy)
            and _inside(grid, (sx, sy))):
        raise SeedOutsideDomain("seed (%g, %g) lies outside %r"
                                % (sx, sy, grid))
    if step is None:
        step = 0.5 * min(grid.hx, grid.hy)
    step = float(step)
    if not (step > 0.0):
        raise ValueError("step must be positive")
    max_steps = int(max_steps)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    (xlo, xhi), (ylo, yhi) = grid.x_range, grid.y_range
    # nor may a torus march reach one: (x - x0) / h overflows to inf, and
    # inf % n is NaN
    reach = max_steps * step
    if grid.periodic and not (
            math.isfinite((abs(sx) + abs(xlo) + reach) / grid.hx)
            and math.isfinite((abs(sy) + abs(ylo) + reach) / grid.hy)):
        raise SeedOutsideDomain(
            "%d steps of %g from seed (%g, %g) reach past what %r can "
            "locate" % (max_steps, step, sx, sy, grid))

    unit = _sampler(flow)
    bounded = not grid.periodic
    half = 0.5 * step
    sixth = step / 6.0
    x, y = sx, sy
    pts = [(x, y)]
    termination = "MaxSteps"
    for n in range(1, max_steps + 1):
        k1 = unit(x, y)
        if k1 is None:
            termination = "Stagnated"
            break
        k2 = unit(x + half * k1[0], y + half * k1[1])
        if k2 is None:
            termination = "Stagnated"
            break
        k3 = unit(x + half * k2[0], y + half * k2[1])
        if k3 is None:
            termination = "Stagnated"
            break
        k4 = unit(x + step * k3[0], y + step * k3[1])
        if k4 is None:
            termination = "Stagnated"
            break
        qx = x + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        qy = y + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        if bounded and not (xlo <= qx <= xhi and ylo <= qy <= yhi):
            termination = "LeftDomain"
            break
        pts.append((qx, qy))
        x, y = qx, qy
        if n >= 10:
            try:
                back = abs(complex(qx - sx, qy - sy))
            except OverflowError:
                back = math.inf
            if back <= step:
                termination = "Closed"
                break
    return Polyline(np.array(pts), seed, termination)


# ---------------------------------------------------------------------------
# level sets


def _extract_level(grid: Grid, values: np.ndarray, level: float):
    """Marching squares at one level that no node value equals exactly.

    Returns a list of (point list, closed) chains.  Crossings live on grid
    edges and are keyed by edge, so segments from adjacent cells share
    endpoints bit for bit and chaining is exact set arithmetic, no
    coordinate rounding involved.
    """
    nx, ny = grid.nx, grid.ny
    # a torus keeps the high-end node of its apron on each axis, so the
    # cells across the seam are plain cells; edge keys wrap back to the base
    # cell below
    k = int(grid.periodic)
    values = grid.pad(values, 0.0)[1:nx + 1 + k, 1:ny + 1 + k]
    b = values > level

    def cross(lo, hi, blo, bhi):
        hit = blo != bhi
        t = np.zeros_like(lo)
        np.divide(level - lo, hi - lo, out=t, where=hit)
        return hit, t

    # edge ('x', i, j): node (i, j) to (i+1, j); ('y', i, j) to (i, j+1)
    hit_x, t_x = cross(values[:-1], values[1:], b[:-1], b[1:])
    hit_y, t_y = cross(values[:, :-1], values[:, 1:], b[:, :-1], b[:, 1:])

    # cells worth visiting: some corner pair disagrees
    ba = b[:-1, :-1]
    active = ((ba != b[1:, :-1]) | (ba != b[1:, 1:])
              | (ba != b[:-1, 1:]))

    # every crossing lies on at most two cells, so the links form disjoint
    # paths and loops
    adj = {}

    def link(a, c):
        adj.setdefault(a, []).append(c)
        adj.setdefault(c, []).append(a)

    for i, j in np.argwhere(active):
        i1 = (i + 1) % nx
        j1 = (j + 1) % ny
        bottom = ("x", i, j)
        top = ("x", i, j1)
        left = ("y", i, j)
        right = ("y", i1, j)
        crossed = [(bottom, hit_x[i, j]), (right, hit_y[i1, j]),
                   (top, hit_x[i, j1]), (left, hit_y[i, j])]
        names = [e for e, c in crossed if c]
        if len(names) == 2:
            link(*names)
        elif len(names) == 4:
            # saddle cell: pair the crossings by the sign of the center mean
            center = 0.25 * (values[i, j] + values[i1, j]
                             + values[i1, j1] + values[i, j1])
            if (center > level) == b[i, j]:
                link(bottom, right)
                link(top, left)
            else:
                link(bottom, left)
                link(top, right)

    def edge_point(eid):
        axis, i, j = eid
        x0, y0 = grid.x_range[0], grid.y_range[0]
        if axis == "x":
            return (x0 + (i + t_x[i, j]) * grid.hx, y0 + j * grid.hy)
        return (x0 + i * grid.hx, y0 + (j + t_y[i, j]) * grid.hy)

    seen = set()

    def chain(start, closed):
        # walk on to the unseen neighbour, the lower one at a loop's start
        path = [start]
        while True:
            seen.add(path[-1])
            nxt = [c for c in adj[path[-1]] if c not in seen]
            if not nxt:
                break
            path.append(min(nxt))
        pts = [edge_point(e) for e in path]
        return (pts + pts[:1] if closed else pts), closed

    # open chains first, from their lower endpoint, then the loops, each
    # from its lowest crossing
    ends = sorted(e for e, nbrs in adj.items() if len(nbrs) == 1)
    return ([chain(e, False) for e in ends if e not in seen]
            + [chain(e, True) for e in sorted(adj) if e not in seen])


def _chains_match(a, b, tol):
    if len(a) != len(b):
        return False
    pa, pb = np.asarray(a), np.asarray(b)
    fwd = float(np.max(np.hypot(*(pa - pb).T)))
    rev = float(np.max(np.hypot(*(pa - pb[::-1]).T)))
    return min(fwd, rev) <= tol


def level_contours(u: ScalarField, levels):
    """Extract level sets of a node field as polylines.

    Marching squares with linear interpolation on cell edges; saddle cells
    split by their center average.  A level that collides with node values
    exactly is ambiguous (the curve passes through nodes), so it is
    extracted at two nudged levels, a hair above and a hair below, and
    chains the two sides agree on are merged.  That keeps a level running
    along a flat node line (a wall trace, a symmetry axis) from losing the
    half of its boundary that a single one-sided extraction would miss.

    Closed chains repeat their first point at the end.  Open chains end on
    the domain boundary and are tagged ``LeftDomain``; loops are ``Closed``.
    """
    grid = u.grid
    vals = u.values
    levels = [float(lv) for lv in np.atleast_1d(np.asarray(levels, float))]
    if not all(np.isfinite(lv) for lv in levels):
        raise ValueError("contour levels must be finite")

    spread = float(vals.max() - vals.min())
    ext = max(grid.x_range[1] - grid.x_range[0],
              grid.y_range[1] - grid.y_range[0])
    match_tol = 1e-6 * ext

    out = []
    for lv in levels:
        if np.any(vals == lv):
            eps = 1e-12 * (spread + abs(lv) + 1.0)
            above = _extract_level(grid, vals, lv + eps)
            below = _extract_level(grid, vals, lv - eps)
            chains = list(above)
            for cb in below:
                if not any(_chains_match(cb[0], ca[0], match_tol)
                           for ca in above):
                    chains.append(cb)
        else:
            chains = _extract_level(grid, vals, lv)
        for pts, cyc in chains:
            out.append(Polyline(np.asarray(pts), pts[0],
                                "Closed" if cyc else "LeftDomain"))
    return out


# ---------------------------------------------------------------------------
# stagnation points


def _padded_speed2(flow) -> np.ndarray:
    """speed^2 with a one-node apron encoding each boundary's character.

    The torus wraps.  Slip walls reflect evenly: v tangential is even and
    v normal odd across a wall streamline, so speed^2 extends smoothly and
    wall nodes get a genuine 3x3 neighborhood.  Open truncation edges are
    set to -inf, which disqualifies their nodes from being strict minima: a
    minimum on the cut is an artifact of where the box was cut, not of the
    flow.
    """
    g = flow.grid
    v = flow.velocity
    s2 = v.vx ** 2 + v.vy ** 2
    P = g.pad(s2, -np.inf)
    for j in g.wall_rows():
        if j == 0:
            P[1:-1, 0] = s2[:, 1]
        else:
            P[1:-1, -1] = s2[:, -2]
    return P


_FIT_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_FIT_PINV = np.linalg.pinv(np.array(
    [[1.0, di, dj, di * di, di * dj, dj * dj] for di, dj in _FIT_OFFSETS]))


def stagnation_points(flow):
    """Isolated stagnation points as (x, y, speed) triples, sorted by x, y.

    A node qualifies when its speed is at or below the floor and it is a
    strict local minimum of speed over its 3x3 neighborhood.  The floor is
    one cell of speed variation, s = max(hx, hy) * max |grad v|_F
    (Frobenius norm, exactly invariant under rotating the velocity).  The
    least-squares quadratic fit of speed^2 over that neighborhood then
    refines the location to the fit's vertex; the point is kept only when
    the fit is positive definite and the vertex stays within one cell of
    the node.  Both gates reject non-zeros that sneak under a generous
    floor: a degenerate valley has an indefinite fit, and a decaying far
    field puts the vertex far outside the cell.  The reported speed is the
    interpolated |v| at the refined location (the fit decides where, the
    field says how slow).  Degenerate stagnation sets (the zero line of a
    shear) contain no strict minima at all and report no points.

    Wall nodes participate through the even reflection of speed^2 across
    the wall; nodes on open truncation edges never qualify.
    """
    g = flow.grid
    floor = cell_speed_variation(flow)
    P = _padded_speed2(flow)
    c = P[1:-1, 1:-1]
    strict = np.ones(g.shape, dtype=bool)
    for di, dj in _FIT_OFFSETS:
        if di == 0 and dj == 0:
            continue
        strict &= c < P[1 + di:g.nx + 1 + di, 1 + dj:g.ny + 1 + dj]
    strict &= c <= floor * floor

    xs = g.x_nodes()
    ys = g.y_nodes()
    points = []
    for i, j in np.argwhere(strict):
        patch = np.array([P[1 + i + di, 1 + j + dj]
                          for di, dj in _FIT_OFFSETS])
        c0, c1, c2, c3, c4, c5 = _FIT_PINV @ patch
        det = 4.0 * c3 * c5 - c4 * c4
        if not (c3 > 0.0 and det > 0.0):
            continue
        dx = (c4 * c2 - 2.0 * c5 * c1) / det
        dy = (c4 * c1 - 2.0 * c3 * c2) / det
        if abs(dx) > 1.0 or abs(dy) > 1.0:
            continue
        loc = (float(xs[i] + dx * g.hx), float(ys[j] + dy * g.hy))
        w = bilinear_sample(flow.velocity, np.array(loc))
        points.append((loc[0], loc[1], float(np.hypot(w[0], w[1]))))
    points.sort(key=lambda p: (p[0], p[1]))
    return points


# ---------------------------------------------------------------------------
# emission


def save_polylines(polylines, csv_path, json_path, extra=None) -> None:
    """Write polylines as one flat CSV plus a JSON manifest.

    CSV columns are (trace_id, order, x, y); the manifest carries per-trace
    metadata (seed, closure, termination, point count) under the same ids.
    """
    ids, order, xc, yc = [], [], [], []
    manifest = []
    for tid, poly in enumerate(polylines):
        n = len(poly)
        ids.extend([tid] * n)
        order.extend(range(n))
        xc.extend(poly.points[:, 0].tolist())
        yc.extend(poly.points[:, 1].tolist())
        entry = poly.to_dict()
        entry["trace_id"] = tid
        manifest.append(entry)
    _ser.write_csv(csv_path, ["trace_id", "order", "x", "y"],
                   [np.asarray(ids, dtype=int), np.asarray(order, dtype=int),
                    np.asarray(xc, dtype=float), np.asarray(yc, dtype=float)])
    env = {"schema_version": _ser.SCHEMA_VERSION, "traces": manifest}
    if extra:
        env.update(extra)
    _ser.write_json(env, json_path)
