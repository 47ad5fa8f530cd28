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
the local speed.  On periodic axes a trace lives in the covering plane
(coordinates are not wrapped back); interpolation wraps internally, so the
path is continuous and never "exits" a periodic direction.

Tracing runs on scalars.  Each flow gets one sampler, built on its first
trace and kept on the flow: the velocity rows as Python float lists, the
grid geometry and the stagnation floor.  A stage sample then costs a few
float operations instead of a dozen small numpy calls, and it reproduces
:func:`bilinear_sample` bit for bit because it performs the same IEEE
operations in the same order: bounded axes clamp exactly as ``np.clip``
(a point strictly outside moves to the edge), periodic axes wrap with
float ``%``, which is ``np.mod`` to the bit, and the blend is evaluated
left to right as ``v*(1-fx)*(1-fy) + v*fx*(1-fy) + ...``.  Precomputing a
weight product such as ``(1-fx)*(1-fy)`` regroups the multiplication and
moves the last bit, so the kernel must not.  The speed is ``np.hypot`` and
the RK4 update keeps ``((k1 + 2 k2) + 2 k3) + k4``.  :func:`bilinear_sample`
stays the array API and the reference the kernel is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from . import serialize as _ser
from .diagnostics import cell_speed_variation, stagnation_floor
from .grid import Grid, ScalarField, VectorField, QUADRANT


class SeedOutsideDomain(ValueError):
    pass


TERMINATIONS = ("MaxSteps", "LeftDomain", "Stagnated", "Closed")


class Polyline:
    """An ordered point path with its seed and the reason marching stopped.

    ``points`` is an (n, 2) float array.  ``closed`` marks loops; the first
    and last points of a closed polyline coincide up to one step.  Contour
    polylines reuse the same container with the seed set to their first
    point.
    """

    def __init__(self, points, closed: bool, seed, termination: str):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("a polyline needs an (n, 2) point array")
        if termination not in TERMINATIONS:
            raise ValueError("unknown termination %r" % (termination,))
        self.points = pts
        self.closed = bool(closed)
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


def _locate(t, n, periodic):
    """:func:`_axis_locate` of one grid coordinate ``t = (coord - origin)
    / h``, in float arithmetic with the same results."""
    if periodic:
        # float % matches np.mod bit for bit, negative zero included
        t %= n
        i0 = math.floor(t)
        return i0 % n, (i0 + 1) % n, t - i0
    # np.clip keeps t unless it lies strictly outside the range
    if t < 0.0:
        t = 0.0
    elif t > n - 1.0:
        t = n - 1.0
    i0 = min(math.floor(t), n - 2)
    return i0, i0 + 1, t - i0


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
                              grid.periodic_x)
    j0, j1, fy = _axis_locate(pts[..., 1], y0, grid.hy, grid.ny,
                              grid.periodic_y)

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
    if not grid.periodic_x:
        if not (grid.x_range[0] <= p[0] <= grid.x_range[1]):
            return False
    if not grid.periodic_y:
        if not (grid.y_range[0] <= p[1] <= grid.y_range[1]):
            return False
    return True


class _Sampler:
    """Scalar twin of :func:`bilinear_sample` for one flow's velocity.

    Everything a stage sample needs is computed once per flow: the velocity
    rows as Python floats, the grid origin, spacings, sizes and periodic
    flags, and the stagnation floor.  :meth:`sample` then does the
    interpolation of one point in plain float arithmetic, operation for
    operation as the array code does it, so its result is the same to the
    last bit (see the module docstring for the order rules).
    """

    def __init__(self, flow):
        v = flow.velocity
        g = v.grid
        self.velocity = v
        self.floor = stagnation_floor(flow)
        self._vx = v.vx.tolist()
        self._vy = v.vy.tolist()
        self._x0, self._y0 = g.x_range[0], g.y_range[0]
        self._hx, self._hy = g.hx, g.hy
        self._nx, self._ny = g.nx, g.ny
        self._px, self._py = g.periodic_x, g.periodic_y

    def sample(self, x, y):
        """Interpolated velocity (vx, vy) at the point (x, y)."""
        i0, i1, fx = _locate((x - self._x0) / self._hx, self._nx, self._px)
        j0, j1, fy = _locate((y - self._y0) / self._hy, self._ny, self._py)
        a, b = self._vx[i0], self._vx[i1]
        wx = (a[j0] * (1.0 - fx) * (1.0 - fy) + b[j0] * fx * (1.0 - fy)
              + a[j1] * (1.0 - fx) * fy + b[j1] * fx * fy)
        a, b = self._vy[i0], self._vy[i1]
        wy = (a[j0] * (1.0 - fx) * (1.0 - fy) + b[j0] * fx * (1.0 - fy)
              + a[j1] * (1.0 - fx) * fy + b[j1] * fx * fy)
        return wx, wy

    def unit(self, x, y):
        """Unit velocity direction at (x, y), or None at or below the
        stagnation floor."""
        wx, wy = self.sample(x, y)
        m = float(np.hypot(wx, wy))
        if m <= self.floor:
            return None
        return wx / m, wy / m


def _sampler(flow) -> _Sampler:
    """The flow's sampler, built on first use and kept on the flow until
    its velocity is replaced (field arrays are read-only, so the same
    velocity object always holds the same values)."""
    s = getattr(flow, "_sampler", None)
    if s is None or s.velocity is not flow.velocity:
        s = flow._sampler = _Sampler(flow)
    return s


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
    # a periodic axis has no edge to catch a coordinate the grid cannot
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

    unit = _sampler(flow).unit
    half = 0.5 * step
    sixth = step / 6.0
    x, y = sx, sy
    pts = [(x, y)]
    closed = False
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
        if not _inside(grid, (qx, qy)):
            termination = "LeftDomain"
            break
        pts.append((qx, qy))
        x, y = qx, qy
        if n >= 10 and float(np.hypot(qx - sx, qy - sy)) <= step:
            closed = True
            termination = "Closed"
            break
    return Polyline(np.array(pts), closed, seed, termination)


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
    b = values > level

    def cross(axis):
        per = grid.periodic_x if axis == 0 else grid.periodic_y
        if per:
            lo, hi = values, np.roll(values, -1, axis)
            blo, bhi = b, np.roll(b, -1, axis)
        else:
            cut = (slice(None, -1), slice(None)) if axis == 0 \
                else (slice(None), slice(None, -1))
            cut1 = (slice(1, None), slice(None)) if axis == 0 \
                else (slice(None), slice(1, None))
            lo, hi = values[cut], values[cut1]
            blo, bhi = b[cut], b[cut1]
        hit = blo != bhi
        t = np.zeros_like(lo)
        np.divide(level - lo, hi - lo, out=t, where=hit)
        return hit, t

    hit_x, t_x = cross(0)   # edge ('x', i, j): node (i, j) to (i+1, j)
    hit_y, t_y = cross(1)   # edge ('y', i, j): node (i, j) to (i, j+1)

    ncx = nx if grid.periodic_x else nx - 1
    ncy = ny if grid.periodic_y else ny - 1

    # cells worth visiting: some corner pair disagrees
    ip = (np.arange(ncx) + 1) % nx
    jp = (np.arange(ncy) + 1) % ny
    ba = b[:ncx, :ncy]
    bb = b[ip, :ncy]
    bd = b[:ncx, :][:, jp]
    bc = b[ip, :][:, jp]
    active = (ba != bb) | (ba != bc) | (ba != bd)

    links = []
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
            links.append((names[0], names[1]))
        elif len(names) == 4:
            # saddle cell: pair the crossings by the sign of the center mean
            center = 0.25 * (values[i, j] + values[i1, j]
                             + values[i1, j1] + values[i, j1])
            if (center > level) == b[i, j]:
                links.append((bottom, right))
                links.append((top, left))
            else:
                links.append((bottom, left))
                links.append((top, right))

    if not links:
        return []

    adj = {}
    for a, c in links:
        adj.setdefault(a, []).append(c)
        adj.setdefault(c, []).append(a)
    for nbrs in adj.values():
        nbrs.sort()

    def edge_point(eid):
        axis, i, j = eid
        x0, y0 = grid.x_range[0], grid.y_range[0]
        if axis == "x":
            return (x0 + (i + t_x[i, j]) * grid.hx, y0 + j * grid.hy)
        return (x0 + i * grid.hx, y0 + (j + t_y[i, j]) * grid.hy)

    used = set()
    chains = []

    def walk(start):
        path = [start]
        cur = start
        while True:
            nxt = None
            for cand in adj[cur]:
                if frozenset((cur, cand)) not in used:
                    nxt = cand
                    break
            if nxt is None:
                return path, False
            used.add(frozenset((cur, nxt)))
            if nxt == start:
                return path, True
            path.append(nxt)
            cur = nxt

    # open chains first, from their endpoints, then leftover loops
    for start in sorted(e for e, nbrs in adj.items() if len(nbrs) == 1):
        if any(frozenset((start, c)) not in used for c in adj[start]):
            path, cyc = walk(start)
            chains.append((path, cyc))
    for start in sorted(adj):
        while any(frozenset((start, c)) not in used for c in adj[start]):
            path, cyc = walk(start)
            chains.append((path, cyc))

    out = []
    for path, cyc in chains:
        pts = [edge_point(e) for e in path]
        if cyc:
            pts.append(pts[0])
        out.append((pts, cyc))
    return out


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
            out.append(Polyline(np.asarray(pts), cyc, pts[0],
                                "Closed" if cyc else "LeftDomain"))
    return out


# ---------------------------------------------------------------------------
# stagnation points


def _padded_speed2(flow) -> np.ndarray:
    """speed^2 with a one-node apron encoding each boundary's character.

    Periodic axes wrap.  Slip walls reflect evenly: v tangential is even and
    v normal odd across a wall streamline, so speed^2 extends smoothly and
    wall nodes get a genuine 3x3 neighborhood.  Open truncation edges are
    set to -inf, which disqualifies their nodes from being strict minima: a
    minimum on the cut is an artifact of where the box was cut, not of the
    flow.
    """
    g = flow.grid
    v = flow.velocity
    s2 = v.vx ** 2 + v.vy ** 2
    P = np.full((g.nx + 2, g.ny + 2), -np.inf)
    P[1:-1, 1:-1] = s2
    if g.periodic_x:
        P[0, 1:-1] = s2[-1, :]
        P[-1, 1:-1] = s2[0, :]
    if g.periodic_y:
        P[1:-1, 0] = s2[:, -1]
        P[1:-1, -1] = s2[:, 0]
        if g.periodic_x:
            P[0, 0] = s2[-1, -1]
            P[0, -1] = s2[-1, 0]
            P[-1, 0] = s2[0, -1]
            P[-1, -1] = s2[0, 0]
    for j in g.wall_rows():
        if j == 0:
            P[1:-1, 0] = s2[:, 1]
        else:
            P[1:-1, -1] = s2[:, -2]
    if g.kind == QUADRANT:
        P[0, 1:-1] = s2[1, :]
    return P


_FIT_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_FIT_PINV = np.linalg.pinv(np.array(
    [[1.0, di, dj, di * di, di * dj, dj * dj] for di, dj in _FIT_OFFSETS]))


def stagnation_points(flow, floor: float | None = None):
    """Isolated stagnation points as (x, y, speed) triples, sorted by x, y.

    A node qualifies when its speed is at or below the floor and it is a
    strict local minimum of speed over its 3x3 neighborhood.  The default
    floor is one cell of speed variation, s = max(hx, hy) * max |grad v|_F
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
    if floor is None:
        floor = cell_speed_variation(flow)
    floor = float(floor)
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


def save_polylines(polylines, csv_path, json_path=None, extra=None) -> None:
    """Write polylines as one flat CSV plus an optional JSON manifest.

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
    if json_path is not None:
        env = {"schema_version": _ser.SCHEMA_VERSION, "traces": manifest}
        if extra:
            env.update(extra)
        _ser.write_json(env, json_path)
