"""Flow-angle sets, curvature integrals, wall-trace functionals, and the
classification verdicts built from them.

Angle bins use a round-to-center convention: bin b of n covers the angles
within half a width of b*(2pi/n) - pi, so the cardinal directions sit at bin
centers instead of edges and finite-difference jitter around an exact
direction cannot flip occupancy.  Bin 0 straddles the seam at +-pi.

Every curvature quantity shares one stagnation floor, max(1e-10, 1e-3 s)
with s = max(hx, hy) * max |grad v|_F, |grad v|_F the Frobenius norm, which
is exactly invariant under a constant rotation of the velocity vectors:
angles are only defined where the velocity is visibly nonzero, and the
curvature integrand is set to zero on the floored set (it vanishes almost
everywhere on stagnation sets in the continuum, so this discards nothing).
That floor and the curvature quadrature split form one per-flow bundle.  It
is built on first use and kept on the flow, so every curvature diagnostic of
one flow reads the same bundle.  The memo is valid only while the flow's
velocity object is unchanged: field arrays are read-only, so the same
object always holds the same values, and replacing ``flow.velocity``
rebuilds the bundle.  The bundle keeps none of the velocity partials:
the identity residual forms them for its own expressions and builds the
bundle from those same partials, so run_diagnostics, which takes the
residual first, differences the velocity once.  Neighbour tests read the
grid's one-node apron (``Grid.pad``): the torus wraps, and nothing lies
beyond a bounded edge.

The wall functional is computed by two routes that share no code: an
interior integral of the signed curvature density, and a cutoff-weighted
trace integral along the walls.  Their agreement is a consistency check on
the whole pipeline, so the report carries both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce

import numpy as np

from . import grid as _g
from . import serialize as _ser
from .grid import (Grid, GridError, ScalarField, VectorField,
                   STRIP, HALF_PLANE, TORUS, PLANE)


class RTooLarge(ValueError):
    """Cutoff plateau radius exceeds the truncated domain."""


class RTooSmall(ValueError):
    """Logarithmic (half-plane) cutoff radius is at most 1."""


class NotAStripGrid(GridError):
    pass


class DiagnosticOverflow(ValueError):
    """A diagnostic of a finite flow overflowed the double range."""


VERDICTS = ("Shear", "FullCircle", "TypeIIIUpper", "TypeIIILower",
            "Arc", "Indeterminate")


# ---------------------------------------------------------------------------
# angles


def angle_from(u):
    """Angle of vector u measured from e1 = (1, 0), in (-pi, pi].

    sgn(u2) * arccos(u1 / |u|), with the zero vector mapped to 0 and the
    antipodal boundary case (u2 = 0, u1 < 0) to +pi.  Accepts single vectors
    or arrays with components along the last axis.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.shape == (2,)
    u1, u2 = u[..., 0], u[..., 1]
    mag = np.hypot(u1, u2)
    safe = np.where(mag > 0.0, mag, 1.0)
    core = np.arccos(np.clip(u1 / safe, -1.0, 1.0))
    sign = np.where(u2 < 0.0, -1.0, 1.0)
    out = np.where(mag > 0.0, sign * core, 0.0)
    return float(out) if scalar else out


def _bin_index(theta, n_bins):
    # round-to-center: cardinal angles land mid-bin
    w = 2.0 * np.pi / n_bins
    return np.round((theta + np.pi) / w).astype(int) % n_bins


def bin_centers(n_bins: int) -> np.ndarray:
    """Center angle of each bin; bin 0 reports -pi (the +-pi seam)."""
    return np.arange(n_bins) * (2.0 * np.pi / n_bins) - np.pi


def _gradient_norms2(grads):
    """|d_x v|^2 and |d_y v|^2 per node, their sum |grad v|_F^2, and its max.

    Every stagnation floor takes its s from this one formula, so the
    bundle's floor and stagnation_floor agree to the last bit.
    """
    v1x, v1y, v2x, v2y = grads
    gx2 = v1x ** 2 + v2x ** 2
    gy2 = v1y ** 2 + v2y ** 2
    g2 = gx2 + gy2
    return gx2, gy2, g2, float(np.max(g2))


def _cell_speed(grid, g2max: float) -> float:
    return max(grid.hx, grid.hy) * float(np.sqrt(g2max))


def cell_speed_variation(flow) -> float:
    """One grid cell of speed variation, s = max(hx, hy) * max |grad v|_F.

    The Frobenius norm |grad v|_F is exactly invariant under a constant
    rotation of the velocity vectors, so every floor built on s is too.
    """
    grads = _g.vector_gradient(flow.velocity)
    return _cell_speed(flow.grid, _gradient_norms2(grads)[3])


def _diagnostics_floor(s: float) -> float:
    return max(1e-10, 1e-3 * s)


def stagnation_floor(flow) -> float:
    """Speed below which a node counts as stagnant: max(1e-10, 1e-3 s)."""
    return _diagnostics_floor(cell_speed_variation(flow))


_Bundle = namedtuple("_Bundle", "velocity floor dens live ridge_mass across_y")


def _bundle(flow, grads=None) -> _Bundle:
    """The flow's curvature bundle, built on first use and kept on the flow
    until its velocity is replaced, as ``streamlines._sampler`` keeps its
    sampler.  ``grads``, the velocity partials, spares a caller that has
    formed them a second gradient pass."""
    b = getattr(flow, "_curvature_bundle", None)
    if b is None or b.velocity is not flow.velocity:
        if grads is None:
            grads = _g.vector_gradient(flow.velocity)
        b = flow._curvature_bundle = _build_bundle(flow, grads)
    return b


def _build_bundle(flow, grads) -> _Bundle:
    """Stagnation floor and the curvature quadrature split into resolved and
    sub-cell parts, from the velocity partials ``grads``.

    The floor takes s from the squared Frobenius norms |d_x v|^2 + |d_y v|^2
    that also pick the steepest axis, so it costs no extra array pass.

    ``across_y`` marks nodes whose steepest velocity variation runs along
    x2.  ``dens`` is the pointwise density
    |v1 grad v2 - v2 grad v1|^2 / |v|^2 on ``live`` nodes and zero
    elsewhere; ``ridge_mass`` is a per-node correction, zero off a small
    exceptional set.

    A node is censored from ``dens`` when |v| <= h_n |grad v| with h_n the
    node spacing across the direction of steepest velocity variation: there
    the flow direction turns through order one inside a single cell, and a
    nodewise sample weighted by a full cell misreads what the cell actually
    holds.  The archetype is the centerline of a strip flow far downstream,
    where the along-strip component crosses zero on a line while the
    crossflow decays: the density carries an O(1) ridge value on the line
    itself but the turning band around it has width |v| / |grad v|, soon far
    below the mesh, and keeping the ridge row makes the quadrature error
    first order in h no matter how the resolved cells refine.

    Censoring alone swings the error to a first-order undercount, because
    the band's mass is genuine.  But in the thin-band limit the transverse
    profile is explicit: with t along the band and n across it,
    v ~ (c n, b) in local frame, the density is a Lorentzian bump
    a^2 b^2/(c^2 n^2 + b^2) whose n-integral is pi |c b| = pi |v1 grad v2 -
    v2 grad v1| exactly, evaluated at the band center.  So each censored
    node whose cell straddles such a band contributes the closed-form band
    mass pi |v1 grad v2 - v2 grad v1| per unit length along the band,
    discretized as that value times cell-area / h_n.

    A censored node qualifies only when its two neighbors across the band
    point in opposed directions, v(+h_n) . v(-h_n) < 0: that is the
    signature of a direction sweep through the cell.  Nodes censored next
    to an isolated stagnation point fail this test (the direction field is
    merely slow there, not folded) and carry no correction; their true mass
    is O(h^2).  Every ingredient -- speeds, gradient norms, the floor, the
    neighbor dot -- is invariant under a constant rotation of the velocity
    vectors and homogeneous under v -> c v, but only in exact arithmetic:
    with |d_x v| = |d_y v| exactly (Taylor-Green nodes, the strip's x1 = 0
    column) rounding would pick the steepest axis, so x2 is taken unless
    |d_x v|^2 beats |d_y v|^2 by 1e-9 of the grid's largest |grad v|^2.

    Censored nodes keep their genuine directions (angle sets are built on
    the plain stagnation floor); they just cannot carry naive cell weight.
    """
    g = flow.grid
    v = flow.velocity
    v1x, v1y, v2x, v2y = grads
    cx = v.vx * v2x - v.vy * v1x
    cy = v.vx * v2y - v.vy * v1y
    speed2 = v.vx ** 2 + v.vy ** 2
    speed = np.sqrt(speed2)
    gx2, gy2, g2, g2max = _gradient_norms2(grads)
    floor = _diagnostics_floor(_cell_speed(g, g2max))
    across_y = gy2 >= gx2 - 1e-9 * g2max
    hn = np.where(across_y, g.hy, g.hx)
    moving = speed > floor
    censored = moving & (speed <= hn * np.sqrt(g2))
    live = moving & ~censored
    dens = np.where(live, (cx ** 2 + cy ** 2) / np.where(live, speed2, 1.0), 0.0)
    # v(node+h) . v(node-h) across the band; the zero apron beyond a bounded
    # edge gives an end node a dot of 0, which is no sweep
    px, py = g.pad(v.vx, 0.0), g.pad(v.vy, 0.0)
    dot_x = px[2:, 1:-1] * px[:-2, 1:-1] + py[2:, 1:-1] * py[:-2, 1:-1]
    dot_y = px[1:-1, 2:] * px[1:-1, :-2] + py[1:-1, 2:] * py[1:-1, :-2]
    ridge = censored & (np.where(across_y, dot_y, dot_x) < 0.0)
    wq = _g.quadrature_weights(g)
    ridge_mass = np.where(ridge, np.pi * np.hypot(cx, cy) * wq / hn, 0.0)
    return _Bundle(v, floor, dens, live, ridge_mass, across_y)


class AngleSet:
    """|v|-weighted mass of flow directions over angle bins; a bin with mass
    is occupied."""

    def __init__(self, mass, stagnation_threshold):
        self.mass = np.asarray(mass, dtype=float)
        self.n_bins = len(self.mass)
        self.occupied = self.mass > 0.0
        self.stagnation_threshold = float(stagnation_threshold)

    def occupied_indices(self):
        return np.flatnonzero(self.occupied)


def angle_set(flow, n_bins: int = 360) -> AngleSet:
    """Bin the directions angle_from(v) of all nodes faster than the
    stagnation floor, read off the flow's curvature bundle (the same bits
    as :func:`stagnation_floor`).
    """
    # with fewer bins classify fills an empty half-circle as a pinhole
    if n_bins < 16:
        raise ValueError("need at least 16 bins")
    threshold = _bundle(flow).floor
    v = flow.velocity
    speed = np.hypot(v.vx, v.vy)
    live = speed > threshold
    theta = angle_from(np.stack([v.vx[live], v.vy[live]], axis=-1))
    idx = _bin_index(theta, n_bins)
    mass = np.bincount(idx, weights=speed[live], minlength=n_bins)
    return AngleSet(mass, threshold)


# ---------------------------------------------------------------------------
# curvature integrals


def total_curvature(flow) -> float:
    """Curvature density integrated over the grid, sub-cell bands included."""
    b = _bundle(flow)
    return (_g.integrate(ScalarField(flow.grid, b.dens))
            + float(b.ridge_mass.sum()))


def signed_curvature_integral(flow) -> float:
    """(2/pi) * integral of sgn(v2) times the curvature density.

    v2 vanishes identically on slip walls while the density does not, so
    wall rows take the sign of v2 one row inside; the pointwise wall sign
    (always 0) would silently drop the walls' quadrature share from one route
    and not the other.
    """
    b = _bundle(flow)
    sgn = np.sign(flow.velocity.vy)
    ny = flow.grid.ny
    for j in flow.grid.wall_rows():
        inner = 1 if j == 0 else ny - 2
        sgn[:, j] = np.sign(flow.velocity.vy[:, inner])
    return 2.0 / np.pi * (_g.integrate(ScalarField(flow.grid, sgn * b.dens))
                          + float((sgn * b.ridge_mass).sum()))


def curvature_identity_residual(flow, derivatives: str = "fd",
                                speed_fraction: float = 0.05) -> ScalarField:
    """Nodewise spread of the equivalent curvature-density expressions.

    Compares |grad v|^2 - |grad |v||^2, |v|^2 |grad(v/|v|)|^2,
    |v1 grad v2 - v2 grad v1|^2/|v|^2, and (with pressure) |grad P|^2/|v|^2;
    returns the max pairwise discrepancy.

    In FD mode the comparison is masked where |v| <= speed_fraction times
    the peak speed (and one node beyond): every expression divides by a
    power of |v|, so the finite-difference error grows without bound as the
    stagnation set is approached, and only a floor that does not shrink
    with the mesh leaves a max that refines at second order.  With
    derivatives="analytic" the catalog's closed-form evaluators replace the
    stencils, the identity becomes exact algebra, and only the stagnation
    floor itself is masked.
    """
    grads = _g.vector_gradient(flow.velocity)
    floor = _bundle(flow, grads).floor
    g = flow.grid
    if derivatives == "fd":
        v = flow.velocity
        v1, v2 = v.vx, v.vy
        v1x, v1y, v2x, v2y = grads
        pgrads = None
        if flow.pressure is not None:
            pg = _g.gradient(flow.pressure)
            pgrads = (pg.vx, pg.vy)
    elif derivatives == "analytic":
        if flow.closed_form is None:
            raise ValueError("flow carries no closed-form evaluators")
        X, Y = g.mesh()
        cf = flow.closed_form
        v1, v2 = cf["v1"](X, Y), cf["v2"](X, Y)
        v1x, v1y = cf["v1_x"](X, Y), cf["v1_y"](X, Y)
        v2x, v2y = cf["v2_x"](X, Y), cf["v2_y"](X, Y)
        pgrads = (cf["P_x"](X, Y), cf["P_y"](X, Y))
    else:
        raise ValueError("derivatives must be 'fd' or 'analytic'")

    speed2 = v1 ** 2 + v2 ** 2
    speed = np.sqrt(speed2)
    if derivatives == "fd":
        floor = max(floor, speed_fraction * float(speed.max()))
    live = speed > floor
    denom2 = np.where(live, speed2, 1.0)

    grad_v2 = v1x ** 2 + v1y ** 2 + v2x ** 2 + v2y ** 2
    if derivatives == "fd":
        gs = _g.gradient(ScalarField(g, speed))
        grad_speed2 = gs.vx ** 2 + gs.vy ** 2
        unit = np.where(live, 1.0, 0.0) / np.where(live, speed, 1.0)
        w = VectorField(g, v1 * unit, v2 * unit)
        w1x, w1y, w2x, w2y = _g.vector_gradient(w)
    else:
        dotx = v1 * v1x + v2 * v2x
        doty = v1 * v1y + v2 * v2y
        denom = np.where(live, speed, 1.0)
        grad_speed2 = (dotx ** 2 + doty ** 2) / denom2
        w1x = v1x / denom - v1 * dotx / (denom2 * denom)
        w1y = v1y / denom - v1 * doty / (denom2 * denom)
        w2x = v2x / denom - v2 * dotx / (denom2 * denom)
        w2y = v2y / denom - v2 * doty / (denom2 * denom)

    exprs = [grad_v2 - grad_speed2,
             speed2 * (w1x ** 2 + w1y ** 2 + w2x ** 2 + w2y ** 2),
             ((v1 * v2x - v2 * v1x) ** 2 + (v1 * v2y - v2 * v1y) ** 2) / denom2]
    if pgrads is not None:
        exprs.append((pgrads[0] ** 2 + pgrads[1] ** 2) / denom2)

    # the extreme pair attains the largest pairwise |difference|
    spread = reduce(np.maximum, exprs) - reduce(np.minimum, exprs)

    dead = g.pad(~live, False)
    spread[dead[1:-1, 1:-1] | dead[2:, 1:-1] | dead[:-2, 1:-1]
           | dead[1:-1, 2:] | dead[1:-1, :-2]] = 0.0
    return ScalarField(g, spread)


def boundary_trace_Jinf(flow, R_list):
    """Wall-trace route: -integral of phi_R |v1| dn(v2) along each wall.

    phi_R is the tent cutoff max(0, min(1, 2 - |x1|/R)) on strips and the
    logarithmic cutoff min(1, max(0, 2 - log|x1|/log R)) on half planes; dn
    is the outer normal derivative (one-sided second order).  The cutoff's
    taper is clipped at the truncated domain edge; values are reported per R
    as a sequence, convergence being the caller's question.
    """
    g = flow.grid
    if g.kind not in (STRIP, HALF_PLANE):
        raise GridError("wall trace needs a strip or half-plane grid")
    x = g.x_nodes()
    span = max(abs(g.x_range[0]), abs(g.x_range[1]))
    dn_all = _g.ddy(ScalarField(g, flow.velocity.vy))
    wx = _g.axis_weights(g.nx, g.hx, False)
    out = []
    for R in R_list:
        R = float(R)
        if R <= 0.0:
            raise ValueError("cutoff radius must be positive")
        if R > span:
            raise RTooLarge("plateau radius %g exceeds the domain half-width %g"
                            % (R, span))
        if g.kind == STRIP:
            phi = np.clip(2.0 - np.abs(x) / R, 0.0, 1.0)
        else:
            if R <= 1.0:
                raise RTooSmall("log cutoff needs R > 1, got %g" % R)
            with np.errstate(divide="ignore"):
                decay = 2.0 - np.log(np.abs(x)) / np.log(R)
            decay[np.abs(x) <= R] = 1.0
            phi = np.clip(decay, 0.0, 1.0)
        total = 0.0
        for j in g.wall_rows():
            dn = -dn_all[:, j] if j == 0 else dn_all[:, j]
            total += float(np.sum(wx * phi * np.abs(flow.velocity.vx[:, j]) * dn))
        out.append((R, -total))
    return out


class CurvatureProfile:
    """Curvature mass accumulated into equal-width angle bins."""

    def __init__(self, bin_mass):
        self.bin_mass = np.asarray(bin_mass, dtype=float)
        self.n_bins = len(self.bin_mass)
        self.total = float(self.bin_mass.sum())


def kappa_distribution(flow, n_bins: int = 64) -> CurvatureProfile:
    """Bin the curvature density by flow direction.

    Equal bin masses over an arc mean the angular curvature distribution is
    constant there; that is the discretization-robust reading of constancy
    claims, since each mass approximates the distribution integrated over one
    bin width.

    A node's mass belongs to an arc, not a point: the directions inside its
    cell span the stretch between the midpoints toward its two neighbors
    across the steepest-variation axis.  Nodes whose arc fits inside one bin
    (almost all of them) land in the bin of their own direction; a node
    whose cell sweeps wider than a bin spreads its mass uniformly over its
    arc, and the sub-cell band corrections of _bundle spread over
    the half circle centered on the node's direction, which is exactly the
    turn such a band makes.  Every spread is normalized to the node's full
    mass, so the profile total matches total_curvature to rounding.
    """
    if n_bins < 16:
        raise ValueError("need at least 16 bins")
    b = _bundle(flow)
    g = flow.grid
    live, ridge_mass, across_y = b.live, b.ridge_mass, b.across_y
    wq = _g.quadrature_weights(g)
    v = flow.velocity
    width = 2.0 * np.pi / n_bins

    theta = angle_from(np.stack([v.vx, v.vy], axis=-1))

    def wrap(a):
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    def voronoi_arc(axis):
        up = wrap(np.roll(theta, -1, axis) - theta)
        dn = wrap(np.roll(theta, 1, axis) - theta)
        if not g.periodic:
            edge = [slice(None), slice(None)]
            for j in (0, -1):
                edge[axis] = j
                up[tuple(edge)] = 0.0
                dn[tuple(edge)] = 0.0
        lo = np.minimum(up, dn) / 2.0
        hi = np.maximum(up, dn) / 2.0
        return np.clip(hi - lo, 0.0, np.pi), theta + (hi + lo) / 2.0

    span_y, center_y = voronoi_arc(1)
    span_x, center_x = voronoi_arc(0)
    span = np.where(across_y, span_y, span_x)
    center = np.where(across_y, center_y, center_x)

    node_mass = wq * b.dens
    point = live & (span <= width)
    wide = live & ~point
    idx = _bin_index(theta[point], n_bins)
    mass = np.bincount(idx, weights=node_mass[point], minlength=n_bins)

    ridge = ridge_mass > 0.0
    starts = np.concatenate([(center[wide] - 0.5 * span[wide]).ravel(),
                             (theta[ridge] - 0.5 * np.pi).ravel()])
    spans = np.concatenate([span[wide].ravel(),
                            np.full(int(ridge.sum()), np.pi)])
    amounts = np.concatenate([node_mass[wide].ravel(), ridge_mass[ridge].ravel()])
    if amounts.size:
        lo_edges = bin_centers(n_bins) - 0.5 * width
        # overlap of each bin with the arc [start, start + span], mod 2pi
        d = (lo_edges[None, :] - starts[:, None]) % (2.0 * np.pi)
        s = spans[:, None]
        overlap = (np.clip(s - d, 0.0, width)
                   + np.clip(np.minimum(d + width - 2.0 * np.pi, s), 0.0, width))
        share = overlap / overlap.sum(axis=1, keepdims=True)
        mass = mass + amounts @ share
    return CurvatureProfile(mass)


def semicircle_bins(n_bins: int):
    """(upper closed, lower closed, endpoint) bin index sets.

    Endpoints are the bins holding the directions (1,0) and (-1,0), shared
    by both closed semicircles.
    """
    theta = bin_centers(n_bins)
    s = np.sin(theta)
    upper = set(np.flatnonzero(s >= -1e-12))
    lower = set(np.flatnonzero(s <= 1e-12))
    return upper, lower, upper & lower


def _interior_bins(n_bins, sign):
    # bins whose full width lies strictly inside the open upper/lower arc
    theta = bin_centers(n_bins)
    half = np.pi / n_bins
    lo = sign * theta - half
    hi = sign * theta + half
    return np.flatnonzero((lo > 1e-12) & (hi < np.pi - 1e-12))


def semicircle_cv(profile: CurvatureProfile, side: str) -> float:
    """Coefficient of variation of bin masses strictly inside one open
    semicircle; 0 for an empty distribution."""
    idx = _interior_bins(profile.n_bins, 1.0 if side == "upper" else -1.0)
    vals = profile.bin_mass[idx]
    mean = float(vals.mean())
    if mean == 0.0:
        return 0.0
    return float(vals.std() / mean)


# ---------------------------------------------------------------------------
# classification


class Classification:
    def __init__(self, kind: str, beta=None, theta0=None):
        if kind not in VERDICTS:
            raise ValueError("unknown verdict %r" % (kind,))
        self.kind = kind
        self.beta = None if beta is None else float(beta)
        self.theta0 = None if theta0 is None else float(theta0)

    def __eq__(self, other):
        return isinstance(other, Classification) and (
            self.kind, self.beta, self.theta0
        ) == (other.kind, other.beta, other.theta0)

    def __repr__(self):
        if self.kind == "Arc":
            return "Arc(beta=%.6g, theta0=%.6g)" % (self.beta, self.theta0)
        return self.kind

    def to_dict(self):
        return {"kind": self.kind, "beta": self.beta, "theta0": self.theta0}


def classify(angle_set: AngleSet, total_curvature: float,
             tol_curv: float = 1e-8) -> Classification:
    """Verdict from angle occupancy, checked in order of specificity.

    Shear wins on vanishing curvature; FullCircle on total occupancy; the
    two semicircle verdicts next; a contiguous occupied arc is reported with
    its gap half-width beta and arc center theta0; anything else is
    Indeterminate.  A semicircle verdict lets each of the two endpoint bins
    be empty, since the axial directions are realized exactly on walls and
    stagnation rims where the floor may mute them.

    A single empty bin flanked by occupied neighbors is filled before any
    occupancy decision.  Node sampling cannot certify a gap narrower than
    its own angular step: where the direction field crosses a sampled value
    steeply (a symmetry ray hit exactly by grid nodes, say), the two
    adjacent one-bin slots may simply never be landed on, and treating such
    pinholes as genuine gaps would misreport an occupancy that every finer
    grid refills.  Gaps of two or more bins are always respected.
    """
    if total_curvature < tol_curv:
        return Classification("Shear")
    filled = angle_set.occupied | (np.roll(angle_set.occupied, 1)
                                   & np.roll(angle_set.occupied, -1))
    if filled.all():
        return Classification("FullCircle")
    occ = set(np.flatnonzero(filled))
    upper, lower, ends = semicircle_bins(angle_set.n_bins)
    if (upper - ends) <= occ <= upper:
        return Classification("TypeIIIUpper")
    if (lower - ends) <= occ <= lower:
        return Classification("TypeIIILower")
    # a gap starts at each empty bin that follows an occupied one
    empty = ~filled
    starts = np.flatnonzero(empty & ~np.roll(empty, 1))
    if len(starts) == 1:
        n = angle_set.n_bins
        length = int(empty.sum())
        w = 2.0 * np.pi / n
        beta = 0.5 * length * w
        center = (int(starts[0]) + length + (n - length - 1) / 2.0) % n
        theta0 = center * w - np.pi
        if theta0 <= -np.pi:
            theta0 += 2.0 * np.pi
        return Classification("Arc", beta=beta, theta0=theta0)
    return Classification("Indeterminate")


# ---------------------------------------------------------------------------
# wall limits and stability


def wall_limits(flow):
    """Far-field wall speeds, averaged over the outer columns of each wall.

    Returns {"bottom": (left, right), "top": (left, right)} means of v1 over
    the first and last ceil(0.1*nx) columns; "top" only on strips.
    Tail-averaging is justified by the uniform far-field convergence of the
    solved flows.
    """
    g = flow.grid
    if g.kind not in (STRIP, HALF_PLANE):
        raise GridError("wall limits need a strip or half-plane grid")
    m = max(1, int(np.ceil(0.1 * g.nx)))
    out = {}
    for j in g.wall_rows():
        row = flow.velocity.vx[:, j]
        name = "bottom" if j == 0 else "top"
        out[name] = (float(row[:m].mean()), float(row[-m:].mean()))
    return out


def stability_margin(flow, profile) -> float:
    """Vorticity-gradient margin of a strip flow against a shear profile s.

    Returns min s'' - max |d/dx2 (omega - omega_s)| with omega_s = -s'; a
    positive value certifies the rigidity hypothesis that forces the flow to
    be that shear.
    """
    g = flow.grid
    if g.kind != STRIP:
        raise NotAStripGrid("stability margins are defined on strip grids")
    if profile.n != g.ny or not np.allclose(profile.interval, g.y_range):
        raise ValueError("profile is sampled on a different transverse axis")
    s = profile.values
    omega_s = -_g._diff1(s, g.hy, 0, False)
    diff = flow.vorticity.values - omega_s[None, :]
    dd = _g.ddy(ScalarField(g, diff))
    return float(_g._diff2(s, g.hy, 0, False).min() - np.abs(dd).max())


# ---------------------------------------------------------------------------
# report


class DiagnosticsReport:
    def __init__(self, total_curvature, J_inf_signed, J_inf_trace, verdict,
                 kappa_cv_upper, kappa_cv_lower, identity_residual_max):
        self.total_curvature = float(total_curvature)
        self.J_inf_signed = float(J_inf_signed)
        self.J_inf_trace = [(float(r), float(v)) for r, v in J_inf_trace]
        self.verdict = verdict
        self.kappa_cv_upper = float(kappa_cv_upper)
        self.kappa_cv_lower = float(kappa_cv_lower)
        self.identity_residual_max = float(identity_residual_max)
        self.lower_bound_gap = (2.0 / np.pi) * self.total_curvature \
            - abs(self.J_inf_signed)
        # the AngleSet and CurvatureProfile behind the verdict and the CVs,
        # set by run_diagnostics for the artifact writers; not serialized
        self.angle_set = None
        self.kappa_profile = None

    def to_dict(self):
        return {
            "total_curvature": self.total_curvature,
            "J_inf_signed": self.J_inf_signed,
            "J_inf_trace": [list(p) for p in self.J_inf_trace],
            "lower_bound_gap": self.lower_bound_gap,
            "verdict": self.verdict.to_dict(),
            "kappa_cv_upper": self.kappa_cv_upper,
            "kappa_cv_lower": self.kappa_cv_lower,
            "identity_residual_max": self.identity_residual_max,
        }


def run_diagnostics(flow, R=None, bins: int = 360, kappa_bins: int = 64,
                    shear_tol: float = 1e-8):
    """Assemble the full report for one flow.

    R defaults to quarter points of the domain half-width on wall
    geometries and stays empty elsewhere (the trace route needs walls).
    The identity residual goes first: its velocity partials build the
    curvature bundle that the other diagnostics read.  A velocity so large
    that a diagnostic overflows the double range raises DiagnosticOverflow,
    naming the first quantity that is not finite, with no numpy warning on
    the way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        resid = curvature_identity_residual(flow)
        aset = angle_set(flow, n_bins=bins)
        tc = total_curvature(flow)
        j_signed = signed_curvature_integral(flow)
        if flow.grid.kind in (STRIP, HALF_PLANE):
            if R is None:
                span = max(abs(flow.grid.x_range[0]),
                           abs(flow.grid.x_range[1]))
                R = [0.25 * span, 0.5 * span, 0.75 * span]
            trace = boundary_trace_Jinf(flow, R)
        else:
            trace = []
        prof = kappa_distribution(flow, kappa_bins)
        interior = flow.grid.interior_mask()
        rep = DiagnosticsReport(
            total_curvature=tc,
            J_inf_signed=j_signed,
            J_inf_trace=trace,
            verdict=classify(aset, tc, tol_curv=shear_tol),
            kappa_cv_upper=semicircle_cv(prof, "upper"),
            kappa_cv_lower=semicircle_cv(prof, "lower"),
            identity_residual_max=float(resid.values[interior].max()),
        )
    rep.angle_set = aset
    rep.kappa_profile = prof
    numbers = dict(rep.to_dict(), angle_set=aset.mass,
                   curvature_profile=prof.bin_mass)
    del numbers["verdict"]
    for name, value in numbers.items():
        if not np.all(np.isfinite(value)):
            raise DiagnosticOverflow(
                "%s overflows the double range: the velocity is too large "
                "for the diagnostics" % name)
    return rep


def save_report(report: DiagnosticsReport, path, extra=None) -> None:
    env = {"schema_version": _ser.SCHEMA_VERSION, **report.to_dict()}
    if extra:
        env.update(extra)
    _ser.write_json(env, path)


def save_angle_set(aset: AngleSet, path) -> None:
    _ser.write_csv(path, ["bin_center", "mass", "occupied"],
                   [bin_centers(aset.n_bins), aset.mass,
                    aset.occupied.astype(int)])


def save_curvature_profile(prof: CurvatureProfile, path) -> None:
    _ser.write_csv(path, ["bin_center", "mass", "occupied"],
                   [bin_centers(prof.n_bins), prof.bin_mass,
                    (prof.bin_mass > 0.0).astype(int)])
