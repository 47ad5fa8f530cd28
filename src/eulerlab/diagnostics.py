"""Flow-angle sets, curvature integrals, wall-trace functionals, and the
classification verdicts built from them.

Angle bins use a round-to-center convention: bin b of n covers the angles
within half a width of b*(2pi/n) - pi, so the cardinal directions sit at bin
centers instead of edges and finite-difference jitter around an exact
direction cannot flip occupancy.  Bin 0 straddles the seam at +-pi.  A
semicircle is the bins its directions land in, so at every bin count both
closed semicircles hold the bins of (1, 0) and (-1, 0).  The occupied bins
are the flow angles of a continuous direction field: each node faster than
the stagnation floor occupies its own bin, and each pair of such nodes that
are neighbours along an axis and turn by at most pi/2 (v . v' >= 0)
occupies every bin on the shorter way between theirs, since the field
sweeps that arc between them.  A wider turn is a fold that one cell cannot
resolve, so its pair adds nothing.

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
residual first, differences the velocity once.  Neighbour tests wrap on
the torus, and nothing lies beyond a bounded edge.

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
from .grid import GridError, ScalarField, VectorField, STRIP


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

# at 2 bins the strip reads FullCircle and at 3 the counterexample does, so
# every bin count has this floor: it keeps a half circle many bins wide
MIN_BINS = 16


# ---------------------------------------------------------------------------
# angles


def _angle(u1, u2, speed=None):
    """Angle of the vectors (u1, u2) from e1, elementwise, in (-pi, pi]:
    sgn(u2) * arccos(u1 / |u|), the zero vector mapped to 0 and the antipode
    (u2 = 0, u1 < 0) to +pi.  Built in place in one fresh array: a copy of
    ``speed``, the caller's |u| = np.hypot(u1, u2), or |u| formed here."""
    out = np.hypot(u1, u2) if speed is None else speed.copy()
    moving = out > 0.0
    np.divide(u1, out, out=out, where=moving)
    np.clip(out, -1.0, 1.0, out=out)
    np.arccos(out, out=out)
    np.negative(out, out=out, where=u2 < 0.0)
    np.copyto(out, 0.0, where=~moving)
    return out


def _bin_index(theta, n_bins):
    # round-to-center: cardinal angles land mid-bin; int32 while twice the
    # bin count fits, so angle_set's arc ends never overflow
    w = 2.0 * np.pi / n_bins
    b = np.add(theta, np.pi)
    b /= w
    np.round(b, out=b)
    idx = b.astype(np.int32 if n_bins < 2 ** 30 else np.int64)
    idx %= n_bins
    return idx


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


_Bundle = namedtuple("_Bundle", "velocity floor mass live ridge_mass across_y")


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
    x2.  Both arrays are per-node curvature masses, trapezoid weights
    included, so every reading sums them: ``mass`` is the pointwise density
    |v1 grad v2 - v2 grad v1|^2 / |v|^2 on ``live`` nodes (zero elsewhere)
    times the node's weight; ``ridge_mass`` is a sub-cell band correction,
    zero off a small exceptional set.

    A node is censored from ``mass`` when |v| <= h_n |grad v| with h_n the
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

    The arrays are built in place (``out=``) and dropped after their last
    use, so few full-grid arrays are alive at once.  Each elementwise ufunc
    takes the same operands in the same order as the plain expression
    (x ** 2 is np.square, a masked np.copyto is np.where), so every bit is
    the same.  The neighbour test keeps only the sign of the dot on the
    steepest axis, one axis at a time.
    """
    g = flow.grid
    v = flow.velocity
    v1x, v1y, v2x, v2y = grads
    gx2, gy2, g2, g2max = _gradient_norms2(grads)
    floor = _diagnostics_floor(_cell_speed(g, g2max))
    # gy2 >= gx2 - 1e-9 g2max
    across_y = gy2 >= np.subtract(gx2, 1e-9 * g2max, out=gx2)
    across_x = ~across_y
    del gx2, gy2
    band = np.sqrt(g2, out=g2)  # hn |grad v|, hn the spacing across the band
    np.multiply(g.hy, band, out=band, where=across_y)
    np.multiply(g.hx, band, out=band, where=across_x)
    speed2 = np.square(v.vx)
    speed2 += np.square(v.vy)
    speed = np.sqrt(speed2)
    moving = speed > floor
    censored = moving & (speed <= band)
    del speed, band, g2
    live = moving & ~censored
    dead = ~live
    # v(node+h) . v(node-h) < 0 across the band
    opposed = _opposed_neighbours(v, 0, g.periodic)
    np.copyto(opposed, _opposed_neighbours(v, 1, g.periodic), where=across_y)
    ridge = censored & opposed
    del opposed, censored
    # cx, cy = v1 grad v2 - v2 grad v1
    cx = np.multiply(v.vx, v2x)
    cx -= np.multiply(v.vy, v1x)
    cy = np.multiply(v.vx, v2y)
    cy -= np.multiply(v.vy, v1y)
    ridge_mass = np.hypot(cx, cy)
    mass = np.square(cx, out=cx)
    mass += np.square(cy, out=cy)
    del cy
    np.divide(mass, speed2, out=mass, where=live)
    np.copyto(mass, 0.0, where=dead)
    del speed2, dead
    weights = _g.quadrature_weights(g)
    mass *= weights
    np.multiply(np.pi, ridge_mass, out=ridge_mass)
    ridge_mass *= weights
    del weights
    np.divide(ridge_mass, g.hy, out=ridge_mass, where=across_y)
    np.divide(ridge_mass, g.hx, out=ridge_mass, where=across_x)
    np.copyto(ridge_mass, 0.0, where=~ridge)
    return _Bundle(v, floor, mass, live, ridge_mass, across_y)


def _pairwise(op, a, axis, offset, periodic):
    """op(a[k + offset], a[k]) along ``axis`` for each pair of nodes
    ``offset`` apart, axis first: pair k for k < n - offset, then on the
    torus the ``offset`` pairs that wrap, with a[k + offset - n].  Beyond a
    bounded edge nothing lies, so it has no pair there.  The result is laid
    out as ``a`` is, so every operand steps alike."""
    n = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = n if periodic else n - offset
    out = np.moveaxis(np.empty(shape, a.dtype), axis, 0)
    a = np.moveaxis(a, axis, 0)
    op(a[offset:], a[:n - offset], out=out[:n - offset])
    if periodic:
        op(a[:offset], a[n - offset:], out=out[n - offset:])
    return out


def _neighbour_dot(v: VectorField, axis, offset, periodic) -> np.ndarray:
    """v(k + offset) . v(k) along ``axis``, one entry per pair of
    :func:`_pairwise`."""
    dot = _pairwise(np.multiply, v.vx, axis, offset, periodic)
    dot += _pairwise(np.multiply, v.vy, axis, offset, periodic)
    return dot


def _opposed_neighbours(v: VectorField, axis: int, periodic: bool) -> np.ndarray:
    """v(node+h) . v(node-h) < 0 along ``axis``.  Beyond a bounded edge
    nothing lies, so an end node has no opposed pair; the torus wraps."""
    less = _neighbour_dot(v, axis, 2, periodic) < 0.0
    opposed = np.zeros(v.vx.shape, dtype=bool)
    # the pair (k, k + 2) is centred on node k + 1
    if periodic:
        np.moveaxis(opposed, axis, 0)[...] = np.roll(less, 1, axis=0)
    else:
        np.moveaxis(opposed, axis, 0)[1:-1] = less
    return opposed


class AngleSet:
    """|v|-weighted mass of flow directions over angle bins, and the bins
    that the direction field occupies."""

    def __init__(self, mass, occupied, stagnation_threshold):
        self.mass = np.asarray(mass, dtype=float)
        self.n_bins = len(self.mass)
        self.occupied = np.asarray(occupied, dtype=bool)
        self.stagnation_threshold = float(stagnation_threshold)


def angle_set(flow, n_bins: int = 360) -> AngleSet:
    """Bin the directions _angle(vx, vy) of all nodes faster than the
    stagnation floor, read off the flow's curvature bundle (the same bits
    as :func:`stagnation_floor`): ``mass`` sums their |v| per bin, and the
    occupied bins are those of the module's rule for a continuous direction
    field.  A turn of at most pi/2 spans at most n/4 + 1 bins, so the
    shorter way round is never in doubt.  Only pairs two or more bins apart
    add a bin; their arcs are marked with one difference array over twice
    the bins, folded onto the circle.
    """
    if n_bins < MIN_BINS:
        raise ValueError("need at least %d bins" % MIN_BINS)
    periodic = flow.grid.periodic
    threshold = _bundle(flow).floor
    v = flow.velocity
    speed = np.hypot(v.vx, v.vy)
    live = speed > threshold
    idx = _bin_index(_angle(v.vx, v.vy, speed), n_bins)
    mass = np.bincount(idx[live], weights=speed[live], minlength=n_bins)
    del speed
    edges = np.zeros(2 * n_bins, dtype=np.intp)
    for axis in (0, 1):
        swept = _neighbour_dot(v, axis, 1, periodic) >= 0.0
        swept &= _pairwise(np.logical_and, live, axis, 1, periodic)
        # the bin step from k to k + 1, in (-n, n); a pair one bin apart,
        # either way round, adds no bin
        step = _pairwise(np.subtract, idx, axis, 1, periodic)
        far = np.abs(step)
        swept &= (far >= 2) & (far <= n_bins - 2)
        del far
        first = np.moveaxis(idx, axis, 0)[:len(step)][swept]
        step = step[swept]
        del swept
        # the shorter way round, in [-n/2, n/2)
        step += n_bins // 2
        step %= n_bins
        step -= n_bins // 2
        # the arc lo .. hi, lo in [0, n) and hi < 3n/2; mark lo + 1 .. hi - 1
        lo = first + np.minimum(step, 0)
        lo %= n_bins
        hi = lo + np.abs(step)
        edges += np.bincount(lo + 1, minlength=2 * n_bins)
        edges -= np.bincount(hi, minlength=2 * n_bins)
    depth = np.cumsum(edges)
    occupied = (mass > 0.0) | (depth[:n_bins] + depth[n_bins:] > 0)
    return AngleSet(mass, occupied, threshold)


# ---------------------------------------------------------------------------
# curvature integrals


def total_curvature(flow) -> float:
    """Curvature density integrated over the grid, sub-cell bands included."""
    b = _bundle(flow)
    return float(b.mass.sum()) + float(b.ridge_mass.sum())


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
    return 2.0 / np.pi * (float((sgn * b.mass).sum())
                          + float((sgn * b.ridge_mass).sum()))


def curvature_identity_residual(flow,
                                speed_fraction: float = 0.05) -> ScalarField:
    """Nodewise spread of equivalent curvature densities by finite differences.

    Compares |grad v|^2 - |grad |v||^2, |v|^2 |grad(v/|v|)|^2,
    |v1 grad v2 - v2 grad v1|^2/|v|^2, and (with pressure) |grad P|^2/|v|^2;
    returns the max pairwise discrepancy.

    The comparison is masked where |v| <= speed_fraction times the peak
    speed (and one node beyond): every expression divides by a power of
    |v|, so the finite-difference error grows without bound as the
    stagnation set is approached, and only a floor that does not shrink
    with the mesh leaves a max that refines at second order.
    :func:`closed_form_identity_residual` forms the same expressions from a
    catalog flow's closed-form derivatives.

    The expressions are folded one at a time, in the order listed, into a
    running max and min with ``out=`` and then dropped: the same operands in
    the same order as reduce(np.maximum) and reduce(np.minimum) over the
    list, so even signed zeros keep their bits, with at most two expressions
    alive instead of four.  The third is formed before the second, in the
    buffers of the velocity partials after their last read, so the unit
    field, differenced one component and one axis at a time, never meets
    them.  Divisions by |v|^2 skip the nodes off the live set, where the
    quotient by 1 would leave the numerator as it is.
    """
    grads = _g.vector_gradient(flow.velocity)
    floor = _bundle(flow, grads).floor
    g = flow.grid
    v1, v2 = flow.velocity.vx, flow.velocity.vy
    v1x, v1y, v2x, v2y = grads
    del grads

    speed2 = np.square(v1)
    speed2 += np.square(v2)
    speed = np.sqrt(speed2)
    floor = max(floor, speed_fraction * float(speed.max()))
    live = speed > floor

    # |grad |v||^2 and the partials of the unit vector field v/|v|
    speed_field = ScalarField(g, speed)
    grad_speed2, gsy = _g.ddx(speed_field), _g.ddy(speed_field)
    # a gradient field's checks, on buffers left writable for the squares
    _g._check_finite(grad_speed2)
    _g._check_finite(gsy)
    np.square(grad_speed2, out=grad_speed2)
    grad_speed2 += np.square(gsy, out=gsy)
    del gsy, speed_field
    # 1/|v| on the live set and 0 off it
    unit = np.divide(1.0, speed, out=np.zeros_like(speed), where=live)
    del speed
    unit_partials = _unit_partials(g, v1, v2, unit)
    del unit

    # the extreme pair attains the largest pairwise |difference|
    # |grad v|^2 - |grad |v||^2 starts the running max (hi) and min (lo)
    hi = np.square(v1x)
    hi += np.square(v1y)
    hi += np.square(v2x)
    hi += np.square(v2y)
    hi -= grad_speed2
    lo = grad_speed2  # its buffer, no longer read, holds the running min
    lo[...] = hi
    del grad_speed2

    def fold(e):
        np.maximum(hi, e, out=hi)
        np.minimum(lo, e, out=lo)

    # |v1 grad v2 - v2 grad v1|^2 / |v|^2, formed now in the buffers of the
    # velocity partials, whose last read this is, and folded third; off the
    # live set x / 1 is x, so the division skips it
    cross = np.multiply(v1, v2x, out=v2x)
    cross -= np.multiply(v2, v1x, out=v1x)
    np.square(cross, out=cross)
    cy = np.multiply(v1, v2y, out=v2y)
    cy -= np.multiply(v2, v1y, out=v1y)
    cross += np.square(cy, out=cy)
    del cy, v1x, v1y, v2x, v2y
    np.divide(cross, speed2, out=cross, where=live)

    # |v|^2 |grad(v/|v|)|^2, summed in the buffer of the first unit partial
    e = None
    for part in unit_partials:
        np.square(part, out=part)
        e = part if e is None else np.add(e, part, out=e)
        del part
    del unit_partials
    np.multiply(speed2, e, out=e)
    fold(e)
    del e
    fold(cross)
    del cross

    # |grad P|^2 / |v|^2
    if flow.pressure is not None:
        pg = _g.gradient(flow.pressure)
        e = np.square(pg.vx)
        e += np.square(pg.vy)
        np.divide(e, speed2, out=e, where=live)
        fold(e)

    return _stagnation_halo(g, live, np.subtract(hi, lo, out=hi))


def closed_form_identity_residual(flow) -> ScalarField:
    """:func:`curvature_identity_residual` from a catalog flow's closed-form
    derivatives: the identity is exact algebra, so only the stagnation floor
    (and one node beyond) is masked."""
    if flow.closed_form is None:
        raise ValueError("flow carries no closed-form evaluators")
    floor = _bundle(flow).floor
    X, Y = flow.grid.mesh()
    v1, v2, v1x, v1y, v2x, v2y, p1, p2 = (
        flow.closed_form[name](X, Y) for name in
        ("v1", "v2", "v1_x", "v1_y", "v2_x", "v2_y", "P_x", "P_y"))
    speed2 = v1 ** 2 + v2 ** 2
    speed = np.sqrt(speed2)
    live = speed > floor
    denom = np.where(live, speed, 1.0)
    denom2 = np.where(live, speed2, 1.0)
    dotx = v1 * v1x + v2 * v2x
    doty = v1 * v1y + v2 * v2y
    grad_speed2 = (dotx ** 2 + doty ** 2) / denom2
    w1x = v1x / denom - v1 * dotx / (denom2 * denom)
    w1y = v1y / denom - v1 * doty / (denom2 * denom)
    w2x = v2x / denom - v2 * dotx / (denom2 * denom)
    w2y = v2y / denom - v2 * doty / (denom2 * denom)
    exprs = [v1x ** 2 + v1y ** 2 + v2x ** 2 + v2y ** 2 - grad_speed2,
             speed2 * (w1x ** 2 + w1y ** 2 + w2x ** 2 + w2y ** 2),
             ((v1 * v2x - v2 * v1x) ** 2 + (v1 * v2y - v2 * v1y) ** 2) / denom2,
             (p1 ** 2 + p2 ** 2) / denom2]
    spread = reduce(np.maximum, exprs) - reduce(np.minimum, exprs)
    return _stagnation_halo(flow.grid, live, spread)


def _stagnation_halo(g, live, spread) -> ScalarField:
    """``spread`` zeroed off the live set and one node beyond."""
    dead = g.pad(~live, False)
    spread[dead[1:-1, 1:-1] | dead[2:, 1:-1] | dead[:-2, 1:-1]
           | dead[1:-1, 2:] | dead[1:-1, :-2]] = 0.0
    return ScalarField(g, spread)


def _unit_partials(g, v1, v2, unit):
    """The partials w1_x, w1_y, w2_x, w2_y of the unit field w = v * unit,
    one component and one axis at a time."""
    w = np.empty_like(unit)
    for v in (v1, v2):
        np.multiply(v, unit, out=w)
        yield _g._diff1(w, g.hx, 0, g.periodic)
        yield _g._diff1(w, g.hy, 1, g.periodic)


def boundary_trace_Jinf(flow, R_list):
    """Wall-trace route: -integral of phi_R |v1| dn(v2) along each wall.

    phi_R is the tent cutoff max(0, min(1, 2 - |x1|/R)) on strips and the
    logarithmic cutoff min(1, max(0, 2 - log|x1|/log R)) on half planes; dn
    is the outer normal derivative (one-sided second order).  The cutoff's
    taper is clipped at the truncated domain edge; values are reported per R
    as a sequence, convergence being the caller's question.
    """
    g = flow.grid
    if not g.wall_rows():
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

    The arcs are formed one axis at a time, folded in place and merged with
    a masked copy, so few full-grid arrays are alive at once; each ufunc
    takes the operands of the plain expression, so every bit is the same.
    """
    if n_bins < MIN_BINS:
        raise ValueError("need at least %d bins" % MIN_BINS)
    b = _bundle(flow)
    g = flow.grid
    live, ridge_mass, across_y = b.live, b.ridge_mass, b.across_y
    v = flow.velocity
    width = 2.0 * np.pi / n_bins

    theta = _angle(v.vx, v.vy)
    # the arc across the steepest axis: y's, then x's merged in off across_y
    span, center = _voronoi_arc(theta, 1, g.periodic)
    span_x, center_x = _voronoi_arc(theta, 0, g.periodic)
    across_x = ~across_y
    np.copyto(span, span_x, where=across_x)
    np.copyto(center, center_x, where=across_x)
    del span_x, center_x, across_x

    point = live & (span <= width)
    wide = live & ~point
    idx = _bin_index(theta[point], n_bins)
    mass = np.bincount(idx, weights=b.mass[point], minlength=n_bins)
    del idx, point

    ridge = ridge_mass > 0.0
    starts = np.concatenate([(center[wide] - 0.5 * span[wide]).ravel(),
                             (theta[ridge] - 0.5 * np.pi).ravel()])
    spans = np.concatenate([span[wide].ravel(),
                            np.full(int(ridge.sum()), np.pi)])
    amounts = np.concatenate([b.mass[wide].ravel(), ridge_mass[ridge].ravel()])
    del theta, span, center, wide, ridge
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


def _voronoi_arc(theta, axis, periodic):
    """Span and center of each node's arc of directions across ``axis``:
    the stretch between the midpoints of the wrapped turns toward its two
    neighbours, which a bounded edge node does not have on its edge side."""
    up, dn = np.empty_like(theta), np.empty_like(theta)
    t, u, d = (np.moveaxis(a, axis, 0) for a in (theta, up, dn))
    # theta[i+1] - theta[i] and theta[i-1] - theta[i], written by slices
    np.subtract(t[1:], t[:-1], out=u[:-1])
    np.subtract(t[:-1], t[1:], out=d[1:])
    np.subtract(t[:1], t[-1:], out=u[-1:])
    np.subtract(t[-1:], t[:1], out=d[:1])
    for a in (up, dn):  # wrap into [-pi, pi)
        a += np.pi
        np.remainder(a, 2.0 * np.pi, out=a)
        a -= np.pi
    if not periodic:
        for a in (u, d):
            a[0] = a[-1] = 0.0
    lo = np.minimum(up, dn)
    hi = np.maximum(up, dn, out=up)
    lo /= 2.0
    hi /= 2.0
    span = np.subtract(hi, lo, out=dn)
    np.clip(span, 0.0, np.pi, out=span)
    center = np.add(hi, lo, out=hi)
    center /= 2.0
    np.add(theta, center, out=center)
    return span, center


def semicircle_bins(n_bins: int):
    """The closed upper and lower semicircles as boolean masks over the bins.

    A semicircle is the bins its directions land in.  (-1, 0) lands in bin 0
    and (1, 0) in bin m = _bin_index(0, n), and the binning is monotone in
    the angle, so the closed upper semicircle is bins m .. n-1 and 0 and the
    closed lower one bins 0 .. m.  Both hold the two bins 0 and m of the
    axis directions, and each open semicircle is one mask minus the other.
    """
    m = int(_bin_index(np.zeros(1), n_bins)[0])
    b = np.arange(n_bins)
    upper = b >= m
    upper[0] = True
    return upper, b <= m


def semicircle_cv(profile: CurvatureProfile, side: str) -> float:
    """Coefficient of variation of the bin masses of one open semicircle,
    the bins that only its own directions land in; 0 for an empty
    distribution."""
    upper, lower = semicircle_bins(profile.n_bins)
    vals = profile.bin_mass[upper & ~lower if side == "upper"
                            else lower & ~upper]
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
    two semicircle verdicts next, each when the occupied bins are exactly
    the bins that closed semicircle's directions land in (semicircle_bins),
    both axis bins included; a contiguous occupied arc is reported with its
    gap half-width beta and arc center theta0; anything else is
    Indeterminate.
    """
    if total_curvature < tol_curv:
        return Classification("Shear")
    occupied = angle_set.occupied
    if occupied.all():
        return Classification("FullCircle")
    upper, lower = semicircle_bins(angle_set.n_bins)
    if np.array_equal(occupied, upper):
        return Classification("TypeIIIUpper")
    if np.array_equal(occupied, lower):
        return Classification("TypeIIILower")
    # a gap starts at each empty bin that follows an occupied one
    empty = ~occupied
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
    if not g.wall_rows():
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
        # the report keeps one interior max of the residual field, so the
        # field is freed before the other diagnostics run
        resid_max = float(curvature_identity_residual(flow).values[
            flow.grid.interior_mask()].max())
        aset = angle_set(flow, n_bins=bins)
        tc = total_curvature(flow)
        j_signed = signed_curvature_integral(flow)
        if flow.grid.wall_rows():
            if R is None:
                span = max(abs(flow.grid.x_range[0]),
                           abs(flow.grid.x_range[1]))
                R = [0.25 * span, 0.5 * span, 0.75 * span]
            trace = boundary_trace_Jinf(flow, R)
        else:
            trace = []
        prof = kappa_distribution(flow, kappa_bins)
        rep = DiagnosticsReport(
            total_curvature=tc,
            J_inf_signed=j_signed,
            J_inf_trace=trace,
            verdict=classify(aset, tc, tol_curv=shear_tol),
            kappa_cv_upper=semicircle_cv(prof, "upper"),
            kappa_cv_lower=semicircle_cv(prof, "lower"),
            identity_residual_max=resid_max,
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
