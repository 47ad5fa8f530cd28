"""Monotone solver for -Lap(u) = f(u) on rectangles with Dirichlet data.

``solve_semilinear(nl, dirichlet, sub, sup)`` is the one entry point, on
plain arguments: the reaction term, the Dirichlet ring, and the sandwich
sub <= sup as two fields whose grid is the problem's grid.  The shift is
derived from them: the monotone bound -min f' on the sandwich range plus a
margin (:func:`oned.picard_shift`), which makes the iteration monotone
(Sattinger 1972); a larger shift would only slow it.  It runs the sweep
engine and the linear solve of :mod:`eulerlab.oned`: sweeps of
(-Lap + shift) u_next = f(u) + shift*u from one verified side of the
sandwich towards the other, each linear system solved directly by a DST-I
pair of transforms, which diagonalizes the shifted 5-point Laplacian.  The
sweeps converge linearly, so the engine extrapolates along the last step
once the step ratio settles, and keeps the jump only where the same
one-sided stencil and ring check that certified the start certifies it as
a new start (Sattinger's monotone iteration restarted from a better
subsolution, or supersolution when descending); ``SolveReport.iterations``
still counts plain sweeps.

Two flow constructions sit on top, each the owner of its nonlinearity and
of its reference parameters (the keyword defaults):

* ``solve_type3_strip`` builds the transversally pinned strip flow of the
  arctan family: solve on the half strip (0, L) x (-1, 1) with the 1D
  transverse profile as far-field data, then extend oddly through x1 = 0.
* ``solve_saddle_quadrant`` builds the half-plane saddle of the Allen-Cahn
  term: solve on the quadrant (0, L)^2, a half-plane grid with its wall at
  x2 = 0, with heteroclinic traces on the far sides, then extend oddly in
  x1.

Both reuse the 1D solutions on the same node set, which makes the constant
extension (strip) and min construction (quadrant) exact discrete
supersolutions rather than approximate ones, and both descend from them
over the zero field, a subsolution for every ring they build.  Both
return (field, flow, SolveReport): the stream function on the full domain,
the flow it carries (pressure included), and the report of the 2D solve.
"""

from __future__ import annotations

import numpy as np

from . import flows, oned
from .grid import Grid, GridError, ScalarField, STRIP, HALF_PLANE


NonConvergence = oned.NonConvergence


class NotASubsolution(ValueError):
    pass


class NotASupersolution(ValueError):
    pass


class SolveReport:
    """What a solve measured: plain sweeps (each one DST pair), final defect
    and final update, the accepted and rejected rate extrapolations, and the
    last settled update ratio (None if it never settled)."""

    def __init__(self, iterations, final_residual, final_update,
                 extrapolations_accepted, extrapolations_rejected,
                 settled_rate):
        self.iterations = int(iterations)
        self.final_residual = float(final_residual)
        self.final_update = float(final_update)
        self.extrapolations_accepted = int(extrapolations_accepted)
        self.extrapolations_rejected = int(extrapolations_rejected)
        self.settled_rate = (None if settled_rate is None
                             else float(settled_rate))
        # the 1D profile or heteroclinic a flow construction solved for its
        # far-field data, kept for the attachment check; not serialized
        self.profile = None

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "final_update": self.final_update,
            "extrapolations_accepted": self.extrapolations_accepted,
            "extrapolations_rejected": self.extrapolations_rejected,
            "settled_rate": self.settled_rate,
        }


def dirichlet_ring(grid: Grid, right=0.0, top=0.0):
    """The (nx, ny) Dirichlet array: zero on the left (x1 = 0) and bottom
    edges, ``right`` and ``top`` (scalars or 1D arrays along the edge) on
    the other two, the right edge winning at the corner they share."""
    d = np.zeros((grid.nx, grid.ny))
    d[:, -1] = top
    d[-1, :] = right
    return d


# ---------------------------------------------------------------------------
# sub/supersolutions


def _stencil_slack(grid: Grid, shift: float, scale: float) -> float:
    # roundoff bound for evaluating the shifted 5-point stencil on values
    # of size `scale`; sub/supersolution margins below this are noise
    weight = 4.0 / grid.hx ** 2 + 4.0 / grid.hy ** 2 + shift
    return 64.0 * np.finfo(float).eps * weight * max(scale, 1.0)


def _check_one_sided(nl, dirichlet, shift, g, v, kind):
    """Raise NotASubsolution (kind "sub") or NotASupersolution unless the
    values ``v`` on grid ``g`` satisfy the stencil inequality inside and
    the Dirichlet inequality on the ring, up to roundoff slack."""
    scale = float(np.max(np.abs(v)))
    slack = _stencil_slack(g, shift, scale) + 1e-10 * (1.0 + scale)
    defect = oned._defect(v, (g.hx, g.hy), nl.f)
    # v - dirichlet on the four edges of the ring, the only nodes it reads
    ring_gap = [v[e] - dirichlet[e]
                for e in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1])]
    if kind == "sub":
        worst = float(defect.max())
        if worst > slack:
            raise NotASubsolution(
                "-Lap_h(s) - f(s) reaches %.3e > 0 at an interior node" % worst)
        edge = max(float(gap.max()) for gap in ring_gap)
        if edge > slack:
            raise NotASubsolution(
                "subsolution exceeds the Dirichlet data by %.3e on the ring" % edge)
    else:
        worst = float(defect.min())
        if worst < -slack:
            raise NotASupersolution(
                "-Lap_h(S) - f(S) reaches %.3e < 0 at an interior node" % worst)
        edge = min(float(gap.min()) for gap in ring_gap)
        if edge < -slack:
            raise NotASupersolution(
                "supersolution undercuts the Dirichlet data by %.3e on the ring" % edge)


# ---------------------------------------------------------------------------
# monotone iteration


def solve_semilinear(nl: oned.Nonlinearity, dirichlet, sub: ScalarField,
                     sup: ScalarField, start: str = "sub", tol: float = 1e-8):
    """Monotone fixed point of (-Lap_h + shift) u_next = f(u) + shift*u.

    The grid is read off ``sub``, which must be a non-periodic rectangle;
    ``dirichlet`` is an (nx, ny) array whose boundary ring carries the data
    (interior entries are ignored; h^2 and 4/h^2 must be positive and
    finite, else GridError).  ``sub <= sup`` is the sandwich: both sides are
    verified against the stencil and the ring before any sweep runs, the
    ``start`` side ("sub" ascends, "super" descends) first, and every
    iterate must stay between them, for at most ``oned.SWEEPS_2D`` sweeps.
    Returns (solution, SolveReport).
    """
    if start not in ("sub", "super"):
        raise ValueError("start must be 'sub' or 'super'")
    ascending = start == "sub"
    g = sub.grid
    if g.periodic:
        raise GridError("Dirichlet problems need a non-periodic grid")
    if sup.grid != g:
        raise GridError("sub and super fields live on different grids")
    dirichlet = np.asarray(dirichlet, dtype=float)
    if dirichlet.shape != (g.nx, g.ny):
        raise ValueError("dirichlet array must cover the full grid ring")
    if not np.all(np.isfinite(dirichlet)):
        raise ValueError("dirichlet data must be finite")
    smax = max(float(np.max(np.abs(sub.values))),
               float(np.max(np.abs(sup.values))))
    shift = oned.picard_shift(nl, smax)
    # before the one-sided checks, whose stencil slack also divides by h^2
    spacings = (g.hx, g.hy)
    solver = oned._DirichletSolver(g.shape, spacings, shift)
    first, second = (sub, sup) if ascending else (sup, sub)
    _check_one_sided(nl, dirichlet, shift, g, first.values, start)
    _check_one_sided(nl, dirichlet, shift, g, second.values,
                     "super" if ascending else "sub")
    if float((sup.values - sub.values).min()) < -1e-12:
        raise ValueError("sandwich ordering sub <= super fails pointwise")

    def sweep(u, out):
        # f(u) + shift*u, formed in the solver's buffer every sweep reuses
        rhs = np.multiply(shift, u[1:-1, 1:-1], out=solver.rhs_buffer())
        rhs += nl.f(u[1:-1, 1:-1])
        return solver.solve(rhs, dirichlet, out)

    res = np.inf

    def done(u, update):
        # the defect costs a stencil pass and an f evaluation, so it is
        # measured only once the update has passed
        nonlocal res
        if update >= tol:
            return False
        res = float(np.max(np.abs(oned._defect(u, spacings, nl.f))))
        return res < tol

    def certify(v):
        # an extrapolated iterate must be a start of the same iteration
        try:
            _check_one_sided(nl, dirichlet, shift, g, v, start)
        except (NotASubsolution, NotASupersolution):
            return False
        return True

    # the engine never writes into the start it is given, so the frozen
    # start field needs no copy
    run = oned._monotone_sweeps(
        sweep, first.values, sub.values, sup.values, ascending, done,
        oned.SWEEPS_2D, 1e-10 * (1.0 + smax), certify=certify)
    return ScalarField(g, run.u), SolveReport(
        run.sweeps, res, run.update, run.accepted, run.rejected, run.rate)


# ---------------------------------------------------------------------------
# flow constructions


def solve_type3_strip(lam: float = 4.0, L: float = 12.0, nx: int = 769,
                      ny: int = 129, tol: float = 1e-8,
                      far_field: str = "profile"):
    """The transversally pinned strip flow of f = lam*arctan on (-L, L) x (-1, 1).

    Solves on the half strip (0, L) x (-1, 1) with zero data on x1 = 0 and the
    walls, far-field data at x1 = L from the 1D transverse profile (or zero
    with far_field="zero", the exhaustion variant), then odd-extends through
    x1 = 0.  The transverse profile is solved on the same ny-node grid, so
    its constant extension is an exact discrete supersolution, and the
    sweeps descend from it over the zero field.  Returns (field, flow,
    SolveReport); the report carries the profile as ``profile``.

    nx must be odd so that x1 = 0 is a node column.
    """
    nl = oned.arctan_family(lam)
    nx = int(nx)
    ny = int(ny)
    if nx % 2 == 0:
        raise ValueError("nx must be odd so x1=0 is a node column")
    if far_field not in ("profile", "zero"):
        raise ValueError("far_field must be 'profile' or 'zero'")
    L = float(L)
    mx = (nx + 1) // 2
    half = Grid(STRIP, mx, ny, (0.0, L), (-1.0, 1.0))

    profile = oned.solve_strip_profile(nl, ny, tol=min(1e-10, tol))
    supersol = ScalarField(half, np.tile(profile.values, (mx, 1)))
    ring = dirichlet_ring(
        half, right=profile.values if far_field == "profile" else 0.0)
    # f(0) = 0 and nonnegative ring data make the zero field a subsolution
    sub = ScalarField(half, np.zeros(half.shape))
    u_half, report = solve_semilinear(nl, ring, sub, supersol, "super",
                                      tol=tol)
    report.profile = profile
    field = flows.odd_extend_x1(u_half)
    return field, flows.velocity_from_stream(field, nl), report


def solve_saddle_quadrant(L: float = 20.0, n: int = 321, tol: float = 1e-8):
    """The half-plane saddle of f = s - s^3 on (-L, L) x (0, L).

    Solves on the quadrant (0, L)^2, built as a half-plane grid (its wall
    row is x2 = 0), with zero data on both axes and
    heteroclinic traces g on the far sides, descending from the exact
    discrete supersolution min(g(x1), g(x2)) over the zero field, then
    odd-extends in x1.  The heteroclinic is solved on the same n-node axis
    grid.  Returns (field, flow, SolveReport); the report carries the
    heteroclinic as ``profile``.
    """
    nl = oned.allen_cahn()
    L = float(L)
    n = int(n)
    g = oned.solve_heteroclinic(nl, L=L, n=n, tol=min(1e-10, tol))
    quad = Grid(HALF_PLANE, n, n, (0.0, L), (0.0, L))
    supersol = ScalarField(
        quad, np.minimum(g.values[:, None], g.values[None, :]))
    ring = dirichlet_ring(quad, right=g.values, top=g.values)
    sub = ScalarField(quad, np.zeros(quad.shape))
    u_quad, report = solve_semilinear(nl, ring, sub, supersol, "super",
                                      tol=tol)
    report.profile = g
    field = flows.odd_extend_x1(u_quad)
    return field, flows.velocity_from_stream(field, nl), report
