"""Tests for the two-dimensional monotone elliptic solver.

The converged strip solution is cross-checked by one Newton step computed
with an independently assembled sparse matrix and a direct factorization,
so the fixed point is certified by a solver that shares no code with the
sweep machinery.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from eulerlab import elliptic2d as e2
from eulerlab import grid as _g
from eulerlab import oned
from eulerlab.grid import Grid, GridError, ScalarField, QUADRANT, STRIP, TORUS


def unit_square(n):
    return Grid(QUADRANT, n, n, (0.0, 1.0), (0.0, 1.0))


def dirichlet_solve(g, shift, rhs, ring):
    # (-Lap_h + shift) w = rhs inside, w = ring on the boundary
    solver = oned._DirichletSolver(g.shape, (g.hx, g.hy), shift)
    return solver.solve(rhs[1:-1, 1:-1], np.broadcast_to(ring, g.shape))


# ---------------------------------------------------------------------------
# linear solver


def test_linear_solve_zero_rhs():
    g = unit_square(33)
    w = dirichlet_solve(g, 2.0, np.zeros((33, 33)), 0.0)
    assert float(np.max(np.abs(w))) == 0.0


def manufactured_error(n, shift):
    g = unit_square(n)
    X, Y = g.mesh()
    exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
    rhs = (shift + 2.0 * np.pi ** 2) * exact
    w = dirichlet_solve(g, shift, rhs, 0.0)
    return float(np.max(np.abs(w - exact)))


def test_linear_solve_second_order():
    coarse = manufactured_error(65, 0.0)
    fine = manufactured_error(129, 0.0)
    assert 3.0 < coarse / fine < 5.0


def test_linear_solve_with_shift():
    assert manufactured_error(65, 1.0) < 2.5e-4


# the one sine-transform solve serves 1D and 2D sweeps, in float64 and in
# the extended precision of the 1D polish
SOLVER_CASES = pytest.mark.parametrize(
    "rank, dtype", [(1, np.float64), (1, np.longdouble),
                    (2, np.float64), (2, np.longdouble)],
    ids=["1d-float64", "1d-longdouble", "2d-float64", "2d-longdouble"])


@SOLVER_CASES
def test_linear_solve_inner_residual(rank, dtype):
    # the sine transforms diagonalize the stencil, so one forward/inverse
    # pair solves the system to rounding in the dtype of the right side
    n, shift = 65, 1.0
    h = dtype(1.0) / (n - 1)
    pi = 4 * np.arctan(dtype(1))
    x = np.arange(n, dtype=dtype) * h
    mode = np.prod(np.meshgrid(*[np.sin(pi * x)] * rank, indexing="ij"),
                   axis=0)
    rhs = mode * rank * pi ** 2
    solver = oned._DirichletSolver((n,) * rank, (h,) * rank, shift)
    inner = (slice(1, -1),) * rank
    full = solver.solve(rhs[inner], np.zeros((n,) * rank))
    assert full.dtype == dtype
    eps = np.finfo(dtype).eps
    resid = rhs[inner] - _g._neg_lap(full, (h,) * rank) - shift * full[inner]
    assert float(np.linalg.norm(resid)) <= 5e4 * eps * float(
        np.linalg.norm(rhs))
    # a grid sine is an exact eigenvector of the stencil, with eigenvalue
    # (2 - 2 cos(pi h)) / h^2 per axis, built here in the working dtype
    eig = rank * (2.0 - 2.0 * np.cos(pi * h)) / h ** 2
    exact = rhs / (eig + shift)
    assert float(np.max(np.abs(full - exact))) <= 64 * eps


@SOLVER_CASES
def test_linear_solve_residual_check_fires(rank, dtype):
    n = 33
    solver = oned._DirichletSolver((n,) * rank, (1.0 / (n - 1),) * rank, 1.0)
    rhs = np.ones((n - 2,) * rank, dtype=dtype)
    ring = np.zeros((n,) * rank)
    solver.solve(rhs, ring)
    solver._eig[np.dtype(dtype)] *= 1.001
    with pytest.raises(e2.NonConvergence, match="residual"):
        solver.solve(rhs, ring)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_solve_residual_check_survives_norm_overflow():
    # entries of 1e300 overflow the sum of squares of every norm; the check
    # must still compare the residual with a finite bound
    n = 33
    solver = oned._DirichletSolver((n, n), (1.0 / (n - 1),) * 2, 1.0)
    rhs = np.full((n - 2, n - 2), 1e300)
    ring = np.zeros((n, n))
    assert np.isfinite(solver.solve(rhs, ring)).all()
    solver._eig[np.dtype(np.float64)] *= 1.001
    with pytest.raises(e2.NonConvergence, match="residual"):
        solver.solve(rhs, ring)


def test_linear_solve_honors_dirichlet_ring():
    g = unit_square(33)
    d = np.zeros((33, 33))
    d[-1, :] = 1.0
    w = dirichlet_solve(g, 0.0, np.zeros((33, 33)), d)
    assert np.array_equal(w[-1, :], d[-1, :])
    # harmonic interpolant stays inside the data range
    assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# monotone iteration


def zero_reaction():
    return oned.custom(f=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                       f_prime=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                       F=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
                       bound_M=0.0)


def zeros_on(g):
    return ScalarField(g, np.zeros(g.shape))


def test_zero_reaction_converges_immediately():
    g = Grid(STRIP, 33, 17, (0.0, 4.0), (-1.0, 1.0))
    zero = zeros_on(g)
    u, report = e2.solve_semilinear(zero_reaction(), e2.dirichlet_ring(g),
                                    zero, zero, tol=1e-8)
    assert float(np.max(np.abs(u.values))) == 0.0
    assert report.iterations == 1
    # the report holds measured values only
    assert sorted(report.to_dict()) == [
        "extrapolations_accepted", "extrapolations_rejected",
        "final_residual", "final_update", "iterations", "settled_rate"]
    assert report.settled_rate is None


def strip_problem(nx=193, ny=65, L=12.0, lam=4.0):
    """(nl, ring, supersolution) of the half-strip solve."""
    nl = oned.arctan_family(lam)
    g = Grid(STRIP, nx, ny, (0.0, L), (-1.0, 1.0))
    profile = oned.solve_strip_profile(nl, ny)
    super_vals = np.tile(profile.values, (nx, 1))
    ring = e2.dirichlet_ring(g, right=profile.values)
    return nl, ring, ScalarField(g, super_vals)


def test_strip_solution_and_newton_cross_check():
    nl, ring, supersol = strip_problem()
    g = supersol.grid
    u, report = e2.solve_semilinear(nl, ring, zeros_on(g), supersol, tol=1e-8)
    assert report.final_residual < 1e-8
    assert float(u.values[1:-1, 1:-1].min()) > 0.0
    assert float(np.max(u.values - supersol.values)) <= 1e-10

    # independent certification: one Newton step via a sparse direct solve
    mx, my = g.nx - 2, g.ny - 2
    tx = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (mx, mx)) / g.hx ** 2
    ty = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], (my, my)) / g.hy ** 2
    lap = sp.kron(tx, sp.identity(my)) + sp.kron(sp.identity(mx), ty)
    inner = u.values[1:-1, 1:-1]
    r = oned._defect(u.values, (g.hx, g.hy), nl.f).ravel()
    jac = (lap - sp.diags(nl.f_prime(inner).ravel())).tocsc()
    step = spsolve(jac, -r)
    assert float(np.max(np.abs(step))) < 1e-7


def test_two_sided_iteration_unique_limit():
    nl, ring, supersol = strip_problem()
    g = supersol.grid
    up, _ = e2.solve_semilinear(nl, ring, zeros_on(g), supersol,
                                start="sub", tol=1e-8)
    down, _ = e2.solve_semilinear(nl, ring, zeros_on(g), supersol,
                                  start="super", tol=1e-8)
    assert float(np.max(np.abs(up.values - down.values))) < 1e-7


def test_sweep_budget_exhausted(monkeypatch):
    nl, ring, supersol = strip_problem()
    assert e2.NonConvergence is oned.NonConvergence
    monkeypatch.setattr(oned, "SWEEPS_2D", 2)
    with pytest.raises(oned.NonConvergence, match="in 2 sweeps"):
        e2.solve_semilinear(nl, ring, zeros_on(supersol.grid),
                            supersol, start="super", tol=1e-8)


def test_start_fields_are_verified():
    nl, ring, supersol = strip_problem(nx=97, ny=33)
    g = supersol.grid
    # f(s)/s decreases, so twice the tiled profile breaks the reaction
    # inequality, and half of it is nowhere near a supersolution
    fat = ScalarField(g, 2.0 * supersol.values)
    with pytest.raises(e2.NotASubsolution):
        e2.solve_semilinear(nl, ring, fat, supersol, tol=1e-8)
    thin = ScalarField(g, 0.5 * supersol.values)
    with pytest.raises(e2.NotASupersolution):
        e2.solve_semilinear(nl, ring, zeros_on(g), thin,
                            start="super", tol=1e-8)
    # with both sides bad, the start side is the one reported
    with pytest.raises(e2.NotASubsolution):
        e2.solve_semilinear(nl, ring, fat, thin, start="sub")
    with pytest.raises(e2.NotASupersolution):
        e2.solve_semilinear(nl, ring, fat, thin, start="super")
    other = Grid(STRIP, 97, 17, (0.0, 12.0), (-1.0, 1.0))
    with pytest.raises(GridError):
        e2.solve_semilinear(nl, ring, zeros_on(other), supersol,
                            tol=1e-8)


def test_shift_is_derived_from_the_sandwich(monkeypatch):
    nl, ring, supersol = strip_problem(nx=97, ny=33)
    shifts = []
    solver = oned._DirichletSolver

    def recording(shape, spacings, shift):
        shifts.append(shift)
        return solver(shape, spacings, shift)

    monkeypatch.setattr(oned, "_DirichletSolver", recording)
    e2.solve_semilinear(nl, ring, zeros_on(supersol.grid), supersol,
                        start="super")
    # the profile is nonnegative, so max |super| is its maximum
    assert shifts == [oned.picard_shift(nl, float(supersol.values.max()))]


def test_periodic_grid_is_refused():
    g = Grid(TORUS, 16, 16, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    zero = zeros_on(g)
    with pytest.raises(GridError, match="non-periodic"):
        e2.solve_semilinear(zero_reaction(), np.zeros(g.shape), zero, zero)


def test_problem_validation():
    g = Grid(STRIP, 33, 17, (0.0, 4.0), (-1.0, 1.0))
    nl = oned.arctan_family(4.0)
    ring = e2.dirichlet_ring(g)
    zero = zeros_on(g)
    sup = ScalarField(g, np.tile(oned.solve_strip_profile(nl, 17).values,
                                 (33, 1)))
    bad = np.zeros((33, 17))
    bad[0, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        e2.solve_semilinear(nl, bad, zero, sup, start="super")
    with pytest.raises(ValueError, match="full grid ring"):
        e2.solve_semilinear(nl, ring[:, 1:], zero, sup, start="super")
    with pytest.raises(ValueError, match="start"):
        e2.solve_semilinear(nl, ring, zero, sup, start="middle")


# ---------------------------------------------------------------------------
# defect operator


def test_residual_kinked_quadratic():
    # u = x2|x2|/2 has discrete Laplacian exactly sgn(x2) away from the kink,
    # cancelling f(u) = -sgn(u) in the -Lap(u) = f(u) arrangement
    g = Grid(STRIP, 33, 65, (0.0, 4.0), (-1.0, 1.0))
    X, Y = g.mesh()
    r = oned._defect(0.5 * Y * np.abs(Y), (g.hx, g.hy),
                     oned.sign_equation().f)
    away = (np.abs(Y) >= 2.0 * g.hy - 1e-12)[1:-1, 1:-1]
    assert float(np.max(np.abs(r[away]))) == 0.0


def test_residual_zero_field():
    # the defect lives on interior nodes only: the ring carries data
    g = Grid(STRIP, 33, 17, (0.0, 4.0), (-1.0, 1.0))
    r = oned._defect(np.zeros(g.shape), (g.hx, g.hy),
                     oned.arctan_family(4.0).f)
    assert r.shape == (31, 15)
    assert float(np.max(np.abs(r))) == 0.0


# ---------------------------------------------------------------------------
# strip flow construction


@pytest.fixture(scope="module")
def type3_full():
    return e2.solve_type3_strip()


def test_type3_symmetries(type3_full):
    u, _, report = type3_full
    v = u.values
    assert report.final_residual < 1e-8
    assert float(np.max(np.abs(v + v[::-1, :]))) == 0.0
    assert float(np.max(np.abs(v - v[:, ::-1]))) < 1e-8
    mid = (u.grid.nx - 1) // 2
    assert float(v[mid + 1:, 1:-1].min()) > 0.0


def test_type3_attachment(type3_full):
    u = type3_full[0]
    profile = oned.solve_strip_profile(oned.arctan_family(4.0), u.grid.ny)
    x = u.grid.x_nodes()
    col = int(np.argmin(np.abs(x - (u.grid.x_range[1] - 1.0))))
    gap = float(np.max(np.abs(u.values[col, :] - profile.values)))
    assert gap < 0.02 * float(profile.values.max())


def test_type3_monotone_in_x1(type3_full):
    u = type3_full[0]
    v = u.values
    dx = v[2:, 1:-1] - v[:-2, 1:-1]
    assert float(dx.min()) > -1e-8 * 2.0 * u.grid.hx
    # transverse monotonicity on the quarter strip x1 > 0, x2 < 0
    mid = (u.grid.nx - 1) // 2
    y = u.grid.y_nodes()
    rising = y[1:] <= 1e-12
    dy = v[mid + 1:, 1:] - v[mid + 1:, :-1]
    assert float(dy[:, rising].min()) > -1e-8 * u.grid.hy


def test_type3_residual_full_grid(type3_full):
    u = type3_full[0]
    g = u.grid
    r = oned._defect(u.values, (g.hx, g.hy), oned.arctan_family(4.0).f)
    assert float(np.max(np.abs(r))) < 1e-8


def test_type3_refinement_order():
    levels = [(97, 17), (193, 33), (385, 65)]
    fields = [e2.solve_type3_strip(nx=nx, ny=ny)[0].values
              for nx, ny in levels]
    d1 = float(np.max(np.abs(fields[0] - fields[1][::2, ::2])))
    d2 = float(np.max(np.abs(fields[1] - fields[2][::2, ::2])))
    assert d1 / d2 > 2.0 ** 1.5


def test_type3_zero_far_field_mode():
    za = e2.solve_type3_strip(L=8.0, nx=257, ny=33, far_field="zero")[0]
    pa = e2.solve_type3_strip(L=8.0, nx=257, ny=33, far_field="profile")[0]
    zb = e2.solve_type3_strip(L=12.0, nx=385, ny=33, far_field="zero")[0]
    pb = e2.solve_type3_strip(L=12.0, nx=385, ny=33, far_field="profile")[0]

    def window(f, lim=4.0):
        keep = np.abs(f.grid.x_nodes()) <= lim + 1e-9
        return f.values[keep, :]

    d_short = float(np.max(np.abs(window(za) - window(pa))))
    d_long = float(np.max(np.abs(window(zb) - window(pb))))
    assert d_long < 0.1 * d_short
    assert d_long < 1e-3


def test_type3_input_checks():
    with pytest.raises(ValueError):
        e2.solve_type3_strip(nx=768)
    with pytest.raises(ValueError):
        e2.solve_type3_strip(far_field="dirichlet")


# the 1D profile places its subsolution once and checks it: an amplitude
# that cannot fit under the supersolution is NoSubsolution, not a smaller
# try.  The 2D constructions place none: they descend over the zero field
@pytest.mark.parametrize("solve, says", [
    (lambda: oned.solve_strip_profile(oned.arctan_family(4.0), 65),
     "subsolution cannot be placed under supersolution"),
], ids=["profile"])
def test_subsolution_that_cannot_fit_is_refused(solve, says, monkeypatch):
    monkeypatch.setattr(oned, "select_subsolution_amplitude",
                        lambda nl, rate: 1e3)
    with pytest.raises(oned.NoSubsolution, match=says):
        solve()


def test_default_strip_descends_within_40_sweeps(type3_full):
    assert type3_full[2].iterations <= 40


def test_near_threshold_strips_descend():
    # the profile, and with it the descent, exists for lam > 2.4699
    for lam in (2.48, 2.6):
        u, _, report = e2.solve_type3_strip(lam, L=40.0, nx=257, ny=17)
        assert report.final_residual < 1e-8
        assert float(u.values[(u.grid.nx + 1) // 2:, 1:-1].min()) > 0.0


# ---------------------------------------------------------------------------
# rate extrapolation: same limit, same sandwich, fewer sweeps


def ascending_strip(nx=193, ny=65, L=12.0, lam=4.0, tol=1e-8):
    """The half-strip solve run up from the zero field under the profile,
    the other side of the sandwich the construction descends, as
    (u, None, report)."""
    nl, ring, supersol = strip_problem(nx, ny, L, lam)
    u, report = e2.solve_semilinear(nl, ring, zeros_on(supersol.grid),
                                    supersol, start="sub", tol=tol)
    return u, None, report


def _plain(solve):
    """``solve()`` run by the engine without extrapolation (THETA = 0)."""
    with mock.patch.object(oned, "THETA", 0.0):
        return solve()


@pytest.mark.parametrize("case", ["strip769", "strip385", "saddle321",
                                  "strip_descending", "strip_ascending"])
def test_extrapolated_limit_is_the_plain_limit(case, type3_full, saddle_full):
    solve, accelerated = {
        "strip769": (e2.solve_type3_strip, type3_full),
        "strip385": (lambda: e2.solve_type3_strip(nx=385, ny=65), None),
        "saddle321": (e2.solve_saddle_quadrant, saddle_full),
        # zero far-field data, the exhaustion variant
        "strip_descending": (lambda: e2.solve_type3_strip(
            L=8.0, nx=257, ny=33, far_field="zero"), None),
        "strip_ascending": (ascending_strip, None),
    }[case]
    u, _, report = accelerated or solve()
    w, _, plain = _plain(solve)
    assert plain.extrapolations_accepted == plain.extrapolations_rejected == 0
    assert report.extrapolations_accepted > 0
    assert report.iterations < plain.iterations
    assert report.final_residual < 1e-8
    assert float(np.max(np.abs(u.values - w.values))) <= 1e-8


def test_failing_certificate_is_the_plain_engine():
    nl, ring, supersol = strip_problem(nx=97, ny=33)
    sub = zeros_on(supersol.grid)
    engine = oned._monotone_sweeps

    def refusing(*args, certify, **options):
        return engine(*args, certify=lambda v: False, **options)

    def solve():
        return e2.solve_semilinear(nl, ring, sub, supersol, tol=1e-8)

    with mock.patch.object(oned, "_monotone_sweeps", refusing):
        u, refused = solve()
    w, plain = _plain(solve)
    assert refused.extrapolations_rejected > 0
    assert refused.extrapolations_accepted == 0
    assert u.values.tobytes() == w.values.tobytes()
    assert (refused.iterations, refused.final_update, refused.final_residual,
            refused.settled_rate) == (plain.iterations, plain.final_update,
                                      plain.final_residual, plain.settled_rate)


def _watched_iterates(solve):
    """Run ``solve()`` and keep (lower, upper, ascending, iterates) of each
    2D engine run, the iterates being all that ``done`` saw: the start,
    every plain sweep kept and every accepted jump."""
    runs, engine = [], oned._monotone_sweeps

    def spy(sweep, u, lower, upper, ascending, done, *rest, **options):
        if "certify" not in options:  # a 1D far-field solve
            return engine(sweep, u, lower, upper, ascending, done, *rest,
                          **options)
        seen = []
        runs.append((lower, upper, ascending, seen))

        def watched(v, update):
            seen.append(np.array(v))
            return done(v, update)
        return engine(sweep, u, lower, upper, ascending, watched, *rest,
                      **options)
    with mock.patch.object(oned, "_monotone_sweeps", spy):
        result = solve()
    return result, runs


@settings(max_examples=20)
@given(lam=st.floats(3.0, 8.0), half=st.integers(7, 40),
       ny=st.integers(9, 33),
       case=st.sampled_from(["profile", "zero", "ascending"]))
def test_extrapolated_iterates_stay_sandwiched(lam, half, ny, case):
    # two correct runs stop up to rate/(1 - rate) * tol from the fixed
    # point, about 2 * tol apart at lam = 3 on a 17 x 9 grid, so both stop
    # at 1e-10 here and must agree within the default tol of 1e-8
    def solve():
        if case == "ascending":  # up from zero, under profile data
            return ascending_strip(half + 1, ny, 6.0, lam, tol=1e-10)
        return e2.solve_type3_strip(lam, L=6.0, nx=2 * half + 1, ny=ny,
                                    tol=1e-10, far_field=case)

    (u, _, report), runs = _watched_iterates(solve)
    [(lower, upper, ascending, seen)] = runs
    seen = np.array(seen)
    assert len(seen) == report.iterations + 1
    assert float(np.min(seen - lower)) >= -1e-12
    assert float(np.max(seen - upper)) <= 1e-12
    # a jump is certified up to the stencil check's slack, so the sweep
    # after it may step back by ~1e-11, inside the engine's one-way slack
    slack = 1e-10 * (1.0 + float(np.max(np.abs(upper))))
    steps = np.diff(seen, axis=0) * (1.0 if ascending else -1.0)
    assert float(steps.min()) >= -slack
    w = _plain(solve)[0]
    assert float(np.max(np.abs(u.values - w.values))) <= 1e-8


# ---------------------------------------------------------------------------
# saddle construction


@pytest.fixture(scope="module")
def saddle_full():
    return e2.solve_saddle_quadrant()


def test_saddle_range_and_symmetry(saddle_full):
    u, _, report = saddle_full
    assert report.final_residual < 1e-8
    v = u.values
    assert float(np.max(np.abs(v + v[::-1, :]))) == 0.0
    mid = (u.grid.nx - 1) // 2
    q = v[mid:, :]
    assert float(q[1:, 1:-1].min()) > 0.0
    assert float(q[1:, 1:-1].max()) < 1.0
    assert float(np.max(np.abs(q - q.T))) < 5e-3


def test_saddle_monotone_partials(saddle_full):
    u = saddle_full[0]
    mid = (u.grid.nx - 1) // 2
    q = u.values[mid:, :]
    dx = q[1:, 1:-1] - q[:-1, 1:-1]
    dy = q[1:-1, 1:] - q[1:-1, :-1]
    assert float(dx.min()) > -1e-8 * u.grid.hx
    assert float(dy.min()) > -1e-8 * u.grid.hy


def test_saddle_far_edges_match_heteroclinic(saddle_full):
    u = saddle_full[0]
    mid = (u.grid.nx - 1) // 2
    q = u.values[mid:, :]
    g = oned.solve_heteroclinic(oned.allen_cahn(), L=20.0, n=q.shape[0])
    assert np.array_equal(q[:, -1], g.values)
    assert np.array_equal(q[-1, :], g.values)


def test_saddle_two_sided_limit():
    # the construction descends from min(g(x1), g(x2)); run up from a
    # product sine bump under it, the quadrant half must be the same limit
    n, L = 161, 20.0
    down = e2.solve_saddle_quadrant(L=L, n=n)[0]
    nl = oned.allen_cahn()
    g = oned.solve_heteroclinic(nl, L=L, n=n)
    quad = Grid(QUADRANT, n, n, (0.0, L), (0.0, L))
    supersol = ScalarField(quad, np.minimum(g.values[:, None],
                                            g.values[None, :]))
    delta = 2.0 * np.pi / L
    eps = oned.select_subsolution_amplitude(nl, 2.0 * delta ** 2)
    X, Y = quad.mesh()
    h0, hi = quad.hx, quad.hx + np.pi / delta
    inside = (X > h0) & (X < hi) & (Y > h0) & (Y < hi)
    bump = eps * np.sin(delta * (X - h0)) * np.sin(delta * (Y - h0))
    ring = e2.dirichlet_ring(quad, right=g.values, top=g.values)
    up, report = e2.solve_semilinear(
        nl, ring, ScalarField(quad, np.where(inside, bump, 0.0)), supersol,
        start="sub", tol=1e-8)
    assert report.final_residual < 1e-8
    assert float(np.max(np.abs(down.values[n - 1:, :] - up.values))) < 1e-7


def test_reports_carry_the_far_field_solutions(type3_full, saddle_full):
    # the 1D problems the constructions solved ride on their reports, so
    # nothing downstream needs to solve them again
    u, _, report = type3_full
    profile = oned.solve_strip_profile(oned.arctan_family(4.0), u.grid.ny)
    assert np.array_equal(report.profile.values, profile.values)
    assert "profile" not in report.to_dict()
    w, _, report = saddle_full
    het = oned.solve_heteroclinic(oned.allen_cahn(), L=w.grid.y_range[1],
                                  n=w.grid.ny)
    assert np.array_equal(report.profile.values, het.values)
