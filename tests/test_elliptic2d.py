"""Tests for the two-dimensional monotone elliptic solver.

The converged strip solution is cross-checked by one Newton step computed
with an independently assembled sparse matrix and a direct factorization,
so the fixed point is certified by a solver that shares no code with the
sweep machinery.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from eulerlab import elliptic2d as e2
from eulerlab import grid as _g
from eulerlab import oned
from eulerlab.grid import Grid, GridError, ScalarField, HALF_PLANE, STRIP, TORUS


def unit_square(n):
    return Grid(HALF_PLANE, n, n, (0.0, 1.0), (0.0, 1.0))


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
    # (2 sin(pi h / 2))^2 / h^2 = (2 - 2 cos(pi h)) / h^2 per axis, built
    # here in the working dtype without the cancellation of the cos form
    eig = rank * np.square(2.0 * np.sin(pi * h / 2)) / h ** 2
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
# the workspace solve: the bits of the solve that allocated every step


def reference_neg_lap(v, spacings):
    # grid._neg_lap before it could write into an output array
    inner = (slice(1, -1),) * v.ndim
    out = None
    for axis, h in enumerate(spacings):
        hi, lo = list(inner), list(inner)
        hi[axis], lo[axis] = slice(2, None), slice(None, -2)
        term = (2.0 * v[inner] - v[tuple(hi)] - v[tuple(lo)]) / h ** 2
        out = term if out is None else out + term
    return out


def reference_solve(solver, rhs_interior, dirichlet):
    # _DirichletSolver.solve before its workspace, every step a new array;
    # returns the box with the stencil and the residual of its check
    b = np.array(rhs_interior, dtype=np.result_type(rhs_interior, 1.0))
    dt = b.dtype
    hs = [dt.type(h) for h in solver.spacings]
    for axis, h in enumerate(hs):
        for end in (0, -1):
            side = [slice(None)] * b.ndim
            ring = [slice(1, -1)] * b.ndim
            side[axis] = ring[axis] = end
            b[tuple(side)] += dirichlet[tuple(ring)] / h ** 2
    bnorm = oned._norm(b)
    if not np.isfinite(bnorm):
        raise e2.NonConvergence("the right side of the sine-transform solve "
                                "is not finite: f(u) + shift*u overflowed")
    pi = 4 * np.arctan(dt.type(1))
    axes = [np.square(2.0 * np.sin(np.arange(1, n - 1, dtype=dt) * pi
                                   / (2 * (n - 1)))) / h ** 2
            for n, h in zip(solver.shape, hs)]
    eig = sum(np.ix_(*axes)) + dt.type(solver.shift)
    w = oned._dst1(oned._dst1(b) / eig)
    full = np.array(dirichlet, dtype=dt)
    full[(slice(1, -1),) * b.ndim] = w
    wnorm = oned._norm(w)
    if not np.isfinite(wnorm):
        raise e2.NonConvergence("the sine transform of a right side of "
                                "%.3e overflowed" % bnorm)
    lap = reference_neg_lap(full, hs)
    resid = rhs_interior - solver.shift * w - lap
    rnorm = oned._norm(resid)
    anorm = sum(4.0 / h ** 2 for h in solver.spacings) + solver.shift
    if not rnorm <= 8.0 * np.finfo(dt).eps * (bnorm + anorm * wnorm):
        raise e2.NonConvergence("sine-transform solve left a residual of "
                                "%.3e against a right side of %.3e"
                                % (rnorm, bnorm))
    return full, lap, resid


def same_bits(a, b):
    # a long double carries padding bytes that nothing writes, so compare
    # values and signs rather than tobytes()
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                        np.signbit(b)))


def _unloadable():
    raise ImportError("no pocketfft extension")


def sine_transform(path):
    """The DST-I that _dst1 settles on: the pocketfft extension, or the
    scipy.fft.dstn fallback when the extension cannot load."""
    with mock.patch.object(oned, "_DST", None):
        if path == "dstn":
            with mock.patch.object(oned, "_pocketfft_dst", _unloadable):
                oned._dst1(np.zeros(3))
        else:
            oned._dst1(np.zeros(3))
        return oned._DST


TRANSFORMS = {path: sine_transform(path) for path in ("pocketfft", "dstn")}


@pytest.mark.parametrize("path", sorted(TRANSFORMS))
@settings(max_examples=60)
@given(case=st.sampled_from(["1d-float64", "1d-longdouble", "2d-float64"]),
       sizes=st.lists(st.integers(3, 48), min_size=2, max_size=2),
       log_h=st.lists(st.floats(-3.0, 1.0), min_size=2, max_size=2),
       shift=st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
       solves=st.integers(2, 4), into=st.booleans())
def test_workspace_solve_keeps_every_bit(path, case, sizes, log_h, shift,
                                         seed, solves, into):
    rank, dtype = {"1d-float64": (1, np.float64),
                   "1d-longdouble": (1, np.longdouble),
                   "2d-float64": (2, np.float64)}[case]
    shape = tuple(sizes[:rank])
    spacings = tuple(10.0 ** x for x in log_h[:rank])
    rng = np.random.default_rng(seed)
    with mock.patch.object(oned, "_DST", TRANSFORMS[path]):
        solver = oned._DirichletSolver(shape, spacings, shift)
        returned = []
        for _ in range(solves):
            # a new right side and ring each time, as every sweep brings
            rhs = rng.standard_normal([n - 2 for n in shape]).astype(dtype)
            ring = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            # an output array starts full of NaN, as a dead iterate of any
            # value would, and ends as the returned box
            out = np.full(shape, np.nan, dtype) if into else None
            full = solver.solve(rhs, ring, out)
            assert out is None or full is out
            want, lap, resid = reference_solve(solver, rhs, ring)
            assert same_bits(full, want)
            # the workspace ends with the check's stencil and residual
            [work] = solver._work.values()
            assert same_bits(work[0], lap) and same_bits(work[1], resid)
            returned.append(full)
        for i, full in enumerate(returned):
            assert not any(np.shares_memory(full, a) for a in work)
            assert not any(np.shares_memory(full, other)
                           for other in returned[i + 1:])


@settings(max_examples=40)
@given(rank=st.integers(1, 3), size=st.integers(3, 12),
       log_h=st.floats(-3.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       dtype=st.sampled_from([np.float64, np.longdouble]))
def test_stencil_into_an_output_keeps_every_bit(rank, size, log_h, seed,
                                                dtype):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((size + 2,) * rank).astype(dtype)
    hs = [dtype(10.0 ** log_h * (1 + axis)) for axis in range(rank)]
    want = reference_neg_lap(v, hs)
    out = np.empty_like(want)
    assert _g._neg_lap(v, hs, out=out) is out
    assert same_bits(out, want)
    assert same_bits(_g._neg_lap(v, hs), want)


# ---------------------------------------------------------------------------
# monotone iteration


def zero_reaction():
    z = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return oned.Nonlinearity(f=z, f_prime=z, F=z, bound_M=0.0, family="Custom")


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
                     lambda s: -np.sign(s))
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


def test_default_strip_descends_within_25_sweeps(type3_full):
    # the shift is 0.1, not max |f'| + 0.1 = 4.1, so each sweep contracts
    # about twice as fast
    assert type3_full[2].iterations <= 25


@settings(max_examples=25)
@given(lam=st.floats(2.6, 1e4), half=st.integers(7, 40),
       ny=st.integers(9, 33))
def test_strip_solve_stays_between_zero_and_the_profile(lam, half, ny):
    tol = 1e-8
    u, _, report = e2.solve_type3_strip(lam, L=6.0, nx=2 * half + 1, ny=ny,
                                        tol=tol)
    assert report.final_residual < tol and report.final_update < tol
    right = u.values[half:]
    assert float(right.min()) >= 0.0
    assert np.all(right <= report.profile.values[None, :])


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


@settings(max_examples=30)
@given(lam=st.floats(3.0, 50.0), half=st.integers(7, 30),
       ny=st.integers(9, 33), ascending=st.booleans(), jump=st.booleans())
def test_2d_engine_writes_only_its_own_arrays(lam, half, ny, ascending,
                                              jump):
    # the engine's reused step and scratch buffers, the clamp it runs in
    # the iterate a sweep returned and the dead iterates it hands back as a
    # sweep's output leave the sandwich and the caller's start as they
    # were.  The sweep forms f(u) + shift*u out of place, since a custom f
    # may return its own argument
    nl, ring, supersol = strip_problem(half + 1, ny, 6.0, lam)
    g = supersol.grid
    lower, upper = np.zeros(g.shape), np.array(supersol.values)
    shift = oned.picard_shift(nl, float(upper.max()))
    solver = oned._DirichletSolver(g.shape, (g.hx, g.hy), shift)
    kind = "sub" if ascending else "super"
    start = np.array(lower if ascending else upper)
    given_arrays = (lower, upper, start)
    kept = [a.copy() for a in given_arrays]
    outs = []

    def sweep(u, out):
        if out is not None:
            assert not any(np.shares_memory(out, a)
                           for a in (u,) + given_arrays)
            outs.append(out)
        inner = u[1:-1, 1:-1]
        return solver.solve(nl.f(inner) + shift * inner, ring, out)

    def certify(v):
        try:
            e2._check_one_sided(nl, ring, shift, g, v, kind)
        except (e2.NotASubsolution, e2.NotASupersolution):
            return False
        return True

    run = oned._monotone_sweeps(
        sweep, start, lower, upper, ascending,
        lambda u, update: update < 1e-10, oned.SWEEPS_2D,
        1e-10 * (1.0 + float(upper.max())), certify=certify if jump else None)
    assert run.sweeps > 2 and outs
    for a, before in zip(given_arrays, kept):
        assert a.tobytes() == before.tobytes()
        assert not np.shares_memory(run.u, a)


@settings(max_examples=30)
@given(lam=st.floats(3.0, 50.0), n=st.integers(9, 200),
       start=st.sampled_from(["sub", "super"]))
def test_1d_engine_runs_write_only_their_own_arrays(lam, n, start):
    # the float64 phase and the long-double polish of a profile solve, with
    # the sweeps of the library
    runs, engine = [], oned._monotone_sweeps

    def spy(sweep, u, lower, upper, *rest, **options):
        given_arrays = (u, lower, upper)
        kept = [np.array(a) for a in given_arrays]
        run = engine(sweep, u, lower, upper, *rest, **options)
        runs.append((given_arrays, kept, run))
        return run

    with mock.patch.object(oned, "_monotone_sweeps", spy):
        oned.solve_strip_profile(oned.arctan_family(lam), n, start=start)
    assert [r[2].u.dtype for r in runs] == [np.float64, np.longdouble]
    for (u, lower, upper), kept, run in runs:
        for a, before in zip((u, lower, upper), kept):
            assert same_bits(a, before)
        # a run that stops before its first sweep returns its start
        assert np.shares_memory(run.u, u) == (run.sweeps == 0)
        assert not np.shares_memory(run.u, lower)
        assert not np.shares_memory(run.u, upper)


# ---------------------------------------------------------------------------
# saddle construction


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


def test_saddle_solve_working_set_is_bounded():
    # tracemalloc peak of the reference saddle's solve_semilinear, taken
    # around the call solve_saddle_quadrant makes, in 321^2 arrays: 10.0
    # with the sine-transform solve and the engine writing into buffers
    # that persist across sweeps (11.9 when every step of a sweep took a
    # new array).  The peak is a certificate's defect on top of the two
    # iterates, the step, the engine's scratch, the solver's workspace and
    # its eigenvalues
    peaks, solve = [], e2.solve_semilinear

    def measured(*args, **options):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = solve(*args, **options)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not tracing:
                tracemalloc.stop()
        return result
    with mock.patch.object(e2, "solve_semilinear", measured):
        u = e2.solve_saddle_quadrant()[0]
    n = u.grid.ny
    assert n == 321 and len(peaks) == 1
    assert peaks[0] / (n * n * 8) <= 10.5


def test_saddle_two_sided_limit():
    # the construction descends from min(g(x1), g(x2)); run up from a
    # product sine bump under it, the quadrant half must be the same limit
    n, L = 161, 20.0
    down = e2.solve_saddle_quadrant(L=L, n=n)[0]
    nl = oned.allen_cahn()
    g = oned.solve_heteroclinic(nl, L=L, n=n)
    quad = Grid(HALF_PLANE, n, n, (0.0, L), (0.0, L))
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
