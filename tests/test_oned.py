"""Tests for the one-dimensional profile solvers.

The transverse-profile constants are frozen from an independent shooting
oracle: integrate u'' = -4*arctan(u) from the centerline with DOP853 at
rtol 1e-12 and bisect the center value until u(1) = 0.  The heteroclinic
has the closed form tanh(x/sqrt 2), so no numerical oracle is needed there.
"""

import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import cli, oned, serialize

# shooting oracle, lam = 4 arctan family on (-1, 1)
CENTER_VALUE = 1.987904528586843
WALL_SLOPE = -3.342097151308673


def test_strip_profile_matches_shooting_oracle():
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 2001)
    assert p.residual < 1e-10
    assert p.iterations > 0
    assert abs(p.sample(0.0) - CENTER_VALUE) < 3e-6
    assert abs(p.boundary_derivatives[1] - WALL_SLOPE) < 2e-5
    # odd reflection symmetry of the wall slopes
    assert abs(p.boundary_derivatives[0] + p.boundary_derivatives[1]) < 1e-8
    assert p.values.min() >= 0.0
    assert p.values[0] == 0.0 and p.values[-1] == 0.0


def test_strip_profile_second_order_in_h():
    nl = oned.arctan_family(4.0)
    e_coarse = abs(oned.solve_strip_profile(nl, 2001).sample(0.0) - CENTER_VALUE)
    e_fine = abs(oned.solve_strip_profile(nl, 8001).sample(0.0) - CENTER_VALUE)
    # quartering h should cut the error by about 16; demand at least 8
    assert e_coarse / e_fine > 8.0


@pytest.mark.parametrize("start", ["sub", "super"])
def test_fine_strip_profile_keeps_monotone_sweeps(start):
    # eigenvalues built as 2 - 2 cos(theta) lose eps/theta^2 of relative
    # accuracy in the low modes, enough at n = 16001 to put the float64
    # fixed point above the long-double one, so the polish stepped down
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 16001, start=start)
    assert p.residual < 1e-10
    assert abs(p.sample(0.0) - CENTER_VALUE) < 1e-7


def test_strip_profile_even_symmetry():
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 2001)
    assert float(np.max(np.abs(p.values - p.values[::-1]))) < 1e-8


def test_strip_profile_energy_identity():
    # 0.5*(u')^2 + F(u) is constant in x when -u'' = f(u); check the
    # discrete version to second order
    nl = oned.arctan_family(4.0)
    p = oned.solve_strip_profile(nl, 2001)
    u, h = p.values, p.h
    du = (u[2:] - u[:-2]) / (2.0 * h)
    energy = 0.5 * du ** 2 + nl.F(u[1:-1])
    assert float(energy.max() - energy.min()) < 5e-5


def test_two_sided_iteration_agrees():
    nl = oned.arctan_family(4.0)
    up = oned.solve_strip_profile(nl, 2001, start="sub")
    down = oned.solve_strip_profile(nl, 2001, start="super")
    assert float(np.max(np.abs(up.values - down.values))) <= 1e-8


@settings(max_examples=20)
@given(lam=st.floats(2.6, 12.0), n=st.integers(17, 257))
def test_both_starts_reach_one_profile(lam, n):
    nl = oned.arctan_family(lam)
    up = oned.solve_strip_profile(nl, n, start="sub")
    down = oned.solve_strip_profile(nl, n, start="super")
    assert up.residual < 1e-10 and down.residual < 1e-10
    assert float(np.max(np.abs(up.values - down.values))) <= 1e-8


def _recorded_sweeps(run):
    """Run ``run()`` with every iterate of the sweep engine recorded (the
    start of each phase included), copied as float64 as the sweep returns
    it, before the engine's clamp: the engine writes over dead iterates."""
    seen, engine = [], oned._monotone_sweeps

    def spy(sweep, u, *rest, **options):
        seen.append(np.array(u, dtype=float))

        def recorded(v, out):
            nxt = sweep(v, out)
            seen.append(np.array(nxt, dtype=float))
            return nxt
        return engine(recorded, u, *rest, **options)
    with mock.patch.object(oned, "_monotone_sweeps", spy):
        result = run()
    return result, np.array(seen)


@settings(max_examples=20)
@given(lam=st.floats(2.6, 12.0), n=st.integers(17, 129),
       side=st.sampled_from(["sub", "super"]), c=st.floats(0.0, 1.0))
def test_random_admissible_starts_stay_sandwiched(lam, n, side, c):
    # f(s)/s decreases, so c * (cosine bump) is a subsolution for c <= 1,
    # and |f| <= M makes (M / a) (1 - x^2)/2 a supersolution for a <= 1
    nl = oned.arctan_family(lam)
    x = np.linspace(-1.0, 1.0, n)
    h = 2.0 / (n - 1)
    sup = 0.5 * nl.bound_M * (1.0 - x ** 2)
    eps = oned.select_subsolution_amplitude(nl, np.pi ** 2 / 4.0 + 0.05 ** 2)
    while np.any(eps * np.cos(0.5 * np.pi * x) > sup + 1e-15):
        eps *= 0.5
    sub = eps * np.cos(0.5 * np.pi * x)
    sub[0] = sub[-1] = 0.0
    scale = 0.05 + 0.95 * c
    if side == "sub":
        start, lower, upper = scale * sub, scale * sub, sup
    else:
        start, lower, upper = sup / scale, sub, sup / scale
    (u, _, _), seen = _recorded_sweeps(lambda: oned._picard_1d(
        nl, h, start, lower, upper, (0.0, 0.0), 1e-10, side == "sub"))
    assert len(seen) > 2
    steps = np.diff(seen, axis=0) * (1.0 if side == "sub" else -1.0)
    assert float(steps.min()) >= -1e-12
    assert float(np.min(seen - lower)) >= -1e-12
    assert float(np.max(seen - upper)) <= 1e-12
    default = oned.solve_strip_profile(nl, n)
    assert float(np.max(np.abs(u - default.values))) <= 1e-8


# ---------------------------------------------------------------------------
# the sweep engine's certificate: each failure raises NonConvergence


def _sweeps(sweep, lower=-np.inf, upper=np.inf, ascending=True, max_iter=50):
    return oned._monotone_sweeps(sweep, np.zeros(5), lower, upper, ascending,
                                 lambda u, update: update < 1e-12, max_iter,
                                 1e-10)


def test_engine_rejects_a_step_the_wrong_way():
    with pytest.raises(oned.NonConvergence, match="ascending sweep lost"):
        _sweeps(lambda u, out: u - 1e-3)
    with pytest.raises(oned.NonConvergence, match="descending sweep lost"):
        _sweeps(lambda u, out: u + 1e-3, ascending=False)


def test_engine_rejects_leaving_the_sandwich():
    with pytest.raises(oned.NonConvergence, match="sandwich"):
        _sweeps(lambda u, out: u + 0.3, upper=np.ones(5))
    with pytest.raises(oned.NonConvergence, match="sandwich"):
        _sweeps(lambda u, out: u - 0.3, lower=-np.ones(5), ascending=False)


def test_engine_clamps_a_rounding_escape_to_the_sandwich():
    # a step out of the sandwich by less than the slack passes the check as
    # rounding, and the iterate comes back clamped to the bound it crossed
    lower, upper = np.zeros(5), np.ones(5)
    for ascending, start, out in ((False, upper, -5e-11),
                                  (True, lower, 1.0 + 5e-11)):
        nxt = np.r_[0.5, 0.5, out, 0.5, 0.5]
        run = oned._monotone_sweeps(lambda u, out: nxt.copy(), start.copy(),
                                    lower, upper, ascending,
                                    lambda u, update: update < np.inf, 5,
                                    1e-10)
        assert run.sweeps == 1
        assert np.all((lower <= run.u) & (run.u <= upper))
        assert run.u.tolist() == [0.5, 0.5, float(ascending), 0.5, 0.5]


def test_engine_rejects_an_exhausted_budget():
    with pytest.raises(oned.NonConvergence, match="in 7 sweeps"):
        _sweeps(lambda u, out: u + 1e-3, max_iter=7)


def test_engine_stops_at_a_stall():
    # a sweep that returns its input is a fixed point every later sweep
    # repeats, so the engine raises after that one sweep, not at the budget
    calls = []

    def sweep(u, out):
        calls.append(1)
        return u.copy()

    with pytest.raises(oned.NonConvergence, match="stalled at sweep 1:"):
        oned._monotone_sweeps(sweep, np.zeros(5), -np.inf, np.inf, True,
                              lambda u, update: False, 50, 1e-10)
    assert len(calls) == 1


def test_engine_counts_sweeps_to_the_fixed_point():
    # u -> (u + 1)/2 ascends from 0 toward 1; sweep k moves by 2^-k, and
    # 2^-40 is the first update below 1e-12
    run = _sweeps(lambda u, out: 0.5 * (u + 1.0), upper=np.ones(5))
    assert run.sweeps == 40 and run.update == 2.0 ** -40
    assert np.all(run.u <= 1.0)
    # the rate settles at 1/2, but without a certificate nothing jumps
    assert run.rate == 0.5 and run.accepted == run.rejected == 0


def test_engine_keeps_a_jump_only_under_the_far_bound():
    # u -> (u + 1)/2 settles at rate 1/2 below the bound 1: THETA = 0.8
    # jumps nine tenths of the way there, THETA = 3 would jump past it
    def run():
        return oned._monotone_sweeps(
            lambda u, out: 0.5 * (u + 1.0), np.zeros(5), -np.inf, np.ones(5),
            True, lambda u, update: update < 1e-12, 50, 1e-10,
            certify=lambda v: True)

    kept = run()
    assert kept.accepted > 0 and kept.sweeps < 40
    assert np.all(kept.u <= 1.0)
    with mock.patch.object(oned, "THETA", 3.0):
        over = run()
    assert over.accepted == 0 and over.rejected > 0 and over.sweeps == 40


def test_engine_clamps_a_jump_to_the_near_bound():
    # a descent at rate 0.9 while one node at the upper bound creeps up by a
    # quarter of the slack each sweep: the jump, 7.2 steps long, would carry
    # that creep 1.8e-10 past the bound, and the next sweep out of the
    # sandwich
    def sweep(u, out):
        nxt = 0.9 * u
        nxt[0] = u[0] + 2.5e-11
        return nxt

    run = oned._monotone_sweeps(
        sweep, np.ones(5), np.zeros(5), np.ones(5), False,
        lambda u, update: update < 1e-9, 500, 1e-10, certify=lambda v: True)
    assert run.accepted > 0
    assert run.u[0] == 1.0 and np.all(run.u[1:] < 1e-8)


@pytest.mark.parametrize("steps, start", [
    # steps that hold their size never pass the target
    ([1.0] * 50, 0.0),
    # a geometric tail at 0.999 needs ~27,600 more sweeps
    ([0.999 ** k for k in range(50)], 0.0),
    # a rate still drifting (0.990, 0.9901, ...)
    (np.cumprod([0.99 + 1e-4 * k for k in range(50)]), 0.0),
    # steps of 8 ulps of the iterate
    ([2.0 ** -30] * 50, 1e6),
])
def test_engine_budget_ends_a_run_its_rate_cannot_finish(steps, start):
    # the judge sees every settled rate from the third sweep on, and a
    # judge that raises nothing leaves the run to its budget
    script = iter(steps)
    seen = []
    with pytest.raises(oned.NonConvergence,
                       match="^no convergence in 50 sweeps"):
        oned._monotone_sweeps(
            lambda u, out: u + next(script), np.full(5, start), -np.inf,
            np.inf, True, lambda u, update: update < 1e-12, 50, 1e-10,
            judge=seen.append)
    assert len(seen) == 48


def test_heteroclinic_matches_tanh():
    g = oned.solve_heteroclinic(oned.allen_cahn())
    assert g.residual < 1e-10
    x = g.nodes()
    assert float(np.max(np.abs(g.values - np.tanh(x / np.sqrt(2.0))))) < 1e-5
    assert abs(g.boundary_derivatives[0] - 1.0 / np.sqrt(2.0)) < 1e-5
    # monotone increasing connection
    assert float(np.min(np.diff(g.values))) >= -1e-12


def test_heteroclinic_first_order_reduction():
    # g' = (1 - g^2)/sqrt 2, the first integral of the balanced double well
    g = oned.solve_heteroclinic(oned.allen_cahn())
    u, h = g.values, g.h
    du = (u[2:] - u[:-2]) / (2.0 * h)
    assert float(np.max(np.abs(du - (1.0 - u[1:-1] ** 2) / np.sqrt(2.0)))) < 1e-5


def test_heteroclinic_truncation_guard():
    with pytest.raises(oned.BadTruncation):
        oned.solve_heteroclinic(oned.allen_cahn(), L=8.0, n=1601)
    with pytest.raises(oned.BadTruncation):
        oned.solve_heteroclinic(oned.allen_cahn(), L=0.5, n=101)


def test_heteroclinic_rejects_unbalanced_state():
    nl = oned.Nonlinearity(f=lambda s: np.cos(s), f_prime=lambda s: -np.sin(s),
                           F=lambda s: np.sin(s), bound_M=1.0, family="Custom")
    with pytest.raises(ValueError):
        oned.solve_heteroclinic(nl)


def test_no_subsolution_below_eigenvalue_threshold():
    # f'(0) = lam must clear pi^2/4 + delta^2; lam = 2 and 2.4 sit below
    for lam in (2.0, 2.4):
        with pytest.raises(oned.NoSubsolution):
            oned.solve_strip_profile(oned.arctan_family(lam), 257)
    # just above the threshold a positive profile exists
    p = oned.solve_strip_profile(oned.arctan_family(2.6), 257)
    assert p.sample(0.0) > 0.0


def test_amplitude_rule():
    rate = np.pi ** 2 / 4.0 + 0.05 ** 2
    # lam = 4: 4*arctan(s) >= rate*s holds on all of (0, 1]
    assert oned.select_subsolution_amplitude(oned.arctan_family(4.0), rate) == 1.0
    # lam = 2.6: admissible only up to where 2.6*arctan(s)/s crosses rate
    nl = oned.arctan_family(2.6)
    eps = oned.select_subsolution_amplitude(nl, rate)
    assert 0.05 < eps < 1.0
    s = eps * np.linspace(1.0 / 512, 1.0, 512)
    assert float(np.min(nl.f(s) - rate * s)) >= -1e-12
    assert float(nl.f(1.10 * eps) - rate * 1.10 * eps) < 0.0


def test_picard_shift_covers_derivative_range():
    # -min f' on [0, 1] for s - s^3 is 2 (at s = 1), plus the 0.1 margin
    assert abs(oned.picard_shift(oned.allen_cahn(), 1.0) - 2.1) < 1e-9


@given(lam=st.floats(1e-3, 1e300), smax=st.floats(0.0, 1e300))
def test_arctan_shift_is_the_margin(lam, smax):
    # f' = lam/(1 + s^2) > 0, so s -> f(s) is monotone without a shift
    assert oned.picard_shift(oned.arctan_family(lam), smax) == 0.1


@pytest.mark.parametrize("start", ["sub", "super"])
def test_strip_profile_takes_at_most_40_sweeps(start):
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 2001, start=start)
    assert p.iterations <= 40


@pytest.mark.parametrize("start", ["sub", "super"])
def test_threshold_profile_finishes_well_inside_the_budget(start):
    # the amplitude rule admits only lam > pi^2/4 + delta^2 = 2.4699011, and
    # that margin keeps the sweep rate away from 1: the slowest admitted
    # run takes under a tenth of the float64 budget
    with pytest.raises(oned.NoSubsolution):
        oned.solve_strip_profile(oned.arctan_family(2.4699), 129)
    p = oned.solve_strip_profile(oned.arctan_family(2.46991), 129,
                                 start=start)
    assert p.iterations < oned.SWEEPS_1D // 10


def test_boundary_slope_exact_on_quadratics():
    x = np.linspace(-1.0, 1.0, 21)
    p = oned.Profile((-1.0, 1.0), 1.0 - x ** 2, 0.0, 1)
    lower, upper = p.boundary_derivatives
    assert abs(lower - 2.0) < 1e-12
    assert abs(upper + 2.0) < 1e-12


def test_profile_reads_its_dirichlet_pair_off_its_ends():
    p = oned.Profile((0.0, 1.0), [0.5, 0.7, 1.0], 0.0, 1)
    assert p.dirichlet == (0.5, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_linear_solve_refuses_a_right_side_that_is_not_finite():
    solver = oned._DirichletSolver((5,), (0.25,), 1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(oned.NonConvergence, match="not finite"):
            solver.solve(np.array([1.0, bad, 1.0]), np.zeros(5))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        oned._DirichletSolver((5,), (0.25,), np.inf)


@pytest.mark.parametrize("shape", [(2001,), (4001,), (383, 127), (319, 319),
                                   (159, 159)],
                         ids=lambda s: "x".join(map(str, s)))
def test_direct_sine_transform_is_scipy_fft_dstn(shape):
    from scipy.fft import dstn
    dst = oned._pocketfft_dst()
    x = np.random.default_rng(shape[0]).standard_normal(shape)
    assert dst(x).tobytes() == dstn(x, type=1, norm="ortho").tobytes()
    # a long double carries padding bytes that no transform writes, so
    # compare values and signs, not tobytes()
    xl = x.astype(np.longdouble) / 3
    got, want = dst(xl), dstn(xl, type=1, norm="ortho")
    assert got.dtype == want.dtype == np.longdouble
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sine_transform_falls_back_to_scipy_fft_with_the_same_bytes(
        tmp_path, monkeypatch):
    import scipy.fft
    # the same relative --out from two directories: the bundle records it
    args = ["solve", "strip", "--L", "6", "--nx", "97", "--ny", "33",
            "--out", "run"]
    for side in ("direct", "fallback"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "direct")
    monkeypatch.setattr(oned, "_DST", None)
    assert cli.main(args) == 0

    def unloadable():
        raise ImportError("no pocketfft extension at the expected path")

    real_dstn, calls = scipy.fft.dstn, []

    def dstn(*a, **kw):
        calls.append(kw)
        return real_dstn(*a, **kw)

    monkeypatch.setattr(scipy.fft, "dstn", dstn)
    monkeypatch.setattr(oned, "_pocketfft_dst", unloadable)
    monkeypatch.setattr(oned, "_DST", None)
    monkeypatch.chdir(tmp_path / "fallback")
    assert cli.main(args) == 0
    assert calls and all(kw == {"type": 1, "norm": "ortho"} for kw in calls)
    direct = tmp_path / "direct" / "run"
    fallback = tmp_path / "fallback" / "run"
    names = sorted(p.name for p in direct.iterdir())
    assert names == sorted(p.name for p in fallback.iterdir())
    for name in names:
        assert (fallback / name).read_bytes() == (direct / name).read_bytes()


def test_first_sine_transforms_on_two_threads_load_one_transform(
        monkeypatch):
    # verify solves the saddle on a worker while the main thread solves the
    # strip, so both can make the process's first transform together
    x = np.random.default_rng(3).standard_normal((9, 7))
    want = oned._dst1(x.copy())
    real, loads = oned._pocketfft_dst, []

    def slow_load():
        loads.append(threading.get_ident())
        time.sleep(0.05)  # the other thread arrives while this one loads
        return real()

    monkeypatch.setattr(oned, "_pocketfft_dst", slow_load)
    monkeypatch.setattr(oned, "_DST", None)
    both = threading.Barrier(2)
    got = [None, None]

    def first(k):
        both.wait()
        got[k] = oned._dst1(x.copy())

    threads = [threading.Thread(target=first, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(loads) == 1 and oned._DST is not None
    for g in got:
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def _reference_norm(a):
    # numpy's norm, rescaled by the largest magnitude where the sum of
    # squares overflows
    with np.errstate(over="ignore"):
        ref = float(np.linalg.norm(a))
    if not math.isfinite(ref):
        m = np.max(np.abs(a))
        ref = float(m * np.linalg.norm(a / m))
    return ref


_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-30, 1.0),
                     st.floats(-1.0, -1e-30))


@settings(max_examples=200)
@given(values=st.lists(_ENTRIES, min_size=1, max_size=200),
       scale=st.sampled_from([1e-100, 1.0, 1e100, 1e300]),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       rows=st.sampled_from([1, 2]))
def test_norm_matches_numpy_norm(values, scale, dtype, rows):
    # one einsum pass in place of the BLAS dot; entries near 1e300 take
    # the rescaled path, long doubles sum in their own precision
    values = values[:len(values) // rows * rows] or [0.0] * rows
    a = np.asarray(values, dtype=dtype).reshape(rows, -1) * dtype(scale) / 3
    got = oned._norm(a)
    assert type(got) is float and math.isfinite(got)
    ref = _reference_norm(a)
    if not a.any():
        assert got == 0.0
    assert abs(got - ref) <= 4.0 * math.sqrt(a.size) * np.finfo(float).eps * ref


def test_norm_of_zeros_and_of_entries_near_the_overflow():
    for dtype in (np.float64, np.longdouble):
        assert oned._norm(np.zeros((5, 3), dtype=dtype)) == 0.0
    big = np.full(100, 1e300)
    got = oned._norm(big)
    assert math.isfinite(got)
    assert abs(got - 1e301) <= 40.0 * np.finfo(float).eps * 1e301


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        oned.solve_strip_profile(oned.arctan_family(4.0), 4)
    with pytest.raises(ValueError):
        oned.arctan_family(-1.0)
    with pytest.raises(ValueError):
        oned.Profile((0.0, 1.0), [0.0, np.nan, 1.0], 0.0, 1)


def test_profile_values_frozen():
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 257)
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_profile_serialization(tmp_path):
    p = oned.solve_strip_profile(oned.arctan_family(4.0), 257)
    csv = tmp_path / "profile.csv"
    meta = tmp_path / "profile.json"
    oned.save_profile(p, csv, meta, extra={"family": "ArctanFamily"})
    header, cols = serialize.read_csv(csv)
    assert header == ["x", "value"]
    assert np.array_equal(cols[1], p.values)
    env = serialize.read_json(meta)
    assert env["n"] == 257
    assert env["family"] == "ArctanFamily"
    assert env["residual"] < 1e-10
    assert env["boundary_slopes"][0] == p.boundary_derivatives[0]
