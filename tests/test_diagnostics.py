"""Angle sets, curvature integrals, the two wall-functional routes,
classification, and stability margins.

Numeric targets fall in three groups: exact identities (shear curvature,
scaling, bin rolls under quarter turns) asserted at rounding level;
quantities with an independent 1D oracle (wall slope, heteroclinic slope)
asserted at the catalog tolerances; and refinement behavior asserted as
ratios between solved grids.  The two expensive solves are shared through
module fixtures.
"""

import collections
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eulerlab import diagnostics as dg
from eulerlab import elliptic2d, flows, oned, serialize
from eulerlab import grid as g
from eulerlab.grid import ScalarField, VectorField

# boundary slope of the transverse profile at lambda = 4, frozen from the
# 1D solver at n = 16385 (Richardson-stable to 13 digits)
WALL_SLOPE = 3.342097151308673

HETEROCLINIC_SLOPE = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def strip_flow(cache):
    return cache.strip()[1]


@pytest.fixture(scope="module")
def saddle_flow(cache):
    return cache.saddle()[1]


def taylor_green(n):
    gr = g.Grid(g.TORUS, n, n, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    return flows.analytic_flow("TaylorGreen", gr)


def shear(name, nx=257, ny=65):
    gr = g.Grid(g.STRIP, nx, ny, (-4.0, 4.0), (-1.0, 1.0))
    return flows.analytic_flow(name, gr)


def transformed(flow, fn):
    """Flow with velocity samples mapped through fn, vorticity recomputed."""
    vx, vy = fn(flow.velocity.vx, flow.velocity.vy)
    gr = flow.grid
    om = ScalarField(gr, g.ddx(ScalarField(gr, vy)) - g.ddy(ScalarField(gr, vx)))
    return flows.Flow(gr, VectorField(gr, vx, vy), om)


def rotated(flow, alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return transformed(flow, lambda vx, vy: (c * vx - s * vy, s * vx + c * vy))


# ---------------------------------------------------------------------------
# angles and bins


def test_angle_reference_values():
    assert dg.angle_from(np.array([1.0, 0.0])) == 0.0
    assert dg.angle_from(np.array([0.0, 2.0])) == pytest.approx(np.pi / 2, abs=1e-15)
    assert dg.angle_from(np.array([-1.0, 1.0])) == pytest.approx(3 * np.pi / 4, abs=1e-15)


def test_angle_zero_vector_and_antipode():
    assert dg.angle_from(np.array([0.0, 0.0])) == 0.0
    # the seam case lands on +pi, not -pi, whatever the sign of the zero
    assert dg.angle_from(np.array([-3.0, 0.0])) == pytest.approx(np.pi, abs=0)
    assert dg.angle_from(np.array([-3.0, -0.0])) == pytest.approx(np.pi, abs=0)


def test_angle_vectorized():
    u = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [-2.0, 0.0]]])
    th = dg.angle_from(u)
    assert th.shape == (2, 2)
    assert th[0, 0] == 0.0
    assert th[0, 1] == pytest.approx(-np.pi / 2, abs=1e-15)
    assert th[1, 0] == pytest.approx(np.pi / 2, abs=1e-15)
    assert th[1, 1] == pytest.approx(np.pi, abs=0)


def test_bins_are_centered_on_their_labels():
    c = dg.bin_centers(360)
    assert c[0] == pytest.approx(-np.pi)
    assert c[180] == pytest.approx(0.0, abs=1e-15)
    w = 2.0 * np.pi / 360
    # angles up to half a width from a center fall in that center's bin
    assert dg._bin_index(np.array([0.0]), 360)[0] == 180
    assert dg._bin_index(np.array([0.49 * w]), 360)[0] == 180
    assert dg._bin_index(np.array([0.51 * w]), 360)[0] == 181
    # the seam bin collects both ends
    assert dg._bin_index(np.array([np.pi]), 360)[0] == 0
    assert dg._bin_index(np.array([-np.pi + 0.4 * w]), 360)[0] == 0


def test_semicircles_share_only_the_axis_bins():
    upper, lower, ends = dg.semicircle_bins(360)
    assert ends == {0, 180}
    assert upper & lower == ends
    assert len(upper) == 181 and len(lower) == 181


def test_stagnation_floor_tracks_mesh_and_shear():
    coarse = shear("Couette", nx=65, ny=17)
    fine = shear("Couette", nx=257, ny=65)
    assert dg.stagnation_floor(coarse) > dg.stagnation_floor(fine) > 0.0


# ---------------------------------------------------------------------------
# shear catalog: every curvature object vanishes identically


def test_shear_curvature_vanishes_exactly():
    for name in ("Couette", "Poiseuille", "Kolmogorov"):
        fl = shear(name)
        assert dg.total_curvature(fl) == 0.0
        assert dg.signed_curvature_integral(fl) == 0.0
        for _, val in dg.boundary_trace_Jinf(fl, [2.0, 4.0]):
            assert val == pytest.approx(0.0, abs=1e-15)
        assert dg.kappa_distribution(fl).total == 0.0


def test_shear_identity_residual_vanishes():
    for name in ("Couette", "Poiseuille"):
        r = dg.curvature_identity_residual(shear(name))
        assert np.max(r.values) <= 1e-18


def test_shear_verdict():
    fl = shear("Kolmogorov")
    verdict = dg.classify(dg.angle_set(fl), dg.total_curvature(fl))
    assert verdict == dg.Classification("Shear")


def test_couette_occupies_exactly_the_two_axis_bins():
    aset = dg.angle_set(shear("Couette"))
    assert list(aset.occupied_indices()) == [0, 180]
    # symmetric speed distribution: equal mass both ways
    assert aset.mass[0] == pytest.approx(aset.mass[180], rel=1e-12)


# ---------------------------------------------------------------------------
# strip flow at the reference grid


def test_strip_flow_is_upper_semicircle(strip_flow):
    aset = dg.angle_set(strip_flow)
    upper, lower, ends = dg.semicircle_bins(aset.n_bins)
    occ = set(aset.occupied_indices())
    assert occ >= upper
    assert occ & (lower - ends) == set()
    verdict = dg.classify(aset, dg.total_curvature(strip_flow))
    assert verdict.kind == "TypeIIIUpper"


def test_strip_total_curvature_matches_wall_oracle(strip_flow):
    target = np.pi * WALL_SLOPE ** 2
    tc = dg.total_curvature(strip_flow)
    assert abs(tc - target) / target < 0.03


def test_strip_two_routes_agree(strip_flow):
    js = dg.signed_curvature_integral(strip_flow)
    trace = dict(dg.boundary_trace_Jinf(strip_flow, [4.0, 6.0, 8.0]))
    gaps = {R: abs(trace[R] - js) / abs(js) for R in (4.0, 6.0, 8.0)}
    assert gaps[8.0] < 0.05
    assert gaps[8.0] <= gaps[4.0]


def test_strip_equality_gap_is_tight(strip_flow):
    tc = dg.total_curvature(strip_flow)
    js = dg.signed_curvature_integral(strip_flow)
    assert abs(2.0 / np.pi * tc - abs(js)) <= 1e-6 * (1.0 + tc)


def test_strip_kappa_profile(strip_flow):
    tc = dg.total_curvature(strip_flow)
    prof = dg.kappa_distribution(strip_flow)
    assert prof.n_bins == 64
    assert abs(prof.total - tc) <= 1e-10 * abs(tc)
    assert dg.semicircle_cv(prof, "upper") < 0.08
    upper, lower, ends = dg.semicircle_bins(prof.n_bins)
    assert prof.bin_mass[sorted(lower - ends)].sum() <= 1e-12 * tc


def test_strip_wall_limits_and_asymmetry_identity(strip_flow):
    wl = dg.wall_limits(strip_flow)
    (bl, br), (tl, tr) = wl["bottom"], wl["top"]
    for val in (bl, -br, -tl, tr):
        assert abs(val - WALL_SLOPE) / WALL_SLOPE < 0.01
    lhs = tr ** 2 - tl ** 2
    rhs = br ** 2 - bl ** 2
    scale = 0.5 * (tr ** 2 + tl ** 2)
    assert abs(lhs - rhs) <= 0.02 * scale


# ---------------------------------------------------------------------------
# half-plane saddle flow


def test_saddle_total_curvature_and_verdict(saddle_flow):
    target = np.pi / 4.0
    tc = dg.total_curvature(saddle_flow)
    assert abs(tc - target) / target < 0.05
    verdict = dg.classify(dg.angle_set(saddle_flow), tc)
    assert verdict.kind == "TypeIIIUpper"
    js = dg.signed_curvature_integral(saddle_flow)
    assert abs(2.0 / np.pi * tc - abs(js)) <= 1e-6 * (1.0 + tc)


def test_saddle_trace_route(saddle_flow):
    (_, val), = dg.boundary_trace_Jinf(saddle_flow, [12.0])
    assert abs(val - 0.5) / 0.5 < 0.07


def test_saddle_wall_is_nonincreasing(saddle_flow):
    wall = saddle_flow.velocity.vx[:, 0]
    dx = np.diff(wall) / saddle_flow.grid.hx
    assert dx.max() <= 1e-8


def test_saddle_wall_limits(saddle_flow):
    (left, right), = dg.wall_limits(saddle_flow).values()
    assert left > 0.0 > right
    assert abs(left + right) <= 0.02 * left
    assert abs(left - HETEROCLINIC_SLOPE) / HETEROCLINIC_SLOPE < 0.02


# ---------------------------------------------------------------------------
# torus flow: full circle, strict inequality, equal distribution


def test_taylor_green_total_curvature():
    tc = dg.total_curvature(taylor_green(256))
    assert abs(tc - 8.0 * np.pi) / (8.0 * np.pi) < 1e-3


def test_taylor_green_fills_every_bin():
    assert dg.angle_set(taylor_green(256)).occupied.all()


def test_taylor_green_equal_distribution():
    fl = taylor_green(512)
    tc = dg.total_curvature(fl)
    prof = dg.kappa_distribution(fl)
    cv = prof.bin_mass.std() / prof.bin_mass.mean()
    assert cv < 0.05
    assert abs(prof.bin_mass.mean() - tc / 64.0) <= 0.01 * tc / 64.0


def test_taylor_green_strict_gap():
    fl = taylor_green(256)
    tc = dg.total_curvature(fl)
    js = dg.signed_curvature_integral(fl)
    assert 2.0 / np.pi * tc - abs(js) > 0.1 * (2.0 / np.pi) * tc


def test_taylor_green_verdict_full_circle():
    fl = taylor_green(256)
    assert dg.classify(dg.angle_set(fl), dg.total_curvature(fl)).kind == "FullCircle"


# ---------------------------------------------------------------------------
# identity chain


def test_identity_residual_refines_second_order_torus():
    vals = [float(np.max(dg.curvature_identity_residual(
        taylor_green(n), speed_fraction=0.1).values)) for n in (128, 256, 512)]
    assert vals[0] / vals[2] >= 6.0
    assert vals[1] / vals[2] >= 2.8


def test_identity_residual_refines_on_solved_strip(strip_flow, cache):
    coarse = cache.strip(nx=385, ny=65)[1]
    r_coarse = float(np.max(dg.curvature_identity_residual(
        coarse, speed_fraction=0.1).values))
    r_fine = float(np.max(dg.curvature_identity_residual(
        strip_flow, speed_fraction=0.1).values))
    assert r_coarse / r_fine >= 2.5


def test_counterexample_identity_is_algebraically_exact():
    gr = g.Grid(g.PLANE, 129, 129, (-1.0, 1.0), (-1.0, 1.0))
    fl = flows.analytic_flow("ExponentialCounterexample", gr)
    r = dg.curvature_identity_residual(fl, derivatives="analytic")
    assert np.max(r.values) <= 1e-12


def test_identity_residual_mode_guard():
    with pytest.raises(ValueError):
        dg.curvature_identity_residual(shear("Couette"), derivatives="spectral")


# ---------------------------------------------------------------------------
# invariance under sample rotation and scaling


def test_rotation_preserves_total_curvature():
    fl = taylor_green(128)
    tc = dg.total_curvature(fl)
    tc_rot = dg.total_curvature(rotated(fl, 0.7))
    assert abs(tc_rot - tc) <= 1e-10 * tc


def test_quarter_turn_rolls_kappa_bins(strip_flow):
    prof = dg.kappa_distribution(strip_flow)
    prof_rot = dg.kappa_distribution(rotated(strip_flow, np.pi / 2.0))
    rolled = np.roll(prof.bin_mass, prof.n_bins // 4)
    assert np.abs(prof_rot.bin_mass - rolled).max() <= 1e-10
    tc = dg.total_curvature(strip_flow)
    assert abs(dg.total_curvature(rotated(strip_flow, 0.7)) - tc) <= 1e-12 * tc


def test_scaling_multiplies_curvature_by_c_squared(strip_flow):
    scaled = transformed(strip_flow, lambda vx, vy: (3.0 * vx, 3.0 * vy))
    tc = dg.total_curvature(strip_flow)
    assert abs(dg.total_curvature(scaled) - 9.0 * tc) <= 1e-12 * 9.0 * tc
    a0 = dg.angle_set(strip_flow)
    a1 = dg.angle_set(scaled)
    assert np.array_equal(a0.occupied, a1.occupied)
    v0 = dg.classify(a0, tc)
    v1 = dg.classify(a1, dg.total_curvature(scaled))
    assert v0 == v1


@pytest.fixture(scope="module")
def small_flows():
    return {"strip": elliptic2d.solve_type3_strip(L=6.0, nx=97, ny=33)[1],
            "torus": taylor_green(64),
            "saddle": elliptic2d.solve_saddle_quadrant(n=81)[1]}


def _steepest_axis_sets(flow, c, alpha):
    # the velocity samples scaled by c and turned by alpha
    v = flow.velocity
    ca, sa = c * np.cos(alpha), c * np.sin(alpha)
    vx, vy = ca * v.vx - sa * v.vy, sa * v.vx + ca * v.vy
    moved = flows.Flow(flow.grid, VectorField(flow.grid, vx, vy),
                       flow.vorticity)
    b = dg._bundle(moved)
    moving = np.sqrt(vx ** 2 + vy ** 2) > b.floor
    return b.floor, (moving, b.live, b.across_y, b.ridge_mass > 0.0)


@given(which=st.sampled_from(["strip", "torus", "saddle"]),
       log_c=st.floats(-3.0, 3.0), alpha=st.floats(-np.pi, np.pi))
def test_steepest_axis_sets_survive_scaling_and_rotation(small_flows, which,
                                                         log_c, alpha):
    # |d_x v| = |d_y v| holds exactly at every Taylor-Green node and on the
    # strip's x1 = 0 column, so the steepest-axis choice must not be left
    # to rounding there; the floor is built on the Frobenius norm of grad v,
    # so it turns with the flow up to rounding and no node crosses it
    flow = small_flows[which]
    floor0, base = _steepest_axis_sets(flow, 1.0, 0.0)
    ulp = np.finfo(float).eps
    for c, a in ((10.0 ** log_c, 0.0), (1.0, alpha), (10.0 ** log_c, alpha)):
        floor, sets = _steepest_axis_sets(flow, c, a)
        assert abs(floor - c * floor0) <= 4.0 * ulp * c * floor0
        for got, want in zip(sets, base):
            assert np.array_equal(got, want)


@given(st.integers(0, 2 ** 32 - 1), st.integers(-16, 16),
       st.integers(16, 720))
def test_power_of_two_scaling_is_exact_on_angle_sets(seed, k, n_bins):
    # 2**k scales every speed, partial and floor exactly (the floor stays
    # above its 1e-10 clamp for these k), so nothing may round differently
    rng = np.random.default_rng(seed)
    gr = g.Grid(g.PLANE, 16, 12, (-1.0, 1.0), (0.0, 1.0))
    vx, vy = rng.standard_normal((2,) + gr.shape)
    slow = rng.random(gr.shape) < 0.2  # below the stagnation floor
    vx, vy = np.where(slow, 1e-6 * vx, vx), np.where(slow, 1e-6 * vy, vy)
    c = 2.0 ** k
    still = ScalarField(gr, np.zeros(gr.shape))
    a0, a1 = (dg.angle_set(flows.Flow(gr, VectorField(gr, s * vx, s * vy),
                                      still), n_bins=n_bins)
              for s in (1.0, c))
    assert a1.stagnation_threshold == c * a0.stagnation_threshold
    assert a0.occupied.any()
    assert np.array_equal(a1.occupied, a0.occupied)
    assert np.array_equal(a1.mass, c * a0.mass)


# ---------------------------------------------------------------------------
# classification decision table


def occupancy(n, true_bins):
    occ = np.zeros(n, dtype=bool)
    occ[list(true_bins)] = True
    return dg.AngleSet(occ.astype(float), 1e-10)


def test_bin_counts_and_occupancy_are_read_off_the_mass():
    aset = dg.AngleSet(np.array([0.0, 2.0, 0.0, 1.0]), 1e-10)
    assert aset.n_bins == 4
    assert list(aset.occupied_indices()) == [1, 3]
    assert dg.CurvatureProfile(np.ones(16)).n_bins == 16


def test_classify_full_circle():
    assert dg.classify(occupancy(360, range(360)), 1.0).kind == "FullCircle"


def test_classify_semicircles_with_endpoint_slack():
    upper, lower, ends = dg.semicircle_bins(360)
    assert dg.classify(occupancy(360, upper), 1.0).kind == "TypeIIIUpper"
    assert dg.classify(occupancy(360, upper - ends), 1.0).kind == "TypeIIIUpper"
    assert dg.classify(occupancy(360, lower), 1.0).kind == "TypeIIILower"


def test_classify_fills_single_bin_holes_only():
    upper, lower, ends = dg.semicircle_bins(360)
    assert dg.classify(occupancy(360, upper - {250}), 1.0).kind == "TypeIIIUpper"
    assert dg.classify(occupancy(360, upper - {250, 251}), 1.0).kind == "Indeterminate"


def test_classify_arc_geometry():
    # arc of centers within 45 degrees of the +x axis
    occ = occupancy(360, range(135, 226))
    v = dg.classify(occ, 1.0)
    assert v.kind == "Arc"
    w = 2.0 * np.pi / 360
    assert v.beta == pytest.approx(0.5 * 269 * w)
    assert v.theta0 == pytest.approx(0.0, abs=1e-12)


def test_classify_shear_precedes_occupancy():
    assert dg.classify(occupancy(360, range(360)), 1e-12).kind == "Shear"


def test_classify_guards():
    with pytest.raises(ValueError):
        dg.Classification("Spiral")


def arc_bins(n, start, length, holes):
    """Occupancy of the circular run of bins start .. start + length - 1,
    emptied at the given interior offsets."""
    occ = np.zeros(n, dtype=bool)
    occ[(start + np.arange(length)) % n] = True
    occ[(start + np.asarray(holes, dtype=int)) % n] = False
    return occ


@st.composite
def bin_runs(draw, n, lengths):
    """One occupied run of bins with a length from ``lengths``, pierced by
    single-bin pinholes at odd offsets (both neighbours stay occupied, so
    classify fills every one of them)."""
    length = draw(st.sampled_from(lengths))
    holes = draw(st.sets(st.integers(0, max(length - 3, 0) // 2)))
    holes = [2 * h + 1 for h in holes if 2 * h + 1 <= length - 2]
    return draw(st.integers(0, n - 1)), length, holes


@st.composite
def occupancies(draw):
    """Bins of every verdict but Shear: a closed semicircle, maybe without
    its endpoint bins, one occupied run of any length, or any occupancy."""
    n = 2 * draw(st.integers(8, 90))
    shape = draw(st.sampled_from(["semicircle", "arc", "any"]))
    if shape == "any":
        return np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)))
    if shape == "arc":
        return arc_bins(n, *draw(bin_runs(n, range(1, n + 1))))
    # the closed lower semicircle is bins 0 .. n/2, the upper n/2 .. n
    start = draw(st.sampled_from([0, n // 2]))
    skip_first, skip_last = draw(st.booleans()), draw(st.booleans())
    _, length, holes = draw(bin_runs(n, [n // 2 + 1]))
    return arc_bins(n, start + skip_first,
                    length - skip_first - skip_last,
                    [h - skip_first for h in holes])


def rolled(occ, k):
    return dg.AngleSet(np.roll(occ, k).astype(float), 1e-10)


def angle_gap(a, b):
    """|a - b| measured around the circle."""
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


HALF_TURN = {"TypeIIIUpper": "TypeIIILower", "TypeIIILower": "TypeIIIUpper"}


@given(occupancies())
def test_half_turn_of_the_bins_swaps_the_semicircles(occ):
    n = len(occ)
    before = dg.classify(rolled(occ, 0), 1.0)
    after = dg.classify(rolled(occ, n // 2), 1.0)
    assert after.kind == HALF_TURN.get(before.kind, before.kind)
    if before.kind == "Arc":
        assert after.beta == before.beta
        assert angle_gap(after.theta0, before.theta0 + np.pi) < 1e-12


@given(st.integers(8, 90).flatmap(
    lambda m: st.tuples(st.just(2 * m), bin_runs(
        2 * m, [k for k in range(1, 2 * m - 1) if abs(k - m) > 1]))),
    st.integers(-1000, 1000))
def test_rolling_the_bins_turns_an_arc(arc, k):
    # runs of n/2 - 1 .. n/2 + 1 bins would be semicircles at some rolls
    n, (start, length, holes) = arc
    occ = arc_bins(n, start, length, holes)
    before = dg.classify(rolled(occ, 0), 1.0)
    after = dg.classify(rolled(occ, k), 1.0)
    assert before.kind == after.kind == "Arc"
    assert after.beta == before.beta
    assert angle_gap(after.theta0, before.theta0 + k * 2.0 * np.pi / n) < 1e-12


@given(st.integers(8, 90).flatmap(lambda m: st.tuples(
    st.just(2 * m), st.integers(0, 2 * m - 1),
    st.sampled_from([k for k in range(2, 2 * m) if abs(k - m) > 1]))))
def test_one_gap_is_an_arc_centred_opposite_it(gap):
    # a gap of n/2 - 1 .. n/2 + 1 bins can leave a semicircle occupied
    n, start, length = gap
    occ = np.ones(n, dtype=bool)
    occ[(start + np.arange(length)) % n] = False
    v = dg.classify(dg.AngleSet(occ.astype(float), 1e-10), 1.0)
    assert v.kind == "Arc"
    assert v.beta == pytest.approx(length * np.pi / n, rel=1e-14)
    # the gap's middle bin sits at angle (start + (length - 1)/2) w - pi
    w = 2.0 * np.pi / n
    assert angle_gap(v.theta0, (start + 0.5 * (length - 1)) * w) < 1e-12


def test_classification_value_semantics():
    a = dg.Classification("Arc", beta=0.5, theta0=1.0)
    assert a == dg.Classification("Arc", beta=0.5, theta0=1.0)
    assert a != dg.Classification("Arc", beta=0.6, theta0=1.0)
    assert "Arc" in repr(a)
    assert a.to_dict() == {"kind": "Arc", "beta": 0.5, "theta0": 1.0}


# ---------------------------------------------------------------------------
# stability margins


def axis_profile(values_fn, ny=65):
    y = np.linspace(-1.0, 1.0, ny)
    vals = values_fn(y)
    return oned.Profile((-1.0, 1.0), vals, 0.0, 0)


def test_margin_poiseuille_against_parabola():
    m = dg.stability_margin(shear("Poiseuille"), axis_profile(lambda y: y * y))
    assert m == pytest.approx(2.0, abs=1e-10)


def test_margin_couette_is_inapplicable():
    m = dg.stability_margin(shear("Couette"), axis_profile(lambda y: y))
    assert m == pytest.approx(0.0, abs=1e-10)


def test_margin_kolmogorov_is_negative():
    m = dg.stability_margin(shear("Kolmogorov"), axis_profile(lambda y: y * y))
    assert m < 0.0
    assert abs(m + np.pi ** 2) < 0.01 * np.pi ** 2


def test_margin_requires_strip():
    prof = axis_profile(lambda y: y * y)
    with pytest.raises(dg.NotAStripGrid):
        dg.stability_margin(taylor_green(128), prof)


# ---------------------------------------------------------------------------
# trace-route guards


def test_trace_rejects_radius_beyond_domain(strip_flow):
    with pytest.raises(dg.RTooLarge):
        dg.boundary_trace_Jinf(strip_flow, [13.0])


def test_trace_rejects_bad_radii(strip_flow, saddle_flow):
    with pytest.raises(ValueError):
        dg.boundary_trace_Jinf(strip_flow, [-1.0])
    with pytest.raises(ValueError):
        dg.boundary_trace_Jinf(saddle_flow, [0.5])


def test_trace_needs_walls():
    from eulerlab.grid import GridError
    with pytest.raises(GridError):
        dg.boundary_trace_Jinf(taylor_green(128), [2.0])


def test_kappa_bin_floor():
    with pytest.raises(ValueError):
        dg.kappa_distribution(shear("Couette"), n_bins=8)


def test_direction_bin_floor():
    # below 16 bins an empty half-circle can shrink to one pinhole bin,
    # which classify fills (the strip flow read FullCircle at 4 bins)
    for n_bins in (1, 2, 4, 15):
        with pytest.raises(ValueError, match="at least 16 bins"):
            dg.angle_set(shear("Couette"), n_bins=n_bins)
    assert dg.angle_set(shear("Couette"), n_bins=16).n_bins == 16


# ---------------------------------------------------------------------------
# report assembly and serialization


def test_report_fields_and_gap(strip_flow):
    rep = dg.run_diagnostics(strip_flow)
    assert rep.verdict.kind == "TypeIIIUpper"
    assert rep.lower_bound_gap == pytest.approx(
        2.0 / np.pi * rep.total_curvature - abs(rep.J_inf_signed), abs=1e-15)
    assert len(rep.J_inf_trace) == 3
    assert rep.kappa_cv_upper < 0.08
    assert rep.kappa_cv_lower == 0.0
    assert np.isfinite(rep.identity_residual_max)


def test_report_on_torus_has_no_trace():
    rep = dg.run_diagnostics(taylor_green(128))
    assert rep.J_inf_trace == []
    assert rep.lower_bound_gap > 0.0


def test_report_serialization(tmp_path, strip_flow):
    rep = dg.run_diagnostics(strip_flow)
    path = tmp_path / "report.json"
    dg.save_report(rep, path)
    back = json.loads(path.read_text())
    assert back["schema_version"] == serialize.SCHEMA_VERSION
    assert back["verdict"]["kind"] == "TypeIIIUpper"
    assert back["total_curvature"] == pytest.approx(rep.total_curvature)
    assert len(back["J_inf_trace"]) == 3


def test_angle_set_csv(tmp_path, strip_flow):
    aset = dg.angle_set(strip_flow)
    path = tmp_path / "angles.csv"
    dg.save_angle_set(aset, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_center,mass,occupied"
    assert len(lines) == 1 + aset.n_bins


def test_curvature_profile_csv(tmp_path, strip_flow):
    prof = dg.kappa_distribution(strip_flow)
    path = tmp_path / "kappa.csv"
    dg.save_curvature_profile(prof, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_center,mass,occupied"
    assert len(lines) == 1 + prof.n_bins


def test_report_keeps_the_sets_it_was_built_from(strip_flow):
    # one bundle per flow inside run_diagnostics reproduces the standalone
    # public diagnostics bit for bit
    rep = dg.run_diagnostics(strip_flow, bins=180, kappa_bins=32)
    aset = dg.angle_set(strip_flow, n_bins=180)
    prof = dg.kappa_distribution(strip_flow, 32)
    assert np.array_equal(rep.angle_set.mass, aset.mass)
    floor = dg.stagnation_floor(strip_flow)
    assert rep.angle_set.stagnation_threshold == floor
    assert np.array_equal(rep.kappa_profile.bin_mass, prof.bin_mass)
    assert rep.total_curvature == dg.total_curvature(strip_flow)
    assert rep.J_inf_signed == dg.signed_curvature_integral(strip_flow)
    resid = dg.curvature_identity_residual(strip_flow)
    interior = strip_flow.grid.interior_mask()
    assert rep.identity_residual_max == float(resid.values[interior].max())
    assert "angle_set" not in rep.to_dict()


def test_run_diagnostics_composes_the_public_readings(monkeypatch):
    # counting wrappers on the module attributes, as the benchmark tracer
    # installs them: the report takes one call of each public reading, and
    # two gradient passes, the velocity's and the identity residual's unit
    # field, the first of which also builds the bundle
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    readers = ("angle_set", "total_curvature", "signed_curvature_integral",
               "kappa_distribution", "curvature_identity_residual")
    for name in readers:
        count(dg, name)
    count(g, "vector_gradient")
    dg.run_diagnostics(taylor_green(64))
    assert calls == dict(dict.fromkeys(readers, 1), vector_gradient=2)


# ---------------------------------------------------------------------------
# the curvature bundle kept on the flow


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def catalog_grid(kind):
    if kind == g.STRIP:
        return g.Grid(g.STRIP, 257, 65, (-4.0, 4.0), (-1.0, 1.0))
    if kind == g.TORUS:
        return g.Grid(g.TORUS, 128, 128, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    return g.Grid(g.PLANE, 129, 129, (-1.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("name", flows.ANALYTIC_NAMES)
def test_stagnation_floor_is_the_bundle_floor_bit_for_bit(name):
    fl = flows.analytic_flow(name, catalog_grid(flows._CATALOG[name][0]))
    floor = dg.stagnation_floor(fl)
    assert bits(dg._bundle(fl).floor) == bits(floor)
    assert bits(dg.angle_set(fl).stagnation_threshold) == bits(floor)


def drawn_velocity(kind, nx, ny, seed):
    """Grid and node velocity of a drawn torus or strip flow: a transverse
    shear with a weak crossflow, so its zero rows hold sub-cell bands."""
    rng = np.random.default_rng(seed)
    if kind == "torus":
        gr = g.Grid(g.TORUS, nx, ny, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    else:
        gr = g.Grid(g.STRIP, nx, ny, (-4.0, 4.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    k, m = rng.integers(1, 4, size=2)
    a, p, q = rng.uniform(-1.0, 1.0, size=3)
    eps = 10.0 ** rng.uniform(-4.0, 0.0)
    vx = np.sin(k * Y + p) + 0.2 * a * np.sin(X)
    vy = eps * np.cos(m * X + q)
    return gr, vx, vy


def bare_flow(gr, vx, vy):
    return flows.Flow(gr, VectorField(gr, vx, vy),
                      ScalarField(gr, np.zeros(gr.shape)))


CURVATURE_READERS = (
    dg.total_curvature,
    dg.signed_curvature_integral,
    lambda fl: dg.kappa_distribution(fl).bin_mass,
    lambda fl: np.append(dg.angle_set(fl).mass,
                         dg.angle_set(fl).stagnation_threshold),
    lambda fl: dg.curvature_identity_residual(fl).values,
)


def readings(fl):
    return [bits(read(fl)) for read in CURVATURE_READERS]


@given(st.sampled_from(["torus", "strip"]), st.integers(12, 40),
       st.integers(12, 40), st.integers(0, 2 ** 32 - 1))
def test_kept_bundle_serves_the_bits_of_a_first_call(kind, nx, ny, seed):
    gr, vx, vy = drawn_velocity(kind, nx, ny, seed)
    # each reader on a flow of its own is a first call that builds a bundle
    first = [bits(read(bare_flow(gr, vx, vy))) for read in CURVATURE_READERS]
    fl = bare_flow(gr, vx, vy)
    assert readings(fl) == first  # the first reader builds, the rest hit
    assert readings(fl) == first  # every reader hits
    kept = fl._curvature_bundle
    fl.velocity = VectorField(gr, vx.copy(), vy.copy())
    assert readings(fl) == first
    assert fl._curvature_bundle is not kept
    # new values: the kept bundle is never served for them
    wx, wy = vx + 0.5 * vy, vy - 0.25 * vx ** 2
    fl.velocity = VectorField(gr, wx, wy)
    again = readings(fl)
    assert again == readings(bare_flow(gr, wx, wy))
    assert again != first
