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
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def angle_of(vec):
    """_angle of one vector (u1, u2), as a float."""
    return float(dg._angle(np.array([vec[0]]), np.array([vec[1]]))[0])


def test_angle_reference_values():
    assert angle_of((1.0, 0.0)) == 0.0
    assert angle_of((0.0, 2.0)) == pytest.approx(np.pi / 2, abs=1e-15)
    assert angle_of((-1.0, 1.0)) == pytest.approx(3 * np.pi / 4, abs=1e-15)


def test_angle_zero_vector_and_antipode():
    assert angle_of((0.0, 0.0)) == 0.0
    # the seam case lands on +pi, not -pi, whatever the sign of the zero
    assert angle_of((-3.0, 0.0)) == pytest.approx(np.pi, abs=0)
    assert angle_of((-3.0, -0.0)) == pytest.approx(np.pi, abs=0)


def test_angle_vectorized():
    u = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [-2.0, 0.0]]])
    th = dg._angle(u[..., 0], u[..., 1])
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
    upper, lower = dg.semicircle_bins(360)
    assert list(np.flatnonzero(upper & lower)) == [0, 180]
    assert upper.sum() == 181 and lower.sum() == 181


def reference_semicircles(n_bins):
    """The closed semicircles by the sign of each bin centre's sine, and the
    open ones as the bins whose whole width lies strictly inside, each with
    a 1e-12 slack: the float rules the bin-rule masks replaced."""
    theta = dg.bin_centers(n_bins)
    s = np.sin(theta)
    opened = []
    for sign in (1.0, -1.0):
        lo = sign * theta - np.pi / n_bins
        hi = sign * theta + np.pi / n_bins
        opened.append((lo > 1e-12) & (hi < np.pi - 1e-12))
    return s >= -1e-12, s <= 1e-12, opened[0], opened[1]


def test_semicircle_masks_follow_the_bin_rule():
    # at an even bin count the masks are the float rules' sets; at an odd
    # one (1, 0) sits on a bin edge, and the masks differ from them only in
    # the bin m that _bin_index gives it, which both closed masks hold, and
    # one open mask gains the bin next to m across the axis
    for n in range(16, 4097):
        upper, lower = dg.semicircle_bins(n)
        ref_upper, ref_lower, ref_open_upper, ref_open_lower = \
            reference_semicircles(n)
        m = int(dg._bin_index(np.array([0.0]), n)[0])
        assert dg._bin_index(np.array([-np.pi, np.pi]), n).tolist() == [0, 0]
        assert upper[0] and upper[m] and lower[0] and lower[m]
        differ = (upper != ref_upper) | (lower != ref_lower)
        open_upper, open_lower = upper & ~lower, lower & ~upper
        gained = (open_upper & ~ref_open_upper) | (open_lower & ~ref_open_lower)
        assert not (ref_open_upper & ~open_upper).any()
        assert not (ref_open_lower & ~open_lower).any()
        if n % 2 == 0:
            assert not differ.any() and not gained.any(), n
        else:
            assert np.flatnonzero(differ).tolist() == [m], n
            assert np.flatnonzero(gained).tolist() in ([m - 1], [m + 1]), n


def mirrored(flow):
    """The flow read with the x2 axis reversed: (v1, -v2) at the mirror
    node, so every flow angle changes sign."""
    return transformed(flow, lambda vx, vy: (vx[:, ::-1], -vy[:, ::-1]))


def test_semicircle_verdicts_hold_at_every_bin_count(strip_flow):
    # odd counts put (1, 0) on a bin edge: the float rules read these flows
    # as Arc at 17, 361, 363 and 1441 bins and their mirrors at 19 and 1443
    upper_flows = [strip_flow,
                   elliptic2d.solve_type3_strip(L=6.0, nx=97, ny=33)[1],
                   elliptic2d.solve_saddle_quadrant(n=81)[1]]
    for n_bins in (16, 17, 18, 19, 90, 360, 361, 363, 1440, 1441, 1443):
        for fl in upper_flows:
            tc = dg.total_curvature(fl)
            assert dg.classify(dg.angle_set(fl, n_bins), tc).kind \
                == "TypeIIIUpper", n_bins
        for fl in upper_flows[:2]:
            fl = mirrored(fl)
            assert dg.classify(dg.angle_set(fl, n_bins),
                               dg.total_curvature(fl)).kind \
                == "TypeIIILower", n_bins


def test_semicircle_cv_reads_the_open_mask_at_odd_bin_counts():
    # (1, 0) lands in bin 8 of 17 and bin 10 of 19; the open semicircles
    # take bin 9 too, whose edge touches the axis but whose directions lie
    # strictly inside
    for n_bins, side, bins in ((17, "upper", range(9, 17)),
                               (17, "lower", range(1, 8)),
                               (19, "upper", range(11, 19)),
                               (19, "lower", range(1, 10))):
        upper, lower = dg.semicircle_bins(n_bins)
        inside = upper & ~lower if side == "upper" else lower & ~upper
        assert np.flatnonzero(inside).tolist() == list(bins)
        mass = np.ones(n_bins)
        mass[9] = 3.0
        vals = mass[list(bins)]
        cv = dg.semicircle_cv(dg.CurvatureProfile(mass), side)
        assert cv == float(vals.std() / vals.mean())
    assert dg.semicircle_cv(dg.CurvatureProfile(np.zeros(17)), "upper") == 0.0


def reference_angle_body(u1, u2):
    """_angle as it was written before it took the caller's speed."""
    out = np.hypot(u1, u2)
    moving = out > 0.0
    np.divide(u1, out, out=out, where=moving)
    np.clip(out, -1.0, 1.0, out=out)
    np.arccos(out, out=out)
    np.negative(out, out=out, where=u2 < 0.0)
    np.copyto(out, 0.0, where=~moving)
    return out


def test_angle_from_the_callers_speed_keeps_every_bit():
    # every pair of zeros of both signs, antipodes, subnormals, huge and
    # non-finite components, and the speed it is given left as it was
    vals = np.array([0.0, -0.0, 1.0, -1.0, 3.0, -3.0, 5e-324, -5e-324,
                     1e-300, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan])
    u1, u2 = (a.ravel() for a in np.meshgrid(vals, vals))
    want = flagged(lambda: reference_angle_body(u1, u2))
    assert flagged(lambda: dg._angle(u1, u2, np.hypot(u1, u2))) == want
    assert flagged(lambda: dg._angle(u1, u2)) == want
    with np.errstate(all="ignore"):
        speed = np.hypot(u1, u2)
        kept = bits(speed)
        dg._angle(u1, u2, speed)
    assert bits(speed) == kept


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
    assert list(np.flatnonzero(aset.occupied)) == [0, 180]
    # symmetric speed distribution: equal mass both ways
    assert aset.mass[0] == pytest.approx(aset.mass[180], rel=1e-12)


# ---------------------------------------------------------------------------
# strip flow at the reference grid


def test_strip_flow_is_upper_semicircle(strip_flow):
    aset = dg.angle_set(strip_flow)
    upper, _ = dg.semicircle_bins(aset.n_bins)
    # the closed upper semicircle, both endpoint bins included
    assert np.array_equal(aset.occupied, upper)
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
    upper, lower = dg.semicircle_bins(prof.n_bins)
    assert prof.bin_mass[lower & ~upper].sum() <= 1e-12 * tc


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
# the flow angles of the continuous direction field: a live node's bin and
# the arc swept between live neighbours that turn by at most pi/2


@settings(max_examples=10)
@given(st.integers(16, 512), st.integers(90, 1440))
@example(512, 1440)
@example(64, 360)
def test_taylor_green_reads_full_circle_on_every_torus(n, n_bins):
    # the paper's first theorem: a bounded non-shear flow has the whole
    # circle; node bins alone left coarse tori and fine bins Indeterminate
    fl = taylor_green(n)
    verdict = dg.classify(dg.angle_set(fl, n_bins), dg.total_curvature(fl))
    assert verdict.kind == "FullCircle"


@settings(max_examples=20)
@given(st.floats(1.0, 10.0), st.integers(90, 1440))
@example(10.0, 360)
@example(1.0, 1324)
def test_counterexample_reads_its_arc_on_65_nodes(L, n_bins):
    # 65 rows give fewer node directions than the arc has bins; the swept
    # arcs fill it, and the gap half-width misses pi - atan(L) by at most
    # the one bin that its two partly covered edge bins can take (an exact
    # tie at L = 1, 1324 bins lands on the bound to rounding)
    fl = flows.analytic_flow("ExponentialCounterexample",
                             g.Grid(g.PLANE, 65, 65, (-L, L), (-L, L)))
    verdict = dg.classify(dg.angle_set(fl, n_bins), dg.total_curvature(fl))
    assert verdict.kind == "Arc"
    width = 2.0 * np.pi / n_bins
    assert abs(verdict.beta - (np.pi - np.arctan(L))) <= width * (1.0 + 1e-9)


def test_neighbours_sweep_the_arc_between_them_unless_opposed():
    # two live nodes a half turn apart occupy their own bins only, and a
    # quarter turn sweeps the bins between them; a bounded edge has no pair
    # beyond it, while the torus wraps
    def occupied_bins(kind, east):
        gr = {"plane": g.Grid(g.PLANE, 9, 8, (-1.0, 1.0), (-1.0, 1.0)),
              "torus": g.Grid(g.TORUS, 9, 8, (0.0, 2.0 * np.pi),
                              (0.0, 2.0 * np.pi))}[kind]
        vx, vy = np.zeros(gr.shape), np.zeros(gr.shape)
        vx[4, 3], vx[4, 4] = 1.0, -1.0  # opposed along y
        vy[0, 0], vx[east, 0] = 1.0, 1.0  # a quarter turn along x
        aset = dg.angle_set(bare_flow(gr, vx, vy), 16)
        assert list(np.flatnonzero(aset.mass)) == [0, 8, 12]
        return list(np.flatnonzero(aset.occupied))

    assert occupied_bins("plane", 1) == [0, 8, 9, 10, 11, 12]
    # the same quarter turn across the x axis's ends
    assert occupied_bins("plane", 8) == [0, 8, 12]
    assert occupied_bins("torus", 8) == [0, 8, 9, 10, 11, 12]


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
    r = dg.closed_form_identity_residual(fl)
    assert np.max(r.values) <= 1e-12
    fl.closed_form = None
    with pytest.raises(ValueError, match="no closed-form evaluators"):
        dg.closed_form_identity_residual(fl)


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


def occupied(occ):
    """An AngleSet that occupies the bins where ``occ`` is true."""
    occ = np.asarray(occ, dtype=bool)
    return dg.AngleSet(occ.astype(float), occ, 1e-10)


def occupancy(n, true_bins):
    occ = np.zeros(n, dtype=bool)
    occ[list(true_bins)] = True
    return occupied(occ)


def test_bin_counts_and_occupancy_are_kept_as_given():
    # a bin may be occupied with no node mass: an arc swept between nodes
    aset = dg.AngleSet(np.array([0.0, 2.0, 0.0, 1.0]),
                       np.array([False, True, True, True]), 1e-10)
    assert aset.n_bins == 4
    assert list(np.flatnonzero(aset.occupied)) == [1, 2, 3]
    assert dg.CurvatureProfile(np.ones(16)).n_bins == 16


def test_classify_full_circle():
    assert dg.classify(occupancy(360, range(360)), 1.0).kind == "FullCircle"


def test_classify_semicircle_needs_both_endpoint_bins():
    upper, lower = dg.semicircle_bins(360)
    assert dg.classify(occupied(upper), 1.0).kind == "TypeIIIUpper"
    assert dg.classify(occupied(lower), 1.0).kind == "TypeIIILower"
    for side in (upper, lower):
        for end in np.flatnonzero(upper & lower):
            # the rest of a closed semicircle is one run of n/2 bins
            occ = side.copy()
            occ[end] = False
            assert dg.classify(occupied(occ), 1.0).kind == "Arc"
    # one empty bin inside is a gap too
    occ = upper.copy()
    occ[250] = False
    assert dg.classify(occupied(occ), 1.0).kind == "Indeterminate"


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


def arc_bins(n, start, length):
    """Occupancy of the circular run of bins start .. start + length - 1."""
    occ = np.zeros(n, dtype=bool)
    occ[(start + np.arange(length)) % n] = True
    return occ


def bin_runs(n, lengths):
    """(start, length) of one occupied run of bins, its length from
    ``lengths``."""
    return st.tuples(st.integers(0, n - 1), st.sampled_from(lengths))


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
    return arc_bins(n, start + skip_first, n // 2 + 1 - skip_first - skip_last)


def rolled(occ, k):
    return occupied(np.roll(occ, k))


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
    n, (start, length) = arc
    occ = arc_bins(n, start, length)
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
    v = dg.classify(occupied(occ), 1.0)
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
    # a half circle needs many bins: at 2 the strip flow reads FullCircle,
    # and at 3 so does the counterexample on plane:3 and plane:10
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
    # one gradient pass of the velocity, which also builds the bundle (the
    # identity residual differences its unit field one component and one
    # axis at a time)
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
    assert calls == dict(dict.fromkeys(readers, 1), vector_gradient=1)


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


# ---------------------------------------------------------------------------
# the bundle and the identity residual in a bounded working set


def reference_diff1(v, h, axis, periodic):
    """The first difference with the torus's neighbours taken from shifted
    copies (np.roll): the bits the sliced, in-place stencil keeps."""
    if periodic:
        return (np.roll(v, -1, axis) - np.roll(v, 1, axis)) / (2.0 * h)
    out = np.empty_like(v)
    w, o = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (w[2:] - w[:-2]) / (2.0 * h)
    o[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
    o[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
    return out


def reference_gradient(f):
    """grid.gradient on :func:`reference_diff1`, validated as a field."""
    gr = f.grid
    return VectorField(gr, reference_diff1(f.values, gr.hx, 0, gr.periodic),
                       reference_diff1(f.values, gr.hy, 1, gr.periodic))


def reference_vector_gradient(w):
    gr = w.grid
    return tuple(reference_diff1(a, h, axis, gr.periodic)
                 for a in (w.vx, w.vy)
                 for h, axis in ((gr.hx, 0), (gr.hy, 1)))


def reference_build_bundle(flow, grads):
    """The curvature bundle written one expression per line, every
    temporary alive until the return: the bits the in-place build keeps."""
    gr = flow.grid
    v = flow.velocity
    v1x, v1y, v2x, v2y = grads
    cx = v.vx * v2x - v.vy * v1x
    cy = v.vx * v2y - v.vy * v1y
    speed2 = v.vx ** 2 + v.vy ** 2
    speed = np.sqrt(speed2)
    gx2, gy2, g2, g2max = dg._gradient_norms2(grads)
    floor = dg._diagnostics_floor(dg._cell_speed(gr, g2max))
    across_y = gy2 >= gx2 - 1e-9 * g2max
    hn = np.where(across_y, gr.hy, gr.hx)
    moving = speed > floor
    censored = moving & (speed <= hn * np.sqrt(g2))
    live = moving & ~censored
    dens = np.where(live, (cx ** 2 + cy ** 2) / np.where(live, speed2, 1.0), 0.0)
    wq = g.quadrature_weights(gr)
    mass = dens * wq
    px, py = gr.pad(v.vx, 0.0), gr.pad(v.vy, 0.0)
    dot_x = px[2:, 1:-1] * px[:-2, 1:-1] + py[2:, 1:-1] * py[:-2, 1:-1]
    dot_y = px[1:-1, 2:] * px[1:-1, :-2] + py[1:-1, 2:] * py[1:-1, :-2]
    ridge = censored & (np.where(across_y, dot_y, dot_x) < 0.0)
    ridge_mass = np.where(ridge, np.pi * np.hypot(cx, cy) * wq / hn, 0.0)
    return dg._Bundle(v, floor, mass, live, ridge_mass, across_y)


def reference_identity_residual(flow, derivatives, speed_fraction):
    """The identity residual with all its expressions alive in one list and
    reduced at the end, its floor from :func:`reference_build_bundle`."""
    grads = reference_vector_gradient(flow.velocity)
    floor = reference_build_bundle(flow, grads).floor
    gr = flow.grid
    if derivatives == "fd":
        v = flow.velocity
        v1, v2 = v.vx, v.vy
        v1x, v1y, v2x, v2y = grads
        pgrads = None
        if flow.pressure is not None:
            pg = reference_gradient(flow.pressure)
            pgrads = (pg.vx, pg.vy)
    else:
        X, Y = gr.mesh()
        cf = flow.closed_form
        v1, v2 = cf["v1"](X, Y), cf["v2"](X, Y)
        v1x, v1y = cf["v1_x"](X, Y), cf["v1_y"](X, Y)
        v2x, v2y = cf["v2_x"](X, Y), cf["v2_y"](X, Y)
        pgrads = (cf["P_x"](X, Y), cf["P_y"](X, Y))

    speed2 = v1 ** 2 + v2 ** 2
    speed = np.sqrt(speed2)
    if derivatives == "fd":
        floor = max(floor, speed_fraction * float(speed.max()))
    live = speed > floor
    denom2 = np.where(live, speed2, 1.0)

    grad_v2 = v1x ** 2 + v1y ** 2 + v2x ** 2 + v2y ** 2
    if derivatives == "fd":
        gs = reference_gradient(ScalarField(gr, speed))
        grad_speed2 = gs.vx ** 2 + gs.vy ** 2
        unit = np.where(live, 1.0, 0.0) / np.where(live, speed, 1.0)
        w = VectorField(gr, v1 * unit, v2 * unit)
        w1x, w1y, w2x, w2y = reference_vector_gradient(w)
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
    spread = reduce(np.maximum, exprs) - reduce(np.minimum, exprs)
    dead = gr.pad(~live, False)
    spread[dead[1:-1, 1:-1] | dead[2:, 1:-1] | dead[:-2, 1:-1]
           | dead[1:-1, 2:] | dead[1:-1, :-2]] = 0.0
    return ScalarField(gr, spread)


def reference_angle_from(u):
    """The angle of a vector from e1 as it was written on a stacked (..., 2)
    array."""
    u = np.asarray(u, dtype=float)
    scalar = u.shape == (2,)
    u1, u2 = u[..., 0], u[..., 1]
    mag = np.hypot(u1, u2)
    safe = np.where(mag > 0.0, mag, 1.0)
    core = np.arccos(np.clip(u1 / safe, -1.0, 1.0))
    sign = np.where(u2 < 0.0, -1.0, 1.0)
    out = np.where(mag > 0.0, sign * core, 0.0)
    return float(out) if scalar else out


def reference_bundle(flow):
    return reference_build_bundle(flow,
                                  reference_vector_gradient(flow.velocity))


def reference_angle_set(flow, n_bins):
    """angle_set's mass and floor as written on a stacked copy."""
    threshold = reference_bundle(flow).floor
    v = flow.velocity
    speed = np.hypot(v.vx, v.vy)
    live = speed > threshold
    theta = reference_angle_from(np.stack([v.vx[live], v.vy[live]], axis=-1))
    idx = dg._bin_index(theta, n_bins)
    mass = np.bincount(idx, weights=speed[live], minlength=n_bins)
    return np.append(mass, threshold)


def reference_occupancy(flow, n_bins):
    """angle_set's occupied bins by their definition, pair by pair: each
    live node's bin, and the bins strictly between those of two live
    neighbours along an axis with v . v' >= 0, the shorter way round."""
    v = flow.velocity
    live = np.hypot(v.vx, v.vy) > reference_bundle(flow).floor
    idx = dg._bin_index(reference_angle_from(np.stack([v.vx, v.vy], axis=-1)),
                        n_bins)
    occ = np.zeros(n_bins, dtype=bool)
    occ[idx[live]] = True
    for axis in (0, 1):
        def nxt(a):
            return np.roll(a, -1, axis)
        pair = (live & nxt(live)
                & (nxt(v.vx) * v.vx + nxt(v.vy) * v.vy >= 0.0))
        if not flow.grid.periodic:
            np.moveaxis(pair, axis, 0)[-1] = False
        for a, b in zip(idx[pair].tolist(), nxt(idx)[pair].tolist()):
            step = (b - a + n_bins // 2) % n_bins - n_bins // 2
            for j in range(1, abs(step)):
                occ[(min(a, a + step) + j) % n_bins] = True
    return occ


def reference_kappa_distribution(flow, n_bins):
    """kappa_distribution's bin masses with both axes' arcs formed from
    rolled copies and every temporary alive until the return."""
    b = reference_bundle(flow)
    gr = flow.grid
    live, ridge_mass, across_y = b.live, b.ridge_mass, b.across_y
    v = flow.velocity
    width = 2.0 * np.pi / n_bins
    theta = reference_angle_from(np.stack([v.vx, v.vy], axis=-1))

    def wrap(a):
        return (a + np.pi) % (2.0 * np.pi) - np.pi

    def voronoi_arc(axis):
        up = wrap(np.roll(theta, -1, axis) - theta)
        dn = wrap(np.roll(theta, 1, axis) - theta)
        if not gr.periodic:
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
    node_mass = b.mass
    point = live & (span <= width)
    wide = live & ~point
    idx = dg._bin_index(theta[point], n_bins)
    mass = np.bincount(idx, weights=node_mass[point], minlength=n_bins)
    ridge = ridge_mass > 0.0
    starts = np.concatenate([(center[wide] - 0.5 * span[wide]).ravel(),
                             (theta[ridge] - 0.5 * np.pi).ravel()])
    spans = np.concatenate([span[wide].ravel(),
                            np.full(int(ridge.sum()), np.pi)])
    amounts = np.concatenate([node_mass[wide].ravel(), ridge_mass[ridge].ravel()])
    if amounts.size:
        lo_edges = dg.bin_centers(n_bins) - 0.5 * width
        d = (lo_edges[None, :] - starts[:, None]) % (2.0 * np.pi)
        s = spans[:, None]
        overlap = (np.clip(s - d, 0.0, width)
                   + np.clip(np.minimum(d + width - 2.0 * np.pi, s), 0.0, width))
        share = overlap / overlap.sum(axis=1, keepdims=True)
        mass = mass + amounts @ share
    return mass


DRAWN_GRIDS = {
    "torus": lambda nx, ny: g.Grid(g.TORUS, nx, ny, (0.0, 2.0 * np.pi),
                                   (0.0, 2.0 * np.pi)),
    "strip": lambda nx, ny: g.Grid(g.STRIP, nx, ny, (-4.0, 4.0), (-1.0, 1.0)),
    "plane": lambda nx, ny: g.Grid(g.PLANE, nx, ny, (-1.0, 1.0), (-1.0, 1.0)),
    "halfplane": lambda nx, ny: g.Grid(g.HALF_PLANE, nx, ny, (-3.0, 3.0),
                                       (0.0, 3.0)),
}


def hostile_flow(kind, nx, ny, seed, ramp, k, with_pressure):
    """A drawn flow scaled by 2**k, k in [-498, 498] (about 1e-150 to
    1e150): waves, a shear with a weak crossflow (sub-cell bands on its zero
    rows) plus noise, or, with ``ramp``, the exact shear v = (x2, 0), whose
    nodes next to x2 = 0 sit on the censoring bound |v| = h |grad v| when the
    spacing is dyadic.  A stagnant patch (at times the whole grid) and
    signed zeros are scattered over both components.  The closed form returns the drawn arrays themselves,
    so a residual that wrote into what the evaluators return would change
    its second reading."""
    rng = np.random.default_rng(seed)
    gr = DRAWN_GRIDS[kind](nx, ny)
    X, Y = gr.mesh()
    if ramp:
        vx, vy = Y.copy(), np.zeros(gr.shape)
    else:
        m, n = rng.integers(1, 4, size=2)
        a, p, q = rng.uniform(-1.0, 1.0, size=3)
        eps, noise = 10.0 ** rng.uniform(-4.0, 0.0, size=2)
        vx = (np.sin(n * Y + p) + 0.2 * a * np.sin(X)
              + noise * rng.standard_normal(gr.shape))
        vy = eps * np.cos(m * X + q) + noise * rng.standard_normal(gr.shape)
    i0, j0 = rng.integers(0, nx - 1), rng.integers(0, ny - 1)
    di, dj = rng.integers(1, 6, size=2)
    zero = np.full(gr.shape, rng.random() < 0.05)  # at times a still flow
    zero[i0:i0 + di, j0:j0 + dj] = True
    zero |= rng.random(gr.shape) < 0.1
    sign = rng.standard_normal((2,) + gr.shape)
    c = 2.0 ** k
    vx = c * np.where(zero, np.copysign(0.0, sign[0]), vx)
    vy = c * np.where(zero, np.copysign(0.0, sign[1]), vy)
    vel = VectorField(gr, vx, vy)
    partials = [d * (1.0 + 0.1 * rng.standard_normal(gr.shape))
                for d in g.vector_gradient(vel)]
    drawn = dict(zip(("v1", "v2", "v1_x", "v1_y", "v2_x", "v2_y", "P_x", "P_y"),
                     [vx, vy] + partials
                     + list(c * c * rng.standard_normal((2,) + gr.shape))))
    cf = {name: (lambda X, Y, a=arr: a) for name, arr in drawn.items()}
    pressure = None
    if with_pressure:
        pressure = ScalarField(gr, c * c * rng.standard_normal(gr.shape))
    return flows.Flow(gr, vel, ScalarField(gr, np.zeros(gr.shape)), pressure,
                      closed_form=cf)


def outcome(read):
    """The bits of a reading, or the exception it raised."""
    try:
        return bits(read())
    except (g.GridError, ValueError) as e:
        return type(e).__name__, str(e)


def flagged(read):
    """The outcome of a reading and the kinds of floating-point error it
    signalled: a division skipped off the live set shows here even where
    the stagnation mask later zeroes its quotient."""
    kinds = set()
    with np.errstate(all="call", call=lambda kind, flag: kinds.add(kind)):
        return outcome(read), kinds


# dyadic node counts put the ramp's nodes exactly on the censoring bound
nodes = st.one_of(st.sampled_from([9, 17, 33]), st.integers(8, 40))


@settings(max_examples=150)
@given(kind=st.sampled_from(sorted(DRAWN_GRIDS)), nx=nodes, ny=nodes,
       seed=st.integers(0, 2 ** 32 - 1), ramp=st.booleans(),
       k=st.integers(-498, 498), with_pressure=st.booleans(),
       derivatives=st.sampled_from(["fd", "analytic"]),
       speed_fraction=st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.5, 1.0]))
def test_in_place_residual_and_bundle_keep_every_bit(
        kind, nx, ny, seed, ramp, k, with_pressure, derivatives,
        speed_fraction):
    fl = hostile_flow(kind, nx, ny, seed, ramp, k, with_pressure)
    # the first call builds the bundle, as the reference does
    want = flagged(lambda: reference_identity_residual(
        fl, derivatives, speed_fraction).values)
    def residual():
        if derivatives == "fd":
            return dg.curvature_identity_residual(fl, speed_fraction)
        return dg.closed_form_identity_residual(fl)

    got = [flagged(lambda: residual().values) for _ in range(2)]
    with np.errstate(all="ignore"):
        want_bundle = reference_bundle(fl)
        got_bundle = dg._build_bundle(fl, g.vector_gradient(fl.velocity))
    assert got[0] == want
    assert got[1][0] == want[0]
    for name in dg._Bundle._fields[1:]:
        assert bits(getattr(fl._curvature_bundle, name)) \
            == bits(getattr(want_bundle, name)), name
        assert bits(getattr(got_bundle, name)) \
            == bits(getattr(want_bundle, name)), name


def test_closed_form_residual_takes_a_node_at_the_floor_as_stagnant():
    # the twin's live set is speed > floor: a node whose closed-form speed
    # is exactly the bundle floor is stagnant, so it and its four
    # neighbours read zero, while every other node keeps its spread
    gr = g.Grid(g.PLANE, 17, 17, (-1.0, 1.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    vel = VectorField(gr, np.sin(Y + 0.3) + 0.2 * np.sin(X), 0.1 * np.cos(X))
    rng = np.random.default_rng(0)
    drawn = {name: d * (1.0 + 0.1 * rng.standard_normal(gr.shape))
             for name, d in zip(("v1_x", "v1_y", "v2_x", "v2_y"),
                                g.vector_gradient(vel))}
    drawn["P_x"], drawn["P_y"] = rng.standard_normal((2,) + gr.shape)
    cf = {name: (lambda X, Y, name=name: drawn[name])
          for name in ("v1", "v2", *drawn)}
    fl = flows.Flow(gr, vel, ScalarField(gr, np.zeros(gr.shape)), None,
                    closed_form=cf)
    floor = dg._bundle(fl).floor
    drawn["v1"], drawn["v2"] = vel.vx.copy(), vel.vy.copy()
    drawn["v1"][8, 8], drawn["v2"][8, 8] = floor, 0.0
    assert np.sqrt(drawn["v1"] ** 2 + drawn["v2"] ** 2)[8, 8] == floor
    got = dg.closed_form_identity_residual(fl).values
    assert bits(got) == bits(reference_identity_residual(fl, "analytic", 0.0)
                             .values)
    halo = np.zeros(gr.shape, dtype=bool)
    halo[7:10, 8] = halo[8, 7:10] = True
    assert np.all(got[halo] == 0.0) and np.all(got[~halo] > 0.0)


@settings(max_examples=100)
@given(kind=st.sampled_from(sorted(DRAWN_GRIDS)), nx=nodes, ny=nodes,
       seed=st.integers(0, 2 ** 32 - 1), ramp=st.booleans(),
       k=st.integers(-498, 498))
def test_sliced_first_difference_keeps_every_bit(kind, nx, ny, seed, ramp, k):
    fl = hostile_flow(kind, nx, ny, seed, ramp, k, False)
    gr = fl.grid
    for a in (fl.velocity.vx, fl.velocity.vy, fl.velocity.vx[:, 0],
              fl.velocity.vy[0, :]):
        for h, axis in ((gr.hx, 0), (gr.hy, 1))[:a.ndim]:
            want = flagged(lambda: reference_diff1(a, h, axis, gr.periodic))
            got = flagged(lambda: g._diff1(a, h, axis, gr.periodic))
            assert got == want, (a.shape, axis)


@settings(max_examples=150)
@given(kind=st.sampled_from(sorted(DRAWN_GRIDS)), nx=nodes, ny=nodes,
       seed=st.integers(0, 2 ** 32 - 1), ramp=st.booleans(),
       k=st.integers(-498, 498),
       n_bins=st.sampled_from([16, 17, 64, 360]))
def test_in_place_angles_and_curvature_profile_keep_every_bit(
        kind, nx, ny, seed, ramp, k, n_bins):
    fl = hostile_flow(kind, nx, ny, seed, ramp, k, False)
    v = fl.velocity
    u = np.stack([v.vx, v.vy], axis=-1)
    assert flagged(lambda: dg._angle(v.vx, v.vy)) \
        == flagged(lambda: reference_angle_from(u))
    for vec in u[:3, 0]:
        assert bits(angle_of(vec)) == bits(reference_angle_from(vec))
    want = [flagged(lambda: reference_kappa_distribution(fl, n_bins)),
            flagged(lambda: reference_angle_set(fl, n_bins))]
    assert flagged(lambda: dg.kappa_distribution(fl, n_bins).bin_mass) \
        == want[0]  # builds the bundle
    # with the bundle kept
    with np.errstate(all="ignore"):
        aset = dg.angle_set(fl, n_bins)
        again = dg.kappa_distribution(fl, n_bins).bin_mass
    assert bits(np.append(aset.mass, aset.stagnation_threshold)) == want[1][0]
    with np.errstate(all="ignore"):
        assert np.array_equal(aset.occupied, reference_occupancy(fl, n_bins))
    assert bits(again) == want[0][0]


def traced_peak(read, fl):
    """tracemalloc peak of read(fl) in full-grid float arrays."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        read(fl)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (fl.grid.nx * fl.grid.ny * 8)


def test_diagnostics_working_set_is_bounded():
    # the whole report on the 256 x 256 torus: 11.4 arrays with every
    # diagnostic built in place and the residual field dropped after its
    # interior max (18.0 with rolled stencil copies, the unit field
    # differenced as one vector field and both axes' arcs alive; 29.4 with
    # every residual expression alive at once); the bound leaves 10%
    assert traced_peak(dg.run_diagnostics, taylor_green(256)) <= 12.5


@pytest.mark.parametrize("read, bound", [
    # the residual building the bundle: 11.4 (15.5 before)
    (dg.curvature_identity_residual, 12.5),
    # with the bundle kept: 6.2 (7.2 with a bare density in the bundle,
    # 15.7 before the in-place build) and 4.4 (9.3 before)
    (dg.kappa_distribution, 6.8),
    (dg.angle_set, 4.8),
    # the bundle's node masses summed: 0.0 and 2.0 (1.3 and 3.3 with a
    # weights array and a product formed per reading)
    (dg.total_curvature, 0.1),
    (dg.signed_curvature_integral, 2.2),
])
def test_each_diagnostic_working_set_is_bounded(read, bound):
    fl = taylor_green(256)
    if read is not dg.curvature_identity_residual:
        dg._bundle(fl)
    assert traced_peak(read, fl) <= bound
