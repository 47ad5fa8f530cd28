"""Traces, level contours, and stagnation points.

Exact statements (a constant shear stays on its line, wall zeros are exact
by symmetry) are asserted at rounding level; everything tied to the grid
(contour placement, off-node refinement, stream-function drift along a
trace) is asserted at second order with measured headroom, and the drift is
additionally checked to shrink at second order under joint grid/step
refinement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import elliptic2d, flows, oned, serialize
from eulerlab import grid as g
from eulerlab import streamlines as sl
from eulerlab.grid import ScalarField, VectorField

ARCTAN = oned.arctan_family(4.0)


@pytest.fixture(scope="module")
def strip_pair():
    field, _ = elliptic2d.solve_type3_strip(ARCTAN, L=12.0, nx=769, ny=129)
    return field, flows.velocity_from_stream(field, ARCTAN)


@pytest.fixture(scope="module")
def saddle_pair():
    nl = oned.allen_cahn()
    field, _ = elliptic2d.solve_saddle_quadrant(nl, L=20.0, n=321)
    return field, flows.velocity_from_stream(field, nl)


def taylor_green(n, offset=0.0):
    gr = g.Grid(g.TORUS, n, n, (offset, offset + 2.0 * np.pi),
                (offset, offset + 2.0 * np.pi))
    return flows.analytic_flow("TaylorGreen", gr)


def tg_stream(flow):
    X, Y = flow.grid.mesh()
    return ScalarField(flow.grid, np.sin(X) * np.sin(Y))


def couette(nx=257, ny=65):
    gr = g.Grid(g.STRIP, nx, ny, (-4.0, 4.0), (-1.0, 1.0))
    return flows.analytic_flow("Couette", gr)


def reversed_flow(flow):
    gr = flow.grid
    vx, vy = -flow.velocity.vx, -flow.velocity.vy
    om = ScalarField(gr, g.ddx(ScalarField(gr, vy)) - g.ddy(ScalarField(gr, vx)))
    return flows.Flow(gr, VectorField(gr, vx, vy), om)


def spacing(poly):
    return np.hypot(*np.diff(poly.points, axis=0).T)


# the eight zeros of the cellular flow per period cell
TG_ZEROS = [(a * np.pi / 2.0, b * np.pi / 2.0)
            for a in range(4) for b in range(4)
            if (a % 2 == 0) == (b % 2 == 0)]


def nearest_tg_zero(x, y):
    two_pi = 2.0 * np.pi
    return min(np.hypot((x - a + np.pi) % two_pi - np.pi,
                        (y - b + np.pi) % two_pi - np.pi)
               for a, b in TG_ZEROS)


# ---------------------------------------------------------------------------
# polyline container


def test_polyline_guards():
    with pytest.raises(ValueError):
        sl.Polyline(np.zeros((3, 2)), False, (0.0, 0.0), "Wandered")
    with pytest.raises(ValueError):
        sl.Polyline(np.zeros((2, 3)), False, (0.0, 0.0), "MaxSteps")
    with pytest.raises(ValueError):
        sl.Polyline(np.zeros((0, 2)), False, (0.0, 0.0), "MaxSteps")


def test_polyline_manifest_entry():
    p = sl.Polyline([[0.0, 1.0], [0.5, 1.0]], False, (0.0, 1.0), "LeftDomain")
    assert len(p) == 2
    d = p.to_dict()
    assert d["seed"] == [0.0, 1.0]
    assert d["closed"] is False
    assert d["termination"] == "LeftDomain"
    assert d["n_points"] == 2


# ---------------------------------------------------------------------------
# interpolation


def test_bilinear_reproduces_bilinear_functions():
    gr = g.Grid(g.STRIP, 33, 17, (0.0, 2.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    u = ScalarField(gr, 2.0 + 3.0 * X - Y + 0.5 * X * Y)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0.0, 2.0, 40),
                           rng.uniform(-1.0, 1.0, 40)])
    want = 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
    got = sl.bilinear_sample(u, pts)
    assert np.max(np.abs(got - want)) < 1e-13


# an axis as (start, length), and a point as fractions of the two lengths
span = st.tuples(st.floats(-10.0, 10.0), st.floats(0.5, 20.0))
fraction = st.floats(0.0, 1.0)


@given(st.integers(8, 40), st.integers(8, 40), span, span,
       st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
       st.lists(st.tuples(fraction, fraction), min_size=1, max_size=20))
def test_bilinear_sample_is_exact_on_bilinear_fields(nx, ny, xs, ys, coef,
                                                     where):
    gr = g.Grid(g.PLANE, nx, ny, (xs[0], xs[0] + xs[1]),
                (ys[0], ys[0] + ys[1]))
    X, Y = gr.mesh()
    pts = np.array([(xs[0] + u * xs[1], ys[0] + v * ys[1]) for u, v in where])
    px, py = pts[:, 0], pts[:, 1]

    def bilinear(a, b, c, d, x, y):
        return a + b * x + c * y + d * x * y

    f1, f2 = bilinear(*coef[:4], X, Y), bilinear(*coef[4:], X, Y)
    want = np.column_stack([bilinear(*coef[:4], px, py),
                            bilinear(*coef[4:], px, py)])
    got = sl.bilinear_sample(VectorField(gr, f1, f2), pts)
    scale = max(np.abs(f1).max(), np.abs(f2).max())
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    got1 = sl.bilinear_sample(ScalarField(gr, f1), pts)
    assert np.all(np.abs(got1 - want[:, 0]) <= 1e-12 * scale)


def test_bilinear_vector_and_shapes():
    f = couette()
    one = sl.bilinear_sample(f.velocity, np.array([0.3, 0.25]))
    assert one.shape == (2,)
    assert one[0] == pytest.approx(0.25, abs=1e-13)
    assert one[1] == 0.0
    many = sl.bilinear_sample(f.velocity, np.zeros((5, 3, 2)))
    assert many.shape == (5, 3, 2)
    with pytest.raises(ValueError):
        sl.bilinear_sample(f.velocity, np.zeros((4, 3)))


def test_bilinear_clamps_outside_bounded_axes():
    gr = g.Grid(g.STRIP, 33, 17, (0.0, 2.0), (-1.0, 1.0))
    u = ScalarField(gr, gr.mesh()[1])
    assert sl.bilinear_sample(u, np.array([5.0, 0.25])) == pytest.approx(0.25, abs=1e-13)
    assert sl.bilinear_sample(u, np.array([1.0, 3.0])) == pytest.approx(1.0, abs=1e-13)


def test_bilinear_wraps_periodic_axes():
    f = taylor_green(64)
    u = tg_stream(f)
    p = np.array([1.1, 2.3])
    q = p + np.array([2.0 * np.pi, -2.0 * np.pi])
    assert sl.bilinear_sample(u, q) == pytest.approx(
        float(sl.bilinear_sample(u, p)), abs=1e-12)


# ---------------------------------------------------------------------------
# tracing


def test_trace_couette_stays_on_its_line():
    p = sl.trace(couette(), (0.0, 0.5))
    assert p.termination == "LeftDomain"
    assert not p.closed
    assert np.max(np.abs(p.points[:, 1] - 0.5)) < 1e-10
    # advances monotonically and stops at the last inside point
    assert np.all(np.diff(p.points[:, 0]) > 0.0)
    assert p.points[-1, 0] == pytest.approx(4.0, abs=1e-9)


def test_trace_rejects_bad_input():
    f = couette()
    with pytest.raises(sl.SeedOutsideDomain):
        sl.trace(f, (0.0, 1.5))
    with pytest.raises(sl.SeedOutsideDomain):
        sl.trace(f, (-9.0, 0.0))
    for seed in ((np.nan, 0.5), (np.inf, 0.5), (0.0, -1e308)):
        with pytest.raises(sl.SeedOutsideDomain):
            sl.trace(f, seed)
        with pytest.raises(sl.SeedOutsideDomain):
            sl.trace(taylor_green(64), seed)
    with pytest.raises(ValueError):
        sl.trace(f, (0.0, 0.5), step=0.0)
    with pytest.raises(ValueError):
        sl.trace(f, (0.0, 0.5), max_steps=0)


def test_trace_stagnates_on_zero_line():
    p = sl.trace(couette(), (0.0, 0.0))
    assert p.termination == "Stagnated"
    assert len(p) == 1


def test_trace_max_steps_budget():
    p = sl.trace(taylor_green(64), (np.pi / 2 + 0.3, np.pi / 2), max_steps=5)
    assert p.termination == "MaxSteps"
    assert len(p) == 6


def test_trace_taylor_green_closes():
    f = taylor_green(64)
    step = 0.5 * min(f.grid.hx, f.grid.hy)
    p = sl.trace(f, (np.pi / 2 + 0.3, np.pi / 2))
    assert p.termination == "Closed"
    assert p.closed
    assert len(p) >= 11
    assert np.hypot(*(p.points[-1] - p.points[0])) <= step
    assert spacing(p).max() <= step * (1.0 + 1e-12)


def test_trace_reversal_gives_same_point_set():
    f = taylor_green(64)
    seed = (np.pi / 2 + 0.3, np.pi / 2)
    step = 0.5 * min(f.grid.hx, f.grid.hy)
    fwd = sl.trace(f, seed)
    bwd = sl.trace(reversed_flow(f), seed)
    assert fwd.termination == bwd.termination == "Closed"
    diff = np.hypot(fwd.points[:, None, 0] - bwd.points[None, :, 0],
                    fwd.points[:, None, 1] - bwd.points[None, :, 1])
    hausdorff = max(diff.min(axis=1).max(), diff.min(axis=0).max())
    assert hausdorff <= 0.75 * step


def test_trace_stream_constancy_refines_second_order():
    seed = (np.pi / 2 + 0.3, np.pi / 2)
    drifts = []
    for n in (64, 128):
        f = taylor_green(n)
        p = sl.trace(f, seed)
        u = sl.bilinear_sample(tg_stream(f), p.points)
        drifts.append(float(np.max(np.abs(u - u[0]))))
    assert drifts[0] < 5e-3
    assert drifts[0] / drifts[1] > 2.5


def test_trace_strip_enters_turns_and_leaves(strip_pair):
    field, flow = strip_pair
    step = 0.5 * min(flow.grid.hx, flow.grid.hy)
    p = sl.trace(flow, (-8.0, -0.5))
    assert p.termination == "LeftDomain"
    # enters moving with the lower far field, crosses to the upper half,
    # and leaves through the same end it came from
    assert p.points[1, 0] > p.points[0, 0]
    assert -2.0 < p.points[:, 0].max() < 0.0
    assert 0.45 < p.points[:, 1].max() < 0.55
    assert p.points[-1, 0] < -11.0
    assert p.points[-1, 1] > 0.45
    assert spacing(p).max() <= step * (1.0 + 1e-12)
    u = sl.bilinear_sample(field, p.points)
    assert np.max(np.abs(u - u[0])) < 1e-3


# ---------------------------------------------------------------------------
# the scalar trace kernel against the array code, bit for bit


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def reference_trace(flow, seed, step=None, max_steps=10000):
    """RK4 on numpy pairs, one bilinear_sample call per stage: the array
    formulation the scalar kernel of sl.trace must reproduce exactly."""
    grid = flow.grid
    p = np.array([float(seed[0]), float(seed[1])])
    if step is None:
        step = 0.5 * min(grid.hx, grid.hy)
    floor = sl.stagnation_floor(flow)

    def direction(q):
        w = sl.bilinear_sample(flow.velocity, q)
        m = float(np.hypot(w[0], w[1]))
        return None if m <= floor else w / m

    pts = [p.copy()]
    termination = "MaxSteps"
    for n in range(1, max_steps + 1):
        k1 = direction(p)
        k2 = None if k1 is None else direction(p + 0.5 * step * k1)
        k3 = None if k2 is None else direction(p + 0.5 * step * k2)
        k4 = None if k3 is None else direction(p + step * k3)
        if k4 is None:
            termination = "Stagnated"
            break
        q = p + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not sl._inside(grid, q):
            termination = "LeftDomain"
            break
        pts.append(q.copy())
        p = q
        if n >= 10 and float(np.hypot(q[0] - seed[0], q[1] - seed[1])) <= step:
            termination = "Closed"
            break
    return np.array(pts), termination


def assert_same_trace(flow, seed, **kw):
    got = sl.trace(flow, seed, **kw)
    want, termination = reference_trace(flow, seed, **kw)
    assert got.termination == termination
    assert got.closed == (termination == "Closed")
    assert bits(got.points) == bits(want)
    return got


GRID_KINDS = (g.STRIP, g.HALF_PLANE, g.QUADRANT, g.PLANE, g.TORUS)


def random_flow(kind, nx, ny, x0, y0, lx, ly, seed):
    """Random velocity on a grid of the given kind; the kind's fixed edges
    (strip walls at y = -1, 1, half-plane wall at y = 0, quadrant corner at
    the origin) override the drawn ones."""
    if kind == g.STRIP:
        y0, ly = -1.0, 2.0
    if kind in (g.HALF_PLANE, g.QUADRANT):
        y0 = 0.0
    if kind == g.QUADRANT:
        x0 = 0.0
    gr = g.Grid(kind, nx, ny, (x0, x0 + lx), (y0, y0 + ly))
    rng = np.random.default_rng(seed)
    vx, vy = rng.standard_normal((2, nx, ny))
    return flows.Flow(gr, VectorField(gr, vx, vy),
                      ScalarField(gr, np.zeros((nx, ny))))


# a coordinate as a whole number of domain lengths plus a fraction of one;
# the extremes reach far past bounded edges and many periods round a torus
offset = st.tuples(st.integers(-1000, 1000),
                   st.one_of(st.floats(-1.0, 2.0), st.sampled_from(
                       [0.0, -0.0, 1.0, 0.5, -1e-17, 1.0 - 1e-16])))


@given(st.sampled_from(GRID_KINDS), st.integers(8, 24), st.integers(8, 24),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       st.floats(0.5, 20.0), st.floats(0.5, 20.0), st.integers(0, 2 ** 32),
       st.lists(st.tuples(offset, offset), min_size=1, max_size=12))
def test_sampler_matches_bilinear_sample_bit_for_bit(kind, nx, ny, x0, y0,
                                                     lx, ly, seed, where):
    f = random_flow(kind, nx, ny, x0, y0, lx, ly, seed)
    (x0, x1), (y0, y1) = f.grid.x_range, f.grid.y_range
    lx, ly = x1 - x0, y1 - y0
    sampler = sl._Sampler(f)
    for (kx, ux), (ky, uy) in where:
        x = x0 + (kx + ux) * lx
        y = y0 + (ky + uy) * ly
        for p in ((x, y), (-0.0, y), (x, -0.0)):
            want = sl.bilinear_sample(f.velocity, np.array(p))
            got = sampler.sample(*p)
            assert [v.hex() for v in got] == [float(v).hex() for v in want]


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.integers(8, 4096))
def test_float_remainder_is_np_mod(t, n):
    # the sampler wraps periodic axes with %, the array code with np.mod
    assert (t % n).hex() == float(np.mod(np.float64(t), n)).hex()


@settings(max_examples=30)
@given(st.sampled_from(GRID_KINDS), st.integers(8, 16), st.integers(8, 16),
       st.integers(0, 2 ** 32), fraction, fraction,
       st.sampled_from([None, 0.05, 0.3]))
def test_trace_matches_reference_rk4_on_random_fields(kind, nx, ny, seed, u, v,
                                                      step):
    f = random_flow(kind, nx, ny, -1.0, 0.5, 3.0, 2.0, seed)
    (x0, x1), (y0, y1) = f.grid.x_range, f.grid.y_range
    assert_same_trace(f, (x0 + (x1 - x0) * u, y0 + (y1 - y0) * v),
                      step=step, max_steps=60)


@pytest.mark.parametrize("seed, termination", [
    ((0.0, 0.5), "LeftDomain"),
    ((0.0, 0.0), "Stagnated"),
    ((-3.0, -0.5), "LeftDomain"),
])
def test_trace_matches_reference_rk4_on_couette(seed, termination):
    assert assert_same_trace(couette(), seed).termination == termination


@pytest.mark.parametrize("seed", [(np.pi / 2 + 0.3, np.pi / 2), (1.0, 1.0),
                                  (-2.0, 0.5), (40.0, -20.0)])
def test_trace_matches_reference_rk4_on_torus_orbits(seed):
    assert assert_same_trace(taylor_green(64), seed).termination == "Closed"
    p = assert_same_trace(taylor_green(64, offset=-1.0), seed, max_steps=30)
    assert p.termination == "MaxSteps"


def test_trace_matches_reference_rk4_on_solved_flows(strip_pair, saddle_pair):
    _, strip = strip_pair
    _, saddle = saddle_pair
    assert_same_trace(strip, (-8.0, -0.5), max_steps=400)
    assert assert_same_trace(strip, (0.0, -0.99)).termination == "Stagnated"
    assert_same_trace(saddle, (-4.0, 0.5), max_steps=400)


def test_traces_of_one_flow_share_one_sampler(monkeypatch):
    calls = []
    floor = sl.stagnation_floor

    def counted(flow):
        calls.append(flow)
        return floor(flow)

    monkeypatch.setattr(sl, "stagnation_floor", counted)
    f = couette()
    first = sl.trace(f, (0.0, 0.5))
    sl.trace(f, (-3.0, -0.5))
    assert len(calls) == 1
    # a new velocity object is a new flow to trace: the sampler is rebuilt
    f.velocity = VectorField(f.grid, 2.0 * f.velocity.vx, f.velocity.vy)
    again = sl.trace(f, (0.0, 0.5))
    assert len(calls) == 2
    assert bits(again.points) == bits(first.points)


# ---------------------------------------------------------------------------
# level contours


def test_contour_horizontal_line_through_node_row():
    gr = g.Grid(g.STRIP, 257, 65, (-4.0, 4.0), (-1.0, 1.0))
    u = ScalarField(gr, gr.mesh()[1])
    cs = sl.level_contours(u, [0.5])
    assert len(cs) == 1
    c = cs[0]
    assert not c.closed
    assert c.termination == "LeftDomain"
    assert np.max(np.abs(c.points[:, 1] - 0.5)) < 1e-9
    assert c.points[:, 0].min() == pytest.approx(-4.0, abs=1e-12)
    assert c.points[:, 0].max() == pytest.approx(4.0, abs=1e-12)


def test_contour_taylor_green_loops():
    f = taylor_green(128)
    u = tg_stream(f)
    half = sl.level_contours(u, 0.5)
    assert len(half) == 2
    both = sl.level_contours(u, [0.5, -0.5])
    assert len(both) == 4
    for c in both:
        assert c.closed
        assert np.array_equal(c.points[0], c.points[-1])
        resid = np.abs(np.abs(np.sin(c.points[:, 0]) * np.sin(c.points[:, 1])) - 0.5)
        assert resid.max() < 2e-3
        onlevel = sl.bilinear_sample(u, c.points)
        assert np.max(np.abs(np.abs(onlevel) - 0.5)) < 1e-9


def test_contour_saddle_level_zero_covers_both_axes(saddle_pair):
    field, _ = saddle_pair
    h = max(field.grid.hx, field.grid.hy)
    cs = sl.level_contours(field, [0.0])
    assert len(cs) == 2
    pts = np.vstack([c.points for c in cs])
    # every point hugs an axis ...
    assert np.max(np.minimum(np.abs(pts[:, 0]), np.abs(pts[:, 1]))) < h
    # ... and together the chains cover the wall both ways and the full axis
    assert pts[:, 0].min() < -19.0 and pts[:, 0].max() > 19.0
    assert pts[:, 1].max() > 19.0


def test_contour_guards_and_empty_levels():
    gr = g.Grid(g.STRIP, 33, 17, (0.0, 2.0), (-1.0, 1.0))
    u = ScalarField(gr, gr.mesh()[1])
    with pytest.raises(ValueError):
        sl.level_contours(u, [np.inf])
    assert sl.level_contours(u, [5.0]) == []
    # a constant field offers no crossings at its own value either
    flat = ScalarField(gr, np.zeros(gr.shape))
    assert sl.level_contours(flat, [0.0]) == []


# ---------------------------------------------------------------------------
# stagnation points


def test_stagnation_taylor_green_all_cell_zeros():
    pts = sl.stagnation_points(taylor_green(64))
    assert len(pts) == 8
    for x, y, s in pts:
        assert nearest_tg_zero(x, y) < 1e-12
        assert s < 1e-12


def test_stagnation_refines_between_nodes():
    # shift the grid so every zero falls 0.3 cells off the nearest node
    f = taylor_green(64, offset=0.03)
    h = f.grid.hx
    pts = sl.stagnation_points(f)
    assert len(pts) == 8
    for x, y, s in pts:
        assert nearest_tg_zero(x, y) < 0.05 * h
        assert s < 1e-3


def test_stagnation_strip_wall_points(strip_pair):
    _, flow = strip_pair
    pts = sl.stagnation_points(flow)
    assert len(pts) == 2
    (x0, y0, s0), (x1, y1, s1) = pts
    assert abs(x0) < 2 * flow.grid.hx and abs(x1) < 2 * flow.grid.hx
    assert abs(y0 + 1.0) < 2 * flow.grid.hy
    assert abs(y1 - 1.0) < 2 * flow.grid.hy
    assert max(s0, s1) < 1e-12


def test_stagnation_saddle_origin(saddle_pair):
    _, flow = saddle_pair
    pts = sl.stagnation_points(flow)
    assert len(pts) == 1
    x, y, s = pts[0]
    assert abs(x) < 2 * flow.grid.hx
    assert abs(y) < 2 * flow.grid.hy
    assert s < 1e-12


def test_stagnation_couette_degenerate_set():
    # the shear's zero line is a whole row of stagnant nodes and nothing
    # else, yet none of it is an isolated point
    f = couette()
    slow = np.hypot(f.velocity.vx, f.velocity.vy) <= 0.5 * f.grid.hy
    assert slow[:, 32].all()
    assert int(slow.sum()) == f.grid.nx
    assert sl.stagnation_points(f) == []
    assert sl.stagnation_points(f, floor=0.5 * f.grid.hy) == []


# ---------------------------------------------------------------------------
# emission


def test_save_polylines_csv_and_manifest(tmp_path):
    f = couette()
    polys = [sl.trace(f, (0.0, 0.5), max_steps=20),
             sl.trace(f, (0.0, -0.25), max_steps=10)]
    csv_path = tmp_path / "traces.csv"
    json_path = tmp_path / "traces.json"
    sl.save_polylines(polys, csv_path, json_path)

    header, cols = serialize.read_csv(csv_path)
    assert header == ["trace_id", "order", "x", "y"]
    total = len(polys[0]) + len(polys[1])
    assert all(len(c) == total for c in cols)
    assert cols[0].min() == 0 and cols[0].max() == 1
    first = cols[0] == 0
    assert np.array_equal(cols[2][first], polys[0].points[:, 0])
    assert np.array_equal(cols[3][~first], polys[1].points[:, 1])

    manifest = serialize.read_json(json_path)
    assert manifest["schema_version"] == serialize.SCHEMA_VERSION
    assert [t["trace_id"] for t in manifest["traces"]] == [0, 1]
    assert manifest["traces"][0]["termination"] == "MaxSteps"
    assert manifest["traces"][0]["n_points"] == len(polys[0])
    assert manifest["traces"][1]["seed"] == [0.0, -0.25]
