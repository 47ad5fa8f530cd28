"""Flow construction, the analytic catalog, and Euler residual checks.

Refinement studies share solved strip fields through a module fixture.  The
catalog's closed-form derivative evaluators act as oracles that split
discretization error from modeling error.
"""

import numpy as np
import pytest

from eulerlab import elliptic2d, flows, oned, serialize
from eulerlab import grid as g

STRIP_LEVELS = ((97, 17), (193, 33), (385, 65))


@pytest.fixture(scope="module")
def strip_flows():
    return [elliptic2d.solve_type3_strip(nx=nx, ny=ny)[1]
            for nx, ny in STRIP_LEVELS]


@pytest.fixture(scope="module")
def saddle_flow():
    return elliptic2d.solve_saddle_quadrant(n=161)[1]


def identity_error(flow):
    # interior max of perp-grad P - (v1 grad v2 - v2 grad v1)
    pg = g.perp_gradient(flow.pressure)
    v = flow.velocity
    v1x, v1y, v2x, v2y = g.vector_gradient(v)
    r1 = pg.vx - (v.vx * v2x - v.vy * v1x)
    r2 = pg.vy - (v.vx * v2y - v.vy * v1y)
    m = flow.grid.interior_mask()
    return float(max(np.abs(r1[m]).max(), np.abs(r2[m]).max()))


def momentum_error(flow):
    mom, _ = flows.euler_residual(flow)
    m = flow.grid.interior_mask()
    return float(max(np.abs(mom.vx[m]).max(), np.abs(mom.vy[m]).max()))


def zero_reaction():
    z = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    return oned.custom(z, z, z, 1.0)


def test_constant_shear_from_stream():
    gr = g.Grid(g.STRIP, 41, 33, (0.0, 2.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    flow = flows.velocity_from_stream(g.ScalarField(gr, Y.copy()), zero_reaction())
    assert np.array_equal(flow.velocity.vx, np.full(gr.shape, -1.0))
    assert np.array_equal(flow.velocity.vy, np.zeros(gr.shape))
    assert np.array_equal(flow.vorticity.values, np.zeros(gr.shape))
    assert np.array_equal(flow.pressure.values, np.full(gr.shape, -0.5))
    assert flow.provenance == {"kind": "FromStream", "tag": "Custom"}
    assert flow.boundary_rows == [0, 32]
    mom, div = flows.euler_residual(flow)
    m = gr.interior_mask()
    assert np.abs(mom.vx[m]).max() == 0.0 and np.abs(mom.vy[m]).max() == 0.0
    assert np.abs(div.values[m]).max() == 0.0


def test_wall_trace_guard():
    gr = g.Grid(g.STRIP, 41, 33, (0.0, 2.0), (-1.0, 1.0))
    X, _ = gr.mesh()
    with pytest.raises(flows.NonConstantWallTrace):
        flows.velocity_from_stream(g.ScalarField(gr, X.copy()))


def test_slip_guard_catches_subthreshold_wiggle():
    # the wall trace stays within the 1e-10 constancy budget, but its
    # node-to-node slope gives a wall-normal velocity above 1e-12
    gr = g.Grid(g.STRIP, 41, 33, (0.0, 2.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    vals = Y.copy()
    vals[:, 0] += 4e-11 * np.sin(np.pi * np.arange(41) / 2.0)
    with pytest.raises(flows.NonConstantWallTrace, match="wall-normal"):
        flows.velocity_from_stream(g.ScalarField(gr, vals))


def test_random_streams_slip_and_divergence():
    gr = g.Grid(g.STRIP, 33, 65, (0.0, 2.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    m = gr.interior_mask()
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.normal(size=(3, 3))
        vals = np.zeros(gr.shape)
        for k in range(3):
            for l in range(3):
                vals += a[k, l] * np.sin((k + 1) * np.pi * (Y + 1) / 2) \
                    * np.cos((l + 1) * np.pi * X / 2.0)
        flow = flows.velocity_from_stream(g.ScalarField(gr, vals))
        assert flow.pressure is None
        for j in flow.boundary_rows:
            assert np.abs(flow.velocity.vy[:, j]).max() <= 1e-12
        div = g.divergence(flow.velocity)
        assert np.abs(div.values[m]).max() <= 1e-12


def test_type3_pressure_identity_second_order(strip_flows):
    errs = [identity_error(f) for f in strip_flows]
    assert errs[0] / errs[1] > 2.0 ** 1.5
    assert errs[1] / errs[2] > 2.0 ** 1.5
    assert errs[2] < 0.02


def test_type3_momentum_second_order(strip_flows):
    errs = [momentum_error(f) for f in strip_flows]
    assert errs[0] / errs[1] > 2.0 ** 1.5
    assert errs[1] / errs[2] > 2.0 ** 1.5
    assert errs[2] < 0.02
    for f in strip_flows:
        div = g.divergence(f.velocity)
        assert np.abs(div.values[f.grid.interior_mask()]).max() <= 1e-12


def test_type3_transverse_velocity_sign(strip_flows):
    flow = strip_flows[-1]
    v2 = flow.velocity.vy
    assert v2.min() >= -1e-8
    assert np.abs(v2[:, [0, -1]]).max() == 0.0
    assert (v2[flow.grid.interior_mask()] > 0.0).all()


def test_bernoulli_wall_law(strip_flows):
    spans = []
    for f in strip_flows:
        per_wall = []
        for j in f.boundary_rows:
            b = f.pressure.values[:, j] + 0.5 * f.velocity.vx[:, j] ** 2
            per_wall.append(float(b.max() - b.min()))
        spans.append(max(per_wall))
    assert spans[0] / spans[1] > 2.5
    assert spans[1] / spans[2] > 2.5
    assert spans[2] < 0.03
    # analytic shear: wall speed is constant, so the law is exact to roundoff
    gr = g.Grid(g.STRIP, 65, 65, (0.0, 2.0), (-1.0, 1.0))
    kol = flows.analytic_flow("Kolmogorov", gr)
    for j in kol.boundary_rows:
        b = kol.pressure.values[:, j] + 0.5 * kol.velocity.vx[:, j] ** 2
        assert float(b.max() - b.min()) < 1e-12


def test_taylor_green_pressure_oracle():
    # u = sin x1 sin x2 solves -Lap(u) = f(u) with f(s) = 2s; the exact
    # pressure collapses to -(sin^2 x1 + sin^2 x2)/2
    two = oned.custom(lambda s: 2.0 * s,
                      lambda s: 2.0 * np.ones_like(np.asarray(s, dtype=float)),
                      np.square, 100.0)
    p_errs, id_errs = [], []
    for n in (32, 64, 128):
        tor = g.Grid(g.TORUS, n, n, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
        X, Y = tor.mesh()
        flow = flows.velocity_from_stream(g.ScalarField(tor, np.sin(X) * np.sin(Y)), two)
        exact = -0.5 * (np.sin(X) ** 2 + np.sin(Y) ** 2)
        p_errs.append(float(np.abs(flow.pressure.values - exact).max()))
        id_errs.append(identity_error(flow))
    assert 3.0 < p_errs[0] / p_errs[1] < 5.0
    assert 3.0 < p_errs[1] / p_errs[2] < 5.0
    assert 3.0 < id_errs[0] / id_errs[1] < 5.0
    assert 3.0 < id_errs[1] / id_errs[2] < 5.0


def test_catalog_names_and_kind_guards():
    strip = g.Grid(g.STRIP, 17, 17, (0.0, 1.0), (-1.0, 1.0))
    torus = g.Grid(g.TORUS, 16, 16, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
    plane = g.Grid(g.PLANE, 17, 17, (-1.0, 1.0), (-1.0, 1.0))
    lives_on = {"Couette": strip, "Poiseuille": strip, "Kolmogorov": strip,
                "ExampleSignEq": strip, "TaylorGreen": torus,
                "ExponentialCounterexample": plane}
    for name in flows.ANALYTIC_NAMES:
        flow = flows.analytic_flow(name, lives_on[name])
        assert flow.provenance == {"kind": "Analytic", "name": name}
        assert flow.pressure is not None
        assert set(flow.closed_form) >= {"v1", "v2", "P", "omega",
                                         "v1_x", "v1_y", "v2_x", "v2_y",
                                         "P_x", "P_y"}
    with pytest.raises(g.IncompatibleGrid):
        flows.analytic_flow("Couette", torus)
    with pytest.raises(g.IncompatibleGrid):
        flows.analytic_flow("TaylorGreen", strip)
    with pytest.raises(ValueError, match="unknown flow"):
        flows.analytic_flow("Rankine", strip)


def test_couette_catalog_fields():
    gr = g.Grid(g.STRIP, 21, 41, (0.0, 3.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    flow = flows.analytic_flow("Couette", gr)
    assert np.array_equal(flow.velocity.vx, Y)
    assert np.array_equal(flow.velocity.vy, np.zeros(gr.shape))
    assert np.array_equal(flow.pressure.values, np.zeros(gr.shape))
    assert np.array_equal(flow.vorticity.values, np.full(gr.shape, -1.0))


def test_shear_catalog_momentum_exactly_zero():
    gr = g.Grid(g.STRIP, 33, 65, (0.0, 2.0), (-1.0, 1.0))
    m = gr.interior_mask()
    for name in ("Couette", "Poiseuille", "Kolmogorov", "ExampleSignEq"):
        flow = flows.analytic_flow(name, gr)
        mom, div = flows.euler_residual(flow)
        assert np.abs(mom.vx[m]).max() == 0.0
        assert np.abs(mom.vy[m]).max() == 0.0
        assert np.abs(div.values[m]).max() == 0.0


def test_taylor_green_divergence_and_vorticity():
    tor = g.Grid(g.TORUS, 64, 64, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
    X, Y = tor.mesh()
    flow = flows.analytic_flow("TaylorGreen", tor)
    assert np.array_equal(flow.vorticity.values, -2.0 * np.sin(X) * np.sin(Y))
    _, div = flows.euler_residual(flow)
    assert np.abs(div.values).max() <= 1e-12


def test_exponential_counterexample_closed_form_momentum():
    plane = g.Grid(g.PLANE, 65, 65, (-1.0, 1.0), (-1.0, 1.0))
    flow = flows.analytic_flow("ExponentialCounterexample", plane)
    r = flows.closed_form_momentum_residual(flow)
    assert max(np.abs(r.vx).max(), np.abs(r.vy).max()) <= 1e-14


def test_exponential_counterexample_fd_refinement():
    errs = []
    for n in (65, 129, 257):
        plane = g.Grid(g.PLANE, n, n, (-1.0, 1.0), (-1.0, 1.0))
        flow = flows.analytic_flow("ExponentialCounterexample", plane)
        mom, _ = flows.euler_residual(flow)
        m = plane.interior_mask()
        errs.append(float(max(np.abs(mom.vx[m]).max(), np.abs(mom.vy[m]).max())))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_catalog_sample_past_the_double_range_is_refused_quietly():
    # exp(x1) is finite up to x1 ~ 709, but the pressure -exp(2 x1)/2 and
    # x2 exp(x1) overflow well before; the refusal names flow and grid
    plane = g.Grid(g.PLANE, 65, 65, (-700.0, 700.0), (-700.0, 700.0))
    with pytest.raises(ValueError) as err:
        flows.analytic_flow("ExponentialCounterexample", plane)
    assert str(err.value).startswith(
        "ExponentialCounterexample overflows on %r: " % plane)
    wide = g.Grid(g.PLANE, 65, 65, (-300.0, 300.0), (-300.0, 300.0))
    assert np.isfinite(
        flows.analytic_flow("ExponentialCounterexample", wide).pressure.values
    ).all()


def test_sign_equation_stream_away_from_kink():
    # u = x2|x2|/2 is quadratic on either side of x2 = 0, so every check is
    # exact on rows whose stencils avoid the kink; the two rows nearest the
    # kink are excluded
    gr = g.Grid(g.STRIP, 33, 65, (0.0, 2.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    flow = flows.velocity_from_stream(
        g.ScalarField(gr, 0.5 * Y * np.abs(Y)), oned.sign_equation())
    cat = flows.analytic_flow("ExampleSignEq", gr)
    away = np.abs(Y) >= 2 * gr.hy - 1e-12
    assert np.array_equal(flow.velocity.vx[away], cat.velocity.vx[away])
    assert np.array_equal(flow.vorticity.values[away], cat.vorticity.values[away])
    assert np.array_equal(flow.pressure.values[away], np.zeros(int(away.sum())))
    # the kink row pressure picks up the one-sided kink slope h/2 exactly
    mid = np.flatnonzero(np.abs(Y[0]) < 1e-14)[0]
    assert flow.pressure.values[5, mid] == -gr.hy ** 2 / 8.0
    mom, div = flows.euler_residual(flow)
    m = gr.interior_mask() & (np.abs(Y) >= 3 * gr.hy - 1e-12)
    assert np.abs(mom.vx[m]).max() == 0.0 and np.abs(mom.vy[m]).max() == 0.0
    assert np.abs(div.values[gr.interior_mask()]).max() == 0.0


def test_euler_residual_requires_pressure():
    gr = g.Grid(g.STRIP, 17, 17, (0.0, 1.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    flow = flows.velocity_from_stream(g.ScalarField(gr, Y.copy()))
    with pytest.raises(flows.MissingPressure):
        flows.euler_residual(flow)


def test_odd_extension_examples():
    half = g.Grid(g.PLANE, 9, 9, (0.0, 2.0), (0.0, 1.0))
    X, _ = half.mesh()
    ext = flows.odd_extend_x1(g.ScalarField(half, X.copy()))
    assert ext.grid == g.Grid(g.PLANE, 17, 9, (-2.0, 2.0), (0.0, 1.0))
    assert np.array_equal(ext.values, ext.grid.mesh()[0])

    rng = np.random.default_rng(3)
    vals = rng.normal(size=half.shape)
    vals[0, :] = 0.0
    ext = flows.odd_extend_x1(g.ScalarField(half, vals))
    assert np.array_equal(ext.values, -ext.values[::-1, :])

    with pytest.raises(flows.ParityViolation):
        flows.odd_extend_x1(g.ScalarField(half, X + 0.3))
    shifted = g.Grid(g.PLANE, 9, 9, (1.0, 2.0), (0.0, 1.0))
    with pytest.raises(g.GridError):
        flows.odd_extend_x1(g.ScalarField(shifted, np.zeros(shifted.shape)))
    tor = g.Grid(g.TORUS, 8, 8, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(g.GridError):
        flows.odd_extend_x1(g.ScalarField(tor, np.zeros(tor.shape)))


def test_saddle_flow_stagnates_at_origin_only(saddle_flow):
    gr = saddle_flow.grid
    assert gr.kind == g.HALF_PLANE
    mid = (gr.nx - 1) // 2
    assert saddle_flow.velocity.vx[mid, 0] == 0.0
    assert saddle_flow.velocity.vy[mid, 0] == 0.0
    wall_speed = np.abs(np.delete(saddle_flow.velocity.vx[:, 0], mid))
    assert wall_speed.min() > 0.04
    assert saddle_flow.velocity.vy[mid, 1:].min() > 0.04


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_same_fields(back, flow):
    # bit for bit, so -0.0 must come back as -0.0
    assert back.grid == flow.grid
    assert np.array_equal(bits(back.velocity.vx), bits(flow.velocity.vx))
    assert np.array_equal(bits(back.velocity.vy), bits(flow.velocity.vy))
    assert np.array_equal(bits(back.vorticity.values),
                          bits(flow.vorticity.values))
    if flow.pressure is None:
        assert back.pressure is None
    else:
        assert np.array_equal(bits(back.pressure.values),
                              bits(flow.pressure.values))
    assert back.provenance == flow.provenance


def test_save_load_roundtrip(tmp_path):
    tor = g.Grid(g.TORUS, 16, 16, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
    flow = flows.analytic_flow("TaylorGreen", tor)
    csv = tmp_path / "tg.csv"
    meta = tmp_path / "tg.json"
    flows.save_flow(flow, csv, meta)
    header, cols = serialize.read_csv(csv)
    assert header == ["x", "y", "vx", "vy", "P", "omega"]
    # one row per node, bottom node row first, x varying fastest
    assert np.array_equal(cols[0], np.tile(tor.x_nodes(), tor.ny))
    assert np.array_equal(cols[1], np.repeat(tor.y_nodes(), tor.nx))
    assert "\n3.1415926535897931,0," in csv.read_text()  # x = 8 hx = pi
    back = flows.load_flow(meta)
    assert np.signbit(flow.velocity.vx).any()
    assert_same_fields(back, flow)
    env = serialize.read_json(meta)
    assert env["schema_version"] == serialize.SCHEMA_VERSION
    assert env["csv"] == "tg.csv"
    assert not {"vx", "vy", "P", "omega"} & set(env)
    assert env["has_pressure"] is True
    assert set(env["residual_norms"]) == {"divergence_max", "momentum_max"}
    # a second save writes the same bytes
    flows.save_flow(flow, tmp_path / "again.csv", tmp_path / "again.json")
    assert (tmp_path / "again.csv").read_bytes() == csv.read_bytes()
    assert ((tmp_path / "again.json").read_text()
            == meta.read_text().replace('"tg.csv"', '"again.csv"'))

    # no pressure: the CSV keeps its column layout, the metadata says so
    gr = g.Grid(g.STRIP, 9, 9, (0.0, 1.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    plain = flows.velocity_from_stream(g.ScalarField(gr, Y.copy()))
    flows.save_flow(plain, tmp_path / "p.csv", tmp_path / "p.json")
    back = flows.load_flow(tmp_path / "p.json")
    assert back.pressure is None
    env = serialize.read_json(tmp_path / "p.json")
    assert env["has_pressure"] is False
    assert set(env["residual_norms"]) == {"divergence_max"}
    assert env["boundary_rows"] == [0, 8]


def test_csv_path_is_relative_to_the_envelope(tmp_path, monkeypatch):
    tor = g.Grid(g.TORUS, 16, 16, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
    flow = flows.analytic_flow("TaylorGreen", tor)
    (tmp_path / "tables").mkdir()
    (tmp_path / "meta").mkdir()
    monkeypatch.chdir(tmp_path)
    flows.save_flow(flow, "tables/tg.csv", "meta/tg.json")
    assert serialize.read_json("meta/tg.json")["csv"] == "../tables/tg.csv"
    monkeypatch.chdir(tmp_path / "tables")
    assert_same_fields(flows.load_flow(tmp_path / "meta" / "tg.json"), flow)
    assert_same_fields(flows.load_flow("../meta/tg.json"), flow)


def schema1_envelope(flow):
    # the bundle layout before the node table moved out of the JSON
    env = {"schema_version": 1, "grid": flow.grid.to_dict(),
           "provenance": flow.provenance,
           "boundary_rows": flow.boundary_rows,
           "has_pressure": flow.pressure is not None,
           "residual_norms": {}, "vx": flow.velocity.vx,
           "vy": flow.velocity.vy, "omega": flow.vorticity.values}
    if flow.pressure is not None:
        env["P"] = flow.pressure.values
    return env


def test_schema1_bundles_still_load(tmp_path):
    tor = g.Grid(g.TORUS, 16, 16, (0.0, 2 * np.pi), (0.0, 2 * np.pi))
    gr = g.Grid(g.STRIP, 9, 9, (0.0, 1.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    plain = flows.velocity_from_stream(g.ScalarField(gr, Y + (1.0 - Y * Y) * X * X))
    for flow in (flows.analytic_flow("TaylorGreen", tor), plain):
        path = tmp_path / "old.json"
        serialize.write_json(schema1_envelope(flow), path)
        assert_same_fields(flows.load_flow(path), flow)


def test_flow_grid_mismatch_raises():
    a = g.Grid(g.STRIP, 9, 9, (0.0, 1.0), (-1.0, 1.0))
    b = g.Grid(g.STRIP, 9, 9, (0.0, 2.0), (-1.0, 1.0))
    v = g.VectorField(a, np.zeros(a.shape), np.zeros(a.shape))
    w = g.ScalarField(b, np.zeros(b.shape))
    with pytest.raises(g.IncompatibleGrid):
        flows.Flow(a, v, w)


def test_euler_divergence_is_the_grid_divergence():
    gr = g.Grid(g.TORUS, 48, 48, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    X, Y = gr.mesh()
    vel = g.VectorField(gr, np.sin(X + 2.0 * Y), np.cos(X) * np.sin(3.0 * Y))
    flow = flows.Flow(gr, vel, g.ScalarField(gr, np.zeros(gr.shape)),
                      g.ScalarField(gr, np.cos(X)))
    _, div = flows.euler_residual(flow)
    assert np.array_equal(div.values, g.divergence(vel).values)


def test_save_load_roundtrip_on_an_oblong_grid(tmp_path):
    # nx != ny: the writer reads the (ny, nx) views of the fields in C order
    gr = g.Grid(g.STRIP, 13, 9, (-2.0, 2.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    flow = flows.velocity_from_stream(
        g.ScalarField(gr, Y + (1.0 - Y * Y) * np.cos(3.0 * X)))
    flows.save_flow(flow, tmp_path / "f.csv", tmp_path / "f.json")
    assert_same_fields(flows.load_flow(tmp_path / "f.json"), flow)
    _, cols = serialize.read_csv(tmp_path / "f.csv")
    assert np.array_equal(bits(cols[2]), bits(flow.velocity.vx.T.ravel()))
