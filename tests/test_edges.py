"""One edge model: what lies beyond a grid edge is read off ``Grid.periodic``
and the one-node apron of ``Grid.pad``.

On the torus there is no edge, so rolling a flow's node arrays by whole
cells must roll every nodewise diagnostic exactly and move every contour
segment and stagnation point by the same whole cells: the seam is not a
place.  On a bounded grid the apron is a fill, so nothing reaches across
from the opposite edge.  Which edges are slip walls is read off
``Grid.wall_rows()`` alone: every wall diagnostic and the saved envelope
agree with it on every grid kind.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eulerlab import diagnostics as dg
from eulerlab import flows, serialize
from eulerlab import grid as g
from eulerlab import streamlines as sl
from eulerlab.grid import ScalarField, VectorField

TWO_PI = 2.0 * np.pi
SHAPES = [(48, 40), (36, 64), (40, 40)]


def torus(nx, ny):
    return g.Grid(g.TORUS, nx, ny, (0.0, TWO_PI), (0.0, TWO_PI))


def node_flow(gr, vx, vy, pressure=None):
    """Flow of node velocity arrays, vorticity by the grid's stencils."""
    om = g.ddx(ScalarField(gr, vy)) - g.ddy(ScalarField(gr, vx))
    return flows.Flow(gr, VectorField(gr, vx, vy), ScalarField(gr, om),
                      None if pressure is None else ScalarField(gr, pressure))


def band_flow(gr):
    """Along-x flow reversing on the rows y = 0 (the seam) and y = pi, with
    a weak crossflow: the rows hold sub-cell turning bands."""
    X, Y = gr.mesh()
    return node_flow(gr, np.sin(Y) + 0.1 * np.sin(X), 1e-3 * np.cos(X))


def taylor_green(gr):
    return flows.analytic_flow("TaylorGreen", gr)


def rolled(flow, k, m):
    def roll(a):
        return np.roll(a, (k, m), axis=(0, 1))
    v = flow.velocity
    return node_flow(flow.grid, roll(v.vx), roll(v.vy),
                     None if flow.pressure is None
                     else roll(flow.pressure.values))


def cells(points, gr, k, m):
    """Points in cell units, moved by (k, m) cells, wrapped onto the base
    cell and rounded to 1e-6 cells."""
    t = np.column_stack([(points[:, 0] - gr.x_range[0]) / gr.hx + k,
                         (points[:, 1] - gr.y_range[0]) / gr.hy + m])
    n = np.array([gr.nx, gr.ny])
    return np.round((t % n) * 1e6).astype(np.int64) % (n * 10 ** 6)


def segments(polys, gr, k=0, m=0):
    """Contour segments as unordered pairs of wrapped cell-unit points."""
    out = Counter()
    for p in polys:
        q = [tuple(r) for r in cells(p.points, gr, k, m)]
        out.update(frozenset(s) for s in zip(q[:-1], q[1:]))
    return out


def test_pad_wraps_on_the_torus_and_fills_a_bounded_grid():
    a = np.arange(80.0).reshape(8, 10)
    p = torus(8, 10).pad(a, -1.0)
    assert p.shape == (10, 12)
    assert np.array_equal(p[1:-1, 1:-1], a)
    assert np.array_equal(p[0, 1:-1], a[-1])
    assert np.array_equal(p[-1, 1:-1], a[0])
    assert np.array_equal(p[1:-1, 0], a[:, -1])
    assert (p[0, 0], p[-1, -1]) == (a[-1, -1], a[0, 0])
    b = g.Grid(g.PLANE, 8, 10, (-1.0, 1.0), (-1.0, 1.0)).pad(a, -1.0)
    assert np.array_equal(b[1:-1, 1:-1], a)
    b[1:-1, 1:-1] = -1.0
    assert np.all(b == -1.0)


@given(st.sampled_from(SHAPES), st.integers(-100, 100),
       st.integers(-100, 100), st.sampled_from([band_flow, taylor_green]))
def test_rolling_a_torus_flow_rolls_its_bundle_exactly(shape, k, m, make):
    flow = make(torus(*shape))
    moved = rolled(flow, k, m)
    b0, b1 = dg._bundle(flow), dg._bundle(moved)
    for name in ("mass", "live", "ridge_mass", "across_y"):
        assert np.array_equal(getattr(b1, name),
                              np.roll(getattr(b0, name), (k, m), (0, 1))), name
    r0 = dg.curvature_identity_residual(flow).values
    r1 = dg.curvature_identity_residual(moved).values
    assert np.array_equal(r1, np.roll(r0, (k, m), (0, 1)))


def test_band_rows_on_the_seam_carry_their_ridge_mass():
    # the roll test above is only as strong as the bands it sees: the seam
    # row y = 0 reverses exactly like the row y = pi inside the base cell
    b = dg._bundle(band_flow(torus(48, 40)))
    rows = np.flatnonzero(b.ridge_mass.any(axis=0))
    assert 0 in rows and 20 in rows


@given(st.sampled_from(SHAPES), st.integers(-100, 100),
       st.integers(-100, 100))
def test_contours_and_stagnation_points_move_by_whole_cells(shape, k, m):
    gr = torus(*shape)
    X, Y = gr.mesh()
    u = np.sin(X) * np.sin(Y) + 0.3 * np.cos(2.0 * X + Y)
    before = sl.level_contours(ScalarField(gr, u), [0.0])
    after = sl.level_contours(
        ScalarField(gr, np.roll(u, (k, m), (0, 1))), [0.0])
    assert sum(segments(before, gr).values()) > 2 * max(shape)
    assert segments(after, gr) == segments(before, gr, k, m)

    flow = taylor_green(gr)
    p0 = np.array(sl.stagnation_points(flow))
    p1 = np.array(sl.stagnation_points(rolled(flow, k, m)))
    # the eight stagnation points of the cell, four of them on the seams
    assert len(p0) == len(p1) == 8
    order0 = np.lexsort(cells(p0[:, :2], gr, k, m).T)
    order1 = np.lexsort(cells(p1[:, :2], gr, 0, 0).T)
    assert np.array_equal(cells(p0[order0, :2], gr, k, m),
                          cells(p1[order1, :2], gr, 0, 0))
    assert p1[order1, 2] == pytest.approx(p0[order0, 2], abs=1e-12)


def test_end_nodes_of_a_bounded_grid_see_no_opposite_edge():
    # along-x flow vanishing on the bottom edge y = -1 and on y = 1/2 inside,
    # with a weak crossflow: both rows are sub-cell bands, and across the
    # bottom row the wrapped neighbour (top row, v1 > 0) opposes the one
    # inside (v1 < 0), which a wrapping apron would read as a sweep
    gr = g.Grid(g.PLANE, 33, 41, (-1.0, 1.0), (-1.0, 1.0))
    X, Y = gr.mesh()
    flow = node_flow(gr, (Y + 1.0) * (Y - 0.5), 1e-3 * (2.0 + np.cos(X)))
    b = dg._bundle(flow)
    speed = np.hypot(flow.velocity.vx, flow.velocity.vy)
    censored = (speed > b.floor) & ~b.live
    assert censored[:, 0].all() and censored[:, 30].all()
    assert (b.ridge_mass[:, 30] > 0.0).all()
    assert not b.ridge_mass[:, [0, -1]].any()
    # the whole bottom row is dead to the identity residual; its halo stops
    # at the row above and leaves the top row unmasked
    resid = dg.curvature_identity_residual(flow).values
    assert not resid[:, :2].any()
    assert resid[:, -1].all()


@pytest.mark.parametrize("kind", g.KINDS)
def test_wall_rows_answer_every_wall_question(kind, tmp_path):
    y_range = (-1.0, 1.0) if kind == g.STRIP else (0.0, 2.0)
    gr = g.Grid(kind, 33, 17, (0.0, 8.0), y_range)
    X, Y = gr.mesh()
    flow = node_flow(gr, 1.0 + 0.1 * np.cos(X), 0.1 * np.sin(X) * Y)
    walls = gr.wall_rows()

    def accepts(read):
        try:
            read(flow)
        except g.GridError:
            return False
        return True

    assert accepts(lambda f: dg.boundary_trace_Jinf(f, [2.0])) == bool(walls)
    assert accepts(dg.wall_limits) == bool(walls)
    assert bool(dg.run_diagnostics(flow).J_inf_trace) == bool(walls)
    flows.save_flow(flow, tmp_path / "f.csv", tmp_path / "f.json")
    envelope = serialize.read_json(tmp_path / "f.json")
    assert envelope["boundary_rows"] == list(walls)
