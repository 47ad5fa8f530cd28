"""Grid, stencil, and quadrature checks.

Oracles: closed-form derivatives of trigonometric and polynomial fields,
convergence-ratio studies between nested resolutions (a second-order stencil
should shrink errors by about 4x when h halves), and exactness of the
trapezoid/rectangle rules on the function classes they integrate exactly.
"""

import numpy as np
import pytest

from eulerlab import grid as g


def torus(n):
    return g.Grid(g.TORUS, n, n, (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))


def plane(n, lo=-1.0, hi=1.0):
    return g.Grid(g.PLANE, n, n, (lo, hi), (lo, hi))


def max_err(a, b):
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# construction invariants


def test_strip_requires_unit_half_width():
    with pytest.raises(g.GridError):
        g.Grid(g.STRIP, 33, 17, (-4.0, 4.0), (-2.0, 2.0))
    gr = g.Grid(g.STRIP, 33, 17, (-4.0, 4.0), (-1.0, 1.0))
    assert gr.wall_rows() == (0, 16)


def test_minimum_node_count():
    with pytest.raises(g.GridError):
        g.Grid(g.PLANE, 4, 32, (0.0, 1.0), (0.0, 1.0))


def test_half_plane_wall_at_zero():
    with pytest.raises(g.GridError):
        g.Grid(g.HALF_PLANE, 16, 16, (-1.0, 1.0), (-0.5, 1.0))


@pytest.mark.parametrize("x_range", [
    (-np.inf, np.inf), (0.0, np.inf), (-1e308, 1e308), (0.0, 5e-324)],
    ids=["infinite", "half-infinite", "width-overflows", "spacing-underflows"])
def test_extents_and_spacings_must_be_finite(x_range):
    with pytest.raises(g.GridError, match="finite"):
        g.Grid(g.STRIP, 257, 65, x_range, (-1.0, 1.0))


def test_spacing_conventions():
    t = torus(64)
    assert t.hx == pytest.approx(2.0 * np.pi / 64)
    assert t.x_nodes()[-1] < 2.0 * np.pi  # right end omitted when periodic
    p = plane(65, 0.0, 1.0)
    assert p.hx == pytest.approx(1.0 / 64)
    assert p.x_nodes()[-1] == pytest.approx(1.0)


def test_fields_are_frozen():
    gr = plane(16)
    x, y = gr.mesh()
    f = g.ScalarField(gr, x * y)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_nonfinite_values_rejected():
    gr = plane(16)
    bad = np.zeros(gr.shape)
    bad[3, 3] = np.inf
    with pytest.raises(g.GridError):
        g.ScalarField(gr, bad)


# ---------------------------------------------------------------------------
# stencils


def test_gradient_exact_on_cubics():
    # one-sided and centered first-derivative stencils are exact through x^2;
    # interior centered differences are exact through x^3 as well
    gr = plane(17)
    xx, yy = gr.mesh()
    f = g.ScalarField(gr, xx * xx + 3.0 * yy * yy - 2.0 * xx * yy)
    w = g.gradient(f)
    assert max_err(w.vx, 2.0 * xx - 2.0 * yy) < 1e-12
    assert max_err(w.vy, 6.0 * yy - 2.0 * xx) < 1e-12


def test_laplacian_exact_on_quadratic():
    gr = plane(17)
    x, y = gr.mesh()
    f = g.ScalarField(gr, x * x + y * y)
    lap = g.laplacian(f)
    assert max_err(lap.values, 4.0) < 1e-11


def test_derivative_refinement_ratio_on_torus():
    errs = []
    for n in (64, 128):
        t = torus(n)
        xx, yy = t.mesh()
        f = g.ScalarField(t, np.sin(xx) * np.sin(yy))
        w = g.gradient(f)
        errs.append(max_err(w.vx, np.cos(xx) * np.sin(yy)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_laplacian_refinement_ratio_nonperiodic():
    errs = []
    for n in (33, 65):
        gr = plane(n)
        xx, yy = gr.mesh()
        f = g.ScalarField(gr, np.sin(2 * xx) * np.cos(yy))
        lap = g.laplacian(f)
        errs.append(max_err(lap.values, -5.0 * np.sin(2 * xx) * np.cos(yy)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_perp_gradient_is_discretely_divergence_free():
    # x- and y-stencils act on different axes, so they commute exactly and
    # div(perp grad u) cancels to rounding at every node, edges included
    rng = np.random.default_rng(7)
    gr = plane(21)
    f = g.ScalarField(gr, rng.standard_normal(gr.shape))
    div = g.divergence(g.perp_gradient(f))
    assert max_err(div.values, 0.0) < 1e-11


def test_operators_are_linear():
    rng = np.random.default_rng(3)
    gr = plane(16)
    a = rng.standard_normal(gr.shape)
    b = rng.standard_normal(gr.shape)
    fa, fb = g.ScalarField(gr, a), g.ScalarField(gr, b)
    fab = g.ScalarField(gr, 2.0 * a - 0.5 * b)
    for op in (g.gradient, g.perp_gradient):
        wa, wb, wab = op(fa), op(fb), op(fab)
        assert max_err(wab.vx, 2.0 * wa.vx - 0.5 * wb.vx) < 1e-12
        assert max_err(wab.vy, 2.0 * wa.vy - 0.5 * wb.vy) < 1e-12
    la, lb, lab = g.laplacian(fa), g.laplacian(fb), g.laplacian(fab)
    assert max_err(lab.values, 2.0 * la.values - 0.5 * lb.values) < 1e-9


# ---------------------------------------------------------------------------
# quadrature


def integrate(gr, values):
    """The trapezoid-rule integral as the curvature bundle forms it: node
    values times the grid's quadrature weights, summed."""
    return float(np.sum(values * g.quadrature_weights(gr)))


def test_rectangle_rule_exact_for_low_trig_modes():
    t = torus(256)
    x, y = t.mesh()
    f = np.sin(x) ** 2 * np.sin(y) ** 2
    assert integrate(t, f) == pytest.approx(np.pi ** 2, abs=1e-12)


def test_trapezoid_converges_second_order():
    errs = []
    for n in (17, 33):
        gr = plane(n, 0.0, 1.0)
        x, y = gr.mesh()
        errs.append(abs(integrate(gr, np.exp(x) * np.exp(y))
                        - (np.e - 1.0) ** 2))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_trapezoid_exact_on_bilinear():
    gr = plane(16, 0.0, 2.0)
    x, y = gr.mesh()
    # integral over [0,2]^2 of 1 + x + y + xy = 4 + 4 + 4 + 4
    assert integrate(gr, 1.0 + x + y + x * y) == pytest.approx(16.0, rel=1e-13)
