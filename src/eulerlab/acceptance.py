"""Acceptance checks: each headline number re-measured at a pinned
resolution against a frozen oracle, on flows a :class:`_FlowCache` builds
once per run.  The ``verify`` command and the acceptance tests share them.

Each entry of ``_CHECKS`` names the cached flows its check reads, so
:func:`run_suite` can drop each flow, with the curvature bundle kept on it,
after the last check of the suite that reads it.  The saddle's check,
whose 2D solve no other check reads, runs whole on one worker thread with a
cache of its own, while the calling thread runs the checks that read no
512^2 torus; those run once the worker is joined.  Results, their order
and every bit are those of a serial run.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics as dg
from . import elliptic2d, flows, oned
from . import grid as _g
from . import serialize as _ser
from . import streamlines as sl
from .grid import Grid, ScalarField, VectorField, STRIP, PLANE, TORUS

# boundary slope of the transverse profile at slope parameter 4, frozen
# from the 1D solver at n = 16385 (Richardson-stable to 13 digits); the
# strip curvature check compares against pi times its square
WALL_SLOPE = 3.342097151308673

# ---------------------------------------------------------------------------
# acceptance checks (the verify command and the acceptance test suite
# share these)


class CheckResult:
    __slots__ = ("name", "passed", "measured", "expected", "tol")

    def __init__(self, name, passed, measured, expected, tol):
        self.name = name
        self.passed = bool(passed)
        self.measured = measured
        self.expected = expected
        self.tol = tol

    @staticmethod
    def _s(v):
        return _ser.fmt17(v) if isinstance(v, float) else str(v)

    def line(self) -> str:
        return "%s %s measured=%s expected=%s tol=%s" % (
            "PASS" if self.passed else "FAIL", self.name,
            self._s(self.measured), self._s(self.expected), self.tol)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "measured": self.measured, "expected": self.expected,
                "tol": self.tol}


class _FlowCache:
    """Memo for the solved and sampled flows the checks share.  A key is the
    builder's name followed by its arguments, as the ``_CHECKS`` table
    names them: ``("strip",)``, ``("strip", ("nx", 385), ("ny", 65))``,
    ``("cellular", 512)``.
    """

    def __init__(self):
        self._memo = {}

    def _get(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def drop(self, key):
        self._memo.pop(key, None)

    def strip(self, **sizes):
        # (field, flow) of the reference strip, or of a coarser one
        return self._get(("strip",) + tuple(sorted(sizes.items())),
                         lambda: elliptic2d.solve_type3_strip(**sizes)[:2])

    def saddle(self):
        return self._get(_SADDLE,
                         lambda: elliptic2d.solve_saddle_quadrant()[:2])

    def taylor_green(self, n):
        box = (0.0, 2.0 * np.pi)
        return self._get(("cellular", n), lambda: flows.analytic_flow(
            "TaylorGreen", Grid(TORUS, n, n, box, box)))

    def shear(self, name):
        return self._get(("shear", name), lambda: flows.analytic_flow(
            name, Grid(STRIP, 257, 65, (-4.0, 4.0), (-1.0, 1.0))))

    def counterexample(self, n):
        return self._get(("counterexample", n), lambda: flows.analytic_flow(
            "ExponentialCounterexample",
            Grid(PLANE, n, n, (-1.0, 1.0), (-1.0, 1.0))))


def _rel(measured, target):
    return abs(measured - target) / abs(target)


_SHEARS = ("Couette", "Poiseuille", "Kolmogorov")


def check_shear_triviality(cache):
    out = []
    for name in _SHEARS:
        fl = cache.shear(name)
        tc = dg.total_curvature(fl)
        verdict = dg.classify(dg.angle_set(fl), tc).kind
        out.append(CheckResult("shear_curvature[%s]" % name,
                               tc <= 1e-12, tc, 0.0, "<= 1e-12"))
        out.append(CheckResult("shear_verdict[%s]" % name,
                               verdict == "Shear", verdict, "Shear",
                               "exact"))
    return out


def check_counterexample(cache):
    fl = cache.counterexample(100)
    mom = flows.closed_form_momentum_residual(fl)
    worst = float(np.max(np.hypot(mom.vx, mom.vy)))
    out = [CheckResult("counterexample_closed_form_momentum",
                       worst <= 1e-12, worst, 0.0, "<= 1e-12")]
    peaks = []
    for n in (128, 256):
        fln = cache.counterexample(n)
        m, _ = flows.euler_residual(fln)
        inner = fln.grid.interior_mask()
        peaks.append(float(np.max(np.hypot(m.vx, m.vy)[inner])))
    ratio = peaks[0] / peaks[1]
    out.append(CheckResult("counterexample_fd_refinement_ratio",
                           3.0 <= ratio <= 5.0, ratio, 4.0, "[3, 5]"))
    return out


def check_sign_equation(cache):
    gr = Grid(STRIP, 257, 65, (-4.0, 4.0), (-1.0, 1.0))
    _, Y = gr.mesh()
    u = ScalarField(gr, 0.5 * Y * np.abs(Y))
    lap = _g.laplacian(u).values
    away = np.abs(Y) >= 2.0 * gr.hy - 1e-12
    worst = float(np.max(np.abs(lap - np.sign(Y))[away]))
    return [CheckResult("sign_equation_exact_off_kink",
                        worst <= 1e-11, worst, 0.0, "<= 1e-11")]


def check_transverse_profile(cache):
    nl = oned.arctan_family(4.0)
    sub = oned.solve_strip_profile(nl, 2001)
    sup = oned.solve_strip_profile(nl, 2001, start="super")
    gap = float(np.max(np.abs(sub.values - sup.values)))
    out = [
        CheckResult("profile_residual_sub_started",
                    sub.residual < 1e-10, sub.residual, 0.0, "< 1e-10"),
        CheckResult("profile_residual_super_started",
                    sup.residual < 1e-10, sup.residual, 0.0, "< 1e-10"),
        CheckResult("profile_uniqueness_gap", gap < 1e-8, gap, 0.0,
                    "< 1e-8"),
    ]
    try:
        oned.solve_strip_profile(oned.arctan_family(2.0), 257)
        raised = "no exception"
    except oned.NoSubsolution:
        raised = "NoSubsolution"
    out.append(CheckResult("profile_below_threshold",
                           raised == "NoSubsolution", raised,
                           "NoSubsolution", "exact"))
    return out


def check_strip_flow(cache):
    field, fl = cache.strip()
    tc = dg.total_curvature(fl)
    aset = dg.angle_set(fl)
    verdict = dg.classify(aset, tc).kind
    upper, lower = dg.semicircle_bins(aset.n_bins)
    missing_upper = int(np.count_nonzero(upper & ~aset.occupied))
    stray_lower = int(np.count_nonzero(aset.occupied & lower & ~upper))
    out = [
        CheckResult("strip_verdict", verdict == "TypeIIIUpper", verdict,
                    "TypeIIIUpper", "exact"),
        CheckResult("strip_upper_bins_occupied", missing_upper == 0,
                    missing_upper, 0, "no vacancies"),
        CheckResult("strip_open_lower_bins_empty", stray_lower == 0,
                    stray_lower, 0, "no strays"),
    ]
    target = np.pi * WALL_SLOPE ** 2
    out.append(CheckResult("strip_curvature_formula",
                           _rel(tc, target) < 0.03, tc, target,
                           "rel < 3e-2"))
    js = dg.signed_curvature_integral(fl)
    (_, trace_val), = dg.boundary_trace_Jinf(fl, [8.0])
    out.append(CheckResult("strip_two_route_agreement",
                           abs(abs(js) - abs(trace_val)) / abs(js) < 0.05,
                           abs(trace_val), abs(js), "rel < 5e-2"))
    gap = 2.0 / np.pi * tc - abs(js)
    out.append(CheckResult("strip_equality_gap",
                           abs(gap) <= 1e-6 * (1.0 + tc), gap, 0.0,
                           "<= 1e-6*(1+TC)"))
    wl = dg.wall_limits(fl)
    (bot_l, bot_r), (top_l, top_r) = wl["bottom"], wl["top"]
    lhs = top_r ** 2 - top_l ** 2
    rhs = bot_r ** 2 - bot_l ** 2
    scale = 0.5 * (top_r ** 2 + top_l ** 2)
    out.append(CheckResult("strip_boundary_asymptotics",
                           abs(lhs - rhs) <= 0.02 * scale, lhs - rhs, 0.0,
                           "<= 2e-2 of wall scale"))
    slip = float(np.min(_g.ddx(field)))
    out.append(CheckResult("strip_monotone_in_x", slip >= -1e-8, slip, 0.0,
                           ">= -1e-8"))
    u = field.values
    sym = max(float(np.max(np.abs(u + u[::-1, :]))),
              float(np.max(np.abs(u - u[:, ::-1]))))
    out.append(CheckResult("strip_symmetry_gaps", sym < 1e-6, sym, 0.0,
                           "< 1e-6"))
    return out


def check_saddle_flow(cache):
    field, fl = cache.saddle()
    tc = dg.total_curvature(fl)
    target = np.pi / 4.0
    out = [CheckResult("saddle_curvature_formula", _rel(tc, target) < 0.05,
                       tc, target, "rel < 5e-2")]
    wall = fl.velocity.vx[:, 0]
    worst = float(np.max(np.diff(wall) / fl.grid.hx))
    out.append(CheckResult("saddle_wall_trace_nonincreasing",
                           worst <= 1e-8, worst, 0.0, "<= 1e-8"))
    pts = sl.stagnation_points(fl)
    out.append(CheckResult("saddle_stagnation_count", len(pts) == 1,
                           len(pts), 1, "exactly one"))
    # emitted with no point found too, so a failing saddle prints every line
    dist = float(np.hypot(pts[0][0], pts[0][1])) if pts else "none"
    h = max(fl.grid.hx, fl.grid.hy)
    out.append(CheckResult("saddle_stagnation_at_origin",
                           bool(pts) and dist <= 2.0 * h, dist, 0.0, "<= 2h"))
    verdict = dg.classify(dg.angle_set(fl), tc).kind
    out.append(CheckResult("saddle_verdict", verdict == "TypeIIIUpper",
                           verdict, "TypeIIIUpper", "exact"))
    return out


def check_equal_distribution(cache):
    fl = cache.taylor_green(512)
    tc = dg.total_curvature(fl)
    prof = dg.kappa_distribution(fl)
    cv = float(prof.bin_mass.std() / prof.bin_mass.mean())
    mean = float(prof.bin_mass.mean())
    out = [
        CheckResult("cellular_bin_cv[512]", cv < 0.05, cv, 0.0, "< 5e-2"),
        CheckResult("cellular_bin_mean[512]",
                    abs(mean - tc / 64.0) <= 0.01 * tc / 64.0, mean,
                    tc / 64.0, "rel < 1e-2"),
    ]
    _, st = cache.strip()
    sprof = dg.kappa_distribution(st)
    cv_up = dg.semicircle_cv(sprof, "upper")
    upper, lower = dg.semicircle_bins(sprof.n_bins)
    stray = float(sprof.bin_mass[lower & ~upper].sum())
    out.append(CheckResult("strip_upper_bin_cv", cv_up < 0.08, cv_up, 0.0,
                           "< 8e-2"))
    out.append(CheckResult("strip_open_lower_mass",
                           stray < 0.01 * sprof.total, stray, 0.0,
                           "< 1e-2 of total"))
    return out


def check_strict_gap(cache):
    fl = cache.taylor_green(256)
    tc = dg.total_curvature(fl)
    js = dg.signed_curvature_integral(fl)
    bound = 2.0 / np.pi * tc
    gap = bound - abs(js)
    return [CheckResult("cellular_strict_gap", gap > 0.1 * bound, gap,
                        0.1 * bound, "strictly above")]


def check_identity_chain(cache):
    vals = {}
    for n in (128, 256, 512):
        fl = cache.taylor_green(n)
        vals[n] = float(np.max(dg.curvature_identity_residual(
            fl, speed_fraction=0.1).values))
    out = [
        CheckResult("identity_chain_two_level_ratio",
                    vals[128] / vals[512] >= 6.0, vals[128] / vals[512],
                    16.0, ">= 6"),
        CheckResult("identity_chain_one_level_ratio",
                    vals[256] / vals[512] >= 2.8, vals[256] / vals[512],
                    4.0, ">= 2.8"),
    ]
    _, fine = cache.strip()
    _, coarse = cache.strip(nx=385, ny=65)
    r_coarse = float(np.max(dg.curvature_identity_residual(
        coarse, speed_fraction=0.1).values))
    r_fine = float(np.max(dg.curvature_identity_residual(
        fine, speed_fraction=0.1).values))
    out.append(CheckResult("identity_chain_strip_ratio",
                           r_coarse / r_fine >= 2.5, r_coarse / r_fine,
                           4.0, ">= 2.5"))
    fl = cache.counterexample(129)
    worst = float(np.max(dg.closed_form_identity_residual(fl).values))
    out.append(CheckResult("identity_chain_closed_form_exact",
                           worst <= 1e-12, worst, 0.0, "<= 1e-12"))
    return out


def _axis_profile(fn, ny=65):
    y = np.linspace(-1.0, 1.0, ny)
    vals = fn(y)
    return oned.Profile((-1.0, 1.0), vals, 0.0, 0)


def check_stability_margins(cache):
    parabola = _axis_profile(lambda y: y * y)
    linear = _axis_profile(lambda y: y)
    m_poi = dg.stability_margin(cache.shear("Poiseuille"), parabola)
    m_cou = dg.stability_margin(cache.shear("Couette"), linear)
    m_kol = dg.stability_margin(cache.shear("Kolmogorov"), parabola)
    return [
        CheckResult("margin_parabolic_reference",
                    abs(m_poi - 2.0) <= 1e-10, m_poi, 2.0, "abs <= 1e-10"),
        CheckResult("margin_linear_reference_inapplicable",
                    abs(m_cou) <= 1e-12, m_cou, 0.0,
                    "exactly 0 (no positive certificate)"),
        CheckResult("margin_sinusoidal_negative", m_kol < 0.0, m_kol, 0.0,
                    "strictly below"),
    ]


def _value_mapped(fl, fn):
    """Flow with velocity samples mapped pointwise, vorticity recomputed."""
    vx, vy = fn(fl.velocity.vx, fl.velocity.vy)
    gr = fl.grid
    om = ScalarField(gr, _g.ddx(ScalarField(gr, vy))
                     - _g.ddy(ScalarField(gr, vx)))
    return flows.Flow(gr, VectorField(gr, vx, vy), om)


def _value_rotated(fl, alpha):
    c, s = np.cos(alpha), np.sin(alpha)
    return _value_mapped(fl, lambda vx, vy: (c * vx - s * vy,
                                             s * vx + c * vy))


def check_invariance(cache):
    fl = cache.taylor_green(256)
    tc = dg.total_curvature(fl)
    rot = _value_rotated(fl, 0.7)
    tc_rot = dg.total_curvature(rot)
    out = [CheckResult("invariance_rotation_curvature",
                       abs(tc_rot - tc) <= 1e-10 * tc, tc_rot, tc,
                       "rel <= 1e-10")]
    # 0.7 rad is 40.107 bin widths, so the rolled occupancy can only be
    # matched to the rounded roll with one bin of slack each way; samples
    # sitting a fraction of a width from a bin edge legitimately cross it
    a_fl = dg.angle_set(fl)
    a_rot = dg.angle_set(rot)
    del rot  # with its curvature bundle; the scaled flows come next
    occ0, occ1 = a_fl.occupied, a_rot.occupied
    rolled = np.roll(occ0, int(round(0.7 * occ0.size / (2.0 * np.pi))))

    def dilated(occ):
        return occ | np.roll(occ, 1) | np.roll(occ, -1)

    strays = int(np.sum(occ1 & ~dilated(rolled))
                 + np.sum(rolled & ~dilated(occ1)))
    out.append(CheckResult("invariance_rotation_bin_shift[cellular]",
                           strays == 0, strays, 0,
                           "rolled occupancy matches within one bin"))
    kind_rot = dg.classify(a_rot, tc_rot).kind
    out.append(CheckResult("invariance_rotation_verdict",
                           kind_rot == "FullCircle", kind_rot,
                           "FullCircle", "exact"))
    # a quarter turn is an exact bin multiple: the strip's half-occupied
    # set must roll by exactly a quarter of the bins, no slack
    _, st = cache.strip()
    a_st = dg.angle_set(st)
    a1 = dg.angle_set(_value_rotated(st, np.pi / 2.0))
    mismatches = int(np.sum(a1.occupied
                            != np.roll(a_st.occupied, a_st.n_bins // 4)))
    out.append(CheckResult("invariance_rotation_bin_shift[strip]",
                           mismatches == 0, mismatches, 0,
                           "exact roll by n/4 bins"))
    for label, base, tc0, a0 in (("cellular", fl, tc, a_fl),
                                 ("strip", st, dg.total_curvature(st), a_st)):
        scaled = _value_mapped(base, lambda vx, vy: (3.0 * vx, 3.0 * vy))
        tc_scaled = dg.total_curvature(scaled)
        out.append(CheckResult(
            "invariance_scaling_curvature[%s]" % label,
            abs(tc_scaled - 9.0 * tc0) <= 1e-8 * 9.0 * tc0, tc_scaled,
            9.0 * tc0, "rel <= 1e-8"))
        k0 = dg.classify(a0, tc0).kind
        k1 = dg.classify(dg.angle_set(scaled), tc_scaled).kind
        out.append(CheckResult("invariance_scaling_verdict[%s]" % label,
                               k0 == k1, k1, k0, "exact"))
    return out


_STRIP = ("strip",)
_SADDLE = ("saddle",)
_TORUS_512 = ("cellular", 512)

# (name, check, the _FlowCache keys the check reads)
_CHECKS = (
    ("shear_triviality", check_shear_triviality,
     [("shear", name) for name in _SHEARS]),
    ("counterexample", check_counterexample,
     [("counterexample", n) for n in (100, 128, 256)]),
    ("sign_equation", check_sign_equation, []),
    ("transverse_profile", check_transverse_profile, []),
    ("strip_flow", check_strip_flow, [_STRIP]),
    ("saddle_flow", check_saddle_flow, [_SADDLE]),
    ("equal_distribution", check_equal_distribution,
     [("cellular", 512), _STRIP]),
    ("strict_gap", check_strict_gap, [("cellular", 256)]),
    ("identity_chain", check_identity_chain,
     [("cellular", n) for n in (128, 256, 512)]
     + [_STRIP, ("strip", ("nx", 385), ("ny", 65)),
        ("counterexample", 129)]),
    ("stability_margins", check_stability_margins,
     [("shear", name) for name in _SHEARS]),
    ("invariance", check_invariance, [("cellular", 256), _STRIP]),
)
_CHECK_MAP = {name: check for name, check, _ in _CHECKS}
_READS = {name: reads for name, _, reads in _CHECKS}

_SUITES = {
    "all": [name for name, _, _ in _CHECKS],
    "shears": ["shear_triviality", "sign_equation", "stability_margins"],
    "oned": ["transverse_profile"],
    "identities": ["counterexample", "identity_chain"],
    "type3": ["strip_flow"],
    "saddle": ["saddle_flow"],
    "cellular": ["equal_distribution", "strict_gap"],
    "invariance": ["invariance"],
}


def run_suite(name):
    """Run the checks of one suite; return their results in suite order.

    The saddle's check runs whole (solve, velocity, diagnostics) on one
    worker thread with a :class:`_FlowCache` of its own, so the saddle never
    enters the shared memo.  Meanwhile the calling thread runs, in suite
    order, every other check that reads no 512^2 torus.  It then joins the
    worker, returns the pages the saddle held to the system, and runs the
    checks that read the torus: the torus sets the suite's peak resident
    set, and the saddle is never alive under it.  Each shared flow is built
    on first read and dropped after the last check, in this run order, that
    reads it.  Any error is raised once the worker is joined.
    """
    from concurrent.futures import ThreadPoolExecutor

    checks = _SUITES[name]
    late = [check for check in checks if _TORUS_512 in _READS[check]]
    order = [c for c in checks if c not in late and c != "saddle_flow"] + late
    last = {key: i for i, check in enumerate(order) for key in _READS[check]}
    cache, done = _FlowCache(), {}

    def run(i):
        done[order[i]] = _CHECK_MAP[order[i]](cache)
        for key in _READS[order[i]]:
            if last[key] == i:
                cache.drop(key)

    with ThreadPoolExecutor(max_workers=1) as pool:
        if "saddle_flow" in checks:
            done["saddle_flow"] = pool.submit(
                lambda: _CHECK_MAP["saddle_flow"](_FlowCache()))
        for i in range(len(order) - len(late)):
            run(i)
    if "saddle_flow" in checks:
        _ser._release_freed_pages()
        done["saddle_flow"] = done["saddle_flow"].result()
    for i in range(len(order) - len(late), len(order)):
        run(i)
    return [res for check in checks for res in done[check]]

