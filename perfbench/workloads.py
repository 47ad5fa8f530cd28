"""The three benchmark workloads and the checks on their outputs.

Each workload is a fixed list of ``eulerlab`` command lines run one after
another in the benchmark process (a closed loop with one client).  Solves and
``verify`` stay at the acceptance resolutions; the workload seed drives only
the streamline seed fan of ``analyze_trace``.

A check returns a list of problems; an empty list means the command's output
is correct.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

VERIFY_CHECKS = 47

# analyze verdicts of the reference bundles, frozen from the parent of the
# benchmark's first version.  The tolerances are the acceptance suite's for
# the same quantity: strip_curvature_formula (TC, rel 3e-2),
# strip_two_route_agreement (Jinf, rel 5e-2), cellular_bin_mean (TC,
# rel 1e-2) and cellular_strict_gap (2/pi TC - |Jinf| > 0.1 * 2/pi TC).
STRIP_VERDICT = ("TypeIIIUpper", 35.717502808408625, 22.738468507427548)
TAYLOR_GREEN_VERDICT = ("FullCircle", 25.133971709250559,
                        -0.00030115862539751567)

# streamline fan: 12 seeds in the strip inflow bands 6 <= |x| <= 10,
# 0.1 <= |y| <= 0.9, one antithetic pair per y slab (three slabs on each
# side of the centreline): (-x, y) and (16 - x, slab top + slab bottom - y).
# A trace's length grows about linearly in |x| and in y within a slab, so
# the pairs cancel most of the seed's effect on the fan's total RK4 steps,
# hence on its cost.  Near y = 0 the length drops steeply, and seeds far
# downstream stagnate within a few steps, so the fan keeps clear of it.
# With trace lengths interpolated from a 5 x 73 table over the band, the
# total's interquartile range over 400 seeds is 0.5% of its median, against
# 26% for 12 uniform draws over the whole band.
FAN_SLABS = 3
FAN_SEEDS = 4 * FAN_SLABS
FAN_X = (6.0, 10.0)
FAN_Y = (0.1, 0.9)


def seed_fan(seed: int):
    rng = np.random.default_rng(seed % 2 ** 64)
    upper = np.linspace(FAN_Y[0], FAN_Y[1], FAN_SLABS + 1).tolist()
    slabs = [(-hi, -lo) for lo, hi in zip(upper[:-1], upper[1:])]
    slabs += list(zip(upper[:-1], upper[1:]))
    fan = []
    for lo, hi in slabs:
        u, v = rng.uniform(size=2).tolist()
        x = FAN_X[0] + (FAN_X[1] - FAN_X[0]) * u
        y = lo + (hi - lo) * v
        fan += [(-x, y), (FAN_X[0] + FAN_X[1] - x, lo + hi - y)]
    return fan


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _missing(out, names):
    return ["%s missing" % os.path.join(out, n) for n in names
            if not os.path.isfile(os.path.join(out, n))]


def check_solve(stdout, out):
    problems = _missing(out, ("flow.csv", "flow.json", "report.json"))
    if problems:
        return problems
    rep = _read_json(os.path.join(out, "report.json"))
    tol = rep["config"]["tol"]
    solver = rep["solver"]
    if not (solver["final_residual"] < tol and solver["final_update"] < tol):
        problems.append("solve stopped above tol %g: %r" % (tol, solver))
    if rep["attachment_warning"] or rep["error"] is not None:
        problems.append("solve report flags a problem: %r" % rep)
    return problems


def _verdict(stdout):
    for line in stdout.splitlines():
        if line.startswith("classification="):
            fields = dict(f.split("=", 1) for f in line.split())
            return (fields["classification"], float(fields["TC"]),
                    float(fields["Jinf"]))
    return None


def check_analyze_strip(stdout, out):
    got = _verdict(stdout)
    if got is None:
        return ["analyze printed no verdict line"]
    kind, tc, jinf = got
    ref_kind, ref_tc, ref_j = STRIP_VERDICT
    problems = []
    if kind != ref_kind:
        problems.append("strip verdict %s, expected %s" % (kind, ref_kind))
    if not abs(tc - ref_tc) < 3e-2 * abs(ref_tc):
        problems.append("strip TC %r off %r by more than rel 3e-2"
                        % (tc, ref_tc))
    if not abs(jinf - ref_j) < 5e-2 * abs(ref_j):
        problems.append("strip Jinf %r off %r by more than rel 5e-2"
                        % (jinf, ref_j))
    return problems + _missing(out, ("angle_set.csv", "curvature_profile.csv",
                                     "report.json"))


def check_analyze_taylor_green(stdout, out):
    got = _verdict(stdout)
    if got is None:
        return ["analyze printed no verdict line"]
    kind, tc, jinf = got
    ref_kind, ref_tc, _ = TAYLOR_GREEN_VERDICT
    problems = []
    if kind != ref_kind:
        problems.append("taylor-green verdict %s, expected %s"
                        % (kind, ref_kind))
    if not abs(tc - ref_tc) < 1e-2 * abs(ref_tc):
        problems.append("taylor-green TC %r off %r by more than rel 1e-2"
                        % (tc, ref_tc))
    bound = 2.0 / math.pi * tc
    if not bound - abs(jinf) > 0.1 * bound:
        problems.append("taylor-green gap closed: Jinf %r, bound %r"
                        % (jinf, bound))
    return problems + _missing(out, ("angle_set.csv", "curvature_profile.csv",
                                     "report.json"))


def trace_points(out):
    """Point count per trace id in traces.csv."""
    counts = {}
    with open(os.path.join(out, "traces.csv")) as fh:
        fh.readline()
        for line in fh:
            tid = int(line.split(",", 1)[0])
            counts[tid] = counts.get(tid, 0) + 1
    return counts


def check_trace(stdout, out):
    problems = _missing(out, ("traces.csv", "traces.json"))
    if problems:
        return problems
    printed = [ln for ln in stdout.splitlines() if ln.startswith("trace ")]
    counts = trace_points(out)
    if len(printed) != FAN_SEEDS or len(counts) != FAN_SEEDS:
        problems.append("expected %d traces, stdout has %d, traces.csv %d"
                        % (FAN_SEEDS, len(printed), len(counts)))
    for line in printed:
        tid = int(line.split()[1].rstrip(":"))
        n = int(line.split()[2])
        if counts.get(tid) != n:
            problems.append("trace %d: stdout says %d points, traces.csv %r"
                            % (tid, n, counts.get(tid)))
    return problems


def check_verify(stdout, out):
    lines = stdout.splitlines()
    passed = sum(1 for ln in lines if ln.startswith("PASS "))
    failed = [ln for ln in lines if ln.startswith("FAIL")]
    problems = ["verify: " + ln for ln in failed]
    if passed != VERIFY_CHECKS:
        problems.append("verify printed %d PASS lines, expected %d"
                        % (passed, VERIFY_CHECKS))
    problems += _missing(out, ("verify.json",))
    if not problems and not _read_json(
            os.path.join(out, "verify.json"))["all_passed"]:
        problems.append("verify.json says not all checks passed")
    return problems


class Workload:
    """Commands of one iteration, each as (label, argv, check).

    ``out`` is the directory the iteration's artifacts go to, one
    subdirectory per label; the same paths are reused on every iteration
    because the echoed configuration, --out included, is part of the bytes.
    """

    def __init__(self, work, seed):
        self.seed = seed
        self.out = os.path.join(work, "out")

    def setup_commands(self):
        return []

    def outdir(self, label):
        return os.path.join(self.out, label)

    def trace_problems(self, tracer):
        """Cross-check the tracer's counts against the iteration's files."""
        return []


class SolveEmit(Workload):
    name = "solve_emit"

    def commands(self):
        return [
            ("solve_strip", ["solve", "strip", "--out",
                             self.outdir("solve_strip")], check_solve),
            ("solve_halfplane", ["solve", "halfplane", "--out",
                                 self.outdir("solve_halfplane")],
             check_solve),
        ]

    def trace_problems(self, tracer):
        reported = sum(
            _read_json(os.path.join(self.outdir(label), "report.json"))
            ["solver"]["iterations"]
            for label in ("solve_strip", "solve_halfplane"))
        if tracer.sweeps != reported:
            return ["traced sweeps %d != report.json iterations %d"
                    % (tracer.sweeps, reported)]
        return []


class AnalyzeTrace(Workload):
    name = "analyze_trace"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.bundle_dir = os.path.join(work, "bundle")
        self.bundle = os.path.join(self.bundle_dir, "flow.json")
        self.fan = seed_fan(seed)

    def setup_commands(self):
        return [("setup_solve_strip",
                 ["solve", "strip", "--out", self.bundle_dir], check_solve)]

    def commands(self):
        seeds = ["--seed=%r,%r" % (x, y) for x, y in self.fan]
        return [
            ("analyze_file", ["analyze", "--file", self.bundle, "--out",
                              self.outdir("analyze_file")],
             check_analyze_strip),
            ("analyze_taylor_green",
             ["analyze", "--catalog", "taylor-green", "--grid", "torus:512",
              "--out", self.outdir("analyze_taylor_green")],
             check_analyze_taylor_green),
            ("trace_file", ["trace", "--file", self.bundle] + seeds
             + ["--out", self.outdir("trace_file")], check_trace),
        ]

    def trace_problems(self, tracer):
        problems = []
        steps = sum(n - 1 for n in
                    trace_points(self.outdir("trace_file")).values())
        if tracer.rk4_steps != steps:
            problems.append("traced RK4 steps %d != traces.csv steps %d"
                            % (tracer.rk4_steps, steps))
        solves = sum(1 for span in tracer.spans
                     if span[0] == "elliptic2d.solve_semilinear")
        if solves:
            problems.append("%d solve_semilinear calls in the timed region"
                            % solves)
        return problems


class VerifyAll(Workload):
    name = "verify_all"

    def commands(self):
        return [("verify_all", ["verify", "--suite", "all", "--out",
                                self.outdir("verify_all")], check_verify)]


WORKLOADS = {w.name: w for w in (SolveEmit, AnalyzeTrace, VerifyAll)}
