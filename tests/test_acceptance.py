"""Acceptance criteria, one test per criterion.

Each test runs the same check functions the verify command uses and fails
with the full PASS/FAIL line of every check that missed its tolerance, so
a red test names the measured value, the expected value, and the budget it
blew.  Wall-time ceilings are asserted per criterion; the solved flows are
shared through the session cache of ``conftest.py``, so the first criterion
touching a flow pays for its solve inside its own (generous) budget.
"""

import time

from eulerlab import acceptance


def run_checks(name, cache, budget):
    start = time.perf_counter()
    results = acceptance._CHECK_MAP[name](cache)
    elapsed = time.perf_counter() - start
    bad = [res.line() for res in results if not res.passed]
    assert not bad, "\n" + "\n".join(bad)
    assert elapsed < budget, \
        "%s took %.2fs, budget %.0fs" % (name, elapsed, budget)
    return results


def test_criterion_01_shear_triviality(cache):
    run_checks("shear_triviality", cache, 1.0)


def test_criterion_02_counterexample_residuals(cache):
    run_checks("counterexample", cache, 5.0)


def test_criterion_03_sign_equation_exact(cache):
    run_checks("sign_equation", cache, 1.0)


def test_criterion_04_transverse_profile(cache):
    run_checks("transverse_profile", cache, 1.0)


def test_criterion_05_strip_flow(cache):
    run_checks("strip_flow", cache, 60.0)


def test_criterion_06_saddle_flow(cache):
    run_checks("saddle_flow", cache, 90.0)


def test_criterion_07_equal_distribution(cache):
    run_checks("equal_distribution", cache, 30.0)


def test_criterion_08_strict_gap(cache):
    run_checks("strict_gap", cache, 10.0)


def test_criterion_09_identity_chain(cache):
    run_checks("identity_chain", cache, 20.0)


def test_criterion_10_stability_margins(cache):
    run_checks("stability_margins", cache, 1.0)


def test_criterion_11_invariance(cache):
    run_checks("invariance", cache, 10.0)
