"""Acceptance criteria, one test per criterion.

Each test runs the same check functions the verify command uses and fails
with the full PASS/FAIL line of every check that missed its tolerance, so
a red test names the measured value, the expected value, and the budget it
blew.  Wall-time ceilings are asserted per criterion; the solved flows are
shared through the session cache of ``conftest.py``, so the first criterion
touching a flow pays for its solve inside its own (generous) budget.
"""

import threading
import time

import pytest

from eulerlab import acceptance, elliptic2d


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


# ---------------------------------------------------------------------------
# which flows each check reads, and their release by run_suite


class RecordingCache(acceptance._FlowCache):
    """A cache that takes its flows from the session cache and records each
    key read and built, and the most flows it held at once."""

    def __init__(self, session):
        super().__init__()
        self.session = session
        self.reads = set()
        self.built = []
        self.peak = 0

    def _get(self, key, build):
        self.reads.add(key)
        if key not in self._memo:
            self.built.append(key)
        flow = super()._get(key, lambda: self.session._get(key, build))
        self.peak = max(self.peak, len(self._memo))
        return flow

    def start(self, key, build, pool):
        # run_suite's background build, recorded like one _get makes
        if key not in self._memo:
            self.built.append(key)
        super().start(key, lambda: self.session._get(key, build), pool)
        self.peak = max(self.peak, len(self._memo))


@pytest.mark.parametrize("name", sorted(acceptance._CHECK_MAP))
def test_each_check_reads_the_flows_its_entry_names(name, cache):
    rec = RecordingCache(cache)
    acceptance._CHECK_MAP[name](rec)
    assert rec.reads == set(acceptance._READS[name])


def run_suite(name, cache, monkeypatch):
    rec = RecordingCache(cache)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: rec)
    return rec, acceptance.run_suite(name)


def test_run_suite_drops_every_flow_after_its_last_check(cache, monkeypatch):
    rec, results = run_suite("all", cache, monkeypatch)
    assert len(results) == 47 and all(res.passed for res in results)
    assert rec._memo == {}
    # built on first read, never read again once dropped
    assert len(rec.built) == len(set(rec.built)) == 13
    assert rec.peak < 13


def test_run_suite_solves_only_the_saddle_on_one_worker(cache, monkeypatch):
    # the session's saddle, handed out by the builder run_suite gives its
    # worker; every other flow is read on the calling thread
    solved, builds = cache.solve_saddle, []

    def watched():
        builds.append(threading.current_thread())
        return solved()

    monkeypatch.setattr(cache, "solve_saddle", watched)
    monkeypatch.setattr(cache, "drop", lambda key: None)
    monkeypatch.delitem(cache._memo, ("saddle",), raising=False)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: cache)
    before = threading.active_count()
    results = acceptance.run_suite("all")
    assert len(results) == 47 and all(res.passed for res in results)
    assert len(builds) == 1 and builds[0] is not threading.main_thread()
    assert cache._memo[("saddle",)] == solved()
    assert threading.active_count() == before


@pytest.mark.parametrize("suite", ["all", "saddle"])
def test_a_failing_background_solve_raises_at_the_saddle_check(
        suite, cache, monkeypatch):
    class FailingSaddle(RecordingCache):
        def solve_saddle(self):
            raise elliptic2d.NonConvergence("x")

        def start(self, key, build, pool):
            # the worker runs the failing builder, not the session's solve
            super(RecordingCache, self).start(key, build, pool)

    rec = FailingSaddle(cache)
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: rec)
    before = threading.active_count()
    with pytest.raises(elliptic2d.NonConvergence, match="^x$"):
        acceptance.run_suite(suite)
    # raised where the saddle check reads the flow, after the checks
    # before it ran
    checks = acceptance._SUITES[suite]
    earlier = checks[:checks.index("saddle_flow")]
    assert rec.reads == {key for name in earlier + ["saddle_flow"]
                         for key in acceptance._READS[name]}
    assert threading.active_count() == before


def test_run_suite_returns_the_freed_pages_once_the_saddle_is_dropped(
        cache, monkeypatch):
    release, held = acceptance._release_freed_pages, []
    assert release() is None  # malloc_trim where glibc has it, else nothing
    rec = RecordingCache(cache)
    monkeypatch.setattr(acceptance, "_release_freed_pages",
                        lambda: held.append(set(rec._memo)))
    monkeypatch.setattr(acceptance, "_FlowCache", lambda: rec)
    acceptance.run_suite("all")
    # once, right after the saddle check dropped the saddle
    assert held == [{("shear", name) for name in acceptance._SHEARS}
                    | {("strip",)}]


def test_named_suites_match_the_same_checks_inside_all(cache, monkeypatch):
    full = {res.name: res.to_dict()
            for res in run_suite("all", cache, monkeypatch)[1]}
    for suite in acceptance._SUITES:
        got = [res.to_dict() for res in run_suite(suite, cache, monkeypatch)[1]]
        assert got and got == [full[d["name"]] for d in got], suite
