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

from eulerlab import acceptance, elliptic2d, serialize


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
    key read and built, and the most flows it held at once.  A cache made
    ``like`` another shares its records: the saddle worker's own cache in
    one run_suite records into the shared cache's.  ``events`` lists every
    read and build, and the start and end of each check, with its thread."""

    def __init__(self, session, like=None):
        super().__init__()
        self.session = session
        self.reads, self.built, self.events = (
            (set(), [], []) if like is None
            else (like.reads, like.built, like.events))
        self.peak = 0

    def _get(self, key, build):
        self.reads.add(key)
        self.events.append(("read", key, threading.current_thread()))
        if key not in self._memo:
            self.built.append(key)
            self.events.append(("build", key, threading.current_thread()))
        flow = super()._get(key, lambda: self.session._get(key, build))
        self.peak = max(self.peak, len(self._memo))
        return flow


@pytest.mark.parametrize("name", sorted(acceptance._CHECK_MAP))
def test_each_check_reads_the_flows_its_entry_names(name, cache):
    rec = RecordingCache(cache)
    acceptance._CHECK_MAP[name](rec)
    assert rec.reads == set(acceptance._READS[name])


def recording(cache, monkeypatch, kind=RecordingCache):
    """Make run_suite's caches ``kind`` caches over the session's flows, and
    record the start and end of every check.  Returns the list the caches
    go into, in the order run_suite makes them: the shared one, then the
    worker's own, which records into it."""
    made = []

    def factory():
        made.append(kind(cache, *made[:1]))
        return made[-1]

    def recorded(name, check):
        def run(c):
            events = made[0].events
            events.append(("start", name, threading.current_thread()))
            results = check(c)
            events.append(("end", name, threading.current_thread()))
            return results
        return run

    for check, run in list(acceptance._CHECK_MAP.items()):
        monkeypatch.setitem(acceptance._CHECK_MAP, check, recorded(check, run))
    monkeypatch.setattr(acceptance, "_FlowCache", factory)
    return made


def run_suite(name, cache, monkeypatch):
    made = recording(cache, monkeypatch)
    return made, acceptance.run_suite(name)


TORUS_512 = ("cellular", 512)
READS_512 = {c for c in acceptance._CHECK_MAP
             if TORUS_512 in acceptance._READS[c]}
# the order the calling thread runs the checks of "all" in: the saddle's
# aside, those that read no 512^2 torus, then those that do
MAIN_ORDER = ([c for c in acceptance._SUITES["all"]
               if c != "saddle_flow" and c not in READS_512]
              + [c for c in acceptance._SUITES["all"] if c in READS_512])


def test_run_suite_drops_every_flow_after_its_last_check(cache, monkeypatch):
    (rec, worker), results = run_suite("all", cache, monkeypatch)
    assert len(results) == 47 and all(res.passed for res in results)
    assert rec._memo == {}
    # built on first read, never read again once dropped; the saddle only
    # in the worker's own cache, never in the shared one
    assert len(rec.built) == len(set(rec.built)) == 13
    assert list(worker._memo) == [("saddle",)]
    # at most the six flows identity_chain reads (the 512^2 torus among
    # them) at once: the shears and counterexamples are gone by then
    assert rec.peak <= 6


@pytest.mark.parametrize("suite", sorted(acceptance._SUITES))
def test_run_suite_matches_its_checks_run_one_by_one(suite, cache,
                                                     monkeypatch):
    fresh = RecordingCache(cache)
    serial = [res for check in acceptance._SUITES[suite]
              for res in acceptance._CHECK_MAP[check](fresh)]
    got = run_suite(suite, cache, monkeypatch)[1]
    assert [res.to_dict() for res in got] == [res.to_dict() for res in serial]
    assert [res.line() for res in got] == [res.line() for res in serial]


def test_run_suite_solves_only_the_saddle_on_one_worker(cache, monkeypatch):
    # the saddle's whole check runs on the worker, on the session's saddle
    # (read through the worker's own cache); every other flow is built and
    # every other check run on the calling thread, in MAIN_ORDER
    before = threading.active_count()
    (rec, worker), results = run_suite("all", cache, monkeypatch)
    assert len(results) == 47 and all(res.passed for res in results)
    main = threading.main_thread()
    assert [(kind, what) for kind, what, thread in rec.events
            if thread is not main] == [
        ("start", "saddle_flow"), ("read", ("saddle",)),
        ("build", ("saddle",)), ("end", "saddle_flow")]
    assert [what for kind, what, _ in rec.events
            if kind == "start" and what != "saddle_flow"] == MAIN_ORDER
    solved = cache.solved("saddle")[:2]
    assert all(a is b for a, b in zip(worker._memo[("saddle",)], solved))
    assert threading.active_count() == before


def test_the_512_torus_is_read_only_after_the_saddle_check_returns(
        cache, monkeypatch):
    # the worker's check waits until the calling thread has finished
    # invariance, the last check before the join, so the checks that read
    # no 512^2 torus provably run in the saddle's shadow; it then lingers,
    # so a 512^2 check that did not wait for it would start first
    shadow, waited = threading.Event(), []
    saddle, invariance = (acceptance._CHECK_MAP[c]
                          for c in ("saddle_flow", "invariance"))

    def saddle_in_the_shadow(c):
        waited.append(shadow.wait(60.0))
        time.sleep(0.2)
        return saddle(c)

    def invariance_then_release(c):
        try:
            return invariance(c)
        finally:
            shadow.set()

    monkeypatch.setitem(acceptance._CHECK_MAP, "saddle_flow",
                        saddle_in_the_shadow)
    monkeypatch.setitem(acceptance._CHECK_MAP, "invariance",
                        invariance_then_release)
    (rec, _), results = run_suite("all", cache, monkeypatch)
    assert len(results) == 47 and all(res.passed for res in results)
    assert waited == [True]
    events = [(kind, what) for kind, what, _ in rec.events]
    returned = events.index(("end", "saddle_flow"))
    torus = [i for i, (kind, what) in enumerate(events)
             if (kind, what) == ("read", TORUS_512)
             or (kind == "start" and what in READS_512)]
    assert len(torus) == 4 and min(torus) > returned


@pytest.mark.parametrize("suite", ["all", "saddle"])
def test_a_failing_background_solve_raises_at_the_saddle_check(
        suite, cache, monkeypatch):
    error = elliptic2d.NonConvergence("x")

    def fail():
        raise error

    class FailingSaddle(RecordingCache):
        # the saddle's build raises instead of handing out the session's
        def _get(self, key, build):
            if key != ("saddle",):
                return super()._get(key, build)
            self.reads.add(key)
            return super(RecordingCache, self)._get(key, fail)

    made = recording(cache, monkeypatch, FailingSaddle)
    before = threading.active_count()
    with pytest.raises(elliptic2d.NonConvergence, match="^x$") as raised:
        acceptance.run_suite(suite)
    assert raised.value is error
    # raised where run_suite joins the worker: every check that reads no
    # 512^2 torus has run on the calling thread, and none that reads it
    checks = acceptance._SUITES[suite]
    early = [c for c in MAIN_ORDER if c in checks and c not in READS_512]
    assert made[0].reads == {key for name in early + ["saddle_flow"]
                             for key in acceptance._READS[name]}
    assert threading.active_count() == before


def test_run_suite_returns_the_freed_pages_once_the_saddle_is_dropped(
        cache, monkeypatch):
    release, held = serialize._release_freed_pages, []
    assert release() is None  # malloc_trim where glibc has it, else nothing
    made = recording(cache, monkeypatch)
    monkeypatch.setattr(serialize, "_release_freed_pages", lambda: held.append(
        (set(made[0]._memo), [(k, w) for k, w, _ in made[0].events])))
    acceptance.run_suite("all")
    # once, after the saddle's check returned and before the 512^2 torus is
    # read, with only the flows later checks read again in the shared memo
    [(memo, events)] = held
    assert memo == {("strip",), ("cellular", 256)}
    assert ("end", "saddle_flow") in events
    assert ("read", TORUS_512) not in events


def test_named_suites_match_the_same_checks_inside_all(cache, monkeypatch):
    full = {res.name: res.to_dict()
            for res in run_suite("all", cache, monkeypatch)[1]}
    for suite in acceptance._SUITES:
        got = [res.to_dict() for res in run_suite(suite, cache, monkeypatch)[1]]
        assert got and got == [full[d["name"]] for d in got], suite
