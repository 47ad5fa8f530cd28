"""Shared pytest configuration.

Property tests draw the same examples on every run (``derandomize``) and
carry no per-example deadline, so a slow or busy host cannot fail them.
The acceptance-resolution flows are solved once per session.
"""

import pytest
from hypothesis import settings

from eulerlab import acceptance, elliptic2d

settings.register_profile("eulerlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("eulerlab")


class SessionFlows(acceptance._FlowCache):
    """The acceptance checks' flow cache, whose reference strip and saddle
    come from the session's one solve of each.  That solve is kept whole,
    (field, flow, SolveReport), and outlives ``drop``, so a check suite
    that drops the flows it read leaves nothing to solve again.  Both come
    through ``_get``, so a cache that reads its misses from this one (the
    saddle worker's own cache included) gets the same solve."""

    _SOLVES = {("strip",): "strip", ("saddle",): "saddle"}

    def __init__(self):
        super().__init__()
        self._solved = {}

    def solved(self, name):
        if name not in self._solved:
            build = {"strip": elliptic2d.solve_type3_strip,
                     "saddle": elliptic2d.solve_saddle_quadrant}[name]
            self._solved[name] = build()
        return self._solved[name]

    def _get(self, key, build):
        name = self._SOLVES.get(key)
        return super()._get(key, build if name is None
                            else lambda: self.solved(name)[:2])


@pytest.fixture(scope="session")
def cache():
    """The acceptance checks' flow cache: the reference strip and saddle
    (the constructions' keyword defaults) and the coarse 385 x 65 strip,
    for every module that needs those flows."""
    return SessionFlows()


@pytest.fixture(scope="session")
def type3_full(cache):
    """(field, flow, SolveReport) of the reference strip."""
    return cache.solved("strip")


@pytest.fixture(scope="session")
def saddle_full(cache):
    """(field, flow, SolveReport) of the reference saddle."""
    return cache.solved("saddle")
