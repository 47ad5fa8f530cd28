"""Shared pytest configuration.

Property tests draw the same examples on every run (``derandomize``) and
carry no per-example deadline, so a slow or busy host cannot fail them.
The acceptance-resolution flows are solved once per session.
"""

import pytest
from hypothesis import settings

from eulerlab import acceptance

settings.register_profile("eulerlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("eulerlab")


@pytest.fixture(scope="session")
def cache():
    """The acceptance checks' flow cache: the reference strip and saddle
    (the constructions' keyword defaults) and the coarse 385 x 65 strip,
    for every module that needs those flows."""
    return acceptance._FlowCache()
