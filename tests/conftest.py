"""Shared pytest configuration.

Property tests draw the same examples on every run (``derandomize``) and
carry no per-example deadline, so a slow or busy host cannot fail them.
"""

from hypothesis import settings

settings.register_profile("eulerlab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("eulerlab")
