"""Suite-wide pytest configuration: the hypothesis profiles and ``sched``.

``default`` is what tier-1 runs.  ``sweep`` is the random codec sweep CI
runs as its own job (``pytest tests/property/test_tsblocks_properties.py
--hypothesis-profile=sweep``): many more examples, and explicitly not
derandomised, so every run explores new inputs (hypothesis derandomises by
default when it detects CI).  Tests that pin their own ``@settings`` keep
them under either profile.
"""

import pytest
from hypothesis import settings

from repro.kernel import Scheduler

settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile(
    "sweep", max_examples=2000, deadline=None, derandomize=False, print_blob=True
)
settings.load_profile("default")


@pytest.fixture
def sched():
    """A fresh scheduler, stopped when the test ends.

    ``stop()`` closes the first steps still queued (a silo's heartbeat loop
    in a test that never runs the clock) where they were made, instead of
    leaving their coroutines to the collector, which may finalize one
    before its task and warn that it was never awaited.
    """
    scheduler = Scheduler()
    yield scheduler
    scheduler.stop()
