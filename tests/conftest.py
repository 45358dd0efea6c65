"""Suite-wide pytest configuration: the hypothesis profiles.

``default`` is what tier-1 runs.  ``sweep`` is the random codec sweep CI
runs as its own job (``pytest tests/property/test_tsblocks_properties.py
--hypothesis-profile=sweep``): many more examples, and explicitly not
derandomised, so every run explores new inputs (hypothesis derandomises by
default when it detects CI).  Tests that pin their own ``@settings`` keep
them under either profile.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=50, deadline=None)
settings.register_profile(
    "sweep", max_examples=2000, deadline=None, derandomize=False, print_blob=True
)
settings.load_profile("default")
