"""Test-wide settings: hypothesis draws the same examples on every run and
has no per-example deadline, so the suite stays deterministic and does not
fail on a slow host. No example database is written."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
