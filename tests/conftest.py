"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` makes property tests draw
the same examples on every run and keep no example database; without it,
hypothesis runs with its defaults. No profile changes ``max_examples``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
