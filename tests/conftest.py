"""Shared pytest set-up."""

from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# build never fails on an example no earlier run has seen.
settings.register_profile("ci", derandomize=True)
