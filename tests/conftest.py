"""Shared pytest set-up."""

import threading

import pytest
from hypothesis import settings

from mfcorr import kernels

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# build never fails on an example no earlier run has seen.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Each kernels.sliding_sums call from now on, as (thread, samples' bytes, need)."""
    calls, kernel = [], kernels.sliding_sums

    def spy(f, g, k0, n_lags, need=kernels.ALL_SUMS):
        calls.append((threading.get_ident(), f.tobytes(), set(need)))
        return kernel(f, g, k0, n_lags, need=need)

    monkeypatch.setattr(kernels, "sliding_sums", spy)
    return calls
