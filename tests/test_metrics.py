"""Merit-figure computation from detected peaks."""

import math

import numpy as np
import pytest

from mfcorr import DomainError, ObjectSpec, PeakMeasurement, compute_indices
from mfcorr.correlate import CorrelationResult
from mfcorr.metrics import INDEX_NAMES, _overlaps

SPEC = ObjectSpec()  # x_p=4.5, x_s=1.8, h_p/h_s = 2


def profile(values, dx=0.1, x0=0.0):
    values = np.asarray(values, dtype=float)
    return CorrelationResult(lags=x0 + dx * np.arange(values.size), values=values)


def indices(pm, p):
    """compute_indices' row by figure name."""
    return dict(zip(INDEX_NAMES, compute_indices(pm, SPEC, p)))


def overlap(p, x_lo, x_hi):
    """The overlap integral of p over [x_lo, x_hi], as stack_figures takes it: a one-row stack."""
    return float(_overlaps(p.lags, p.values[None], [0], [x_lo], [x_hi])[0])


def test_perfect_result_is_definitional():
    pm = PeakMeasurement(x1=SPEC.x_p, h1=1.0, w1=0.3,
                         x2=SPEC.x_s, h2=0.5, w2=0.2)
    idx = indices(pm, profile(np.zeros(64)))
    assert idx["r_xp"] == 0.0
    assert idx["r_xs"] == 0.0
    assert idx["r_h"] == 1.0
    assert idx["r_wp"] == pytest.approx(0.3)
    assert idx["r_ws"] == pytest.approx(0.4)
    assert idx["alpha_overlap"] == 0.0


def test_missing_secondary_flags():
    pm = PeakMeasurement(x1=4.4, h1=1.0, w1=0.3)
    row = compute_indices(pm, SPEC, profile(np.zeros(64)))
    assert row.shape == (len(INDEX_NAMES),)
    idx = dict(zip(INDEX_NAMES, row))
    assert idx["r_xp"] == pytest.approx((4.5 - 4.4) / 4.5)
    assert idx["r_wp"] == pytest.approx(0.3)
    assert math.isnan(idx["r_xs"]) and math.isnan(idx["r_h"])
    assert math.isnan(idx["r_ws"]) and math.isnan(idx["alpha_overlap"])


def test_nonpositive_primary_rejected():
    pm = PeakMeasurement(x1=4.5, h1=0.0, w1=0.3)
    with pytest.raises(DomainError):
        compute_indices(pm, SPEC, profile(np.zeros(8)))


def test_overlap_two_triangles():
    # two unit triangles at x=1 and x=3 (half-width 0.5), zero between:
    # each triangle holds area 0.5, both lie inside [1, 3] entirely except
    # the outer halves, so the Riemann sum over [1, 3] is close to 0.5
    dx = 0.01
    x = np.arange(0, 4, dx)
    tri = (np.clip(1 - np.abs(x - 1.0) / 0.5, 0, None)
           + np.clip(1 - np.abs(x - 3.0) / 0.5, 0, None))
    p = profile(tri, dx=dx)
    got = overlap(p, 1.0, 3.0)
    want = dx * tri[(x >= 1.0) & (x <= 3.0)].sum()
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.5, abs=0.02)  # two inner half-triangles


def test_overlap_order_insensitive():
    p = profile(np.ones(50), dx=0.1)
    assert overlap(p, 3.0, 1.0) == overlap(p, 1.0, 3.0)


def test_overlap_counts_negative_values():
    vals = np.concatenate([np.full(10, -1.0), np.full(10, 1.0)])
    p = profile(vals, dx=0.1)
    assert overlap(p, 0.0, 1.95) == pytest.approx(0.0, abs=1e-12)
    assert overlap(p, 0.0, 0.95) == pytest.approx(-1.0, abs=1e-12)


def test_alpha_overlap_uses_detected_positions():
    dx = 0.01
    x = np.arange(0, 6.4, dx)
    vals = (np.exp(-((x - 4.5) ** 2) / (2 * 0.09))
            + 0.4 * np.exp(-((x - 1.8) ** 2) / (2 * 0.0225)))
    p = profile(vals, dx=dx)
    pm = PeakMeasurement(x1=4.5, h1=1.0, w1=0.4, x2=1.8, h2=0.4, w2=0.2)
    idx = indices(pm, p)
    assert idx["alpha_overlap"] == pytest.approx(overlap(p, 1.8, 4.5), abs=1e-15)
    assert idx["alpha_overlap"] > 0
