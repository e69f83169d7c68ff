"""The six merit figures computed from a detected peak pair.

Sign conventions follow the comparison framework: localization errors are
relative displacements (desirable near zero), r_h is the detected height
contrast normalized by the object's own contrast (desirable high), r_wp and
r_ws are width-to-height ratios of the two detected peaks, and the overlap
integral runs between the two detected positions over the raw profile, so
negative profile values between the peaks lower it.

stack_figures scores every row of a profile stack at once: six figures in
INDEX_NAMES order, nan where one is missing; compute_indices is its one-profile row.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np

from .correlate import CorrelationResult
from .generators import ObjectSpec
from .peaks import PeakMeasurement, stack_peaks
from .signal import DomainError

INDEX_NAMES = ("r_xp", "r_xs", "r_h", "r_wp", "r_ws", "alpha_overlap")


def _overlaps(lags: np.ndarray, values: np.ndarray, rows, x_a, x_b) -> np.ndarray:
    """Riemann sums of values[rows[k]] over [x_a[k], x_b[k]]: np.sum of a slice (lags ascend)."""
    dx = float(lags[1] - lags[0]) if lags.size > 1 else 0.0
    lo, hi = np.sort([x_a, x_b], axis=0)
    lo, hi = lags.searchsorted(lo).tolist(), lags.searchsorted(hi, "right").tolist()
    return dx * np.array([np.add.reduce(values[r, a:b]) for r, a, b in zip(rows, lo, hi)])


def stack_figures(lags: np.ndarray, values: np.ndarray, spec: ObjectSpec,
                  peaks=None) -> np.ndarray:
    """The six merit figures (INDEX_NAMES, nan where missing) of each of R profiles, as (R, 6).

    peaks (x1, h1, w1, x2, h2, w2 of R values) defaults to stack_peaks; a nan
    x1, as where detect_peaks raises, gives six nan figures.
    """
    peaks = np.asarray(stack_peaks(lags, values, spec) if peaks is None else peaks, dtype=float)
    out = np.full((values.shape[0], len(INDEX_NAMES)), math.nan)
    ok, two = ~np.isnan(peaks[0]), np.flatnonzero(~np.isnan(peaks[3]))
    x1, h1, w1, x2, h2, w2 = peaks[:, ok]
    with np.errstate(over="ignore"):  # a subnormal height gives r_wp = inf, as on scalars
        out[ok, :5] = np.column_stack(((spec.x_p - x1) / spec.x_p, (spec.x_s - x2) / spec.x_s,
                                       (h1 / h2) / (spec.h_p / spec.h_s), w1 / h1, w2 / h2))
    out[two, 5] = _overlaps(lags, values, two.tolist(), peaks[0, two], peaks[3, two])
    return out


def compute_indices(pm: PeakMeasurement, spec: ObjectSpec,
                    profile: CorrelationResult) -> np.ndarray:
    """stack_figures' (6,) row for one profile and its detected peaks, nan where missing.

    Nothing in the package calls it; it stays because perfbench's tracer spans it by name.
    """
    if pm.h1 <= 0:
        raise DomainError("primary peak height must be positive to compute indices")
    peaks = [[v] for v in astuple(pm)]
    return stack_figures(profile.lags, profile.values[None], spec, peaks)[0]
