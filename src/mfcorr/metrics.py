"""The six merit figures computed from a detected peak pair.

Sign conventions follow the comparison framework: localization errors are
relative displacements (desirable near zero), r_h is the detected height
contrast normalized by the object's own contrast (desirable high), r_wp and
r_ws are width-to-height ratios of the two detected peaks, and the overlap
integral runs between the two detected positions over the raw profile, so
negative profile values between the peaks lower it.

stack_figures scores every row of a profile stack at once; compute_indices is
its form for one detected profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlate import CorrelationResult
from .generators import ObjectSpec
from .peaks import PeakMeasurement, stack_peaks
from .signal import DomainError

INDEX_NAMES = ("r_xp", "r_xs", "r_h", "r_wp", "r_ws", "alpha_overlap")


@dataclass(frozen=True)
class PerformanceIndices:
    """Six merit figures; secondary-dependent entries are None when undetected."""

    r_xp: float
    r_wp: float
    r_xs: float | None = None
    r_h: float | None = None
    r_ws: float | None = None
    alpha_overlap: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in INDEX_NAMES}


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


def overlap_integral(profile: CorrelationResult, x_lo: float, x_hi: float) -> float:
    """Riemann sum of the raw profile over [x_lo, x_hi]; negative values count as negative."""
    return float(_overlaps(profile.lags, profile.values[None], [0], [x_lo], [x_hi])[0])


def compute_indices(pm: PeakMeasurement, spec: ObjectSpec,
                    profile: CorrelationResult) -> PerformanceIndices:
    """Merit figures for one detected profile; secondary-based ones flagged missing."""
    if pm.h1 <= 0:
        raise DomainError("primary peak height must be positive to compute indices")
    peaks = [[math.nan if v is None else v] for v in (pm.x1, pm.h1, pm.w1, pm.x2, pm.h2, pm.w2)]
    figures = stack_figures(profile.lags, profile.values[None], spec, peaks)[0].tolist()
    return PerformanceIndices(**{name: None if math.isnan(v) else v
                                 for name, v in zip(INDEX_NAMES, figures)})
