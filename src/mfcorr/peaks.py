"""Peak geometry measurements on matching profiles.

Widths follow the 75%-slice rule: the contiguous extent around a peak of
positive height where the profile stays at or above that fraction of the
height, with linear interpolation at the two crossings.  A region that runs
into the profile boundary is truncated there.

Sliding similarity profiles can be numerically flat where the template fits
entirely under the object, so a peak sits at the midpoint of its tie run: a
chain of neighbours that differ by at most 1e-12*max(1, |h1|), h1 the profile
maximum, so sub-tolerance steps may add up past the tolerance within one run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlate import CorrelationResult
from .generators import ObjectSpec
from .signal import DomainError

WIDTH_FRACTION = 0.75


@dataclass(frozen=True)
class PeakMeasurement:
    """Primary and (optional) secondary peak geometry: position, height, width."""

    x1: float
    h1: float
    w1: float
    x2: float | None = None
    h2: float | None = None
    w2: float | None = None

    @property
    def has_secondary(self) -> bool:
        return self.x2 is not None


def width_at_fraction(lags: np.ndarray, values: np.ndarray, peak: int) -> float:
    """Extent of the contiguous region around values[peak] at or above WIDTH_FRACTION of it."""
    level = WIDTH_FRACTION * values[peak]

    def crossing(j):  # where the line from sample j to sample j + 1 meets the level
        step = lags[j + 1] - lags[j]
        return lags[j] + step * (level - values[j]) / (values[j + 1] - values[j])

    below = np.flatnonzero(values < level)
    i, k = below.searchsorted((peak, peak + 1))  # below[:i] left of the peak, below[k:] right
    left = lags[0] if i == 0 else crossing(below[i - 1])
    right = lags[-1] if k == below.size else crossing(below[k] - 1)
    return float(right - left)


def detect_peaks(profile: CorrelationResult, object_spec: ObjectSpec) -> PeakMeasurement:
    """Find the global maximum and the best-separated secondary local maximum.

    A maximum sits at the midpoint of its tie run (module docstring); equal
    maxima separated by a dip break ties leftmost, and a profile with no break
    between tie runs is constant.  The secondary is the highest interior local
    maximum (a strict rise in, no rise out) of positive height whose run
    midpoint lies further than 3*max(sigma_p, sigma_s) from the primary's
    (keeps the primary peak's shoulder from registering as a second match).
    A primary of height <= 0 has no width and raises DomainError.
    """
    lags, values = profile.lags, profile.values
    i1 = int(np.argmax(values))
    h1 = float(values[i1])
    if h1 <= 0.0:
        raise DomainError(f"primary peak height {h1:.6g} is not positive")
    step = np.diff(values)
    breaks = np.flatnonzero(np.abs(step) > 1e-12 * max(1.0, abs(h1)))
    if breaks.size == 0:
        raise DomainError("profile is constant; peak detection undefined")

    # peaks[0] is the primary, the rest are the secondary candidates
    peaks = np.flatnonzero((step[:-1] > 0) & (step[1:] <= 0) & (values[1:-1] > 0))
    peaks = np.concatenate(((i1,), peaks + 1))
    # runs end at breaks; run r spans ends[r] + 1 .. ends[r + 1]
    ends = np.concatenate(((-1,), breaks, (values.size - 1,)))
    run = breaks.searchsorted(peaks)
    mid = 0.5 * (lags[ends[run] + 1] + lags[ends[run + 1]])
    x1 = float(mid[0])
    w1 = width_at_fraction(lags, values, i1)

    # the primary lies inside its own exclusion zone, so a best slot of 0 means none
    exclusion = 3.0 * max(object_spec.sigma_p, object_spec.sigma_s)
    best = int(np.argmax(np.where(np.abs(mid - x1) > exclusion, values[peaks], 0.0)))
    if best == 0:
        return PeakMeasurement(x1, h1, w1)
    i2 = int(peaks[best])
    return PeakMeasurement(x1, h1, w1, x2=float(mid[best]),
                           h2=float(values[i2]), w2=width_at_fraction(lags, values, i2))
