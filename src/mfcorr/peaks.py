"""Peak geometry measurements on matching profiles.

Widths follow the 75%-slice rule: the contiguous extent around a peak where
the profile stays at or above the fraction of that peak's height, with linear
interpolation at the two crossings.  A region that runs into the profile
boundary is truncated there.
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
    n = values.size

    j = peak
    while j - 1 >= 0 and values[j - 1] >= level:
        j -= 1
    if j == 0:
        left = lags[0]
    else:
        step = lags[j] - lags[j - 1]
        left = lags[j - 1] + step * (level - values[j - 1]) / (values[j] - values[j - 1])

    j = peak
    while j + 1 < n and values[j + 1] >= level:
        j += 1
    if j == n - 1:
        right = lags[n - 1]
    else:
        step = lags[j + 1] - lags[j]
        right = lags[j] + step * (level - values[j]) / (values[j + 1] - values[j])

    return float(right - left)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Interior indices that start a non-rising run after a strict rise."""
    if values.size < 3:
        return np.empty(0, dtype=np.intp)
    v = values
    idx = np.arange(1, v.size - 1)
    return idx[(v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])]


def _flat_run(values: np.ndarray, k: int) -> tuple[int, int]:
    """Contiguous index range around k whose values tie with values[k].

    Sliding similarity profiles can be numerically flat where the template
    fits entirely under the object, so ties are taken up to rounding noise.
    """
    tol = 1e-12 * max(1.0, abs(float(values[k])))
    a = k
    while a - 1 >= 0 and abs(values[a - 1] - values[k]) <= tol:
        a -= 1
    b = k
    while b + 1 < values.size and abs(values[b + 1] - values[k]) <= tol:
        b += 1
    return a, b


def detect_peaks(profile: CorrelationResult, object_spec: ObjectSpec) -> PeakMeasurement:
    """Find the global maximum and the best-separated secondary local maximum.

    A flat-topped maximum (a contiguous run of tied values) is reported at the
    run's midpoint; distinct equal maxima separated by a dip break ties
    leftmost.  The secondary is the highest interior local maximum with
    positive height further than 3*max(sigma_p, sigma_s) from the primary
    (keeps the primary peak's shoulder from registering as a second match).
    """
    values = profile.values
    lags = profile.lags
    if np.all(values == values[0]):
        raise DomainError("profile is constant; peak detection undefined")

    i1 = int(np.argmax(values))
    a1, b1 = _flat_run(values, i1)
    if a1 == 0 and b1 == values.size - 1:
        raise DomainError("profile is constant; peak detection undefined")
    x1 = float(0.5 * (lags[a1] + lags[b1]))
    h1 = float(values[i1])
    w1 = width_at_fraction(lags, values, i1)

    exclusion = 3.0 * max(object_spec.sigma_p, object_spec.sigma_s)
    candidates = _local_maxima(values)
    candidates = candidates[values[candidates] > 0.0]
    best = None
    for k in candidates:
        a, b = _flat_run(values, int(k))
        xk = float(0.5 * (lags[a] + lags[b]))
        if abs(xk - x1) <= exclusion:
            continue
        if best is None or values[k] > values[best[0]]:
            best = (int(k), xk)
    if best is None:
        return PeakMeasurement(x1, h1, w1)

    i2, x2 = best
    return PeakMeasurement(
        x1, h1, w1,
        x2=x2,
        h2=float(values[i2]),
        w2=width_at_fraction(lags, values, i2),
    )
