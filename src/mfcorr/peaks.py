"""Peak geometry measurements on matching profiles.

Widths follow the 75%-slice rule: the contiguous extent around a peak of
positive height where the profile stays at or above that fraction of the
height, with linear interpolation at the two crossings.  A region that runs
into the profile boundary is truncated there.

Sliding similarity profiles can be numerically flat where the template fits
entirely under the object, so a peak sits at the midpoint of its tie run: a
chain of neighbours that differ by at most 1e-12*max(1, |h1|), h1 the profile
maximum, so sub-tolerance steps may add up past the tolerance within one run.

The primary is the global maximum (the leftmost of equal maxima separated by a
dip); a profile with no break between tie runs is constant, and one whose
maximum is <= 0 has no width, so both fail.  The secondary is the highest
interior local maximum (a strict rise in, no rise out) of positive height
whose run midpoint lies further than 3*max(sigma_p, sigma_s) from the
primary's, which keeps the primary's shoulder from registering as a second
match.  stack_peaks measures every row of a profile stack at once;
detect_peaks and width_at_fraction are its one-profile (R=1) forms.
"""

from __future__ import annotations

import math
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


def _widths(lags: np.ndarray, values: np.ndarray, at: np.ndarray,
            heights: np.ndarray) -> np.ndarray:
    """Widths around the samples at flat indices at[q] in row q % R of values (R, n).

    Each peak marks a copy of its row, padded by a marked sample at each end,
    where it lies below its level (nan, for no peak, marks nothing and gives a
    nan width); the level is crossed where the mark changes.
    """
    R, n = values.shape
    level, col = WIDTH_FRACTION * heights, at % n
    below = np.ones((level.size, n + 2), dtype=bool)
    np.less(values, level.reshape(-1, R, 1), out=below.reshape(-1, R, n + 2)[..., 1:-1])
    below = below.ravel()
    change = np.flatnonzero(below[1:] != below[:-1])
    # the crossings follow column c of the last change left of the peak and of the first
    # right of it; at c = -1 and c = n - 1 the region runs into the row's ends
    start = np.arange(level.size) * (n + 2) + 1
    i = change.searchsorted(start + col)
    c = np.array((change[i - 1], change[i])) - start
    inner, after, c = (c >= 0) & (c < n - 1), np.minimum(c + 1, n - 1), np.maximum(c, 0)
    flat, base = values.ravel(), at - col        # base: the flat index of the row's start
    x, v = lags[c], flat[base + c]
    x += np.divide((lags[after] - x) * (level - v), flat[base + after] - v,
                   out=np.zeros(c.shape), where=inner)
    return np.where(np.isnan(level), np.nan, x[1] - x[0])


def stack_peaks(lags: np.ndarray, values: np.ndarray, object_spec: ObjectSpec) -> np.ndarray:
    """Rows x1, h1, w1, x2, h2, w2 (6, R): the peaks of each row of values (R, n_lags).

    Each row as detect_peaks finds it alone.  h1 is the row's maximum; x1 and
    w1 are nan where detect_peaks raises, the secondary's where it has none.
    """
    R, n = values.shape
    flat, step = values.ravel(), np.diff(values, axis=1)
    # the primaries (each row's first maximum), then the secondary candidates
    rise, cand = step > 0, np.zeros((R, n), dtype=bool)
    np.logical_and(rise[:, :-1] > rise[:, 1:], values[:, 1:-1] > 0, out=cand[:, 1:-1])
    at = np.concatenate((np.arange(R) * n + values.argmax(axis=1), np.flatnonzero(cand)))
    height, h1 = flat[at], flat[at[:R]]
    # ends[i + 1]: a run ends at flat index i, at a tie break or at its row's end
    ends = np.ones(R * n + 2, dtype=bool)
    ends[-1] = False
    np.greater(np.abs(step, out=step), 1e-12 * np.maximum(1.0, np.abs(h1))[:, None],
               out=ends[1:-1].reshape(R, n)[:, :-1])
    # a run of one sample is its own midpoint; a longer one lies between two changes of ends
    mid, tied = lags[at % n], ~(ends[at] & ends[at + 1])
    if tied.any():
        change, t = np.flatnonzero(ends[1:] != ends[:-1]), at[tied]
        first = np.where(ends[t], t, change[change.searchsorted(t) - 1])
        last = np.where(ends[t + 1], t, change[change.searchsorted(t + 1)])
        mid[tied] = 0.5 * (lags[first % n] + lags[last % n])
    ok = (h1 > 0) & ends[1:-1].reshape(R, n)[:, :-1].any(axis=1)   # a break: not constant
    out = np.full((6, R), np.nan)
    out[0, ok], out[1] = mid[:R][ok], h1
    # the secondary: the highest candidate outside the primary's exclusion zone, the
    # leftmost of equals (the first far candidate at its row's maximum)
    exclusion = 3.0 * max(object_spec.sigma_p, object_spec.sigma_s)
    far = R + np.flatnonzero(np.abs(mid[R:] - out[0, at[R:] // n]) > exclusion)
    row, best, pick = at[far] // n, np.zeros(R), np.full(R, far.size)
    np.maximum.at(best, row, height[far])
    hit = np.flatnonzero(height[far] == best[row])
    np.minimum.at(pick, row[hit], hit)
    two = pick < far.size
    pick = far[pick[two]]
    out[3, two], out[4, two] = mid[pick], height[pick]
    peaks = np.concatenate((at[:R], at[:R]))     # a row with no secondary repeats its primary
    peaks[R:][two] = at[pick]
    heights = np.concatenate((np.where(ok, h1, np.nan), out[4]))
    out[[2, 5]] = _widths(lags, values, peaks, heights).reshape(2, R)
    return out


def width_at_fraction(lags: np.ndarray, values: np.ndarray, peak: int) -> float:
    """Extent of the contiguous region around values[peak] > 0 at or above WIDTH_FRACTION of it."""
    return float(_widths(lags, values[None], np.array([peak]), values[[peak]])[0])


def detect_peaks(profile: CorrelationResult, object_spec: ObjectSpec) -> PeakMeasurement:
    """The primary and secondary peak of one profile (module docstring), or DomainError."""
    x1, h1, w1, x2, h2, w2 = stack_peaks(profile.lags, profile.values[None],
                                         object_spec)[:, 0].tolist()
    if h1 <= 0.0:
        raise DomainError(f"primary peak height {h1:.6g} is not positive")
    if math.isnan(x1):
        raise DomainError("profile is constant; peak detection undefined")
    if math.isnan(x2):
        return PeakMeasurement(x1, h1, w1)
    return PeakMeasurement(x1, h1, w1, x2=x2, h2=h2, w2=w2)
