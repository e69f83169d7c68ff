"""The six merit figures computed from a detected peak pair.

Sign conventions follow the comparison framework: localization errors are
relative displacements (desirable near zero), r_h is the detected height
contrast normalized by the object's own contrast (desirable high), r_wp and
r_ws are width-to-height ratios of the two detected peaks, and the overlap
integral runs between the two detected positions over the raw profile, so
negative profile values between the peaks lower it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlate import CorrelationResult
from .generators import ObjectSpec
from .peaks import PeakMeasurement
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


def overlap_integral(profile: CorrelationResult, x_lo: float, x_hi: float) -> float:
    """Riemann sum of the raw profile over [x_lo, x_hi]; negative values count as negative."""
    if x_hi < x_lo:
        x_lo, x_hi = x_hi, x_lo
    inside = (profile.lags >= x_lo) & (profile.lags <= x_hi)
    return float(profile.dx * np.sum(profile.values[inside]))


def compute_indices(pm: PeakMeasurement, spec: ObjectSpec,
                    profile: CorrelationResult) -> PerformanceIndices:
    """Merit figures for one detected profile; secondary-based ones flagged missing."""
    if pm.h1 <= 0:
        raise DomainError("primary peak height must be positive to compute indices")
    r_xp = (spec.x_p - pm.x1) / spec.x_p
    r_wp = pm.w1 / pm.h1
    if not pm.has_secondary:
        return PerformanceIndices(r_xp=r_xp, r_wp=r_wp)
    return PerformanceIndices(
        r_xp=r_xp,
        r_wp=r_wp,
        r_xs=(spec.x_s - pm.x2) / spec.x_s,
        r_h=(pm.h1 / pm.h2) / (spec.h_p / spec.h_s),
        r_ws=pm.w2 / pm.h2,
        alpha_overlap=overlap_integral(profile, pm.x1, pm.x2),
    )
