"""Sliding-lag correlation engine for every similarity method.

Sliding structure: the template g is displaced by integer multiples of the
shared grid spacing and the selected similarity index is evaluated between the
object and the displaced, zero-padded template at each displacement.  The
evaluation support is the object grid: template samples falling off the grid
are ignored, object samples outside the template window still feed the
denominators (union, totals, sums) exactly as if the template were a full-grid
signal padded with zeros.

Lag convention: the reported abscissa of each lag is the position of the
template's support midpoint on the object axis, so a symmetric template peaks
at the matched feature's position.  The template's own x0 plays no role.
Every profile comes from profiles(), for R stacked objects at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .indices import EPS_DENOM, SUMS_READ, profile_values
from .signal import AlignmentError, DomainError, Signal, same_spacing

METHOD_TAGS = ("classic", "jaccard_real", "interiority", "coincidence",
               "jaccard_addition", "coincidence_addition")

MULTISET_TAGS = tuple(t for t in METHOD_TAGS if t != "classic")

BOUNDARIES = ("pad", "valid")

COMBINED_PREFIX = "combined_"


@dataclass(frozen=True)
class Method:
    """A similarity method selection, checked against the closed set of tags."""

    tag: str

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise DomainError(f"unknown method tag {self.tag!r}; expected one of {METHOD_TAGS}")


@dataclass(frozen=True)
class CorrelationResult:
    """Matching profile: one similarity value per lag abscissa."""

    lags: np.ndarray
    values: np.ndarray
    method: Method
    boundary: str

    def __post_init__(self):
        object.__setattr__(self, "lags", np.asarray(self.lags, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.lags.shape != self.values.shape or self.lags.ndim != 1:
            raise DomainError("lags and values must be 1-D arrays of equal length")

    @property
    def dx(self) -> float:
        return float(self.lags[1] - self.lags[0]) if self.lags.size > 1 else 0.0

    def normalized(self) -> "CorrelationResult":
        """Profile divided by its maximum absolute value (a peak below EPS_DENOM passes as is)."""
        peak = float(np.max(np.abs(self.values))) if self.values.size else 0.0
        if peak < EPS_DENOM:
            return self
        return CorrelationResult(self.lags, self.values / peak, self.method, self.boundary)


def _lag_geometry(n: int, m: int, boundary: str) -> tuple[int, int, float]:
    """Integer shift range and template-midpoint offset for a boundary policy."""
    center = (m - 1) / 2.0
    if boundary == "pad":
        k0 = -math.floor(center)
        return k0, n, center
    if boundary == "valid":
        if m > n:
            raise DomainError(f"template ({m}) longer than object ({n}) under valid boundary")
        return 0, n - m + 1, center
    raise DomainError(f"unknown boundary policy {boundary!r}; expected one of {BOUNDARIES}")


def profiles(samples: np.ndarray, x0: float, dx: float, template: Signal,
             names, boundary: str = "pad"):
    """Yield (name, Method, lags, values[R, n_lags]) per name for the R rows of samples.

    The rows share one grid (x0, dx).  A name is a tag or COMBINED_PREFIX + a
    multiset tag.  One kernel call serves the plain names and the combined
    ones' first stage (classic), a second their second stage; plain names come
    first.  Each call adds only the window sums its formulas read.
    """
    inner = {n.removeprefix(COMBINED_PREFIX): n for n in names if n.startswith(COMBINED_PREFIX)}
    if "classic" in inner:
        raise DomainError("combined method requires a multiset inner method, not classic")
    if not same_spacing(dx, template.dx):
        raise AlignmentError(f"dx mismatch: object {dx} vs template {template.dx}")
    samples = np.atleast_2d(samples)
    k0, n_lags, center = _lag_geometry(samples.shape[1], len(template), boundary)
    lags = x0 + (k0 + np.arange(n_lags) + center) * dx
    need = set().union(*(SUMS_READ.get("classic" if n.startswith(COMBINED_PREFIX) else n, ())
                         for n in names))
    sums = kernels.sliding_sums(samples, template.samples, k0, n_lags, need=need)
    for name in names:
        if not name.startswith(COMBINED_PREFIX):
            yield name, Method(name), lags, profile_values(name, *sums, dx)
    if inner:
        # stage 2 slides the template over each row's max-normalized classic profile
        stage1 = profile_values("classic", *sums, dx)
        del sums
        peak = np.max(np.abs(stage1), axis=1, keepdims=True)
        stage1 /= np.where(peak < EPS_DENOM, 1.0, peak)
        for tag, method, lags2, values in profiles(stage1, float(lags[0]), dx, template,
                                                   inner, boundary):
            yield inner[tag], method, lags2, values


def method_profile(name: str, obj: Signal, template: Signal,
                   boundary: str = "pad") -> CorrelationResult:
    """Profile for a canonical method name, handling the combined two-stage form."""
    _, method, lags, values = next(profiles(obj.samples, obj.x0, obj.dx, template, (name,),
                                            boundary))
    return CorrelationResult(lags, values[0], method, boundary)


def correlate(obj: Signal, template: Signal, method: Method,
              boundary: str = "pad") -> CorrelationResult:
    """Evaluate one similarity method at every relative displacement.

    With boundary="pad" the profile has one lag per object sample; with
    boundary="valid" only full-overlap displacements are evaluated (template
    must then fit inside the object).
    """
    return method_profile(method.tag, obj, template, boundary)


def correlate_classic(obj: Signal, template: Signal, boundary: str = "pad") -> CorrelationResult:
    """Raw sliding inner product (no normalization)."""
    return correlate(obj, template, Method("classic"), boundary)


def correlate_combined(obj: Signal, template: Signal, inner_method: Method,
                       boundary: str = "pad") -> CorrelationResult:
    """Two-stage pipeline: classic cross-correlation first, multiset method second.

    The stage-1 profile is max-normalized (multiset indices are magnitude
    sensitive) and becomes the object for stage 2; the same template is used in
    both stages.  Because lag abscissae are template-midpoint positions, the
    final profile stays indexed in the original object coordinates.
    """
    return method_profile(COMBINED_PREFIX + inner_method.tag, obj, template, boundary)
