"""Method names and the sliding-lag correlation engine for every method.

A method name is a tag of METHOD_TAGS or COMBINED_PREFIX + a multiset tag
(classic cross-correlation, then that index).  canonical_method maps aliases,
case and hyphens to that form and rejects the rest; every profile goes through it.

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
Every profile comes from profiles(), for R stacked objects at once;
method_profile is its one-object form.

profiles is a pure function of its arguments: one call makes all its names in
one pass.  method_profile, called once per name, keeps each thread's last
object's window sums, so a later name on that object adds only the sums it reads
that they lack, or none (_window_sums); its combined names' stage 2 does not.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .indices import EPS_DENOM, SUMS_READ, profile_values
from .signal import AlignmentError, DomainError, Signal, same_spacing

METHOD_TAGS = tuple(SUMS_READ)   # SUMS_READ lists each tag once, in this order

BOUNDARIES = ("pad", "valid")

COMBINED_PREFIX = "combined_"

_ALIASES = {"jaccard": "jaccard_real", "correlation": "classic", "cross_correlation": "classic"}


def canonical_method(name: str) -> str:
    """Canonical form of a user-facing method name; rejects unknown names and combined classic."""
    base = name.strip().lower().replace("-", "_")
    combined = base.startswith(COMBINED_PREFIX)
    base = base.removeprefix(COMBINED_PREFIX)
    base = _ALIASES.get(base, base)
    if base not in METHOD_TAGS:
        raise DomainError(f"unknown method {name!r}")
    if combined and base == "classic":
        raise DomainError("combined methods need a multiset inner method, not classic")
    return COMBINED_PREFIX + base if combined else base


@dataclass(frozen=True)
class CorrelationResult:
    """Matching profile: one similarity value per lag abscissa."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lags", np.asarray(self.lags, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.lags.shape != self.values.shape or self.lags.ndim != 1:
            raise DomainError("lags and values must be 1-D arrays of equal length")

    def normalized(self) -> "CorrelationResult":
        """Profile divided by its maximum absolute value (a peak below EPS_DENOM passes as is)."""
        values = max_normalized(self.values)
        return self if values is self.values else CorrelationResult(self.lags, values)


def max_normalized(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row divided by its maximum |value| (into out); values if every peak is < EPS_DENOM."""
    peak = np.max(np.abs(values), axis=-1, keepdims=True, initial=0.0)
    small = peak < EPS_DENOM
    return values if small.all() else np.divide(values, np.where(small, 1.0, peak), out=out)


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


@functools.lru_cache(maxsize=2)
def _lag_axis(x0, dx, k0, n_lags, center):
    """Lag abscissae, read-only, so the profiles of one axis (an object's stages 1 and 2) share them."""
    lags = x0 + (k0 + np.arange(n_lags) + center) * dx
    lags.flags.writeable = False
    return lags


def profiles(samples: np.ndarray, x0: float, dx: float, template: Signal,
             names, boundary: str = "pad"):
    """Yield (name, lags, values[R, n_lags]) per name for the R rows of samples.

    The rows share one grid (x0, dx).  Each name passes through
    canonical_method and is yielded in canonical form.  One kernel call serves
    the plain names and the combined ones' first stage (classic), a second
    their second stage; plain names come first.  Each call adds only the window
    sums its formulas read, and keeps none.
    """
    yield from _profiles(np.atleast_2d(samples), x0, dx, template,
                         [canonical_method(n) for n in names], boundary, kernels.sliding_sums)


def _profiles(samples, x0, dx, template, names, boundary, window_sums):
    """profiles() with stage 1's sums from window_sums(samples, g, k0, n_lags, need=...)."""
    inner = {n.removeprefix(COMBINED_PREFIX): n for n in names if n.startswith(COMBINED_PREFIX)}
    if not same_spacing(dx, template.dx):
        raise AlignmentError(f"dx mismatch: object {dx} vs template {template.dx}")
    k0, n_lags, center = _lag_geometry(samples.shape[1], len(template), boundary)
    lags = _lag_axis(x0, dx, k0, n_lags, center)
    need = set().union(*(SUMS_READ["classic" if n.startswith(COMBINED_PREFIX) else n]
                         for n in names))
    sums = window_sums(samples, template.samples, k0, n_lags, need=need)
    for name in names:
        if not name.startswith(COMBINED_PREFIX):
            yield name, lags, profile_values(name, sums, dx)
    if inner:
        # stage 2 slides the template over each row's max-normalized classic
        # profile; that object is this call's alone, so its sums are never kept
        stage1 = profile_values("classic", sums, dx)
        del sums
        stage1 = max_normalized(stage1, out=stage1)
        for tag, lags2, values in _profiles(stage1, float(lags[0]), dx, template, inner,
                                            boundary, kernels.sliding_sums):
            yield inner[tag], lags2, values


class _Memo(threading.local):
    """This thread's kept window sums: those of method_profile's last object, and its key."""

    key = sums = None


_MEMO = _Memo()
_SIGNED = {kernels.AF: kernels.SF, kernels.AGW: kernels.SGW}   # magnitude total: signed total


def _window_sums(samples, g, k0, n_lags, need):
    """kernels.sliding_sums(samples, g, k0, n_lags, need=need) of one float64 row, kept.

    The sums are keyed by content (samples' and g's bytes, k0, n_lags), so an object
    changed in place misses, and a miss starts an empty entry.  A call adds the sums
    of need that the entry lacks, and with each magnitude total (AF, AGW) its signed
    one (SF, SGW): summed in the same order, that one cannot overflow unless its
    partner does, and jaccard_addition after jaccard_real then makes no call.  Each
    sum is added in template order whatever else is asked, so grown sums hold a full
    call's sums bit for bit.
    """
    key = (samples.tobytes(), g.tobytes(), k0, n_lags)
    if _MEMO.key != key:
        _MEMO.key, _MEMO.sums = key, {}   # the old sums are freed before the kernel runs
    need = need | {_SIGNED[s] for s in need & _SIGNED.keys()}
    if missing := need.difference(_MEMO.sums):
        _MEMO.sums.update(kernels.sliding_sums(samples, g, k0, n_lags, need=missing))
    return _MEMO.sums


def method_profile(name: str, obj: Signal, template: Signal,
                   boundary: str = "pad") -> CorrelationResult:
    """Profile of one object under any method name that canonical_method accepts.

    boundary="pad" gives one lag per object sample, "valid" only the
    full-overlap displacements (the template must then fit inside the object).
    classic is the raw sliding inner product, not normalized.  A combined name
    runs two stages with the same template: classic, then the multiset index
    over the max-normalized classic profile (the indices are magnitude
    sensitive); lags are template midpoints, so they stay in object coordinates.
    """
    _, lags, values = next(_profiles(np.atleast_2d(obj.samples), obj.x0, obj.dx, template,
                                     [canonical_method(name)], boundary, _window_sums))
    return CorrelationResult(lags, values[0])
