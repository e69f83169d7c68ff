"""Reference computations made apart from mfcorr, used to check its outputs.

Nothing here imports mfcorr.  The similarity indices are written straight
from their definitions, one lag at a time, with plain Python loops; the
statistics use only the standard library and numpy's own routines.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-12


def _sign(v: float) -> float:
    return 1.0 if v > 0.0 else (-1.0 if v < 0.0 else 0.0)


def grid_totals(f: list[float]) -> tuple[float, float]:
    """Sum of |f| and sum of f over the whole object grid."""
    abs_total = 0.0
    total = 0.0
    for v in f:
        abs_total += abs(v)
        total += v
    return abs_total, total


def pad_geometry(n: int, m: int) -> tuple[int, float]:
    """First template start and midpoint offset of the "pad" lag range (n lags)."""
    return -((m - 1) // 2), (m - 1) / 2.0


def _guard(num: float, den: float) -> float:
    return 0.0 if abs(den) < EPS else num / den


def index_at(tag: str, f: list[float], totals: tuple[float, float],
             g: list[float], start: int, dx: float) -> float:
    """One similarity index between f and the template placed at sample `start`.

    The template is zero outside its support and ignored off the object grid;
    the index runs over the whole object grid, so object samples outside the
    template window contribute |f| to the union and f to the addition sum.
    """
    n = len(f)
    signed_min = unsigned_min = window_max = window_abs_f = 0.0
    template_abs = template_sum = dot = 0.0
    for j, gv in enumerate(g):
        i = start + j
        if i < 0 or i >= n:
            continue
        fv = f[i]
        lo = min(abs(fv), abs(gv))
        signed_min += _sign(fv) * _sign(gv) * lo
        unsigned_min += lo
        window_max += max(abs(fv), abs(gv))
        window_abs_f += abs(fv)
        template_abs += abs(gv)
        template_sum += gv
        dot += fv * gv
    abs_total, total = totals
    if tag == "classic":
        return dx * dot
    interiority = _guard(dx * unsigned_min, dx * min(abs_total, template_abs))
    interiority = max(0.0, min(1.0, interiority))
    if tag == "interiority":
        return interiority
    if tag in ("jaccard_real", "coincidence"):
        union = dx * (window_max + (abs_total - window_abs_f))
        jaccard = _guard(dx * signed_min, union)
        return jaccard if tag == "jaccard_real" else jaccard * interiority
    if tag in ("jaccard_addition", "coincidence_addition"):
        jaccard = _guard(2.0 * dx * signed_min, dx * (total + template_sum))
        return jaccard if tag == "jaccard_addition" else jaccard * interiority
    raise ValueError(f"unknown index {tag!r}")


def classic_profile(f: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Whole "pad" classic profile by numpy.correlate (not the sliding kernel)."""
    n, m = f.size, g.size
    k0, _ = pad_geometry(n, m)
    fp = np.concatenate([np.zeros(-k0), f, np.zeros(m - 1 + k0)])
    return dx * np.correlate(fp, g, mode="valid")


def max_normalized(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(np.abs(values)))
    return values if peak < EPS else values / peak


def mean_std_count(values: list[float]) -> tuple[float, float, int]:
    """Mean, sample standard deviation (0 for one value) and count; nan if empty."""
    if not values:
        return math.nan, math.nan, 0
    mean = math.fsum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0, 1
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var), len(values)


def standardized_eigh(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) of the standardized covariance, by LAPACK.

    Also returns the standardized rows, so that projections can be related
    back to the axes.
    """
    z = (rows - rows.mean(axis=0)) / rows.std(axis=0, ddof=1)
    values = np.linalg.eigvalsh(z.T @ z / (rows.shape[0] - 1))
    return values[::-1], z
