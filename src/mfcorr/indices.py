"""Similarity indices: one formula per index, and whole-signal functionals.

All integrals are Riemann sums on the shared grid: integral(h) ~ dx * sum(h(x_i)).
profile_values holds the real-valued index formulas, one value per lag from
the kernel's window sums; a whole-signal functional is its full-overlap lag.
Each formula reads only the sums that SUMS_READ names for its tag:

    tag                          sums read
    classic                      DOT
    jaccard_real, coincidence    SM, UM, AGW
    interiority                  UM, AGW
    jaccard_addition             SM, SGW
    coincidence_addition         SM, UM, AGW, SGW

The magnitude union needs no sum of its own: as max(|f|, |g|) = |f| + |g| -
min(|f|, |g|), its integral over the full grid is dx * ((sum|f| + AGW) - UM).
A denominator whose magnitude is below EPS_DENOM yields 0 instead of a
quotient.  Every functional is symmetric in its two arguments and pure.
"""

from __future__ import annotations

import numpy as np

from .kernels import AGW, DOT, SGW, SM, UM, aligned_sums
from .signal import DomainError, Multiset, Signal, require_aligned, require_same_size

EPS_DENOM = 1e-12

SUMS_READ = {"classic": {DOT}, "jaccard_real": {SM, UM, AGW}, "interiority": {UM, AGW},
             "coincidence": {SM, UM, AGW}, "jaccard_addition": {SM, SGW},
             "coincidence_addition": {SM, UM, AGW, SGW}}


def set_jaccard(a: Multiset, b: Multiset) -> float:
    """Overlap/union ratio for crisp sets encoded as 0/1 multiplicities.

    Returns 0 when both sets are empty.
    """
    require_same_size(a, b)
    am, bm = a.multiplicities, b.multiplicities
    for name, m in (("a", am), ("b", bm)):
        if not np.all((m == 0.0) | (m == 1.0)):
            raise DomainError(f"{name} must have binary multiplicities for set_jaccard")
    return multiset_jaccard(a, b)


def multiset_jaccard(a: Multiset, b: Multiset) -> float:
    """Sum-of-min over sum-of-max for non-negative multiplicities.

    Returns 0 when both multisets are all-zero.  Restricted to {0, 1}
    multiplicities this equals set_jaccard exactly.
    """
    require_same_size(a, b)
    union = float(np.sum(np.maximum(a.multiplicities, b.multiplicities)))
    if union == 0.0:
        return 0.0
    return float(np.sum(np.minimum(a.multiplicities, b.multiplicities))) / union


def signed_min_intersection(f: Signal, g: Signal) -> float:
    """Sign-aware pointwise-minimum overlap integral; samples where either is 0 add 0."""
    return float(_integrals(f, g)[SM])


def abs_union_max(f: Signal, g: Signal) -> float:
    """Integral of the pointwise maximum of the two magnitudes."""
    require_aligned(f, g)
    sums, abs_total, _ = aligned_sums(f.samples, g.samples, need={UM, AGW})
    return float(f.dx * ((abs_total[0] + sums[AGW][0, 0]) - sums[UM][0, 0]))


def s_plus(f: Signal, g: Signal) -> float:
    """Overlap integral restricted to samples where the two signals agree in sign."""
    integrals = _integrals(f, g)   # the unsigned overlap is s_plus + s_minus
    return float(0.5 * (integrals[UM] + integrals[SM]))


def s_minus(f: Signal, g: Signal) -> float:
    """Overlap integral restricted to samples where the two signals oppose in sign."""
    integrals = _integrals(f, g)   # the signed overlap is s_plus - s_minus
    return float(0.5 * (integrals[UM] - integrals[SM]))


def _integrals(f: Signal, g: Signal) -> dict:
    """dx times kernels.aligned_sums' SM and UM for an aligned pair."""
    require_aligned(f, g)
    sums = aligned_sums(f.samples, g.samples, need={SM, UM})[0]
    return {s: f.dx * v[0, 0] for s, v in sums.items()}


def s_pm(f: Signal, g: Signal, alpha: float = 0.5, normalized: bool = False) -> float:
    """Weighted mix alpha*s_plus - (1-alpha)*s_minus of the sign-split overlaps.

    With normalized=True the mix is scaled by 2 so that alpha=0.5 reproduces
    signed_min_intersection exactly (the raw value at alpha=0.5 is half of it).
    """
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    raw = alpha * s_plus(f, g) - (1.0 - alpha) * s_minus(f, g)
    return 2.0 * raw if normalized else raw


def _guarded_ratio(num: np.ndarray, den: np.ndarray, signed_den: bool = False) -> np.ndarray:
    """num / den into num, 0 where |den| (den itself unless signed_den) is below EPS_DENOM."""
    ok = (np.abs(den) if signed_den else den) >= EPS_DENOM
    np.divide(num, den, out=num, where=ok)
    num[~ok] = 0.0
    return num


def profile_values(tag: str, sums: dict, abs_total: np.ndarray,
                   sum_total: np.ndarray, dx: float) -> np.ndarray:
    """Index values (R, n_lags) from kernels.sliding_sums output, a row per object."""
    if tag == "classic":
        return dx * sums[DOT]

    abs_total = abs_total[:, None]
    if tag == "interiority":
        return _interiority_values(sums, abs_total, dx)

    # each formula works in place on its own few (R, n_lags) buffers; every
    # operation keeps the operands and order of the written-out formula
    sm = dx * sums[SM]
    if tag in ("jaccard_real", "coincidence"):
        # dx * ((abs_total + AGW) - UM): this grouping keeps the union exactly
        # symmetric in the two signals
        den = abs_total + sums[AGW]
        den -= sums[UM]
        den *= dx
        jac = _guarded_ratio(sm, den)
    elif tag in ("jaccard_addition", "coincidence_addition"):
        den = sum_total[:, None] + sums[SGW]
        den *= dx
        sm *= 2.0
        jac = _guarded_ratio(sm, den, signed_den=True)
    else:
        raise DomainError(f"unknown method tag {tag!r}")
    del den   # freed before the interiority's own buffers
    if tag.startswith("coincidence"):
        jac *= _interiority_values(sums, abs_total, dx)
    return jac


def _interiority_values(sums: dict, abs_total: np.ndarray, dx: float) -> np.ndarray:
    num = dx * sums[UM]
    den = np.minimum(abs_total, sums[AGW])
    den *= dx
    ratio = _guarded_ratio(num, den)
    # np.clip(ratio, 0.0, 1.0) bit for bit, ties, signed zeros and NaN included,
    # without its wrapper (which the scalar functionals would pay per call)
    return np.minimum(1.0, np.maximum(0.0, ratio, out=ratio), out=ratio)


def _full_overlap(tag: str, f: Signal, g: Signal) -> float:
    require_aligned(f, g)
    sums = aligned_sums(f.samples, g.samples, need=SUMS_READ[tag])
    return float(profile_values(tag, *sums, f.dx)[0, 0])


def jaccard_real(f: Signal, g: Signal) -> float:
    """Real-valued Jaccard index: signed min-overlap over magnitude union, in [-1, 1]."""
    return _full_overlap("jaccard_real", f, g)


def interiority_real(f: Signal, g: Signal) -> float:
    """Overlap normalized by the smaller signal's total magnitude, clamped to [0, 1].

    The numerator integrates the unsigned magnitude overlap min(|f|, |g|).
    """
    return _full_overlap("interiority", f, g)


def coincidence_real(f: Signal, g: Signal) -> float:
    """Product of the real-valued Jaccard and interiority indices; sign comes from Jaccard."""
    return _full_overlap("coincidence", f, g)


def jaccard_addition(f: Signal, g: Signal) -> float:
    """Jaccard variant normalized by the plain sum of the two signals.

    The literal signed-sum denominator can vanish for signed data; a
    denominator of magnitude below EPS_DENOM gives 0.
    """
    return _full_overlap("jaccard_addition", f, g)


def coincidence_addition(f: Signal, g: Signal) -> float:
    """Product of the addition-based Jaccard and the interiority index."""
    return _full_overlap("coincidence_addition", f, g)


def inner_product(f: Signal, g: Signal) -> float:
    """Plain discretized inner product; per-lag kernel of the classic cross-correlation."""
    return _full_overlap("classic", f, g)
