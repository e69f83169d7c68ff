"""Sliding-window sum kernel shared by every correlation method.

For each lag the engine needs up to five window sums over the overlap between
the object and the shifted template (the template is zero outside its support
and ignored off the object grid):

    index 0  SM   sum of sign(f)*sign(g)*min(|f|, |g|)
    index 1  UM   sum of min(|f|, |g|)
    index 2  AGW  sum of |g| over the overlap window
    index 3  SGW  sum of g over the overlap window
    index 4  DOT  sum of f*g

Each formula reads a few of them (indices.SUMS_READ), so a call adds only the
sums in its `need` set; the others read NaN.  There is no window matrix:
sliding_sums loops over the template samples and adds each one's terms, for
R stacked objects and every lag at once, into one (5, R, n_lags) buffer, so
memory is O(R * n_lags).  SM and UM share one clip; AGW and SGW depend on
the lag alone.  Each sum is added in template order whatever else is asked,
so its bits do not depend on `need`.  aligned_sums reduces all five over an
aligned pair, for the whole-signal functionals.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, AGW, SGW, DOT = range(5)
N_SUMS = 5
ALL_SUMS = frozenset(range(N_SUMS))


def sliding_sums(f: np.ndarray, g: np.ndarray, k0: int, n_lags: int, *, need=ALL_SUMS):
    """Window sums for lags k0 .. k0+n_lags-1 of one object (n,) or a stack (R, n) against g.

    Returns sums (n_lags, N_SUMS) or (R, n_lags, N_SUMS), NaN where an index
    is not in need, and each object's full-grid sums of |f| and f; a stack's
    rows get exactly one-row calls' sums.
    """
    rows = np.atleast_2d(f)
    n = rows.shape[1]
    sums = np.zeros((N_SUMS, rows.shape[0], n_lags))
    scratch = np.empty((rows.shape[0], n_lags))
    agw, sgw = np.zeros((2, n_lags))
    for j, gj in enumerate(g.tolist()):
        # lag k puts template sample j on object sample k0 + k + j; keep it on the grid
        lo, hi = max(0, -(k0 + j)), min(n_lags, n - k0 - j)
        if lo >= hi:
            continue
        fw, acc, out = rows[:, k0 + j + lo:k0 + j + hi], sums[:, :, lo:hi], scratch[:, :hi - lo]
        if SM in need or UM in need:
            # sign(g)*clip(f, -|g|, |g|) is sign(f)*sign(g)*min(|f|, |g|) bit for bit;
            # g >= 0 skips the product, as the zeros it would sign add nothing
            np.clip(fw, -abs(gj), abs(gj), out=out)
            if gj < 0:
                out *= -1.0
            if SM in need:
                np.add(acc[SM], out, out=acc[SM])
            if UM in need:
                np.add(acc[UM], np.abs(out, out=out), out=acc[UM])
        if DOT in need:
            np.add(acc[DOT], np.multiply(fw, gj, out=out), out=acc[DOT])
        if AGW in need:
            agw[lo:hi] += abs(gj)
        if SGW in need:
            sgw[lo:hi] += gj
    sums[AGW], sums[SGW] = agw, sgw
    sums[sorted(ALL_SUMS.difference(need))] = np.nan
    lag_major = sums.transpose(1, 2, 0)
    abs_total, sum_total = np.sum(np.abs(rows), axis=1), np.sum(rows, axis=1)
    if f.ndim == 1:
        return lag_major[0], float(abs_total[0]), float(sum_total[0])
    return lag_major, abs_total, sum_total


def aligned_sums(f: np.ndarray, g: np.ndarray):
    """The five sums of f against g on one grid as one lag, (1, N_SUMS), and f's totals."""
    ga = np.abs(g)
    sm = np.sign(g) * np.clip(f, -ga, ga)
    sums = [np.add.reduce(terms) for terms in (sm, np.abs(sm), ga, g, f * g)]
    return np.array([sums]), float(np.add.reduce(np.abs(f))), float(np.add.reduce(f))
