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
R stacked objects and every lag at once, lag-major: over an (n, R) copy of the
objects, into one (n_lags, R) accumulator per sum, so a template step's window,
scratch and accumulators are each one contiguous block.  After the loop each
sum is transposed once into the (N_SUMS, R, n_lags) result, returned beside
the objects' (R,) totals of |f| and f; memory is O(R * (n + n_lags)).  SM and
UM share one clip; AGW and SGW depend on the lag alone.  Each sum is added in
template order whatever else is asked, so its bits do not depend on `need`.
aligned_sums reduces the sums in `need` over an aligned pair, for the
whole-signal functionals, in that layout as one row and one lag.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, AGW, SGW, DOT = range(5)
N_SUMS = 5
ALL_SUMS = frozenset(range(N_SUMS))


def sliding_sums(f: np.ndarray, g: np.ndarray, k0: int, n_lags: int, *, need=ALL_SUMS):
    """Window sums for lags k0 .. k0+n_lags-1 of a stack (R, n) against g; (n,) is R=1.

    Returns sums (N_SUMS, R, n_lags), NaN where an index is not in need, and
    each object's full-grid sums of |f| and f, (R,) each; a stack's rows get
    exactly one-row calls' sums.  The sums are added lag-major, in (n_lags, R)
    accumulators over the objects' (n, R) columns, so each template step works
    on contiguous blocks; each is transposed once into the result at the end.
    """
    # C order, so each row's totals add in a one-row call's order (numpy sums
    # pairwise only along the inner axis)
    rows = np.ascontiguousarray(np.atleast_2d(f))
    n_rows, n = rows.shape
    # first, so that the |f| temporary is gone before the buffers below exist
    totals = np.sum(np.abs(rows), axis=1), np.sum(rows, axis=1)
    cols = np.ascontiguousarray(rows.T)   # a view at R = 1
    sm, um, dot = (np.zeros((n_lags, n_rows)) if s in need else None for s in (SM, UM, DOT))
    scratch = np.empty((n_lags, n_rows))
    agw, sgw = np.zeros((2, n_lags))
    for j, gj in enumerate(g.tolist()):
        # lag k puts template sample j on object sample k0 + k + j; keep it on the grid
        lo, hi = max(0, -(k0 + j)), min(n_lags, n - k0 - j)
        if lo >= hi:
            continue
        fw, out = cols[k0 + j + lo:k0 + j + hi], scratch[:hi - lo]
        if sm is not None or um is not None:
            # sign(g)*clip(f, -|g|, |g|) is sign(f)*sign(g)*min(|f|, |g|) bit for bit;
            # g >= 0 skips the product, as the zeros it would sign add nothing
            np.clip(fw, -abs(gj), abs(gj), out=out)
            if gj < 0:
                out *= -1.0
            if sm is not None:
                np.add(sm[lo:hi], out, out=sm[lo:hi])
            if um is not None:
                np.add(um[lo:hi], np.abs(out, out=out), out=um[lo:hi])
        if dot is not None:
            np.add(dot[lo:hi], np.multiply(fw, gj, out=out), out=dot[lo:hi])
        if AGW in need:
            agw[lo:hi] += abs(gj)
        if SGW in need:
            sgw[lo:hi] += gj
    del cols, scratch   # gone before the result is built
    sums = np.empty((N_SUMS, n_rows, n_lags))
    for s, added in enumerate((sm, um, agw, sgw, dot)):   # SM, UM, AGW, SGW, DOT
        sums[s] = added.T if s in need else np.nan
    return sums, *totals


def aligned_sums(f: np.ndarray, g: np.ndarray, *, need=ALL_SUMS):
    """sliding_sums' result for f against g on one grid: one row, one lag (the full overlap).

    As there, only the sums in need are added and the others read NaN.
    """
    sums = np.full((N_SUMS, 1, 1), np.nan)
    ga = np.abs(g)
    if SM in need or UM in need:
        # np.clip(f, -ga, ga) bit for bit, ties and NaN included, without its wrapper
        sm = np.sign(g) * np.minimum(ga, np.maximum(-ga, f))
        if SM in need:
            sums[SM] = np.add.reduce(sm)
        if UM in need:
            sums[UM] = np.add.reduce(np.abs(sm))
    if AGW in need:
        sums[AGW] = np.add.reduce(ga)
    if SGW in need:
        sums[SGW] = np.add.reduce(g)
    if DOT in need:
        sums[DOT] = np.add.reduce(f * g)
    return sums, *(np.add.reduce(t, keepdims=True) for t in (np.abs(f), f))
