"""Sliding-window sum kernel shared by every correlation method.

For each lag the engine needs up to five window sums over the overlap between
the object and the shifted template (the template is zero outside its support
and ignored off the object grid):

    index 0  SM   sum of sign(f)*sign(g)*min(|f|, |g|)
    index 1  UM   sum of min(|f|, |g|)
    index 2  AGW  sum of |g| over the overlap window
    index 3  SGW  sum of g over the overlap window
    index 4  DOT  sum of f*g

Each formula reads a few of them (indices.SUMS_READ), so a call adds and
returns only the sums in its `need` set, as {index: sums}.  There is no window
matrix: sliding_sums loops over the template samples and adds each one's
terms, for R stacked objects and every lag at once, lag-major: over an (n, R)
copy of the objects, into one (n_lags, R) accumulator per sum, so a template
step's window, scratch and accumulators are each one contiguous block.  After
the loop each of SM, UM and DOT is transposed once into its (R, n_lags) sums,
beside the objects' (R,) totals of |f| and f; memory is O(R * (n + n_lags)).
SM and UM share one clip.  AGW and SGW read the template and the lag geometry
(g, n, k0, n_lags) alone, never the object, so they come from template_sums as
one (n_lags,) row that every object shares, and the loop runs only for SM, UM
or DOT: the lags that hold the whole template share one value, and only the at
most 2m edge lags get their own.  Each sum is added in template order starting
from 0.0, whatever else is asked, so its bits do not depend on `need` or on
where it is added.  aligned_sums reduces the sums in `need` over an aligned
pair, for the whole-signal functionals, in that form as one row and one lag.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, AGW, SGW, DOT = range(5)
ALL_SUMS = frozenset(range(5))
TEMPLATE_SUMS = frozenset({AGW, SGW})


def template_sums(g: np.ndarray, n: int, k0: int, n_lags: int, *, need=TEMPLATE_SUMS):
    """{AGW: row, SGW: row}, those in need, of sliding_sums(f, g, k0, n_lags) for any f of n.

    Each lag adds its on-grid template samples in template order into 0.0, as a
    template loop would.  A lag whose window starts on the grid reads a prefix
    off one running sum; the at most m-1 that start off it get one running sum
    each, over the template masked to +0.0 outside the window (adding +0.0 to a
    sum begun at +0.0, never -0.0, changes no bit).
    """
    index = [s for s in (AGW, SGW) if s in need]
    if not index:
        return {}
    weights = np.array([np.abs(g) if s == AGW else g for s in index], dtype=np.float64)
    m = weights.shape[1]
    # prefix[:, i] adds the first i template samples into 0.0 (accumulate is sequential)
    prefix = np.zeros((len(index), m + 1))
    prefix[:, 1:] = weights
    np.cumsum(prefix, axis=1, out=prefix)
    # lag k sits at shift k0 + k: from lag on the shift is >= 0, and the lag holds g[0:stop]
    # for stop = n - k0 - k: the whole template before lag full, none from lag end on
    on = min(max(0, -k0), n_lags)
    full = min(max(on, n - m - k0 + 1), n_lags)
    end = min(max(full, n - k0), n_lags)
    sums = np.zeros((len(index), n_lags))
    sums[:, on:full] = prefix[:, m:]
    sums[:, full:end] = prefix[:, n - k0 - full:n - k0 - end:-1]
    # lags lo .. on-1 start off the grid, at g[start] for start = -(k0 + k) in [1, m-1],
    # and leave it after g[start + n - 1]; the lags before lo hold no sample
    lo = max(0, 1 - m - k0)
    if lo < on:
        start = -(k0 + np.arange(lo, on))
        j = np.arange(m)[:, None]
        masked = np.zeros((len(index), m, on - lo))
        np.copyto(masked, weights[:, :, None], where=(j >= start) & (j < start + n))
        sums[:, lo:on] = np.cumsum(masked, axis=1, out=masked)[:, -1]
    return dict(zip(index, sums))


def sliding_sums(f: np.ndarray, g: np.ndarray, k0: int, n_lags: int, *, need=ALL_SUMS):
    """Window sums for lags k0 .. k0+n_lags-1 of a stack (R, n) against g; (n,) is R=1.

    Returns {index: sums} for the indices in need, and each object's full-grid
    sums of |f| and f, (R,) each.  SM, UM and DOT are (R, n_lags), a stack's
    rows exactly one-row calls' sums; AGW and SGW are template_sums' one
    (n_lags,) row, the same for every object.
    """
    # C order, so each row's totals add in a one-row call's order (numpy sums
    # pairwise only along the inner axis)
    rows = np.ascontiguousarray(np.atleast_2d(f))
    # first, so that the |f| temporary is gone before the buffers below exist
    totals = np.sum(np.abs(rows), axis=1), np.sum(rows, axis=1)
    sums = template_sums(g, rows.shape[1], k0, n_lags, need=need)
    for s, lag_major in _object_sums(rows, g, k0, n_lags, need).items():
        sums[s] = np.ascontiguousarray(lag_major.T)   # a view at R = 1
    return sums, *totals


def _object_sums(rows, g, k0, n_lags, need):
    """{SM, UM, DOT: (n_lags, R)}, those in need, of the (R, n) rows; the only
    pass over the objects, made only if one of them is needed."""
    n_rows, n = rows.shape
    acc = {s: np.zeros((n_lags, n_rows)) for s in (SM, UM, DOT) if s in need}
    if not acc:
        return acc
    sm, um, dot = (acc.get(s) for s in (SM, UM, DOT))
    cols = np.ascontiguousarray(rows.T)   # a view at R = 1
    scratch = np.empty((n_lags, n_rows))
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
    return acc


def aligned_sums(f: np.ndarray, g: np.ndarray, *, need=ALL_SUMS):
    """sliding_sums' result for f against g on one grid: one row, one lag (the full overlap)."""
    ga = np.abs(g)
    terms = {AGW: ga, SGW: g}
    if SM in need or UM in need:
        # np.clip(f, -ga, ga) bit for bit, ties and NaN included, without its wrapper
        terms[SM] = np.sign(g) * np.minimum(ga, np.maximum(-ga, f))
        if UM in need:
            terms[UM] = np.abs(terms[SM])
    if DOT in need:
        terms[DOT] = f * g
    sums = {s: np.add.reduce(terms[s]).reshape(1, 1) for s in need}
    return sums, *(np.add.reduce(t, keepdims=True) for t in (np.abs(f), f))
