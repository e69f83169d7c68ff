"""Sliding-window sum kernel shared by every correlation method.

For each lag the engine needs up to five window sums over the overlap between
the object and the shifted template (the template is zero outside its support
and ignored off the object grid), and up to two object totals over the whole
grid:

    index 0  SM   sum of sign(f)*sign(g)*min(|f|, |g|)
    index 1  UM   sum of min(|f|, |g|)
    index 2  AGW  sum of |g| over the overlap window
    index 3  SGW  sum of g over the overlap window
    index 4  DOT  sum of f*g
    index 5  AF   sum of |f|
    index 6  SF   sum of f

Each formula reads a few of them (indices.SUMS_READ), so a call adds and
returns only the sums in its `need` set, as {index: sums}.  There is no window
matrix: sliding_sums loops over the template samples and adds each one's
terms, for R stacked objects and every lag at once, lag-major: over an (n, R)
copy of the objects, into one (n_lags, R) accumulator per sum, so a template
step's windows and accumulators are each one contiguous block.  After the
loops each of SM, UM and DOT is transposed once into its (R, n_lags) sums;
memory is O(R * (n + n_lags)).  SM and UM come from one clipped copy of the
objects and its magnitude, kept at the last template step's |g| and re-clipped
only on the sample range where the next step's clip can change a value, so a
step adds one window of each.  DOT has a template loop of its own after
theirs: in one loop, the buffers of both outgrow L2 on a 50-row stack.  The
other four are LOOPLESS: AF and SF are each object's (R,) total, and AGW and
SGW read the template and the lag geometry (g, n, k0, n_lags) alone, never the
object, so they come from template_sums as one (n_lags,) row that every object
shares: the lags that hold the whole template share one value, and only the at
most 2m edge lags get their own.  The loops run only for SM, UM or DOT.  Each
sum is added in template order starting from 0.0, whatever else is asked, so
its bits do not depend on `need` or on where it is added.  aligned_sums
reduces the sums in `need` over an aligned pair, for the whole-signal
functionals, in that form as one row and one lag.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, AGW, SGW, DOT, AF, SF = range(7)
ALL_SUMS = frozenset(range(7))
LOOPLESS = frozenset({AGW, SGW, AF, SF})   # the sums that need no pass over the template


def template_sums(g: np.ndarray, n: int, k0: int, n_lags: int, *, need):
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

    Returns {index: sums} for the indices in need.  SM, UM and DOT are
    (R, n_lags), a stack's rows exactly one-row calls' sums; AGW and SGW are
    template_sums' one (n_lags,) row, the same for every object; AF and SF are
    each object's full-grid sum of |f| and f, (R,).
    """
    # C order, so each row's totals add in a one-row call's order (numpy sums
    # pairwise only along the inner axis)
    rows = np.ascontiguousarray(np.atleast_2d(f))
    # first, so that the |f| temporary is gone before the buffers below exist
    sums = {s: np.sum(np.abs(rows) if s == AF else rows, axis=1) for s in (AF, SF) if s in need}
    sums.update(template_sums(g, rows.shape[1], k0, n_lags, need=need))
    if not LOOPLESS.issuperset(need):
        for s, lag_major in _object_sums(rows, g, k0, n_lags, need).items():
            sums[s] = np.ascontiguousarray(lag_major.T)   # a view at R = 1
    return sums


def _object_sums(rows, g, k0, n_lags, need):
    """{SM, UM, DOT: (n_lags, R)}, those in need, of the (R, n) rows: one template loop
    for SM and UM, then one for DOT, the passes over the objects' windows."""
    n_rows, n = rows.shape
    acc = {s: np.zeros((n_lags, n_rows)) for s in (SM, UM, DOT) if s in need}
    cols = np.ascontiguousarray(rows.T)   # a view at R = 1
    # lag k puts template sample j on object sample at + k for at = k0 + j; a step adds
    # lags lo .. hi-1, the ones that keep it on the grid
    steps = [(k0 + j, gj, max(0, -(k0 + j)), min(n_lags, n - k0 - j))
             for j, gj in enumerate(g.tolist())]
    steps = [step for step in steps if step[2] < step[3]]
    if steps and n_rows and (SM in acc or UM in acc):   # an empty stack has nothing to clip
        _add_clipped(cols, steps, acc.get(SM), acc.get(UM))
    if DOT in acc:
        dot, scratch = acc[DOT], np.empty((n_lags, n_rows))
        for at, gj, lo, hi in steps:
            np.add(dot[lo:hi], np.multiply(cols[at + lo:at + hi], gj, out=scratch[:hi - lo]),
                   out=dot[lo:hi])
    return acc


def _add_clipped(cols, steps, sm, um):
    """Add each step's SM and UM terms of the (n, R) cols into sm and um, those not None.

    The term sign(f)*sign(g_j)*min(|f|, |g_j|) is sign(g_j)*clip(f, -|g_j|, |g_j|) bit
    for bit, so the loop keeps clipped = clip(cols, -t, t) at the last step's t = |g_j|,
    and absc = |clipped|: SM adds (or for g_j < 0 subtracts) a window of clipped, UM adds
    one of absc.  np.clip(x, -t, t) is x itself, NaN included, wherever |x| <= t, so
    moving t to the next |g_j| changes only the samples whose |f| exceeds the lower of
    the two; those lie between the first and the last sample whose peak |f| over the
    rows does, and the step clips that range alone.
    """
    n = cols.shape[0]
    absc = np.abs(cols)   # |f|, for the peaks; then |clipped| where UM is asked
    clipped = np.empty_like(absc)
    peak = absc[:, 0] if cols.shape[1] == 1 else np.fmax.reduce(absc, axis=1)
    mags = np.abs([gj for _, gj, _, _ in steps])
    floors = np.minimum(mags[1:], mags[:-1])
    # running maxima of the peaks from either end, a NaN as 0.0 (it needs no clip), in
    # clipped's first n slots before the loop writes them; the first step clips all
    run = clipped.reshape(-1)[:n]
    first, last = (np.searchsorted(np.fmax.accumulate(np.fmax(p, 0.0, out=run), out=run),
                                   floors, side="right") for p in (peak, peak[::-1]))
    for (at, gj, lo, hi), a, b in zip(steps, [0, *first.tolist()], [n, *(n - last).tolist()]):
        if a < b:
            cols[a:b].clip(-abs(gj), abs(gj), out=clipped[a:b])   # np.clip, minus its dispatch
            if um is not None:
                np.abs(clipped[a:b], out=absc[a:b])
        window = slice(at + lo, at + hi)
        if sm is not None:
            # sign(g_j) as the operation: a g_j of 0 adds its clip at 0, zeros that add nothing
            (np.subtract if gj < 0 else np.add)(sm[lo:hi], clipped[window], out=sm[lo:hi])
        if um is not None:
            np.add(um[lo:hi], absc[window], out=um[lo:hi])


def aligned_sums(f: np.ndarray, g: np.ndarray, *, need=ALL_SUMS):
    """sliding_sums' result for f against g on one grid: one row, one lag (the full overlap)."""
    ga = np.abs(g)
    terms = {AGW: ga, SGW: g, SF: f}
    if AF in need:
        terms[AF] = np.abs(f)
    if SM in need or UM in need:
        # np.clip(f, -ga, ga) bit for bit, ties and NaN included, without its wrapper
        terms[SM] = np.sign(g) * np.minimum(ga, np.maximum(-ga, f))
        if UM in need:
            terms[UM] = np.abs(terms[SM])
    if DOT in need:
        terms[DOT] = f * g
    return {s: np.add.reduce(terms[s]).reshape((1,) if s in (AF, SF) else (1, 1)) for s in need}
