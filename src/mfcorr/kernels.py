"""Sliding-window sum kernel shared by every correlation method.

For each lag the engine needs seven window sums over the overlap between the
object and the shifted template (the template is zero outside its support and
ignored off the object grid):

    index 0  SM   sum of sign(f)*sign(g)*min(|f|, |g|)
    index 1  UM   sum of min(|f|, |g|)
    index 2  MX   sum of max(|f|, |g|)
    index 3  AFW  sum of |f| over the overlap window
    index 4  AGW  sum of |g| over the overlap window
    index 5  SGW  sum of g over the overlap window
    index 6  DOT  sum of f*g

The kernel returns (sums, abs_total, sum_total) where the totals are the
full-grid sums of |f| and f, accumulated with the same reduction as the per-lag
sums so that ratios of identical windows are exact.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, MX, AFW, AGW, SGW, DOT = range(7)
N_SUMS = 7


def sliding_sums(f: np.ndarray, g: np.ndarray, k0: int, n_lags: int):
    """Window sums for lags k0 .. k0+n_lags-1 from the (n_lags, len(g)) window matrix.

    Memory is O(n_lags * len(g)); fine for the signal sizes this library
    targets.
    """
    n, m = f.size, g.size
    pad_left = max(0, -k0)
    pad_right = max(0, (k0 + n_lags - 1 + m) - n)
    fp = np.concatenate([np.zeros(pad_left), f, np.zeros(pad_right)])
    windows = np.lib.stride_tricks.sliding_window_view(fp, m)
    w = windows[k0 + pad_left : k0 + pad_left + n_lags]

    # columns where the shifted template hangs off the object grid do not count
    idx = (k0 + np.arange(n_lags))[:, None] + np.arange(m)[None, :]
    gm = np.where((idx >= 0) & (idx < n), g[None, :], 0.0)

    fa = np.abs(w)
    ga = np.abs(gm)
    mn = np.minimum(fa, ga)

    sums = np.empty((n_lags, N_SUMS))
    sums[:, SM] = (np.sign(w) * np.sign(gm) * mn).sum(axis=1)
    sums[:, UM] = mn.sum(axis=1)
    sums[:, MX] = np.maximum(fa, ga).sum(axis=1)
    sums[:, AFW] = fa.sum(axis=1)
    sums[:, AGW] = ga.sum(axis=1)
    sums[:, SGW] = gm.sum(axis=1)
    sums[:, DOT] = (w * gm).sum(axis=1)
    return sums, float(np.sum(np.abs(f))), float(np.sum(f))
