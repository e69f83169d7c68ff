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

There is no window matrix: sliding_sums loops over the template samples and
adds each one's terms (_terms), for R stacked objects and every lag at once,
into one (7, R, n_lags) buffer, so memory is O(R * n_lags).  AFW is summed in
that loop too, not from prefix sums, so a large offset cannot cancel; AGW and
SGW depend on the lag alone, and MX = AFW + AGW - UM.  aligned_sums reduces
the same terms over an aligned pair, for the whole-signal functionals.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"

SM, UM, MX, AFW, AGW, SGW, DOT = range(7)
N_SUMS = 7


def _terms(f: np.ndarray, fa: np.ndarray, g, out: np.ndarray):
    """Yield (sum index, terms) of f (fa = |f|) against g, a sample or an aligned array.

    The terms reuse out: consume each before asking for the next.
    """
    ga = np.abs(g)
    # sign(g)*clip(f, -|g|, |g|) is sign(f)*sign(g)*min(|f|, |g|) bit for bit; a
    # scalar g >= 0 skips the product, as the zeros it would sign add nothing
    np.clip(f, -ga, ga, out=out)
    if np.ndim(g) or g < 0:
        out *= np.sign(g)
    yield SM, out
    yield UM, np.abs(out, out=out)
    yield AFW, fa
    yield DOT, np.multiply(f, g, out=out)


def _finish(sums, agw, sgw) -> None:
    sums[AGW], sums[SGW] = agw, sgw
    sums[MX] = sums[AFW] + sums[AGW] - sums[UM]


def sliding_sums(f: np.ndarray, g: np.ndarray, k0: int, n_lags: int):
    """Window sums for lags k0 .. k0+n_lags-1 of one object (n,) or a stack (R, n) against g.

    Returns sums (n_lags, N_SUMS) or (R, n_lags, N_SUMS) and each object's
    full-grid sums of |f| and f; a stack's rows get exactly one-row calls' sums.
    """
    rows = np.atleast_2d(f)
    abs_rows, n = np.abs(rows), rows.shape[1]
    sums = np.zeros((N_SUMS, rows.shape[0], n_lags))
    scratch = np.empty((rows.shape[0], n_lags))
    agw, sgw = np.zeros((2, n_lags))
    for j, gj in enumerate(g.tolist()):
        # lag k puts template sample j on object sample k0 + k + j; keep it on the grid
        lo, hi = max(0, -(k0 + j)), min(n_lags, n - k0 - j)
        if lo >= hi:
            continue
        window, acc = slice(k0 + j + lo, k0 + j + hi), sums[:, :, lo:hi]
        for index, terms in _terms(rows[:, window], abs_rows[:, window], gj,
                                   scratch[:, :hi - lo]):
            np.add(acc[index], terms, out=acc[index])
        agw[lo:hi] += abs(gj)
        sgw[lo:hi] += gj
    _finish(sums, agw, sgw)
    lag_major = sums.transpose(1, 2, 0)
    abs_total, sum_total = np.sum(abs_rows, axis=1), np.sum(rows, axis=1)
    if f.ndim == 1:
        return lag_major[0], float(abs_total[0]), float(sum_total[0])
    return lag_major, abs_total, sum_total


def aligned_sums(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The seven sums of f against g on one grid, as one lag: shape (1, N_SUMS)."""
    sums = [0.0] * N_SUMS
    for index, terms in _terms(f, np.abs(f), g, np.empty_like(f)):
        sums[index] = np.add.reduce(terms)
    _finish(sums, np.add.reduce(np.abs(g)), np.add.reduce(g))
    return np.array([sums])
