"""Hand-built sweep records tables for the tests, and their comparison."""

from __future__ import annotations

import math

import numpy as np

from mfcorr import INDEX_NAMES, PerformanceIndices, Records


def figures_of(indices: PerformanceIndices | None) -> list[float]:
    """The six figures in INDEX_NAMES order, nan where missing (all of them for None)."""
    if indices is None:
        return [math.nan] * len(INDEX_NAMES)
    return [math.nan if v is None else v for v in indices.as_dict().values()]


def records_of(rows) -> Records:
    """The table of (method, level, realization, PerformanceIndices | None) rows, in order."""
    methods = tuple(dict.fromkeys(row[0] for row in rows))
    codes, levels, realizations = (
        np.array(column, dtype=np.int64)
        for column in zip(*((methods.index(m), v, r) for m, v, r, _ in rows)))
    figures = np.array([figures_of(row[3]) for row in rows], dtype=np.float64)
    return Records(methods, codes, levels, realizations, figures)


def assert_records_equal(got: Records, want: Records) -> None:
    """Same method names, codes, levels and realizations; figures equal, nan for nan."""
    assert got.methods == want.methods
    for name in ("codes", "levels", "realizations", "figures"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
