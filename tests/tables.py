"""Hand-built sweep records tables and results for the tests, and their comparison."""

from __future__ import annotations

import math

import numpy as np

from mfcorr import INDEX_NAMES, Records, SweepConfig
from mfcorr.sweep import SweepResult, aggregate_records


def figures(**named: float) -> list[float]:
    """The six figures in INDEX_NAMES order: the named ones, nan for the rest."""
    assert set(named) <= set(INDEX_NAMES), named
    return [named.get(name, math.nan) for name in INDEX_NAMES]


def records_of(rows) -> Records:
    """The table of (method, level, realization, six figures) rows, in order."""
    methods = tuple(dict.fromkeys(row[0] for row in rows))
    codes, levels, realizations = (
        np.array(column, dtype=np.int64)
        for column in zip(*((methods.index(m), v, r) for m, v, r, _ in rows)))
    return Records(methods, codes, levels, realizations,
                   np.array([row[3] for row in rows], dtype=np.float64))


def sweep_result(cfg: SweepConfig, block: np.ndarray) -> SweepResult:
    """The result of a sweep of cfg whose figures block is block: block[v, r, i] holds the
    figures of realization r at cfg.levels[v] under cfg.methods[i], as in run_sweep."""
    rows = [(method, level, r, block[v, r, i]) for v, level in enumerate(cfg.levels)
            for r in range(cfg.realizations) for i, method in enumerate(cfg.methods)]
    return SweepResult(cfg, records_of(rows), aggregate_records(cfg.levels, cfg.methods, block))


def assert_records_equal(got: Records, want: Records) -> None:
    """Same method names, codes, levels and realizations; figures equal, nan for nan."""
    assert got.methods == want.methods
    for name in ("codes", "levels", "realizations", "figures"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
