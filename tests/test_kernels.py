"""Fused sliding-sum kernel: naive-loop agreement and window-edge handling."""

import numpy as np
import pytest

import oracles as orc
from mfcorr.kernels import AFW, AGW, DOT, MX, N_SUMS, SGW, SM, UM, sliding_sums


def naive_sums(f, g, k0, n_lags):
    """Per-lag window sums by explicit loops over the full object grid."""
    n, m = f.size, g.size
    out = np.zeros((n_lags, N_SUMS))
    for k in range(n_lags):
        gm = orc._shifted_template(n, g, k0 + k)
        sm = um = mx = afw = agw = sgw = dot = 0.0
        start = k0 + k
        for j in range(m):
            i = start + j
            if i < 0 or i >= n:
                continue
            fv, gv = float(f[i]), gm[i]
            fa, ga = abs(fv), abs(gv)
            sm += orc._sign(fv) * orc._sign(gv) * min(fa, ga)
            um += min(fa, ga)
            mx += max(fa, ga)
            afw += fa
            agw += ga
            sgw += gv
            dot += fv * gv
        out[k] = (sm, um, mx, afw, agw, sgw, dot)
    return out


@pytest.mark.parametrize("n,m,k0", [
    (32, 7, -3),     # centered pad geometry
    (32, 7, 0),      # valid geometry
    (16, 16, -7),    # template as long as object
    (8, 1, 0),       # single-sample template
    (5, 9, -4),      # template longer than object (pad only)
    (24, 6, -20),    # windows mostly off-grid on the left
])
def test_window_sums_match_naive(n, m, k0):
    rng = np.random.default_rng(n * 100 + m)
    f = rng.uniform(-4, 4, n)
    g = rng.uniform(-4, 4, m)
    f[rng.uniform(size=n) < 0.25] = 0.0
    n_lags = n if k0 < 0 else n - min(m, n) + 1
    want = naive_sums(f, g, k0, n_lags)
    sums, abs_total, sum_total = sliding_sums(f, g, k0, n_lags)
    assert sums.shape == (n_lags, N_SUMS)
    np.testing.assert_allclose(sums, want, rtol=0, atol=1e-12)
    assert abs_total == pytest.approx(np.sum(np.abs(f)), rel=1e-13)
    assert sum_total == pytest.approx(np.sum(f), rel=1e-13, abs=1e-13)


def test_offgrid_template_samples_ignored():
    # lag places half the template before x0: those samples must not count
    f = np.ones(6)
    g = np.ones(4)
    sums, abs_total, _ = sliding_sums(f, g, -2, 1)
    assert sums[0, AGW] == 2.0   # only 2 of 4 template samples on-grid
    assert sums[0, SGW] == 2.0
    assert sums[0, UM] == 2.0
    assert sums[0, MX] == 2.0
    assert sums[0, AFW] == 2.0   # object samples under the on-grid window half
    assert sums[0, DOT] == 2.0
    assert sums[0, SM] == 2.0
    assert abs_total == 6.0


def test_zero_lag_window_equals_head():
    f = np.arange(1.0, 9.0)
    g = np.array([2.0, 2.0, 2.0])
    sums, _, _ = sliding_sums(f, g, 0, 6)
    # window at lag k covers f[k:k+3]
    for k in range(6):
        assert sums[k, AFW] == pytest.approx(np.sum(f[k:k + 3]))
        assert sums[k, DOT] == pytest.approx(2.0 * np.sum(f[k:k + 3]))
