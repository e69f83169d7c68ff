"""Sliding-sum kernel: naive-loop agreement, window edges, long offset signals, stacks,
and the template-only sums (AGW, SGW) against a loop over the template."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as orc
from mfcorr.correlate import METHOD_TAGS
from mfcorr.generators import ObjectSpec, TemplateSpec, gen_template
from mfcorr.indices import SUMS_READ, profile_values
from mfcorr.kernels import AGW, DOT, N_SUMS, SGW, SM, UM, sliding_sums


def naive_sums(f, g, k0, n_lags):
    """Per-lag window sums by explicit loops over the full object grid, as one kernel row."""
    n, m = f.size, g.size
    out = np.zeros((N_SUMS, 1, n_lags))
    for k in range(n_lags):
        gm = orc._shifted_template(n, g, k0 + k)
        sm = um = agw = sgw = dot = 0.0
        start = k0 + k
        for j in range(m):
            i = start + j
            if i < 0 or i >= n:
                continue
            fv, gv = float(f[i]), gm[i]
            fa, ga = abs(fv), abs(gv)
            sm += orc._sign(fv) * orc._sign(gv) * min(fa, ga)
            um += min(fa, ga)
            agw += ga
            sgw += gv
            dot += fv * gv
        out[:, 0, k] = (sm, um, agw, sgw, dot)
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
    assert sums.shape == (N_SUMS, 1, n_lags)
    # every sum gets the naive loop's terms in template order, so equal to the bit
    np.testing.assert_array_equal(sums, want)
    assert abs_total[0] == pytest.approx(np.sum(np.abs(f)), rel=1e-13)
    assert sum_total[0] == pytest.approx(np.sum(f), rel=1e-13, abs=1e-13)


def test_offgrid_template_samples_ignored():
    # lag places half the template before x0: those samples must not count
    f = np.ones(6)
    g = np.ones(4)
    sums, abs_total, _ = sliding_sums(f, g, -2, 1)
    assert sums[AGW, 0, 0] == 2.0   # only 2 of 4 template samples on-grid
    assert sums[SGW, 0, 0] == 2.0
    assert sums[UM, 0, 0] == 2.0
    assert sums[DOT, 0, 0] == 2.0
    assert sums[SM, 0, 0] == 2.0
    assert abs_total[0] == 6.0


def test_zero_lag_window_equals_head():
    f = np.arange(1.0, 9.0)
    g = np.array([2.0, 2.0, 2.0])
    sums, _, _ = sliding_sums(f, g, 0, 6)
    # window at lag k covers f[k:k+3]
    for k in range(6):
        assert sums[DOT, 0, k] == pytest.approx(2.0 * np.sum(f[k:k + 3]))


def test_sums_not_needed_read_nan():
    rng = np.random.default_rng(4)
    f, g = rng.uniform(-3, 3, 20), rng.uniform(-3, 3, 5)
    full, abs_total, sum_total = sliding_sums(f, g, -2, 20)
    sums, *totals = sliding_sums(f, g, -2, 20, need={DOT})
    assert np.isnan(sums[[SM, UM, AGW, SGW]]).all()
    assert sums[DOT].tobytes() == full[DOT].tobytes()
    assert [t.tobytes() for t in totals] == [abs_total.tobytes(), sum_total.tobytes()]


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_formulas_read_only_their_sums(tag):
    # with NaN in every sum the table leaves out, the values are those of all five
    rng = np.random.default_rng(5)
    f, g = rng.uniform(-3, 3, (2, 30)), rng.uniform(-3, 3, 7)
    f[:, ::4] = 0.0
    want = profile_values(tag, *sliding_sums(f, g, -3, 30), 0.1)
    got = profile_values(tag, *sliding_sums(f, g, -3, 30, need=SUMS_READ[tag]), 0.1)
    assert got.tobytes() == want.tobytes()


def _long_object(offset, rng):
    """16,000 samples on a DC offset: Gaussian bumps plus uniform noise."""
    x = 0.01 * np.arange(16_000)
    f = np.full(x.size, offset) + 0.5 * (rng.random(x.size) - 0.5)
    for c in rng.uniform(0.0, x[-1], 5):
        f += 2.0 * np.exp(-((x - c) ** 2) / (2 * 0.3 ** 2))
    return f


@pytest.mark.parametrize("offset", [100.0, 1e4])
def test_long_signal_with_offset_matches_naive(offset):
    # on the offset the union (sum|f| + AGW) - UM is ~16,000*offset and DOT ~121*offset:
    # the sums and every profile must still match the naive loop to rounding
    rng = np.random.default_rng(int(offset))
    f = _long_object(offset, rng)
    g = 2.0 * np.sin(np.pi * np.arange(121) / 120)
    n, m, dx = f.size, g.size, 0.01
    k0 = -((m - 1) // 2)
    sums, abs_total, sum_total = sliding_sums(f, g, k0, n)
    lags = sorted({0, 1, 59, 60, n - 61, n - 60, n - 1, *rng.integers(0, n, 8).tolist()})
    want = np.concatenate([naive_sums(f, g, k0 + k, 1) for k in lags], axis=2)
    np.testing.assert_allclose(sums[:, :, lags], want, rtol=1e-14, atol=0)
    want_totals = np.array([orc.o_abs_area(f, 1.0)]), np.array([float(sum(f.tolist()))])
    for tag in METHOD_TAGS:
        got = profile_values(tag, sums[:, :, lags], abs_total, sum_total, dx)
        ref = profile_values(tag, want, *want_totals, dx)
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale, err_msg=tag)


@st.composite
def stacked_cases(draw):
    """A stack of objects, a template, and a lag range: pad, valid or arbitrary.

    The stack is C-ordered, Fortran-ordered or a column slice of a wider array.
    """
    rows, n, m = draw(st.integers(1, 4)), draw(st.integers(1, 24)), draw(st.integers(1, 30))
    geometry = draw(st.sampled_from(("pad", "valid", "any")))
    if geometry == "valid":
        m = min(m, n)
        k0, n_lags = 0, n - m + 1
    elif geometry == "pad":
        k0, n_lags = -((m - 1) // 2), n
    else:
        k0, n_lags = draw(st.integers(-m - 3, n + 3)), draw(st.integers(1, n + m + 3))
    values = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False))
    f = draw(hnp.arrays(np.float64, (rows, n), elements=values))
    g = draw(hnp.arrays(np.float64, m, elements=values))
    layout = draw(st.sampled_from(("C", "F", "slice")))
    if layout == "F":
        f = np.asfortranarray(f)
    elif layout == "slice":
        f = np.concatenate([f, np.full((rows, 3), np.nan)], axis=1)[:, :n]
    return f, g, k0, n_lags


@given(stacked_cases())
@example((np.arange(10.0).reshape(2, 5) - 4.0, np.linspace(-3.0, 3.0, 9), -4, 5))  # m > n
@example((np.linspace(-2.0, 2.0, 24).reshape(1, 24), np.ones(6), -20, 24))  # off-grid left
@settings(max_examples=300, deadline=None)
def test_stack_rows_equal_single_calls(case):
    f, g, k0, n_lags = case
    sums, abs_total, sum_total = sliding_sums(f, g, k0, n_lags)
    assert sums.shape == (N_SUMS, f.shape[0], n_lags)
    for r, row in enumerate(f):
        one, one_abs, one_sum = sliding_sums(row, g, k0, n_lags)
        assert sums[:, r].tobytes() == one[:, 0].tobytes()
        assert abs_total[r] == one_abs[0] and sum_total[r] == one_sum[0]
        np.testing.assert_array_equal(sums[:, r], naive_sums(row, g, k0, n_lags)[:, 0])


def template_loop_sums(g, n, k0, n_lags):
    """AGW and SGW as a loop over the template adds them: each step's term into zeros, per lag."""
    agw, sgw = np.zeros((2, n_lags))
    for j, gj in enumerate(g.tolist()):
        lo, hi = max(0, -(k0 + j)), min(n_lags, n - k0 - j)
        if lo < hi:
            agw[lo:hi] += abs(gj)
            sgw[lo:hi] += gj
    return agw, sgw


@st.composite
def template_sum_cases(draw):
    """A stack, a template with negatives, +0.0 and -0.0, and any lag range, off-grid lags too."""
    rows, n, m = draw(st.integers(1, 3)), draw(st.integers(1, 60)), draw(st.integers(1, 40))
    k0, n_lags = draw(st.integers(-m - 3, n + 3)), draw(st.integers(1, n + m + 5))
    values = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-5.0, 5.0, allow_nan=False))
    g = draw(hnp.arrays(np.float64, m, elements=values))
    f = draw(hnp.arrays(np.float64, (rows, n), elements=st.floats(-5.0, 5.0)))
    return f, g, k0, n_lags


@given(template_sum_cases())
@example((np.ones((2, 8)), np.full(9, -0.0), -4, 8))                  # all -0.0, no full lag
@example((np.ones((1, 8)), np.linspace(-2.0, 2.0, 9), -4, 8))         # short grid, all edges
@example((np.ones((1, 5)), np.array([-0.0, 0.0, -1.5, 1.5, -0.0]), -8, 20))  # off both ends
@settings(max_examples=300, deadline=None)
def test_template_sums_match_template_loop(case):
    f, g, k0, n_lags = case
    agw, sgw = template_loop_sums(g, f.shape[1], k0, n_lags)
    sums, *totals = sliding_sums(f, g, k0, n_lags, need={AGW, SGW})
    assert np.isnan(sums[[SM, UM, DOT]]).all()
    for r, row in enumerate(f):
        assert sums[AGW, r].tobytes() == agw.tobytes()
        assert sums[SGW, r].tobytes() == sgw.tobytes()
        one, *one_totals = sliding_sums(row, g, k0, n_lags, need={AGW, SGW})
        assert sums[:, r].tobytes() == one[:, 0].tobytes()
        assert [t[r] for t in totals] == [t[0] for t in one_totals]


def test_paper_scale_stack_rows_equal_single_calls():
    # a paper-scale level: 300 realizations on the default 121-sample template,
    # a stack far taller than the drawn ones above
    template = gen_template(TemplateSpec(), ObjectSpec().dx).samples
    rng = np.random.default_rng(300)
    f = rng.uniform(-1.0, 3.0, (300, 640))
    f[rng.uniform(size=f.shape) < 0.05] = 0.0
    k0 = -((template.size - 1) // 2)
    sums, abs_total, sum_total = sliding_sums(f, template, k0, 640)
    for r, row in enumerate(f):
        one, one_abs, one_sum = sliding_sums(row, template, k0, 640)
        assert sums[:, r].tobytes() == one[:, 0].tobytes(), r
        assert abs_total[r] == one_abs[0] and sum_total[r] == one_sum[0]
