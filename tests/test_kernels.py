"""Sliding-sum kernel: naive-loop agreement, window edges, long offset signals, stacks,
only the sums asked for (no template loop for the loop-less ones), and the template-only
sums (AGW, SGW) against a loop over the template, and SM, UM and DOT against a fresh
clip per template step, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as orc
from mfcorr import kernels
from mfcorr.correlate import METHOD_TAGS
from mfcorr.generators import ObjectSpec, TemplateSpec, gen_template
from mfcorr.indices import SUMS_READ, profile_values
from mfcorr.kernels import AF, AGW, ALL_SUMS, DOT, LOOPLESS, SF, SGW, SM, UM, sliding_sums

WINDOW_SUMS = (SM, UM, AGW, SGW, DOT)   # one per lag; the totals AF and SF one per object


def naive_sums(f, g, k0, n_lags):
    """Per-lag window sums by explicit loops over the full object grid, as one row of stacked()."""
    n, m = f.size, g.size
    out = np.zeros((len(WINDOW_SUMS), 1, n_lags))
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


def stacked(sums, n_rows, n_lags):
    """An all-sums call's window sums as one (5, R, n_lags) block, each shape checked:
    (R, n_lags) for SM, UM and DOT, one (n_lags,) row that every object shares for AGW
    and SGW, and (R,) for the totals AF and SF."""
    assert sums.keys() == ALL_SUMS
    shapes = {AGW: (n_lags,), SGW: (n_lags,), AF: (n_rows,), SF: (n_rows,)}
    for s, values in sums.items():
        assert values.shape == shapes.get(s, (n_rows, n_lags)), s
    return np.stack([np.broadcast_to(sums[s], (n_rows, n_lags)) for s in WINDOW_SUMS])


def same_totals(sums, r, one):
    """Row r's totals of a stack's call equal those of a one-row call, bit for bit."""
    return all(sums[s][r:r + 1].tobytes() == one[s].tobytes() for s in (AF, SF))


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
    sums = sliding_sums(f, g, k0, n_lags)
    # every sum gets the naive loop's terms in template order, so equal to the bit
    np.testing.assert_array_equal(stacked(sums, 1, n_lags), want)
    assert sums[AF][0] == pytest.approx(np.sum(np.abs(f)), rel=1e-13)
    assert sums[SF][0] == pytest.approx(np.sum(f), rel=1e-13, abs=1e-13)


def test_offgrid_template_samples_ignored():
    # lag places half the template before x0: those samples must not count
    f = np.ones(6)
    g = np.ones(4)
    sums = sliding_sums(f, g, -2, 1)
    assert sums[AGW][0] == 2.0   # only 2 of 4 template samples on-grid
    assert sums[SGW][0] == 2.0
    assert sums[UM][0, 0] == 2.0
    assert sums[DOT][0, 0] == 2.0
    assert sums[SM][0, 0] == 2.0
    assert sums[AF][0] == 6.0


def test_zero_lag_window_equals_head():
    f = np.arange(1.0, 9.0)
    g = np.array([2.0, 2.0, 2.0])
    sums = sliding_sums(f, g, 0, 6)
    # window at lag k covers f[k:k+3]
    for k in range(6):
        assert sums[DOT][0, k] == pytest.approx(2.0 * np.sum(f[k:k + 3]))


def test_only_needed_sums_returned():
    rng = np.random.default_rng(4)
    f, g = rng.uniform(-3, 3, 20), rng.uniform(-3, 3, 5)
    full = sliding_sums(f, g, -2, 20)
    for need in ({DOT}, {SM, SGW}, {UM, AGW, DOT}, {AF}, {SF, AGW}, {SM, AF, SF}):
        sums = sliding_sums(f, g, -2, 20, need=need)
        assert sums.keys() == need
        for s in need:
            assert sums[s].tobytes() == full[s].tobytes(), s


def test_totals_computed_only_when_needed(monkeypatch):
    # the totals are the kernel's only np.sum calls, one (R, n) reduction each
    rng = np.random.default_rng(6)
    f, g = rng.uniform(-3, 3, (3, 20)), rng.uniform(-3, 3, 5)
    shapes, np_sum = [], np.sum
    monkeypatch.setattr(np, "sum", lambda a, **kw: shapes.append(np.shape(a)) or np_sum(a, **kw))
    for need, totals in (({DOT}, 0), ({SM, UM, AGW, SGW, DOT}, 0), ({AF}, 1), (ALL_SUMS, 2)):
        shapes.clear()
        sums = sliding_sums(f, g, -2, 20, need=need)
        assert shapes == [(3, 20)] * totals, need
        assert sums.keys() == need


def test_loopless_sums_make_no_template_step(monkeypatch):
    # AGW, SGW, AF and SF come without the template loop (kernels._object_sums);
    # a call that adds SM, UM or DOT runs it once
    rng = np.random.default_rng(7)
    f, g = rng.uniform(-3, 3, (2, 20)), rng.uniform(-3, 3, 5)
    full = sliding_sums(f, g, -2, 20)
    loops, loop = [], kernels._object_sums
    monkeypatch.setattr(kernels, "_object_sums", lambda *args: loops.append(args) or loop(*args))
    for need in ({AGW}, {SF}, {AF, SGW}, LOOPLESS):
        sums = sliding_sums(f, g, -2, 20, need=need)
        assert {s: v.tobytes() for s, v in sums.items()} == {s: full[s].tobytes() for s in need}
    assert loops == []
    for need in ({DOT}, {UM} | LOOPLESS):
        sliding_sums(f, g, -2, 20, need=need)
    assert len(loops) == 2


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_formulas_read_only_their_sums(tag):
    # from only the sums the table names, the values are those of all five
    rng = np.random.default_rng(5)
    f, g = rng.uniform(-3, 3, (2, 30)), rng.uniform(-3, 3, 7)
    f[:, ::4] = 0.0
    want = profile_values(tag, sliding_sums(f, g, -3, 30), 0.1)
    got = profile_values(tag, sliding_sums(f, g, -3, 30, need=SUMS_READ[tag]), 0.1)
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
    sums = sliding_sums(f, g, k0, n)
    lags = sorted({0, 1, 59, 60, n - 61, n - 60, n - 1, *rng.integers(0, n, 8).tolist()})
    want = np.concatenate([naive_sums(f, g, k0 + k, 1) for k in lags], axis=2)
    np.testing.assert_allclose(stacked(sums, 1, n)[:, :, lags], want, rtol=1e-14, atol=0)
    sums = {s: values if s in (AF, SF) else values[..., lags] for s, values in sums.items()}
    want = {**dict(zip(WINDOW_SUMS, want)), AF: np.array([orc.o_abs_area(f, 1.0)]),
            SF: np.array([float(sum(f.tolist()))])}
    for tag in METHOD_TAGS:
        got = profile_values(tag, sums, dx)
        ref = profile_values(tag, want, dx)
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
    sums = sliding_sums(f, g, k0, n_lags)
    block = stacked(sums, f.shape[0], n_lags)
    for r, row in enumerate(f):
        one = sliding_sums(row, g, k0, n_lags)
        assert block[:, r].tobytes() == stacked(one, 1, n_lags)[:, 0].tobytes()
        assert same_totals(sums, r, one)
        np.testing.assert_array_equal(block[:, r], naive_sums(row, g, k0, n_lags)[:, 0])


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
    sums = sliding_sums(f, g, k0, n_lags, need=LOOPLESS)
    assert sums.keys() == LOOPLESS
    # one row that every object of the stack shares
    assert sums[AGW].tobytes() == agw.tobytes()
    assert sums[SGW].tobytes() == sgw.tobytes()
    assert sums[AF].shape == sums[SF].shape == (f.shape[0],)
    for r, row in enumerate(f):
        one = sliding_sums(row, g, k0, n_lags, need=LOOPLESS)
        assert [one[s].tobytes() for s in (AGW, SGW)] == [agw.tobytes(), sgw.tobytes()]
        assert same_totals(sums, r, one)


def test_paper_scale_stack_rows_equal_single_calls():
    # a paper-scale level: 300 realizations on the default 121-sample template,
    # a stack far taller than the drawn ones above
    template = gen_template(TemplateSpec(), ObjectSpec().dx).samples
    rng = np.random.default_rng(300)
    f = rng.uniform(-1.0, 3.0, (300, 640))
    f[rng.uniform(size=f.shape) < 0.05] = 0.0
    k0 = -((template.size - 1) // 2)
    sums = sliding_sums(f, template, k0, 640)
    block = stacked(sums, 300, 640)
    for r, row in enumerate(f):
        one = sliding_sums(row, template, k0, 640)
        assert block[:, r].tobytes() == stacked(one, 1, 640)[:, 0].tobytes(), r
        assert same_totals(sums, r, one), r


def template_loop_reference(f, g, k0, n_lags):
    """SM, UM and DOT (R, n_lags) as one template loop adds them, clipping each step's
    window afresh: the loop that kernels._object_sums replaced, kept here as its reference."""
    rows = np.atleast_2d(f)
    n_rows, n = rows.shape
    sm, um, dot = np.zeros((3, n_lags, n_rows))
    cols = np.ascontiguousarray(rows.T)
    scratch = np.empty((n_lags, n_rows))
    for j, gj in enumerate(g.tolist()):
        lo, hi = max(0, -(k0 + j)), min(n_lags, n - k0 - j)
        if lo >= hi:
            continue
        fw, out = cols[k0 + j + lo:k0 + j + hi], scratch[:hi - lo]
        np.clip(fw, -abs(gj), abs(gj), out=out)
        if gj < 0:
            out *= -1.0
        np.add(sm[lo:hi], out, out=sm[lo:hi])
        np.add(um[lo:hi], np.abs(out, out=out), out=um[lo:hi])
        np.add(dot[lo:hi], np.multiply(fw, gj, out=out), out=dot[lo:hi])
    return {SM: sm.T, UM: um.T, DOT: dot.T}


def _clip_cases(n_rows):
    """(name, f of (n_rows, 24), g): the objects and templates the clipped buffers must
    handle as a fresh clip per step does."""
    rng = np.random.default_rng(25)
    g = np.concatenate([np.linspace(0.0, 2.0, 6), np.linspace(1.6, 0.0, 5)])
    ties = rng.choice(np.concatenate([g, -g]), (n_rows, 24))   # every |f| some |g_j|
    signed = np.array([0.0, -0.0, 1.5, -2.0, 0.0, -0.5, 3.0, -1.0, 0.0])
    spike = rng.uniform(-0.05, 0.05, (n_rows, 24))
    spike[n_rows // 2, 17] = 9.0   # one row's spike, the one sample above the higher floors
    inside = rng.uniform(-0.5, 0.5, (n_rows, 24))   # within every |g_j| but the first
    outside = np.concatenate([[0.0], rng.uniform(1.0, 2.0, 7) * rng.choice([-1, 1], 7)])
    special = rng.uniform(-3.0, 3.0, (n_rows, 24))
    special[:, [2, 9, 20]] = [np.inf, -np.inf, np.nan]
    special[0, 5] = np.nan
    return [("ties", ties, g), ("signed template", rng.uniform(-3.0, 3.0, (n_rows, 24)), signed),
            ("spike", spike, g), ("inside", inside, outside), ("inf and nan", special, signed),
            ("inf and nan, rising", special, g)]


def _geometries(n, m):
    """(k0, n_lags) of pad and valid lags, lags from k0 > 0, and all lags of a longer template."""
    out = [(-((m - 1) // 2), n), (3, n - 5), (1 - m, n + m - 1)]
    if m <= n:
        out.append((0, n - m + 1))
    return out


@pytest.mark.parametrize("n_rows", [1, 7])
@pytest.mark.parametrize("name", ["ties", "signed template", "spike", "inside", "inf and nan",
                                  "inf and nan, rising", "template longer than object"])
def test_clipped_buffers_equal_fresh_clip_bit_for_bit(name, n_rows):
    cases = {case: (f, g) for case, f, g in _clip_cases(n_rows)}
    cases["template longer than object"] = (cases["ties"][0][:, :8], cases["ties"][1][::-1])
    f, g = cases[name]
    for k0, n_lags in _geometries(f.shape[1], g.size):
        with np.errstate(invalid="ignore"):   # inf * 0 and inf - inf give their nan
            want = template_loop_reference(f, g, k0, n_lags)
            got = [(need, sliding_sums(f, g, k0, n_lags, need=need))
                   for need in ({SM, UM, DOT}, {SM}, {UM})]
        for need, sums in got:
            for s in need:
                assert sums[s].tobytes() == want[s].tobytes(), (s, k0, n_lags, need)
