"""Peak detection and 75%-slice width measurement."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from mfcorr import DomainError, ObjectSpec, PeakMeasurement, compute_indices, detect_peaks
from mfcorr.correlate import CorrelationResult, max_normalized
from mfcorr.metrics import stack_figures
from mfcorr.peaks import _widths, stack_peaks

SPEC = ObjectSpec()  # exclusion radius 3*max(0.3, 0.15) = 0.9


def profile(values, dx=1.0, x0=0.0):
    values = np.asarray(values, dtype=float)
    lags = x0 + dx * np.arange(values.size)
    return CorrelationResult(lags=lags, values=values)


def width(p, peak):
    """The 75% width around sample peak of p, as stack_peaks measures it: its one-row stack."""
    return float(_widths(p.lags, p.values[None], np.array([peak]), p.values[[peak]])[0])


def triangle(center, half_width_samples, height, n, dx=1.0):
    x = np.arange(n) * dx
    return height * np.clip(1.0 - np.abs(x - center) / (half_width_samples * dx),
                            0.0, None)


def test_triangle_width():
    # height 1, half-width 4 dx: the 75% level crosses at 1 dx on each side
    vals = triangle(center=10.0, half_width_samples=4, height=1.0, n=21)
    p = profile(vals)
    w = width(p, 10)
    assert w == pytest.approx(2.0, abs=1e-12)


def test_gaussian_width_analytic():
    dx = 0.01
    sigma = 0.3
    x = np.arange(0, 6.4, dx)
    vals = np.exp(-((x - 3.2) ** 2) / (2 * sigma * sigma))
    p = profile(vals, dx=dx)
    w = width(p, int(np.argmax(vals)))
    want = 2.0 * sigma * np.sqrt(2.0 * np.log(4.0 / 3.0))
    assert w == pytest.approx(want, abs=2 * dx)


def test_width_truncates_at_boundary():
    # plateau runs into the right edge: width stops at the last lag
    vals = np.concatenate([np.linspace(0, 1, 6), np.ones(5)])
    p = profile(vals)
    w = width(p, 10)
    # level 0.75 crossed between samples 3 (0.6) and 4 (0.8) on the rise
    left = 3 + (0.75 - 0.6) / 0.2
    assert w == pytest.approx(10.0 - left, abs=1e-12)


def test_primary_peak_simple():
    vals = triangle(10.0, 3, 2.0, 31) + triangle(25.0, 3, 1.0, 31)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(1.0)
    assert pm.h1 == pytest.approx(2.0)
    assert not math.isnan(pm.x2)
    assert pm.x2 == pytest.approx(2.5)
    assert pm.h2 == pytest.approx(1.0)


def test_two_equal_maxima_leftmost():
    vals = np.zeros(40)
    vals[8] = 1.0
    vals[30] = 1.0
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(0.8)


def test_flat_top_reports_midpoint():
    vals = np.zeros(41)
    vals[10:21] = 1.0  # flat top spanning indices 10..20
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(1.5)


def test_exclusion_radius_suppresses_shoulder():
    # secondary bump 0.5 away from the primary: inside the 0.9 radius
    vals = triangle(5.0, 8, 2.0, 101, dx=0.1) + triangle(5.5, 2, 0.4, 101, dx=0.1)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(5.0, abs=0.1)
    if not math.isnan(pm.x2):
        assert abs(pm.x2 - pm.x1) > 0.9


def test_secondary_is_highest_eligible():
    vals = (triangle(2.0, 3, 3.0, 101, dx=0.1)
            + triangle(5.0, 3, 1.0, 101, dx=0.1)
            + triangle(8.0, 3, 2.0, 101, dx=0.1))
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(2.0)
    assert pm.x2 == pytest.approx(8.0)


def test_negative_local_max_not_secondary():
    x = np.arange(0, 10, 0.1)
    vals = np.exp(-((x - 2.0) ** 2)) - 0.2 * np.exp(-((x - 7.0) ** 2) / 4)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(2.0, abs=0.1)
    assert math.isnan(pm.x2)


def test_no_secondary_found():
    vals = triangle(5.0, 5, 1.0, 101, dx=0.1)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert math.isnan(pm.x2) and math.isnan(pm.h2) and math.isnan(pm.w2)


def test_constant_profile_rejected():
    with pytest.raises(DomainError):
        detect_peaks(profile(np.full(32, 0.7)), SPEC)


@pytest.mark.parametrize("values", [
    [-2.0, -1.0, -2.0],          # the crossings would extrapolate: w1 = -0.5
    [-1.0, -1.0, -2.0],          # a tied neighbour would divide by zero: w1 = inf
    [-2.0, -1.0, -1.0, -2.0],
    [-1.0, 0.0, -1.0],           # a zero primary has no width either
])
def test_nonpositive_primary_rejected(values):
    with pytest.raises(DomainError, match="not positive"):
        detect_peaks(profile(values), SPEC)
    assert orc.o_detect_peaks(list(range(len(values))), values, 0.9) is None


def test_peak_measurement_flag():
    # nan marks a missing secondary, as in stack_peaks' rows
    pm = PeakMeasurement(1.0, 2.0, 0.5)
    assert math.isnan(pm.x2) and math.isnan(pm.h2) and math.isnan(pm.w2)
    pm = PeakMeasurement(1.0, 2.0, 0.5, x2=3.0, h2=1.0, w2=0.7)
    assert not math.isnan(pm.x2)


def test_benchmark_profile_lands_on_grid():
    from mfcorr import gen_object, gen_template, method_profile, TemplateSpec
    spec = ObjectSpec()
    obj = gen_object(spec)
    tpl = gen_template(TemplateSpec(), obj.dx)
    pm = detect_peaks(method_profile("coincidence", obj, tpl).normalized(), spec)
    assert pm.x1 == pytest.approx(spec.x_p, abs=spec.grid[1] / spec.grid[2])
    assert pm.x2 == pytest.approx(spec.x_s, abs=2 * obj.dx)


def test_ties_chain_through_neighbours():
    # steps of 0.6e-12 tie pairwise (tolerance 1e-12 at h1 ~ 1) though the run
    # spans 1.8e-12: the run is samples 1..4, not just the ones tying with the max
    vals = np.zeros(30)
    vals[1:5] = 1.0 + 0.6e-12 * np.arange(4)
    pm = detect_peaks(profile(vals), SPEC)
    assert pm.x1 == 2.5
    assert pm.h1 == vals[4]


def test_long_plateau():
    # 10,000 samples flat up to rounding between two linear ramps
    rng = np.random.default_rng(5)
    ramp = np.linspace(0.0, 1.0, 41)
    vals = np.concatenate([ramp, 1.0 + rng.uniform(-3e-13, 3e-13, 10_000), ramp[::-1]])
    pm = detect_peaks(profile(vals, dx=0.01), SPEC)
    # the plateau spans samples 40..10,041; the 75% level is met at 30 and 10,051
    assert pm.x1 == pytest.approx(0.01 * (40 + 10_041) / 2, abs=1e-9)
    assert pm.w1 == pytest.approx(0.01 * (10_051 - 30), abs=1e-9)
    assert math.isnan(pm.x2)


def _check_against_oracle(values, dx, x0):
    p = profile(values, dx=dx, x0=x0)
    want = orc.o_detect_peaks(p.lags.tolist(), p.values.tolist(),
                              3.0 * max(SPEC.sigma_p, SPEC.sigma_s))
    if want is None:
        with pytest.raises(DomainError):
            detect_peaks(p, SPEC)
        return
    pm = detect_peaks(p, SPEC)
    got = (pm.x1, pm.h1, pm.w1, pm.x2, pm.h2, pm.w2)
    assert [str(v) for v in got] == [str(v) for v in want]  # nan matches nan


grid_steps = st.sampled_from([0.01, 0.1, 0.25])
grid_starts = st.floats(-5.0, 5.0)


@given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=80), grid_steps, grid_starts)
@settings(max_examples=300, deadline=None)
def test_random_profiles_match_oracle(values, dx, x0):
    _check_against_oracle(np.asarray(values), dx, x0)


@given(st.lists(st.tuples(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]),
                          st.integers(1, 12)), min_size=1, max_size=10),
       st.lists(st.sampled_from([-6e-13, 0.0, 6e-13]), min_size=1, max_size=120),
       st.sampled_from([1.0, 3.0]), grid_steps, grid_starts)
@settings(max_examples=300, deadline=None)
def test_plateau_profiles_match_oracle(runs, ripple_steps, scale, dx, x0):
    # plateaus from a few levels, plus a drift of sub-tolerance steps whose sum
    # can leave the tolerance within one plateau
    base = np.concatenate([np.full(length, level) for level, length in runs])
    ripple = np.resize(np.cumsum(ripple_steps), base.size)
    _check_against_oracle(scale * (base + ripple), dx, x0)


# ---------------------------------------------------------------------------
# The block path: a stack of rows scored at once, each row as the one-profile
# forms score it alone.

ROW_KINDS = ("noisy", "plateau", "constant", "zero", "negative")


@st.composite
def stacks(draw):
    """(R, n) rows of mixed kinds: noisy, plateaus with sub-tolerance drift, constant,
    all-zero and all-negative."""
    n = draw(st.integers(2, 60))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6)):
        if kind == "noisy":
            row = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
        elif kind == "plateau":
            runs = draw(st.lists(st.tuples(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]),
                                           st.integers(1, 12)), min_size=1, max_size=10))
            drift = draw(st.lists(st.sampled_from([-6e-13, 0.0, 6e-13]), min_size=1,
                                  max_size=60))
            row = (np.resize(np.concatenate([np.full(k, v) for v, k in runs]), n)
                   + np.resize(np.cumsum(drift), n))
        elif kind == "constant":
            row = np.full(n, draw(st.sampled_from([-1.0, 0.3, 1.0, 2.5])))
        elif kind == "zero":
            row = np.zeros(n)
        else:
            row = -np.asarray(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
        rows.append(np.asarray(row, dtype=float))
    return np.stack(rows)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.where(np.isnan(got), 0.0, got).tobytes() == np.where(np.isnan(want), 0.0,
                                                                     want).tobytes()


@given(stacks(), grid_steps, grid_starts)
@settings(max_examples=200, deadline=None)
def test_stack_rows_match_one_profile_forms(stack, dx, x0):
    lags = x0 + dx * np.arange(stack.shape[1])
    normalized = max_normalized(stack)
    peaks = stack_peaks(lags, normalized, SPEC)
    figures = stack_figures(lags, normalized, SPEC)
    exclusion = 3.0 * max(SPEC.sigma_p, SPEC.sigma_s)
    for r, row in enumerate(stack):
        p = CorrelationResult(lags, row).normalized()
        assert p.values.tobytes() == normalized[r].tobytes()
        oracle = orc.o_detect_peaks(p.lags.tolist(), p.values.tolist(), exclusion)
        got = [float(a[r]) for a in peaks]
        try:
            pm = detect_peaks(p, SPEC)
            indices = compute_indices(pm, SPEC, p)
        except DomainError:
            # failed rows are exactly those: six nan figures, no primary
            assert oracle is None and np.isnan(got[0]) and np.isnan(got[2])
            assert np.isnan(figures[r]).all()
            continue
        want = astuple(pm)
        _same_bits(got, want)
        assert [str(v) for v in want] == [str(v) for v in oracle]
        _same_bits(figures[r], indices)
