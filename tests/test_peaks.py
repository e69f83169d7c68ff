"""Peak detection and 75%-slice width measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from mfcorr import DomainError, ObjectSpec, PeakMeasurement, detect_peaks
from mfcorr.correlate import CorrelationResult, Method
from mfcorr.peaks import width_at_fraction

SPEC = ObjectSpec()  # exclusion radius 3*max(0.3, 0.15) = 0.9


def profile(values, dx=1.0, x0=0.0):
    values = np.asarray(values, dtype=float)
    lags = x0 + dx * np.arange(values.size)
    return CorrelationResult(lags=lags, values=values,
                             method=Method("classic"), boundary="pad")


def triangle(center, half_width_samples, height, n, dx=1.0):
    x = np.arange(n) * dx
    return height * np.clip(1.0 - np.abs(x - center) / (half_width_samples * dx),
                            0.0, None)


def test_triangle_width():
    # height 1, half-width 4 dx: the 75% level crosses at 1 dx on each side
    vals = triangle(center=10.0, half_width_samples=4, height=1.0, n=21)
    p = profile(vals)
    w = width_at_fraction(p.lags, p.values, 10)
    assert w == pytest.approx(2.0, abs=1e-12)


def test_gaussian_width_analytic():
    dx = 0.01
    sigma = 0.3
    x = np.arange(0, 6.4, dx)
    vals = np.exp(-((x - 3.2) ** 2) / (2 * sigma * sigma))
    p = profile(vals, dx=dx)
    w = width_at_fraction(p.lags, p.values, int(np.argmax(vals)))
    want = 2.0 * sigma * np.sqrt(2.0 * np.log(4.0 / 3.0))
    assert w == pytest.approx(want, abs=2 * dx)


def test_width_truncates_at_boundary():
    # plateau runs into the right edge: width stops at the last lag
    vals = np.concatenate([np.linspace(0, 1, 6), np.ones(5)])
    p = profile(vals)
    w = width_at_fraction(p.lags, p.values, 10)
    # level 0.75 crossed between samples 3 (0.6) and 4 (0.8) on the rise
    left = 3 + (0.75 - 0.6) / 0.2
    assert w == pytest.approx(10.0 - left, abs=1e-12)


def test_primary_peak_simple():
    vals = triangle(10.0, 3, 2.0, 31) + triangle(25.0, 3, 1.0, 31)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert pm.x1 == pytest.approx(1.0)
    assert pm.h1 == pytest.approx(2.0)
    assert pm.has_secondary
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
    if pm.has_secondary:
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
    assert not pm.has_secondary


def test_no_secondary_found():
    vals = triangle(5.0, 5, 1.0, 101, dx=0.1)
    pm = detect_peaks(profile(vals, dx=0.1), SPEC)
    assert not pm.has_secondary
    assert pm.x2 is None and pm.h2 is None and pm.w2 is None


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
    pm = PeakMeasurement(1.0, 2.0, 0.5)
    assert not pm.has_secondary
    pm = PeakMeasurement(1.0, 2.0, 0.5, x2=3.0, h2=1.0, w2=0.7)
    assert pm.has_secondary


def test_benchmark_profile_lands_on_grid():
    from mfcorr import Method as M
    from mfcorr import correlate, gen_object, gen_template, TemplateSpec
    spec = ObjectSpec()
    obj = gen_object(spec)
    tpl = gen_template(TemplateSpec(), obj.dx)
    pm = detect_peaks(correlate(obj, tpl, M("coincidence")).normalized(), spec)
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
    assert not pm.has_secondary


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
