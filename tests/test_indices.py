"""Similarity index functionals: worked values, guards, and properties."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as orc
from mfcorr import (AlignmentError, DomainError, Multiset, Signal,
                    abs_union_max, coincidence_addition, coincidence_real,
                    inner_product, interiority_real, jaccard_addition,
                    jaccard_real, multiset_jaccard, s_minus, s_plus, s_pm,
                    set_jaccard, signed_min_intersection)
from mfcorr.indices import EPS_DENOM, profile_values
from mfcorr.kernels import AF, AGW, UM


def sig(*values, dx=1.0, x0=0.0):
    return Signal(np.asarray(values, dtype=float), x0=x0, dx=dx)


# ---------------------------------------------------------------------------
# Worked examples

def test_set_jaccard_values():
    assert set_jaccard(Multiset([1, 1, 0]), Multiset([1, 0, 0])) == 0.5
    assert set_jaccard(Multiset([1, 0, 1]), Multiset([1, 0, 1])) == 1.0
    assert set_jaccard(Multiset([1, 0]), Multiset([0, 1])) == 0.0
    assert set_jaccard(Multiset([0, 0]), Multiset([0, 0])) == 0.0


def test_set_jaccard_rejects_nonbinary():
    with pytest.raises(DomainError):
        set_jaccard(Multiset([1, 2]), Multiset([1, 0]))


def test_multiset_jaccard_values():
    assert multiset_jaccard(Multiset([1, 2, 0]), Multiset([2, 1, 0])) == 0.5
    assert multiset_jaccard(Multiset([3, 1, 4]), Multiset([3, 1, 4])) == 1.0
    assert multiset_jaccard(Multiset([2, 0]), Multiset([0, 2])) == 0.0
    assert multiset_jaccard(Multiset([0]), Multiset([0])) == 0.0


def test_multiset_jaccard_rejects_negative():
    with pytest.raises(DomainError):
        Multiset([1, -1])


def test_signed_min_intersection_values():
    assert signed_min_intersection(sig(1.0), sig(-1.0)) == -1.0
    assert signed_min_intersection(sig(2.0, 3.0), sig(2.0, 3.0)) == 5.0
    assert signed_min_intersection(sig(-2.0), sig(-3.0)) == 2.0
    # zero samples contribute nothing
    assert signed_min_intersection(sig(0.0, 1.0), sig(5.0, 0.0)) == 0.0


def test_abs_union_max_values():
    assert abs_union_max(sig(1.0), sig(-2.0)) == 2.0
    assert abs_union_max(sig(0.0, 0.0), sig(0.0, 0.0)) == 0.0
    assert abs_union_max(sig(3.0, 0.0), sig(0.0, 4.0)) == 7.0


def test_s_plus_minus_pm_values():
    f, g = sig(1.0), sig(1.0)
    assert s_plus(f, g) == 1.0
    assert s_minus(f, g) == 0.0
    assert s_pm(f, g, 0.5) == 0.5

    f, g = sig(1.0), sig(-1.0)
    assert s_plus(f, g) == 0.0
    assert s_minus(f, g) == 1.0
    assert s_pm(f, g, 0.5) == -0.5


def test_s_pm_alpha_bounds():
    with pytest.raises(DomainError):
        s_pm(sig(1.0), sig(1.0), alpha=1.5)
    with pytest.raises(DomainError):
        s_pm(sig(1.0), sig(1.0), alpha=-0.1)


def test_jaccard_real_values():
    assert jaccard_real(sig(1.0, 2.0), sig(1.0, 2.0)) == 1.0
    assert jaccard_real(sig(1.0), sig(-1.0)) == -1.0
    assert jaccard_real(sig(1.0, 0.0), sig(0.0, 1.0)) == 0.0
    assert jaccard_real(sig(0.0), sig(0.0)) == 0.0  # guarded denominator


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 40), (2, 301)])
def test_interiority_clip_equals_np_clip_bit_for_bit(shape):
    # the interiority clips without np.clip's wrapper; the ufunc pair must keep
    # np.clip's result on signed zeros, NaN, exact 0 and 1 and values above 1
    rng = np.random.default_rng(shape[1])
    planted = np.array([-0.0, 0.0, np.nan, 1.0, 1.5, 2.0, np.inf, 1e-300, 5e-324, -1.0])
    for _ in range(30):
        sums = {UM: rng.uniform(-0.5, 3.0, shape),
                AGW: rng.choice([0.0, 1.0, rng.uniform(0.5, 2.0)], shape)}
        abs_total = rng.choice([0.0, 1.0, 1.0, 2.5], shape[0])
        where = rng.uniform(size=shape) < 0.4
        sums[UM][where] = rng.choice(planted, int(where.sum()))
        sums[AGW][where] = 1.0   # so planted values reach the clip as they are at dx = 1
        dx = float(rng.choice([1.0, 0.37]))
        num, den = dx * sums[UM], dx * np.minimum(abs_total[:, None], sums[AGW])
        with np.errstate(all="ignore"):
            want = np.clip(np.where(den >= EPS_DENOM, num / den, 0.0), 0.0, 1.0)
        got = profile_values("interiority", {**sums, AF: abs_total}, dx)
        assert got.tobytes() == want.tobytes()


def test_interiority_values():
    assert interiority_real(sig(1.0, 1.0), sig(2.0, 2.0)) == 1.0
    assert interiority_real(sig(1.5, 2.5), sig(1.5, 2.5)) == 1.0
    assert interiority_real(sig(1.0, 0.0), sig(0.0, 1.0)) == 0.0
    assert interiority_real(sig(0.0), sig(0.0)) == 0.0


def test_coincidence_values():
    assert coincidence_real(sig(5.0, 1.0), sig(5.0, 1.0)) == 1.0
    assert coincidence_real(sig(1.0, 1.0), sig(2.0, 2.0)) == 0.5


def test_jaccard_addition_values():
    f = sig(1.0, 2.0)
    assert jaccard_addition(f, f) == 1.0
    assert jaccard_addition(sig(1.0, 1.0), sig(2.0, 2.0)) == pytest.approx(2.0 / 3.0)
    assert jaccard_addition(sig(1.0), sig(-1.0)) == 0.0  # zero-sum guard


def test_coincidence_addition_values():
    f = sig(1.0, 2.0)
    assert coincidence_addition(f, f) == 1.0
    assert coincidence_addition(sig(1.0, 1.0), sig(2.0, 2.0)) == pytest.approx(2.0 / 3.0)
    assert coincidence_addition(sig(2.0, 0.0), sig(0.0, 2.0)) == 0.0


def test_inner_product_values():
    assert inner_product(sig(1.0, 1.0), sig(1.0, 1.0)) == 2.0
    assert inner_product(sig(1.0, 2.0), sig(3.0, 4.0)) == 11.0
    assert inner_product(sig(1.0), sig(0.0)) == 0.0


def test_dx_scales_integrals():
    f = sig(1.0, 2.0, dx=0.5)
    g = sig(2.0, 1.0, dx=0.5)
    assert signed_min_intersection(f, g) == 0.5 * (1.0 + 1.0)
    assert abs_union_max(f, g) == 0.5 * (2.0 + 2.0)
    # ratios are dx-free
    assert jaccard_real(f, g) == 0.5


def test_alignment_errors():
    f = sig(1.0, 2.0)
    with pytest.raises(AlignmentError):
        signed_min_intersection(f, sig(1.0))
    with pytest.raises(AlignmentError):
        jaccard_real(f, sig(1.0, 2.0, dx=2.0))
    with pytest.raises(AlignmentError):
        abs_union_max(f, sig(1.0, 2.0, x0=3.0))
    with pytest.raises(AlignmentError):
        set_jaccard(Multiset([1, 0]), Multiset([1, 0, 1]))


def test_s_pm_normalized_matches_signed_min():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 40)
        f = Signal(rng.uniform(-3, 3, n), dx=0.25)
        g = Signal(rng.uniform(-3, 3, n), dx=0.25)
        assert s_pm(f, g, 0.5, normalized=True) == pytest.approx(
            signed_min_intersection(f, g), abs=1e-12)
        assert 2.0 * s_pm(f, g, 0.5) == pytest.approx(
            signed_min_intersection(f, g), abs=1e-12)


# ---------------------------------------------------------------------------
# Properties

finite_arrays = hnp.arrays(
    np.float64, st.integers(1, 64),
    elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))


@given(finite_arrays, finite_arrays)
@settings(max_examples=200, deadline=None)
def test_bounds_properties(a, b):
    n = min(a.size, b.size)
    f, g = Signal(a[:n], dx=0.1), Signal(b[:n], dx=0.1)
    j = jaccard_real(f, g)
    i = interiority_real(f, g)
    c = coincidence_real(f, g)
    assert -1.0 <= j <= 1.0
    assert 0.0 <= i <= 1.0
    assert abs(c) <= abs(j) + 1e-15


@given(finite_arrays)
@settings(max_examples=100, deadline=None)
def test_identity_property(a):
    f = Signal(np.abs(a) + 0.01, dx=0.1)  # nonzero non-negative
    assert jaccard_real(f, f) == 1.0
    assert interiority_real(f, f) == 1.0
    assert coincidence_real(f, f) == 1.0
    assert jaccard_addition(f, f) == 1.0
    assert coincidence_addition(f, f) == 1.0


@given(finite_arrays, finite_arrays)
@settings(max_examples=100, deadline=None)
def test_symmetry_property(a, b):
    n = min(a.size, b.size)
    f, g = Signal(a[:n], dx=0.1), Signal(b[:n], dx=0.1)
    assert jaccard_real(f, g) == jaccard_real(g, f)
    assert interiority_real(f, g) == interiority_real(g, f)
    assert coincidence_real(f, g) == coincidence_real(g, f)
    assert abs_union_max(f, g) == abs_union_max(g, f)
    assert signed_min_intersection(f, g) == signed_min_intersection(g, f)


@given(hnp.arrays(np.float64, st.integers(1, 32),
                  elements=st.sampled_from([0.0, 1.0])),
       hnp.arrays(np.float64, st.integers(1, 32),
                  elements=st.sampled_from([0.0, 1.0])))
@settings(max_examples=100, deadline=None)
def test_set_consistency(a, b):
    n = min(a.size, b.size)
    assert multiset_jaccard(Multiset(a[:n]), Multiset(b[:n])) == \
        set_jaccard(Multiset(a[:n]), Multiset(b[:n]))


@given(finite_arrays, finite_arrays, st.floats(0.1, 100.0))
@settings(max_examples=100, deadline=None)
def test_scale_joint_invariance(a, b, c):
    n = min(a.size, b.size)
    f, g = Signal(a[:n], dx=0.1), Signal(b[:n], dx=0.1)
    fc, gc = Signal(c * a[:n], dx=0.1), Signal(c * b[:n], dx=0.1)
    # a denominator below EPS_DENOM is zeroed by design (pinned by the worked
    # values), so scaling across that guard is no invariance violation
    for x, y in ((f, g), (fc, gc)):
        for den in (abs_union_max(x, y), x.dx * float(np.sum(np.abs(x.samples))),
                    y.dx * float(np.sum(np.abs(y.samples)))):
            assume(den == 0.0 or den >= EPS_DENOM)
    assert jaccard_real(fc, gc) == pytest.approx(jaccard_real(f, g), abs=1e-12)
    assert interiority_real(fc, gc) == pytest.approx(interiority_real(f, g), abs=1e-12)
    assert coincidence_real(fc, gc) == pytest.approx(coincidence_real(f, g), abs=1e-12)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        n = int(rng.integers(1, 65))
        dx = float(rng.uniform(0.05, 2.0))
        a = rng.uniform(-5, 5, n)
        b = rng.uniform(-5, 5, n)
        a[rng.uniform(size=n) < 0.2] = 0.0
        b[rng.uniform(size=n) < 0.2] = 0.0
        f, g = Signal(a, dx=dx), Signal(b, dx=dx)

        pairs = [
            (signed_min_intersection(f, g), orc.o_signed_min(a, b, dx)),
            (abs_union_max(f, g), orc.o_abs_union(a, b, dx)),
            (s_plus(f, g), orc.o_s_plus(a, b, dx)),
            (s_minus(f, g), orc.o_s_minus(a, b, dx)),
            (s_pm(f, g, 0.3), orc.o_s_pm(a, b, dx, 0.3)),
            (jaccard_real(f, g), orc.o_jaccard_real(a, b, dx)),
            (interiority_real(f, g), orc.o_interiority(a, b, dx)),
            (coincidence_real(f, g), orc.o_coincidence(a, b, dx)),
            (jaccard_addition(f, g), orc.o_jaccard_addition(a, b, dx)),
            (coincidence_addition(f, g), orc.o_coincidence_addition(a, b, dx)),
            (inner_product(f, g), orc.o_inner(a, b, dx)),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_multiset_oracle_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        a = rng.uniform(0, 4, n)
        b = rng.uniform(0, 4, n)
        assert multiset_jaccard(Multiset(a), Multiset(b)) == pytest.approx(
            orc.o_multiset_jaccard(a, b), rel=1e-12)
