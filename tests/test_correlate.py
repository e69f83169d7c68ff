"""Sliding correlation engine: worked cases, invariants, oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as orc
from mfcorr import (AlignmentError, DomainError, Method, ObjectSpec, Signal,
                    TemplateSpec, correlate, correlate_classic,
                    correlate_combined, gen_object, gen_template)
from mfcorr.correlate import profiles

MULTISET_TAGS = ("jaccard_real", "interiority", "coincidence",
                 "jaccard_addition", "coincidence_addition")
ALL_TAGS = ("classic",) + MULTISET_TAGS
ALL_NAMES = ALL_TAGS + tuple("combined_" + t for t in MULTISET_TAGS)


def test_identity_alignment_peaks_at_one():
    rng = np.random.default_rng(3)
    f = Signal(rng.uniform(0.5, 2.0, 33), dx=0.5, x0=-4.0)
    for tag in MULTISET_TAGS:
        r = correlate(f, f, Method(tag))
        k = np.argmax(r.values)
        assert r.values[k] == pytest.approx(1.0, abs=1e-12), tag
        # zero lag = the template sitting on itself: midpoint of f's own support
        assert r.lags[k] == pytest.approx(f.x0 + (len(f) - 1) / 2 * f.dx), tag


def test_classic_impulse_profile():
    obj = Signal(np.zeros(32), dx=1.0)
    obj = obj.with_samples(np.eye(32)[10])
    tpl = Signal(np.array([1.0]), dx=1.0)
    r = correlate_classic(obj, tpl)
    assert r.values[10] == 1.0
    assert np.count_nonzero(r.values) == 1
    assert r.lags[10] == 10.0


def test_classic_flat_on_constants():
    obj = Signal(np.full(20, 3.0), dx=1.0)
    tpl = Signal(np.full(5, 2.0), dx=1.0)
    r = correlate_classic(obj, tpl, boundary="valid")
    assert np.allclose(r.values, r.values[0])
    assert len(r.lags) == 16


def test_classic_zero_template():
    obj = Signal(np.arange(1.0, 9.0), dx=1.0)
    tpl = Signal(np.zeros(3), dx=1.0)
    r = correlate_classic(obj, tpl)
    assert np.all(r.values == 0.0)


def test_classic_linearity():
    rng = np.random.default_rng(5)
    f = rng.normal(size=40)
    h = rng.normal(size=40)
    g = Signal(rng.normal(size=7), dx=1.0)
    a, b = 2.5, -1.25
    ra = correlate_classic(Signal(f, dx=1.0), g)
    rh = correlate_classic(Signal(h, dx=1.0), g)
    rc = correlate_classic(Signal(a * f + b * h, dx=1.0), g)
    np.testing.assert_allclose(rc.values, a * ra.values + b * rh.values,
                               atol=1e-12)


def test_shift_equivariance():
    rng = np.random.default_rng(8)
    base = np.zeros(64)
    base[20:29] = rng.uniform(0.5, 2.0, 9)
    tpl = Signal(np.sin(np.pi * np.arange(9) / 8.0), dx=1.0)
    shifted = np.roll(base, 6)
    for tag in ALL_TAGS:
        r0 = correlate(Signal(base, dx=1.0), tpl, Method(tag))
        r1 = correlate(Signal(shifted, dx=1.0), tpl, Method(tag))
        assert np.argmax(r1.values) - np.argmax(r0.values) == 6, tag


def test_profiles_bounded():
    rng = np.random.default_rng(13)
    obj = Signal(rng.uniform(-3, 3, 80), dx=0.2)
    tpl = Signal(rng.uniform(-3, 3, 11), dx=0.2)
    for tag in MULTISET_TAGS:
        r = correlate(obj, tpl, Method(tag))
        if tag == "interiority":
            assert np.all(r.values >= 0.0) and np.all(r.values <= 1.0)
        elif "addition" not in tag:
            assert np.all(np.abs(r.values) <= 1.0 + 1e-12), tag


def test_lag_geometry_pad_covers_object():
    obj = Signal(np.ones(50), dx=0.1, x0=2.0)
    tpl = Signal(np.ones(9), dx=0.1)
    r = correlate(obj, tpl, Method("jaccard_real"))
    assert len(r.lags) == 50
    np.testing.assert_allclose(r.lags, obj.x, atol=1e-12)


def test_lag_geometry_valid():
    obj = Signal(np.ones(50), dx=0.1, x0=2.0)
    tpl = Signal(np.ones(9), dx=0.1)
    r = correlate(obj, tpl, Method("jaccard_real"), boundary="valid")
    assert len(r.lags) == 42
    assert r.lags[0] == pytest.approx(2.0 + 0.4)


def test_template_longer_than_object():
    obj = Signal(np.ones(5), dx=1.0)
    tpl = Signal(np.ones(9), dx=1.0)
    r = correlate(obj, tpl, Method("jaccard_real"))  # pad allows it
    assert len(r.lags) == 5
    with pytest.raises(DomainError):
        correlate(obj, tpl, Method("jaccard_real"), boundary="valid")


def test_mismatched_dx_rejected():
    obj = Signal(np.ones(10), dx=1.0)
    tpl = Signal(np.ones(3), dx=0.5)
    with pytest.raises(AlignmentError):
        correlate(obj, tpl, Method("coincidence"))


def test_unknown_tag_rejected():
    with pytest.raises(DomainError):
        Method("fancy_new_index")


def test_invalid_boundary_rejected():
    obj = Signal(np.ones(10), dx=1.0)
    tpl = Signal(np.ones(3), dx=1.0)
    with pytest.raises(DomainError):
        correlate(obj, tpl, Method("classic"), boundary="wrap")


def test_normalized_profile():
    obj = Signal(np.ones(16), dx=1.0)
    tpl = Signal(np.ones(4), dx=1.0)
    r = correlate_classic(obj, tpl)
    n = r.normalized()
    assert n.values.max() == pytest.approx(1.0)
    z = correlate_classic(obj, Signal(np.zeros(4), dx=1.0))
    assert z.normalized() is z  # all-zero passes through


@pytest.mark.parametrize("boundary", ["pad", "valid"])
def test_oracle_equivalence_profiles(boundary):
    rng = np.random.default_rng(21)
    for trial in range(6):
        n = int(rng.integers(16, 129))
        m = int(rng.integers(2, 25))
        dx = float(rng.uniform(0.05, 1.5))
        x0 = float(rng.uniform(-3, 3))
        fv = rng.uniform(-4, 4, n)
        gv = rng.uniform(-4, 4, m)
        fv[rng.uniform(size=n) < 0.2] = 0.0
        obj = Signal(fv, dx=dx, x0=x0)
        tpl = Signal(gv, dx=dx)
        for tag in ALL_TAGS:
            r = (correlate_classic(obj, tpl, boundary) if tag == "classic"
                 else correlate(obj, tpl, Method(tag), boundary))
            lags, vals = orc.o_profile(fv, x0, dx, gv, tag, boundary)
            scale = max(1.0, float(np.abs(vals).max()) if len(vals) else 1.0)
            np.testing.assert_allclose(r.lags, lags, atol=1e-12)
            np.testing.assert_allclose(r.values, vals, rtol=0,
                                       atol=1e-12 * scale,
                                       err_msg=f"{tag}/{boundary}/{trial}")


def test_combined_noiseless_localization():
    spec = ObjectSpec()
    obj = gen_object(spec)
    tpl = gen_template(TemplateSpec(), obj.dx)
    for tag in ("coincidence", "jaccard_real"):
        r = correlate_combined(obj, tpl, Method(tag))
        k = np.argmax(r.values)
        assert abs(r.lags[k] - spec.x_p) <= 2 * obj.dx + 1e-12, tag
        np.testing.assert_allclose(r.lags, obj.x, atol=1e-9)


def test_combined_zero_object():
    obj = Signal(np.zeros(64), dx=0.1)
    tpl = Signal(np.sin(np.pi * np.arange(9) / 8.0), dx=0.1)
    r = correlate_combined(obj, tpl, Method("coincidence"))
    assert np.all(r.values == 0.0)


def test_combined_rejects_classic_inner():
    obj = Signal(np.ones(16), dx=1.0)
    tpl = Signal(np.ones(4), dx=1.0)
    with pytest.raises(DomainError):
        correlate_combined(obj, tpl, Method("classic"))


def _sign_changes(values: np.ndarray) -> int:
    s = np.sign(values)
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def test_combined_smoother_under_heavy_noise():
    # at the strongest noise regime the classic pre-pass low-pass filters the
    # object, so the combined profile oscillates less than the direct one
    from mfcorr import NoiseSpec, add_noise
    spec = ObjectSpec()
    tpl = gen_template(TemplateSpec(), spec.dx)
    wins = 0
    for realization in range(5):
        noisy = add_noise(gen_object(spec),
                          NoiseSpec(20, seed=123, realization=realization,
                                    multiplier=2.0))
        direct = correlate(noisy, tpl, Method("coincidence"))
        combined = correlate_combined(noisy, tpl, Method("coincidence"))
        if _sign_changes(combined.values) < _sign_changes(direct.values):
            wins += 1
    assert wins >= 4


@st.composite
def stacks_and_names(draw):
    """Stacked objects, a template that fits them, a subset of the method names, a boundary."""
    rows, n = draw(st.integers(1, 3)), draw(st.integers(2, 24))
    values = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_nan=False))
    f = draw(hnp.arrays(np.float64, (rows, n), elements=values))
    boundary = draw(st.sampled_from(("pad", "valid")))
    # a valid combined stage 2 slides the template over the n - m + 1 stage-1 lags
    m = draw(st.integers(1, n if boundary == "pad" else (n + 1) // 2))
    g = draw(hnp.arrays(np.float64, m, elements=values))
    names = draw(st.lists(st.sampled_from(ALL_NAMES), min_size=1, unique=True))
    return f, Signal(g, dx=0.25), names, boundary


@given(stacks_and_names())
@settings(max_examples=200, deadline=None)
def test_values_do_not_depend_on_other_names(case):
    # each call adds only the sums its names read: a name's values must not
    # depend on which other names share the call
    f, tpl, names, boundary = case
    together = {name: values for name, _, _, values in
                profiles(f, -1.0, 0.25, tpl, names, boundary)}
    assert sorted(together) == sorted(names)
    for name in names:
        [(_, _, _, alone)] = profiles(f, -1.0, 0.25, tpl, (name,), boundary)
        assert together[name].tobytes() == alone.tobytes(), name
