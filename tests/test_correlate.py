"""Sliding correlation engine: worked cases, invariants, oracle equivalence, the memo
that method_profile keeps."""

import re
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles as orc
from mfcorr import (AlignmentError, DomainError, ObjectSpec, Signal, SweepConfig,
                    TemplateSpec, gen_object, gen_template, method_profile, run_sweep)
from mfcorr import correlate, kernels, sweep
from mfcorr.cli import main
from mfcorr.correlate import profiles
from mfcorr.indices import SUMS_READ

MULTISET_TAGS = ("jaccard_real", "interiority", "coincidence",
                 "jaccard_addition", "coincidence_addition")
ALL_TAGS = ("classic",) + MULTISET_TAGS
ALL_NAMES = ALL_TAGS + tuple("combined_" + t for t in MULTISET_TAGS)


def test_identity_alignment_peaks_at_one():
    rng = np.random.default_rng(3)
    f = Signal(rng.uniform(0.5, 2.0, 33), dx=0.5, x0=-4.0)
    for tag in MULTISET_TAGS:
        r = method_profile(tag, f, f)
        k = np.argmax(r.values)
        assert r.values[k] == pytest.approx(1.0, abs=1e-12), tag
        # zero lag = the template sitting on itself: midpoint of f's own support
        assert r.lags[k] == pytest.approx(f.x0 + (len(f) - 1) / 2 * f.dx), tag


def test_classic_impulse_profile():
    obj = Signal(np.zeros(32), dx=1.0)
    obj = obj.with_samples(np.eye(32)[10])
    tpl = Signal(np.array([1.0]), dx=1.0)
    r = method_profile("classic", obj, tpl)
    assert r.values[10] == 1.0
    assert np.count_nonzero(r.values) == 1
    assert r.lags[10] == 10.0


def test_classic_flat_on_constants():
    obj = Signal(np.full(20, 3.0), dx=1.0)
    tpl = Signal(np.full(5, 2.0), dx=1.0)
    r = method_profile("classic", obj, tpl, boundary="valid")
    assert np.allclose(r.values, r.values[0])
    assert len(r.lags) == 16


def test_classic_zero_template():
    obj = Signal(np.arange(1.0, 9.0), dx=1.0)
    tpl = Signal(np.zeros(3), dx=1.0)
    r = method_profile("classic", obj, tpl)
    assert np.all(r.values == 0.0)


def test_classic_linearity():
    rng = np.random.default_rng(5)
    f = rng.normal(size=40)
    h = rng.normal(size=40)
    g = Signal(rng.normal(size=7), dx=1.0)
    a, b = 2.5, -1.25
    ra = method_profile("classic", Signal(f, dx=1.0), g)
    rh = method_profile("classic", Signal(h, dx=1.0), g)
    rc = method_profile("classic", Signal(a * f + b * h, dx=1.0), g)
    np.testing.assert_allclose(rc.values, a * ra.values + b * rh.values,
                               atol=1e-12)


def test_shift_equivariance():
    rng = np.random.default_rng(8)
    base = np.zeros(64)
    base[20:29] = rng.uniform(0.5, 2.0, 9)
    tpl = Signal(np.sin(np.pi * np.arange(9) / 8.0), dx=1.0)
    shifted = np.roll(base, 6)
    for tag in ALL_TAGS:
        r0 = method_profile(tag, Signal(base, dx=1.0), tpl)
        r1 = method_profile(tag, Signal(shifted, dx=1.0), tpl)
        assert np.argmax(r1.values) - np.argmax(r0.values) == 6, tag


def test_profiles_bounded():
    rng = np.random.default_rng(13)
    obj = Signal(rng.uniform(-3, 3, 80), dx=0.2)
    tpl = Signal(rng.uniform(-3, 3, 11), dx=0.2)
    for tag in MULTISET_TAGS:
        r = method_profile(tag, obj, tpl)
        if tag == "interiority":
            assert np.all(r.values >= 0.0) and np.all(r.values <= 1.0)
        elif "addition" not in tag:
            assert np.all(np.abs(r.values) <= 1.0 + 1e-12), tag


def test_lag_geometry_pad_covers_object():
    obj = Signal(np.ones(50), dx=0.1, x0=2.0)
    tpl = Signal(np.ones(9), dx=0.1)
    r = method_profile("jaccard_real", obj, tpl)
    assert len(r.lags) == 50
    np.testing.assert_allclose(r.lags, obj.x, atol=1e-12)


def test_lag_geometry_valid():
    obj = Signal(np.ones(50), dx=0.1, x0=2.0)
    tpl = Signal(np.ones(9), dx=0.1)
    r = method_profile("jaccard_real", obj, tpl, boundary="valid")
    assert len(r.lags) == 42
    assert r.lags[0] == pytest.approx(2.0 + 0.4)


def test_template_longer_than_object():
    obj = Signal(np.ones(5), dx=1.0)
    tpl = Signal(np.ones(9), dx=1.0)
    r = method_profile("jaccard_real", obj, tpl)  # pad allows it
    assert len(r.lags) == 5
    with pytest.raises(DomainError):
        method_profile("jaccard_real", obj, tpl, boundary="valid")


def test_mismatched_dx_rejected():
    obj = Signal(np.ones(10), dx=1.0)
    tpl = Signal(np.ones(3), dx=0.5)
    with pytest.raises(AlignmentError):
        method_profile("coincidence", obj, tpl)


def test_unknown_tag_rejected():
    obj = Signal(np.ones(10), dx=1.0)
    with pytest.raises(DomainError, match="unknown method 'fancy_new_index'"):
        method_profile("fancy_new_index", obj, obj)


def test_aliases_give_the_canonical_profile():
    rng = np.random.default_rng(17)
    obj = Signal(rng.uniform(-2, 2, 40), dx=0.5)
    tpl = Signal(rng.uniform(-2, 2, 7), dx=0.5)
    for alias, name in (("jaccard", "jaccard_real"), ("correlation", "classic"),
                        ("Combined-Coincidence", "combined_coincidence")):
        got, want = method_profile(alias, obj, tpl), method_profile(name, obj, tpl)
        assert got.lags.tobytes() == want.lags.tobytes(), alias
        assert got.values.tobytes() == want.values.tobytes(), alias


def test_correlate_submodule_not_shadowed():
    import mfcorr.correlate as m
    assert isinstance(m, types.ModuleType) and callable(m.profiles)


def test_invalid_boundary_rejected():
    obj = Signal(np.ones(10), dx=1.0)
    tpl = Signal(np.ones(3), dx=1.0)
    with pytest.raises(DomainError):
        method_profile("classic", obj, tpl, boundary="wrap")


def test_normalized_profile():
    obj = Signal(np.ones(16), dx=1.0)
    tpl = Signal(np.ones(4), dx=1.0)
    r = method_profile("classic", obj, tpl)
    n = r.normalized()
    assert n.values.max() == pytest.approx(1.0)
    z = method_profile("classic", obj, Signal(np.zeros(4), dx=1.0))
    assert z.normalized() is z  # all-zero passes through


@pytest.mark.parametrize("boundary", ["pad", "valid"])
def test_oracle_equivalence_profiles(boundary):
    # all 11 names, the combined ones against the oracle's own two stages
    rng = np.random.default_rng(21)
    unfit = []
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
        for name in ALL_NAMES:
            try:
                lags, vals = orc.o_profile(fv, x0, dx, gv, name, boundary)
            except ValueError as exc:   # a valid-boundary stage 2 shorter than the template
                unfit.append(name)
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    method_profile(name, obj, tpl, boundary)
                continue
            r = method_profile(name, obj, tpl, boundary)
            scale = max(1.0, float(np.abs(vals).max()) if len(vals) else 1.0)
            np.testing.assert_allclose(r.lags, lags, atol=1e-12)
            np.testing.assert_allclose(r.values, vals, rtol=0,
                                       atol=1e-12 * scale,
                                       err_msg=f"{name}/{boundary}/{trial}")
    # two valid draws (n = 16 against m = 13 and 9) leave stage 2 too short
    assert len(unfit) == (10 if boundary == "valid" else 0)


def test_combined_noiseless_localization():
    spec = ObjectSpec()
    obj = gen_object(spec)
    tpl = gen_template(TemplateSpec(), obj.dx)
    for tag in ("coincidence", "jaccard_real"):
        r = method_profile("combined_" + tag, obj, tpl)
        k = np.argmax(r.values)
        assert abs(r.lags[k] - spec.x_p) <= 2 * obj.dx + 1e-12, tag
        np.testing.assert_allclose(r.lags, obj.x, atol=1e-9)


def test_combined_zero_object():
    obj = Signal(np.zeros(64), dx=0.1)
    tpl = Signal(np.sin(np.pi * np.arange(9) / 8.0), dx=0.1)
    r = method_profile("combined_coincidence", obj, tpl)
    assert np.all(r.values == 0.0)


def test_combined_rejects_classic_inner(capsys):
    obj = Signal(np.ones(16), dx=1.0)
    tpl = Signal(np.ones(4), dx=1.0)
    with pytest.raises(DomainError) as direct:
        method_profile("combined_classic", obj, tpl)
    with pytest.raises(DomainError) as sweep:
        SweepConfig(methods=("combined_correlation",))
    assert str(direct.value) == str(sweep.value) == (
        "combined methods need a multiset inner method, not classic")
    assert main(["bench", "--methods", "combined_classic"]) == 1
    assert capsys.readouterr().err == f"error: {direct.value}\n"


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
        direct = method_profile("coincidence", noisy, tpl)
        combined = method_profile("combined_coincidence", noisy, tpl)
        if _sign_changes(combined.values) < _sign_changes(direct.values):
            wins += 1
    assert wins >= 4


def _on_new_thread(call):
    """call() on a new thread, whose memo starts empty."""
    out = []
    worker = threading.Thread(target=lambda: out.append(call()))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


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
    together = {name: values for name, _, values in
                profiles(f, -1.0, 0.25, tpl, names, boundary)}
    assert sorted(together) == sorted(names)
    for name in names:
        [(_, _, alone)] = profiles(f, -1.0, 0.25, tpl, (name,), boundary)
        assert together[name].tobytes() == alone.tobytes(), name


def test_profiles_keeps_nothing_between_calls(kernel_calls, monkeypatch, tmp_path):
    # profiles is a pure function of its arguments: a second call on the same row
    # makes the same kernel calls as the first, and neither profiles, a sweep
    # (a one-row level 0, one-row stacks at one realization) nor mfcorr correlate
    # reaches the memo that method_profile keeps
    kept = []
    monkeypatch.setattr(correlate, "_window_sums", lambda *args, **kw: kept.append(args))
    monkeypatch.setattr(correlate._MEMO, "key", "untouched")
    monkeypatch.setattr(correlate._MEMO, "sums", "untouched")
    rng = np.random.default_rng(37)
    f = rng.uniform(-2.0, 2.0, 80)
    tpl = Signal(rng.uniform(-2.0, 2.0, 9), dx=0.25)
    runs = []
    for _ in range(2):
        kernel_calls.clear()
        values = [v for _, _, v in profiles(f, -1.0, 0.25, tpl, ALL_NAMES)]
        runs.append(([need for _, _, need in kernel_calls], values))
    assert len(runs[0][0]) == 2 and runs[0][0] == runs[1][0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[0][1], runs[1][1]))
    # one worker, so that the spies see level 5 too and not a forked child's copy
    monkeypatch.setattr(sweep, "_level_workers", lambda: 1)
    run_sweep(SweepConfig(levels=(0, 5), realizations=1, methods=ALL_NAMES))
    assert main(["correlate", "--methods", ",".join(ALL_NAMES), "--out-dir", str(tmp_path)]) == 0
    assert kept == []
    assert correlate._MEMO.key == correlate._MEMO.sums == "untouched"


# ---------------------------------------------------------------------------
# method_profile's memo: a later call on the same object adds only the sums it lacks

LONG_SIGNAL_NAMES = ("classic", "jaccard_real", "interiority", "coincidence",
                     "jaccard_addition", "coincidence_addition", "combined_coincidence")


def _fresh(name, obj, tpl, boundary="pad"):
    return _on_new_thread(lambda: method_profile(name, obj, tpl, boundary))


def _same(got, want):
    return got.lags.tobytes() == want.lags.tobytes() and \
        got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("boundary", ["pad", "valid"])
def test_memo_gives_memo_free_values_in_any_order(boundary):
    rng = np.random.default_rng(31 if boundary == "pad" else 32)
    for trial in range(4):
        f = rng.uniform(-2.0, 2.0, int(rng.integers(40, 90)))
        f[rng.uniform(size=f.size) < 0.2] = 0.0
        g = rng.uniform(-2.0, 2.0, int(rng.integers(2, 12)))
        obj, tpl = Signal(f, dx=0.3, x0=-1.0), Signal(g, dx=0.3)
        order = list(rng.permutation(ALL_NAMES))
        got = {name: method_profile(name, obj, tpl, boundary) for name in order}
        for name in order:
            assert _same(got[name], _fresh(name, obj, tpl, boundary)), (trial, name, order)


def test_memo_misses_on_samples_changed_in_place():
    rng = np.random.default_rng(33)
    f = rng.uniform(-2.0, 2.0, 60)
    obj, tpl = Signal(f, dx=0.5), Signal(rng.uniform(-2.0, 2.0, 7), dx=0.5)
    assert obj.samples is f   # the object reads the caller's buffer
    for name in ("coincidence", "combined_coincidence"):
        before = method_profile(name, obj, tpl)
        f[17] += 1.0
        after = method_profile(name, obj, tpl)
        assert not _same(after, before), name
        assert _same(after, _fresh(name, obj, tpl)), name
        assert _same(method_profile("jaccard_real", obj, tpl), _fresh("jaccard_real", obj, tpl))


def test_memo_is_per_thread(kernel_calls):
    # more threads than cores, switching often, each on its own object: each
    # gets its own results, and its memo is its own, so over 5 passes each sum
    # of the template loop (SM, UM, DOT) is added once (a shared memo would
    # miss often)
    rng = np.random.default_rng(34)
    tpl = Signal(rng.uniform(-2.0, 2.0, 9), dx=0.25)
    objects = [Signal(rng.uniform(-2.0, 2.0, 80), dx=0.25) for _ in range(4)]
    want = [{name: _fresh(name, obj, tpl) for name in ALL_NAMES} for obj in objects]
    kernel_calls.clear()   # a worker may reuse the ident of a thread that made these
    wrong, start = [], threading.Barrier(len(objects), timeout=30)

    def run(i):
        start.wait()
        for _ in range(5):
            for name in ALL_NAMES:
                if not _same(method_profile(name, objects[i], tpl), want[i][name]):
                    wrong.append((i, name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(objects))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert wrong == []
    for worker, obj in zip(workers, objects):
        added = [s for thread, f, need in kernel_calls
                 if thread == worker.ident and f == obj.samples.tobytes() for s in need]
        loop_sums = [s for s in added if s not in kernels.LOOPLESS]
        assert sorted(loop_sums) == [kernels.SM, kernels.UM, kernels.DOT]


@pytest.mark.parametrize("names, calls", [(LONG_SIGNAL_NAMES, 3), (ALL_NAMES, 7)])
def test_memo_kernel_calls_per_object(kernel_calls, names, calls):
    # one call per method would make 8 kernel calls for the long-signal names
    # and 16 for all 11 (each combined name also calls for its stage 1); stage
    # 2 is not kept, so each combined name still makes that call of its own.
    # A call adds the signed total beside each magnitude total it adds, so a
    # name that lacks only those (jaccard_addition after jaccard_real: SGW, SF)
    # makes none.
    rng = np.random.default_rng(35)
    obj = Signal(rng.uniform(-2.0, 2.0, 200), dx=0.1)
    tpl = Signal(rng.uniform(-2.0, 2.0, 15), dx=0.1)
    method_profile("classic", Signal(np.ones(5), dx=0.1), tpl)   # a different object last
    kernel_calls.clear()
    asked = set()
    signed = {kernels.AF: kernels.SF, kernels.AGW: kernels.SGW}
    for name in names:
        method_profile(name, obj, tpl)
        # the kept entry holds the sums asked for so far and their signed partners
        asked |= SUMS_READ["classic" if name.startswith("combined_") else name]
        partners = {signed[s] for s in asked if s in signed}
        assert correlate._MEMO.sums.keys() == asked | partners, name
    assert len(kernel_calls) == calls, kernel_calls
    # on the object no sum is added twice and each sum of the template loop is
    # added; every kernel call asks for SM, UM or DOT, so none is made for the
    # loop-less sums alone
    mine = [need for _, f, need in kernel_calls if f == obj.samples.tobytes()]
    added = sorted(s for need in mine for s in need)
    assert added == sorted(set(added))
    assert {kernels.SM, kernels.UM, kernels.DOT} <= set(added)
    assert all(need - kernels.LOOPLESS for _, _, need in kernel_calls)
    assert len(kernel_calls) - len(mine) == sum(n.startswith("combined_") for n in names)


def _huge_cases():
    """(object, template, names whose sums stay finite, a name that reads AF) for objects
    whose sum of |f| overflows: the 1e307 scene under a 1e-10 template, whose DOT sums
    are finite, and 640 samples alternating +-1e307, whose SM, SGW and SF sums are."""
    scene = gen_object(ObjectSpec(h_p=1e307, h_s=1e306))
    tpl = gen_template(TemplateSpec(amplitude=1e-10), scene.dx)
    alternating = Signal(np.resize([1e307, -1e307], 640), dx=scene.dx)
    return [(scene, tpl, ("classic",), "jaccard_real"),
            (alternating, gen_template(TemplateSpec(), scene.dx),
             ("classic", "jaccard_addition"), "interiority")]


@pytest.mark.parametrize("case", range(2), ids=["scene", "alternating"])
def test_memo_adds_no_total_that_the_names_do_not_read_or_bound(case):
    # a one-row call adds no magnitude total its names do not read, so a total that
    # overflows fails only a name that reads it (the profile of a 2-row stack, which
    # bypasses the memo, is the same row twice)
    obj, tpl, finite, reads_af = _huge_cases()[case]

    def run(names):
        with np.errstate(over="raise"):
            return [method_profile(name, obj, tpl) for name in names]

    for name, profile in zip(finite, run(finite)):
        assert np.isfinite(profile.values).all(), name
        [(_, _, stack)] = profiles(np.stack([obj.samples] * 2), obj.x0, obj.dx, tpl, (name,))
        assert stack.tobytes() == np.stack([profile.values] * 2).tobytes(), name
    with pytest.raises(FloatingPointError, match="overflow"):
        run(finite + (reads_af,))


def test_correlate_command_shares_one_pass_between_names(kernel_calls, tmp_path):
    # the golden run's 11 names: one call for the object, one for the combined
    # names' stage 2 (a method_profile call per name would make 8)
    argv = ["correlate", "--normalize", "--noise-level", "12", "--seed", "4",
            "--methods", ",".join(ALL_NAMES), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert len(kernel_calls) == 2, kernel_calls
    assert len(list(tmp_path.glob("correlate_*.csv"))) == len(ALL_NAMES)


def test_profiles_on_one_axis_share_read_only_lags():
    # an object's profiles share one lag array per stage instead of one copy each
    rng = np.random.default_rng(36)
    obj = Signal(rng.uniform(-2.0, 2.0, 90), dx=0.2, x0=-3.0)
    tpl = Signal(rng.uniform(-2.0, 2.0, 11), dx=0.2)
    for boundary in ("pad", "valid"):
        plain = [method_profile(name, obj, tpl, boundary) for name in ("classic", "coincidence")]
        combined = [method_profile(name, obj, tpl, boundary)
                    for name in ("combined_coincidence", "combined_jaccard_real")]
        for first, second in (plain, combined):
            assert first.lags is second.lags
        assert not plain[0].lags.flags.writeable and not combined[0].lags.flags.writeable
        with pytest.raises(ValueError):
            plain[0].lags[0] = 0.0
