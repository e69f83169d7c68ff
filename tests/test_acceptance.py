"""Acceptance suite: nine numbered criteria, one test each.

Criteria 5, 6 and 8 have a second test, `..._paper_scale`, that runs them on
the paper's 300 realizations instead of the desk-scale 50.  `pytest
tests/test_acceptance.py -v` prints one PASSED/FAILED line per test; each
test also prints its measured numbers (visible with -s, and in the failure
report otherwise).
"""

import time
import warnings

import numpy as np
import pytest

from mfcorr import (
    ObjectSpec,
    Signal,
    SweepConfig,
    TemplateSpec,
    coincidence_addition,
    coincidence_real,
    compute_indices,
    detect_peaks,
    gen_object,
    gen_template,
    group_centroids,
    group_dispersion,
    interiority_real,
    jaccard_addition,
    jaccard_real,
    level_matrix,
    method_profile,
    pca_fit,
    project,
    run_sweep,
)
from mfcorr.cli import main
from mfcorr.indices import (abs_union_max, inner_product, s_minus, s_plus,
                            s_pm, signed_min_intersection)
from mfcorr.peaks import width_at_fraction

import oracles as orc

SPEC = ObjectSpec()
TEMPLATE = TemplateSpec()


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _report(num, detail):
    print(f"criterion {num}: PASS  [{detail}]")


# ---------------------------------------------------------------------------
# Shared desk-scale sweeps (module scope so each runs once)


def _timed_sweep(realizations, levels=tuple(range(21)), noise_multiplier=1.0):
    t0 = time.perf_counter()
    cfg = SweepConfig(methods=("classic", "jaccard_real", "coincidence"),
                      object_spec=SPEC, template_spec=TEMPLATE, levels=levels,
                      realizations=realizations, base_seed=0,
                      noise_multiplier=noise_multiplier)
    return run_sweep(cfg), time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_sweep():
    return _timed_sweep(50)


@pytest.fixture(scope="module")
def paper_sweep():
    return _timed_sweep(300)


# Noise amplitude regime chosen so the per-level feature clouds match the
# reported projection properties; see the repository decision log.
@pytest.fixture(scope="module")
def pca_sweep():
    return _timed_sweep(50, levels=(1, 10, 20), noise_multiplier=1.25)


@pytest.fixture(scope="module")
def paper_pca_sweep():
    return _timed_sweep(300, levels=(1, 10, 20), noise_multiplier=1.25)


# ---------------------------------------------------------------------------


def test_criterion_1_index_bounds_and_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_pairs = 10_000
    for _ in range(n_pairs):
        n = int(rng.integers(1, 129))
        f = Signal(rng.uniform(-5.0, 5.0, n), 0.0, 0.01)
        g = Signal(rng.uniform(-5.0, 5.0, n), 0.0, 0.01)
        j = jaccard_real(f, g)
        i_ = interiority_real(f, g)
        c = coincidence_real(f, g)
        assert -1.0 <= j <= 1.0, f"jaccard_real out of bounds: {j}"
        assert 0.0 <= i_ <= 1.0, f"interiority out of bounds: {i_}"
        assert abs(c) <= abs(j) + 1e-15, f"|coincidence| {c} > |jaccard| {j}"

        fp = Signal(rng.uniform(0.1, 5.0, n), 0.0, 0.01)
        for fn in (jaccard_real, interiority_real, coincidence_real,
                   jaccard_addition, coincidence_addition):
            val = fn(fp, fp)
            assert abs(val - 1.0) <= 1e-12, f"{fn.__name__}(f,f) = {val} != 1"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s (limit 5s)"
    _report(1, f"{n_pairs} pairs, bounds and identity exact, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n_cases = 100
    for case in range(n_cases):
        n = int(rng.integers(8, 129))
        dx = float(rng.uniform(0.005, 0.05))
        f_arr = rng.uniform(-5.0, 5.0, n)
        g_arr = rng.uniform(-5.0, 5.0, n)
        if case % 5 == 0:  # exercise the zero-sample branches
            f_arr[rng.random(n) < 0.2] = 0.0
            g_arr[rng.random(n) < 0.2] = 0.0
        f, g = Signal(f_arr, 0.0, dx), Signal(g_arr, 0.0, dx)
        alpha = float(rng.uniform(0.0, 1.0))

        checks = [
            (signed_min_intersection(f, g), orc.o_signed_min(f_arr, g_arr, dx)),
            (abs_union_max(f, g), orc.o_abs_union(f_arr, g_arr, dx)),
            (s_plus(f, g), orc.o_s_plus(f_arr, g_arr, dx)),
            (s_minus(f, g), orc.o_s_minus(f_arr, g_arr, dx)),
            (s_pm(f, g, alpha), orc.o_s_pm(f_arr, g_arr, dx, alpha)),
            (inner_product(f, g), orc.o_inner(f_arr, g_arr, dx)),
            (jaccard_real(f, g), orc.o_jaccard_real(f_arr, g_arr, dx)),
            (interiority_real(f, g), orc.o_interiority(f_arr, g_arr, dx)),
            (coincidence_real(f, g), orc.o_coincidence(f_arr, g_arr, dx)),
            (jaccard_addition(f, g), orc.o_jaccard_addition(f_arr, g_arr, dx)),
            (coincidence_addition(f, g),
             orc.o_coincidence_addition(f_arr, g_arr, dx)),
        ]
        for got, want in checks:
            assert _close(got, want), f"functional mismatch: {got} vs {want}"

        m = int(rng.integers(1, min(n, 32) + 1))
        tpl_arr = rng.uniform(-5.0, 5.0, m)
        tpl = Signal(tpl_arr, 0.0, dx)
        obj = Signal(f_arr, float(rng.uniform(-2.0, 2.0)), dx)
        boundary = "pad" if case % 2 == 0 else "valid"
        for tag in ("classic", "jaccard_real", "interiority", "coincidence",
                    "jaccard_addition", "coincidence_addition"):
            prof = method_profile(tag, obj, tpl, boundary=boundary)
            o_lags, o_vals = orc.o_profile(f_arr, obj.x0, dx, tpl_arr, tag,
                                           boundary)
            assert np.allclose(prof.lags, o_lags, rtol=0, atol=1e-12)
            scale = max(1.0, float(np.max(np.abs(o_vals))) if o_vals else 1.0)
            assert np.allclose(prof.values, o_vals, rtol=0,
                               atol=1e-12 * scale), f"profile mismatch: {tag}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s (limit 10s)"
    _report(2, f"{n_cases} cases, functionals and 6 profiles vs naive oracles, "
               f"{elapsed:.2f}s")


def test_criterion_3_noiseless_ordering():
    t0 = time.perf_counter()
    obj = gen_object(SPEC)
    tpl = gen_template(TEMPLATE, SPEC.dx)
    w1, r_h, r_xp = {}, {}, {}
    for name in ("classic", "jaccard_real", "coincidence"):
        prof = method_profile(name, obj, tpl).normalized()
        pm = detect_peaks(prof, SPEC)
        idx = compute_indices(pm, SPEC, prof)
        w1[name] = pm.w1
        r_h[name] = idx.r_h
        r_xp[name] = idx.r_xp
    assert w1["coincidence"] < w1["jaccard_real"] < w1["classic"], f"w1: {w1}"
    assert r_h["coincidence"] > r_h["jaccard_real"] > r_h["classic"], f"r_h: {r_h}"
    bound = 2.0 * SPEC.dx / SPEC.x_p
    for name, v in r_xp.items():
        assert abs(v) <= bound, f"|r_xp({name})| = {abs(v)} > {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s (limit 5s)"
    _report(3, "w1 " + " < ".join(f"{w1[k]:.4f}" for k in
                                  ("coincidence", "jaccard_real", "classic"))
               + "; r_h " + " > ".join(f"{r_h[k]:.3f}" for k in
                                       ("coincidence", "jaccard_real", "classic"))
               + f"; max |r_xp| = {max(abs(v) for v in r_xp.values()):.4f}")


def test_criterion_4_gaussian_width():
    t0 = time.perf_counter()
    dx, sigma = 0.01, 0.3
    lags = dx * np.arange(640)
    values = np.exp(-((lags - 3.2) ** 2) / (2 * sigma * sigma))
    got = width_at_fraction(lags, values, int(np.argmax(values)))
    want = 2.0 * sigma * np.sqrt(2.0 * np.log(4.0 / 3.0))
    assert abs(got - want) <= 0.02, f"width {got:.4f} vs analytic {want:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s (limit 1s)"
    _report(4, f"measured {got:.4f} vs analytic {want:.4f}")


def _criterion_5(sweep, scale=""):
    result, sweep_time = sweep
    t0 = time.perf_counter()
    gaps = {}
    for v in range(21):
        coin = result.aggregate("coincidence", v, "r_h")
        jac = result.aggregate("jaccard_real", v, "r_h")
        assert coin.n > 0 and jac.n > 0, f"missing r_h data at level {v}"
        assert coin.mean > jac.mean, (
            f"level {v}: mean r_h coincidence {coin.mean:.3f} "
            f"<= jaccard {jac.mean:.3f}")
        gaps[v] = coin.mean - jac.mean
    assert gaps[20] < gaps[0], f"gap did not shrink: v0 {gaps[0]:.3f}, v20 {gaps[20]:.3f}"
    elapsed = sweep_time + time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s (limit 300s)"
    _report(5, f"coincidence above jaccard at all 21 levels; gap {gaps[0]:.2f} "
               f"(v=0) -> {gaps[20]:.2f} (v=20); {elapsed:.1f}s incl. sweep{scale}")


def _criterion_6(sweep, scale=""):
    result, _ = sweep
    means = [result.aggregate("classic", v, "r_wp").mean for v in range(21)]
    spread = max(means) - min(means)
    overall = float(np.mean(means))
    assert spread < 0.20 * overall, (
        f"classic r_wp range {spread:.4f} >= 20% of mean {overall:.4f}")
    _report(6, f"classic r_wp range {spread:.4f} = "
               f"{100 * spread / overall:.1f}% of mean {overall:.4f}{scale}")


def test_criterion_5_coincidence_jaccard_gap(desk_sweep):
    _criterion_5(desk_sweep)


def test_criterion_5_coincidence_jaccard_gap_paper_scale(paper_sweep):
    _criterion_5(paper_sweep, "; 300 realizations")


def test_criterion_6_classic_rwp_flatness(desk_sweep):
    _criterion_6(desk_sweep)


def test_criterion_6_classic_rwp_flatness_paper_scale(paper_sweep):
    _criterion_6(paper_sweep, "; 300 realizations")


def test_criterion_7_combined_crossover():
    t0 = time.perf_counter()
    cfg = SweepConfig(methods=("coincidence", "combined_coincidence"),
                      object_spec=SPEC, template_spec=TEMPLATE,
                      levels=(0, 20), realizations=50, base_seed=0,
                      noise_multiplier=2.0)
    result = run_sweep(cfg)
    direct0 = result.aggregate("coincidence", 0, "r_h").mean
    combo0 = result.aggregate("combined_coincidence", 0, "r_h").mean
    direct20 = result.aggregate("coincidence", 20, "r_h").mean
    combo20 = result.aggregate("combined_coincidence", 20, "r_h").mean
    assert combo0 < direct0, (
        f"v=0: combined r_h {combo0:.3f} not below direct {direct0:.3f}")
    assert combo20 > direct20, (
        f"v=20: combined r_h {combo20:.3f} not above direct {direct20:.3f}")
    elapsed = time.perf_counter() - t0
    _report(7, f"v=0 combined {combo0:.2f} < direct {direct0:.2f}; "
               f"v=20 combined {combo20:.2f} > direct {direct20:.2f}; "
               f"{elapsed:.1f}s")


def _criterion_8(sweep, scale=""):
    result, sweep_time = sweep
    t0 = time.perf_counter()
    details = []
    disp_by_level = {}
    for v in (1, 10, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            matrix = level_matrix(result.records, v)
            model = pca_fit(matrix)
            scores = project(matrix, model)
            disp = group_dispersion(matrix.labels, scores)
            cents = group_centroids(matrix.labels, scores)
        top2 = sum(model.variance_explained)
        assert 0.55 <= top2 <= 0.85, f"level {v}: top-2 variance {top2:.3f}"
        d_cj = float(np.linalg.norm(cents["classic"] - cents["jaccard_real"]))
        d_cc = float(np.linalg.norm(cents["classic"] - cents["coincidence"]))
        sep = min(d_cj, d_cc)
        assert sep > max(disp.values()), (
            f"level {v}: classic centroid distance {sep:.3f} <= "
            f"max dispersion {max(disp.values()):.3f}")
        disp_by_level[v] = disp
        details.append(f"v{v} top2={top2:.2f} sep={sep:.2f}")
    d20 = disp_by_level[20]
    assert d20["coincidence"] > d20["classic"], (
        f"v=20: dispersion coincidence {d20['coincidence']:.3f} <= "
        f"classic {d20['classic']:.3f}")
    elapsed = sweep_time + time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s (limit 300s)"
    _report(8, "; ".join(details)
               + f"; v20 disp coin {d20['coincidence']:.2f} > "
                 f"classic {d20['classic']:.2f}; {elapsed:.1f}s incl. sweep{scale}")


def test_criterion_8_pca_reproduction(pca_sweep):
    _criterion_8(pca_sweep)


def test_criterion_8_pca_reproduction_paper_scale(paper_pca_sweep):
    _criterion_8(paper_pca_sweep, "; 300 realizations")


def test_criterion_9_bench_determinism(tmp_path_factory, capsys):
    dirs = [tmp_path_factory.mktemp(f"bench_{k}") for k in "abc"]
    argv = ["bench", "--seed", "7", "--desk-scale"]
    assert main(argv + ["--out-dir", str(dirs[0])]) == 0
    assert main(argv + ["--out-dir", str(dirs[1])]) == 0
    assert main(argv + ["--out-dir", str(dirs[2])]) == 0
    capsys.readouterr()
    ref_records = (dirs[0] / "records.csv").read_bytes()
    ref_aggregates = (dirs[0] / "aggregates.csv").read_bytes()
    for d in dirs[1:]:
        assert (d / "records.csv").read_bytes() == ref_records
        assert (d / "aggregates.csv").read_bytes() == ref_aggregates
    _report(9, f"3 runs byte-identical ({len(ref_records)} record bytes)")
