"""Noise-sweep orchestration: determinism, aggregation, CSV round trips."""

import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from mfcorr import (BOUNDARIES, INDEX_NAMES, DomainError, NoiseSpec, ObjectSpec,
                    SweepConfig, TemplateSpec, add_noise, canonical_method, compute_indices, detect_peaks,
                    gen_object, gen_template, method_profile, run_sweep,
                    write_aggregates_csv, write_records_csv)
import oracles as orc
from mfcorr import cli, sweep
from mfcorr.correlate import METHOD_TAGS, max_normalized, profiles
from mfcorr.generators import noisy_rows
from mfcorr.sweep import AGGREGATE_COLUMNS, RECORD_COLUMNS, aggregate_records

from tables import assert_records_equal, figures, records_of, sweep_result

SMALL = SweepConfig(methods=("classic", "coincidence"), levels=(0, 4),
                    realizations=3, base_seed=11)


def test_canonical_method_aliases():
    assert canonical_method("jaccard") == "jaccard_real"
    assert canonical_method("correlation") == "classic"
    assert canonical_method("cross_correlation") == "classic"
    assert canonical_method("coincidence") == "coincidence"
    assert canonical_method("combined_jaccard") == "combined_jaccard_real"
    with pytest.raises(DomainError):
        canonical_method("combined_classic")
    with pytest.raises(DomainError):
        canonical_method("nope")


def test_degenerate_sweep_aggregates_equal_record():
    cfg = SweepConfig(methods=("coincidence",), levels=(0,), realizations=1,
                      base_seed=0)
    res = run_sweep(cfg)
    assert len(res.records) == 1
    for name in ("r_xp", "r_h", "r_wp"):
        agg = res.aggregate("coincidence", 0, name)
        assert agg.mean == res.records.figures[0, INDEX_NAMES.index(name)]
        assert agg.std == 0.0
        assert agg.n == 1


def test_sweep_determinism():
    a = run_sweep(SMALL)
    b = run_sweep(SMALL)
    assert len(a.records) == len(b.records)
    assert_records_equal(a.records, b.records)


def _per_cell_records(cfg):
    """The records of cfg, each cell scored on its own through the one-object path."""
    clean = gen_object(cfg.object_spec)
    template = gen_template(cfg.template_spec, clean.dx)
    want = []
    for level in cfg.levels:
        for realization in range(cfg.realizations):
            noisy = add_noise(clean, NoiseSpec(level, cfg.base_seed, realization,
                                               cfg.noise_multiplier))
            for name in cfg.methods:
                profile = method_profile(name, noisy, template, cfg.boundary).normalized()
                try:
                    row = compute_indices(detect_peaks(profile, cfg.object_spec),
                                          cfg.object_spec, profile)
                except DomainError:
                    row = figures()
                want.append((name, level, realization, row))
    return records_of(want)


def _assert_equal_per_cell_path(cfg):
    got, want = run_sweep(cfg).records, _per_cell_records(cfg)
    assert_records_equal(got, want)
    # bit for bit: the same nan pattern, and the same bytes where a figure is present
    present = ~np.isnan(want.figures)
    assert got.figures[present].tobytes() == want.figures[present].tobytes()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_sweep_records_equal_per_cell_path(boundary):
    # the sweep profiles a whole level at once; each record must still be the
    # one a single cell gives on its own
    methods = METHOD_TAGS + ("combined_coincidence", "combined_jaccard_addition")
    _assert_equal_per_cell_path(SweepConfig(methods=methods, levels=(0, 10, 20),
                                            realizations=3, base_seed=5, boundary=boundary))


# a coarse grid (dx = 0.1) keeps the brute-force profiles fast; in the second scene
# the secondary lies inside the primary's exclusion zone
ORACLE_SCENES = {"apart": ObjectSpec(grid=(0.0, 6.4, 64)),
                 "inside-exclusion": ObjectSpec(x_s=3.9, grid=(0.0, 6.4, 64))}


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("scene", ORACLE_SCENES)
def test_sweep_figures_match_the_oracle_chain(scene, boundary):
    # every record against the brute-force chain: o_profile must agree with the
    # sweep's profile, and o_detect_peaks and o_figures on the sweep's own
    # normalized profile must give the record (peaks are found on the sweep's
    # profile, as near-ties could flip an argmax between two profiles that agree
    # only within a tolerance)
    spec = ORACLE_SCENES[scene]
    methods = METHOD_TAGS + tuple("combined_" + tag for tag in METHOD_TAGS[1:])
    cfg = SweepConfig(methods=methods, object_spec=spec, levels=(0, 10, 20), realizations=2,
                      base_seed=3, boundary=boundary)
    got = run_sweep(cfg).records.figures.reshape(len(cfg.levels), cfg.realizations,
                                                 len(methods), len(INDEX_NAMES))
    clean = gen_object(spec)
    template = gen_template(cfg.template_spec, clean.dx)
    exclusion = 3.0 * max(spec.sigma_p, spec.sigma_s)
    for v, level in enumerate(cfg.levels):
        noisy = noisy_rows(clean.samples, NoiseSpec(level, cfg.base_seed), cfg.realizations)
        for name, lags, values in profiles(noisy, clean.x0, clean.dx, template, methods,
                                           boundary):
            for r, row in enumerate(values):
                cell = f"{name} level {level} realization {r}"
                want_lags, want = orc.o_profile(noisy[r].tolist(), clean.x0, clean.dx,
                                                template.samples.tolist(), name, boundary)
                np.testing.assert_allclose(lags, want_lags, atol=1e-12)
                np.testing.assert_allclose(row, want, rtol=0,
                                           atol=1e-12 * max(1.0, max(map(abs, want))),
                                           err_msg=cell)
                normalized = max_normalized(row).tolist()
                peaks = orc.o_detect_peaks(lags.tolist(), normalized, exclusion)
                np.testing.assert_allclose(
                    got[v, r, methods.index(name)],
                    orc.o_figures(lags.tolist(), normalized, spec, peaks),
                    rtol=0, atol=1e-12, err_msg=cell)
    # every record far apart has a secondary; inside the exclusion zone some lack one
    secondary_found = ~np.isnan(got[..., INDEX_NAMES.index("r_h")])
    assert secondary_found.any() and secondary_found.all() == (scene == "apart")


@pytest.mark.parametrize("multiplier, levels",
                         [(1.0, (0, 1)), (0.0, (0, 1, 20)), (1.0, (20, 0, 3))])
def test_noiseless_level_equals_per_cell_path(multiplier, levels):
    # the first noiseless level scores one row and every noiseless cell copies it;
    # at multiplier 0 every level is noiseless, at multiplier 1 level 0 alone
    methods = ("classic", "jaccard_addition", "combined_coincidence")
    _assert_equal_per_cell_path(SweepConfig(
        methods=methods, object_spec=ObjectSpec(x_s=3.9), levels=levels, realizations=4,
        base_seed=5, noise_multiplier=multiplier))


@pytest.mark.parametrize("levels", [tuple(range(21)), (20, 3, 0)], ids=["0-20", "20,3,0"])
def test_noiseless_sweep_scores_its_first_level_alone(kernel_calls, levels):
    # at multiplier 0 every level scores the clean object, so the sweep makes the
    # kernel calls of a sweep over its first level alone and copies that block
    cfg = SweepConfig(methods=("classic", "jaccard_addition", "combined_coincidence"),
                      object_spec=ObjectSpec(x_s=3.9), levels=levels, realizations=3,
                      noise_multiplier=0.0)
    quiet = run_sweep(cfg)
    every_level, kernel_calls[:] = kernel_calls[:], []
    first = run_sweep(replace(cfg, levels=levels[:1]))
    assert len(every_level) == 2 and every_level == kernel_calls
    block = quiet.records.figures.reshape(len(levels), -1, len(INDEX_NAMES))
    assert np.isnan(block).any()   # missing figures are copied too
    for v, level in enumerate(levels):
        assert block[v].tobytes() == first.records.figures.tobytes(), level
        for method in cfg.methods:
            assert quiet.aggregates[(method, level)] == first.aggregates[(method, levels[0])]


# a secondary 0.6 from the primary, inside its exclusion zone: some records lack figures
THREADED = SweepConfig(methods=("classic", "jaccard_addition", "combined_coincidence"),
                       object_spec=ObjectSpec(x_s=3.9), levels=(0, 5, 10, 15, 20),
                       realizations=4, base_seed=2)


def _pin_workers(monkeypatch, workers, chunk_rows):
    """Run workers level threads on levels of at least chunk_rows realizations."""
    monkeypatch.setattr(sweep, "_level_threads", lambda: workers)
    monkeypatch.setattr(sweep, "CHUNK_ROWS", chunk_rows)


_SCORE_LEVEL = sweep._score_level


def _count_helper_levels(monkeypatch, threaded=True):
    """Record the levels that helper threads score, in a list filled as they run.

    If threaded, the calling thread waits (5 s at most) until a helper takes a level.
    """
    helper_levels = []
    helper_started = threading.Event()

    def score(cfg, clean, template, level, block):
        if threading.current_thread() is not threading.main_thread():
            helper_levels.append(level)
            helper_started.set()
        elif threaded:
            helper_started.wait(5)
        _SCORE_LEVEL(cfg, clean, template, level, block)
    monkeypatch.setattr(sweep, "_score_level", score)
    return helper_levels


@pytest.mark.parametrize("multiplier, levels, calls", [
    (1.0, (20, 0, 3), [(20, 4), (0, 1), (3, 4)]),
    (0.0, (20, 3, 0), [(20, 1)]),
], ids=["noise-free-between-noisy", "multiplier-0"])
def test_first_noise_free_level_is_handed_one_row(monkeypatch, multiplier, levels, calls):
    # every noisy level is handed its whole block, the first noise-free level one
    # row, and no other noise-free level is scheduled
    spy = []

    def score(cfg, clean, template, level, block):
        spy.append((level, len(block)))
        _SCORE_LEVEL(cfg, clean, template, level, block)
    monkeypatch.setattr(sweep, "_score_level", score)
    run_sweep(SweepConfig(methods=("classic",), levels=levels, realizations=4,
                          noise_multiplier=multiplier))
    assert spy == calls


def test_records_do_not_depend_on_worker_count(monkeypatch):
    # each level writes only its own slice, so any schedule gives the same bits, with
    # each level's stacks a single row (one realization) too
    for cfg in (THREADED, replace(THREADED, realizations=1)):
        _pin_workers(monkeypatch, 1, cfg.realizations)
        monkeypatch.setattr(sweep, "_score_level", _SCORE_LEVEL)
        serial = run_sweep(cfg)
        assert np.isnan(serial.records.figures).any()   # missing figures compare too
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # hand the GIL over as often as the interpreter can
        try:
            for workers in (2, 3, 5):   # 5: a thread per level, more than most hosts' CPUs
                _pin_workers(monkeypatch, workers, cfg.realizations)
                helper_levels = _count_helper_levels(monkeypatch)
                assert_records_equal(run_sweep(cfg).records, serial.records)
                assert helper_levels
        finally:
            sys.setswitchinterval(interval)


def test_noiseless_sweep_starts_no_helper(monkeypatch):
    # at multiplier 0 one level is scored, so the calling thread scores it alone
    cfg = replace(THREADED, noise_multiplier=0.0)
    _pin_workers(monkeypatch, 1, cfg.realizations)
    serial = run_sweep(cfg)
    _pin_workers(monkeypatch, 2, 2)
    helper_levels = _count_helper_levels(monkeypatch, threaded=False)
    assert_records_equal(run_sweep(cfg).records, serial.records)
    assert helper_levels == []


@pytest.mark.parametrize("realizations", [2, 3, 4, 7])
def test_records_do_not_depend_on_chunk_edges(monkeypatch, realizations):
    # chunks of 3 realizations, the last one partial or full, under any worker count
    # give the records of one stack per level on one thread; a level of fewer than 3
    # realizations starts no helper
    cfg = replace(THREADED, realizations=realizations)
    _pin_workers(monkeypatch, 1, realizations)
    whole = run_sweep(cfg)
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers, 3)
        threaded = workers > 1 and realizations >= 3
        helper_levels = _count_helper_levels(monkeypatch, threaded)
        assert_records_equal(run_sweep(cfg).records, whole.records)
        assert bool(helper_levels) == threaded


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_without_levels_is_empty(monkeypatch, tmp_path, workers):
    _pin_workers(monkeypatch, workers, 2)
    result = run_sweep(SweepConfig(methods=("classic",), levels=(), realizations=2))
    assert len(result.records) == 0 and result.records.figures.shape == (0, len(INDEX_NAMES))
    assert result.aggregates == {}
    write_aggregates_csv(result, tmp_path / "agg.csv")   # the header alone
    assert (tmp_path / "agg.csv").read_text().splitlines()[1:] == [",".join(AGGREGATE_COLUMNS)]


def _fail_off_main_thread(error):
    stack_figures = sweep.stack_figures
    helper_failed = threading.Event()

    def figures_or_error(*args):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise error
        helper_failed.wait(5)   # the calling thread must not take every level itself
        return stack_figures(*args)
    return figures_or_error


@pytest.mark.parametrize("error", [DomainError("injected"), MemoryError("injected")])
def test_worker_error_reaches_caller(monkeypatch, error):
    _pin_workers(monkeypatch, 2, 2)
    monkeypatch.setattr(sweep, "stack_figures", _fail_off_main_thread(error))
    with pytest.raises(type(error), match="injected"):
        run_sweep(SweepConfig(methods=("classic",), levels=(0, 1, 2, 3), realizations=2))


def test_lowest_failing_level_gives_the_error(monkeypatch):
    # level 3 fails at once, level 1 only after it: the caller still gets level 1's error
    _pin_workers(monkeypatch, 3, 2)
    level_3_failed = threading.Event()
    score_level = sweep._score_level
    scored_on = set()

    def score_or_fail(cfg, clean, template, level, block):
        scored_on.add(threading.current_thread())
        if level == 3:
            level_3_failed.set()
            raise MemoryError("level 3")
        if level == 1:
            level_3_failed.wait(5)
            raise DomainError("level 1")
        score_level(cfg, clean, template, level, block)
    monkeypatch.setattr(sweep, "_score_level", score_or_fail)
    with pytest.raises(DomainError, match="level 1"):
        run_sweep(SweepConfig(methods=("classic",), levels=(0, 1, 2, 3, 4), realizations=2))
    assert level_3_failed.is_set()
    assert scored_on - {threading.main_thread()}   # a helper thread scored a level


@pytest.mark.parametrize("error, message", [(DomainError("injected"), "error: injected\n"),
                                            (MemoryError("injected"),
                                             "error: out of memory: injected\n")])
def test_worker_error_is_one_cli_error_line(monkeypatch, capsys, tmp_path, error, message):
    _pin_workers(monkeypatch, 2, 2)
    monkeypatch.setattr(sweep, "stack_figures", _fail_off_main_thread(error))
    code = cli.main(["bench", "--methods", "classic", "--levels", "0-3",
                     "--realizations", "2", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "records.csv").exists()


@pytest.mark.parametrize("cpus, workers", [(1, 1), (5, sweep.MAX_LEVEL_THREADS)])
def test_worker_count_falls_back_to_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweep._level_threads() == workers
    monkeypatch.setattr(sweep, "CHUNK_ROWS", THREADED.realizations)
    result = run_sweep(THREADED)
    _pin_workers(monkeypatch, 1, THREADED.realizations)
    assert_records_equal(result.records, run_sweep(THREADED).records)


def test_noise_shared_across_methods():
    # paired comparison: each method sees the same noisy object per (v, r)
    spec = ObjectSpec()
    clean = gen_object(spec)
    n1 = add_noise(clean, NoiseSpec(4, seed=11, realization=2))
    n2 = add_noise(clean, NoiseSpec(4, seed=11, realization=2))
    np.testing.assert_array_equal(n1.samples, n2.samples)


def test_level_zero_has_zero_std():
    res = run_sweep(SweepConfig(methods=("coincidence",), levels=(0,),
                                realizations=4, base_seed=3))
    for name in ("r_xp", "r_h", "r_wp", "alpha_overlap"):
        agg = res.aggregate("coincidence", 0, name)
        assert agg.std == 0.0
        assert agg.n == 4


def test_equal_values_have_zero_std():
    # np.std(np.full(50, 0.1), ddof=1) is 2.8e-17: the mean misses 0.1 by an ulp
    same = figures(r_xp=0.1, r_wp=0.1)
    agg = aggregate_records((0,), ("classic",), np.tile(same, (1, 50, 1, 1)))
    assert agg[("classic", 0)]["r_xp"].std == 0.0
    assert agg[("classic", 0)]["r_xp"].mean == pytest.approx(0.1)


def test_methods_canonicalized_in_config():
    cfg = SweepConfig(methods=("jaccard", "correlation"), levels=(0,),
                      realizations=1)
    assert cfg.methods == ("jaccard_real", "classic")


def test_repeated_methods_or_levels_rejected():
    # each (method, level) cell is one aggregate row; a repeat would double it
    with pytest.raises(DomainError, match="noise level 3 given more than once"):
        SweepConfig(methods=("classic",), levels=(3, 3), realizations=2)
    with pytest.raises(DomainError, match="method jaccard_real given more than once"):
        SweepConfig(methods=("jaccard", "jaccard_real"), levels=(0,), realizations=2)


def test_level_range_checked_before_repeats():
    # the range check comes first, so a long run of levels fails on its first bad one
    with pytest.raises(DomainError, match="noise level 21 out of range 0..20"):
        SweepConfig(levels=tuple(range(22)) * 2, realizations=1)


def test_exclusion_counting_synthetic():
    ok = figures(r_xp=0.1, r_wp=0.2, r_xs=0.0, r_h=2.0, r_ws=0.3, alpha_overlap=0.4)
    no_secondary = figures(r_xp=0.2, r_wp=0.4)
    # one level, realizations 0-2, one method; realization 2 a total failure
    block = np.array([[[ok], [no_secondary], [figures()]]])
    agg = aggregate_records((5,), ("coincidence",), block)[("coincidence", 5)]
    assert agg["r_xp"].n == 2
    assert agg["r_xp"].mean == pytest.approx(0.15)
    assert agg["r_h"].n == 1
    assert agg["r_h"].mean == 2.0
    assert agg["r_h"].std == 0.0
    # an index with no surviving values at all
    empty = aggregate_records((1,), ("x",), np.array([[[figures()]]]))[("x", 1)]
    assert empty["r_xp"].n == 0
    assert math.isnan(empty["r_xp"].mean)


def test_invalid_config_rejected():
    with pytest.raises(DomainError):
        SweepConfig(levels=(21,))
    with pytest.raises(DomainError):
        SweepConfig(levels=(-1,))
    with pytest.raises(DomainError):
        SweepConfig(realizations=0)
    with pytest.raises(DomainError):
        SweepConfig(boundary="wrap")


def test_records_csv_round_trip(tmp_path):
    res = run_sweep(SMALL)
    path = tmp_path / "records.csv"
    write_records_csv(res, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 2 + len(res.records)
    # parse a couple of rows back and compare against the records
    rec = res.records
    for lineno in (2, 3, len(lines) - 1):
        parts = lines[lineno].split(",")
        i = lineno - 2
        assert parts[0] == rec.methods[rec.codes[i]]
        assert int(parts[1]) == rec.levels[i]
        assert int(parts[2]) == rec.realizations[i]
        got_rxp = float(parts[3])
        assert got_rxp == pytest.approx(rec.figures[i, INDEX_NAMES.index("r_xp")], rel=1e-8)
    # 9 significant digits keep round-tripped values tight
    assert "nan" not in lines[2].split(",")[3]


def test_records_csv_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_sweep(SMALL), p1)
    write_records_csv(run_sweep(SMALL), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_aggregates_csv_structure(tmp_path):
    res = run_sweep(SMALL)
    path = tmp_path / "agg.csv"
    write_aggregates_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[1] == ",".join(AGGREGATE_COLUMNS)
    # one row per (level, method)
    assert len(lines) == 2 + len(SMALL.levels) * len(SMALL.methods)
    header = lines[1].split(",")
    assert header[:3] == ["method", "level", "n_total"]
    assert "r_xp_mean" in header and "r_h_std" in header and "r_h_n" in header


def test_aggregates_follow_config_order(tmp_path):
    # levels given out of order: one row per cell in the config's level-major order,
    # n_total the realization count, and every statistic the reduction of its cell's
    # records, to the byte
    cfg = SweepConfig(methods=("coincidence", "classic"), levels=(20, 3, 0), realizations=3)
    res = run_sweep(cfg)
    path = tmp_path / "agg.csv"
    write_aggregates_csv(res, path)
    rec = res.records
    want = []
    for level in cfg.levels:
        for method in cfg.methods:
            cell = rec.figures[(rec.codes == rec.methods.index(method)) & (rec.levels == level)]
            row = [method, str(level), "3"]
            for column in cell.T:
                values = column[~np.isnan(column)]
                if not values.size:
                    row += ["nan", "nan", "0"]
                    continue
                std = np.std(values, ddof=1) if np.any(values != values[0]) else 0.0
                row += ["%.9g" % np.mean(values), "%.9g" % std, str(values.size)]
            want.append(",".join(row))
    assert path.read_text().splitlines()[2:] == want


def test_missing_secondary_serialized_as_nan(tmp_path):
    cfg = SweepConfig(methods=("classic",), levels=(2,), realizations=1)
    res = sweep_result(cfg, np.array([[[figures(r_xp=0.1, r_wp=0.2)]]]))
    path = tmp_path / "r.csv"
    write_records_csv(res, path)
    row = path.read_text().splitlines()[2].split(",")
    cols = dict(zip(RECORD_COLUMNS, row))
    assert cols["r_h"] == "nan"
    assert cols["secondary_found"] == "0"
    assert cols["primary_found"] == "1"
