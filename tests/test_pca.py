"""Principal component analysis: the eigensolver (np.linalg.eigh behind jacobi_eigh),
fitting, projection, and the records table (read_records) and its per-level rows
(level_matrix), from a records file or held in memory."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mfcorr import (
    AnalysisError,
    FeatureMatrix,
    Records,
    SweepConfig,
    SweepResult,
    group_centroids,
    group_dispersion,
    jacobi_eigh,
    level_matrix,
    load_feature_matrix,
    pca_fit,
    project,
    read_records,
    run_sweep,
    write_records_csv,
)
from mfcorr.metrics import INDEX_NAMES

from oracles import o_eigvals_2x2, o_eigvals_3x3
from tables import assert_records_equal, figures, records_of


def _labels(n):
    return tuple(f"m{i % 3}" for i in range(n))


# ---------------------------------------------------------------------------
# Eigensolver against closed-form oracles and library decomposition


def test_jacobi_matches_2x2_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, d = rng.normal(scale=3.0, size=3)
        mat = np.array([[a, b], [b, d]])
        got, vecs = jacobi_eigh(mat)
        want = o_eigvals_2x2(a, b, d)
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)
        assert np.allclose(vecs @ np.diag(got) @ vecs.T, mat, atol=1e-10)


def test_jacobi_matches_3x3_oracle():
    rng = np.random.default_rng(12)
    for _ in range(200):
        upper = rng.normal(scale=2.0, size=6)
        mat = np.array([
            [upper[0], upper[1], upper[2]],
            [upper[1], upper[3], upper[4]],
            [upper[2], upper[4], upper[5]],
        ])
        got, _ = jacobi_eigh(mat)
        want = o_eigvals_3x3(mat)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)


def test_jacobi_reconstruction_and_orthonormality():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 6, 8):
        for _ in range(20):
            half = rng.normal(size=(n, n))
            mat = half @ half.T  # symmetric PSD
            vals, vecs = jacobi_eigh(mat)
            assert np.all(np.diff(vals) <= 1e-12)  # non-increasing
            assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, mat, atol=1e-8 * max(1.0, np.abs(mat).max()))
            want = np.linalg.eigvalsh(mat)[::-1]
            assert np.allclose(vals, want, atol=1e-8 * max(1.0, np.abs(want).max()))


def test_jacobi_sign_convention():
    rng = np.random.default_rng(14)
    for _ in range(50):
        half = rng.normal(size=(5, 5))
        _, vecs = jacobi_eigh(half @ half.T)
        for j in range(vecs.shape[1]):
            pivot = np.argmax(np.abs(vecs[:, j]))
            assert vecs[pivot, j] > 0


def test_jacobi_zero_and_diagonal_matrices():
    vals, vecs = jacobi_eigh(np.zeros((3, 3)))
    assert np.all(vals == 0.0) and np.allclose(vecs, np.eye(3))
    vals, _ = jacobi_eigh(np.diag([1.0, 5.0, 3.0]))
    assert np.allclose(vals, [5.0, 3.0, 1.0])


def test_jacobi_rejects_asymmetric():
    with pytest.raises(AnalysisError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(AnalysisError):
        jacobi_eigh(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Fitting


def test_rank_one_data_explained_entirely_by_pc1():
    rng = np.random.default_rng(21)
    t = rng.normal(size=40)
    direction = np.array([1.0, -2.0, 0.5, 3.0, 1.5, -1.0])
    values = np.outer(t, direction)
    m = FeatureMatrix(values, _labels(40))
    model = pca_fit(m)
    assert model.variance_explained[0] == pytest.approx(1.0, abs=1e-12)
    assert model.variance_explained[1] == pytest.approx(0.0, abs=1e-12)


def test_isotropic_data_spreads_variance_evenly():
    rng = np.random.default_rng(22)
    values = rng.normal(size=(10_000, 6))
    m = FeatureMatrix(values, _labels(10_000))
    model = pca_fit(m)
    assert model.variance_explained[0] == pytest.approx(1.0 / 6.0, abs=0.05)
    assert model.variance_explained[1] == pytest.approx(1.0 / 6.0, abs=0.05)


def test_pc1_score_variance_equals_top_eigenvalue():
    rng = np.random.default_rng(23)
    values = rng.normal(size=(300, 6)) @ np.diag([4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
    m = FeatureMatrix(values, _labels(300))
    model = pca_fit(m)
    scores = project(m, model)
    assert np.var(scores[:, 0], ddof=1) == pytest.approx(model.eigenvalues[0], rel=1e-8)
    assert np.var(scores[:, 1], ddof=1) == pytest.approx(model.eigenvalues[1], rel=1e-8)


def test_projection_of_training_data_is_centered():
    rng = np.random.default_rng(24)
    values = rng.normal(loc=5.0, size=(120, 6))
    m = FeatureMatrix(values, _labels(120))
    model = pca_fit(m)
    scores = project(m, model)
    assert np.abs(scores.mean(axis=0)).max() <= 1e-10


def test_zero_variance_column_dropped_with_warning():
    rng = np.random.default_rng(25)
    values = rng.normal(size=(50, 6))
    values[:, 3] = 7.0  # constant column
    m = FeatureMatrix(values, _labels(50))
    with pytest.warns(UserWarning, match="zero-variance"):
        model = pca_fit(m)
    assert INDEX_NAMES[3] not in model.kept
    assert len(model.kept) == 5
    assert model.components.shape == (2, 5)
    # projection still works against the reduced schema
    scores = project(m, model)
    assert len(scores) == 50


def test_too_few_usable_columns_rejected():
    values = np.ones((10, 6))
    values[:, 0] = np.arange(10.0)  # only one varying column
    m = FeatureMatrix(values, _labels(10))
    with pytest.raises(AnalysisError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pca_fit(m)


def test_duplicated_rows_keep_fit_finite():
    rng = np.random.default_rng(26)
    base = rng.normal(size=(5, 6))
    values = np.vstack([base] * 8)
    m = FeatureMatrix(values, _labels(40))
    model = pca_fit(m)
    assert np.all(np.isfinite(model.eigenvalues))
    scores = project(m, model)
    # identical input rows land on identical coordinates
    assert scores[0] == pytest.approx(scores[5], abs=1e-12)


# ---------------------------------------------------------------------------
# Feature matrix construction and validation


def test_feature_matrix_validation():
    with pytest.raises(AnalysisError):
        FeatureMatrix(np.ones((3, 6)), ("a",))  # label count mismatch
    with pytest.raises(AnalysisError):
        FeatureMatrix(np.ones((1, 6)), ("a",))  # too few rows
    with pytest.raises(AnalysisError):
        FeatureMatrix(np.ones((4, 1)), _labels(4)[:4])  # too few columns
    bad = np.ones((3, 6))
    bad[1, 2] = np.nan
    with pytest.raises(AnalysisError):
        FeatureMatrix(bad, _labels(3))


def _record(method, level, realization, value, complete=True):
    if value is None:
        return method, level, realization, figures()
    secondary = dict(r_xs=value + 2, r_h=value + 3, r_ws=value + 4,
                     alpha_overlap=value + 5) if complete else {}
    return method, level, realization, figures(r_xp=value, r_wp=value + 1, **secondary)


def test_feature_matrix_from_records_filters_and_counts():
    records = [
        _record("classic", 5, 0, 0.1),
        _record("classic", 5, 1, 0.2),
        _record("classic", 5, 2, 0.3, complete=False),  # missing secondary: dropped
        _record("classic", 5, 3, None),                 # no peak at all: dropped
        _record("classic", 4, 0, 0.9),                  # other level: ignored
        _record("interiority", 5, 0, 0.9),              # unrequested method: ignored
        _record("coincidence", 5, 0, 0.4),
    ]
    m = level_matrix(records_of(records), level=5)
    assert m.labels == ("classic", "classic", "coincidence")
    assert m.n_dropped == 2
    assert m.values.shape == (3, 6)
    assert m.values[0, 0] == pytest.approx(0.1)
    assert m.values[2, 5] == pytest.approx(0.4 + 5)


def test_feature_matrix_from_records_needs_two_rows():
    records = [_record("classic", 5, 0, 0.1)]
    with pytest.raises(AnalysisError, match="level 5"):
        level_matrix(records_of(records), level=5)


# ---------------------------------------------------------------------------
# CSV loading


def _write_records_file(path, rows, header=None):
    cols = header or ["method", "level", "realization", *INDEX_NAMES,
                      "primary_found", "secondary_found"]
    lines = ["# synthetic records", ",".join(cols)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_feature_matrix_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    rows = [
        ["classic", 5, 0, 0.1, 1.1, 2.1, 3.1, 4.1, 5.1, 1, 1],
        ["classic", 5, 1, 0.2, 1.2, 2.2, 3.2, 4.2, 5.2, 1, 1],
        ["classic", 5, 2, 0.3, 1.3, "nan", 3.3, 4.3, 5.3, 1, 0],
        ["coincidence", 5, 0, 0.4, 1.4, 2.4, 3.4, 4.4, 5.4, 1, 1],
        ["classic", 6, 0, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 1, 1],
    ]
    _write_records_file(path, rows)
    m = load_feature_matrix(path, level=5)
    assert m.labels == ("classic", "classic", "coincidence")
    assert m.n_dropped == 1
    assert m.values[1, 0] == pytest.approx(0.2)


def test_load_feature_matrix_missing_column_is_named(tmp_path):
    path = tmp_path / "records.csv"
    cols = ["method", "level", "realization", *INDEX_NAMES[:-1]]  # drop alpha_overlap
    _write_records_file(path, [["classic", 5, 0, 1, 2, 3, 4, 5]], header=cols)
    with pytest.raises(AnalysisError, match="alpha_overlap"):
        load_feature_matrix(path, level=5)


def test_load_feature_matrix_empty_file(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("")
    with pytest.raises(AnalysisError, match="empty"):
        load_feature_matrix(path, level=5)


def test_load_feature_matrix_not_enough_rows(tmp_path):
    path = tmp_path / "records.csv"
    _write_records_file(path, [["classic", 5, 0, 0.1, 1.1, 2.1, 3.1, 4.1, 5.1, 1, 1]])
    with pytest.raises(AnalysisError, match="level 5"):
        load_feature_matrix(path, level=5)


def test_file_and_in_memory_records_give_the_same_matrix(tmp_path):
    cfg = SweepConfig(methods=("classic", "jaccard_real", "coincidence"),
                      levels=(2, 12), realizations=4, base_seed=3)
    result = run_sweep(cfg)
    # a no-secondary row and a failed row, appended to the sweep's table
    extra = [_record("classic", 12, 4, 0.5, complete=False), _record("coincidence", 12, 4, None)]
    rec = result.records
    result.records = Records(
        rec.methods,
        np.append(rec.codes, [rec.methods.index(row[0]) for row in extra]),
        np.append(rec.levels, [row[1] for row in extra]),
        np.append(rec.realizations, [row[2] for row in extra]),
        np.vstack([rec.figures, [row[3] for row in extra]]))
    path = tmp_path / "records.csv"
    write_records_csv(result, path)

    # the whole table comes back: names, codes, levels, realizations, nan
    # pattern, and the figures as written at 9 significant digits
    rec = result.records
    at_9_digits = np.vectorize(lambda v: float(format(v, ".9g")))(rec.figures)
    assert np.isnan(at_9_digits[-2:]).sum() == 4 + 6
    assert_records_equal(read_records(path), Records(rec.methods, rec.codes, rec.levels,
                                                     rec.realizations, at_9_digits))

    for level in cfg.levels:
        in_memory = level_matrix(result.records, level)
        from_file = load_feature_matrix(path, level)
        assert from_file.labels == in_memory.labels
        assert from_file.n_dropped == in_memory.n_dropped == (2 if level == 12 else 0)
        assert ([[format(v, ".9g") for v in row] for row in from_file.values]
                == [[format(v, ".9g") for v in row] for row in in_memory.values])


RECORDS_HEAD = ",".join(["method", "level", "realization", *INDEX_NAMES,
                         "primary_found", "secondary_found"])
RECORDS_BODY = ["classic,1,0,1,2,3,4,5,6,1,1", "coincidence,2,3,-0.5,nan,inf,1e-05,-0,8,1,0"]


@pytest.mark.parametrize("text", [
    "\r\n".join([RECORDS_HEAD, *RECORDS_BODY]) + "\r\n",                 # CRLF line ends
    "\r".join([RECORDS_HEAD, *RECORDS_BODY]) + "\r",                       # CR line ends
    "\n".join([RECORDS_HEAD, *RECORDS_BODY]),                               # no final newline
    "\n".join([RECORDS_HEAD, "# x", RECORDS_BODY[0], "", "#", RECORDS_BODY[1]]) + "\n",
    "\n".join([RECORDS_HEAD] + [row + ",extra" for row in RECORDS_BODY]) + "\n",
    "\n".join([RECORDS_HEAD, "classic, 1 ,+0,1, 2,3 ,4,5,6,1,1", RECORDS_BODY[1]]) + "\n",
], ids=["crlf", "cr", "no-final-newline", "comments-between-rows", "extra-field", "spaces"])
def test_read_records_inputs_the_csv_module_also_read(tmp_path, text):
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    want = Records(("classic", "coincidence"), np.array([0, 1]), np.array([1, 2]),
                   np.array([0, 3]), np.array([[1.0, 2, 3, 4, 5, 6],
                                               [-0.5, np.nan, np.inf, 1e-05, -0.0, 8]]))
    got = read_records(path)
    assert_records_equal(got, want)
    assert np.signbit(got.figures[1, 4])


def test_read_records_header_only_is_an_empty_table(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("# no rows\n" + RECORDS_HEAD + "\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # loadtxt warns on an input without rows
        records = read_records(path)
    assert records.methods == () and len(records) == 0
    assert records.figures.shape == (0, len(INDEX_NAMES))


@pytest.mark.parametrize("level", ["1.5", "1.0", "nan", "inf", "99999999999999999999"])
def test_read_records_refuses_a_float_level_with_warnings_ignored(tmp_path, level):
    # outside pytest a DeprecationWarning is ignored; numpy 1.23 to 2.x then read
    # an integer field that only parses as a float truncated, with that warning
    path = tmp_path / "records.csv"
    path.write_text("\n".join([RECORDS_HEAD, RECORDS_BODY[0],
                               f"classic,{level},0,1,2,3,4,5,6,1,1"]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(AnalysisError, match=f"records file {path}, row 2: "):
            read_records(path)


def test_read_records_field_at_the_csv_limit_reads(tmp_path):
    # the csv module took a field of up to its limit; the last one too, before the newline
    limit = csv.field_size_limit()
    path = tmp_path / "records.csv"
    for size in (limit, limit + 1):
        path.write_text("\n".join([RECORDS_HEAD, RECORDS_BODY[0],
                                   "classic,1,1,1,2,3,4,5,6,1," + "0" * (size - 1) + "1"]) + "\n")
        if size == limit:
            assert read_records(path).realizations.tolist() == [0, 1]
        else:
            with pytest.raises(AnalysisError, match="row 2: field larger than field limit"):
                read_records(path)


def test_read_records_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    # paper scale: 21 levels x 300 realizations x 4 methods.  A list of the
    # file's lines alone would take ~4.5 times the table.
    levels, realizations, methods = 21, 300, 4
    n = levels * realizations * methods
    rng = np.random.default_rng(8)
    table = Records(("classic", "jaccard_real", "coincidence", "combined_coincidence"),
                    np.tile(np.arange(methods), n // methods),
                    np.repeat(np.arange(levels), n // levels),
                    np.tile(np.repeat(np.arange(realizations), methods), levels),
                    rng.normal(size=(n, len(INDEX_NAMES))))
    path = tmp_path / "records.csv"
    write_records_csv(SweepResult(SweepConfig(), table, {}), path)
    read_records(path)   # the first call's imports and caches are not the parse's
    tracemalloc.start()
    try:
        got = read_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == n
    nbytes = sum(a.nbytes for a in (got.codes, got.levels, got.realizations, got.figures))
    assert peak <= 3 * nbytes, f"peak {peak / 2**20:.2f} MB for a {nbytes / 2**20:.2f} MB table"


# ---------------------------------------------------------------------------
# Group statistics


def test_group_dispersion_known_geometry():
    labels = ("a", "a",            # centroid (0,0), distances 1,1
              "b", "b",            # centroid (0,0), distances 5,5
              "c")                 # single point: skipped
    scores = np.array([(1.0, 0.0), (-1.0, 0.0), (3.0, 4.0), (-3.0, -4.0), (9.0, 9.0)])
    with pytest.warns(UserWarning, match="fewer than 2"):
        disp = group_dispersion(labels, scores)
    assert disp == {"a": pytest.approx(1.0), "b": pytest.approx(5.0)}
    cents = group_centroids(labels, scores)
    assert cents["a"] == pytest.approx([0.0, 0.0])
    assert cents["c"] == pytest.approx([9.0, 9.0])
