"""Exact bytes of every CSV the package writes, on tiny hand-built inputs.

Pins the shared format: the `#` comment line, the header, floats at 9
significant digits, `nan` for missing or undefined figures, integer columns
written as integers, `\\n` line ends and the trailing newline.  Two
properties close it: write_csv's body is the per-cell rule on any typed
columns, and a records file reads back bit for bit.  A records write stays
chunked: its memory peak is a fraction of the table's.
"""

import math
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcorr import FeatureMatrix, Records, SweepConfig, read_records, sweep
from mfcorr.cli import _write_profile_csv
from mfcorr.correlate import CorrelationResult
from mfcorr.metrics import INDEX_NAMES
from mfcorr.pca import write_meta_csv, write_projection_csv
from mfcorr.sweep import (SweepResult, aggregate_records, write_aggregates_csv, write_csv,
                          write_records_csv)

from tables import figures, records_of

CONFIG = SweepConfig(methods=("classic",), levels=(2,), realizations=2, base_seed=5)
COMMENT = ("# methods=classic levels=2 realizations=2 seed=5 noise_multiplier=1"
           " boundary=pad hp=2 hs=1 sigma_p=0.3 sigma_s=0.15 xp=4.5 xs=1.8"
           " grid=0:6.4:640 template_width=1.2 template_amplitude=2 eps_denom=1e-12")


def _result():
    full = figures(r_xp=0.125, r_wp=1.0 / 3.0, r_xs=-0.25, r_h=1.5e-05, r_ws=2.0,
                   alpha_overlap=-0.0123456789123)
    no_secondary = figures(r_xp=-0.0625, r_wp=0.5)
    records = records_of([("classic", 2, 0, full),
                          ("classic", 2, 1, no_secondary)])
    return SweepResult(CONFIG, records, aggregate_records(records))


def test_records_csv_bytes(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(_result(), path)
    assert path.read_bytes().decode() == (
        COMMENT + "\n"
        "method,level,realization,r_xp,r_xs,r_h,r_wp,r_ws,alpha_overlap,"
        "primary_found,secondary_found\n"
        "classic,2,0,0.125,-0.25,1.5e-05,0.333333333,2,-0.0123456789,1,1\n"
        "classic,2,1,-0.0625,nan,nan,0.5,nan,nan,1,0\n")


def test_aggregates_csv_bytes(tmp_path):
    path = tmp_path / "aggregates.csv"
    write_aggregates_csv(_result(), path)
    assert path.read_bytes().decode() == (
        COMMENT + "\n"
        "method,level,n_total,r_xp_mean,r_xp_std,r_xp_n,r_xs_mean,r_xs_std,r_xs_n,"
        "r_h_mean,r_h_std,r_h_n,r_wp_mean,r_wp_std,r_wp_n,r_ws_mean,r_ws_std,r_ws_n,"
        "alpha_overlap_mean,alpha_overlap_std,alpha_overlap_n\n"
        "classic,2,2,0.03125,0.132582521,2,-0.25,0,1,1.5e-05,0,1,"
        "0.416666667,0.11785113,2,2,0,1,-0.0123456789,0,1\n")


def test_projection_csv_bytes(tmp_path):
    path = tmp_path / "pca_2.csv"
    scores = np.array([(1.0 / 3.0, -2.5), (0.0, 1e-10), (float("nan"), 4.0)])
    write_projection_csv(("classic", "coincidence", "classic"), scores, path,
                         "# records=records.csv level=2")
    assert path.read_bytes().decode() == (
        "# records=records.csv level=2\n"
        "label,pc1,pc2\n"
        "classic,0.333333333,-2.5\n"
        "coincidence,0,1e-10\n"
        "classic,nan,4\n")


def test_meta_csv_bytes(tmp_path):
    path = tmp_path / "pca_meta_2.csv"
    # write_meta_csv reads only these fields of the fitted model
    model = SimpleNamespace(
        kept=tuple(c for c in INDEX_NAMES if c != "r_h"),
        eigenvalues=np.array([3.0, 0.5, 1.0 / 3.0, 0.1, 2e-17]),
        variance_explained=(0.75, 0.125))
    matrix = FeatureMatrix(np.ones((3, 6)), ("classic", "classic", "coincidence"),
                           n_dropped=1)
    write_meta_csv(model, matrix, {"coincidence": 0.5, "classic": 2.0 / 3.0}, path,
                   "# records=records.csv level=2")
    assert path.read_bytes().decode() == (
        "# records=records.csv level=2\n"
        "key,value\n"
        "variance_explained_1,0.75\n"
        "variance_explained_2,0.125\n"
        "variance_explained_top2,0.875\n"
        "n_rows,3\n"
        "n_dropped_rows,1\n"
        "dropped_columns,r_h\n"
        "eigenvalue_1,3\n"
        "eigenvalue_2,0.5\n"
        "eigenvalue_3,0.333333333\n"
        "eigenvalue_4,0.1\n"
        "eigenvalue_5,2e-17\n"
        "dispersion_classic,0.666666667\n"
        "dispersion_coincidence,0.5\n")


def test_profile_csv_bytes(tmp_path):
    path = tmp_path / "correlate_classic.csv"
    profile = CorrelationResult(lags=[-0.01, 0.0, 0.01], values=[0.5, 1.0, -1.0 / 3.0])
    _write_profile_csv(profile, path, "# method=classic boundary=pad")
    assert path.read_bytes().decode() == (
        "# method=classic boundary=pad\n"
        "lag,value\n"
        "-0.01,0.5\n"
        "0,1\n"
        "0.01,-0.333333333\n")


# ---------------------------------------------------------------------------
# Properties

# one column of each kind the writers pass: floats of every kind (nan, ±0, ±inf and
# subnormals among them) and integers to the int64 limits as ndarrays, names of any
# text, NUL included, as a plain sequence
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf,
                                                 5e-324, -2.5e-310]))
NAMES = st.text(st.characters(blacklist_categories=("Cs",)) | st.just("\x00"), max_size=5)


def _column(n):
    """(the cells as the rule writes them, the column as a caller passes it) of n rows."""
    def kind(cells, rule, column):
        return st.lists(cells, min_size=n, max_size=n).map(
            lambda values: ([rule(v) for v in values], column(values)))
    return st.one_of(kind(FLOATS, lambda v: format(v, ".9g"), lambda v: np.array(v, np.float64)),
                     kind(st.integers(-2**63, 2**63 - 1), str, lambda v: np.array(v, np.int64)),
                     kind(NAMES, str, list))


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 5), n=st.integers(0, 12), chunk=st.integers(1, 5), data=st.data())
def test_write_csv_body_is_the_per_cell_rule(width, n, chunk, data):
    # small chunks, so that bodies span chunks
    drawn = [data.draw(_column(n)) for _ in range(width)]
    header = [f"c{i}" for i in range(width)]
    want = "".join(",".join(row) + "\n" for row in zip(*(cells for cells, _ in drawn)))
    with tempfile.TemporaryDirectory() as tmp, patch.object(sweep, "_CHUNK_ROWS", chunk):
        path = Path(tmp) / "table.csv"
        write_csv(path, header, [column for _, column in drawn], "# comment")
        assert path.read_bytes().decode() == "# comment\n" + ",".join(header) + "\n" + want


def test_records_write_peak_memory_is_a_fraction_of_the_table(tmp_path):
    # paper scale: 21 levels x 300 realizations x 4 methods.  One % over the whole
    # body held every cell and line at once: 4 times the table.
    levels, realizations, methods = 21, 300, 4
    n = levels * realizations * methods
    table = Records(("classic", "jaccard_real", "coincidence", "combined_coincidence"),
                    np.tile(np.arange(methods), n // methods),
                    np.repeat(np.arange(levels), n // levels),
                    np.tile(np.repeat(np.arange(realizations), methods), levels),
                    np.random.default_rng(8).normal(size=(n, len(INDEX_NAMES))))
    result = SweepResult(CONFIG, table, {})
    write_records_csv(result, tmp_path / "warm.csv")   # imports and caches are not the write's
    tracemalloc.start()
    try:
        write_records_csv(result, tmp_path / "records.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for a in (table.codes, table.levels, table.realizations, table.figures))
    assert peak <= 0.5 * nbytes, f"peak {peak / 2**20:.2f} MB for a {nbytes / 2**20:.2f} MB table"


# floats that 9 significant digits name exactly, subnormals included, and the
# values a records file must carry through unchanged
FIGURE = st.one_of(
    st.floats(allow_nan=False).map(lambda v: float(format(v, ".9g"))),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324, -2.5e-310,
                     2.22507386e-308, 123456789.0, -0.000123456789]))

RECORD_ROW = st.tuples(
    st.sampled_from(["classic", "coincidence", "jaccard_real", "combined_coincidence"]),
    st.integers(0, 20), st.integers(-2**63, 2**63 - 1),
    st.lists(FIGURE, min_size=len(INDEX_NAMES), max_size=len(INDEX_NAMES)))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(RECORD_ROW, min_size=1, max_size=20), chunk=st.integers(1, 8))
def test_records_file_reads_back_bit_for_bit(rows, chunk):
    methods = tuple(dict.fromkeys(row[0] for row in rows))
    want = Records(methods, np.array([methods.index(row[0]) for row in rows]),
                   np.array([row[1] for row in rows]), np.array([row[2] for row in rows]),
                   np.array([row[3] for row in rows], dtype=np.float64))
    with tempfile.TemporaryDirectory() as tmp, patch.object(sweep, "_CHUNK_ROWS", chunk):
        path = Path(tmp) / "records.csv"
        write_records_csv(SweepResult(CONFIG, want, {}), path)
        got = read_records(path)
    assert got.methods == want.methods
    for name in ("codes", "levels", "realizations"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    # the bits, so that -0.0 is not 0.0 and nan is the one nan written
    np.testing.assert_array_equal(got.figures.view(np.int64), want.figures.view(np.int64))
