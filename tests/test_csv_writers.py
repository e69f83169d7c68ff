"""Exact bytes of every CSV the package writes, on tiny hand-built inputs.

Pins the shared format: the `#` comment line, the header, floats at 9
significant digits, `nan` for missing or undefined figures, integer columns
written as integers, `\\n` line ends and the trailing newline.
"""

from types import SimpleNamespace

import numpy as np

from mfcorr import FeatureMatrix, PerformanceIndices, SweepConfig
from mfcorr.cli import _write_profile_csv
from mfcorr.correlate import CorrelationResult
from mfcorr.metrics import INDEX_NAMES
from mfcorr.pca import write_meta_csv, write_projection_csv
from mfcorr.sweep import (SweepResult, aggregate_records, write_aggregates_csv,
                          write_records_csv)

from tables import records_of

CONFIG = SweepConfig(methods=("classic",), levels=(2,), realizations=2, base_seed=5)
COMMENT = ("# methods=classic levels=2 realizations=2 seed=5 noise_multiplier=1"
           " boundary=pad hp=2 hs=1 sigma_p=0.3 sigma_s=0.15 xp=4.5 xs=1.8"
           " grid=0:6.4:640 template_width=1.2 template_amplitude=2 eps_denom=1e-12")


def _result():
    full = PerformanceIndices(r_xp=0.125, r_wp=1.0 / 3.0, r_xs=-0.25, r_h=1.5e-05,
                              r_ws=2.0, alpha_overlap=-0.0123456789123)
    no_secondary = PerformanceIndices(r_xp=-0.0625, r_wp=0.5)
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
    projections = [("classic", 1.0 / 3.0, -2.5), ("coincidence", 0.0, 1e-10),
                   ("classic", float("nan"), 4.0)]
    write_projection_csv(projections, path, "# records=records.csv level=2")
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
