"""Fuzzing `mfcorr pca` with malformed records files and --levels strings.

Whatever the input, a run ends with exit code 0, or with exit code 1 and one
`error:` line on stderr; it never ends in a traceback.  Figures stay within
±10, so no numpy overflow warning can stand in for a failure.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcorr.cli import main
from mfcorr.sweep import RECORD_COLUMNS

PCA_METHODS = ("classic", "jaccard_real", "coincidence")

FIGURE = st.floats(-10, 10, allow_nan=False).map(lambda v: format(v, ".9g"))

# a field as the sweep writes it, or one that is not
FIELD = st.one_of(
    st.sampled_from(PCA_METHODS), st.integers(-3, 3).map(str), FIGURE,
    st.sampled_from(["", " ", "x", "nan", "inf", "-", "1e", "1.5", '"', 'a"b', '"1"',
                     "\x00", "1\x002", "\r", "\t", "٣"]),
    st.just("9" * 140_000),   # beyond the csv module's field limit
)

GOOD_ROW = st.builds(
    lambda method, realization, figures: ",".join(
        [method, "1", str(realization), *figures, "1", "1"]),
    st.sampled_from(PCA_METHODS), st.integers(0, 9), st.lists(FIGURE, min_size=6, max_size=6))

ROW = st.one_of(
    GOOD_ROW,
    st.lists(FIELD, max_size=13).map(",".join),   # wrong counts, bad tokens, quotes, NULs
    st.sampled_from(["", "   ", "# comment"]),     # blank and comment lines
)


def _pca(records: Path, levels: str, out_dir: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["pca", "--records", str(records), "--levels", levels,
                     "--out-dir", str(out_dir)])
    return code, err.getvalue()


def _assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROW, max_size=12))
def test_malformed_records_rows_end_in_one_error_line(rows):
    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp) / "records.csv"
        records.write_text("\n".join([",".join(RECORD_COLUMNS)] + rows) + "\n",
                           encoding="utf-8")
        _assert_clean_exit(*_pca(records, "1", Path(tmp)))


LEVEL = st.one_of(
    st.integers(-3, 25).map(str),
    st.tuples(st.integers(-3, 25), st.integers(-3, 25)).map(lambda r: f"{r[0]}-{r[1]}"),
    st.sampled_from(["", " ", "x", "-", "1-", "-1-2", "1--2", "1.5", "0x1", "٣", "1-x"]),
)


@pytest.fixture(scope="module")
def levels_records(tmp_path_factory):
    """Four rows per method at every level 0..20, all figures spread.

    So a level in range succeeds without a warning, and one out of range fails.
    """
    rng = np.random.default_rng(9)
    lines = [",".join(RECORD_COLUMNS)]
    for level in range(21):
        for r in range(4):
            for method in PCA_METHODS:
                figures = [format(v, ".9g") for v in rng.uniform(-5, 5, size=6)]
                lines.append(",".join([method, str(level), str(r), *figures, "1", "1"]))
    records = tmp_path_factory.mktemp("levels") / "records.csv"
    records.write_text("\n".join(lines) + "\n")
    return records


@settings(max_examples=50, deadline=None)
@given(parts=st.lists(LEVEL, max_size=5), sep=st.sampled_from([",", ", ", ";", " "]))
def test_levels_strings_end_in_one_error_line(levels_records, parts, sep):
    _assert_clean_exit(*_pca(levels_records, sep.join(parts), levels_records.parent))
