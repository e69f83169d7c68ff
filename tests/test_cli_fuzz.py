"""Fuzzing `mfcorr pca` with malformed records files and --levels strings.

Whatever the input, a run ends with exit code 0, or with exit code 1 and one
`error:` line on stderr; it never ends in a traceback.  Figures stay within
±10, so no numpy overflow warning can stand in for a failure.  Last, every
float flag reads any value float() reads the same after a space as after `=`.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcorr import cli
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


# ---------------------------------------------------------------------------
# `mfcorr correlate` with a malformed --config file or --object CSV: every
# drawn input carries at least one defect, so each run must fail cleanly.

def _correlate(tmp: Path, *argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["correlate", "--methods", "classic", "--out-dir", str(tmp), *argv])
    return code, err.getvalue()


def _assert_one_error_line(code: int, err: str) -> None:
    assert "Traceback" not in err
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1, (code, err)


def _with_defect(draw, good: list[bytes], defect: bytes) -> bytes:
    lines = list(good)
    lines.insert(draw(st.integers(0, len(lines))), defect)
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


# keys here never repeat a defect's key, so no later line can override a defect
GOOD_CONFIG_LINE = st.sampled_from([
    "", "   ", "# comment", "#hp=x", "seed=3", " realization = 2 ", "noise-multiplier=0.5",
    "boundary=valid", "methods=classic,jaccard"]).map(str.encode)

BAD_CONFIG_LINE = st.one_of(
    st.sampled_from([
        "hp", "=", "=1", "bogus=1", "config=other.cfg", "out_dir", "hp=x", "hp=", "hp=0.5",
        "sigma_p=-1", "grid_n=1.5", "grid_n=1", "xs=0", "template_width=0", "noise_level=21",
        "noise_level=x", "hp=1\x00", "\x00=1", "٣=1", "x,value"]).map(str.encode),
    st.sampled_from([b"\xff", b"hp=\xfe2", b"\xc3(=1"]),   # not UTF-8
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), good=st.lists(GOOD_CONFIG_LINE, max_size=6), bad=BAD_CONFIG_LINE)
def test_malformed_config_file_ends_in_one_error_line(data, good, bad):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        config.write_bytes(_with_defect(data.draw, good, bad))
        _assert_one_error_line(*_correlate(Path(tmp), "--config", str(config)))


BAD_CELL = st.sampled_from(["", " ", "x", "1e", "0x1", "1\x002", "1,5", "nan", "inf", "1.2.3"])


@st.composite
def object_csv(draw):
    """x,value rows with one defect, blank and comment lines, maybe a header row."""
    n = draw(st.integers(3, 8))   # two samples make one step, uniform whatever x is
    x0, dx = draw(st.sampled_from([0.0, -1.5, 3.25])), draw(st.sampled_from([0.01, 0.1, 2.0]))
    xs = [x0 + i * dx for i in range(n)]
    values = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=n, max_size=n))
    defect = draw(st.sampled_from(["cell", "columns", "nonuniform", "decreasing", "nul",
                                   "utf8", "one_sample", "subnormal_dx"]))
    # a defect stays off the first data row, which may be read as a header row
    i = draw(st.integers(1, n - 1))
    if defect == "nonuniform":
        xs[i] += 0.37 * dx
    elif defect == "decreasing":
        xs.reverse()
    elif defect == "subnormal_dx":
        xs = [k * 1e-320 for k in range(n)]
    rows = [f"{format(x, '.17g')},{format(v, '.17g')}".encode() for x, v in zip(xs, values)]
    if defect == "cell":
        x_cell, v_cell = rows[i].split(b",")
        bad = draw(BAD_CELL).encode()
        rows[i] = bad + b"," + v_cell if draw(st.booleans()) else x_cell + b"," + bad
    elif defect == "columns":
        rows[i] = draw(st.sampled_from([b"1", b"1,2,3", b"1,,2", b"1;2"]))
    elif defect == "nul":
        cut = draw(st.integers(0, len(rows[i])))
        rows[i] = rows[i][:cut] + b"\x00" + rows[i][cut:]
    elif defect == "utf8":
        rows[i] += b"\xff"
    elif defect == "one_sample":
        rows = rows[:1]
    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from([b"", b"  ", b"# note", b"#1,2"]), max_size=2))
        lines.append(row)
    header = draw(st.sampled_from([[], [b"x,value"], [b"# object"], [b"# object", b"x,value"]]))
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(header + lines)


@settings(max_examples=150, deadline=None)
@given(text=object_csv())
def test_malformed_object_csv_ends_in_one_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "object.csv"
        path.write_bytes(text)
        _assert_one_error_line(*_correlate(Path(tmp), "--object", str(path)))


# ---------------------------------------------------------------------------
# A float flag's value given after a space or after `=`: argparse alone takes
# -1e1 or -inf after a space for an unknown option.  The subcommand is replaced
# by one that checks the scene as correlate and bench do and prints the values,
# so a drawn value such as a template width of 1e300 allocates nothing.

def _float_flags(command: str) -> list[str]:
    """The subcommand's flags whose value is a float, read from its defaults."""
    return sorted("--" + dest.replace("_", "-")
                  for dest, value in vars(cli._parse_args([command])).items()
                  if isinstance(value, float))


FLOAT_FLAGS = {command: _float_flags(command) for command in ("correlate", "bench")}

FLOAT_TEXT = st.one_of(
    st.floats().map(repr),                               # nan, -inf, -0.0, 1e-300, ...
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".2e")),
    st.sampled_from(["-1e1", "-1E+1", "-.5e2", "-inf", "-Infinity", "-nan", "+inf", "-1_0",
                     "-0", "1e400", "-1e400", " -1e1", "-1e1 "]),
)


def _scene_and_values(args) -> int:
    cli._object_spec(args)
    cli.TemplateSpec(args.template_width, args.template_amplitude)
    cli.NoiseSpec(multiplier=args.noise_multiplier)
    print(" ".join(f"{name}={value!r}" for name, value in sorted(vars(args).items())
                   if isinstance(value, float)))
    return 0


def _run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            patch.object(cli, "_cmd_correlate", _scene_and_values), \
            patch.object(cli, "_cmd_bench", _scene_and_values):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(FLOAT_FLAGS)), text=FLOAT_TEXT)
def test_float_flag_value_reads_the_same_after_a_space_as_after_equals(data, command, text):
    flag = data.draw(st.sampled_from(FLOAT_FLAGS[command]))
    spaced = _run_main([command, flag, text])
    assert spaced == _run_main([command, f"{flag}={text}"])
    _assert_clean_exit(spaced[0], spaced[2])
    if spaced[0] == 0:   # the flag took the value float() reads
        assert f"{flag[2:].replace('-', '_')}={float(text)!r}" in spaced[1].split()
