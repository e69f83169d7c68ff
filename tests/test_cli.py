"""Command-line interface: file outputs, determinism, config handling, errors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfcorr import NoiseSpec, ObjectSpec, SweepConfig, TemplateSpec, cli, gen_object
from mfcorr.cli import CliError, _parse_levels, _parse_methods, main
from mfcorr.sweep import CHUNK_ROWS, RECORD_COLUMNS

from golden.make_digests import SMALL_RECORDS


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_profile(path):
    lags, values = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("lag,"):
            continue
        a, b = line.split(",")
        lags.append(float(a))
        values.append(float(b))
    return np.asarray(lags), np.asarray(values)


# ---------------------------------------------------------------------------
# correlate


def test_correlate_writes_profiles_and_summary(tmp_path, capsys):
    code, out, err = _run(capsys, "correlate", "--methods", "classic,coincidence",
                          "--out-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert "wrote 2 profile(s)" in out
    for name in ("classic", "coincidence"):
        path = tmp_path / f"correlate_{name}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0].startswith(f"# method={name}")
        assert lines[1] == "lag,value"
        lags, values = _read_profile(path)
        assert lags.size == 640  # pad boundary keeps the object grid
        assert np.all(np.isfinite(values))
    # peak summary puts the tall object peak at its true position
    line = next(l for l in out.splitlines() if l.startswith("coincidence:"))
    assert "x1=4.5" in line and "x2=1.8" in line


def test_correlate_normalize_scales_peak_to_one(tmp_path, capsys):
    code, _, _ = _run(capsys, "correlate", "--methods", "classic", "--normalize",
                      "--out-dir", str(tmp_path))
    assert code == 0
    _, values = _read_profile(tmp_path / "correlate_classic.csv")
    assert np.max(np.abs(values)) == pytest.approx(1.0, abs=1e-12)


def test_correlate_noise_level_changes_profile(tmp_path, capsys):
    clean_dir, noisy_dir = tmp_path / "clean", tmp_path / "noisy"
    assert _run(capsys, "correlate", "--methods", "classic",
                "--out-dir", str(clean_dir))[0] == 0
    assert _run(capsys, "correlate", "--methods", "classic", "--noise-level", "15",
                "--out-dir", str(noisy_dir))[0] == 0
    _, clean = _read_profile(clean_dir / "correlate_classic.csv")
    _, noisy = _read_profile(noisy_dir / "correlate_classic.csv")
    assert not np.allclose(clean, noisy)


def test_correlate_stage_two_failure_names_the_combined_method(tmp_path, capsys):
    # a 401-sample template fits the 640-sample object under valid, but not its
    # 240-lag classic profile: the names before the combined one are written
    code, out, err = _run(capsys, "correlate", "--boundary", "valid", "--template-width", "4",
                          "--methods", "classic,combined_coincidence,jaccard",
                          "--out-dir", str(tmp_path))
    assert code == 1
    assert out.startswith("classic: x1=") and out.count("\n") == 1
    assert err == ("error: method combined_coincidence: template (401) longer than"
                   " object (240) under valid boundary\n")
    assert [p.name for p in tmp_path.iterdir()] == ["correlate_classic.csv"]


def test_correlate_object_csv_roundtrip(tmp_path, capsys):
    obj = gen_object(ObjectSpec())
    csv_path = tmp_path / "object.csv"
    lines = ["x,value"]
    for i, v in enumerate(obj.samples):
        lines.append(f"{format(obj.x0 + obj.dx * i, '.17g')},{format(float(v), '.17g')}")
    csv_path.write_text("\n".join(lines) + "\n")

    synth_dir, file_dir = tmp_path / "synth", tmp_path / "file"
    assert _run(capsys, "correlate", "--methods", "jaccard",
                "--out-dir", str(synth_dir))[0] == 0
    assert _run(capsys, "correlate", "--methods", "jaccard", "--object", str(csv_path),
                "--out-dir", str(file_dir))[0] == 0
    name = "correlate_jaccard_real.csv"
    synth_header, _, synth = (synth_dir / name).read_bytes().partition(b"\n")
    header, _, body = (file_dir / name).read_bytes().partition(b"\n")
    assert body == synth
    # the header names the object file; every other field is the synthetic run's
    assert header.replace(b" object=object.csv", b"") == synth_header


def test_correlate_output_reads_back_as_object(tmp_path, capsys):
    # a profile file opens with its `#` run header; its `lag,value` row comes second
    assert _run(capsys, "correlate", "--methods", "classic",
                "--out-dir", str(tmp_path / "first"))[0] == 0
    code, _, err = _run(capsys, "correlate", "--methods", "classic", "--object",
                        str(tmp_path / "first" / "correlate_classic.csv"),
                        "--out-dir", str(tmp_path / "second"))
    assert (code, err) == (0, "")
    assert (tmp_path / "second" / "correlate_classic.csv").exists()


def test_a_line_break_in_a_file_name_stays_in_one_header_line(tmp_path, capsys):
    # the object's and the records' file names go into the `#` header with
    # backslash escapes, so a profile written from such an object reads back
    assert _run(capsys, "correlate", "--methods", "classic",
                "--out-dir", str(tmp_path / "first"))[0] == 0
    obj = tmp_path / "ob\nj.csv"
    obj.write_bytes((tmp_path / "first" / "correlate_classic.csv").read_bytes())
    code, _, err = _run(capsys, "correlate", "--methods", "classic", "--object", str(obj),
                        "--out-dir", str(tmp_path / "second"))
    assert (code, err) == (0, "")
    profile = tmp_path / "second" / "correlate_classic.csv"
    header, columns = profile.read_text().splitlines()[:2]
    assert " object=ob\\nj.csv " in header and columns == "lag,value"
    code, _, err = _run(capsys, "correlate", "--methods", "classic", "--object", str(profile),
                        "--out-dir", str(tmp_path / "third"))
    assert (code, err) == (0, "")

    records = tmp_path / "rec\nords.csv"
    records.write_bytes(SMALL_RECORDS.read_bytes())
    code, _, _ = _run(capsys, "pca", "--records", str(records), "--levels", "10",
                      "--out-dir", str(tmp_path / "pca"))
    assert code == 0
    for name, columns in (("pca_10.csv", "label,pc1,pc2"), ("pca_meta_10.csv", "key,value")):
        lines = (tmp_path / "pca" / name).read_text().splitlines()
        assert lines[0].startswith("# records=rec\\nords.csv level=10 "), name
        assert lines[1] == columns, name


def _bad_object(path):
    path.write_text("x,v\n0,1\n0.1,2\nbad\n")


def _bad_config(path):
    path.write_text("seed = 1\nbogus\n")


def _bad_records(path):
    path.write_text(",".join(RECORD_COLUMNS) + "\nclassic,1,0,1,2\n")


def _constant_r_xp_records(path):
    _write_records(path, (1,), seed=5, r_xp=0.25)


@pytest.mark.parametrize("make,argv,code", [
    (None, ("correlate", "--methods", "classic", "--object"), 1),   # the file is missing
    (_bad_object, ("correlate", "--methods", "classic", "--object"), 1),
    (_bad_config, ("bench", "--config"), 1),
    (None, ("pca", "--levels", "1", "--records"), 1),   # the file is missing
    (_bad_records, ("pca", "--levels", "1", "--records"), 1),
    (_constant_r_xp_records, ("pca", "--levels", "1", "--records"), 0),   # a warning
], ids=["missing-object", "bad-object-row", "bad-config-line", "missing-records",
        "bad-records-row", "pca-warning"])
def test_a_line_break_in_a_file_name_stays_in_one_stderr_line(tmp_path, capsys, make, argv,
                                                               code):
    # an error or warning line names the file with backslash escapes, as the
    # `#` headers do; a name without a line break is printed as it is
    for name in ("in.txt", "i\nn.txt"):
        path = tmp_path / name
        if make:
            make(path)
        got, _, err = _run(capsys, *argv, str(path), "--out-dir", str(tmp_path / "out"))
        assert got == code, err
        assert err.startswith("error: " if code else "warning: ")
        assert err.count("\n") == 1 and err.endswith("\n"), err
        shown = name.encode("unicode_escape").decode()
        assert shown in err and (shown == name) == (name in err), err


def test_correlate_all_negative_object_reports_failed_detection(tmp_path, capsys):
    # a positive template on a negative object gives a negative classic profile
    obj = gen_object(ObjectSpec())
    csv_path = tmp_path / "object.csv"
    lines = ["x,value"] + [f"{obj.x0 + obj.dx * i!r},{-1.0 - float(v)!r}"
                           for i, v in enumerate(obj.samples)]
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = _run(capsys, "correlate", "--methods", "classic", "--object",
                          str(csv_path), "--out-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert "classic: peak detection failed: primary peak height" in out
    assert "w1=" not in out


def test_correlate_malformed_object_csv_names_line(tmp_path, capsys):
    path = tmp_path / "object.csv"
    path.write_text("x,value\n0.0,1.0\n0.1,oops\n")
    code, _, err = _run(capsys, "correlate", "--object", str(path),
                        "--out-dir", str(tmp_path))
    assert code == 1
    assert "error:" in err and f"{path}:3" in err


def test_correlate_nonuniform_object_csv_rejected(tmp_path, capsys):
    path = tmp_path / "object.csv"
    path.write_text("0.0,1.0\n0.1,2.0\n0.35,3.0\n")
    code, _, err = _run(capsys, "correlate", "--object", str(path),
                        "--out-dir", str(tmp_path))
    assert code == 1 and "uniformly increasing" in err


def test_correlate_subnormal_object_spacing_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "object.csv"
    path.write_text("0,1\n1e-320,2\n2e-320,3\n")
    code, _, err = _run(capsys, "correlate", "--object", str(path),
                        "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: dx must be positive") and err.count("\n") == 1


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a spacing of 1e-12 asks for a template of 1.2e12 samples; the allocation
    # itself is never attempted here, as a host that overcommits could grant it
    def no_memory(*args):
        raise MemoryError("Unable to allocate 8.73 TiB")

    monkeypatch.setattr(cli, "gen_template", no_memory)
    code, out, err = _run(capsys, "correlate", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: out of memory: Unable to allocate 8.73 TiB\n"


def test_unwritable_out_dir_is_one_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    code, _, err = _run(capsys, "correlate", "--methods", "classic",
                        "--out-dir", str(tmp_path / "file" / "sub"))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1


def test_correlate_unknown_method(tmp_path, capsys):
    code, _, err = _run(capsys, "correlate", "--methods", "fourier",
                        "--out-dir", str(tmp_path))
    assert code == 1 and "error:" in err and "fourier" in err


# ---------------------------------------------------------------------------
# bench


def _bench(capsys, out_dir, *extra):
    return _run(capsys, "bench", "--levels", "0,3", "--realizations", "2",
                "--methods", "classic,coincidence", "--out-dir", str(out_dir), *extra)


def test_bench_writes_records_and_aggregates(tmp_path, capsys):
    code, out, err = _bench(capsys, tmp_path)
    assert code == 0 and err == ""
    records = (tmp_path / "records.csv").read_text().splitlines()
    assert records[0].startswith("# methods=classic|coincidence")
    assert records[1].startswith("method,level,realization,")
    assert len(records) == 2 + 2 * 2 * 2  # comment + header + methods*levels*reals
    aggregates = (tmp_path / "aggregates.csv").read_text().splitlines()
    assert len(aggregates) == 2 + 2 * 2
    assert "8 records" in out


def test_bench_deterministic(tmp_path, capsys):
    dirs = [tmp_path / name for name in ("a", "b")]
    assert _bench(capsys, dirs[0])[0] == 0
    assert _bench(capsys, dirs[1])[0] == 0
    for name in ("records.csv", "aggregates.csv"):
        assert (dirs[1] / name).read_bytes() == (dirs[0] / name).read_bytes()


def test_bench_desk_scale_sets_realizations(tmp_path, capsys):
    code, _, _ = _run(capsys, "bench", "--levels", "0", "--desk-scale",
                      "--methods", "classic", "--out-dir", str(tmp_path))
    assert code == 0
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert "realizations=50" in header


@pytest.mark.parametrize("argv", [("--realizations", "3", "--desk-scale"),
                                  ("--desk-scale", "--realizations", "3")])
def test_bench_desk_scale_with_realizations_is_one_error_line(tmp_path, capsys, argv):
    code, out, err = _run(capsys, "bench", "--levels", "0", *argv,
                          "--out-dir", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert err.startswith("error: argument --") and err.count("\n") == 1
    assert "not allowed with argument --" in err
    assert not (tmp_path / "out").exists()


def test_bench_desk_scale_beats_config_realizations(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("realizations = 7\n")
    for flags, realizations in (((), 7), (("--desk-scale",), 50)):
        code, _, _ = _run(capsys, "bench", "--levels", "0", "--methods", "classic",
                          "--config", str(cfg), *flags, "--out-dir", str(tmp_path))
        assert code == 0
        header = (tmp_path / "records.csv").read_text().splitlines()[0]
        assert f" realizations={realizations} " in header, flags


@pytest.mark.parametrize("command", ["correlate", "bench"])
def test_shared_flag_defaults_are_the_library_defaults(command):
    args = cli._parse_args([command])
    noise, sweep = NoiseSpec(), SweepConfig()
    assert cli._object_spec(args) == ObjectSpec() == sweep.object_spec
    assert TemplateSpec(args.template_width, args.template_amplitude) == sweep.template_spec
    assert args.seed == noise.seed == sweep.base_seed
    assert args.noise_multiplier == noise.multiplier == sweep.noise_multiplier
    assert args.boundary == sweep.boundary
    assert _parse_methods(args.methods) == sweep.methods
    if command == "bench":
        assert args.realizations == sweep.realizations == 300
        assert _parse_levels(args.levels) == sweep.levels == tuple(range(21))
    else:
        assert (args.noise_level, args.realization) == (noise.level, noise.realization)


def test_bench_bad_levels(tmp_path, capsys):
    for levels in ("abc", "5-2", ""):
        code, _, err = _run(capsys, "bench", "--levels", levels,
                            "--out-dir", str(tmp_path))
        assert code == 1 and "error:" in err
    # an out-of-range level is refused by the level parser, before the sweep
    code, _, err = _run(capsys, "bench", "--levels", "25", "--out-dir", str(tmp_path))
    assert code == 1 and "error:" in err


@pytest.mark.parametrize("flag,value,repeated", [
    ("--levels", "3,3", "noise level 3"),
    ("--methods", "jaccard,jaccard_real", "method jaccard_real"),
    ("--methods", "classic,classic", "method classic"),
    ("--levels", "0-2,1", "noise level 1"),
])
def test_bench_repeated_levels_or_methods_rejected(tmp_path, capsys, flag, value, repeated):
    # correlate and pca refuse a repeat as bench does: one line, before any output
    commands = {
        "bench": ["--realizations", "2", "--levels", "3", "--methods", "classic"],
        "pca": ["--records", str(SMALL_RECORDS), "--levels", "10", "--methods", "classic"],
        "correlate": ["--methods", "classic"],   # takes no --levels
    }
    for command, argv in commands.items():
        if flag not in argv:
            continue
        argv[argv.index(flag) + 1] = value
        out_dir = tmp_path / command
        code, out, err = _run(capsys, command, *argv, "--out-dir", str(out_dir))
        assert code == 1 and out == "", command
        assert err == f"error: {repeated} given more than once\n", command
        assert not out_dir.exists(), command


def test_config_file_fills_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep settings\nhp = 3.0\nseed = 7\n")
    code, _, _ = _run(capsys, "bench", "--levels", "0", "--realizations", "1",
                      "--methods", "classic", "--config", str(cfg),
                      "--hp", "4.0", "--out-dir", str(tmp_path))
    assert code == 0
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert "hp=4" in header      # explicit flag beats the file
    assert "seed=7" in header    # file fills the untouched default


def test_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    code, _, _ = _run(capsys, "bench", "--levels", "0", "--realizations", "1",
                      "--methods", "classic", "--seed", "0", "--config", str(cfg),
                      "--out-dir", str(tmp_path))
    assert code == 0
    assert " seed=0 " in (tmp_path / "records.csv").read_text().splitlines()[0]


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("realizations = many\n")
    code, out, err = _run(capsys, "bench", "--levels", "0", "--config", str(cfg),
                          "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == (f"error: config file {cfg}: argument --realizations:"
                   " invalid int value: 'many'\n")


@pytest.mark.parametrize("line,flag,message", [
    ("realizations = many", ("--realizations", "1"),
     "argument --realizations: invalid int value: 'many'"),
    ("seed = x", ("--seed", "2"), "argument --seed: invalid int value: 'x'"),
    ("boundary = wrap", ("--boundary", "pad"),
     "argument --boundary: invalid choice: 'wrap'"),
])
def test_config_file_bad_value_refused_also_under_its_flag(tmp_path, capsys, line, flag,
                                                            message):
    # the command line's flag wins over the file's value, but the value is still checked
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    for flags in ((), flag):
        code, out, err = _run(capsys, "bench", "--levels", "0", "--methods", "classic",
                              "--config", str(cfg), *flags, "--out-dir", str(tmp_path))
        assert code == 1 and out == "", flags
        assert err.startswith(f"error: config file {cfg}: {message}") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv")), flags


@pytest.mark.parametrize("argv,message", [
    (["bench", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["bench", "--realizations", "x"], "argument --realizations: invalid int value: 'x'"),
    (["bench", "--boundary", "wrap"], "argument --boundary: invalid choice: 'wrap'"),
    (["pca"], "the following arguments are required: --records"),
    ([], "the following arguments are required: command"),
    (["bench", "--threads", "2"], "unrecognized arguments: --threads 2"),
    (["bench", "--methods", ""], "no methods given"),
    (["correlate", "--template-amplitude", "inf"], "template amplitude must be finite, got inf"),
    (["correlate", "--grid-end", "inf"], "grid end must be finite, got inf"),
    (["bench", "--noise-multiplier", "nan", "--levels", "0"],
     "noise multiplier must be finite, got nan"),
    # level 0 adds no noise, but the header would record the multiplier
    (["correlate", "--noise-multiplier", "inf"], "noise multiplier must be finite, got inf"),
    # a negative value that argparse alone would take for an unknown option
    (["correlate", "--xp", "-inf"], "x_p must be finite, got -inf"),
    (["bench", "--grid-start", "-1e400"], "grid start must be finite, got -inf"),
])
@pytest.mark.filterwarnings("error")   # and no numpy warning before the error line
def test_bad_flag_is_one_error_line(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_negative_value_in_exponent_form_reads_as_its_decimal_form(tmp_path, capsys):
    runs = []
    for start in ("-10", "-1e1", "-1E+1", "-10.0e0"):
        code, out, err = _run(capsys, "correlate", "--methods", "classic", "--grid-start", start,
                              "--out-dir", str(tmp_path))
        runs.append((code, out, err, (tmp_path / "correlate_classic.csv").read_bytes()))
    assert runs[0][0] == 0 and runs[0][2] == "" and "grid=-10:6.4:640" in runs[0][3].decode()
    assert runs == [runs[0]] * len(runs)


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(warnings, *argv):
    """mfcorr in a fresh interpreter as a user runs it, so the warning filters are the
    interpreter's own and not pytest's."""
    return subprocess.run(
        [sys.executable, *warnings, "-m", "mfcorr.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})


@pytest.mark.parametrize("warnings", [(), ("-W", "error")], ids=["plain", "W-error"])
@pytest.mark.parametrize("argv", [
    ["correlate"],
    ["bench", "--levels", "0", "--realizations", "2"],
    # two levels of a full chunk: with two CPUs a helper thread scores one, under the
    # caller's float checks
    ["bench", "--levels", "0,1", "--realizations", str(CHUNK_ROWS)],
], ids=["correlate", "bench", "bench-two-levels"])
def test_window_sums_out_of_float_range_are_one_error_line(tmp_path, argv, warnings):
    # finite heights whose window sums overflow
    proc = _run_fresh(warnings, *argv, "--methods", "classic", "--hp", "1e308", "--hs", "1e307",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of float range: overflow encountered in ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert list(tmp_path.iterdir()) == []   # no inf or nan profile, no all-nan records


HUGE_SCENE = ("--hp", "1e307", "--hs", "1e306", "--template-amplitude", "1e-10")


def test_totals_no_formula_reads_do_not_leave_the_float_range(tmp_path):
    # the scene's sum of |f| overflows but classic reads only DOT, whose sums are
    # finite; level 0's one-row stack scores as level 1's two-row stack
    proc = _run_fresh(("-W", "error"), "correlate", "--methods", "classic", *HUGE_SCENE,
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    proc = _run_fresh(("-W", "error"), "bench", "--methods", "classic", *HUGE_SCENE,
                      "--levels", "0-1", "--realizations", "2", "--out-dir", str(tmp_path))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    rows = (tmp_path / "records.csv").read_text().splitlines()[2:]
    assert len(rows) == 4 and len({row.split(",", 3)[3] for row in rows}) == 1
    assert "nan" not in rows[0]


@pytest.mark.parametrize("scene", ["huge", "alternating"])
def test_a_total_read_out_of_float_range_is_one_error_line(tmp_path, capsys, scene):
    if scene == "huge":
        argv, finite, reads_af = HUGE_SCENE, ("classic",), "jaccard_real"
    else:
        obj = tmp_path / "alternating.csv"
        obj.write_text("".join(f"{0.01 * i:.2f},{(-1) ** i * 1e307}\n" for i in range(640)))
        argv, finite, reads_af = ("--object", str(obj)), ("classic", "jaccard_addition"), \
            "interiority"
    for name in finite:
        code, _, err = _run(capsys, "correlate", "--methods", name, *argv,
                            "--out-dir", str(tmp_path / "ok"))
        assert code == 0 and err == "", (name, err)
    code, out, err = _run(capsys, "correlate", "--methods", ",".join(finite + (reads_af,)),
                          *argv, "--out-dir", str(tmp_path / "af"))
    assert code == 1 and out == ""
    assert err == "error: out of float range: overflow encountered in reduce\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    assert "--realizations" in capsys.readouterr().out


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hp = 3.0\nspeed = 11\n")
    code, _, err = _run(capsys, "bench", "--levels", "0", "--config", str(cfg),
                        "--out-dir", str(tmp_path))
    assert code == 1 and f"{cfg}:2" in err and "speed" in err


@pytest.mark.parametrize("argv,line", [
    (["pca", "--records", "records.csv"], "hp = 3"),
    (["pca", "--records", "records.csv"], "realizations = 7"),
    (["correlate"], "levels = 0-3"),
    (["correlate"], "normalize = 0"),   # a switch takes no value, so no config key either
])
def test_config_key_is_a_flag_of_the_subcommand(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\n{line}\n")
    code, out, err = _run(capsys, *argv, "--config", str(cfg), "--out-dir", str(tmp_path))
    key = line.partition(" ")[0]
    assert code == 1 and out == ""
    assert err == f"error: {cfg}:2: unknown config key {key!r}\n"
    assert not list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# pca


def test_pca_end_to_end(tmp_path, capsys):
    bench_dir = tmp_path / "bench"
    code, _, _ = _run(capsys, "bench", "--levels", "1", "--realizations", "5",
                      "--methods", "classic,jaccard_real,coincidence",
                      "--out-dir", str(bench_dir))
    assert code == 0
    pca_dir = tmp_path / "pca"
    code, out, err = _run(capsys, "pca", "--records", str(bench_dir / "records.csv"),
                          "--levels", "1", "--out-dir", str(pca_dir))
    # at level 1 all five realizations find the primary peak at the same x, so r_xp
    # has no variance
    assert code == 0
    assert err == "warning: level 1: dropping zero-variance columns: ['r_xp'] (records.csv)\n"
    assert "variance_explained_top2=" in out

    proj_lines = (pca_dir / "pca_1.csv").read_text().splitlines()
    assert proj_lines[0].startswith("# records=records.csv level=1")
    assert proj_lines[1] == "label,pc1,pc2"
    labels = [line.split(",")[0] for line in proj_lines[2:]]
    assert set(labels) == {"classic", "jaccard_real", "coincidence"}

    meta = dict(line.split(",", 1) for line in
                (pca_dir / "pca_meta_1.csv").read_text().splitlines()[2:])
    top2 = float(meta["variance_explained_top2"])
    assert 0.0 < top2 <= 1.0 + 1e-12
    assert int(meta["n_rows"]) == len(labels)
    assert "dispersion_classic" in meta


def test_pca_missing_column_schema_error(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("method,level,realization,r_xp\nclassic,1,0,0.0\n")
    code, _, err = _run(capsys, "pca", "--records", str(records),
                        "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and "missing required column" in err and "r_xs" in err
    assert str(records) in err


@pytest.mark.parametrize("row", [
    "classic,1,0,1,2",                        # short row
    "classic,1,0,1,2,x,4,5,6,1,1",            # non-numeric figure
    "classic,one,0,1,2,3,4,5,6,1,1",          # non-numeric level
    "\nclassic,1,0,1,2",                      # short row after a blank line
    "classic,3,0,1,2",                        # short row at a level not asked for
])
def test_pca_malformed_records_row_names_row(tmp_path, capsys, row):
    records = tmp_path / "records.csv"
    records.write_text("# comment\n" + ",".join(RECORD_COLUMNS) + "\n"
                       "classic,1,0,1,2,3,4,5,6,1,1\n" + row + "\n")
    code, _, err = _run(capsys, "pca", "--records", str(records),
                        "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    # blank lines are not data rows, so the bad row is the 2nd either way
    assert str(records) in err and "row 2" in err and repr(row.lstrip("\n")) in err


def test_pca_oversized_records_field_names_row(tmp_path, capsys):
    # the csv module refuses a field longer than its limit (131,072 characters)
    records = tmp_path / "records.csv"
    records.write_text(",".join(RECORD_COLUMNS) + "\n"
                       "classic,1,0,1,2,3,4,5,6,1,1\n" + "x" * 200_000 + ",1,0\n")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(records) in err and "row 2" in err and "field larger than field limit" in err


def test_pca_undecodable_records_row_names_row(tmp_path, capsys):
    # the text layer decodes the whole small file at once, before the reader sees row 1
    records = tmp_path / "records.csv"
    rows = [f"classic,1,{r},1,2,3,4,5,6,1,1".encode() for r in range(6)]
    rows[2] = rows[2].replace(b"classic", b"class\xffc")
    records.write_bytes(b"# comment\n" + ",".join(RECORD_COLUMNS).encode() + b"\n"
                        + b"\n".join(rows) + b"\n")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"records file {records}, row 3: not utf-8 text" in err
    assert "(byte 0xff at offset 5)" in err


GOOD_ROW = "classic,1,0,1,2,3,4,5,6,1,1"


@pytest.mark.parametrize("row", [
    'classic,"1",0,1,2,3,4,5,6,1,1',          # quoted level: the csv module read 1
    "classic,1_0,0,1,2,3,4,5,6,1,1",            # int() read 10
    "classic,\u0663,0,1,2,3,4,5,6,1,1",         # an Arabic-Indic 3: int() read 3
    "classic,1e3,0,1,2,3,4,5,6,1,1",            # refused before as well
    "classic,1.0,0,1,2,3,4,5,6,1,1",            # refused before as well
    "classic,99999999999999999999,0,1,2,3,4,5,6,1,1",   # beyond int64
    "classic,1,0,1_0,2,3,4,5,6,1,1",            # float() read 10
    'classic,1,0,"1",2,3,4,5,6,1,1',            # quoted figure: the csv module read 1
    '"classic",1,0,1,2,3,4,5,6,1,1',            # quoted method name
    'classic,1,0,1,2,3,4,5,6,1,"',              # the csv module joined the next line
    "   ",                                      # whitespace only
])
def test_pca_records_row_the_c_reader_refuses_names_row(tmp_path, capsys, row):
    records = tmp_path / "records.csv"
    records.write_text("# comment\n" + ",".join(RECORD_COLUMNS) + "\n" + GOOD_ROW
                       + "\n# comment between rows\n\n" + row + "\n" + GOOD_ROW + "\n",
                       encoding="utf-8")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"records file {records}, row 2: " in err and repr(row) in err


def test_pca_oversized_records_figure_names_row(tmp_path, capsys):
    # loadtxt would read it as inf; the csv module refused it, and so does pca
    records = tmp_path / "records.csv"
    records.write_text(",".join(RECORD_COLUMNS) + "\n" + GOOD_ROW + "\n"
                       "classic,1,1," + "9" * 140_000 + ",2,3,4,5,6,1,1\n")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert f"records file {records}, row 2: field larger than field limit" in err


def test_pca_short_row_without_its_last_column_method_names_row(tmp_path, capsys):
    # the method column after the figures: the row below has every number but no method
    records = tmp_path / "records.csv"
    columns = [c for c in RECORD_COLUMNS if c != "method"] + ["method"]
    records.write_text(",".join(columns) + "\n1,0,1,2,3,4,5,6,1,1,classic\n"
                       "1,1,1,2,3,4,5,6\n")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == "" and err.count("\n") == 1
    assert f"records file {records}, row 2: " in err and "'1,1,1,2,3,4,5,6'" in err


def test_pca_header_only_records_file_is_one_error_line(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("# no rows\n" + ",".join(RECORD_COLUMNS) + "\n")
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: level 1: not enough complete rows at level 1\n"


def _write_records(path, levels, seed, r_xp=None):
    """Four realizations of the three default PCA methods per level, random figures."""
    rng = np.random.default_rng(seed)
    lines = [",".join(RECORD_COLUMNS)]
    for level in levels:
        for r in range(4):
            for method in ("classic", "jaccard_real", "coincidence"):
                figures = rng.normal(size=6)
                if r_xp is not None:
                    figures[0] = r_xp
                lines.append(f"{method},{level},{r},"
                             + ",".join(format(v, ".9g") for v in figures) + ",1,1")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("warnings", [(), ("-W", "error")], ids=["plain", "W-error"])
def test_pca_figures_out_of_float_range_are_one_error_line(tmp_path, warnings):
    # 15 rows of finite figures at level 1 whose column sums overflow
    rng = np.random.default_rng(1)
    records = tmp_path / "records.csv"
    records.write_text("\n".join([",".join(RECORD_COLUMNS)] + [
        f"{method},1,{r}," + ",".join(format(v, ".9g") for v in 1e308 * rng.uniform(-1, 1, 6))
        + ",1,1" for r in range(5) for method in ("classic", "jaccard_real", "coincidence")])
        + "\n")
    out_dir = tmp_path / "out"
    proc = _run_fresh(warnings, "pca", "--records", str(records), "--levels", "1",
                      "--out-dir", str(out_dir))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: level 1: out of float range: overflow encountered in ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert list(out_dir.iterdir()) == []


def test_pca_warnings_name_level_and_records_file(tmp_path, capsys):
    records = tmp_path / "records.csv"
    _write_records(records, (1,), seed=5, r_xp=0.25)
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1", "--out-dir", str(tmp_path))
    assert code == 0
    assert err == "warning: level 1: dropping zero-variance columns: ['r_xp'] (records.csv)\n"
    assert out.startswith("level 1: n=12 variance_explained_top2=")
    assert "dropped_columns,r_xp" in (tmp_path / "pca_meta_1.csv").read_text()


def test_pca_parses_records_file_once(tmp_path, capsys, monkeypatch):
    import mfcorr.pca as pca_mod

    records = tmp_path / "records.csv"
    _write_records(records, (1, 10, 20), seed=6)
    calls = []
    read_records = pca_mod.read_records
    monkeypatch.setattr(pca_mod, "read_records",
                        lambda path: calls.append(path) or read_records(path))
    code, out, err = _run(capsys, "pca", "--records", str(records),
                          "--levels", "1,10,20", "--out-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert calls == [str(records)]
    assert out.count("n=12 ") == 3


def test_pca_missing_records_file(tmp_path, capsys):
    # a missing file and a directory are named, as correlate --object names its file
    for path in (tmp_path / "nope.csv", tmp_path):
        code, _, err = _run(capsys, "pca", "--records", str(path),
                            "--levels", "1", "--out-dir", str(tmp_path / "out"))
        assert code == 1 and err.startswith(f"error: cannot read records file {path}: "), err


# ---------------------------------------------------------------------------
# parsing helpers


def test_parse_levels_ranges():
    assert _parse_levels("0,3,5-8") == (0, 3, 5, 6, 7, 8)
    assert _parse_levels("20") == (20,)
    with pytest.raises(CliError):
        _parse_levels("5-2")
    with pytest.raises(CliError):
        _parse_levels("x")
    with pytest.raises(CliError):
        _parse_levels(",")
    with pytest.raises(CliError, match="outside 0..20"):
        _parse_levels("0-21")
    # a single level is checked as the range lo = hi, a leading minus as its sign
    for level in ("25", "-1"):
        with pytest.raises(CliError, match=f"^bad level '{level}': outside 0..20$"):
            _parse_levels(level)


def test_bench_level_range_outside_rejected_by_parser(tmp_path, capsys):
    # the range is checked at its endpoints, before it is expanded
    code, out, err = _run(capsys, "bench", "--levels", "0-21", "--realizations", "1",
                          "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: bad level range '0-21': outside 0..20\n"
    assert not (tmp_path / "records.csv").exists()


def test_pca_level_outside_rejected_before_any_read(tmp_path, capsys):
    # a level out of range ends in one error line before the records file is opened
    code, out, err = _run(capsys, "pca", "--records", str(tmp_path / "missing.csv"),
                          "--levels", "25", "--out-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == "error: bad level '25': outside 0..20\n"


def test_parse_methods_aliases(capsys):
    assert _parse_methods("jaccard,correlation") == ("jaccard_real", "classic")
    assert main(["bench", "--methods", "combined_classic"]) == 1
    assert capsys.readouterr().err == (
        "error: combined methods need a multiset inner method, not classic\n")
