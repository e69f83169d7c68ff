"""Command-line interface: single-profile correlation, noise sweeps, and PCA."""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import pca as pca_mod
from .correlate import BOUNDARIES, CorrelationResult, canonical_method, profiles
from .generators import (DEFAULT_TEMPLATE_AMPLITUDE, DEFAULT_TEMPLATE_WIDTH, N_NOISE_LEVELS,
                         NoiseSpec, ObjectSpec, TemplateSpec, add_noise, gen_object,
                         gen_template)
from .peaks import detect_peaks
from .signal import DomainError, Signal
from .sweep import (DEFAULT_METHODS, SweepConfig, one_line, require_distinct, run_header,
                    run_sweep, scene_fields, write_aggregates_csv, write_csv, write_records_csv)

class CliError(Exception):
    """User-facing failure; printed as a single line and exits nonzero."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or value as a CliError, not as usage text and exit code 2."""

    def error(self, message):
        raise CliError(message)


def _data_lines(path: str, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line of a text file but blank and # comment lines."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    lines = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def _parse_config_file(path: str, keys: set[str]) -> dict[str, str]:
    """`key=value` per line, each key one of keys; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    for lineno, line in _data_lines(path, "config file"):
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse the command line; a --config file's values stand in for the defaults.

    The file is read after a first parse and its values become the subcommand's
    defaults for a second one, so a flag given on the command line always wins,
    even when it repeats the built-in default.  Its keys are the subcommand's
    flags that take a value, and each value must be one its flag would take,
    whether or not the command line gives that flag too.
    """
    parser = build_parser()
    # argparse reads -10 after a flag as its value but -1e1 or -inf as an option: join them
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        flag, token = argv[i - 1:i + 1]
        if flag.startswith("--") and "=" not in flag and token[:1] == "-" and _is_float(token):
            argv[i - 1:i + 1] = [f"{flag}={token}"]
    args = parser.parse_args(argv)
    if args.config:
        keys = {k for k, v in vars(args).items() if not isinstance(v, bool)}
        keys -= {"command", "config", "func", "subparser"}
        values = _parse_config_file(args.config, keys)
        _check_config_values(args.subparser, args.config, values)
        args.subparser.set_defaults(**values)
        args = parser.parse_args(argv)
    return args


def _check_config_values(subparser: argparse.ArgumentParser, path: str,
                         values: dict[str, str]) -> None:
    """Refuse a config value that its flag would refuse on the command line.

    argparse converts a string default only for a flag the command line left out,
    and checks no default against the flag's choices, so every value is parsed here
    by a parser of the file's flags alone, each with its flag's type and choices.
    """
    checker, tokens = _Parser(add_help=False), []
    for action in subparser._actions:
        if action.dest in values and action.nargs is None:   # not a store_const alias
            flag = action.option_strings[0]
            checker.add_argument(flag, dest=action.dest, type=action.type,
                                 choices=action.choices)
            tokens.append(f"{flag}={values[action.dest]}")
    try:
        checker.parse_args(tokens)
    except CliError as exc:
        raise CliError(f"config file {path}: {exc}") from None


def _parse_levels(text: str) -> tuple[int, ...]:
    """Comma list with ranges: "0,3,5-8" -> (0, 3, 5, 6, 7, 8); ranges checked before expansion."""
    levels: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        # a single level is the range lo = hi; a leading minus is its sign, refused below
        lo_s, dash, hi_s = part.partition("-") if "-" in part[1:] else (part, "", part)
        what = "level range" if dash else "level"
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise CliError(f"bad {what} {part!r}") from None
        if hi < lo:
            raise CliError(f"bad {what} {part!r}: end before start")
        if lo < 0 or hi >= N_NOISE_LEVELS:
            raise CliError(f"bad {what} {part!r}: outside 0..{N_NOISE_LEVELS - 1}")
        levels.extend(range(lo, hi + 1))
    if not levels:
        raise CliError("no noise levels given")
    require_distinct("noise level", levels)
    return tuple(levels)


def _parse_methods(text: str) -> tuple[str, ...]:
    """Canonical method names of a comma list; an alias repeats its canonical name."""
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise CliError("no methods given")
    methods = tuple(canonical_method(n) for n in names)
    require_distinct("method", methods)
    return methods


def _object_spec(args: argparse.Namespace) -> ObjectSpec:
    return ObjectSpec(h_p=args.hp, h_s=args.hs,
                      sigma_p=args.sigma_p, sigma_s=args.sigma_s,
                      x_p=args.xp, x_s=args.xs,
                      grid=(args.grid_start, args.grid_end, args.grid_n))


def _load_object_csv(path: str) -> Signal:
    """Two-column x,value CSV; x must be uniformly spaced."""
    xs: list[float] = []
    vals: list[float] = []
    for row, (lineno, line) in enumerate(_data_lines(path, "object file")):
        parts = line.split(",")
        if row == 0 and not _is_float(parts[0]):
            continue  # header row
        if len(parts) != 2 or not (_is_float(parts[0]) and _is_float(parts[1])):
            raise CliError(f"{path}:{lineno}: expected two numeric columns, got {line!r}")
        xs.append(float(parts[0]))
        vals.append(float(parts[1]))
    if len(xs) < 2:
        raise CliError(f"object file {path} needs at least 2 samples")
    x = np.asarray(xs)
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-6, atol=1e-12):
        raise CliError(f"object file {path}: x column must be uniformly increasing")
    return Signal(np.asarray(vals), x0=float(x[0]), dx=dx)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_correlate(args: argparse.Namespace) -> int:
    spec = _object_spec(args)
    obj = _load_object_csv(args.object) if args.object else gen_object(spec)
    template_spec = TemplateSpec(args.template_width, args.template_amplitude)
    template = gen_template(template_spec, obj.dx)
    # checked at level 0 too, as the header records it
    noise = NoiseSpec(args.noise_level, args.seed, args.realization, args.noise_multiplier)
    if args.noise_level:
        obj = add_noise(obj, noise)

    methods = _parse_methods(args.methods)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = dict(boundary=args.boundary, noise_level=args.noise_level, seed=args.seed,
               realization=args.realization, noise_multiplier=args.noise_multiplier,
               normalize=int(args.normalize))
    if args.object:
        run["object"] = Path(args.object).name

    # one profiles() call, so the names share its window sums and its stage 2;
    # a name it could not make fails where its own call failed before
    made, failure = {}, None
    try:
        for name, lags, values in profiles(obj.samples, obj.x0, obj.dx, template,
                                           methods, args.boundary):
            made[name] = CorrelationResult(lags, values[0])
    except DomainError as exc:
        failure = exc
    for name in methods:
        if name not in made:
            raise CliError(f"method {name}: {failure}") from failure
        profile = made[name]
        if args.normalize:
            profile = profile.normalized()
        comment = run_header(method=name, **run, **scene_fields(spec, template_spec))
        write_csv(out_dir / f"correlate_{name}.csv", ("lag", "value"),
                  (profile.lags, profile.values), comment)
        try:
            pm = detect_peaks(profile.normalized(), spec)
            summary = f"x1={pm.x1:.6g} h1={pm.h1:.6g} w1={pm.w1:.6g}"
            if not np.isnan(pm.x2):
                summary += f" x2={pm.x2:.6g} h2={pm.h2:.6g} w2={pm.w2:.6g}"
            else:
                summary += " (no secondary peak)"
        except DomainError as exc:
            summary = f"peak detection failed: {exc}"
        print(f"{name}: {summary}")
    print(f"wrote {len(methods)} profile(s) to {out_dir}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = _object_spec(args)
    levels = _parse_levels(args.levels)
    cfg = SweepConfig(methods=_parse_methods(args.methods), object_spec=spec,
                      template_spec=TemplateSpec(args.template_width,
                                                 args.template_amplitude),
                      levels=levels, realizations=args.realizations,
                      base_seed=args.seed,
                      noise_multiplier=args.noise_multiplier,
                      boundary=args.boundary)
    result = run_sweep(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    aggregates_path = out_dir / "aggregates.csv"
    write_records_csv(result, records_path)
    write_aggregates_csv(result, aggregates_path)
    print(f"wrote {records_path} ({len(result.records)} records) and {aggregates_path}")
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    levels = _parse_levels(args.levels)
    methods = _parse_methods(args.methods)
    records_name = Path(args.records).name
    records = pca_mod.read_records(args.records)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for level in levels:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                matrix = pca_mod.level_matrix(records, level, methods)
                model = pca_mod.pca_fit(matrix)
                scores = pca_mod.project(matrix, model)
                dispersions = pca_mod.group_dispersion(matrix.labels, scores)
            except pca_mod.AnalysisError as exc:
                raise CliError(f"level {level}: {exc}") from exc
            except FloatingPointError as exc:
                raise CliError(f"level {level}: out of float range: {exc}") from exc
        for warning in caught:
            print(one_line(f"warning: level {level}: {warning.message} ({records_name})"),
                  file=sys.stderr)
        comment = run_header(records=records_name, level=level, methods=",".join(methods))
        pca_mod.write_projection_csv(matrix.labels, scores, out_dir / f"pca_{level}.csv",
                                     comment)
        pca_mod.write_meta_csv(model, matrix, dispersions,
                               out_dir / f"pca_meta_{level}.csv", comment)
        top2 = sum(model.variance_explained)
        print(f"level {level}: n={matrix.values.shape[0]}"
              f" variance_explained_top2={top2:.4f}")
    print(f"wrote {2 * len(levels)} file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    scene = ObjectSpec()
    g = parser.add_argument_group("object and template")
    g.add_argument("--hp", type=float, default=scene.h_p, help="primary peak height")
    g.add_argument("--hs", type=float, default=scene.h_s, help="secondary peak height")
    g.add_argument("--sigma-p", dest="sigma_p", type=float, default=scene.sigma_p)
    g.add_argument("--sigma-s", dest="sigma_s", type=float, default=scene.sigma_s)
    g.add_argument("--xp", type=float, default=scene.x_p, help="primary peak position")
    g.add_argument("--xs", type=float, default=scene.x_s, help="secondary peak position")
    g.add_argument("--grid-start", dest="grid_start", type=float, default=scene.grid[0])
    g.add_argument("--grid-end", dest="grid_end", type=float, default=scene.grid[1])
    g.add_argument("--grid-n", dest="grid_n", type=int, default=scene.grid[2])
    g.add_argument("--template-width", dest="template_width", type=float,
                   default=DEFAULT_TEMPLATE_WIDTH)
    g.add_argument("--template-amplitude", dest="template_amplitude", type=float,
                   default=DEFAULT_TEMPLATE_AMPLITUDE)
    parser.add_argument("--noise-multiplier", dest="noise_multiplier", type=float,
                        default=1.0, help="scales the per-level noise amplitude")
    parser.add_argument("--boundary", choices=BOUNDARIES, default="pad")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None,
                        help="key=value file; explicit flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfcorr",
        description="Similarity-based template matching for 1-D signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_corr = sub.add_parser("correlate",
                            help="write correlation profiles for one object")
    _add_shared_flags(p_corr)
    p_corr.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_corr.add_argument("--noise-level", dest="noise_level", type=int, default=0)
    p_corr.add_argument("--realization", type=int, default=0)
    p_corr.add_argument("--object", default=None,
                        help="x,value CSV replacing the synthetic object")
    p_corr.add_argument("--normalize", action="store_true",
                        help="scale each profile by its peak magnitude")
    p_corr.add_argument("--out-dir", dest="out_dir", default=".")
    p_corr.set_defaults(func=_cmd_correlate, subparser=p_corr)

    p_bench = sub.add_parser("bench", help="run the noise sweep benchmark")
    _add_shared_flags(p_bench)
    p_bench.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    p_bench.add_argument("--levels", default="0-20",
                         help="comma list with ranges, e.g. 0,5,10-20")
    scale = p_bench.add_mutually_exclusive_group()
    scale.add_argument("--realizations", type=int, default=300)
    scale.add_argument("--desk-scale", dest="realizations", action="store_const", const=50,
                       help="preset: 50 realizations for quick runs")
    p_bench.add_argument("--out-dir", dest="out_dir", default=".")
    p_bench.set_defaults(func=_cmd_bench, subparser=p_bench)

    p_pca = sub.add_parser("pca", help="project merit figures on 2 principal axes")
    p_pca.add_argument("--records", required=True, help="records.csv from bench")
    p_pca.add_argument("--levels", default="1,10,20")
    p_pca.add_argument("--methods", default=",".join(pca_mod.DEFAULT_PCA_METHODS))
    p_pca.add_argument("--out-dir", dest="out_dir", default=".")
    p_pca.add_argument("--config", default=None,
                       help="key=value file; explicit flags override it")
    p_pca.set_defaults(func=_cmd_pca, subparser=p_pca)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        # a command stops with a FloatingPointError where a value leaves the float range
        # (the window sums of huge finite inputs, the column sums of huge finite figures)
        # instead of warning and writing inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (CliError, ValueError, OSError, MemoryError,  # DomainError is a ValueError
            FloatingPointError) as exc:
        cause = ("out of memory: " if isinstance(exc, MemoryError) else
                 "out of float range: " if isinstance(exc, FloatingPointError) else "")
        print(one_line(f"error: {cause}{exc}"), file=sys.stderr)   # a file name may break lines
        return 1


if __name__ == "__main__":
    sys.exit(main())
