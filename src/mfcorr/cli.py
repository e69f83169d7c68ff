"""Command-line interface: single-profile correlation, noise sweeps, and PCA."""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import pca as pca_mod
from .correlate import BOUNDARIES, CorrelationResult
from .generators import (DEFAULT_GRID, DEFAULT_TEMPLATE_AMPLITUDE,
                         DEFAULT_TEMPLATE_WIDTH, NoiseSpec, ObjectSpec,
                         TemplateSpec, add_noise, gen_object, gen_template)
from .peaks import detect_peaks
from .signal import DomainError, Signal
from .sweep import (DEFAULT_METHODS, SweepConfig, _fmt, canonical_method,
                    method_profile, run_sweep, write_aggregates_csv, write_csv,
                    write_records_csv)

_FLOAT_KEYS = {"hp", "hs", "sigma_p", "sigma_s", "xp", "xs", "grid_start",
               "grid_end", "template_width", "template_amplitude",
               "noise_multiplier"}
_INT_KEYS = {"grid_n", "seed", "noise_level", "realization", "realizations",
             "threads"}
_STR_KEYS = {"boundary", "methods", "levels"}


class CliError(Exception):
    """User-facing failure; printed as a single line and exits nonzero."""


def _parse_config_file(path: str) -> dict[str, str]:
    """`key=value` per line; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FLOAT_KEYS | _INT_KEYS | _STR_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _apply_config(args: argparse.Namespace) -> None:
    """Fill args from the config file wherever the command line kept the default."""
    if not args.config:
        return
    cfg = _parse_config_file(args.config)
    for key, raw in cfg.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) != args.subparser.get_default(key):
            continue  # explicit flag wins over the file
        try:
            if key in _FLOAT_KEYS:
                setattr(args, key, float(raw))
            elif key in _INT_KEYS:
                setattr(args, key, int(raw))
            else:
                setattr(args, key, raw)
        except ValueError as exc:
            raise CliError(f"config key {key}: {exc}") from exc


def _parse_levels(text: str) -> tuple[int, ...]:
    """Comma list with ranges: "0,3,5-8" -> (0, 3, 5, 6, 7, 8)."""
    levels: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # allow a leading minus to fail int() below
            lo_s, _, hi_s = part.partition("-")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise CliError(f"bad level range {part!r}") from None
            if hi < lo:
                raise CliError(f"bad level range {part!r}: end before start")
            levels.extend(range(lo, hi + 1))
        else:
            try:
                levels.append(int(part))
            except ValueError:
                raise CliError(f"bad level {part!r}") from None
    if not levels:
        raise CliError("no noise levels given")
    return tuple(levels)


def _parse_methods(text: str) -> tuple[str, ...]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise CliError("no methods given")
    try:
        return tuple(canonical_method(n) for n in names)
    except DomainError as exc:
        raise CliError(str(exc)) from exc


def _object_spec(args: argparse.Namespace) -> ObjectSpec:
    try:
        return ObjectSpec(h_p=args.hp, h_s=args.hs,
                          sigma_p=args.sigma_p, sigma_s=args.sigma_s,
                          x_p=args.xp, x_s=args.xs,
                          grid=(args.grid_start, args.grid_end, args.grid_n))
    except (DomainError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _load_object_csv(path: str) -> Signal:
    """Two-column x,value CSV; x must be uniformly spaced."""
    xs: list[float] = []
    vals: list[float] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read object file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if lineno == 1 and parts and not _is_float(parts[0]):
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


def _write_profile_csv(result: CorrelationResult, path: Path, comment: str) -> None:
    write_csv(path, ("lag", "value"), zip(result.lags.tolist(), result.values.tolist()),
              comment)


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_correlate(args: argparse.Namespace) -> int:
    spec = _object_spec(args)
    obj = _load_object_csv(args.object) if args.object else gen_object(spec)
    template = gen_template(TemplateSpec(args.template_width, args.template_amplitude),
                            obj.dx)
    if args.noise_level:
        noise = NoiseSpec(args.noise_level, args.seed, args.realization,
                          args.noise_multiplier)
        obj = add_noise(obj, noise)

    methods = _parse_methods(args.methods)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    wrote = 0
    for name in methods:
        try:
            profile = method_profile(name, obj, template, boundary=args.boundary)
        except DomainError as exc:
            raise CliError(f"method {name}: {exc}") from exc
        if args.normalize:
            profile = profile.normalized()
        comment = (f"# method={name} boundary={args.boundary}"
                   f" noise_level={args.noise_level} seed={args.seed}"
                   f" realization={args.realization}"
                   f" noise_multiplier={_fmt(args.noise_multiplier)}"
                   f" normalize={int(bool(args.normalize))}")
        _write_profile_csv(profile, out_dir / f"correlate_{name}.csv", comment)
        wrote += 1
        try:
            pm = detect_peaks(profile.normalized(), spec)
            summary = f"x1={pm.x1:.6g} h1={pm.h1:.6g} w1={pm.w1:.6g}"
            if pm.has_secondary:
                summary += f" x2={pm.x2:.6g} h2={pm.h2:.6g} w2={pm.w2:.6g}"
            else:
                summary += " (no secondary peak)"
        except DomainError as exc:
            summary = f"peak detection failed: {exc}"
        print(f"{name}: {summary}")
    print(f"wrote {wrote} profile(s) to {out_dir}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = _object_spec(args)
    levels = _parse_levels(args.levels)
    realizations = args.realizations
    if args.desk_scale:
        realizations = 50
    methods = _parse_methods(args.methods) if args.methods else DEFAULT_METHODS
    try:
        cfg = SweepConfig(methods=methods, object_spec=spec,
                          template_spec=TemplateSpec(args.template_width,
                                                     args.template_amplitude),
                          levels=levels, realizations=realizations,
                          base_seed=args.seed,
                          noise_multiplier=args.noise_multiplier,
                          boundary=args.boundary)
    except (DomainError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    # --threads is accepted as a scheduling hint only; results are a pure
    # function of the config, so it must never change the output bytes.
    result = run_sweep(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    aggregates_path = out_dir / "aggregates.csv"
    write_records_csv(result, records_path)
    write_aggregates_csv(result, aggregates_path)
    n_records = len(result.records)
    print(f"wrote {records_path} ({n_records} records) and {aggregates_path}")
    return 0


def _cmd_pca(args: argparse.Namespace) -> int:
    levels = _parse_levels(args.levels)
    methods = _parse_methods(args.methods)
    records_name = Path(args.records).name
    try:
        records = pca_mod.read_records(args.records)
    except (pca_mod.AnalysisError, OSError) as exc:
        raise CliError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = 0
    for level in levels:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                matrix = pca_mod.level_matrix(records, level, methods)
                model = pca_mod.pca_fit(matrix)
                projections = pca_mod.project(matrix, model)
                dispersions = pca_mod.group_dispersion(projections)
            except pca_mod.AnalysisError as exc:
                raise CliError(f"level {level}: {exc}") from exc
        for warning in caught:
            print(f"warning: level {level}: {warning.message} ({records_name})",
                  file=sys.stderr)
        comment = (f"# records={records_name} level={level}"
                   f" methods={','.join(methods)}")
        pca_mod.write_projection_csv(projections, out_dir / f"pca_{level}.csv", comment)
        pca_mod.write_meta_csv(model, matrix, dispersions,
                               out_dir / f"pca_meta_{level}.csv", comment)
        top2 = sum(model.variance_explained)
        print(f"level {level}: n={matrix.values.shape[0]}"
              f" variance_explained_top2={top2:.4f}")
        wrote += 2
    print(f"wrote {wrote} file(s) to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("object and template")
    g.add_argument("--hp", type=float, default=2.0, help="primary peak height")
    g.add_argument("--hs", type=float, default=1.0, help="secondary peak height")
    g.add_argument("--sigma-p", dest="sigma_p", type=float, default=0.3)
    g.add_argument("--sigma-s", dest="sigma_s", type=float, default=0.15)
    g.add_argument("--xp", type=float, default=4.5, help="primary peak position")
    g.add_argument("--xs", type=float, default=1.8, help="secondary peak position")
    g.add_argument("--grid-start", dest="grid_start", type=float,
                   default=DEFAULT_GRID[0])
    g.add_argument("--grid-end", dest="grid_end", type=float,
                   default=DEFAULT_GRID[1])
    g.add_argument("--grid-n", dest="grid_n", type=int, default=DEFAULT_GRID[2])
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
    parser = argparse.ArgumentParser(
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
    p_bench.add_argument("--realizations", type=int, default=300)
    p_bench.add_argument("--desk-scale", dest="desk_scale", action="store_true",
                         help="preset: 50 realizations for quick runs")
    p_bench.add_argument("--threads", type=int, default=1,
                         help="scheduling hint; never changes results")
    p_bench.add_argument("--out-dir", dest="out_dir", default=".")
    p_bench.set_defaults(func=_cmd_bench, subparser=p_bench)

    p_pca = sub.add_parser("pca", help="project merit figures on 2 principal axes")
    p_pca.add_argument("--records", required=True, help="records.csv from bench")
    p_pca.add_argument("--levels", default="1,10,20")
    p_pca.add_argument("--methods", default="classic,jaccard,coincidence")
    p_pca.add_argument("--out-dir", dest="out_dir", default=".")
    p_pca.add_argument("--config", default=None,
                       help="key=value file; explicit flags override it")
    p_pca.set_defaults(func=_cmd_pca, subparser=p_pca)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (CliError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
