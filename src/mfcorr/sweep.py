"""Monte-Carlo noise sweep: run methods over noise levels, aggregate merit figures.

Within one (level, realization) cell every method sees the identical noisy
object, so cross-method comparisons are paired.  A noise level is the batch:
its realizations are stacked and profiled together, with one kernel call for
the plain methods and the combined methods' first stage and one for their
second stage, while peak detection and the merit figures run per cell.  Cells
stay independent in their results: a record equals what method_profile and
the per-cell steps give for that cell alone, so the whole sweep is a pure
function of its configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# method_profile is imported to stay public as mfcorr.sweep.method_profile too
from .correlate import (BOUNDARIES, CorrelationResult, canonical_method,  # noqa: F401
                        method_profile, profiles)
from .generators import (N_NOISE_LEVELS, NoiseSpec, ObjectSpec, TemplateSpec, add_noise,
                         gen_object, gen_template)
from .indices import EPS_DENOM
from .metrics import INDEX_NAMES, compute_indices
from .peaks import detect_peaks
from .signal import DomainError

DEFAULT_METHODS = ("classic", "jaccard_real", "coincidence", "combined_coincidence")

RECORD_COLUMNS = ("method", "level", "realization") + INDEX_NAMES + (
    "primary_found", "secondary_found")


@dataclass(frozen=True)
class SweepConfig:
    methods: tuple[str, ...] = DEFAULT_METHODS
    object_spec: ObjectSpec = field(default_factory=ObjectSpec)
    template_spec: TemplateSpec = field(default_factory=TemplateSpec)
    levels: tuple[int, ...] = tuple(range(N_NOISE_LEVELS))
    realizations: int = 300
    base_seed: int = 0
    noise_multiplier: float = 1.0
    boundary: str = "pad"

    def __post_init__(self):
        object.__setattr__(self, "methods",
                           tuple(canonical_method(m) for m in self.methods))
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        if not self.methods:
            raise DomainError("at least one method required")
        for what, items in (("method", self.methods), ("noise level", self.levels)):
            repeated = [v for i, v in enumerate(items) if v in items[:i]]
            if repeated:
                raise DomainError(f"{what} {repeated[0]} given more than once")
        for v in self.levels:
            if not (0 <= v < N_NOISE_LEVELS):
                raise DomainError(f"noise level {v} out of range 0..{N_NOISE_LEVELS - 1}")
        if self.realizations < 1:
            raise DomainError("realizations must be >= 1")
        if self.boundary not in BOUNDARIES:
            raise DomainError(f"unknown boundary policy {self.boundary!r}")


@dataclass(frozen=True)
class Records:
    """Sweep records as one packed table, a row per (method, level, realization) cell.

    figures holds the six merit figures in INDEX_NAMES order, nan where one is
    missing.  A nan r_xp means the primary peak was not found and a nan r_h the
    secondary, so primary_found and secondary_found are read from them.  run_sweep
    orders the rows by level, then realization, then method.
    """

    methods: tuple[str, ...]        # method name of each code
    codes: np.ndarray               # (N,) int64 method codes
    levels: np.ndarray              # (N,) int64 noise levels
    realizations: np.ndarray        # (N,) int64
    figures: np.ndarray             # (N, 6) float64

    def __len__(self) -> int:
        return self.codes.size


@dataclass(frozen=True)
class Aggregate:
    """Per-(method, level) mean/std/count of one merit figure (failed cells excluded)."""

    mean: float
    std: float
    n: int


@dataclass
class SweepResult:
    config: SweepConfig
    records: Records
    aggregates: dict[tuple[str, int], dict[str, Aggregate]]

    def aggregate(self, method: str, level: int, index: str) -> Aggregate:
        return self.aggregates[(canonical_method(method), level)][index]


def _aggregate_cell(figures: np.ndarray) -> dict[str, Aggregate]:
    out: dict[str, Aggregate] = {}
    for name, column in zip(INDEX_NAMES, figures.T):
        arr = column[~np.isnan(column)]
        if not arr.size:
            out[name] = Aggregate(math.nan, math.nan, 0)
            continue
        # equal values (one alone included) have no spread; report 0, not NaN
        # or the rounding of a mean that misses the value by an ulp
        std = float(np.std(arr, ddof=1)) if np.any(arr != arr[0]) else 0.0
        out[name] = Aggregate(float(np.mean(arr)), std, arr.size)
    return out


def aggregate_records(records: Records) -> dict[tuple[str, int], dict[str, Aggregate]]:
    """Statistics per (method, level) cell, cells in order of their first row."""
    cells = dict.fromkeys(zip(records.codes.tolist(), records.levels.tolist()))
    return {(records.methods[code], level): _aggregate_cell(
                records.figures[(records.codes == code) & (records.levels == level)])
            for code, level in cells}


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the full noise sweep described by cfg."""
    clean = gen_object(cfg.object_spec)
    template = gen_template(cfg.template_spec, cfg.object_spec.dx)
    shape = (len(cfg.levels), cfg.realizations, len(cfg.methods))
    # figures[v, r, i]: the cell of the v-th level and realization r under cfg.methods[i]
    figures = np.full(shape + (len(INDEX_NAMES),), math.nan)
    for block, level in zip(figures, cfg.levels):
        noisy = np.stack([
            add_noise(clean, NoiseSpec(level, cfg.base_seed, r, cfg.noise_multiplier)).samples
            for r in range(cfg.realizations)])
        for name, lags, values in profiles(noisy, clean.x0, clean.dx, template,
                                           cfg.methods, cfg.boundary):
            i = cfg.methods.index(name)
            for cell, row in zip(block, values):
                cell[i] = _cell_figures(CorrelationResult(lags, row).normalized(), cfg)
    level_idx, realizations, codes = np.indices(shape, dtype=np.int64).reshape(3, -1)
    records = Records(cfg.methods, codes, np.array(cfg.levels, dtype=np.int64)[level_idx],
                      realizations, figures.reshape(-1, len(INDEX_NAMES)))
    return SweepResult(cfg, records, aggregate_records(records))


def _cell_figures(profile: CorrelationResult, cfg: SweepConfig) -> list[float]:
    """The cell's six merit figures, nan where missing (all of them if detection failed)."""
    try:
        pm = detect_peaks(profile, cfg.object_spec)
        indices = compute_indices(pm, cfg.object_spec, profile)
    except DomainError:
        return [math.nan] * len(INDEX_NAMES)
    return [math.nan if v is None else v for v in indices.as_dict().values()]


# ---------------------------------------------------------------------------
# CSV serialization (column order fixed; floats at 9 significant digits)

def _fmt(value: float) -> str:
    # format() writes every NaN, whatever its sign bit, as "nan"
    return format(value, ".9g")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write an optional `#` comment line, the header and one line per row.

    Float cells go through _fmt (nan reads `nan`); any other cell (a name, an
    integer count) is written with str().
    """
    lines = [comment] if comment else []
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def config_comment(cfg: SweepConfig) -> str:
    o, t = cfg.object_spec, cfg.template_spec
    grid = ":".join(_fmt(g) for g in o.grid[:2]) + f":{o.grid[2]}"
    parts = [
        "methods=" + "|".join(cfg.methods),
        "levels=" + ",".join(str(v) for v in cfg.levels),
        f"realizations={cfg.realizations}",
        f"seed={cfg.base_seed}",
        f"noise_multiplier={_fmt(cfg.noise_multiplier)}",
        f"boundary={cfg.boundary}",
        f"hp={_fmt(o.h_p)}", f"hs={_fmt(o.h_s)}",
        f"sigma_p={_fmt(o.sigma_p)}", f"sigma_s={_fmt(o.sigma_s)}",
        f"xp={_fmt(o.x_p)}", f"xs={_fmt(o.x_s)}", f"grid={grid}",
        f"template_width={_fmt(t.width)}", f"template_amplitude={_fmt(t.amplitude)}",
        f"eps_denom={_fmt(EPS_DENOM)}",
    ]
    return "# " + " ".join(parts)


def write_records_csv(result: SweepResult, path) -> None:
    rec = result.records
    found = ~np.isnan(rec.figures[:, [INDEX_NAMES.index("r_xp"), INDEX_NAMES.index("r_h")]])
    rows = ([rec.methods[code], level, r, *figures, *flags] for code, level, r, figures, flags
            in zip(rec.codes.tolist(), rec.levels.tolist(), rec.realizations.tolist(),
                   rec.figures.tolist(), found.astype(int).tolist()))
    write_csv(path, RECORD_COLUMNS, rows, config_comment(result.config))


def aggregate_columns() -> list[str]:
    cols = ["method", "level", "n_total"]
    for name in INDEX_NAMES:
        cols += [f"{name}_mean", f"{name}_std", f"{name}_n"]
    return cols


def write_aggregates_csv(result: SweepResult, path) -> None:
    rec = result.records
    rows = []
    for level in result.config.levels:
        for method in result.config.methods:
            aggs = result.aggregates[(method, level)]
            cell = (rec.codes == rec.methods.index(method)) & (rec.levels == level)
            row = [method, level, np.count_nonzero(cell)]
            for name in INDEX_NAMES:
                agg = aggs[name]
                row += [agg.mean, agg.std, agg.n]
            rows.append(row)
    write_csv(path, aggregate_columns(), rows, config_comment(result.config))
