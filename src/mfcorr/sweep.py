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
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# method_profile is imported to stay public as mfcorr.sweep.method_profile too
from .correlate import (BOUNDARIES, CorrelationResult, canonical_method,  # noqa: F401
                        method_profile, profiles)
from .generators import (N_NOISE_LEVELS, NoiseSpec, ObjectSpec, TemplateSpec, add_noise,
                         gen_object, gen_template)
from .indices import EPS_DENOM
from .metrics import INDEX_NAMES, PerformanceIndices, compute_indices
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
class SweepRecord:
    method: str
    level: int
    realization: int
    indices: PerformanceIndices | None  # None when even the primary peak failed

    @property
    def primary_found(self) -> bool:
        return self.indices is not None

    @property
    def secondary_found(self) -> bool:
        return self.indices is not None and self.indices.r_h is not None

    def index_value(self, name: str) -> float | None:
        return None if self.indices is None else getattr(self.indices, name)


@dataclass(frozen=True)
class Aggregate:
    """Per-(method, level) mean/std/count of one merit figure (failed cells excluded)."""

    mean: float
    std: float
    n: int


@dataclass
class SweepResult:
    config: SweepConfig
    records: list[SweepRecord]
    aggregates: dict[tuple[str, int], dict[str, Aggregate]]

    def aggregate(self, method: str, level: int, index: str) -> Aggregate:
        return self.aggregates[(canonical_method(method), level)][index]


def _aggregate_cell(records: list[SweepRecord]) -> dict[str, Aggregate]:
    out: dict[str, Aggregate] = {}
    for name in INDEX_NAMES:
        values = [v for v in (r.index_value(name) for r in records) if v is not None]
        if not values:
            out[name] = Aggregate(math.nan, math.nan, 0)
            continue
        arr = np.asarray(values)
        # equal values (one alone included) have no spread; report 0, not NaN
        # or the rounding of a mean that misses the value by an ulp
        std = float(np.std(arr, ddof=1)) if np.any(arr != arr[0]) else 0.0
        out[name] = Aggregate(float(np.mean(arr)), std, arr.size)
    return out


def aggregate_records(records: list[SweepRecord]) -> dict[tuple[str, int], dict[str, Aggregate]]:
    cells: dict[tuple[str, int], list[SweepRecord]] = {}
    for rec in records:
        cells.setdefault((rec.method, rec.level), []).append(rec)
    return {key: _aggregate_cell(cell) for key, cell in cells.items()}


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the full noise sweep described by cfg."""
    clean = gen_object(cfg.object_spec)
    template = gen_template(cfg.template_spec, cfg.object_spec.dx)
    records: list[SweepRecord] = []
    for level in cfg.levels:
        noisy = np.stack([
            add_noise(clean, NoiseSpec(level, cfg.base_seed, r, cfg.noise_multiplier)).samples
            for r in range(cfg.realizations)])
        # cells[r][i]: the record of realization r under cfg.methods[i]
        cells = [[None] * len(cfg.methods) for _ in range(cfg.realizations)]
        for name, lags, values in profiles(noisy, clean.x0, clean.dx, template,
                                           cfg.methods, cfg.boundary):
            i = cfg.methods.index(name)
            for r, row in enumerate(values):
                profile = CorrelationResult(lags, row).normalized()
                cells[r][i] = SweepRecord(name, level, r, _cell_indices(profile, cfg))
        records.extend(rec for cell in cells for rec in cell)
    return SweepResult(cfg, records, aggregate_records(records))


def _cell_indices(profile: CorrelationResult, cfg: SweepConfig) -> PerformanceIndices | None:
    try:
        pm = detect_peaks(profile, cfg.object_spec)
        return compute_indices(pm, cfg.object_spec, profile)
    except DomainError:
        return None


# ---------------------------------------------------------------------------
# CSV serialization (column order fixed; floats at 9 significant digits)

def _fmt(value: float | None) -> str:
    # format() writes every NaN, whatever its sign bit, as "nan"
    return "nan" if value is None else format(value, ".9g")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write an optional `#` comment line, the header and one line per row.

    Float and None cells go through _fmt (None and nan read `nan`); any other
    cell (a name, an integer count) is written with str().
    """
    lines = [comment] if comment else []
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join([_fmt(v) if v is None or isinstance(v, float) else str(v)
                               for v in row]))
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
    rows = ([rec.method, rec.level, rec.realization]
            + [rec.index_value(name) for name in INDEX_NAMES]
            + [int(rec.primary_found), int(rec.secondary_found)]
            for rec in result.records)
    write_csv(path, RECORD_COLUMNS, rows, config_comment(result.config))


def aggregate_columns() -> list[str]:
    cols = ["method", "level", "n_total"]
    for name in INDEX_NAMES:
        cols += [f"{name}_mean", f"{name}_std", f"{name}_n"]
    return cols


def write_aggregates_csv(result: SweepResult, path) -> None:
    cell_sizes = Counter((rec.method, rec.level) for rec in result.records)
    rows = []
    for level in result.config.levels:
        for method in result.config.methods:
            key = (method, level)
            aggs = result.aggregates[key]
            row = [method, level, cell_sizes[key]]
            for name in INDEX_NAMES:
                agg = aggs[name]
                row += [agg.mean, agg.std, agg.n]
            rows.append(row)
    write_csv(path, aggregate_columns(), rows, config_comment(result.config))
