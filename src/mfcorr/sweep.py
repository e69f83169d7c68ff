"""Monte-Carlo noise sweep: run methods over noise levels, aggregate merit figures.

Within one (level, realization) cell every method sees the identical noisy
object, so cross-method comparisons are paired.  A noise level is the batch:
its realizations are stacked and profiled CHUNK_ROWS at a time, with one kernel
call per chunk for the plain methods and the combined methods' first stage and
one for their second stage, and each method's stack of profiles is normalized,
searched for peaks and scored in one block (metrics.stack_figures).  A
noiseless level scores one row and copies its figures to the rest, and at noise
multiplier 0 the first level's block to the others.  Cells stay independent:
a record equals what method_profile, normalized, detect_peaks and
compute_indices give for that cell alone, so the whole sweep is a pure
function of its configuration.  The figures fill one (levels, realizations,
methods, 6) block; the records are its rows, and a (method, level) cell's
aggregates are reduced from its slice of the block, not found in the records.

The levels run on up to two threads, one per usable CPU (MAX_LEVEL_THREADS),
but only when a level holds a full chunk: numpy releases the GIL inside its
array loops alone, and below CHUNK_ROWS rows those loops are too short for a
second thread to pay, while its level's transients still add to the peak
memory.  Each level in flight holds one chunk's transients at any realization
count.  The schedule cannot change a byte: each level reads only the shared
clean object and template, draws its noise from streams fixed by (seed, level,
realization), and writes only its own slice of the figures.  The threads take
the levels in order and start none after one fails, so the caller gets the
error of the lowest level that failed, as from a serial loop.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

# method_profile is imported to stay public as mfcorr.sweep.method_profile too
from .correlate import (BOUNDARIES, canonical_method, max_normalized,  # noqa: F401
                        method_profile, profiles)
from .generators import (N_NOISE_LEVELS, NoiseSpec, ObjectSpec, TemplateSpec, gen_object,
                         gen_template, noisy_rows)
from .indices import EPS_DENOM
from .metrics import INDEX_NAMES, stack_figures
from .signal import DomainError, Signal

DEFAULT_METHODS = ("classic", "jaccard_real", "coincidence", "combined_coincidence")

RECORD_COLUMNS = ("method", "level", "realization") + INDEX_NAMES + (
    "primary_found", "secondary_found")
AGGREGATE_COLUMNS = ("method", "level", "n_total") + tuple(
    f"{name}_{stat}" for name in INDEX_NAMES for stat in ("mean", "std", "n"))


def require_distinct(what: str, items) -> None:
    """Reject the first item that repeats an earlier one, naming it as `what item`."""
    seen = set()
    for v in items:
        if v in seen:
            raise DomainError(f"{what} {v} given more than once")
        seen.add(v)


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
        for v in self.levels:
            if not (0 <= v < N_NOISE_LEVELS):
                raise DomainError(f"noise level {v} out of range 0..{N_NOISE_LEVELS - 1}")
        require_distinct("method", self.methods)
        require_distinct("noise level", self.levels)
        if self.realizations < 1:
            raise DomainError("realizations must be >= 1")
        NoiseSpec(multiplier=self.noise_multiplier)   # refuses a negative or non-finite one
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


def aggregate_records(levels, methods, figures) -> dict[tuple[str, int], dict[str, Aggregate]]:
    """Statistics per (method, level) cell, level-major: each cell is its slice figures[v, :, i]."""
    return {(method, level): _aggregate_cell(figures[v, :, i])
            for v, level in enumerate(levels) for i, method in enumerate(methods)}


# Each level in flight adds one chunk's transients to the peak RSS, and what a third
# thread gains beyond 2 CPUs is not measured.
MAX_LEVEL_THREADS = 2

# Realizations per profiles call, and the fewest in a level that starts level threads:
# the smallest stack at which two level threads beat one.  run_sweep over levels 1-8
# with one chunk per level, 2 CPUs against `taskset -c 0` (Python 3.11, numpy 2.4),
# median of 3 warm sweeps, 8 alternations: at 100 rows 0.28-0.35 s against
# 0.39-0.46 s in 7, even (0.438 against 0.435 s) in 1, for +4.4 MB max RSS; at 125
# and 150 rows 1.2-1.6x in all 8; at 50 rows (the desk scale) 0.95-1.15x for +2.2 MB.
CHUNK_ROWS = 100


def _level_threads() -> int:
    """Levels to run at once: the CPUs this process may run on, at most MAX_LEVEL_THREADS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_LEVEL_THREADS)


def _score_level(cfg: SweepConfig, clean: Signal, template: Signal, level: int,
                 block: np.ndarray) -> None:
    """Fill block[r, i] with the figures of realization r under cfg.methods[i] at level.

    The realizations go through profiles CHUNK_ROWS at a time.  A noiseless level's
    rows all equal the clean object (it has no -0.0 that adding 0.0 would flip), and
    a stack's rows score as one-row stacks do, so it scores realization 0 alone and
    copies its figures to every row.
    """
    noiseless = NoiseSpec(level, multiplier=cfg.noise_multiplier).amplitude == 0
    rows = 1 if noiseless else cfg.realizations
    for start in range(0, rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, rows)
        noisy = noisy_rows(clean.samples,
                           NoiseSpec(level, cfg.base_seed, start, cfg.noise_multiplier),
                           stop - start)
        for name, lags, values in profiles(noisy, clean.x0, clean.dx, template,
                                           cfg.methods, cfg.boundary):
            block[start:stop, cfg.methods.index(name)] = stack_figures(
                lags, max_normalized(values, out=values), cfg.object_spec)
            del values   # let this profile go before the next one is built
    block[rows:] = block[0]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the noise sweep described by cfg, on _level_threads() if a level fills a chunk."""
    clean = gen_object(cfg.object_spec)
    template = gen_template(cfg.template_spec, cfg.object_spec.dx)
    shape = (len(cfg.levels), cfg.realizations, len(cfg.methods))
    # figures[v, r, i]: the cell of the v-th level and realization r under cfg.methods[i]
    figures = np.full(shape + (len(INDEX_NAMES),), math.nan)

    # the calling thread is one of the workers.  Levels are handed out in order and none
    # after an error, so every level below a failed one has run when the error is raised.
    # at noise multiplier 0 every level scores the clean object: the first one's block serves all
    scored = cfg.levels[:1] if cfg.noise_multiplier == 0 else cfg.levels
    order = iter(range(len(scored)))
    lock = threading.Lock()
    errors: dict[int, BaseException] = {}
    errstate = np.geterr()   # the helpers handle float errors as the calling thread does

    def work() -> None:
        with np.errstate(**errstate):
            while True:
                with lock:
                    v = None if errors else next(order, None)
                if v is None:
                    return
                try:
                    _score_level(cfg, clean, template, scored[v], figures[v])
                except BaseException as exc:
                    errors[v] = exc

    threads = _level_threads() if cfg.realizations >= CHUNK_ROWS else 1
    helpers = [threading.Thread(target=work)
               for _ in range(min(threads, len(scored)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    figures[len(scored):] = figures[:1]
    level_idx, realizations, codes = np.indices(shape, dtype=np.int64).reshape(3, -1)
    records = Records(cfg.methods, codes, np.array(cfg.levels, dtype=np.int64)[level_idx],
                      realizations, figures.reshape(-1, len(INDEX_NAMES)))
    return SweepResult(cfg, records, aggregate_records(cfg.levels, cfg.methods, figures))


# ---------------------------------------------------------------------------
# CSV serialization (column order fixed; floats at 9 significant digits)

_FLOAT_CELL = "%.9g"   # every float cell, as format(value, ".9g"); nan of either sign reads nan
# rows per write: no string or cell list the size of the file.  At 4,096 rows a
# chunk's strings (~450 KB) left desk-sweep peak RSS ~1 MB higher in a third of runs
_CHUNK_ROWS = 512


def write_csv(path, header, columns, comment: str | None = None) -> None:
    """Write an optional `#` comment line, the header and one line per row of columns.

    columns holds one sequence of cells per header name, all of one length.  The
    caller's dtype picks a column's cell format: a float ndarray's cells go through
    _FLOAT_CELL, any other column's through str().  The body goes out _CHUNK_ROWS
    rows at a time, each chunk one % operation over the table's line format.
    """
    # an object array, not np.asarray: a <U array drops a name's trailing NULs
    columns = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    line = ",".join(_FLOAT_CELL if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        if comment:
            fh.write(comment + "\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            parts = [c[start:start + _CHUNK_ROWS].tolist() for c in columns]
            fh.write(line * len(parts[0]) % tuple(chain.from_iterable(zip(*parts))))


def one_line(text: str) -> str:
    """text, or its backslash escapes if str.splitlines() would split it (a file name may)."""
    return text if text.splitlines() == [text] else text.encode("unicode_escape").decode()


def _field(value) -> str:
    """A float through _FLOAT_CELL, a tuple (the grid) as its items joined by ":", else str();
    each on one line (one_line), so the header is one line."""
    if isinstance(value, tuple):
        return ":".join(map(_field, value))
    return one_line(_FLOAT_CELL % value if isinstance(value, float) else str(value))


def run_header(**fields) -> str:
    """The `#` line that describes a run, every output's first: key=value per field, in order."""
    return "# " + " ".join(f"{key}={_field(value)}" for key, value in fields.items())


def scene_fields(o: ObjectSpec, t: TemplateSpec) -> dict:
    """The object and template geometry as run_header fields."""
    return dict(hp=o.h_p, hs=o.h_s, sigma_p=o.sigma_p, sigma_s=o.sigma_s, xp=o.x_p,
                xs=o.x_s, grid=o.grid, template_width=t.width, template_amplitude=t.amplitude)


def config_comment(cfg: SweepConfig) -> str:
    return run_header(methods="|".join(cfg.methods), levels=",".join(map(str, cfg.levels)),
                      realizations=cfg.realizations, seed=cfg.base_seed,
                      noise_multiplier=cfg.noise_multiplier, boundary=cfg.boundary,
                      **scene_fields(cfg.object_spec, cfg.template_spec), eps_denom=EPS_DENOM)


def write_records_csv(result: SweepResult, path) -> None:
    rec = result.records
    found = ~np.isnan(rec.figures[:, [INDEX_NAMES.index("r_xp"), INDEX_NAMES.index("r_h")]])
    write_csv(path, RECORD_COLUMNS,
              (np.array(rec.methods, dtype=object)[rec.codes], rec.levels, rec.realizations,
               *rec.figures.T, *found.T.astype(np.uint8)),
              config_comment(result.config))


def write_aggregates_csv(result: SweepResult, path) -> None:
    """One row per cell of result.aggregates, in its order; n_total is every cell's row count."""
    cells = result.aggregates
    columns = [[method for method, _ in cells], [level for _, level in cells],
               [result.config.realizations] * len(cells)]
    for name in INDEX_NAMES:
        stats = [cell[name] for cell in cells.values()]
        columns += [np.array([s.mean for s in stats]), np.array([s.std for s in stats]),
                    [s.n for s in stats]]
    write_csv(path, AGGREGATE_COLUMNS, columns, config_comment(result.config))
