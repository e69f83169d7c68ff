"""The three workloads: their inputs, their timed part and the checks on their outputs.

Each workload has `setup(seed, out_dir)`, which makes its inputs from the
seed; `run(state)`, the timed part, which only calls mfcorr as a user would
and keeps its outputs; and `check(state, timed)`, run after the timing, which
compares those outputs with computations made apart from mfcorr
(`reference.py`) or with properties the methods must have.

An operation is a sweep record, a match or a PCA level.  It fails if it
raises or fails its check.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import reference as ref
# modules, not names: the traced run replaces their functions in place
from mfcorr import cli, peaks, sweep
from mfcorr.generators import ObjectSpec, TemplateSpec, gen_template
from mfcorr.signal import DomainError, Signal

FIGURES = ("r_xp", "r_xs", "r_h", "r_wp", "r_ws", "alpha_overlap")
SECONDARY_FIGURES = ("r_xs", "r_h", "r_ws", "alpha_overlap")
RECORD_COLUMNS = ("method", "level", "realization") + FIGURES + (
    "primary_found", "secondary_found")
N_LEVELS = 21


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: list[str]    # checks that could not be evaluated at all


def read_rows(path: str) -> list[list[str]]:
    """The non-empty CSV rows of a file written by mfcorr, "#" comments skipped."""
    with open(path, newline="") as fh:
        return [row for row in csv.reader(line for line in fh if not line.startswith("#"))
                if row]


def _key_values(path: str) -> dict[str, str]:
    return {row[0]: row[1] for row in read_rows(path)[1:]}


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol


# ---------------------------------------------------------------------------
# desk-sweep: `mfcorr bench --desk-scale`, then `mfcorr pca` on its records.

DESK_METHODS = ("classic", "jaccard_real", "coincidence", "combined_coincidence")
DESK_REALIZATIONS = 50
DESK_RECORDS = N_LEVELS * DESK_REALIZATIONS * len(DESK_METHODS)
DESK_PCA_LEVELS = (1, 10, 20)
SPEC = ObjectSpec()   # mfcorr's default scene; its sigmas also set detect_peaks' exclusion zone


def desk_setup(seed: int, out_dir: str) -> dict:
    return {"seed": seed, "out": out_dir,
            "records": os.path.join(out_dir, "records.csv")}


def desk_run(st: dict) -> dict:
    t0 = perf_counter()
    try:
        st["bench_rc"] = cli.main(["bench", "--desk-scale", "--seed", str(st["seed"]),
                                   "--out-dir", st["out"]])
    except Exception as exc:  # a crash fails every record; the run goes on
        st["bench_rc"] = repr(exc)
    t1 = perf_counter()
    try:
        st["pca_rc"] = cli.main(["pca", "--records", st["records"],
                                 "--levels", ",".join(map(str, DESK_PCA_LEVELS)),
                                 "--out-dir", st["out"]])
    except Exception as exc:
        st["pca_rc"] = repr(exc)
    t2 = perf_counter()
    return {"wall_s": t2 - t0, "ops_per_s": DESK_RECORDS / (t1 - t0),
            "op_ms": [1e3 * (t1 - t0) / DESK_RECORDS], "main_ops": DESK_RECORDS}


def desk_check(st: dict, timed: dict) -> Outcome:
    attempted = DESK_RECORDS + len(DESK_PCA_LEVELS)
    pca_failed = _desk_check_pca(st)
    if st["bench_rc"] != 0:
        return Outcome(attempted, DESK_RECORDS + pca_failed, [])
    rows = read_rows(st["records"])
    if tuple(rows[0]) != RECORD_COLUMNS:
        return Outcome(attempted, attempted, [f"records.csv header {rows[0]}"])
    cells: dict[tuple[str, int], dict[int, dict[str, float]]] = {}
    extra = 0
    for row in rows[1:]:
        method, level, realization = row[0], int(row[1]), int(row[2])
        cell = cells.setdefault((method, level), {})
        if realization in cell:
            extra += 1
        cell[realization] = dict(zip(FIGURES, map(float, row[3:9])))
    expected = {(m, v) for m in DESK_METHODS for v in range(N_LEVELS)}
    errors = []
    if extra or set(cells) - expected:
        errors.append(f"records.csv holds {len(rows) - 1} rows, "
                      f"more than the {DESK_RECORDS} records of the sweep")

    # realizations of each (method, level) cell that passed every check so far
    good = {key: set(cell) & set(range(DESK_REALIZATIONS))
            for key, cell in cells.items() if key in expected}
    aggregates = {(row[0], int(row[1])): row for row in read_rows(
        os.path.join(st["out"], "aggregates.csv"))[1:]}
    recomputed = {}
    for key, cell in cells.items():
        agg = aggregates.get(key)
        stats = {}
        ok = agg is not None and int(agg[2]) == len(cell)
        for j, name in enumerate(FIGURES):
            values = [rec[name] for rec in cell.values() if not math.isnan(rec[name])]
            stats[name] = ref.mean_std_count(values)
            if not ok:
                continue
            scale = max((abs(v) for v in values), default=0.0)
            mean, std, n = map(float, agg[3 + 3 * j: 6 + 3 * j])
            ok = (_close(mean, stats[name][0], 1e-8 * scale)
                  and _close(std, stats[name][1], 1e-8 * scale)
                  and n == stats[name][2])
        recomputed[key] = stats
        if not ok and key in good:
            good[key].clear()

    # noiseless level: localization within two samples, contrast ordering
    bound = 2.0 * SPEC.dx / SPEC.x_p + 1e-12
    for method in DESK_METHODS:
        cell = cells.get((method, 0), {})
        good.get((method, 0), set()).difference_update(
            r for r, rec in cell.items() if not abs(rec["r_xp"]) <= bound)
    r_h = [recomputed.get((m, 0), {}).get("r_h", (math.nan,))[0]
           for m in ("coincidence", "jaccard_real", "classic")]
    if not r_h[0] > r_h[1] > r_h[2]:
        for method in ("coincidence", "jaccard_real", "classic"):
            good.get((method, 0), set()).clear()

    passed = sum(len(s) for s in good.values())
    return Outcome(attempted, DESK_RECORDS - passed + pca_failed, errors)


def _desk_check_pca(st: dict) -> int:
    if st["pca_rc"] != 0:
        return len(DESK_PCA_LEVELS)
    failed = 0
    for level in DESK_PCA_LEVELS:
        try:
            meta = _key_values(os.path.join(st["out"], f"pca_meta_{level}.csv"))
            shares = [float(meta[f"variance_explained_{k}"]) for k in ("1", "2", "top2")]
        except (OSError, KeyError, ValueError):
            failed += 1
            continue
        failed += not all(0.0 <= s <= 1.0 for s in shares)
    return failed


# ---------------------------------------------------------------------------
# long-signal: every method on long noisy records, as `mfcorr correlate` runs it.

LONG_METHODS = ("classic", "jaccard_real", "interiority", "coincidence",
                "jaccard_addition", "coincidence_addition", "combined_coincidence")
DX = 0.01
# (samples, paper noise level, constant offset); the offset record is last
LONG_RECORDS = ((10_000, 5, 0.0), (13_000, 10, 0.0), (16_000, 15, 0.0),
                (10_000, 10, 100.0))
N_PLANTED = 5
TALLEST = (2.0, 0.3)          # height and sigma of the paper's principal peak
OTHER_HEIGHTS = (0.6, 1.2)
OTHER_SIGMAS = (0.15, 0.3)
PEAK_DISTANCE = 0.15          # allowed |detected - planted| for the tallest occurrence
N_SAMPLED_LAGS = 12


@dataclass
class LongRecord:
    signal: Signal
    tallest_x: float
    offset: float


def long_records(seed: int) -> list[LongRecord]:
    """Gaussian occurrences on uniform noise; one occurrence per equal slot."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for n, level, offset in LONG_RECORDS:
        x = DX * np.arange(n)
        slot = n * DX / N_PLANTED
        centers = slot * (np.arange(N_PLANTED) + 0.5 + rng.uniform(-0.2, 0.2, N_PLANTED))
        heights = rng.uniform(*OTHER_HEIGHTS, N_PLANTED)
        sigmas = rng.uniform(*OTHER_SIGMAS, N_PLANTED)
        tallest = int(rng.integers(N_PLANTED))
        heights[tallest], sigmas[tallest] = TALLEST
        samples = np.full(n, offset)
        for c, h, s in zip(centers, heights, sigmas):
            samples += h * np.exp(-((x - c) ** 2) / (2 * s * s))
        samples += (level / (N_LEVELS - 1)) * (rng.random(n) - 0.5)
        out.append(LongRecord(Signal(samples, x0=0.0, dx=DX), float(centers[tallest]),
                              offset))
    return out


def long_setup(seed: int, out_dir: str) -> dict:
    return {"seed": seed, "records": long_records(seed),
            "template": gen_template(TemplateSpec(), DX)}


def _match(rec: LongRecord, name: str, template: Signal):
    """Profile and peaks of one (record, method), as `mfcorr correlate` makes them."""
    try:
        raw = sweep.method_profile(name, rec.signal, template)
        try:
            return raw, peaks.detect_peaks(raw.normalized(), SPEC)
        except DomainError:  # a constant profile has no peak
            return raw, None
    except Exception as exc:
        return repr(exc)


def long_run(st: dict) -> dict:
    # The offset record is matched in the checks only: its multiset profiles
    # are flat up to rounding, and how long peak detection takes on them
    # depends on the last bits of the sums (see README.md).
    template = st["template"]
    results, latencies = [], []
    t_start = perf_counter()
    for rec in st["records"]:
        if rec.offset:
            continue
        for name in LONG_METHODS:
            t0 = perf_counter()
            results.append(_match(rec, name, template))
            latencies.append(1e3 * (perf_counter() - t0))
    wall = perf_counter() - t_start
    st["results"] = results
    return {"wall_s": wall, "ops_per_s": len(latencies) / (1e-3 * sum(latencies)),
            "op_ms": latencies, "main_ops": len(latencies)}


def long_check(st: dict, timed: dict) -> Outcome:
    template = st["template"]
    g = template.samples.tolist()
    attempted = failed = 0
    results = iter(st["results"])
    for r_index, rec in enumerate(st["records"]):
        f = rec.signal.samples
        n, m = f.size, len(g)
        k0, center = ref.pad_geometry(n, m)
        # the combined method's second stage runs on the max-normalized classic profile
        objects = {"": f.tolist(), "combined_": ref.max_normalized(
            ref.classic_profile(f, template.samples, DX)).tolist()}
        totals = {key: ref.grid_totals(obj) for key, obj in objects.items()}
        profiles, bad = {}, set()
        for m_index, name in enumerate(LONG_METHODS):
            attempted += 1
            result = _match(rec, name, template) if rec.offset else next(results)
            if isinstance(result, str):
                bad.add(name)
                continue
            raw, pm = result
            prefix = "combined_" if name.startswith("combined_") else ""
            obj = objects[prefix]
            rng = np.random.default_rng([st["seed"], 2, r_index, m_index])
            lags = set(rng.integers(0, n, N_SAMPLED_LAGS).tolist())
            lags |= {0, n - 1, int(np.argmax(raw.values))}
            scale = max(1.0, float(np.max(np.abs(raw.values))))
            ok = raw.values.size == n
            for k in sorted(lags) if ok else ():
                want = ref.index_at(name[len(prefix):], obj, totals[prefix], g, k0 + k, DX)
                ok = ok and abs(raw.values[k] - want) <= 1e-12 * scale
                ok = ok and abs(raw.lags[k] - (k0 + k + center) * DX) <= 1e-9
            if pm is None:
                ok = ok and float(np.ptp(raw.values)) <= 1e-12 * scale
            elif not rec.offset:
                ok = ok and abs(pm.x1 - rec.tallest_x) <= PEAK_DISTANCE
            profiles[name] = raw.values
            if not ok:
                bad.add(name)
        failed += len(bad | _long_bounds_violations(profiles))
    return Outcome(attempted, failed, [])


def _long_bounds_violations(profiles: dict[str, np.ndarray]) -> set[str]:
    """Methods whose profile on one record leaves the bounds of its index."""
    tol = 1e-12
    bad = set()
    if "jaccard_real" in profiles and np.any(np.abs(profiles["jaccard_real"]) > 1 + tol):
        bad.add("jaccard_real")
    if "interiority" in profiles:
        v = profiles["interiority"]
        if np.any(v < -tol) or np.any(v > 1 + tol):
            bad.add("interiority")
    for product, jaccard in (("coincidence", "jaccard_real"),
                             ("coincidence_addition", "jaccard_addition")):
        if product in profiles and jaccard in profiles and np.any(
                np.abs(profiles[product]) > np.abs(profiles[jaccard]) + tol):
            bad.add(product)
    return bad


# ---------------------------------------------------------------------------
# records-pca: `mfcorr pca` at all 21 levels over a synthesized records file.

PCA_METHODS = ("classic", "jaccard_real", "coincidence", "combined_coincidence")
PCA_KEPT = ("classic", "jaccard_real", "coincidence")   # `mfcorr pca` defaults
PCA_REALIZATIONS = 300
# per-figure spread at level 0; it widens linearly to twice that at level 20
FIGURE_SCALES = np.array([0.004, 0.02, 0.5, 0.05, 0.2, 0.1])


def planted_incomplete(level: int) -> int:
    """Rows per (method, level) whose secondary figures are nan: 2% to 10%."""
    return round(PCA_REALIZATIONS * (0.02 + 0.08 * level / (N_LEVELS - 1)))


def pca_blocks(seed: int):
    """Yield (level, {method: (rows rounded to 9 digits, incomplete mask)}).

    Each method draws from its own mean and covariance, both drifting with
    the level; rows are rounded as the sweep writes them, so this copy equals
    what mfcorr reads back.
    """
    rng = np.random.default_rng([seed, 3])
    k = len(FIGURES)
    base = {m: np.array([rng.normal(0, 0.002), rng.normal(0, 0.01), rng.uniform(1.5, 10),
                         rng.uniform(0.3, 0.8), rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0)])
            for m in PCA_METHODS}
    drift = {m: rng.normal(0, 0.05, k) * FIGURE_SCALES for m in PCA_METHODS}
    chol = {}
    for m in PCA_METHODS:
        loadings = rng.normal(size=(k, 3))
        corr = loadings @ loadings.T + np.diag(rng.uniform(0.2, 1.0, k))
        d = 1.0 / np.sqrt(np.diag(corr))
        chol[m] = np.linalg.cholesky(corr * np.outer(d, d))
    for level in range(N_LEVELS):
        block = {}
        widen = 1.0 + level / (N_LEVELS - 1)
        for m in PCA_METHODS:
            z = rng.standard_normal((PCA_REALIZATIONS, k)) @ chol[m].T
            rows = base[m] + level * drift[m] + z * FIGURE_SCALES * widen
            rows = np.array([[float(format(v, ".9g")) for v in row] for row in rows])
            mask = np.zeros(PCA_REALIZATIONS, dtype=bool)
            mask[rng.choice(PCA_REALIZATIONS, planted_incomplete(level), replace=False)] = True
            rows[np.ix_(mask, [FIGURES.index(f) for f in SECONDARY_FIGURES])] = np.nan
            block[m] = (rows, mask)
        yield level, block


def pca_setup(seed: int, out_dir: str) -> dict:
    path = os.path.join(out_dir, "records.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# synthesized records: methods={'|'.join(PCA_METHODS)}"
                 f" levels=0-20 realizations={PCA_REALIZATIONS} seed={seed}\n")
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for level, block in pca_blocks(seed):
            for r in range(PCA_REALIZATIONS):
                for m in PCA_METHODS:
                    rows, mask = block[m]
                    figures = ",".join("nan" if math.isnan(v) else format(v, ".9g")
                                       for v in rows[r])
                    fh.write(f"{m},{level},{r},{figures},1,{int(not mask[r])}\n")
    return {"seed": seed, "out": out_dir, "records": path}


def pca_run(st: dict) -> dict:
    t0 = perf_counter()
    try:
        st["rc"] = cli.main(["pca", "--records", st["records"], "--levels", f"0-{N_LEVELS - 1}",
                             "--methods", ",".join(PCA_KEPT), "--out-dir", st["out"]])
    except Exception as exc:
        st["rc"] = repr(exc)
    wall = perf_counter() - t0
    return {"wall_s": wall, "ops_per_s": N_LEVELS / wall,
            "op_ms": [1e3 * wall / N_LEVELS], "main_ops": N_LEVELS}


def pca_check(st: dict, timed: dict) -> Outcome:
    if st["rc"] != 0:
        return Outcome(N_LEVELS, N_LEVELS, [])
    failed = 0
    for level, block in pca_blocks(st["seed"]):
        kept = [(m, block[m][0][r]) for r in range(PCA_REALIZATIONS) for m in PCA_KEPT
                if not block[m][1][r]]
        dropped = sum(int(block[m][1].sum()) for m in PCA_KEPT)
        try:
            ok = _pca_level_ok(st["out"], level, kept, dropped)
        except (OSError, KeyError, ValueError, IndexError):
            ok = False
        failed += not ok
    return Outcome(N_LEVELS, failed, [])


def _pca_level_ok(out: str, level: int, kept: list, dropped: int) -> bool:
    rows = np.array([row for _, row in kept])
    meta = _key_values(os.path.join(out, f"pca_meta_{level}.csv"))
    eig, z = ref.standardized_eigh(rows)
    got = np.array([float(meta[f"eigenvalue_{i + 1}"]) for i in range(eig.size)])
    share = np.maximum(eig, 0.0) / np.sum(np.maximum(eig, 0.0))
    ok = (int(meta["n_rows"]) == rows.shape[0]
          and int(meta["n_dropped_rows"]) == dropped
          and meta["dropped_columns"] == "none"
          and np.all(np.abs(got - eig) <= 1e-7 * eig[0])
          and abs(float(meta["variance_explained_1"]) - share[0]) <= 1e-7
          and abs(float(meta["variance_explained_2"]) - share[1]) <= 1e-7)
    # the axes, recovered from the projections of the standardized rows
    proj = read_rows(os.path.join(out, f"pca_{level}.csv"))[1:]
    scores = np.array([[float(p[1]), float(p[2])] for p in proj])
    ok = ok and [p[0] for p in proj] == [m for m, _ in kept]
    axes = np.linalg.lstsq(z, scores, rcond=None)[0]
    ok = ok and np.all(np.abs(axes.T @ axes - np.eye(2)) <= 1e-6)
    for axis in axes.T:
        mags = np.sort(np.abs(axis))
        pivot = axis[np.argmax(np.abs(axis))]
        # a near tie for the largest magnitude leaves the sign rule undecided
        ok = ok and (pivot > 0 or mags[-1] - mags[-2] <= 1e-6)
    return bool(ok)


WORKLOADS = {
    "desk-sweep": (desk_setup, desk_run, desk_check),
    "long-signal": (long_setup, long_run, long_check),
    "records-pca": (pca_setup, pca_run, pca_check),
}
