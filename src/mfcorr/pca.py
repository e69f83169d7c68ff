"""Principal component analysis of per-realization merit figures.

The feature matrices here are tiny (hundreds of rows, six columns), so the
eigendecomposition is a self-contained cyclic Jacobi rotation sweep on the
covariance matrix rather than a LAPACK call.  Columns are always
standardized (centered and scaled to unit variance) before the fit.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import INDEX_NAMES
from .sweep import SweepRecord, write_csv

DEFAULT_PCA_METHODS = ("classic", "jaccard_real", "coincidence")

# Jacobi stops once the off-diagonal norm is below JACOBI_TOL times the
# matrix norm, or after JACOBI_MAX_SWEEPS cyclic sweeps.
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100


class AnalysisError(ValueError):
    """Input unusable for PCA (schema mismatch, not enough data)."""


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows: one retained (method, realization); columns: the six merit figures."""

    values: np.ndarray
    labels: tuple[str, ...]
    columns: tuple[str, ...] = INDEX_NAMES
    n_dropped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[0] != len(self.labels):
            raise AnalysisError("feature matrix shape does not match labels")
        if self.values.shape[0] < 2 or self.values.shape[1] < 2:
            raise AnalysisError("need at least 2 rows and 2 columns")
        if not np.all(np.isfinite(self.values)):
            raise AnalysisError("retained rows must not contain missing values")


@dataclass(frozen=True)
class PcaModel:
    columns: tuple[str, ...]        # full input schema
    kept: tuple[str, ...]           # columns surviving the zero-variance filter
    means: np.ndarray               # per kept column
    stds: np.ndarray                # per kept column (ddof=1)
    eigenvalues: np.ndarray         # all, non-increasing
    components: np.ndarray          # (2, len(kept)) rows = axes
    variance_explained: tuple[float, float]


def feature_matrix_from_records(records: list[SweepRecord], level: int,
                                methods: tuple[str, ...] = DEFAULT_PCA_METHODS) -> FeatureMatrix:
    """Collect complete index vectors for one noise level; incomplete rows are dropped."""
    rows, labels, dropped = [], [], 0
    wanted = set(methods)
    for rec in records:
        if rec.level != level or rec.method not in wanted:
            continue
        vals = [rec.index_value(name) for name in INDEX_NAMES]
        if any(v is None or not math.isfinite(v) for v in vals):
            dropped += 1
            continue
        rows.append(vals)
        labels.append(rec.method)
    if len(rows) < 2:
        raise AnalysisError(f"not enough complete rows at level {level}")
    return FeatureMatrix(np.asarray(rows), tuple(labels), INDEX_NAMES, dropped)


def load_feature_matrix(path, level: int,
                        methods: tuple[str, ...] = DEFAULT_PCA_METHODS) -> FeatureMatrix:
    """Read a records CSV written by the sweep and build the level's feature matrix."""
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise AnalysisError(f"records file {path} is empty") from None
        required = ("method", "level") + INDEX_NAMES
        for col in required:
            if col not in header:
                raise AnalysisError(f"records file missing required column {col!r}")
        pos = {col: header.index(col) for col in required}
        rows, labels, dropped = [], [], 0
        wanted = set(methods)
        blank = 0
        for line in reader:
            if not line:
                blank += 1
                continue
            try:
                if line[pos["method"]] not in wanted or int(line[pos["level"]]) != level:
                    continue
                vals = [float(line[pos[name]]) for name in INDEX_NAMES]
            except (IndexError, ValueError):
                # row 1 is the first data row below the header; comment and blank
                # lines are not counted
                raise AnalysisError(
                    f"records file {path}, row {reader.line_num - 1 - blank}: expected"
                    f" {len(header)} fields with a numeric level and figures,"
                    f" got {','.join(line)!r}") from None
            if not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            rows.append(vals)
            labels.append(line[pos["method"]])
    if len(rows) < 2:
        raise AnalysisError(f"not enough complete rows at level {level}")
    return FeatureMatrix(np.asarray(rows), tuple(labels), INDEX_NAMES, dropped)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (non-increasing) and eigenvectors (columns) of a symmetric matrix.

    Cyclic Jacobi rotations; each eigenvector's largest-magnitude entry is made
    positive so the decomposition is deterministic.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise AnalysisError("jacobi_eigh expects a symmetric square matrix")
    v = np.eye(n)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v

    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2)))
        if off <= JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q

    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    v = v[:, order]
    for j in range(n):
        pivot = np.argmax(np.abs(v[:, j]))
        if v[pivot, j] < 0:
            v[:, j] = -v[:, j]
    return eigenvalues, v


def pca_fit(m: FeatureMatrix) -> PcaModel:
    """Standardize columns, eigendecompose their covariance, keep 2 axes."""
    x = m.values
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1)
    keep = stds > 1e-12 * np.maximum(1.0, np.abs(means))
    if not np.all(keep):
        dropped = [c for c, k in zip(m.columns, keep) if not k]
        warnings.warn(f"dropping zero-variance columns: {dropped}", stacklevel=2)
    if int(keep.sum()) < 2:
        raise AnalysisError("fewer than 2 usable columns after cleaning")
    xk = (x[:, keep] - means[keep]) / stds[keep]
    cov = xk.T @ xk / (x.shape[0] - 1)
    eigenvalues, vectors = jacobi_eigh(cov)
    total = float(np.sum(np.maximum(eigenvalues, 0.0)))
    if total <= 0.0:
        raise AnalysisError("covariance has no variance to explain")
    explained = (float(max(eigenvalues[0], 0.0) / total),
                 float(max(eigenvalues[1], 0.0) / total))
    kept = tuple(c for c, k in zip(m.columns, keep) if k)
    return PcaModel(tuple(m.columns), kept, means[keep], stds[keep],
                    eigenvalues, vectors[:, :2].T.copy(), explained)


def project(m: FeatureMatrix, model: PcaModel) -> list[tuple[str, float, float]]:
    """Rows of m projected on the model's two axes, as (label, pc1, pc2)."""
    if tuple(m.columns) != model.columns:
        raise AnalysisError(f"column schema mismatch: {m.columns} vs {model.columns}")
    keep = [i for i, c in enumerate(m.columns) if c in model.kept]
    xk = (m.values[:, keep] - model.means) / model.stds
    scores = xk @ model.components.T
    return [(label, float(s[0]), float(s[1])) for label, s in zip(m.labels, scores)]


def _groups(projections: list[tuple[str, float, float]]) -> dict[str, np.ndarray]:
    """(pc1, pc2) points per label, as (n, 2) arrays in first-seen label order."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for label, pc1, pc2 in projections:
        groups.setdefault(label, []).append((pc1, pc2))
    return {label: np.asarray(pts) for label, pts in groups.items()}


def group_dispersion(projections: list[tuple[str, float, float]]) -> dict[str, float]:
    """Per-label mean distance to the label centroid; labels with < 2 points skipped."""
    out: dict[str, float] = {}
    for label, pts in _groups(projections).items():
        if len(pts) < 2:
            warnings.warn(f"label {label!r} has fewer than 2 points; skipped", stacklevel=2)
            continue
        out[label] = float(np.mean(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    return out


def group_centroids(projections: list[tuple[str, float, float]]) -> dict[str, np.ndarray]:
    return {label: pts.mean(axis=0) for label, pts in _groups(projections).items()}


# ---------------------------------------------------------------------------
# CSV outputs

def write_projection_csv(projections: list[tuple[str, float, float]], path,
                         comment: str | None = None) -> None:
    write_csv(path, ("label", "pc1", "pc2"), projections, comment)


def write_meta_csv(model: PcaModel, m: FeatureMatrix,
                   dispersions: dict[str, float], path,
                   comment: str | None = None) -> None:
    dropped_cols = [c for c in model.columns if c not in model.kept]
    rows = [
        ("variance_explained_1", model.variance_explained[0]),
        ("variance_explained_2", model.variance_explained[1]),
        ("variance_explained_top2", sum(model.variance_explained)),
        ("n_rows", m.values.shape[0]),
        ("n_dropped_rows", m.n_dropped),
        ("dropped_columns", ";".join(dropped_cols) if dropped_cols else "none"),
    ]
    rows += [(f"eigenvalue_{i}", float(ev)) for i, ev in enumerate(model.eigenvalues, start=1)]
    rows += [(f"dispersion_{label}", dispersions[label]) for label in sorted(dispersions)]
    write_csv(path, ("key", "value"), rows, comment)
