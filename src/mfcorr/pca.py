"""Principal component analysis of per-realization merit figures.

A records file is parsed once into the sweep's Records table (read_records);
each noise level's feature matrix is then selected from it (level_matrix),
whether the table was read from a file or held in memory.  Columns are always
standardized (centered and scaled to unit variance) before the fit, and
np.linalg.eigh decomposes their covariance.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .metrics import INDEX_NAMES
from .sweep import Records, write_csv

DEFAULT_PCA_METHODS = ("classic", "jaccard_real", "coincidence")


class AnalysisError(ValueError):
    """Input unusable for PCA (schema mismatch, not enough data)."""


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows: one retained (method, realization); columns: the six merit figures."""

    values: np.ndarray
    labels: tuple[str, ...]
    n_dropped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2 or self.values.shape[0] != len(self.labels):
            raise AnalysisError("feature matrix shape does not match labels")
        if self.values.shape[0] < 2 or self.values.shape[1] != len(INDEX_NAMES):
            raise AnalysisError(f"need at least 2 rows and {len(INDEX_NAMES)} columns")
        if not np.all(np.isfinite(self.values)):
            raise AnalysisError("retained rows must not contain missing values")


@dataclass(frozen=True)
class PcaModel:
    kept: tuple[str, ...]           # INDEX_NAMES surviving the zero-variance filter
    means: np.ndarray               # per kept column
    stds: np.ndarray                # per kept column (ddof=1)
    eigenvalues: np.ndarray         # all, non-increasing
    components: np.ndarray          # (2, len(kept)) rows = axes
    variance_explained: tuple[float, float]


def read_records(path) -> Records:
    """Parse and check every data row of a records CSV written by the sweep."""
    with open(path, newline="") as fh:
        # row 1 is the first data row below the header (row 0); comment (#) and
        # blank lines are not fed to the reader, so they are not counted
        reader = csv.reader(line for line in fh if line[0] not in "#\r\n")
        try:
            header = next(reader, None)
            if header is None:
                raise AnalysisError(f"records file {path} is empty")
            for col in ("method", "level", "realization") + INDEX_NAMES:
                if col not in header:
                    raise AnalysisError(f"records file missing required column {col!r}")
            method_pos, level_pos = header.index("method"), header.index("level")
            realization_pos = header.index("realization")
            take_figures = itemgetter(*(header.index(name) for name in INDEX_NAMES))
            names: dict[str, int] = {}
            codes, levels, realizations, figures = array("q"), array("q"), array("q"), array("d")
            for line in reader:
                try:
                    levels.append(int(line[level_pos]))
                    realizations.append(int(line[realization_pos]))
                    figures.extend(map(float, take_figures(line)))
                    codes.append(names.setdefault(line[method_pos], len(names)))
                except (IndexError, ValueError):
                    raise AnalysisError(
                        f"records file {path}, row {reader.line_num - 1}: expected"
                        f" {len(header)} fields with a numeric level, realization and"
                        f" figures, got {','.join(line)!r}") from None
        except csv.Error as exc:
            raise AnalysisError(
                f"records file {path}, row {reader.line_num - 1}: {exc}") from None
    return Records(tuple(names), *(np.frombuffer(a, dtype=np.int64)
                                   for a in (codes, levels, realizations)),
                   np.frombuffer(figures).reshape(-1, len(INDEX_NAMES)))


def level_matrix(records: Records, level: int,
                 methods: tuple[str, ...] = DEFAULT_PCA_METHODS) -> FeatureMatrix:
    """Feature matrix of one level: the complete rows of the wanted methods, in row order."""
    wanted = [code for code, name in enumerate(records.methods) if name in methods]
    selected = (records.levels == level) & np.isin(records.codes, wanted)
    complete = np.isfinite(records.figures).all(axis=1)
    keep = selected & complete
    if np.count_nonzero(keep) < 2:
        raise AnalysisError(f"not enough complete rows at level {level}")
    labels = tuple(records.methods[code] for code in records.codes[keep])
    return FeatureMatrix(records.figures[keep], labels,
                         int(np.count_nonzero(selected & ~complete)))


def load_feature_matrix(path, level: int,
                        methods: tuple[str, ...] = DEFAULT_PCA_METHODS) -> FeatureMatrix:
    """Read a records CSV written by the sweep and build the level's feature matrix."""
    return level_matrix(read_records(path), level, methods)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (non-increasing) and eigenvectors (columns) of a symmetric matrix.

    np.linalg.eigh solves it; the name is older than that and stays because
    the benchmark's tracer wraps this function by name.  Equal eigenvalues
    keep eigh's order, and each eigenvector's largest-magnitude entry is made
    positive so the decomposition is deterministic.
    """
    a = np.asarray(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or not np.allclose(a, a.T, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise AnalysisError("jacobi_eigh expects a symmetric square matrix")
    eigenvalues, v = np.linalg.eigh(a)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues, v = eigenvalues[order], v[:, order]
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    return eigenvalues, v * np.where(pivots < 0, -1.0, 1.0)


def pca_fit(m: FeatureMatrix) -> PcaModel:
    """Standardize columns, eigendecompose their covariance, keep 2 axes."""
    x = m.values
    means = x.mean(axis=0)
    stds = x.std(axis=0, ddof=1)
    keep = stds > 1e-12 * np.maximum(1.0, np.abs(means))
    if not np.all(keep):
        dropped = [c for c, k in zip(INDEX_NAMES, keep) if not k]
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
    kept = tuple(c for c, k in zip(INDEX_NAMES, keep) if k)
    return PcaModel(kept, means[keep], stds[keep],
                    eigenvalues, vectors[:, :2].T.copy(), explained)


def project(m: FeatureMatrix, model: PcaModel) -> list[tuple[str, float, float]]:
    """Rows of m projected on the model's two axes, as (label, pc1, pc2)."""
    keep = [i for i, c in enumerate(INDEX_NAMES) if c in model.kept]
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
    dropped_cols = [c for c in INDEX_NAMES if c not in model.kept]
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
