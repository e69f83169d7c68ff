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
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .metrics import INDEX_NAMES
from .sweep import Records, _field, write_csv

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


# a records row as np.loadtxt returns it: the level, the realization and the six figures
_ROW = np.dtype([("level", np.int64), ("realization", np.int64),
                 ("figures", np.float64, (len(INDEX_NAMES),))])


def read_records(path) -> Records:
    """Parse and check every data row of a records CSV written by the sweep.

    numpy's C reader parses the numbers: a level or realization is an int64
    in ASCII digits, a figure what float() reads bar underscores and
    non-ASCII digits.  A row holding a quote or a field over the csv module's
    limit is refused.  Row 1 is the first data row below the header (row 0);
    comment (#) and blank lines are not rows.
    """
    names: dict[str, int] = {}
    codes: list[int] = []
    try:
        with open(path) as fh:   # universal newlines: every line ends in \n
            lines = (line for line in fh if line[0] not in "#\n")
            header = next(lines, None)
            if header is None:
                raise AnalysisError(f"records file {path} is empty")
            header = header.rstrip("\n").split(",")
            for col in ("method", "level", "realization") + INDEX_NAMES:
                if col not in header:
                    raise AnalysisError(f"records file {path} missing required column {col!r}")
            method_pos = header.index("method")
            limit = csv.field_size_limit()

            def rows(first):
                # a row is checked and its method taken when loadtxt asks for the next
                # row, so when loadtxt or this refuses a row, codes ends before it
                for line in chain((first,), lines):
                    yield line
                    # the csv module unquoted a field and refused one over its limit,
                    # where loadtxt would read the quote as text or the field as inf
                    line = line.rstrip("\n")
                    if '"' in line or len(line) > limit and max(map(len, line.split(","))) > limit:
                        raise ValueError
                    method = line.split(",", method_pos + 1)[method_pos]
                    codes.append(names.setdefault(method, len(names)))

            first = next(lines, None)   # loadtxt warns when it is given no row
            with warnings.catch_warnings():
                # numpy 1.23 to 2.x reads an integer field that only parses as a float
                # (1.5, nan, 1e30) truncated, with a DeprecationWarning: refuse it instead
                warnings.simplefilter("error", DeprecationWarning)
                table = np.zeros(0, _ROW) if first is None else np.loadtxt(
                    rows(first), dtype=_ROW, delimiter=",", comments=None, quotechar=None,
                    usecols=[header.index(col) for col in ("level", "realization") + INDEX_NAMES],
                    ndmin=1)
    except AnalysisError:
        raise
    except OSError as exc:
        raise AnalysisError(f"cannot read records file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the text layer decodes whole chunks ahead of the reader, so the row
        # reached may be earlier than the bad byte's
        raise AnalysisError(f"records file {path}, {_undecodable_line(path, exc)}") from None
    except (ValueError, IndexError, DeprecationWarning):
        raise AnalysisError(f"records file {path}, {_refused_row(path, len(codes) + 1)}") from None
    return Records(tuple(names), np.array(codes, dtype=np.int64),
                   *(np.ascontiguousarray(table[field]) for field in _ROW.names))


def _refused_row(path, row: int) -> str:
    """Why data row `row` of path is refused; in the csv module's words if it refuses it too."""
    with open(path) as fh:
        line = next(islice((line for line in fh if line[0] not in "#\n"), row, None), "")
    line = line.rstrip("\n")
    try:
        next(csv.reader([line]))
    except csv.Error as exc:
        return f"row {row}: {exc}"
    return (f"row {row}: expected no quotes, an integer level and realization and numeric"
            f" figures in the header's columns, got {line!r}")


def _undecodable_line(path, exc: UnicodeDecodeError) -> str:
    """Where the first line of path that exc's encoding cannot decode is, and why."""
    row = -1   # the header is row 0
    with open(path, "rb") as fh:
        # bytes.splitlines splits where the text layer does: at \n, \r and \r\n
        for lineno, line in enumerate(fh.read().splitlines(keepends=True), start=1):
            data = line[:1] not in b"#\r\n"
            row += data
            try:
                line.decode(exc.encoding)
            except UnicodeDecodeError as bad:
                where = f"row {row}" if data else f"line {lineno} (a comment)"
                return (f"{where}: not {exc.encoding} text: {bad.reason}"
                        f" (byte {line[bad.start]:#04x} at offset {bad.start})")
    return f"not {exc.encoding} text: {exc}"


def level_matrix(records: Records, level: int,
                 methods: tuple[str, ...] = DEFAULT_PCA_METHODS) -> FeatureMatrix:
    """Feature matrix of one level: the complete rows of the wanted methods, in row order."""
    wanted = np.array([name in methods for name in records.methods], dtype=bool)
    rows = np.flatnonzero(records.levels == level)
    rows = rows[wanted[records.codes[rows]]]
    figures = records.figures[rows]
    complete = np.isfinite(figures).all(axis=1)
    if np.count_nonzero(complete) < 2:
        raise AnalysisError(f"not enough complete rows at level {level}")
    labels = np.array(records.methods, dtype=object)[records.codes[rows[complete]]]
    return FeatureMatrix(figures[complete], tuple(labels),
                         int(complete.size - np.count_nonzero(complete)))


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


def project(m: FeatureMatrix, model: PcaModel) -> np.ndarray:
    """Rows of m projected on the model's two axes: scores (N, 2), row i labelled m.labels[i]."""
    keep = [i for i, c in enumerate(INDEX_NAMES) if c in model.kept]
    xk = (m.values[:, keep] - model.means) / model.stds
    return xk @ model.components.T


def _groups(labels, scores: np.ndarray) -> dict[str, np.ndarray]:
    """The score rows of each label, as (n, 2) arrays in first-seen label order."""
    names = np.asarray(labels)
    return {label: scores[names == label] for label in dict.fromkeys(labels)}


def group_dispersion(labels, scores: np.ndarray) -> dict[str, float]:
    """Per-label mean distance to the label centroid; labels with < 2 points skipped."""
    out: dict[str, float] = {}
    for label, pts in _groups(labels, scores).items():
        if len(pts) < 2:
            warnings.warn(f"label {label!r} has fewer than 2 points; skipped", stacklevel=2)
            continue
        out[label] = float(np.mean(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    return out


def group_centroids(labels, scores: np.ndarray) -> dict[str, np.ndarray]:
    return {label: pts.mean(axis=0) for label, pts in _groups(labels, scores).items()}


# ---------------------------------------------------------------------------
# CSV outputs

def write_projection_csv(labels, scores: np.ndarray, path, comment: str | None = None) -> None:
    write_csv(path, ("label", "pc1", "pc2"), (labels, *scores.T), comment)


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
    write_csv(path, ("key", "value"), ([key for key, _ in rows], [_field(v) for _, v in rows]),
              comment)
