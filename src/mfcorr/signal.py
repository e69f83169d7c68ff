"""Core data types: sampled signals, discrete multisets, and grid alignment checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9


class AlignmentError(ValueError):
    """Two inputs do not share the grid (x0, dx, length) required by a binary operation."""


class DomainError(ValueError):
    """An input violates a documented precondition (range, shape, or sign)."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real-valued function on a 1-D grid.

    samples: amplitude values, one per grid point
    x0: abscissa of the first sample
    dx: grid spacing (> 0)
    """

    samples: np.ndarray
    x0: float = 0.0
    dx: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_float_array(self.samples, "samples"))
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise DomainError(f"dx must be a positive finite number, got {self.dx}")
        if not math.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got {self.x0}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        """Grid abscissae x0 + i*dx."""
        return self.x0 + self.dx * np.arange(self.samples.size)

    def with_samples(self, samples) -> "Signal":
        return Signal(samples, x0=self.x0, dx=self.dx)


@dataclass(frozen=True)
class Multiset:
    """Discrete multiset: ordered non-negative multiplicities."""

    multiplicities: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.multiplicities, "multiplicities")
        if np.any(arr < 0):
            raise DomainError("multiplicities must be non-negative")
        object.__setattr__(self, "multiplicities", arr)

    def __len__(self) -> int:
        return self.multiplicities.size


def same_spacing(dx_f: float, dx_g: float) -> bool:
    return math.isclose(dx_f, dx_g, rel_tol=REL_TOL, abs_tol=0.0)


def require_aligned(f: Signal, g: Signal) -> None:
    """Binary functionals need both signals on the identical grid."""
    if len(f) != len(g):
        raise AlignmentError(f"length mismatch: {len(f)} vs {len(g)}")
    if not same_spacing(f.dx, g.dx):
        raise AlignmentError(f"dx mismatch: {f.dx} vs {g.dx}")
    if not math.isclose(f.x0, g.x0, rel_tol=REL_TOL, abs_tol=REL_TOL * f.dx):
        raise AlignmentError(f"x0 mismatch: {f.x0} vs {g.x0}")


def require_same_size(a: Multiset, b: Multiset) -> None:
    if len(a) != len(b):
        raise AlignmentError(f"multiset size mismatch: {len(a)} vs {len(b)}")
