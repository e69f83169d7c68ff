"""Synthetic object/template generators and the uniform additive noise model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import DomainError, Signal

# Benchmark defaults: two-Gaussian object on x in [0, 6.4), 640 samples (dx = 0.01),
# principal peak 2.0/sigma 0.3 at 4.5, secondary 1.0/sigma 0.15 at 1.8.
DEFAULT_GRID = (0.0, 6.4, 640)
DEFAULT_TEMPLATE_WIDTH = 1.2
DEFAULT_TEMPLATE_AMPLITUDE = 2.0
N_NOISE_LEVELS = 21


def _require_finite(values: dict) -> None:
    """Refuse a spec field that is inf or NaN, by its name, before any check compares it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ObjectSpec:
    """Two-Gaussian object: principal peak (h_p, sigma_p, x_p) plus secondary."""

    h_p: float = 2.0
    h_s: float = 1.0
    sigma_p: float = 0.3
    sigma_s: float = 0.15
    x_p: float = 4.5
    x_s: float = 1.8
    grid: tuple[float, float, int] = DEFAULT_GRID

    def __post_init__(self):
        start, end, n = self.grid
        _require_finite({"h_p": self.h_p, "h_s": self.h_s, "sigma_p": self.sigma_p,
                         "sigma_s": self.sigma_s, "x_p": self.x_p, "x_s": self.x_s,
                         "grid start": start, "grid end": end})
        if not (self.h_p > self.h_s > 0):
            raise DomainError(f"need h_p > h_s > 0, got h_p={self.h_p}, h_s={self.h_s}")
        if self.sigma_p <= 0 or self.sigma_s <= 0:
            raise DomainError("sigma_p and sigma_s must be positive")
        if self.x_p == self.x_s:
            raise DomainError("peak positions must differ")
        if self.x_p == 0 or self.x_s == 0:
            raise DomainError("peak positions serve as relative-error scales and must be nonzero")
        if not (n >= 2 and end > start):
            raise DomainError(f"degenerate grid {self.grid}")
        for pos, sigma, name in ((self.x_p, self.sigma_p, "principal"),
                                 (self.x_s, self.sigma_s, "secondary")):
            if pos - 4 * sigma < start or pos + 4 * sigma > end:
                raise DomainError(f"grid must span the {name} peak with a 4-sigma margin")

    @property
    def dx(self) -> float:
        start, end, n = self.grid
        return (end - start) / n


@dataclass(frozen=True)
class TemplateSpec:
    """Half-sine template: amplitude * sin(pi * t / width) on t in [0, width]."""

    width: float = DEFAULT_TEMPLATE_WIDTH
    amplitude: float = DEFAULT_TEMPLATE_AMPLITUDE

    def __post_init__(self):
        _require_finite({"template width": self.width, "template amplitude": self.amplitude})
        if self.width <= 0 or self.amplitude <= 0:
            raise DomainError("template width and amplitude must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric uniform noise at one of 21 discrete levels.

    Amplitude rule: L = multiplier * level/20, so level 0 is noiseless and the
    top level spans +-multiplier/2.  The draw stream is a pure function of
    (seed, level, realization).
    """

    level: int = 0
    seed: int = 0
    realization: int = 0
    multiplier: float = 1.0

    def __post_init__(self):
        if not (0 <= self.level < N_NOISE_LEVELS):
            raise DomainError(f"noise level must be in 0..{N_NOISE_LEVELS - 1}, got {self.level}")
        if self.realization < 0:
            raise DomainError("realization index must be non-negative")
        _require_finite({"noise multiplier": self.multiplier})
        if self.multiplier < 0:
            raise DomainError("noise multiplier must be non-negative")

    @property
    def amplitude(self) -> float:
        return self.multiplier * self.level / (N_NOISE_LEVELS - 1)


def gen_object(spec: ObjectSpec) -> Signal:
    """Sample the two-Gaussian object on its grid."""
    start, end, n = spec.grid
    dx = spec.dx
    x = start + dx * np.arange(n)
    samples = (spec.h_p * np.exp(-((x - spec.x_p) ** 2) / (2 * spec.sigma_p**2))
               + spec.h_s * np.exp(-((x - spec.x_s) ** 2) / (2 * spec.sigma_s**2)))
    return Signal(samples, x0=start, dx=dx)


def gen_template(spec: TemplateSpec, dx: float) -> Signal:
    """Sample the half sine on the given spacing; endpoints are exactly zero.

    The width is realized as the nearest whole number of grid steps.
    """
    if not (dx > 0 and math.isfinite(spec.width / dx)):
        raise DomainError(f"dx must be positive with a finite width / dx, got dx={dx}")
    steps = round(spec.width / dx)
    if steps < 2:
        raise DomainError(f"template width {spec.width} must be at least 2*dx={2 * dx}")
    j = np.arange(steps + 1)
    samples = spec.amplitude * np.sin(np.pi * j / steps)
    samples[[0, -1]] = 0.0
    return Signal(samples, x0=0.0, dx=dx)


def noise_rng(noise: NoiseSpec) -> np.random.Generator:
    """Deterministic generator for one (seed, level, realization) cell."""
    return _cell_rng(noise.seed, noise.level, noise.realization)


def _cell_rng(seed: int, level: int, realization: int) -> np.random.Generator:
    # default_rng's generator for this SeedSequence, without its wrapper's cost
    entropy = (seed & ((1 << 64) - 1), level, realization)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def noisy_rows(samples: np.ndarray, noise: NoiseSpec, rows: int) -> np.ndarray:
    """(rows, n): samples plus L*(u - 0.5), u i.i.d. uniform on [0, 1), in row i for the
    cell of realization noise.realization + i; level 0 gives the samples' values."""
    out = np.empty((rows, samples.size))
    for i, row in enumerate(out):
        _cell_rng(noise.seed, noise.level, noise.realization + i).random(out=row)
    out -= 0.5
    out *= noise.amplitude
    out += samples
    if not np.isfinite(out).all():
        raise DomainError("samples contains non-finite values")
    return out


def add_noise(signal: Signal, noise: NoiseSpec) -> Signal:
    """The signal with its cell's noise added: noisy_rows' one-row case."""
    return signal.with_samples(noisy_rows(signal.samples, noise, 1)[0])
