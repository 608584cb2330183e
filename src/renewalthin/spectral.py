"""Uniform time grids, waiting-time densities, and their Fourier spectra.

The continuous transform phi(omega) = integral f(t) exp(-i omega t) dt is
approximated by the rectangle rule on the grid, which is exactly dt times
the DFT with numpy's sign convention.  Keeping the quadrature this simple
makes the convolution theorem hold against plain discrete convolution to
round-off, so the brute-force series route and the spectral route can be
compared without quadrature slack.

The discrete transform is circular.  All pipelines therefore demand tail
headroom: the last tenth of the grid must carry almost no mass, otherwise
wrap-around aliasing silently corrupts results.  Violations raise, they
are never warnings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDensity, NonHermitianSpectrum

__all__ = [
    "DEFAULT_GRID_SAMPLES",
    "DEFAULT_MEAN_COVERAGE",
    "TAIL_WINDOW_FRACTION",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "TimeGrid",
    "Density",
    "Spectrum",
    "grid_for_mean",
    "validate_density",
    "forward_transform",
    "inverse_transform",
    "density_from_masses",
    "negativity_mass",
]

DEFAULT_GRID_SAMPLES = 4096
# Horizon sizing in units of the mean waiting time.  20 is the bare
# minimum for exponential tails; 25 keeps the tail-window check clear of
# its threshold with an order of magnitude to spare.
DEFAULT_MEAN_COVERAGE = 25.0
# Fraction of the grid that the tail-headroom check inspects.
TAIL_WINDOW_FRACTION = 0.1


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances used by validation and the transforms.

    norm: allowed deviation of the total mass from 1.
    mag:  round-trip / symmetry tolerance for spectra and region tests.
    neg:  how far below zero a declared-valid density value may sit.
    tail: mass allowed in the last grid sample and in the tail window.
    """

    norm: float = 1e-6
    mag: float = 1e-9
    neg: float = 0.0
    tail: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class TimeGrid:
    """n uniformly spaced time samples t_k = k * dt, k = 0 .. n-1."""

    n: int
    dt: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"grid needs at least 2 samples, got n={self.n}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"grid spacing must be positive and finite, got dt={self.dt}")

    @property
    def horizon(self) -> float:
        """Total covered time span n * dt."""
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def omegas(self) -> np.ndarray:
        """Angular frequencies 2*pi*m/(n*dt), folded to signed values for m >= n/2."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dt)


def grid_for_mean(mean_wait: float, n: int = DEFAULT_GRID_SAMPLES,
                  coverage: float = DEFAULT_MEAN_COVERAGE) -> TimeGrid:
    """Grid whose horizon covers ``coverage`` mean waiting times."""
    if not (np.isfinite(mean_wait) and mean_wait > 0):
        raise ValueError(f"mean waiting time must be positive, got {mean_wait}")
    return TimeGrid(n=n, dt=coverage * mean_wait / n)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Density:
    """A real signal sampled on a TimeGrid, value[k] at t_k.

    For a probability density per unit time, value[k] * dt is the mass
    attributed to sample k.  The container itself is permissive: signed
    signals (recovered densities, partial sums) ride in the same type.
    Operations that require a genuine probability density call
    :func:`validate_density` on entry.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise ValueError(
                f"density needs {self.grid.n} samples, got shape {v.shape}")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dt)

    def mean(self) -> float:
        """First moment under the rectangle rule."""
        return float((self.grid.times() * self.values).sum() * self.grid.dt)


@dataclass(frozen=True)
class Spectrum:
    """Complex samples of a transform on the frequency grid of a TimeGrid.

    Sample m sits at omega_m = 2*pi*m/(n*dt), folded to signed
    frequencies for m >= n/2 (numpy FFT layout).
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise ValueError(
                f"spectrum needs {self.grid.n} samples, got shape {v.shape}")
        object.__setattr__(self, "values", _readonly(v))


def validate_density(d: Density, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Check the probability-density invariants, raising InvalidDensity.

    Checks, in order: no value below -tol.neg; total mass within tol.norm
    of 1; negligible mass in the final sample and in the last tenth of
    the grid (wrap-around headroom for the circular transform).
    """
    v = d.values
    dt = d.grid.dt
    vmin = float(v.min())
    if vmin < -tol.neg:
        k = int(v.argmin())
        raise InvalidDensity(
            "negativity",
            f"value {vmin:.6g} at t={k * dt:.6g} below -{tol.neg:.3g}")
    mass = d.mass
    if abs(mass - 1.0) > tol.norm:
        raise InvalidDensity(
            "normalization",
            f"total mass {mass:.12g} deviates from 1 by more than {tol.norm:.3g}")
    last_mass = float(v[-1]) * dt
    if not last_mass < tol.tail:
        raise InvalidDensity(
            "tail_sample",
            f"final sample carries mass {last_mass:.3g} >= {tol.tail:.3g}; "
            "extend the horizon")
    tail_start = int(np.ceil((1.0 - TAIL_WINDOW_FRACTION) * d.grid.n))
    window_mass = float(v[tail_start:].sum()) * dt
    if not window_mass < tol.tail:
        raise InvalidDensity(
            "tail_window",
            f"last {TAIL_WINDOW_FRACTION:.0%} of the grid carries mass "
            f"{window_mass:.3g} >= {tol.tail:.3g}; extend the horizon")


def forward_transform(d: Density, tol: Tolerances = DEFAULT_TOLERANCES) -> Spectrum:
    """Rectangle-rule transform of a valid density.

    Returns the spectrum with values dt * DFT(d.values); sample 0 equals
    the total mass, so it is 1 within tol.norm for a valid density.
    """
    validate_density(d, tol)
    return Spectrum(d.grid, np.fft.fft(d.values) * d.grid.dt)


def inverse_transform(s: Spectrum, tol: Tolerances = DEFAULT_TOLERANCES) -> Density:
    """Invert a spectrum back to the time grid.

    The reconstruction of a (numerically) Hermitian spectrum is real up
    to round-off; the imaginary residual is discarded when it is below
    tol.mag relative to the spectrum's own scale and raises
    NonHermitianSpectrum otherwise.  inverse(forward(d)) reproduces d to
    round-off.
    """
    y = np.fft.ifft(s.values) / s.grid.dt
    scale = max(1.0, float(np.abs(s.values).max()))
    residual = float(np.abs(y.imag).max())
    if residual > tol.mag * scale:
        raise NonHermitianSpectrum(
            f"imaginary residual {residual:.3g} exceeds "
            f"{tol.mag:.3g} x spectrum scale {scale:.3g}")
    return Density(s.grid, y.real)


def density_from_masses(grid: TimeGrid, masses: np.ndarray) -> Density:
    """Build a normalized Density from per-sample masses.

    The masses are renormalized to sum to exactly 1; values are
    masses / dt.  Raises if the masses are degenerate.
    """
    m = np.asarray(masses, dtype=np.float64)
    total = m.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"mass vector must have positive finite total, got {total}")
    return Density(grid, m / (total * grid.dt))


def negativity_mass(d: Density) -> float:
    """Total mass of the negative part: dt * sum(max(0, -value))."""
    return float(np.clip(-d.values, 0.0, None).sum() * d.grid.dt)
