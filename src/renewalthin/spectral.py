"""Uniform time grids, waiting-time densities, and their Fourier spectra.

The continuous transform phi(omega) = integral f(t) exp(-i omega t) dt is
approximated by the rectangle rule on the grid, which is exactly dt times
the DFT with numpy's sign convention.  Keeping the quadrature this simple
makes the convolution theorem hold against plain discrete convolution to
round-off, so the brute-force series route and the spectral route can be
compared without quadrature slack.

Every density is real, so both directions use numpy's real-input FFTs.
A Spectrum still holds all n samples in numpy's full FFT layout: the
forward transform fills the negative frequencies by mirroring the
non-negative ones, so its output is exactly Hermitian, and the inverse
reads the non-negative half only, so its output is real by construction.

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
    "NORM_TOL",
    "MAG_TOL",
    "TAIL_TOL",
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

# Allowed deviation of a density's total mass from 1.
NORM_TOL = 1e-6
# Round-off allowance for the unit bound on spectra, the Hermitian residual
# bound of an inverse transform, and the classical-region tests.
MAG_TOL = 1e-9
# Mass allowed in the last grid sample and in the tail window.
TAIL_TOL = 1e-8


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


def grid_for_mean(mean_wait: float, n: int = DEFAULT_GRID_SAMPLES) -> TimeGrid:
    """Grid whose horizon covers DEFAULT_MEAN_COVERAGE mean waiting times."""
    if not (np.isfinite(mean_wait) and mean_wait > 0):
        raise ValueError(f"mean waiting time must be positive, got {mean_wait}")
    return TimeGrid(n=n, dt=DEFAULT_MEAN_COVERAGE * mean_wait / n)


def _readonly(values, dtype) -> np.ndarray:
    """values itself if it is a read-only dtype array that owns its memory,
    else a read-only copy.

    Producers in this package freeze the buffer they allocated and hand it
    over, so it is not copied again; an array that is writeable, or a view
    of memory someone else owns, is copied so that the container never
    aliases anything a caller can still change.
    """
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.base is None and not values.flags.writeable):
        return values
    a = np.array(values, dtype=dtype)
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
        v = _readonly(self.values, np.float64)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise ValueError(
                f"density needs {self.grid.n} samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)

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
        v = _readonly(self.values, np.complex128)
        if v.ndim != 1 or v.shape[0] != self.grid.n:
            raise ValueError(
                f"spectrum needs {self.grid.n} samples, got shape {v.shape}")
        object.__setattr__(self, "values", v)


def validate_density(d: Density) -> None:
    """Check the probability-density invariants, raising InvalidDensity.

    Checks, in order: no value below zero; total mass within NORM_TOL of
    1; mass below TAIL_TOL in the final sample and in the last tenth of
    the grid (wrap-around headroom for the circular transform).
    """
    v = d.values
    dt = d.grid.dt
    vmin = float(v.min())
    if vmin < 0.0:
        k = int(v.argmin())
        raise InvalidDensity(
            "negativity", f"value {vmin:.6g} at t={k * dt:.6g} below 0")
    mass = d.mass
    if abs(mass - 1.0) > NORM_TOL:
        raise InvalidDensity(
            "normalization",
            f"total mass {mass:.12g} deviates from 1 by more than {NORM_TOL:.3g}")
    last_mass = float(v[-1]) * dt
    if not last_mass < TAIL_TOL:
        raise InvalidDensity(
            "tail_sample",
            f"final sample carries mass {last_mass:.3g} >= {TAIL_TOL:.3g}; "
            "extend the horizon")
    tail_start = int(np.ceil((1.0 - TAIL_WINDOW_FRACTION) * d.grid.n))
    window_mass = float(v[tail_start:].sum()) * dt
    if not window_mass < TAIL_TOL:
        raise InvalidDensity(
            "tail_window",
            f"last {TAIL_WINDOW_FRACTION:.0%} of the grid carries mass "
            f"{window_mass:.3g} >= {TAIL_TOL:.3g}; extend the horizon")


def forward_transform(d: Density) -> Spectrum:
    """Rectangle-rule transform of a valid density, normalized to unit mass.

    Returns the spectrum with values dt * DFT(d.values) / mass: the
    characteristic function of d / mass, so sample 0 is 1 and the unit
    bound |phi| <= 1 holds up to round-off even when the mass sits
    anywhere in the NORM_TOL band that validation accepts.  The
    non-negative frequencies come from a real-input FFT and the negative
    ones are their exact conjugates, so s[-k] == conj(s[k]) holds exactly.
    """
    validate_density(d)
    n = d.grid.n
    full = np.empty(n, dtype=np.complex128)
    half = np.fft.rfft(d.values, out=full[:n // 2 + 1])
    half *= d.grid.dt / d.mass
    np.conjugate(half[(n + 1) // 2 - 1:0:-1], out=full[half.size:])
    full.setflags(write=False)
    return Spectrum(d.grid, full)


def inverse_transform(s: Spectrum) -> Density:
    """Invert a spectrum back to the time grid with a real-input inverse FFT.

    Only the non-negative frequencies are read, so the result is real by
    construction.  The spectrum must be Hermitian up to round-off: the
    residual (see _hermitian_residual) bounds the imaginary part a full
    complex inverse would discard, and a residual above MAG_TOL relative
    to the spectrum's own scale raises NonHermitianSpectrum.  Spectra made
    by this package are exactly Hermitian, so their residual is 0.  The
    bound is conservative: it sums the asymmetry of every bin, so a
    spectrum built elsewhere whose per-bin asymmetry is incoherent noise
    of size e reads about e / dt, where the largest discarded imaginary
    part is only about e / (sqrt(n) dt), and can be rejected although a
    check of that imaginary part would pass it.  inverse(forward(d))
    reproduces d / mass to round-off.
    """
    residual = _hermitian_residual(s)
    # scale >= 1, so a residual within MAG_TOL passes without computing it.
    if residual > MAG_TOL:
        scale = max(1.0, float(np.abs(s.values).max()))
        if residual > MAG_TOL * scale:
            raise NonHermitianSpectrum(
                f"Hermitian residual {residual:.3g} exceeds "
                f"{MAG_TOL:.3g} x spectrum scale {scale:.3g}")
    n = s.grid.n
    v = np.fft.irfft(s.values[:n // 2 + 1], n)
    v /= s.grid.dt
    v.setflags(write=False)
    return Density(s.grid, v)


def _hermitian_residual(s: Spectrum) -> float:
    """(|Im v_0| + sum_{0<k<n/2} |v_k - conj(v_{n-k})| + |Im v_{n/2}|) / (n dt).

    The Nyquist term is present for even n only.  With m_k = v_k -
    conj(v_{(n-k) mod n}), Im ifft(v)_j is 1/(2n) times a sum over all k
    of m_k times unit phases; |m_{n-k}| = |m_k|, m_0 = 2i Im v_0 and, for
    even n, m_{n/2} = 2i Im v_{n/2}.  The triangle inequality then makes
    this sum an upper bound on max_j |Im ifft(v)_j| / dt, with equality
    when the asymmetry sits in bin 0 alone.
    """
    v = s.values
    n = s.grid.n
    pairs = (n - 1) // 2
    mismatch = np.conjugate(v[n - 1:n - 1 - pairs:-1])
    np.subtract(v[1:pairs + 1], mismatch, out=mismatch)
    total = abs(v[0].imag) + float(np.abs(mismatch).sum())
    if n % 2 == 0:
        total += abs(v[n // 2].imag)
    return total / (n * s.grid.dt)


def density_from_masses(grid: TimeGrid, masses: np.ndarray) -> Density:
    """Build a normalized Density from per-sample masses.

    The masses are renormalized to sum to exactly 1; values are
    masses / dt.  Raises if the masses are degenerate.
    """
    m = np.asarray(masses, dtype=np.float64)
    total = m.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"mass vector must have positive finite total, got {total}")
    v = m / (total * grid.dt)
    v.setflags(write=False)
    return Density(grid, v)


def negativity_mass(d: Density) -> float:
    """Total mass of the negative part: dt * sum(max(0, -value))."""
    v = np.negative(d.values)
    np.clip(v, 0.0, None, out=v)
    return float(v.sum() * d.grid.dt)
