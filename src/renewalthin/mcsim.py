"""Monte Carlo validation of the thinning pipeline.

Emission streams are renewal processes: waiting times drawn i.i.d. from a
source law, accumulated into timestamps, then thinned by an independent
keep/drop coin per click.  The detected stream's empirical waiting-time
histogram is compared against the closed-form detected density.

Randomness comes from numpy's Philox counter-based generator, seeded
through SeedSequence with (seed, shard) so results are reproducible and
shard-parallel runs are deterministic for a fixed (seed, shard count).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

from .errors import GridMismatch, TooFewClicks, ValidationError
from .spectral import Density, TimeGrid, density_from_masses
from .thinning import _eff

__all__ = [
    "KS_COEFF_1PCT",
    "SourceLaw",
    "Exponential",
    "Gamma",
    "Uniform",
    "Periodic",
    "AntibunchShaped",
    "ClickStream",
    "HistogramResult",
    "CompareMetrics",
    "simulate",
    "waiting_time_histogram",
    "compare",
    "ks_critical_value",
    "parse_law",
]

# Asymptotic one-sample Kolmogorov-Smirnov coefficient at the 1% level:
# D_crit = KS_COEFF_1PCT / sqrt(N).  Matches scipy.special.kolmogi(0.01)
# to 4 decimals (cross-checked in the test suite).
KS_COEFF_1PCT = 1.6276


class SourceLaw(ABC):
    """A waiting-time law: analytic cdf and mean plus an exact sampler."""

    @abstractmethod
    def cdf(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray: ...

    @abstractmethod
    def describe(self) -> tuple[str, dict]:
        """(name, parameters) for metadata sidecars."""

    def density(self, grid: TimeGrid) -> Density:
        """Discretize onto a grid by centered-cell CDF differences.

        Sample k receives the mass of [t_k - dt/2, t_k + dt/2) (the first
        cell is clipped at 0), then the whole vector is renormalized.
        Centering the cells keeps the discrete first moment unbiased, so
        spectra computed from the discretization agree with the
        continuous transform to second order in dt.
        """
        edges = (np.arange(grid.n + 1) - 0.5) * grid.dt
        edges[0] = 0.0
        c = self.cdf(edges)
        return density_from_masses(grid, np.diff(c))


@dataclass(frozen=True)
class Exponential(SourceLaw):
    rate: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"rate must be positive, got {self.rate}")

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= 0, -np.expm1(-self.rate * t), 0.0)

    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng, size):
        return rng.exponential(scale=1.0 / self.rate, size=size)

    def describe(self):
        return "exponential", {"rate": self.rate}


@dataclass(frozen=True)
class Gamma(SourceLaw):
    shape: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.shape) and self.shape > 0):
            raise ValidationError(f"shape must be positive, got {self.shape}")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"rate must be positive, got {self.rate}")

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t > 0, sp_special.gammainc(self.shape, self.rate * np.clip(t, 0, None)), 0.0)

    def mean(self):
        return self.shape / self.rate

    def sample(self, rng, size):
        return rng.gamma(self.shape, scale=1.0 / self.rate, size=size)

    def describe(self):
        return "gamma", {"shape": self.shape, "rate": self.rate}


@dataclass(frozen=True)
class Uniform(SourceLaw):
    lo: float = 0.5
    hi: float = 1.5

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and 0 <= self.lo < self.hi):
            raise ValidationError(f"need 0 <= lo < hi, got lo={self.lo}, hi={self.hi}")

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size=size)

    def describe(self):
        return "uniform", {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Periodic(SourceLaw):
    """Degenerate law: every waiting time equals the period exactly."""

    period: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValidationError(f"period must be positive, got {self.period}")

    def cdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        return np.where(t >= self.period, 1.0, 0.0)

    def mean(self):
        return self.period

    def sample(self, rng, size):
        return np.full(size, self.period, dtype=np.float64)

    def describe(self):
        return "periodic", {"period": self.period}


@dataclass(frozen=True)
class AntibunchShaped(SourceLaw):
    """Density proportional to (1 - exp(-rise*t)) * exp(-decay*t).

    Vanishes at t=0 and rises on the 1/rise scale before an exponential
    tail; the shape a strongly antibunched emitter produces.  Normalized,
    the density is b(a+b)/a (e^{-bt} - e^{-(a+b)t}) with a = rise and
    b = decay: the hypoexponential law of Exp(decay) + Exp(rise + decay),
    which is how it is sampled, exactly.
    """

    rise: float = 5.0
    decay: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.rise) and self.rise > 0):
            raise ValidationError(f"rise rate must be positive, got {self.rise}")
        if not (np.isfinite(self.decay) and self.decay > 0):
            raise ValidationError(f"decay rate must be positive, got {self.decay}")

    def cdf(self, t):
        t = np.clip(np.asarray(t, dtype=np.float64), 0.0, None)
        a, b = self.rise, self.decay
        return b * (a + b) / a * (-np.expm1(-b * t) / b + np.expm1(-(a + b) * t) / (a + b))

    def mean(self):
        return 1.0 / self.decay + 1.0 / (self.rise + self.decay)

    def sample(self, rng, size):
        return (rng.exponential(1.0 / self.decay, size)
                + rng.exponential(1.0 / (self.rise + self.decay), size))

    def describe(self):
        return "antibunch", {"rise": self.rise, "decay": self.decay}


@dataclass(frozen=True)
class ClickStream:
    """Detected timestamps plus the provenance needed to reproduce them."""

    timestamps: np.ndarray
    n_emitted: int
    p: float
    seed: int
    shards: int = 1

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.ndim != 1:
            raise ValidationError("timestamps must be a 1-d array")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValidationError("timestamps must be strictly increasing")
        ts = np.array(ts, copy=True)
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, shard])))


def simulate(law: SourceLaw, p, n_emitted: int, seed: int,
             shards: int = 1) -> ClickStream:
    """Emit n_emitted clicks from the law and thin them with probability p.

    Work is split over ``shards`` independent generators, each seeded by
    (seed, shard index); for a fixed (seed, shards) pair the output is
    bitwise deterministic regardless of how the shards are scheduled,
    because intervals and coin flips are drawn per shard and reassembled
    in shard order.
    """
    eff = _eff(p).p
    if not isinstance(n_emitted, (int, np.integer)) or n_emitted < 1:
        raise ValidationError(f"need at least one emission, got {n_emitted}")
    if not isinstance(shards, (int, np.integer)) or shards < 1:
        raise ValidationError(f"shard count must be a positive integer, got {shards}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    base = n_emitted // shards
    counts = [base + (1 if s < n_emitted % shards else 0) for s in range(shards)]
    intervals = []
    kept = []
    for s, count in enumerate(counts):
        if count == 0:
            continue
        rng = _shard_rng(seed, s)
        intervals.append(law.sample(rng, count))
        kept.append(rng.random(count) < eff)
    emission_times = np.cumsum(np.concatenate(intervals))
    mask = np.concatenate(kept)
    return ClickStream(timestamps=emission_times[mask], n_emitted=int(n_emitted),
                       p=eff, seed=seed, shards=int(shards))


@dataclass(frozen=True)
class HistogramResult:
    """Binned waiting-time density plus the bookkeeping around it."""

    density: Density
    n_intervals: int
    overflow_count: int

    @property
    def overflow_fraction(self) -> float:
        return self.overflow_count / self.n_intervals


def waiting_time_histogram(clicks: ClickStream, grid: TimeGrid) -> HistogramResult:
    """Bin inter-click intervals onto the grid as a density estimate.

    Interval tau lands in bin round(tau/dt), matching the centered-cell
    convention used when discretizing analytic laws.  Intervals past the
    horizon are tallied as overflow, never silently dropped: bin counts
    are divided by (total intervals * dt), so the density sums to
    1 - overflow_fraction.
    """
    ts = clicks.timestamps
    if ts.size < 2:
        raise TooFewClicks(
            f"need at least 2 timestamps to form intervals, got {ts.size}")
    intervals = np.diff(ts)
    idx = np.rint(intervals / grid.dt).astype(np.int64)
    overflow = int(np.count_nonzero(idx >= grid.n))
    counts = np.bincount(idx[idx < grid.n], minlength=grid.n)
    total = intervals.size
    values = counts.astype(np.float64) / (total * grid.dt)
    return HistogramResult(density=Density(grid, values),
                           n_intervals=int(total), overflow_count=overflow)


@dataclass(frozen=True)
class CompareMetrics:
    """Distances between an empirical and an analytic grid density."""

    l1: float
    linf: float
    ks: float


def compare(empirical: Density, analytic: Density) -> CompareMetrics:
    """L1, peak-normalized Linf, and KS distance on a shared grid.

    l1 = dt * sum |e - a|; linf = max |e - a| / max(a); ks is the maximum
    gap between the two cumulative sums (each times dt).
    """
    if empirical.grid != analytic.grid:
        raise GridMismatch(
            f"cannot compare densities on {empirical.grid} vs {analytic.grid}")
    dt = empirical.grid.dt
    diff = empirical.values - analytic.values
    peak = float(analytic.values.max())
    if peak <= 0:
        raise ValidationError("analytic density has no positive values")
    cdf_gap = np.abs(np.cumsum(diff) * dt)
    return CompareMetrics(
        l1=float(np.abs(diff).sum() * dt),
        linf=float(np.abs(diff).max() / peak),
        ks=float(cdf_gap.max()),
    )


def ks_critical_value(n_intervals: int, coeff: float = KS_COEFF_1PCT) -> float:
    """One-sample KS critical distance coeff/sqrt(N)."""
    if n_intervals < 1:
        raise ValidationError("need at least one interval")
    return coeff / np.sqrt(n_intervals)


_LAW_BUILDERS = {
    "exponential": (Exponential, ("rate",)),
    "gamma": (Gamma, ("shape", "rate")),
    "uniform": (Uniform, ("lo", "hi")),
    "periodic": (Periodic, ("period",)),
    "antibunch": (AntibunchShaped, ("rise", "decay")),
}


def parse_law(text: str) -> SourceLaw:
    """Parse 'name:param,param' into a SourceLaw.

    Examples: 'exponential:1.0', 'gamma:2,2', 'uniform:0.5,1.5',
    'periodic:1.0', 'antibunch:5,1'.  Omitted parameters take the law's
    defaults.
    """
    name, _, param_text = text.partition(":")
    name = name.strip().lower()
    if name not in _LAW_BUILDERS:
        known = ", ".join(sorted(_LAW_BUILDERS))
        raise ValidationError(f"unknown law {name!r}; expected one of: {known}")
    cls, fields = _LAW_BUILDERS[name]
    params = [s for s in param_text.split(",") if s.strip()] if param_text else []
    if len(params) > len(fields):
        raise ValidationError(
            f"law {name!r} takes at most {len(fields)} parameters "
            f"({', '.join(fields)}), got {len(params)}")
    try:
        kwargs = {f: float(s) for f, s in zip(fields, params)}
    except ValueError as exc:
        raise ValidationError(f"bad numeric parameter in {text!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except TypeError:
        raise ValidationError(
            f"law {name!r} needs {len(fields)} parameters "
            f"({', '.join(fields)}), got {len(params)}") from None
