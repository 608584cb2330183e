"""Monte Carlo validation of the thinning pipeline.

Emission streams are renewal processes: waiting times drawn i.i.d. from a
source law, accumulated into timestamps, then thinned by an independent
keep/drop coin per click.  The detected stream's empirical waiting-time
histogram is compared against the closed-form detected density.

Randomness comes from numpy's SFC64 generator.  Each shard's emissions
are cut into fixed blocks of BLOCK_EMISSIONS, and every block draws from
its own child of SeedSequence([seed, shard]), so blocks run on threads in
any order and the stream is still bitwise reproducible for a fixed
(seed, shard count).
"""

from __future__ import annotations

import dataclasses
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import special as sp_special

from .errors import GridMismatch, TooFewClicks, ValidationError
from .spectral import Density, TimeGrid, _readonly, density_from_masses
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
# D_crit = KS_COEFF_1PCT / sqrt(N).
KS_COEFF_1PCT = float(sp_special.kolmogi(0.01))

# Emissions per block, each block with its own generator: 2 MiB per float64
# array.  A stream of up to this many emissions runs inline, without threads;
# smaller blocks measured a higher peak memory, because the malloc arenas of
# worker threads keep the blocks they freed.
BLOCK_EMISSIONS = 2**18


class SourceLaw(ABC):
    """A waiting-time law: analytic cdf and mean plus an exact sampler.

    Each law is a frozen dataclass whose fields are its parameters, in the
    order ``parse_law`` reads them, and whose ``name`` is its CLI name.
    """

    name: ClassVar[str]

    @abstractmethod
    def cdf(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def mean(self) -> float: ...

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray: ...

    def describe(self) -> tuple[str, dict]:
        """(name, parameters) for metadata sidecars."""
        return self.name, dataclasses.asdict(self)

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
    name: ClassVar[str] = "exponential"
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


@dataclass(frozen=True)
class Gamma(SourceLaw):
    name: ClassVar[str] = "gamma"
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


@dataclass(frozen=True)
class Uniform(SourceLaw):
    name: ClassVar[str] = "uniform"
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


@dataclass(frozen=True)
class Periodic(SourceLaw):
    """Degenerate law: every waiting time equals the period exactly."""

    name: ClassVar[str] = "periodic"
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


@dataclass(frozen=True)
class AntibunchShaped(SourceLaw):
    """Density proportional to (1 - exp(-rise*t)) * exp(-decay*t).

    Vanishes at t=0 and rises on the 1/rise scale before an exponential
    tail; the shape a strongly antibunched emitter produces.  Normalized,
    the density is b(a+b)/a (e^{-bt} - e^{-(a+b)t}) with a = rise and
    b = decay: the hypoexponential law of Exp(decay) + Exp(rise + decay),
    which is how it is sampled, exactly.
    """

    name: ClassVar[str] = "antibunch"
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
        if not np.all(ts[1:] >= ts[:-1]):
            raise ValidationError("timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", _readonly(ts, np.float64))


def _thinned_block(law: SourceLaw, p: float, seed: np.random.SeedSequence,
                   count: int) -> tuple[np.ndarray, float]:
    """One block's kept emission times, counted from the block's start, and
    the time of its last emission, kept or not."""
    rng = np.random.Generator(np.random.SFC64(seed))
    times = law.sample(rng, count)
    np.cumsum(times, out=times)
    kept = rng.random(count) < p
    return times[kept], float(times[-1])


def simulate(law: SourceLaw, p, n_emitted: int, seed: int,
             shards: int = 1) -> ClickStream:
    """Emit n_emitted clicks from the law and thin them with probability p.

    Work is split over ``shards`` seeds (seed, shard index), and each
    shard's emissions into blocks of BLOCK_EMISSIONS, the last one
    shorter.  Block b of a shard draws its intervals, then one keep/drop
    coin per click, from child b of SeedSequence([seed, shard]).  Blocks
    run on a thread pool when there are several blocks and CPUs, and are
    joined in order with a running time offset.  For a fixed (seed,
    shards) pair the output is therefore bitwise deterministic whatever
    the number of threads, and non-decreasing across block boundaries,
    because adding an offset is monotone in floating point.
    """
    eff = _eff(p).p
    if not isinstance(n_emitted, (int, np.integer)) or n_emitted < 1:
        raise ValidationError(f"need at least one emission, got {n_emitted}")
    if not isinstance(shards, (int, np.integer)) or shards < 1:
        raise ValidationError(f"shard count must be a positive integer, got {shards}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    blocks = []
    for s in range(shards):
        count = n_emitted // shards + (1 if s < n_emitted % shards else 0)
        full, rest = divmod(count, BLOCK_EMISSIONS)
        sizes = [BLOCK_EMISSIONS] * full + ([rest] if rest else [])
        blocks += zip(np.random.SeedSequence([seed, s]).spawn(len(sizes)), sizes)

    def run(block):
        return _thinned_block(law, eff, *block)

    # sched_getaffinity counts the CPUs this process may use; it is Linux-only
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(blocks), cpus)
    if workers == 1:
        results = [run(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, blocks))

    timestamps = np.empty(sum(kept.size for kept, _ in results))
    start = 0
    offset = 0.0
    for kept, span in results:
        np.add(kept, offset, out=timestamps[start:start + kept.size])
        start += kept.size
        offset += span
    timestamps.setflags(write=False)
    return ClickStream(timestamps=timestamps, n_emitted=int(n_emitted),
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


_LAW_BUILDERS = {law.name: law for law in
                 (Exponential, Gamma, Uniform, Periodic, AntibunchShaped)}


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
    cls = _LAW_BUILDERS[name]
    fields = [f.name for f in dataclasses.fields(cls)]
    params = [s for s in param_text.split(",") if s.strip()] if param_text else []
    if len(params) > len(fields):
        raise ValidationError(
            f"law {name!r} takes at most {len(fields)} parameters "
            f"({', '.join(fields)}), got {len(params)}")
    try:
        kwargs = {f: float(s) for f, s in zip(fields, params)}
    except ValueError as exc:
        raise ValidationError(f"bad numeric parameter in {text!r}: {exc}") from None
    return cls(**kwargs)
