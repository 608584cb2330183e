"""Percentiles, spreads and operation tallies reported by the benchmark."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it, so a single slow job cannot set it.
TAIL_SAMPLES = 10


def nearest_rank(values, pct: int) -> float:
    """The pct-th percentile by the nearest-rank rule (an observed sample)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil(pct * n / 100), in integers
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, pct: int) -> int:
    """How many of n samples lie strictly above the nearest-rank pct-th one."""
    return n - -(-pct * n // 100)


def min_samples(pct: int) -> int:
    """Smallest sample count whose pct-th percentile has TAIL_SAMPLES beyond it."""
    n = 1
    while samples_beyond(n, pct) < TAIL_SAMPLES:
        n += 1
    return n


def tail_percentile(values, pct: int) -> float:
    """nearest_rank, refusing sample counts too small for the tail rule."""
    if samples_beyond(len(values), pct) < TAIL_SAMPLES:
        raise ValueError(
            f"p{pct} of {len(values)} samples has fewer than {TAIL_SAMPLES} "
            f"samples beyond it; need at least {min_samples(pct)}")
    return nearest_rank(values, pct)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


@dataclass
class OpTally:
    """Checked operations: how many were attempted, and which failed.

    A failure on an operation listed as a known defect still counts in
    ``failed``; it is kept apart only so that ``unexpected`` names the
    failures nobody has accounted for yet.
    """

    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)
    unexpected: dict = field(default_factory=dict)

    def record(self, op: str, ok: bool, known_defect: bool = False,
               detail: str = "") -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        self.failures[op] = self.failures.get(op, 0) + 1
        if not known_defect:
            self.unexpected.setdefault(op, detail)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
