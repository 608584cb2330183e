"""Detection thinning of a renewal click stream, in the spectral domain.

A detector that keeps each click independently with probability p turns a
renewal stream with waiting density f into another renewal stream whose
waiting density F is the geometric mixture of convolution powers

    F = sum_{k>=0} p (1-p)^k f^{*(k+1)}.

In the spectral domain this collapses to a Mobius map

    Phi = p phi / (1 - (1-p) phi),

which is applied pointwise per frequency and inverted in closed form.
The inverse map blows up where (1 - (1 - 1/p) Phi) vanishes; proximity
to that pole is measured and reported rather than papered over.

The image of the closed unit disk under the forward map is the disk with
center (1-p)/(2-p) and radius 1/(2-p).  A measured detected spectrum
escaping that disk cannot come from any nonnegative emission density at
efficiency p; the classifier reports such escapes alongside the signed
density recovered by explicit inversion, and never merges the two tests
into one opaque answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DenominatorUnderflow,
    ExactPole,
    HorizonTooShort,
    InvalidDensity,
    InvalidSpectrum,
    NonHermitianSpectrum,
    ValidationError,
)
from .spectral import (
    MAG_TOL,
    NORM_TOL,
    TAIL_TOL,
    TAIL_WINDOW_FRACTION,
    Density,
    Spectrum,
    forward_transform,
    inverse_transform,
    negativity_mass,
    validate_density,
)

__all__ = [
    "DENOMINATOR_UNDERFLOW_LIMIT",
    "DEFAULT_TAU_NEG",
    "DEFAULT_TAU_POLE",
    "Efficiency",
    "ClassicalRegion",
    "RegionViolation",
    "VerdictKind",
    "ClassicalityVerdict",
    "detected_spectrum",
    "detected_density",
    "series_partial_sum",
    "emitted_spectrum",
    "classical_region",
    "region_boundary_samples",
    "classify",
]

# Below this the forward-map denominator is treated as an underflow.
DENOMINATOR_UNDERFLOW_LIMIT = 1e-14
# Classifier thresholds: negativity mass that counts as real, and the
# pole proximity below which inversion is considered ill-posed.
DEFAULT_TAU_NEG = 1e-3
DEFAULT_TAU_POLE = 1e-6
# Output of the closed-form route may dip this far (relative to its own
# peak) below zero from round-off before it is considered broken.
_OUTPUT_NEG_REL = 1e-9


@dataclass(frozen=True)
class Efficiency:
    """Detection probability per click, p in (0, 1]."""

    p: float

    def __post_init__(self):
        if not (np.isfinite(self.p) and 0.0 < self.p <= 1.0):
            raise ValidationError(f"efficiency must lie in (0, 1], got {self.p}")

    @property
    def overlook(self) -> float:
        """Probability 1 - p of missing a click."""
        return 1.0 - self.p


def _eff(p) -> Efficiency:
    return p if isinstance(p, Efficiency) else Efficiency(float(p))


def _check_unit_bound(s: Spectrum, what: str) -> None:
    peak = float(np.abs(s.values).max())
    if peak > 1.0 + MAG_TOL:
        raise InvalidSpectrum(
            f"{what} magnitude {peak:.12g} exceeds 1 + {MAG_TOL:.3g}; "
            "not the transform of a probability density")


def detected_spectrum(phi: Spectrum, p) -> Spectrum:
    """Map an emission spectrum to the detected-stream spectrum.

    Pointwise Phi = p phi / (1 - (1-p) phi).  Raises DenominatorUnderflow
    when any denominator magnitude falls below the underflow limit, which
    for p not absurdly small is only possible if phi violates its unit
    bound.
    """
    eff = _eff(p)
    _check_unit_bound(phi, "emission spectrum")
    denom = phi.values * eff.overlook
    np.subtract(1.0, denom, out=denom)
    dmin = float(np.abs(denom).min())
    if dmin < DENOMINATOR_UNDERFLOW_LIMIT:
        raise DenominatorUnderflow(
            f"|1 - (1-p) phi| reaches {dmin:.3g} < {DENOMINATOR_UNDERFLOW_LIMIT:.0e} "
            f"at p={eff.p}")
    num = phi.values * eff.p
    num /= denom
    num.setflags(write=False)
    return Spectrum(phi.grid, num)


def detected_density(f: Density, p) -> Density:
    """Closed-form waiting density of the thinned stream.

    Transforms f, applies the forward map, and inverts.  The horizon must
    hold the stretched output (its mean is mean(f)/p): if the result
    carries non-negligible mass in the tail window, HorizonTooShort is
    raised.  Round-off can leave the output a hair below zero; dips
    within 1e-9 of the output's own peak are clipped to zero so the
    result is a valid Density, anything worse raises.
    """
    eff = _eff(p)
    # phi stays referenced until return.  Freeing it early lowers the heap's
    # high-water mark, and the next large allocations then page-fault.
    phi = forward_transform(f)
    return _density_from_detected_spectrum(detected_spectrum(phi, eff), eff)


def _density_from_detected_spectrum(big_phi: Spectrum, eff: Efficiency) -> Density:
    """Invert a detected spectrum and apply detected_density's output checks."""
    out = inverse_transform(big_phi)
    v = out.values
    dt = out.grid.dt

    tail_start = int(np.ceil((1.0 - TAIL_WINDOW_FRACTION) * out.grid.n))
    window_mass = float(v[tail_start:].sum()) * dt
    if not window_mass < TAIL_TOL:
        raise HorizonTooShort(
            f"detected density keeps mass {window_mass:.3g} in the last "
            f"{TAIL_WINDOW_FRACTION:.0%} of the grid (mean stretches by 1/p = "
            f"{1.0 / eff.p:.3g}); enlarge the horizon")

    floor = -_OUTPUT_NEG_REL * float(v.max())
    vmin = float(v.min())
    if vmin < floor:
        raise InvalidDensity(
            "negativity",
            f"detected density dips to {vmin:.6g}, below round-off floor {floor:.3g}")
    clipped = np.clip(v, 0.0, None)
    clipped.setflags(write=False)

    result = Density(out.grid, clipped)
    if abs(result.mass - 1.0) > NORM_TOL:
        raise InvalidDensity(
            "normalization",
            f"detected density mass {result.mass:.12g} deviates from 1")
    return result


def series_partial_sum(f: Density, p, order: int) -> Density:
    """Brute-force partial sum F_K = sum_{k<=K} p (1-p)^k f^{*(k+1)}.

    Convolution powers are built by direct time-domain convolution
    truncated to the grid -- no Fourier shortcut -- so this is an
    independent oracle for the closed-form route.  The result is not
    normalized: its mass is 1 - (1-p)^(K+1) minus whatever the truncated
    powers lose past the horizon.  It is returned in a Density container
    without being declared a probability density.
    """
    eff = _eff(p)
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"series order must be a nonnegative integer, got {order}")
    validate_density(f)
    n = f.grid.n
    dt = f.grid.dt
    power = np.array(f.values)            # f^{*(k+1)} for k = 0
    acc = eff.p * power
    weight = eff.p
    for _ in range(order):
        power = np.convolve(power, f.values)[:n] * dt
        weight *= eff.overlook
        acc = acc + weight * power
    acc.setflags(write=False)
    return Density(f.grid, acc)


def emitted_spectrum(big_phi: Spectrum, p) -> tuple[Spectrum, float]:
    """Invert the thinning map in the spectral domain.

    Returns (phi, pole_proximity) with
    phi = (1/p) Phi / (1 - (1 - 1/p) Phi) and pole_proximity the minimum
    over the grid of |1 - (1 - 1/p) Phi|.  Both are computed from
    d = p + (1-p) Phi, which is p times that denominator: phi = Phi / d
    and pole_proximity = min |d| / p, equal to the forms above up to
    round-off.  Raises ExactPole only when a denominator vanishes exactly;
    near-misses are reported through the proximity so callers can judge
    how much amplified noise to expect.
    """
    eff = _eff(p)
    _check_unit_bound(big_phi, "detected spectrum")
    d = big_phi.values * eff.overlook
    d += eff.p
    mags = np.abs(d)
    proximity = float(mags.min()) / eff.p
    if proximity == 0.0:
        m = int(mags.argmin())
        raise ExactPole(
            f"inverse-map denominator vanishes at frequency index {m} "
            f"(omega={big_phi.grid.omegas()[m]:.6g})")
    np.divide(big_phi.values, d, out=d)
    d.setflags(write=False)
    return Spectrum(big_phi.grid, d), proximity


@dataclass(frozen=True)
class ClassicalRegion:
    """Disk that detected spectra of classical streams cannot leave."""

    p: Efficiency
    center: float
    radius: float

    def excess(self, z: np.ndarray) -> np.ndarray:
        """Signed distance outside the disk (negative means inside)."""
        e = np.abs(np.asarray(z) - self.center)
        e -= self.radius
        return e


def classical_region(p) -> ClassicalRegion:
    """Image of the unit disk under the thinning map at efficiency p.

    Center (1-p)/(2-p), radius 1/(2-p); at p=1 this is the unit disk.
    """
    eff = _eff(p)
    return ClassicalRegion(
        p=eff,
        center=eff.overlook / (2.0 - eff.p),
        radius=1.0 / (2.0 - eff.p),
    )


def region_boundary_samples(p, count: int = 360) -> np.ndarray:
    """Boundary of the classical region, as images of unit-circle points.

    w_j = p z_j / (1 - (1-p) z_j) with z_j the count-th roots of unity.
    """
    eff = _eff(p)
    if not isinstance(count, (int, np.integer)) or count < 3:
        raise ValueError(f"boundary needs at least 3 samples, got {count}")
    z = np.exp(2j * np.pi * np.arange(count) / count)
    return eff.p * z / (1.0 - eff.overlook * z)


class VerdictKind(str, Enum):
    CLASSICAL = "classical"
    NONCLASSICAL = "nonclassical"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RegionViolation:
    """One frequency at which the detected spectrum escapes the disk."""

    index: int
    omega: float
    phi: complex
    excess: float


@dataclass(frozen=True)
class ClassicalityVerdict:
    """Outcome of the two-pronged classicality test.

    Both lines of evidence are always attached: the signed recovered
    density (negative lobes intact) and the per-frequency region
    violations.  When they disagree the verdict still reports both, so a
    reader can weigh them.
    """

    kind: VerdictKind
    recovered_f: Density | None
    negativity_mass: float
    region_violations: tuple[RegionViolation, ...]
    pole_proximity: float


def _find_violations(big_phi: Spectrum,
                     region: ClassicalRegion) -> tuple[RegionViolation, ...]:
    excess = region.excess(big_phi.values)
    idx = np.nonzero(excess > MAG_TOL)[0]
    if idx.size == 0:
        return ()
    omegas = big_phi.grid.omegas()
    return tuple(
        RegionViolation(index=int(m), omega=float(omegas[m]),
                        phi=complex(big_phi.values[m]), excess=float(excess[m]))
        for m in idx
    )


def classify(F: Density, p, tau_neg: float = DEFAULT_TAU_NEG,
             tau_pole: float = DEFAULT_TAU_POLE) -> ClassicalityVerdict:
    """Decide whether a measured detected density admits a classical source.

    Pipeline: transform F, test every spectrum sample against the
    classical disk, invert the thinning map, and integrate the negative
    part of the recovered emission density.  The verdict is

    - indeterminate when the inversion is numerically ill-posed
      (pole proximity below tau_pole, or an exact pole); region evidence
      is still attached,
    - nonclassical when the recovered density carries negative mass
      above tau_neg or any spectrum sample escapes the disk,
    - classical otherwise.

    The recovered density is attached unclipped.
    """
    eff = _eff(p)
    big_phi = forward_transform(F)
    region = classical_region(eff)
    violations = _find_violations(big_phi, region)

    try:
        phi, proximity = emitted_spectrum(big_phi, eff)
    except ExactPole:
        return ClassicalityVerdict(
            kind=VerdictKind.INDETERMINATE, recovered_f=None,
            negativity_mass=0.0, region_violations=violations,
            pole_proximity=0.0)

    if proximity < tau_pole:
        # Inversion output is amplified noise; recover what we can for
        # inspection but do not let it decide the verdict.
        recovered = None
        neg = 0.0
        try:
            recovered = inverse_transform(phi)
            neg = negativity_mass(recovered)
        except NonHermitianSpectrum:
            pass
        return ClassicalityVerdict(
            kind=VerdictKind.INDETERMINATE, recovered_f=recovered,
            negativity_mass=neg, region_violations=violations,
            pole_proximity=proximity)

    recovered = inverse_transform(phi)
    neg = negativity_mass(recovered)
    if violations or neg > tau_neg:
        kind = VerdictKind.NONCLASSICAL
    else:
        kind = VerdictKind.CLASSICAL
    return ClassicalityVerdict(
        kind=kind, recovered_f=recovered, negativity_mass=neg,
        region_violations=violations, pole_proximity=proximity)
