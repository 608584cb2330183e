"""Waiting-time statistics of renewal click streams under lossy detection.

The spectral module moves densities between the time grid and their
Fourier samples; the thinning module applies, inverts, and series-checks
the detection map and classifies measured streams; mcsim drives the
Monte Carlo cross-checks; cli exposes it all as subcommands.
"""

from .errors import (
    DenominatorUnderflow,
    ExactPole,
    GridMismatch,
    HorizonTooShort,
    InvalidDensity,
    InvalidSpectrum,
    NonHermitianSpectrum,
    NumericFailure,
    RenewalThinError,
    TooFewClicks,
    ValidationError,
)
from .mcsim import (
    KS_COEFF_1PCT,
    AntibunchShaped,
    ClickStream,
    CompareMetrics,
    Exponential,
    Gamma,
    HistogramResult,
    Periodic,
    SourceLaw,
    Uniform,
    compare,
    ks_critical_value,
    parse_law,
    simulate,
    waiting_time_histogram,
)
from .spectral import (
    Density,
    Spectrum,
    TimeGrid,
    density_from_masses,
    forward_transform,
    grid_for_mean,
    inverse_transform,
    negativity_mass,
    validate_density,
)
from .thinning import (
    ClassicalityVerdict,
    ClassicalRegion,
    Efficiency,
    RegionViolation,
    VerdictKind,
    classical_region,
    classify,
    detected_density,
    detected_spectrum,
    emitted_spectrum,
    in_classical_region,
    region_boundary_samples,
    series_partial_sum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RenewalThinError", "ValidationError", "NumericFailure",
    "InvalidDensity", "InvalidSpectrum", "GridMismatch",
    "NonHermitianSpectrum", "DenominatorUnderflow", "ExactPole",
    "HorizonTooShort", "TooFewClicks",
    # spectral
    "TimeGrid", "Density", "Spectrum",
    "grid_for_mean", "validate_density", "forward_transform",
    "inverse_transform", "density_from_masses", "negativity_mass",
    # thinning
    "Efficiency", "ClassicalRegion", "RegionViolation", "VerdictKind",
    "ClassicalityVerdict", "detected_spectrum", "detected_density",
    "series_partial_sum", "emitted_spectrum", "classical_region",
    "region_boundary_samples", "in_classical_region", "classify",
    # mcsim
    "SourceLaw", "Exponential", "Gamma", "Uniform", "Periodic",
    "AntibunchShaped", "ClickStream", "HistogramResult", "CompareMetrics",
    "simulate", "waiting_time_histogram", "compare", "ks_critical_value",
    "KS_COEFF_1PCT", "parse_law",
]
