"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them onto exit codes (validation vs numeric failure).
An error raised by ``spectral.check`` also names the violated invariant in
its ``invariant`` attribute.
"""


class RenewalThinError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RenewalThinError, ValueError):
    """Input rejected before any computation ran."""


class InvalidDensity(ValidationError):
    """A density failed one of its invariants.

    The ``invariant`` attribute names the violated check
    ("negativity", "normalization", "tail_sample", "tail_window").
    """


class InvalidSpectrum(ValidationError):
    """A spectrum failed a precondition (e.g. the unit magnitude bound)."""


class GridMismatch(ValidationError):
    """Two grid-valued objects were combined but live on different grids."""


class NumericFailure(RenewalThinError):
    """A computation could not produce a trustworthy result."""


class NonHermitianSpectrum(NumericFailure):
    """Inverse transform produced an imaginary residual above tolerance."""


class DenominatorUnderflow(NumericFailure):
    """Forward-map denominator fell below the underflow threshold."""


class ExactPole(NumericFailure):
    """Inverse-map denominator vanished exactly at a grid frequency."""


class HorizonTooShort(NumericFailure):
    """The grid horizon cannot hold the detected density's tail."""


class TooFewClicks(NumericFailure):
    """A click stream has fewer than two timestamps, so no intervals."""
