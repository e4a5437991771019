"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: malformed input is 2, resolution or
precondition failures are 3, certificate refusals are 4.
"""


class QvaluedError(Exception):
    """Base class for all package-specific failures."""


class DegenerateDomainError(QvaluedError):
    """Raised for empty or zero-measure domain descriptions."""


class EmptyIntersectionError(QvaluedError):
    """Raised when a restriction produces no sample points."""


class BelowResolutionError(QvaluedError):
    """Raised when a requested radius is too small for the grid step."""


class InsufficientSamplesError(QvaluedError):
    """Raised when a fit is under-determined on the restricted sample set."""


class RecenterError(QvaluedError):
    """Raised when coefficient tuples with different centers are compared."""


class OracleLimitError(QvaluedError):
    """Raised when the brute-force permutation oracle would be too large."""


class WeakConstantsError(QvaluedError):
    """Raised when no admissible contraction scale exists for the certificate."""


class ExponentBandError(QvaluedError):
    """Raised when a Campanato exponent lies outside the Holder band."""


class ReflectionTraceError(QvaluedError):
    """Raised when odd reflection is attempted without a vanishing trace."""
