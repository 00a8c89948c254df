"""Exception types shared across the package."""


class KdvradError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(KdvradError):
    """Invalid experiment or solver configuration."""


class DomainTooSmallError(KdvradError):
    """Field magnitude at the periodic domain edge exceeds the smallness gate.

    The periodic domain stands in for the real line; results are only
    trusted while the solution is negligible at the edges.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class SpectralOverflowError(KdvradError):
    """exp(sigma*|xi|) weighting would overflow for this field.

    ``certifiable_sigma`` is the largest smoothing parameter for which the weighted
    coefficients stay representable, or None when the same call raises at sigma = 0
    too (a coefficient is inf or nan, or over the budget unweighted): no retry helps.
    """

    def __init__(self, message, certifiable_sigma=None):
        super().__init__(message)
        self.certifiable_sigma = certifiable_sigma


class InsufficientSpectralRangeError(KdvradError):
    """Too few usable frequency bins to fit a decay rate."""


class TimeWindowTooShortError(KdvradError):
    """Time sampling too coarse to resolve the requested modulation band."""


class UnresolvableBandError(KdvradError):
    """Requested dyadic band cannot be represented at the configured resolution."""


class VanishingConfigurationError(KdvradError):
    """Dyadic triple fails a support condition; no block constant is predicted for it."""


class BlowupError(KdvradError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, message, last_valid_time=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
