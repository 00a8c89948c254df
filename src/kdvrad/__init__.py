"""Spectral verification suite for the radius of spatial analyticity of KdV flows."""

from .bumps import chi, dyadic_bump, smooth_step
from .errors import (BlowupError, ConfigError, DomainTooSmallError,
                     InsufficientSpectralRangeError, KdvradError,
                     SpectralOverflowError, TimeWindowTooShortError,
                     UnresolvableBandError, VanishingConfigurationError)
from .gevrey import (GevreyParams, RadiusEstimate, estimate_radius, gevrey_norm,
                     hs_norm, smooth)
from .grid import (GridSpec, SpectralField, check_boundary_smallness,
                   forward_transform)
from .solver import SolverConfig, Trajectory, classical_invariants, evolve, soliton
from .spacetime import SpacetimeSpectrum, airy_spacetime, spacetime_transform, temporal_taper
from .dyadic import NormReport, xbar_norm

__version__ = "0.1.0"
