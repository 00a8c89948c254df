"""Spectral verification suite for the radius of spatial analyticity of KdV flows."""

from .bumps import chi, dyadic_bump, dyadic_indices, is_dyadic, smooth_step
from .errors import (BlowupError, ConfigError, DomainTooSmallError,
                     InsufficientSpectralRangeError, KdvradError,
                     SpectralOverflowError, TimeWindowTooShortError,
                     UnresolvableBandError, VanishingConfigurationError)
from .gevrey import (FitPolicy, GevreyParams, RadiusEstimate, estimate_radius,
                     gevrey_norm, hs_norm, rescale, smooth)
from .grid import (GridSpec, SpectralField, apply_multiplier,
                   check_boundary_smallness, dealiased_product, derivative,
                   forward_transform)
from .solver import (SolverConfig, Trajectory, airy_propagate,
                     classical_invariants, evolve, load_snapshot, reflect,
                     save_snapshot, soliton, trajectory_to_csv)
from .spacetime import (SpacetimeField, SpacetimeSpectrum, airy_spacetime,
                        inverse_spacetime_transform, sample_flow,
                        spacetime_transform, temporal_taper)
from .dyadic import (NormReport, free_evolution_norm_ratio, project_pn,
                     project_ql, x_norm, xbar_norm)

__version__ = "0.1.0"
