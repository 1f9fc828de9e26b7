"""drpkit: band-optimized stencils, their modified equations, and spurious-wave diagnostics.

The pipeline, end to end:

1. ``stencil``: first-derivative weights minimizing the wavenumber error
   integrated over the resolved band, from closed-form normal equations.
2. ``modeq``: Taylor expansion of the explicit one-step scheme into a
   modified-equation coefficient table, plus its nondimensional form and
   the per-step Fourier amplification factor.
3. ``wave``: traveling-wave reduction, exact exponential-polynomial
   substitution of the order-one tanh/sech trial waveform, dual encodings
   of the resulting coefficient system, a case-analysis solver, and the
   closed-form kink with its residual diagnostics.
4. ``sim``: periodic execution of the scheme against a spectral oracle,
   with front-speed and shape-persistence measurements.
5. ``cli``: machine-readable artifacts (CSV/JSON) tying it together.
"""

from . import sim, wave
from .errors import (
    BlowUpError,
    ConfigError,
    DrpkitError,
    LostFrontError,
    NonFiniteResultError,
    NormGuardError,
    SingularSystemError,
    TruncationMismatchError,
)
from .modeq import (
    DifferentialApproximation,
    SchemeParams,
    advection_coefficient,
    discrete_symbol,
    nondimensionalize,
    taylor_expand_scheme,
)
from .stencil import (
    DispersionTable,
    StencilCoefficients,
    dispersion_samples,
    effective_wavenumber,
    integrated_error,
    integrated_error_closed_form,
    optimize_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "sim",
    "wave",
    "BlowUpError",
    "ConfigError",
    "DrpkitError",
    "LostFrontError",
    "NonFiniteResultError",
    "NormGuardError",
    "SingularSystemError",
    "TruncationMismatchError",
    "DifferentialApproximation",
    "SchemeParams",
    "advection_coefficient",
    "discrete_symbol",
    "nondimensionalize",
    "taylor_expand_scheme",
    "DispersionTable",
    "StencilCoefficients",
    "dispersion_samples",
    "effective_wavenumber",
    "integrated_error",
    "integrated_error_closed_form",
    "optimize_coefficients",
    "__version__",
]
