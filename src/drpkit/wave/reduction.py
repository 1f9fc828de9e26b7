"""Traveling-wave reduction of the nondimensional table to a first-order ODE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteResultError, TruncationMismatchError
from ..modeq import REFERENCE_TRUNCATION_SIGNATURES, DifferentialApproximation, SchemeParams
from .ansatz import KinkSolution

_REL_TOL = 1e-14


@dataclass(frozen=True)
class TravelingWaveODE:
    """Integrated traveling-wave equation a0*u + a1*u' = rhs.

    For the reference truncation, a0 = A - v and a1 = -v^2 sigma / 2, with A
    the u_x coefficient of the table, v the wave speed and rhs the
    integration constant.  sigma rides along so the symbolic substitution
    layer can rebuild a1 with v as an unknown.
    """

    a0: float
    a1: float
    rhs: float
    v: float
    A: float
    sigma: float

    def __post_init__(self):
        if not math.isclose(self.a0, self.A - self.v, rel_tol=_REL_TOL, abs_tol=1e-300):
            raise ValueError(f"a0={self.a0!r} inconsistent with A - v = {self.A - self.v!r}")
        expected_a1 = -self.v * self.v * self.sigma / 2.0
        if not math.isclose(self.a1, expected_a1, rel_tol=_REL_TOL, abs_tol=1e-300):
            raise ValueError(f"a1={self.a1!r} inconsistent with -v^2 sigma/2 = {expected_a1!r}")


def reduce_to_ode(
    modified: DifferentialApproximation, params: SchemeParams, v: float, C: float
) -> TravelingWaveODE:
    """Substitute u(xi), xi = x - v t, into the nondimensional table and integrate once.

    Requires the reference truncation {(1,0), (2,0), (0,1)}; the integration
    constant C becomes the right-hand side.  Raises NonFiniteResultError when
    a0 = A - v is NaN.
    """
    extra = set(modified.terms) - REFERENCE_TRUNCATION_SIGNATURES
    if extra:
        raise TruncationMismatchError(
            f"traveling-wave reduction expects the reference truncation, got extra {sorted(extra)}"
        )
    A = modified.coefficient(0, 1)
    a0 = A - v
    if math.isnan(a0):
        # A and v overflowed to the same infinity
        raise NonFiniteResultError(f"a0 = A - v is NaN at A = {A!r}, v = {v!r}")
    a1 = -v * v * params.sigma / 2.0
    return TravelingWaveODE(a0=a0, a1=a1, rhs=C, v=v, A=A, sigma=params.sigma)


def residual(ode: TravelingWaveODE, sol: KinkSolution, xi_samples) -> np.ndarray:
    """Pointwise defect a0*u + a1*u' - rhs of a kink in the integrated ODE.

    For the closed-form kink this tends to -rhs as |xi| grows (at the
    sech^2 rate), which is how the gap between the condensed system and the
    exact expansion becomes observable.
    """
    xi = np.asarray(xi_samples, dtype=float)
    return ode.a0 * sol.profile(xi) + ode.a1 * sol.slope(xi) - ode.rhs
