"""Traveling-wave reduction of the nondimensional table to a first-order ODE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteResultError
from ..modeq import DifferentialApproximation, SchemeParams, require_reference_truncation
from .ansatz import KinkSolution


@dataclass(frozen=True)
class TravelingWaveODE:
    """Integrated traveling-wave equation a0*u + a1*u' = rhs.

    For the reference truncation, a0 = A - v and a1 = -v^2 sigma / 2, with A
    the u_x coefficient of the table, v the wave speed and rhs the
    integration constant.  sigma rides along so the symbolic substitution
    layer can rebuild a1 with v as an unknown.
    """

    rhs: float
    v: float
    A: float
    sigma: float

    @property
    def a0(self) -> float:
        return self.A - self.v

    @property
    def a1(self) -> float:
        return -self.v * self.v * self.sigma / 2.0


def reduce_to_ode(
    modified: DifferentialApproximation, params: SchemeParams, v: float, C: float
) -> TravelingWaveODE:
    """Substitute u(xi), xi = x - v t, into the nondimensional table and integrate once.

    Requires the reference truncation {(1,0), (2,0), (0,1)}; the integration
    constant C becomes the right-hand side.  Raises NonFiniteResultError when
    a0 = A - v is NaN.
    """
    require_reference_truncation(modified, "the traveling-wave reduction")
    A = modified.coefficient(0, 1)
    if math.isnan(A - v):
        # A and v overflowed to the same infinity
        raise NonFiniteResultError(f"a0 = A - v is NaN at A = {A!r}, v = {v!r}")
    return TravelingWaveODE(rhs=C, v=v, A=A, sigma=params.sigma)


def residual(ode: TravelingWaveODE, sol: KinkSolution, xi_samples) -> np.ndarray:
    """Pointwise defect a0*u + a1*u' - rhs of a kink in the integrated ODE.

    For the closed-form kink this tends to -rhs as |xi| grows (at the
    sech^2 rate), which is how the gap between the condensed system and the
    exact expansion becomes observable.
    """
    xi = np.asarray(xi_samples, dtype=float)
    return ode.a0 * sol.profile(xi) + ode.a1 * sol.slope(xi) - ode.rhs
