"""Trial waveforms and the closed-form kink of the nondimensional table.

The kink's speed is the table's u_x coefficient, ``modeq.advection_coefficient``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..modeq import SchemeParams, advection_coefficient
from ..stencil import StencilCoefficients


@dataclass(frozen=True)
class HyperbolicAnsatz:
    """tanh/sech trial solution of order one.

    u(xi) = U1 tanh(C1 xi) + V1 sech(C1 xi) + V0 with xi = x - v t; C1 must
    be nonzero and finite.
    """

    U1: float
    V1: float
    V0: float
    C1: float
    v: float

    def __post_init__(self):
        if self.C1 == 0.0 or not math.isfinite(self.C1):
            raise ValueError("inverse width C1 must be nonzero and finite")


@dataclass(frozen=True)
class KinkSolution:
    """Parameters of the closed-form kink u = U1 tanh(C1 (x - v t)) + V0."""

    U1: float
    V0: float
    C1: float
    v: float
    C: float

    def __post_init__(self):
        if self.C1 == 0.0 or not math.isfinite(self.C1):
            raise ValueError("inverse width C1 must be nonzero and finite")

    def canonical(self) -> "KinkSolution":
        """Equivalent representative with C1 > 0 (tanh oddness flips U1 with C1)."""
        if self.C1 > 0:
            return self
        return KinkSolution(U1=-self.U1, V0=self.V0, C1=-self.C1, v=self.v, C=self.C)

    def profile(self, xi):
        """Waveform value(s) at the traveling coordinate xi."""
        return self.U1 * np.tanh(self.C1 * np.asarray(xi, dtype=float)) + self.V0

    def slope(self, xi):
        """d/dxi of the waveform: U1 C1 sech^2(C1 xi)."""
        z = self.C1 * np.asarray(xi, dtype=float)
        return self.U1 * self.C1 / np.cosh(z) ** 2


def closed_form_kink(
    params: SchemeParams,
    coeffs: StencilCoefficients,
    C: float,
    C1: float,
    V0: float = 0.0,
) -> KinkSolution:
    """Kink parameters solving the condensed coefficient system.

    v equals the advection coefficient of the nondimensional table and
    U1 = -C / (2 C1 v^2 sigma).  C = 0 degenerates to the constant V0.
    Raises ZeroDivisionError with a diagnostic when the stencil moment makes
    v vanish or the amplitude's denominator underflows.
    """
    if C1 == 0.0:
        raise ValueError("inverse width C1 must be nonzero")
    v = advection_coefficient(params, coeffs)
    if v == 0.0:
        raise ZeroDivisionError(
            "kink speed is zero because sum_k k gamma_k = 0 for this stencil; "
            "the closed-form amplitude is undefined"
        )
    denominator = 2.0 * C1 * v * v * params.sigma
    if denominator == 0.0:
        raise ZeroDivisionError(
            f"the amplitude denominator 2 C1 v^2 sigma underflows to zero at C1 = {C1!r}, "
            f"v = {v!r}, sigma = {params.sigma!r}"
        )
    U1 = -C / denominator
    return KinkSolution(U1=U1, V0=V0, C1=C1, v=v, C=C)
