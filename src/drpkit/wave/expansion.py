"""Exponential-polynomial form of the traveling-wave equation.

Writing E = exp(C1 xi), the identities

    tanh(C1 xi) = (E^2 - 1) / (E^2 + 1)
    sech(C1 xi) = 2 E / (E^2 + 1)

turn the integrated ODE with the order-one trial waveform into a rational
expression whose denominator is (1 + E^2)^2.  Differentiation happens
before the substitution:

    d/dxi tanh(C1 xi) = 4 C1 E^2 / (1 + E^2)^2
    d/dxi sech(C1 xi) = -2 C1 E (E^2 - 1) / (1 + E^2)^2

Multiplying through by (1 + E^2)^2 leaves a degree-4 polynomial in E whose
coefficients are polynomials in the unknowns (U1, V1, V0, v, C); the
right-hand side contributes -C * (1 + 2 E^2 + E^4), distributed across the
matching powers.  Requiring every power of E to vanish yields the
five-equation coefficient system.

Two encodings of that system are maintained.  ``collect_system`` returns
the one produced by the exact expansion above ("derived").  The
"condensed" variant instead collects the integration constant and the
sech^2 contribution entirely in the order-zero equation; the closed-form
kink parameters solve the condensed variant exactly, and their defect in
the derived variant is what the residual diagnostics measure.  Both are
reported side by side rather than silently preferring one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..modeq import SchemeParams, advection_coefficient
from ..stencil import StencilCoefficients
from .ansatz import HyperbolicAnsatz, closed_form_kink
from .poly import Poly
from .reduction import TravelingWaveODE

_TOL = 1e-10


@dataclass(frozen=True)
class ExpPolynomial:
    """Polynomial in E = exp(C1 xi) with Poly coefficients over the unknowns."""

    coeffs: tuple[Poly, ...]
    C1: float
    advection: float
    sigma: float

    @property
    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return -1

    def evaluate(self, values: dict[str, float], xi: float) -> float:
        """Numeric value at an assignment of the unknowns and a sample xi."""
        E = math.exp(self.C1 * xi)
        total = 0.0
        for k, poly in enumerate(self.coeffs):
            total += poly.evaluate(values) * E**k
        return total


@dataclass(frozen=True)
class CoefficientSystem:
    """Five order-matching equations plus the numeric context they were built with."""

    equations: tuple[Poly, ...]
    advection: float
    sigma: float
    C1: float
    encoding: str

    def __post_init__(self):
        if len(self.equations) != 5:
            raise ValueError(f"expected 5 equations, got {len(self.equations)}")


def substitute_ansatz(ode: TravelingWaveODE, ansatz: HyperbolicAnsatz) -> ExpPolynomial:
    """Exact exponential-polynomial form of (lhs - rhs) * (1 + E^2)^2.

    The unknowns stay symbolic; the ODE contributes the numeric advection
    coefficient and CFL number, the ansatz its inverse width.  The ansatz
    speed must agree with the speed the ODE was reduced at.
    """
    if not math.isclose(ansatz.v, ode.v, rel_tol=1e-12, abs_tol=1e-12):
        raise ValueError(f"ansatz speed {ansatz.v!r} differs from ODE speed {ode.v!r}")
    U1, V1, V0, v, C = (Poly.var(s) for s in ("U1", "V1", "V0", "v", "C"))
    A = ode.A
    c1 = ansatz.C1
    u_factor = Poly.const(A) - v  # multiplies the waveform
    du_factor = (-0.5 * ode.sigma) * v * v  # multiplies its xi derivative
    zero = Poly()
    # (waveform) * (1 + E^2)^2, powers E^0..E^4
    u_part = (V0 - U1, 2.0 * V1, 2.0 * V0, 2.0 * V1, U1 + V0)
    # (d waveform / d xi) * (1 + E^2)^2
    du_part = (zero, (2.0 * c1) * V1, (4.0 * c1) * U1, (-2.0 * c1) * V1, zero)
    # rhs * (1 + E^2)^2 = C + 2 C E^2 + C E^4
    rhs_part = (C, zero, 2.0 * C, zero, C)
    coeffs = tuple(
        u_factor * u_k + du_factor * du_k - r_k
        for u_k, du_k, r_k in zip(u_part, du_part, rhs_part)
    )
    return ExpPolynomial(coeffs=coeffs, C1=c1, advection=A, sigma=ode.sigma)


def collect_system(ep: ExpPolynomial) -> CoefficientSystem:
    """The five equations 'coefficient of E^k vanishes', k = 0..4."""
    if ep.degree > 4:
        raise ValueError(f"expected degree <= 4, got {ep.degree}")
    eqs = list(ep.coeffs[:5])
    while len(eqs) < 5:
        eqs.append(Poly())
    return CoefficientSystem(
        equations=tuple(eqs),
        advection=ep.advection,
        sigma=ep.sigma,
        C1=ep.C1,
        encoding="derived",
    )


def condensed_coefficient_system(
    params: SchemeParams, coeffs: StencilCoefficients, C1: float
) -> CoefficientSystem:
    """The condensed variant of the coefficient system.

    Structurally it differs from the derived encoding in two ways: the
    integration constant sits entirely in the order-zero equation instead
    of being distributed as C * (1 + 2 E^2 + E^4), and the 4*U1 sech^2
    contribution sits at order zero instead of order two.  The closed-form
    kink parameters are an exact solution of this variant.
    """
    if C1 == 0.0:
        raise ValueError("inverse width C1 must be nonzero")
    U1, V1, V0, v, C = (Poly.var(s) for s in ("U1", "V1", "V0", "v", "C"))
    A = advection_coefficient(params, coeffs)
    sigma = params.sigma
    gap = Poly.const(A) - v
    half = (-0.5 * C1 * sigma) * v * v
    eq0 = 2.0 * gap * (V0 - U1) + half * (4.0 * U1 + 2.0 * V1) - C
    eq1 = 2.0 * gap * V1
    eq2 = 2.0 * gap * V0
    eq3 = 2.0 * gap * V1 + (C1 * sigma) * v * v * V1
    eq4 = gap * (U1 + V0)
    return CoefficientSystem(
        equations=(eq0, eq1, eq2, eq3, eq4),
        advection=A,
        sigma=sigma,
        C1=C1,
        encoding="condensed",
    )


def evaluate_system(system: CoefficientSystem, values: dict[str, float]) -> np.ndarray:
    """Residual of every equation at a numeric assignment of the unknowns."""
    return np.array([eq.evaluate(values) for eq in system.equations])


@dataclass(frozen=True)
class CondensedSystemReport:
    """Residuals of the closed-form kink in the condensed system.

    ``system`` is the condensed system the residuals were evaluated in, so
    a caller that goes on to solve it need not build it again.
    """

    ok: bool
    residuals: tuple[float, ...]
    values: dict[str, float]
    system: CoefficientSystem


def verify_condensed_system(
    params: SchemeParams,
    coeffs: StencilCoefficients,
    C: float,
    C1: float,
    V0: float = 0.0,
) -> CondensedSystemReport:
    """Substitute the closed-form kink into the condensed system, equation by equation.

    Returns ok = True when every residual is at most 1e-10 in magnitude.
    The residuals are independent of V0 (every V0 term carries the factor
    A - v, which the kink speed annihilates).
    """
    system = condensed_coefficient_system(params, coeffs, C1)
    kink = closed_form_kink(params, coeffs, C=C, C1=C1, V0=V0)
    values = {"U1": kink.U1, "V1": 0.0, "V0": kink.V0, "v": kink.v, "C": C}
    res = evaluate_system(system, values)
    ok = bool(np.max(np.abs(res)) <= _TOL)
    return CondensedSystemReport(
        ok=ok, residuals=tuple(float(r) for r in res), values=values, system=system
    )
