"""Modified-equation assembly for the explicit one-step stencil scheme.

The scheme advances ``u_i`` by ``u_i + (tau/h) * sum_k gamma_k u_{i+k}``.
Taylor-expanding the update in time and the stencil in space, dividing the
time terms by tau and truncating, gives a coefficient table over derivative
signatures (s, r) = (time order, space order):

    -sum_{s=1}^{p} tau^{s-1}/s! * u_{t^s}
    + (tau/h) * sum_{r=1}^{q} h^r/r! * (sum_k k^r gamma_k) * u_{x^r} = 0.

The space terms keep the extra tau factor of the update; the table is kept
literally in that form.  Even-order space terms vanish identically for
antisymmetric weights and are never stored.

Each quantity derived from the scheme parameters is computed here, once:
``SchemeParams.from_cfl`` derives tau or sigma and the reference scales
(U0 = h0/tau0, h0 = h), and ``advection_coefficient`` the u_x coefficient A
of the p=2, q=1 table that ``nondimensionalize`` builds from the weights
and the parameters:

    { u_t: -1,  u_tt: -sigma/2,  u_x: A = (2 sigma / (mu Re_h)) sum_{k>=1} k gamma_k }

where sigma is the CFL number and Re_h = U0 h / mu the mesh Reynolds
number.  A is also the closed-form kink's speed.  ``discrete_symbol`` gives
the per-step amplification factor of a Fourier mode, the bridge between
the discrete scheme and the table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientUnderflowError, PowerOverflowError, TruncationMismatchError
from .stencil import StencilCoefficients, effective_wavenumber

_REL_TOL = 1e-14
_MAX_TIME_ORDER = 6
_MAX_SPACE_ORDER = 12

#: Signatures of the reference truncation consumed by the traveling-wave layer.
REFERENCE_TRUNCATION_SIGNATURES = frozenset({(1, 0), (2, 0), (0, 1)})


def _close(a: float, b: float) -> bool:
    # below the smallest normal float relative precision ends, so the floor is there
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=sys.float_info.min)


@dataclass(frozen=True)
class SchemeParams:
    """Physical and numerical parameters of one scheme configuration.

    Invariants (validated on construction, to 1e-14 relative, or absolute
    below the smallest normal float):
      sigma = c * tau / h,  U0 = h0 / tau0,  Re_h = U0 * h / mu.
    """

    c: float
    mu: float
    tau: float
    h: float
    sigma: float
    U0: float
    tau0: float
    h0: float
    re_h: float

    def __post_init__(self):
        for name in ("c", "mu", "tau", "h", "sigma", "U0", "tau0", "h0", "re_h"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"parameter {name} must be finite and positive, got {value!r}")
        if not _close(self.sigma, self.c * self.tau / self.h):
            raise ValueError(
                f"sigma={self.sigma!r} inconsistent with c*tau/h={self.c * self.tau / self.h!r}"
            )
        if not _close(self.U0, self.h0 / self.tau0):
            raise ValueError(f"U0={self.U0!r} inconsistent with h0/tau0={self.h0 / self.tau0!r}")
        if not _close(self.re_h, self.U0 * self.h / self.mu):
            raise ValueError(
                f"re_h={self.re_h!r} inconsistent with U0*h/mu={self.U0 * self.h / self.mu!r}"
            )

    @classmethod
    def from_cfl(cls, sigma: float | None, mu: float, re_h: float, h: float = 1.0, c: float = 1.0,
                 tau: float | None = None):
        """Build a consistent parameter set from (sigma or tau, mu, Re_h) with h0 = h.

        tau follows from sigma = c tau / h, or sigma from a given tau (kept as
        given; a given pair must agree to 1e-12), and the reference scales
        from the mesh Reynolds number.  ValueError names the inputs when
        U0 = re_h mu / h or tau0 = h / U0 underflows.
        """
        if tau is None:
            tau = sigma * h / c
        elif sigma is None:
            sigma = c * tau / h
        elif not math.isclose(sigma, c * tau / h, rel_tol=1e-12):
            # the invariant's absolute floor would let any subnormal pair through
            raise ValueError(f"inconsistent dynamics: sigma={sigma!r} but c*tau/h={c * tau / h!r}")
        U0 = re_h * mu / h
        if U0 == 0.0:
            raise ValueError(
                f"U0 = re_h mu / h underflows to zero at re_h = {re_h!r}, mu = {mu!r}, h = {h!r}"
            )
        tau0 = h / U0
        if tau0 == 0.0:
            raise ValueError(f"tau0 = h / U0 underflows to zero at h = {h!r}, U0 = {U0!r}")
        return cls(c=c, mu=mu, tau=tau, h=h, sigma=sigma, U0=U0, tau0=tau0, h0=h, re_h=re_h)


def advection_coefficient(params: SchemeParams, coeffs: StencilCoefficients) -> float:
    """u_x coefficient A of the nondimensional modified equation.

    A = (2 sigma / (mu Re_h)) * sum_{k=1}^m k gamma_k; also the speed of the
    closed-form kink.
    """
    half_moment = coeffs.index_moment(1) / 2.0
    return 2.0 * params.sigma / (params.mu * params.re_h) * half_moment


@dataclass(frozen=True)
class DifferentialApproximation:
    """Coefficient table of a truncated modified equation.

    ``terms`` maps derivative signatures (time order, space order) to
    coefficients; exact zeros are never stored.  ``truncation`` records the
    (p, q) orders the table was built with.
    """

    terms: dict[tuple[int, int], float]
    truncation: tuple[int, int]

    def __post_init__(self):
        for sig, value in self.terms.items():
            if value == 0.0:
                raise ValueError(f"zero coefficient stored for signature {sig}")
        object.__setattr__(self, "terms", dict(self.terms))

    def coefficient(self, t_order: int, x_order: int) -> float:
        return self.terms.get((t_order, x_order), 0.0)

    @staticmethod
    def term_name(t_order: int, x_order: int) -> str:
        """The derivative's name, ``u_t_t`` for (2, 0)."""
        return "u" + "_t" * t_order + "_x" * x_order


def _power(name: str, base: float, exponent: int) -> float:
    try:
        return base**exponent
    except OverflowError:
        raise PowerOverflowError(name, base, exponent) from None


def taylor_expand_scheme(
    coeffs: StencilCoefficients, params: SchemeParams, p: int, q: int
) -> DifferentialApproximation:
    """Coefficient table of the scheme expanded to time order p, space order q.

    Time terms are -tau^{s-1}/s!; space terms (tau/h) * h^r/r! times the
    r-th index moment of the weights.  Even-r moments vanish by antisymmetry
    and their signatures are absent.  p <= 6 and q <= 12 so factorials and
    integer powers stay exact in floating point.  A term whose coefficient
    underflows to zero raises CoefficientUnderflowError, naming h when h^r
    underflows and tau otherwise.
    """
    if not isinstance(p, int) or p < 1 or p > _MAX_TIME_ORDER:
        raise ValueError(f"time order p must be in [1, {_MAX_TIME_ORDER}], got {p!r}")
    if not isinstance(q, int) or q < 1 or q > _MAX_SPACE_ORDER:
        raise ValueError(f"space order q must be in [1, {_MAX_SPACE_ORDER}], got {q!r}")
    terms: dict[tuple[int, int], float] = {}
    for s in range(1, p + 1):
        terms[(s, 0)] = -_power("tau", params.tau, s - 1) / math.factorial(s)
        if terms[(s, 0)] == 0.0:
            name = DifferentialApproximation.term_name(s, 0)
            raise CoefficientUnderflowError(name, "tau", params.tau)
    for r in range(1, q + 1):
        moment = coeffs.index_moment(r)
        if moment == 0.0:
            continue
        scale = _power("h", params.h, r) / math.factorial(r)
        terms[(0, r)] = (params.tau / params.h) * scale * moment
        if terms[(0, r)] == 0.0:
            name = DifferentialApproximation.term_name(0, r)
            quantity = "tau" if scale else "h"
            raise CoefficientUnderflowError(name, quantity, getattr(params, quantity))
    return DifferentialApproximation(terms=terms, truncation=(p, q))


def require_reference_truncation(da: DifferentialApproximation, where: str):
    """TruncationMismatchError unless ``da`` holds only the (p=2, q=1) signatures."""
    extra = set(da.terms) - REFERENCE_TRUNCATION_SIGNATURES
    if extra:
        raise TruncationMismatchError(
            f"{where} expects signatures within {sorted(REFERENCE_TRUNCATION_SIGNATURES)}, "
            f"got extra {sorted(extra)}"
        )


def nondimensionalize(
    coeffs: StencilCoefficients, params: SchemeParams
) -> DifferentialApproximation:
    """The (p=2, q=1) table in reference units, taken at h = h0.

    { (1,0): -1, (2,0): -sigma/2, (0,1): A }, with A from
    ``advection_coefficient``; u_x is absent where A is zero.  Raises
    CoefficientUnderflowError when -sigma/2 underflows to zero.
    """
    if not math.isclose(params.h, params.h0, rel_tol=1e-12):
        raise ValueError(f"nondimensionalization assumes h = h0, got h={params.h}, h0={params.h0}")
    terms: dict[tuple[int, int], float] = {(1, 0): -1.0, (2, 0): -params.sigma / 2.0}
    if terms[(2, 0)] == 0.0:
        raise CoefficientUnderflowError("nondimensional u_t_t", "sigma", params.sigma)
    A = advection_coefficient(params, coeffs)
    if A != 0.0:
        terms[(0, 1)] = A
    return DifferentialApproximation(terms=terms, truncation=(2, 1))


def discrete_symbol(coeffs: StencilCoefficients, params: SchemeParams, zeta):
    """Per-step amplification factor g(zeta) of Fourier mode exp(j zeta i).

    g = 1 + j (tau/h) lambda_bar_h(zeta); the real part of the stencil sum
    cancels pairwise under antisymmetry, so |g| >= 1 always.  Accepts
    scalars or arrays.
    """
    lam = effective_wavenumber(coeffs, zeta)
    out = 1.0 + 1j * (params.tau / params.h) * np.asarray(lam)
    if np.isscalar(zeta) or np.asarray(zeta).ndim == 0:
        return complex(out)
    return out
