"""Stencil weights that minimize the band-integrated wavenumber error.

A centered antisymmetric stencil of half-width ``m`` carries weights
``gamma_1 .. gamma_m``; ``gamma_0 = 0`` and ``gamma_{-k} = -gamma_k`` are
implied by the representation, so the full weight sum vanishes exactly.
Its reduced Fourier symbol is

    lambda_bar_h(zeta) = 2 * sum_k gamma_k * sin(k * zeta),

and the weights are chosen so that the squared mismatch against the exact
symbol ``zeta``, integrated over the resolved band ``|zeta| <= pi/2``
(wavelengths of four cells and longer), is minimal.  The minimizer solves a
small dense normal-equation system whose entries have closed forms built
from

    S(p) = integral_0^{pi/2} cos(p z) dz,
    b(i) = integral_0^{pi/2} z sin(i z) dz.

Closed forms are used for assembly; Gauss-Legendre quadrature is used only
to validate the objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularSystemError

#: Largest supported half-width.  Conditioning of the normal equations grows
#: with m and nothing at desk scale needs wider stencils.
MAX_HALF_WIDTH = 16

_BAND_EDGE = math.pi / 2.0
_COND_LIMIT = 1e12

# sin(p*pi/2) and cos(p*pi/2) for integer p, computed exactly.
_SIN_QUARTER = (0.0, 1.0, 0.0, -1.0)
_COS_QUARTER = (1.0, 0.0, -1.0, 0.0)


def _sin_half_pi(p: int) -> float:
    return _SIN_QUARTER[p % 4]


def _cos_half_pi(p: int) -> float:
    return _COS_QUARTER[p % 4]


def cosine_band_integral(p: int) -> float:
    """S(p): integral of cos(p*z) over the half band [0, pi/2]."""
    if p == 0:
        return _BAND_EDGE
    return _sin_half_pi(p) / p


def ramp_sine_moment(i: int) -> float:
    """b(i): integral of z*sin(i*z) over the half band [0, pi/2]."""
    return _sin_half_pi(i) / (i * i) - _BAND_EDGE * _cos_half_pi(i) / i


@dataclass(frozen=True)
class StencilCoefficients:
    """Antisymmetric first-derivative weights gamma_1..gamma_m.

    Only the positive-offset weights are stored; the zero and negative
    offsets are implied, which makes the antisymmetry identities hold by
    construction rather than by numerical accident.
    """

    m: int
    gamma: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"half-width m must be a positive integer, got {self.m!r}")
        gamma = tuple(float(g) for g in self.gamma)
        if len(gamma) != self.m:
            raise ValueError(f"expected {self.m} weights, got {len(gamma)}")
        if not all(math.isfinite(g) for g in gamma):
            raise ValueError("stencil weights must be finite")
        object.__setattr__(self, "gamma", gamma)

    @property
    def gamma_array(self) -> np.ndarray:
        return np.asarray(self.gamma, dtype=float)

    def full_weights(self) -> np.ndarray:
        """All 2m+1 weights gamma_{-m}..gamma_m in offset order."""
        pos = self.gamma_array
        return np.concatenate([-pos[::-1], [0.0], pos])

    def index_moment(self, r: int) -> float:
        """Sum of k^r * gamma_k over the full stencil.

        Vanishes identically for even r (antisymmetry); for odd r it equals
        twice the one-sided sum, which is what is returned.
        """
        if r % 2 == 0:
            return 0.0
        ks = np.arange(1, self.m + 1, dtype=float)
        return 2.0 * float(self.gamma_array @ ks**r)


class DispersionTable(NamedTuple):
    """The symbol diagnostic as aligned float64 columns, one entry per sample."""

    zeta: np.ndarray
    lambda_bar_h: np.ndarray
    error: np.ndarray


def assemble_normal_equations(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form normal-equation system M g = b for the band fit.

    M[i, k] = S(k - i) - S(k + i) and b[i] = b(i) with 1-based i, k.
    """
    idx = range(1, m + 1)
    M = np.array(
        [[cosine_band_integral(k - i) - cosine_band_integral(k + i) for k in idx] for i in idx]
    )
    b = np.array([ramp_sine_moment(i) for i in idx])
    return M, b


def optimize_coefficients(m: int) -> StencilCoefficients:
    """Weights minimizing the integrated band error for half-width m.

    Solves the closed-form normal equations by direct factorization with
    partial pivoting.  Raises SingularSystemError (with the condition
    estimate) if the system is numerically singular, and ValueError for
    m outside [1, MAX_HALF_WIDTH].
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"half-width m must be a positive integer, got {m!r}")
    if m > MAX_HALF_WIDTH:
        raise ValueError(f"half-width m={m} exceeds the supported maximum {MAX_HALF_WIDTH}")
    M, b = assemble_normal_equations(m)
    condition = float(np.linalg.cond(M))
    if not math.isfinite(condition) or condition > _COND_LIMIT:
        raise SingularSystemError(
            f"normal-equation system for m={m} is near-singular "
            f"(condition estimate {condition:.3e})",
            condition=condition,
        )
    gamma = np.linalg.solve(M, b)
    return StencilCoefficients(m=m, gamma=tuple(float(g) for g in gamma))


def effective_wavenumber(coeffs: StencilCoefficients, zeta):
    """Reduced symbol lambda_bar_h = 2 sum_k gamma_k sin(k zeta).

    Odd in zeta by construction (the sign is factored out before the sine
    sum, so negating zeta negates the result exactly).  Accepts scalars or
    arrays.
    """
    z = np.asarray(zeta, dtype=float)
    sign = np.sign(z)
    az = np.abs(z)
    ks = np.arange(1, coeffs.m + 1, dtype=float)
    val = 2.0 * (np.sin(az[..., None] * ks) @ coeffs.gamma_array)
    out = sign * val
    if np.isscalar(zeta) or z.ndim == 0:
        return float(out)
    return out


# (node, weight) of the 64-node Gauss-Legendre rule on [-1, 1] at its 32
# positive nodes; the rule is symmetric.  These are the values of
# numpy.polynomial.legendre.leggauss(64), bit for bit, held as literals so
# that importing the package does not load numpy.polynomial.
_GAUSS_LEGENDRE_64 = (
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
)


def _band_quadrature() -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.array(_GAUSS_LEGENDRE_64).T
    nodes = np.concatenate([-nodes[::-1], nodes])
    weights = np.concatenate([weights[::-1], weights])
    half = _BAND_EDGE / 2.0
    return half * (nodes + 1.0), half * weights


_QUAD_NODES, _QUAD_WEIGHTS = _band_quadrature()


def integrated_error(coeffs: StencilCoefficients) -> float:
    """Band-integrated squared symbol mismatch, by 64-node Gauss-Legendre.

    E = 2 * integral_0^{pi/2} (zeta - lambda_bar_h(zeta))^2 dzeta.  The
    integrand is entire, so the fixed rule is exact to well below 1e-12.
    """
    mismatch = _QUAD_NODES - effective_wavenumber(coeffs, _QUAD_NODES)
    return 2.0 * float(_QUAD_WEIGHTS @ mismatch**2)


def integrated_error_closed_form(coeffs: StencilCoefficients) -> float:
    """Same objective through the closed-form expansion E = pi^3/12 - 8 g.b + 4 g.M.g."""
    M, b = assemble_normal_equations(coeffs.m)
    g = coeffs.gamma_array
    return math.pi**3 / 12.0 - 8.0 * float(g @ b) + 4.0 * float(g @ M @ g)


def dispersion_samples(coeffs: StencilCoefficients, n: int) -> DispersionTable:
    """Uniform symbol samples over the full band [-pi/2, pi/2], as columns.

    ``error`` is ``zeta - lambda_bar_h``.  For odd n the grid is built by
    mirroring the positive half, so zero and the band edges are hit exactly
    and the sample set is exactly symmetric.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if n % 2:
        half = np.linspace(0.0, _BAND_EDGE, (n + 1) // 2)
        zetas = np.concatenate([-half[:0:-1], half])
    else:
        zetas = np.linspace(-_BAND_EDGE, _BAND_EDGE, n)
    lams = effective_wavenumber(coeffs, zetas)
    # the array subtraction is the scalar z - l of every row, element by element
    return DispersionTable(zetas, lams, zetas - lams)
