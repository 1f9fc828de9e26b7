"""Stencil optimization against independent oracles.

The oracles here never call the closed-form solver they check: the band
error is integrated by Gauss-Legendre quadrature directly from its
definition, and the m=1 optimum is located by golden-section search over
that quadrature (with one parabolic refinement, exact for a quadratic).
"""

import math

import numpy as np
import pytest

from drpkit import stencil
from drpkit.errors import SingularSystemError
from drpkit.stencil import (
    StencilCoefficients,
    assemble_normal_equations,
    dispersion_samples,
    effective_wavenumber,
    integrated_error,
    integrated_error_closed_form,
    optimize_coefficients,
)

PI = math.pi

# independent quadrature of the band-error definition (oracle side)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)
_X = (PI / 4.0) * (_NODES + 1.0)
_W = (PI / 4.0) * _WEIGHTS


def band_error_quadrature(gamma):
    """E = 2 * int_0^{pi/2} (z - 2 sum_k gamma_k sin(k z))^2 dz by quadrature."""
    gamma = np.asarray(gamma, dtype=float)
    ks = np.arange(1, gamma.size + 1)
    fit = 2.0 * (np.sin(np.outer(_X, ks)) @ gamma)
    return 2.0 * float(_W @ (_X - fit) ** 2)


def golden_section_min(f, lo, hi, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


class TestOptimize:
    def test_m1_closed_form(self, m1_coeffs):
        assert m1_coeffs.gamma[0] == pytest.approx(2.0 / PI, abs=1e-14)

    def test_m1_against_search_oracle(self, m1_coeffs):
        f = lambda g: band_error_quadrature([g])
        rough = golden_section_min(f, 0.0, 2.0)
        # the objective is exactly quadratic in gamma_1, so a three-point
        # parabola through the search result pins the vertex to roundoff
        d = 1e-3
        f1, f2, f3 = f(rough - d), f(rough), f(rough + d)
        vertex = rough + d * (f1 - f3) / (2.0 * (f1 - 2.0 * f2 + f3))
        assert abs(vertex - m1_coeffs.gamma[0]) < 1e-10

    def test_m2_against_independent_solve(self):
        # assemble the 2x2 system from the closed forms by hand and solve it
        M = np.array([[PI / 2.0, 4.0 / 3.0], [4.0 / 3.0, PI / 2.0]])
        b = np.array([1.0, PI / 4.0])
        expected = np.linalg.solve(M, b)
        got = optimize_coefficients(2).gamma_array
        assert np.max(np.abs(got - expected)) < 1e-12
        # the published four-digit values round off the same numbers
        assert got[0] == pytest.approx(0.7593, abs=5e-4)
        assert got[1] == pytest.approx(-0.1445, abs=5e-4)

    def test_assembled_entries_match_quadrature(self):
        # closed-form S and b entries against direct quadrature
        for m in (1, 2, 4):
            M, b = assemble_normal_equations(m)
            for i in range(1, m + 1):
                bi = float(_W @ (_X * np.sin(i * _X)))
                assert abs(bi - b[i - 1]) < 1e-12
                for k in range(1, m + 1):
                    mik = 2.0 * float(_W @ (np.sin(k * _X) * np.sin(i * _X)))
                    assert abs(mik - M[i - 1, k - 1]) < 1e-12

    def test_normal_equation_residual_small(self):
        for m in range(1, 9):
            M, b = assemble_normal_equations(m)
            g = optimize_coefficients(m).gamma_array
            assert np.max(np.abs(M @ g - b)) <= 1e-12

    def test_invalid_half_width(self):
        with pytest.raises(ValueError):
            optimize_coefficients(0)
        with pytest.raises(ValueError):
            optimize_coefficients(17)
        with pytest.raises(ValueError):
            optimize_coefficients(2.0)  # type: ignore[arg-type]

    def test_singular_error_carries_condition(self):
        err = SingularSystemError("boom", condition=1e15)
        assert err.condition == 1e15


class TestAntisymmetry:
    def test_representation_identities(self, m3_coeffs):
        full = m3_coeffs.full_weights()
        m = m3_coeffs.m
        assert full[m] == 0.0
        for k in range(1, m + 1):
            assert full[m - k] == -full[m + k]
        assert math.fsum(full) == 0.0

    def test_even_moments_vanish(self, m3_coeffs):
        for r in range(0, 13, 2):
            assert m3_coeffs.index_moment(r) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StencilCoefficients(m=2, gamma=(1.0,))
        with pytest.raises(ValueError):
            StencilCoefficients(m=1, gamma=(float("nan"),))


class TestEffectiveWavenumber:
    def test_zero_at_origin(self, m3_coeffs):
        assert effective_wavenumber(m3_coeffs, 0.0) == 0.0

    def test_m1_is_scaled_sine(self, m1_coeffs):
        for zeta in (0.1, 0.9, PI / 3):
            expected = (4.0 / PI) * math.sin(zeta)
            assert effective_wavenumber(m1_coeffs, zeta) == pytest.approx(expected, abs=1e-15)

    def test_band_edge_value(self, m1_coeffs):
        assert effective_wavenumber(m1_coeffs, PI / 2) == pytest.approx(4.0 / PI, abs=1e-15)

    def test_exactly_odd(self, m3_coeffs):
        for zeta in np.linspace(0.0, PI, 37):
            assert effective_wavenumber(m3_coeffs, -zeta) == -effective_wavenumber(m3_coeffs, zeta)

    def test_array_input(self, m1_coeffs):
        zetas = np.array([0.0, PI / 2, -PI / 2])
        out = effective_wavenumber(m1_coeffs, zetas)
        assert out.shape == zetas.shape
        assert out[1] == -out[2]


class TestIntegratedError:
    def test_rule_is_numpy_leggauss_64_bit_for_bit(self):
        # the rule is held as literals; NumPy computes it here, as the oracle
        nodes, weights = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(stencil._QUAD_NODES, (PI / 4.0) * (nodes + 1.0))
        assert np.array_equal(stencil._QUAD_WEIGHTS, (PI / 4.0) * weights)

    def test_zero_stencil_closed_form(self):
        zero = StencilCoefficients(m=1, gamma=(0.0,))
        assert integrated_error(zero) == pytest.approx(PI**3 / 12.0, abs=1e-12)

    def test_m1_optimum_value(self, m1_coeffs):
        # frozen from the normal-equation identity E = pi^3/12 - 8 g.b and
        # confirmed by the quadrature oracle
        expected = PI**3 / 12.0 - 8.0 / PI
        assert integrated_error(m1_coeffs) == pytest.approx(expected, abs=1e-12)
        assert band_error_quadrature(m1_coeffs.gamma) == pytest.approx(expected, abs=1e-12)

    def test_quadrature_matches_closed_form_for_random_stencils(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            coeffs = StencilCoefficients(m=m, gamma=tuple(rng.uniform(-1, 1, m)))
            assert integrated_error(coeffs) == pytest.approx(
                integrated_error_closed_form(coeffs), abs=1e-10
            )

    def test_monotone_in_half_width(self):
        errors = [integrated_error(optimize_coefficients(m)) for m in (1, 2, 3)]
        assert errors[0] > errors[1] > errors[2]

    def test_optimum_beats_perturbations(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 3):
            coeffs = optimize_coefficients(m)
            base = integrated_error(coeffs)
            for _ in range(200):
                delta = rng.uniform(-1e-3, 1e-3, m)
                perturbed = StencilCoefficients(m=m, gamma=tuple(coeffs.gamma_array + delta))
                assert integrated_error(perturbed) >= base - 1e-14


class TestDispersionSamples:
    def test_grid_and_oddness(self, m1_coeffs):
        table = dispersion_samples(m1_coeffs, 101)
        assert table.zeta[0] == -PI / 2
        assert table.zeta[-1] == PI / 2
        assert table.zeta[50] == 0.0 and table.lambda_bar_h[50] == 0.0 and table.error[50] == 0.0
        assert table.lambda_bar_h[-1] == pytest.approx(4.0 / PI, abs=1e-15)

    def test_error_grows_toward_band_edge(self, m1_coeffs):
        # the signed mismatch zeta - lambda_bar_h is strictly increasing once
        # cos(zeta) drops below pi/4, i.e. over the whole outer band
        table = dispersion_samples(m1_coeffs, 201)
        errs = table.error[table.zeta >= 0.7].tolist()
        assert all(b > a for a, b in zip(errs, errs[1:]))
