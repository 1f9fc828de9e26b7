"""Modified-equation tables, their nondimensional form, and the Fourier symbol."""

import math
import sys

import numpy as np
import pytest

from drpkit.errors import CoefficientUnderflowError
from drpkit.modeq import (
    DifferentialApproximation,
    SchemeParams,
    discrete_symbol,
    nondimensionalize,
    taylor_expand_scheme,
)
from drpkit.stencil import StencilCoefficients, optimize_coefficients

PI = math.pi


def random_params(rng):
    sigma = float(rng.uniform(0.05, 2.0))
    mu = float(rng.uniform(0.1, 3.0))
    re_h = float(rng.uniform(0.1, 3.0))
    h = float(rng.uniform(0.2, 2.0))
    return SchemeParams.from_cfl(sigma=sigma, mu=mu, re_h=re_h, h=h)


class TestSchemeParams:
    def test_factory_invariants(self):
        p = SchemeParams.from_cfl(sigma=0.3, mu=2.0, re_h=0.5, h=0.7)
        assert p.sigma == pytest.approx(p.c * p.tau / p.h, rel=1e-14)
        assert p.U0 == pytest.approx(p.h0 / p.tau0, rel=1e-14)
        assert p.re_h == pytest.approx(p.U0 * p.h / p.mu, rel=1e-14)

    def test_inconsistent_rejected(self):
        good = SchemeParams.from_cfl(sigma=1.0, mu=1.0, re_h=1.0)
        with pytest.raises(ValueError):
            SchemeParams(
                c=good.c, mu=good.mu, tau=good.tau * 1.01, h=good.h, sigma=good.sigma,
                U0=good.U0, tau0=good.tau0, h0=good.h0, re_h=good.re_h,
            )

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            SchemeParams.from_cfl(sigma=-1.0, mu=1.0, re_h=1.0)

    def test_absolute_floor_is_the_smallest_normal_float(self):
        # normal values keep their relative precision: 1e-300 is not 2e-300
        with pytest.raises(ValueError, match="sigma=1e-300 inconsistent"):
            SchemeParams(c=1, mu=1, tau=2e-300, h=1, sigma=1e-300, U0=1, tau0=1, h0=1, re_h=1)
        # below sys.float_info.min relative precision ends, and the floor decides
        tiny = sys.float_info.min / 4.0
        params = SchemeParams(c=1, mu=1, tau=2 * tiny, h=1, sigma=tiny, U0=1, tau0=1, h0=1,
                              re_h=1)
        assert params.sigma == tiny


class TestTaylorExpansion:
    def test_reference_table_m1(self, m1_coeffs, unit_params):
        da = taylor_expand_scheme(m1_coeffs, unit_params, 2, 1)
        assert set(da.terms) == {(1, 0), (2, 0), (0, 1)}
        assert da.terms[(1, 0)] == -1.0
        assert da.terms[(2, 0)] == -unit_params.tau / 2.0
        # sum_k k gamma_k = 2 gamma_1 = 4/pi, times tau
        assert da.terms[(0, 1)] == pytest.approx(4.0 * unit_params.tau / PI, rel=1e-15)

    def test_u_tt_coefficient_universal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            coeffs = StencilCoefficients(m=m, gamma=tuple(rng.uniform(-1, 1, m)))
            params = random_params(rng)
            da = taylor_expand_scheme(coeffs, params, 3, 2)
            assert da.terms[(2, 0)] == -params.tau / 2.0

    def test_even_space_orders_absent(self, unit_params):
        rng = np.random.default_rng(3)
        for m in range(1, 9):
            coeffs = StencilCoefficients(m=m, gamma=tuple(rng.uniform(-1, 1, m)))
            da = taylor_expand_scheme(coeffs, unit_params, 2, 12)
            for r in range(2, 13, 2):
                assert (0, r) not in da.terms

    def test_zero_stencil_has_no_space_terms(self, unit_params):
        zero = StencilCoefficients(m=2, gamma=(0.0, 0.0))
        da = taylor_expand_scheme(zero, unit_params, 2, 5)
        assert set(da.terms) == {(1, 0), (2, 0)}

    def test_order_caps(self, m1_coeffs, unit_params):
        with pytest.raises(ValueError):
            taylor_expand_scheme(m1_coeffs, unit_params, 7, 1)
        with pytest.raises(ValueError):
            taylor_expand_scheme(m1_coeffs, unit_params, 2, 13)
        with pytest.raises(ValueError):
            taylor_expand_scheme(m1_coeffs, unit_params, 0, 1)

    def test_no_zero_coefficients_stored(self):
        with pytest.raises(ValueError):
            DifferentialApproximation(terms={(1, 0): 0.0}, truncation=(1, 1))

    @pytest.mark.parametrize(
        "params, quantity",
        [
            # h**11 underflows
            (SchemeParams.from_cfl(sigma=1.0, mu=1.0, re_h=1.0, h=1e-30), "h"),
            # h**11 / 11! is fine, but tau times it underflows; u_t_t = -tau/2 does not
            (SchemeParams.from_cfl(None, mu=1.0, re_h=1.0, tau=1e-317), "tau"),
        ],
    )
    def test_underflowing_space_term_raises(self, m1_coeffs, params, quantity):
        assert taylor_expand_scheme(m1_coeffs, params, 2, 9).terms[(0, 9)] != 0.0
        with pytest.raises(CoefficientUnderflowError, match="the u_x_x_x_x_x_x_x_x_x_x_x ") as exc:
            taylor_expand_scheme(m1_coeffs, params, 2, 12)
        assert exc.value.quantity == quantity


class TestNondimensionalize:
    def test_unit_example(self, m1_coeffs, unit_params):
        nd = nondimensionalize(m1_coeffs, unit_params)
        assert nd.terms[(1, 0)] == -1.0
        assert nd.terms[(2, 0)] == -0.5
        assert nd.terms[(0, 1)] == pytest.approx(4.0 / PI, rel=1e-14)

    def test_u_t_coefficient_always_minus_one(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = random_params(rng)
            coeffs = optimize_coefficients(int(rng.integers(1, 5)))
            nd = nondimensionalize(coeffs, params)
            assert nd.terms[(1, 0)] == -1.0

    def test_small_sigma_limit(self, m1_coeffs):
        params = SchemeParams.from_cfl(sigma=1e-9, mu=1.0, re_h=1.0)
        nd = nondimensionalize(m1_coeffs, params)
        assert abs(nd.terms[(2, 0)]) <= 5e-10

    def test_reference_formula_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = random_params(rng)
            m = int(rng.integers(1, 6))
            coeffs = optimize_coefficients(m)
            nd = nondimensionalize(coeffs, params)
            half_moment = coeffs.index_moment(1) / 2.0
            want = 2.0 * params.sigma / (params.mu * params.re_h) * half_moment
            assert nd.terms[(1, 0)] == -1.0
            assert abs(nd.terms[(2, 0)] - (-params.sigma / 2.0)) <= 1e-14 * max(1.0, params.sigma)
            assert abs(nd.terms[(0, 1)] - want) <= 1e-14 * max(1.0, abs(want))

    def test_requires_h_equals_h0(self, m1_coeffs):
        base = SchemeParams.from_cfl(sigma=1.0, mu=1.0, re_h=1.0)
        skew = SchemeParams(
            c=base.c, mu=base.mu, tau=base.tau, h=base.h, sigma=base.sigma,
            U0=2.0, tau0=1.0, h0=2.0, re_h=2.0,
        )
        with pytest.raises(ValueError):
            nondimensionalize(m1_coeffs, skew)

    def test_zero_stencil_table(self, unit_params):
        zero = StencilCoefficients(m=1, gamma=(0.0,))
        nd = nondimensionalize(zero, unit_params)
        assert set(nd.terms) == {(1, 0), (2, 0)}


class TestDiscreteSymbol:
    def test_dc_mode_untouched(self, m3_coeffs, unit_params):
        assert discrete_symbol(m3_coeffs, unit_params, 0.0) == 1.0 + 0.0j

    def test_m1_band_edge(self, m1_coeffs, unit_params):
        g = discrete_symbol(m1_coeffs, unit_params, PI / 2)
        assert g == pytest.approx(1.0 + 1j * 4.0 / PI, abs=1e-15)

    def test_modulus_at_least_one(self, m3_coeffs):
        params = SchemeParams.from_cfl(sigma=0.4, mu=1.0, re_h=1.0)
        zetas = np.linspace(-PI, PI, 1024, endpoint=False)
        g = discrete_symbol(m3_coeffs, params, zetas)
        assert np.all(np.abs(g) >= 1.0)

    def test_symbol_slope_matches_u_x_coefficient(self):
        # d(Im g)/dzeta at 0 times h must equal the u_x coefficient of the
        # dimensional table; checked by central finite differences
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = random_params(rng)
            coeffs = optimize_coefficients(int(rng.integers(1, 5)))
            da = taylor_expand_scheme(coeffs, params, 2, 1)
            eps = 1e-6
            gp = discrete_symbol(coeffs, params, eps)
            gm = discrete_symbol(coeffs, params, -eps)
            slope = (gp.imag - gm.imag) / (2.0 * eps)
            want = da.terms[(0, 1)]
            assert abs(slope * params.h - want) <= 1e-6 * max(1.0, abs(want))
