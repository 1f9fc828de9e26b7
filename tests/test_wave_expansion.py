"""Traveling-wave reduction, exact ansatz substitution, and the dual encodings.

The key oracle is direct numeric substitution: the exponential-polynomial
form evaluated at numeric unknowns must reproduce the transcendental
expression (lhs - rhs) times (1 + E^2)^2 at arbitrary xi.
"""

import math

import numpy as np
import pytest

from drpkit.errors import TruncationMismatchError
from drpkit.modeq import (
    SchemeParams,
    advection_coefficient,
    nondimensionalize,
    taylor_expand_scheme,
)
from drpkit.stencil import StencilCoefficients, optimize_coefficients
from drpkit.wave import (
    HyperbolicAnsatz,
    Poly,
    closed_form_kink,
    collect_system,
    condensed_coefficient_system,
    evaluate_system,
    reduce_to_ode,
    residual,
    substitute_ansatz,
    verify_condensed_system,
)

PI = math.pi


def nondim_table(coeffs, params):
    return nondimensionalize(coeffs, params)


def transcendental_times_clearing(A, sigma, vals, C1, xi):
    """Oracle: (lhs - rhs) of the integrated ODE, times (1 + E^2)^2."""
    t = math.tanh(C1 * xi)
    s = 1.0 / math.cosh(C1 * xi)
    u = vals["U1"] * t + vals["V1"] * s + vals["V0"]
    du = vals["U1"] * C1 * s * s - vals["V1"] * C1 * s * t
    E = math.exp(C1 * xi)
    lhs = (A - vals["v"]) * u + (-(vals["v"] ** 2) * sigma / 2.0) * du
    return (lhs - vals["C"]) * (1.0 + E * E) ** 2


class TestReduceToODE:
    def test_unit_example(self, m1_coeffs, unit_params):
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=4.0 / PI, C=1.0)
        assert abs(ode.a0) <= 1e-15
        assert ode.a1 == pytest.approx(-8.0 / PI**2, rel=1e-14)
        assert ode.rhs == 1.0

    def test_zero_speed(self, m1_coeffs, unit_params):
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=0.0, C=0.5)
        assert ode.a0 == ode.A
        assert ode.a1 == 0.0

    def test_structure_at_matched_speed_zero_constant(self, m1_coeffs, unit_params):
        table = nondim_table(m1_coeffs, unit_params)
        A = table.coefficient(0, 1)
        ode = reduce_to_ode(table, unit_params, v=A, C=0.0)
        # 0*u - (v^2 sigma/2) u' = 0: any constant profile solves it
        const = closed_form_kink(unit_params, m1_coeffs, C=0.0, C1=1.0, V0=0.7)
        assert np.max(np.abs(residual(ode, const, [-3.0, 0.0, 5.0]))) == 0.0

    def test_truncation_mismatch(self, m1_coeffs, unit_params):
        bad = taylor_expand_scheme(m1_coeffs, unit_params, 2, 3)
        with pytest.raises(TruncationMismatchError):
            reduce_to_ode(bad, unit_params, v=1.0, C=0.0)


class TestSubstituteAnsatz:
    def make(self, params, coeffs, v, C, C1, amplitudes=(0.3, -0.2, 0.1)):
        table = nondim_table(coeffs, params)
        ode = reduce_to_ode(table, params, v=v, C=C)
        ansatz = HyperbolicAnsatz(
            U1=amplitudes[0], V1=amplitudes[1], V0=amplitudes[2], C1=C1, v=v
        )
        return ode, ansatz, substitute_ansatz(ode, ansatz)

    def test_symbolic_coefficients_match_hand_expansion(self, m1_coeffs, unit_params):
        ode, _, ep = self.make(unit_params, m1_coeffs, v=0.9, C=0.4, C1=1.3)
        U1, V1, V0, v, C = (Poly.var(s) for s in ("U1", "V1", "V0", "v", "C"))
        A, sigma, c1 = ode.A, ode.sigma, 1.3
        gap = Poly.const(A) - v
        slope = (-0.5 * sigma) * v * v
        want = [
            gap * (V0 - U1) - C,
            gap * (2.0 * V1) + slope * ((2.0 * c1) * V1),
            gap * (2.0 * V0) + slope * ((4.0 * c1) * U1) - 2.0 * C,
            gap * (2.0 * V1) + slope * ((-2.0 * c1) * V1),
            gap * (U1 + V0) - C,
        ]
        for got, expected in zip(ep.coeffs, want):
            assert got == expected

    def test_degree_exactly_four_generic(self, m1_coeffs, unit_params):
        _, _, ep = self.make(unit_params, m1_coeffs, v=0.9, C=0.4, C1=1.3)
        assert ep.degree == 4

    def test_numeric_cross_check_fixed_point(self, m1_coeffs, unit_params):
        # frozen reference point: (U1, V1, V0, v, C, C1) = (0.3, -0.2, 0.1, 1.5, 0.7, 2.0)
        vals = {"U1": 0.3, "V1": -0.2, "V0": 0.1, "v": 1.5, "C": 0.7}
        ode, _, ep = self.make(
            unit_params, m1_coeffs, v=1.5, C=0.7, C1=2.0, amplitudes=(0.3, -0.2, 0.1)
        )
        for xi in (-1.0, 0.37, 2.0):
            direct = transcendental_times_clearing(ode.A, ode.sigma, vals, 2.0, xi)
            got = ep.evaluate(vals, xi)
            assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_equivalence_random_draws(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 200:
            params = SchemeParams.from_cfl(
                sigma=float(rng.uniform(0.05, 1.5)),
                mu=float(rng.uniform(0.2, 2.0)),
                re_h=float(rng.uniform(0.2, 2.0)),
            )
            coeffs = optimize_coefficients(int(rng.integers(1, 5)))
            C1 = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.5 else -1)
            for _ in range(8):
                vals = {
                    "U1": float(rng.uniform(-2, 2)),
                    "V1": float(rng.uniform(-2, 2)),
                    "V0": float(rng.uniform(-2, 2)),
                    "v": float(rng.uniform(-2, 2)),
                    "C": float(rng.uniform(-2, 2)),
                }
                table = nondim_table(coeffs, params)
                ode = reduce_to_ode(table, params, v=vals["v"], C=vals["C"])
                ansatz = HyperbolicAnsatz(
                    U1=vals["U1"], V1=vals["V1"], V0=vals["V0"], C1=C1, v=vals["v"]
                )
                ep = substitute_ansatz(ode, ansatz)
                for xi in rng.uniform(-2.5, 2.5, 16):
                    direct = transcendental_times_clearing(ode.A, ode.sigma, vals, C1, xi)
                    got = ep.evaluate(vals, float(xi))
                    assert abs(got - direct) <= 1e-10 * max(1.0, abs(got), abs(direct))
                checked += 1

    def test_rejects_sech_offset_and_wrong_order(self):
        with pytest.raises(ValueError):
            HyperbolicAnsatz(U1=1.0, V1=0.0, V0=0.0, C1=0.0, v=1.0)

    def test_speed_mismatch_rejected(self, m1_coeffs, unit_params):
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=1.0, C=0.0)
        ansatz = HyperbolicAnsatz(U1=1.0, V1=0.0, V0=0.0, C1=1.0, v=2.0)
        with pytest.raises(ValueError):
            substitute_ansatz(ode, ansatz)


class TestCollectSystem:
    def test_arity_and_unknowns(self, m1_coeffs, unit_params):
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=0.9, C=0.4)
        ansatz = HyperbolicAnsatz(U1=0.3, V1=-0.2, V0=0.1, C1=1.3, v=0.9)
        system = collect_system(substitute_ansatz(ode, ansatz))
        assert len(system.equations) == 5
        union = set()
        for eq in system.equations:
            union |= eq.variables()
        assert union <= {"U1", "V1", "V0", "v", "C"}

    def test_zero_expansion_gives_zero_system(self):
        from drpkit.wave.expansion import ExpPolynomial

        zero_ep = ExpPolynomial(
            coeffs=tuple(Poly() for _ in range(5)), C1=1.0, advection=0.5, sigma=1.0
        )
        system = collect_system(zero_ep)
        assert all(eq.is_zero() for eq in system.equations)
        assert zero_ep.degree == -1


class TestClosedFormKink:
    def test_zero_constant_degenerates(self, m1_coeffs, unit_params):
        sol = closed_form_kink(unit_params, m1_coeffs, C=0.0, C1=1.0, V0=0.3)
        assert sol.U1 == 0.0
        assert sol.V0 == 0.3

    def test_unit_values(self, m1_coeffs, unit_params):
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=1.0)
        assert sol.v == pytest.approx(4.0 / PI, abs=1e-12)
        assert sol.U1 == pytest.approx(-(PI**2) / 32.0, abs=1e-12)

    def test_amplitude_linear_in_constant(self, m1_coeffs, unit_params):
        a = closed_form_kink(unit_params, m1_coeffs, C=0.5, C1=2.0)
        b = closed_form_kink(unit_params, m1_coeffs, C=1.5, C1=2.0)
        assert b.U1 == pytest.approx(3.0 * a.U1, rel=1e-14)

    def test_zero_speed_diagnostic(self, unit_params):
        silent = StencilCoefficients(m=1, gamma=(0.0,))
        with pytest.raises(ZeroDivisionError):
            closed_form_kink(unit_params, silent, C=1.0, C1=1.0)

    def test_speed_equals_advection_coefficient(self, unit_params):
        rng = np.random.default_rng(13)
        for m in (1, 2, 3, 4):
            coeffs = optimize_coefficients(m)
            params = SchemeParams.from_cfl(
                sigma=float(rng.uniform(0.1, 1.5)), mu=float(rng.uniform(0.2, 2.0)),
                re_h=float(rng.uniform(0.2, 2.0)),
            )
            table = nondim_table(coeffs, params)
            sol = closed_form_kink(params, coeffs, C=1.0, C1=1.0)
            A = table.coefficient(0, 1)
            assert abs(sol.v - A) <= 1e-14 * max(1.0, abs(A))
            assert sol.v == advection_coefficient(params, coeffs)

    def test_table_and_kink_share_one_advection_coefficient(self):
        # bit for bit, so the reduction's a0 = A - v vanishes exactly; the
        # first two draws are the ones whose two formulas for A once differed
        rng = np.random.default_rng(12)
        draws = [(1, 0.1, 1.0, 3.0, 1.0), (1, 0.1, 1.0, 1.0, 0.37)]
        draws += [
            (int(rng.integers(1, 10)), *(float(x) for x in rng.uniform(0.1, 3.0, 4)))
            for _ in range(100)
        ]
        coeffs = {m: optimize_coefficients(m) for m in range(1, 10)}
        for m, sigma, mu, re_h, h in draws:
            params = SchemeParams.from_cfl(sigma=sigma, mu=mu, re_h=re_h, h=h)
            sol = closed_form_kink(params, coeffs[m], C=1.0, C1=1.0)
            table = nondim_table(coeffs[m], params)
            assert table.coefficient(0, 1) == sol.v
            assert reduce_to_ode(table, params, v=sol.v, C=1.0).a0 == 0.0

    def test_canonicalization(self, m1_coeffs, unit_params):
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=-2.0)
        canon = sol.canonical()
        assert canon.C1 == 2.0
        assert canon.U1 == -sol.U1
        xi = np.linspace(-3, 3, 11)
        assert np.allclose(canon.profile(xi), sol.profile(xi), atol=1e-15)


class TestResidualDiagnostics:
    def test_residual_of_unit_solution(self, m1_coeffs, unit_params):
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=1.0)
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=sol.v, C=1.0)
        r = residual(ode, sol, [0.0])
        assert r[0] == pytest.approx(-0.75, abs=1e-10)

    def test_residual_tends_to_minus_constant(self, m1_coeffs, unit_params):
        C = 1.0
        sol = closed_form_kink(unit_params, m1_coeffs, C=C, C1=1.0)
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=sol.v, C=C)
        r5, r10 = residual(ode, sol, [5.0, 10.0])
        gap5, gap10 = r5 + C, r10 + C
        assert abs(gap10) < abs(gap5)
        # sech^2 decay rate between xi = 5/C1 and 10/C1
        expected_ratio = (math.cosh(5.0) / math.cosh(10.0)) ** 2
        assert gap10 / gap5 == pytest.approx(expected_ratio, rel=1e-8)

    def test_constant_solution_exact(self, m1_coeffs, unit_params):
        sol = closed_form_kink(unit_params, m1_coeffs, C=0.0, C1=1.0, V0=0.4)
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=sol.v, C=0.0)
        assert np.max(np.abs(residual(ode, sol, np.linspace(-5, 5, 21)))) == 0.0


class TestCondensedSystem:
    def test_closed_form_solves_condensed(self, unit_params):
        for m in (1, 2, 3):
            coeffs = optimize_coefficients(m)
            report = verify_condensed_system(unit_params, coeffs, C=1.0, C1=1.0)
            assert report.ok
            assert max(abs(r) for r in report.residuals) <= 1e-10

    def test_zero_constant_case(self, m1_coeffs, unit_params):
        report = verify_condensed_system(unit_params, m1_coeffs, C=0.0, C1=1.0)
        assert report.ok
        assert report.values["U1"] == 0.0

    def test_residuals_independent_of_offset(self, m1_coeffs, unit_params):
        r0 = verify_condensed_system(unit_params, m1_coeffs, C=1.0, C1=1.0, V0=0.0)
        r1 = verify_condensed_system(unit_params, m1_coeffs, C=1.0, C1=1.0, V0=5.0)
        assert np.allclose(r0.residuals, r1.residuals, atol=1e-12)

    def test_perturbed_amplitude_first_residual(self, m1_coeffs, unit_params):
        # the order-zero equation is affine in U1 with slope -2 v^2 C1 sigma
        sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=1.0)
        system = condensed_coefficient_system(unit_params, m1_coeffs, C1=1.0)
        base = {"U1": sol.U1, "V1": 0.0, "V0": 0.0, "v": sol.v, "C": 1.0}
        bumped = {**base, "U1": sol.U1 + 1.0}
        r_base = evaluate_system(system, base)
        r_bumped = evaluate_system(system, bumped)
        slope = -2.0 * sol.v**2 * 1.0 * unit_params.sigma
        assert r_bumped[0] - r_base[0] == pytest.approx(slope, rel=1e-12)

    def test_derived_residuals_at_closed_form(self, m1_coeffs, unit_params):
        # the closed form does not solve the exact expansion: the defect is
        # (-C, 0, -C, 0, -C), the undistributed integration constant
        C = 1.0
        sol = closed_form_kink(unit_params, m1_coeffs, C=C, C1=1.0)
        table = nondim_table(m1_coeffs, unit_params)
        ode = reduce_to_ode(table, unit_params, v=sol.v, C=C)
        ansatz = HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=0.0, C1=1.0, v=sol.v)
        system = collect_system(substitute_ansatz(ode, ansatz))
        res = evaluate_system(
            system, {"U1": sol.U1, "V1": 0.0, "V0": 0.0, "v": sol.v, "C": C}
        )
        assert np.allclose(res, [-C, 0.0, -C, 0.0, -C], atol=1e-12)
