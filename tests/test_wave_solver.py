"""Case-analysis solver: known solution sets and branch soundness.

Soundness is the checkable contract: every resolved branch, sampled at
random admissible values of its free symbols, must annihilate the system
it came from.
"""

import itertools
import math

import numpy as np
import pytest

from drpkit.modeq import SchemeParams, nondimensionalize
from drpkit.stencil import optimize_coefficients
from drpkit.wave import (
    CoefficientSystem,
    HyperbolicAnsatz,
    Poly,
    closed_form_kink,
    collect_system,
    condensed_coefficient_system,
    describe_solution_set,
    evaluate_system,
    reduce_to_ode,
    solve_system,
    substitute_ansatz,
)
from drpkit.wave.poly import SYMBOLS

PI = math.pi


@pytest.fixture()
def derived_system(m1_coeffs, unit_params):
    table = nondimensionalize(m1_coeffs, unit_params)
    sol = closed_form_kink(unit_params, m1_coeffs, C=1.0, C1=1.0)
    ode = reduce_to_ode(table, unit_params, v=sol.v, C=1.0)
    ansatz = HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=0.0, C1=1.0, v=sol.v)
    return collect_system(substitute_ansatz(ode, ansatz))


@pytest.fixture()
def condensed_system(m1_coeffs, unit_params):
    return condensed_coefficient_system(unit_params, m1_coeffs, C1=1.0)


def assert_branches_sound(system, branches, rng, draws=50, tol=1e-10):
    assert branches, "expected at least one branch"
    for branch in branches:
        assert not branch.unresolved, branch.describe()
        for _ in range(draws):
            values = branch.sample(rng)
            res = evaluate_system(system, values)
            assert np.max(np.abs(res)) <= tol, (branch.describe(), values)


class TestDerivedSystem:
    def test_constant_only_with_symbolic_constant(self, derived_system):
        branches = solve_system(derived_system)
        assert all(b.is_constant_only() for b in branches)
        assert describe_solution_set(branches) == "no nontrivial branch (constant waveforms only)"

    def test_zero_constant_branches(self, derived_system):
        branches = solve_system(derived_system, fixed={"C": 0.0})
        descriptions = [b.describe() for b in branches]
        # v = A with V0 free, and V0 = 0 with v free: constants only
        assert len(branches) == 2
        a_branch = [b for b in branches if isinstance(b.assignments.get("v"), float)]
        free_branch = [b for b in branches if "v" in b.free]
        assert len(a_branch) == 1 and len(free_branch) == 1
        assert a_branch[0].assignments["v"] == pytest.approx(4.0 / PI, abs=1e-12)
        assert "V0" in a_branch[0].free
        assert free_branch[0].assignments["V0"] == 0.0
        for b in branches:
            assert b.assignments["U1"] == 0.0
            assert b.assignments["V1"] == 0.0
        assert all("U1 = 0.0" in d for d in descriptions)

    def test_fixed_nonzero_constant_is_constant_family(self, derived_system):
        branches = solve_system(derived_system, fixed={"C": 1.0})
        assert len(branches) == 1
        branch = branches[0]
        assert branch.is_constant_only()
        assert "v" in branch.free
        # sampled values satisfy V0 = C / (A - v)
        rng = np.random.default_rng(17)
        for _ in range(20):
            vals = branch.sample(rng)
            want = 1.0 / (derived_system.advection - vals["v"])
            assert vals["V0"] == pytest.approx(want, rel=1e-10)

    def test_soundness(self, derived_system):
        rng = np.random.default_rng(23)
        assert_branches_sound(derived_system, solve_system(derived_system), rng)
        assert_branches_sound(
            derived_system, solve_system(derived_system, fixed={"C": 0.0}), rng
        )
        assert_branches_sound(
            derived_system, solve_system(derived_system, fixed={"C": 1.0}), rng
        )


class TestCondensedSystem:
    def test_reference_branch(self, condensed_system, unit_params, m1_coeffs):
        branches = solve_system(condensed_system)
        nontrivial = [b for b in branches if not b.is_constant_only()]
        assert len(nontrivial) == 1
        branch = nontrivial[0]
        v = branch.assignments["v"]
        assert v == pytest.approx(4.0 / PI, abs=1e-12)
        assert branch.assignments["V1"] == 0.0
        assert "V0" in branch.free
        # the branch realizes U1 = -C / (2 C1 v^2 sigma), however parameterized
        rng = np.random.default_rng(29)
        sigma, C1 = unit_params.sigma, 1.0
        for _ in range(20):
            vals = branch.sample(rng)
            assert vals["U1"] == pytest.approx(
                -vals["C"] / (2.0 * C1 * v * v * sigma), rel=1e-10, abs=1e-12
            )

    def test_matches_closed_form(self, condensed_system, unit_params, m1_coeffs):
        branches = solve_system(condensed_system)
        nontrivial = [b for b in branches if not b.is_constant_only()][0]
        rng = np.random.default_rng(31)
        vals = nontrivial.sample(rng)
        sol = closed_form_kink(unit_params, m1_coeffs, C=vals["C"], C1=1.0, V0=vals["V0"])
        assert sol.U1 == pytest.approx(vals["U1"], rel=1e-10, abs=1e-12)
        assert sol.v == pytest.approx(vals["v"], rel=1e-12)

    def test_soundness(self, condensed_system):
        rng = np.random.default_rng(37)
        assert_branches_sound(condensed_system, solve_system(condensed_system), rng)


class TestDegenerate:
    def test_all_zero_system(self):
        zero = CoefficientSystem(
            equations=tuple(Poly() for _ in range(5)),
            advection=0.7,
            sigma=1.0,
            C1=1.0,
            encoding="derived",
        )
        branches = solve_system(zero)
        assert len(branches) == 1
        assert branches[0].assignments == {}
        assert set(branches[0].free) == {"U1", "V1", "V0", "v", "C"}

    def test_unknown_fixed_symbol(self, condensed_system):
        with pytest.raises(KeyError):
            solve_system(condensed_system, fixed={"W": 1.0})

    def test_contradictory_fixing_yields_empty(self, derived_system):
        # pin everything inconsistently: U1=1 forces (A - v) U1 terms that
        # cannot cancel with C = 0 and v != A
        branches = solve_system(
            derived_system, fixed={"C": 0.0, "U1": 1.0, "V1": 0.0, "V0": 0.0}
        )
        # only v = A could survive P4 = (A - v) U1; but then P2 = -2 v^2 sigma C1 != 0
        assert branches == []
        assert describe_solution_set(branches) == "empty solution set"


class TestAcrossConfigurations:
    def test_many_stencils_and_params(self):
        rng = np.random.default_rng(41)
        for m in (1, 2, 3):
            coeffs = optimize_coefficients(m)
            params = SchemeParams.from_cfl(
                sigma=float(rng.uniform(0.1, 1.2)),
                mu=float(rng.uniform(0.3, 2.0)),
                re_h=float(rng.uniform(0.3, 2.0)),
            )
            C1 = float(rng.uniform(0.4, 1.6))
            system = condensed_coefficient_system(params, coeffs, C1=C1)
            branches = solve_system(system)
            assert_branches_sound(system, branches, rng, draws=20)
            nontrivial = [b for b in branches if not b.is_constant_only()]
            assert len(nontrivial) == 1
            assert nontrivial[0].assignments["v"] == pytest.approx(
                system.advection, rel=1e-12
            )


class TestPinnedUnknowns:
    def test_every_pin_subset_on_both_encodings(self):
        # every nonempty subset of the five unknowns, each pinned to 0.0 or to
        # one seeded draw: 2 * (3^5 - 1) = 484 solves
        params = SchemeParams.from_cfl(sigma=0.7, mu=1.3, re_h=2.1)
        coeffs = optimize_coefficients(3)
        C1 = 0.6
        sol = closed_form_kink(params, coeffs, C=1.0, C1=C1)
        table = nondimensionalize(coeffs, params)
        ode = reduce_to_ode(table, params, v=sol.v, C=1.0)
        ansatz = HyperbolicAnsatz(U1=sol.U1, V1=0.0, V0=0.0, C1=C1, v=sol.v)
        systems = (
            collect_system(substitute_ansatz(ode, ansatz)),
            condensed_coefficient_system(params, coeffs, C1),
        )
        rng = np.random.default_rng(5)
        drawn = {name: float(rng.uniform(-2.0, 2.0)) for name in SYMBOLS}
        solves = 0
        unresolved = []
        for system in systems:
            for size in range(1, len(SYMBOLS) + 1):
                for names in itertools.combinations(SYMBOLS, size):
                    for values in itertools.product(*[(0.0, drawn[n]) for n in names]):
                        fixed = dict(zip(names, values))
                        branches = solve_system(system, fixed=fixed)
                        solves += 1
                        summary = describe_solution_set(branches)
                        if any(b.unresolved for b in branches):
                            assert summary == "solution set partially unresolved"
                            unresolved.append((system.encoding, fixed))
                        resolved = [b for b in branches if not b.unresolved]
                        if resolved:
                            assert_branches_sound(system, resolved, rng, draws=3)
        assert solves == 484
        # every pin closes, the last gap included: with U1 = 0 and C pinned to
        # a nonzero number, the derived encoding keeps V0 (A - v) = C twice,
        # which the split on v = A closes with V0 = C / (A - v)
        assert unresolved == []
