"""The case solver against sympy, an independent oracle for its solution sets.

Both encodings of the coefficient system are rebuilt in sympy with exact
rational parameters: the derived one by letting sympy expand the
traveling-wave ODE with the tanh/sech ansatz, the condensed one from its
definition.
Over the seeded draws shared with the fast-path tests, and the same
systems again with the amplitude pinned to U1 = 0 and the integration
constant to a drawn nonzero C, every point sampled from a drpkit branch
must zero the sympy equations, and every solution family sympy finds, with
its free unknowns drawn at random, must lie in some drpkit branch.  sympy
solves the equations' lex Groebner basis, which has the same solutions.
"""

import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from drpkit.wave import solve_system  # noqa: E402
from drpkit.wave.poly import SYMBOLS  # noqa: E402

UNKNOWNS = sp.symbols(" ".join(SYMBOLS))
U1, V1, V0, v, C = UNKNOWNS
_A, _SIGMA, _C1 = sp.symbols("A sigma C1", nonzero=True)


def _derived_template():
    """Coefficients of E^0..E^4 in ((A - v) u - (sigma v^2 / 2) u' - C) (1 + E^2)^2."""
    xi = sp.Symbol("xi", real=True)
    E = sp.Symbol("E", positive=True)
    u = U1 * sp.tanh(_C1 * xi) + V1 * sp.sech(_C1 * xi) + V0
    ode = (_A - v) * u - _SIGMA * v**2 / 2 * sp.diff(u, xi) - C
    in_E = ode.rewrite(sp.exp).subs({sp.exp(_C1 * xi): E, sp.exp(-_C1 * xi): 1 / E})
    assert xi not in in_E.free_symbols
    cleared = sp.Poly(sp.expand(sp.cancel(in_E * (1 + E**2) ** 2)), E)
    assert cleared.degree() == 4
    return [cleared.coeff_monomial(E**k) for k in range(5)]


def _condensed_template():
    gap = _A - v
    half = -_C1 * _SIGMA * v**2 / 2
    return [
        2 * gap * (V0 - U1) + half * (4 * U1 + 2 * V1) - C,
        2 * gap * V1,
        2 * gap * V0,
        2 * gap * V1 + _C1 * _SIGMA * v**2 * V1,
        gap * (U1 + V0),
    ]


@pytest.fixture(scope="module")
def templates():
    return {"derived": _derived_template(), "condensed": _condensed_template()}


def sympy_equations(templates, system, fixed):
    exact = {_A: sp.Rational(system.advection), _SIGMA: sp.Rational(system.sigma),
             _C1: sp.Rational(system.C1)}
    for name, value in (fixed or {}).items():
        exact[UNKNOWNS[SYMBOLS.index(name)]] = sp.Rational(value)
    return [sp.expand(eq.subs(exact)) for eq in templates[system.encoding]]


def pinned_amplitude_draws(system_draws):
    """Each draw's systems again, with U1 = 0 and C pinned to a drawn nonzero value."""
    rng = np.random.default_rng(20261020)
    return [
        {**draw, "fixed": {"U1": 0.0, "C": float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))}}
        for draw in system_draws
    ]


def residuals_at(terms, values):
    """The value of each equation, given as monomial -> float, at a point of all unknowns."""
    point = [values.get(name, 0.0) for name in SYMBOLS]
    return [
        sum(c * math.prod(x**e for x, e in zip(point, mono)) for mono, c in eq.items())
        for eq in terms
    ]


def contains(branch, point, tol=1e-9):
    """Whether a numeric point of all five unknowns lies in a drpkit branch."""
    for name, value in branch.constraints:
        if point[name] == value:
            return False
    frees = {name: point[name] for name in branch.free}
    for name, value in branch.assignments.items():
        expected = value if isinstance(value, float) else value.evaluate(frees)
        if not math.isclose(expected, point[name], rel_tol=tol, abs_tol=tol):
            return False
    return True


def family_point(solution, fixed, rng):
    """A real point of a sympy solution family with its free unknowns drawn, or None."""
    for _ in range(50):
        point = {str(x): float(rng.uniform(-2.0, 2.0)) for x in UNKNOWNS if x not in solution}
        point.update(fixed or {})
        at = {x: sp.Float(point[str(x)], 30) for x in UNKNOWNS if str(x) in point}
        try:
            values = {str(x): complex(expr.evalf(30, subs=at)) for x, expr in solution.items()}
        except (TypeError, ZeroDivisionError):
            continue
        if all(math.isfinite(z.real) and abs(z.imag) <= 1e-12 * max(1.0, abs(z))
               for z in values.values()):
            point.update({name: z.real for name, z in values.items()})
            return point
    return None


@pytest.mark.parametrize("encoding", [0, 1], ids=["derived", "condensed"])
def test_drpkit_branches_match_sympy_solution_sets(system_draws, templates, encoding):
    rng = np.random.default_rng(7 + encoding)
    for draw in system_draws + pinned_amplitude_draws(system_draws):
        system, fixed = draw["systems"][encoding], draw["fixed"]
        label = (draw["m"], system.encoding, fixed)
        eqs = sympy_equations(templates, system, fixed)
        # the rebuilt equations are drpkit's, coefficient by coefficient
        terms = []
        for eq, poly in zip(eqs, system.equations):
            for name, value in (fixed or {}).items():
                poly = poly.substitute(name, value)
            want = {m: float(c) for m, c in sp.Poly(eq, *UNKNOWNS).as_dict().items()}
            assert poly.terms.keys() == want.keys(), label
            for mono, coeff in poly.terms.items():
                assert math.isclose(coeff, want[mono], rel_tol=1e-12), (label, mono)
            terms.append(want)

        # the condensed encoding has no solution with U1 = 0 and C != 0;
        # every other draw has one
        empty = system.encoding == "condensed" and "U1" in (fixed or {})
        branches = solve_system(system, fixed=fixed)
        assert bool(branches) != empty and not any(b.unresolved for b in branches), label
        for branch in branches:
            for _ in range(10):
                values = branch.sample(rng)
                res = residuals_at(terms, values)
                assert max(abs(r) for r in res) <= 1e-9, (label, branch.describe(), values)

        unknowns = [x for x in UNKNOWNS if str(x) not in (fixed or {})]
        # the lex Groebner basis spans the same ideal, so it has the same
        # solutions; sympy solves it several times faster than the equations
        basis = sp.groebner([eq for eq in eqs if eq != 0], *unknowns, order="lex")
        families = sp.solve(list(basis.exprs), unknowns, dict=True, manual=True)
        assert bool(families) != empty, label
        checked = 0
        for solution in families:
            for _ in range(5):
                point = family_point(solution, fixed, rng)
                if point is None:
                    break
                checked += 1
                assert any(contains(b, point) for b in branches), (label, solution, point)
        assert checked or empty, label
