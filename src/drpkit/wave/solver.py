"""Case-analysis solver for the five-equation coefficient system.

The system's shape admits a direct attack, no Groebner machinery: every
equation is built from the factor (A - v), products with V1, and low-degree
pieces.  The solver alternates two moves until each branch closes:

* propagation: an equation that is affine in one unknown with a numeric
  coefficient pins that unknown (possibly to a polynomial in the remaining
  frees); constant nonzero equations kill the branch.
* splitting: on the factor (v - A) (assign v = A, or divide it out under a
  recorded v != A constraint), on a common factor V1 likewise, on a
  single-unknown equation via its real roots, and, when an unknown appears
  affinely with a coefficient that is a nonvanishing power of (v - A), via
  a rational assignment.

Every returned branch is a sound parameterization: substituting any
admissible values of its free symbols into the original system gives zero
residuals.  Branches that cannot be closed are returned flagged as
unresolved instead of being guessed at; a system with no nonconstant
branch is reported as such, never padded with a fabricated solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expansion import CoefficientSystem
from .poly import SYMBOLS, Poly, Rational

_NE_VALUE = "ne_value"
_NE_ZERO = "ne_zero"


def _substitute_rational_into_eq(eq: Poly, name: str, num: Poly, den: Poly) -> Poly:
    """Replace name by num/den in an equation and clear the denominator."""
    deg = eq.degree(name)
    if deg <= 0:
        return eq
    out = Poly()
    for j in range(deg + 1):
        cj = eq.coefficient_poly(name, j)
        if cj.is_zero():
            continue
        term = cj
        for _ in range(j):
            term = term * num
        for _ in range(deg - j):
            term = term * den
        out = out + term
    return out


def _value_variables(value) -> set[str]:
    if isinstance(value, float):
        return set()
    return value.variables()


def _substitute_into_value(value, name: str, repl):
    """Substitute an assignment into another assignment's value.

    ``repl`` may be a float, Poly or Rational; the result is float, Poly or
    Rational accordingly.
    """
    if isinstance(value, float):
        return value
    if isinstance(value, Poly):
        if isinstance(repl, Rational):
            deg = value.degree(name)
            if deg <= 0:
                return value
            num = _substitute_rational_into_eq(value, name, repl.num, repl.den)
            den = Poly.const(1.0)
            for _ in range(deg):
                den = den * repl.den
            return _simplify_rational(num, den)
        return value.substitute(name, repl)
    # Rational value
    if isinstance(repl, Rational):
        dn = value.num.degree(name)
        dd = value.den.degree(name)
        num = _substitute_rational_into_eq(value.num, name, repl.num, repl.den)
        den = _substitute_rational_into_eq(value.den, name, repl.num, repl.den)
        # clear to a common power of repl.den
        for _ in range(max(dn, dd) - dn):
            num = num * repl.den
        for _ in range(max(dn, dd) - dd):
            den = den * repl.den
        return _simplify_rational(num, den)
    return _simplify_rational(value.num.substitute(name, repl), value.den.substitute(name, repl))


def _simplify_rational(num: Poly, den: Poly):
    dc = den.constant_value()
    if dc is not None:
        if dc == 0.0:
            raise ZeroDivisionError("assignment denominator vanished during resolution")
        scaled = (1.0 / dc) * num
        cv = scaled.constant_value()
        return cv if cv is not None else scaled
    return Rational(num, den)


@dataclass(frozen=True)
class SolutionBranch:
    """One parameterized family of solutions.

    ``assignments`` map pinned unknowns to floats, Polys or Rationals in the
    free symbols; ``constraints`` record inequations the branch lives under.
    """

    assignments: dict
    free: tuple[str, ...]
    constraints: tuple[tuple, ...] = ()
    unresolved_equations: tuple[Poly, ...] = ()

    @property
    def unresolved(self) -> bool:
        return bool(self.unresolved_equations)

    def is_constant_only(self) -> bool:
        """True when the branch forces U1 = V1 = 0, i.e. only constant waveforms."""
        for name in ("U1", "V1"):
            value = self.assignments.get(name)
            if value is None:
                return False
            if isinstance(value, float):
                if value != 0.0:
                    return False
            elif not (isinstance(value, Poly) and value.is_zero()):
                return False
        return True

    def constraint_strings(self) -> list[str]:
        out = []
        for kind, *rest in self.constraints:
            if kind == _NE_VALUE:
                out.append(f"{rest[0]} != {rest[1]!r}")
            else:
                out.append(f"{rest[0]} != 0")
        return sorted(out)

    def describe(self) -> str:
        parts = []
        for name in SYMBOLS:
            if name in self.assignments:
                value = self.assignments[name]
                rendered = repr(value) if isinstance(value, float) else value.as_string()
                parts.append(f"{name} = {rendered}")
        for name in self.free:
            parts.append(f"{name} free")
        parts.extend(self.constraint_strings())
        if self.unresolved:
            parts.append("UNRESOLVED: " + "; ".join(eq.as_string() for eq in self.unresolved_equations))
        return ", ".join(parts)

    def sample(self, rng: np.random.Generator, span: float = 2.0, margin: float = 0.05) -> dict:
        """Numeric assignment of all unknowns with the frees drawn at random.

        Redraws until every inequation constraint holds with a margin, then
        evaluates the pinned values.
        """
        for _ in range(200):
            values = {name: float(rng.uniform(-span, span)) for name in self.free}
            ok = True
            for kind, *rest in self.constraints:
                if kind == _NE_VALUE and rest[0] in values:
                    if abs(values[rest[0]] - rest[1]) < margin:
                        ok = False
                elif kind == _NE_ZERO and rest[0] in values:
                    if abs(values[rest[0]]) < margin:
                        ok = False
            if ok:
                break
        else:
            raise RuntimeError("could not satisfy branch constraints while sampling")
        for name in SYMBOLS:
            if name in self.assignments:
                value = self.assignments[name]
                values[name] = value if isinstance(value, float) else value.evaluate(values)
        return values

    def to_json(self) -> dict:
        return {
            "assignments": {
                name: (value if isinstance(value, float) else value.as_string())
                for name, value in sorted(self.assignments.items())
            },
            "free": list(self.free),
            "constraints": self.constraint_strings(),
            "constant_only": self.is_constant_only(),
            "unresolved": self.unresolved,
        }


class _Solver:
    def __init__(self, advection: float, ztol: float, max_depth: int):
        self.A = advection
        self.ztol = ztol
        self.max_depth = max_depth

    def solve(self, eqs, assignments, constraints, depth) -> list[SolutionBranch]:
        state = self._propagate(list(eqs), dict(assignments), constraints)
        if state is None:
            return []
        eqs, assignments = state
        if not eqs:
            return [self._finalize(assignments, constraints, ())]
        if depth >= self.max_depth:
            return [self._finalize(assignments, constraints, tuple(eqs))]
        for rule in (self._split_on_speed, self._split_on_sech_amplitude,
                     self._split_on_univariate, self._assign_rational,
                     self._combine_pair):
            branches = rule(eqs, assignments, constraints, depth)
            if branches is not None:
                return branches
        return [self._finalize(assignments, constraints, tuple(eqs))]

    # -- propagation ---------------------------------------------------

    def _conflicts(self, name, value, constraints) -> bool:
        if not isinstance(value, float):
            return False
        for kind, *rest in constraints:
            if kind == _NE_VALUE and rest[0] == name and abs(value - rest[1]) <= self.ztol:
                return True
            if kind == _NE_ZERO and rest[0] == name and abs(value) <= self.ztol:
                return True
        return False

    def _propagate(self, eqs, assignments, constraints):
        while True:
            kept = []
            seen = set()
            for eq in eqs:
                cv = eq.constant_value()
                if cv is not None:
                    if abs(cv) > self.ztol:
                        return None
                    continue
                key = frozenset(eq.terms.items())
                if key not in seen:
                    seen.add(key)
                    kept.append(eq)
            eqs = kept
            assigned = None
            for eq in eqs:
                for name in SYMBOLS:
                    if name in assignments or eq.degree(name) != 1:
                        continue
                    coeff = eq.coefficient_poly(name, 1).constant_value()
                    if coeff is None or abs(coeff) <= self.ztol:
                        continue
                    rest = eq.coefficient_poly(name, 0)
                    value_poly = (-1.0 / coeff) * rest
                    cv = value_poly.constant_value()
                    value = cv if cv is not None else value_poly
                    if self._conflicts(name, value, constraints):
                        return None
                    assignments[name] = value
                    eqs = [e.substitute(name, value_poly if cv is None else cv) for e in eqs]
                    assigned = name
                    break
                if assigned:
                    break
            if not assigned:
                return eqs, assignments

    # -- splitting rules -----------------------------------------------

    def _split_on_speed(self, eqs, assignments, constraints, depth):
        if "v" in assignments:
            return None
        divisible = [eq.divide_linear("v", self.A) for eq in eqs]
        if not any(q is not None for q in divisible):
            return None
        branches = []
        if not self._conflicts("v", self.A, constraints):
            sub = {**assignments, "v": self.A}
            sub_eqs = [eq.substitute("v", self.A) for eq in eqs]
            branches += self.solve(sub_eqs, sub, constraints, depth + 1)
        reduced = []
        for eq, q in zip(eqs, divisible):
            while q is not None:
                eq = q
                q = eq.divide_linear("v", self.A)
            reduced.append(eq)
        branches += self.solve(
            reduced, assignments, constraints + ((_NE_VALUE, "v", self.A),), depth + 1
        )
        return branches

    def _split_on_sech_amplitude(self, eqs, assignments, constraints, depth):
        if "V1" in assignments:
            return None
        divisible = [eq.divide_symbol("V1") for eq in eqs]
        if not any(q is not None for q in divisible):
            return None
        branches = []
        if not self._conflicts("V1", 0.0, constraints):
            sub = {**assignments, "V1": 0.0}
            sub_eqs = [eq.substitute("V1", 0.0) for eq in eqs]
            branches += self.solve(sub_eqs, sub, constraints, depth + 1)
        reduced = []
        for eq, q in zip(eqs, divisible):
            while q is not None:
                eq = q
                q = eq.divide_symbol("V1")
            reduced.append(eq)
        branches += self.solve(
            reduced, assignments, constraints + ((_NE_ZERO, "V1"),), depth + 1
        )
        return branches

    def _split_on_univariate(self, eqs, assignments, constraints, depth):
        for eq in eqs:
            variables = eq.variables()
            if len(variables) != 1:
                continue
            name = variables.pop()
            deg = eq.degree(name)
            if deg < 1 or deg > 4:
                continue
            dense = [eq.coefficient_poly(name, k).constant_value() for k in range(deg, -1, -1)]
            roots = np.roots(dense)
            real_roots = []
            for root in roots:
                if abs(root.imag) <= 1e-9 * max(1.0, abs(root)):
                    value = float(root.real)
                    if not any(abs(value - r) <= 1e-9 * max(1.0, abs(value)) for r in real_roots):
                        real_roots.append(value)
            branches = []
            for value in sorted(real_roots):
                if self._conflicts(name, value, constraints):
                    continue
                sub = {**assignments, name: value}
                sub_eqs = [e.substitute(name, value) for e in eqs]
                branches += self.solve(sub_eqs, sub, constraints, depth + 1)
            return branches
        return None

    def _coeff_nonzero_under_constraints(self, coeff: Poly, constraints) -> bool:
        cv = coeff.constant_value()
        if cv is not None:
            return abs(cv) > self.ztol
        if (_NE_VALUE, "v", self.A) not in constraints:
            return False
        if coeff.variables() != {"v"}:
            return False
        p = coeff
        while True:
            cv = p.constant_value()
            if cv is not None:
                return abs(cv) > self.ztol
            q = p.divide_linear("v", self.A)
            if q is None:
                return False
            p = q

    def _assign_rational(self, eqs, assignments, constraints, depth):
        for i, eq in enumerate(eqs):
            for name in SYMBOLS:
                if name in assignments or eq.degree(name) != 1:
                    continue
                coeff = eq.coefficient_poly(name, 1)
                if not self._coeff_nonzero_under_constraints(coeff, constraints):
                    continue
                rest = eq.coefficient_poly(name, 0)
                value = _simplify_rational(-1.0 * rest, coeff)
                if self._conflicts(name, value, constraints):
                    return []
                new_assignments = {**assignments, name: value}
                new_eqs = []
                for j, other in enumerate(eqs):
                    if j == i:
                        continue
                    if isinstance(value, Rational):
                        new_eqs.append(
                            _substitute_rational_into_eq(other, name, value.num, value.den)
                        )
                    else:
                        new_eqs.append(other.substitute(name, value))
                return self.solve(new_eqs, new_assignments, constraints, depth + 1)
        return None

    def _combo_useful(self, p: Poly, eqs) -> bool:
        cv = p.constant_value()
        if cv is not None:
            return abs(cv) > self.ztol  # a contradiction is progress; a zero is not
        key = frozenset(p.terms.items())
        if any(frozenset(eq.terms.items()) == key for eq in eqs):
            return False
        if len(p.variables()) == 1:
            return True
        if p.divide_linear("v", self.A) is not None:
            return True
        return p.divide_symbol("V1") is not None

    def _combine_pair(self, eqs, assignments, constraints, depth):
        """Append a sum or difference of two equations when it exposes structure.

        Sound (any solution annihilates every linear combination); used as a
        last resort when no equation alone is divisible or solvable, e.g.
        when the integration constant is pinned numerically.
        """
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                for combo in (eqs[i] - eqs[j], eqs[i] + eqs[j]):
                    if combo.is_zero():
                        continue
                    if self._combo_useful(combo, eqs):
                        return self.solve(eqs + [combo], assignments, constraints, depth + 1)
        return None

    # -- finalization ----------------------------------------------------

    def _finalize(self, assignments, constraints, unresolved) -> SolutionBranch:
        resolved = dict(assignments)
        for _ in range(len(resolved) + 2):
            changed = False
            for name in list(resolved):
                value = resolved[name]
                hits = _value_variables(value) & resolved.keys()
                for other in sorted(hits):
                    value = _substitute_into_value(value, other, resolved[other])
                    changed = True
                if isinstance(value, Poly):
                    cv = value.constant_value()
                    if cv is not None:
                        value = cv
                resolved[name] = value
            if not changed:
                break
        free = tuple(name for name in SYMBOLS if name not in resolved)
        kept = tuple(
            con
            for con in constraints
            if con[1] in free or isinstance(resolved.get(con[1]), (Poly, Rational))
        )
        return SolutionBranch(
            assignments=resolved,
            free=free,
            constraints=kept,
            unresolved_equations=tuple(unresolved),
        )


def solve_system(
    system: CoefficientSystem,
    params=None,
    *,
    fixed: dict | None = None,
    max_depth: int = 24,
) -> list[SolutionBranch]:
    """All solution branches of a coefficient system.

    ``fixed`` optionally pins unknowns to numbers before solving (e.g.
    fixed={"C": 0.0} analyses the zero-integration-constant case).  When
    ``params`` is supplied its CFL number is cross-checked against the one
    the system was built with.  The result is the exact solution set of the
    system as given; if only constant waveforms solve it, that is what the
    branches say.
    """
    if params is not None and not math.isclose(params.sigma, system.sigma, rel_tol=1e-12):
        raise ValueError(
            f"params.sigma={params.sigma!r} differs from the system's sigma={system.sigma!r}"
        )
    eqs = list(system.equations)
    assignments: dict = {}
    if fixed:
        for name, value in fixed.items():
            if name not in SYMBOLS:
                raise KeyError(f"unknown symbol {name!r}")
            value = float(value)
            assignments[name] = value
            eqs = [eq.substitute(name, value) for eq in eqs]
    scale = max([1.0] + [eq.max_abs_coeff() for eq in eqs])
    solver = _Solver(advection=system.advection, ztol=1e-12 * scale, max_depth=max_depth)
    branches = solver.solve(eqs, assignments, (), 0)
    unique: dict[str, SolutionBranch] = {}
    for branch in branches:
        unique.setdefault(branch.describe(), branch)
    return [unique[key] for key in sorted(unique)]


def describe_solution_set(branches: list[SolutionBranch]) -> str:
    """One-line summary; says so explicitly when no nonconstant branch exists."""
    if not branches:
        return "empty solution set"
    if any(branch.unresolved for branch in branches):
        return "solution set partially unresolved"
    if all(branch.is_constant_only() for branch in branches):
        return "no nontrivial branch (constant waveforms only)"
    count = sum(not branch.is_constant_only() for branch in branches)
    return f"{count} nonconstant branch(es) among {len(branches)}"
