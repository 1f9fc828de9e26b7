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
  a rational assignment (first splitting on v = A, when no v != A
  constraint holds yet).

Every returned branch is a sound parameterization: substituting any
admissible values of its free symbols into the original system gives zero
residuals.  Branches that cannot be closed are returned flagged as
unresolved instead of being guessed at; a system with no nonconstant
branch is reported as such, never padded with a fabricated solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expansion import CoefficientSystem
from .poly import SYMBOLS, Poly, Rational

#: Splits a branch may take before it is returned unresolved.
_MAX_DEPTH = 24

#: The monomial of each unknown alone, in the order of SYMBOLS.
_UNITS = tuple(tuple(int(i == j) for i in range(len(SYMBOLS))) for j in range(len(SYMBOLS)))


def _substitute_rational_into_eq(eq: Poly, name: str, num: Poly, den: Poly) -> Poly:
    """Replace name by num/den in an equation and clear the denominator."""
    deg = eq.degree(name)
    out = Poly()
    for j in range(deg + 1):
        term = eq.coefficient_poly(name, j)
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


@dataclass(frozen=True)
class SolutionBranch:
    """One parameterized family of solutions.

    ``assignments`` map pinned unknowns to floats, Polys or Rationals in the
    free symbols; ``constraints`` are the (name, value) pairs of the
    inequations name != value the branch lives under.
    """

    assignments: dict
    free: tuple[str, ...]
    constraints: tuple[tuple[str, float], ...] = ()
    unresolved_equations: tuple[Poly, ...] = ()

    @property
    def unresolved(self) -> bool:
        return bool(self.unresolved_equations)

    def is_constant_only(self) -> bool:
        """True when the branch forces U1 = V1 = 0, i.e. only constant waveforms."""
        for name in ("U1", "V1"):
            value = self.assignments.get(name)
            # a constant assignment is always a float
            if not isinstance(value, float) or value != 0.0:
                return False
        return True

    def constraint_strings(self) -> list[str]:
        return sorted(f"{name} != {value!r}" for name, value in self.constraints)

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
            if all(abs(values[name] - value) >= margin
                   for name, value in self.constraints if name in values):
                break
        else:
            # guard: the redraw limit, for constraints no draw can meet
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
    def __init__(self, advection: float, ztol: float):
        self.A = advection
        self.ztol = ztol

    def solve(self, eqs, assignments, constraints, depth) -> list[SolutionBranch]:
        state = self._propagate(list(eqs), dict(assignments), constraints)
        if state is None:
            return []
        eqs, assignments = state
        if not eqs:
            return [self._finalize(assignments, constraints, ())]
        if depth >= _MAX_DEPTH:
            # guard: the depth bound; the branch is returned unresolved
            return [self._finalize(assignments, constraints, tuple(eqs))]
        for rule in (self._split_on_speed, self._split_on_sech_amplitude,
                     self._split_on_univariate, self._assign_rational,
                     self._combine_pair, self._split_for_rational):
            branches = rule(eqs, assignments, constraints, depth)
            if branches is not None:
                return branches
        return [self._finalize(assignments, constraints, tuple(eqs))]

    # -- propagation ---------------------------------------------------

    def _conflicts(self, name, value: float, constraints) -> bool:
        """Guard: whether a numeric value breaks one of the branch's inequations."""
        return any(
            con_name == name and abs(value - con_value) <= self.ztol
            for con_name, con_value in constraints
        )

    def _propagate(self, eqs, assignments, constraints):
        while True:
            kept = []
            seen = []  # the terms of the kept equations; dicts compare by content
            for eq in eqs:
                cv = eq.constant_value()
                if cv is not None:
                    if abs(cv) > self.ztol:
                        return None
                    continue
                if eq.terms not in seen:
                    seen.append(eq.terms)
                    kept.append(eq)
            eqs = kept
            assigned = None
            for eq in eqs:
                # the degree in each symbol, from one pass over the monomials; a
                # numeric coefficient of a symbol needs the symbol's own monomial
                for name, unit, degree in zip(SYMBOLS, _UNITS, map(max, zip(*eq.terms))):
                    if degree != 1 or name in assignments or unit not in eq.terms:
                        continue
                    coeff = eq.coefficient_poly(name, 1).constant_value()
                    if coeff is None or abs(coeff) <= self.ztol:
                        continue
                    rest = eq.coefficient_poly(name, 0)
                    value_poly = (-1.0 / coeff) * rest
                    cv = value_poly.constant_value()
                    if cv is not None and self._conflicts(name, cv, constraints):
                        return None  # guard: the pinned value breaks an inequation
                    assignments[name] = value_poly if cv is None else cv
                    eqs = [e.substitute(name, assignments[name]) for e in eqs]
                    assigned = name
                    break
                if assigned:
                    break
            if not assigned:
                return eqs, assignments

    # -- splitting rules -----------------------------------------------

    def _branch_on_speed(self, eqs, reduced, assignments, constraints, depth):
        """The branches of eqs at v = A, then those of reduced under v != A."""
        branches = []
        if not self._conflicts("v", self.A, constraints):
            sub = {**assignments, "v": self.A}
            sub_eqs = [eq.substitute("v", self.A) for eq in eqs]
            branches += self.solve(sub_eqs, sub, constraints, depth + 1)
        branches += self.solve(reduced, assignments, constraints + (("v", self.A),), depth + 1)
        return branches

    def _split_on_speed(self, eqs, assignments, constraints, depth):
        divisible = [eq.divide_linear("v", self.A) for eq in eqs]
        if not any(q is not None for q in divisible):
            return None
        reduced = []
        for eq, q in zip(eqs, divisible):
            while q is not None:
                eq = q
                q = eq.divide_linear("v", self.A)
            reduced.append(eq)
        return self._branch_on_speed(eqs, reduced, assignments, constraints, depth)

    def _split_on_sech_amplitude(self, eqs, assignments, constraints, depth):
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
        branches += self.solve(reduced, assignments, constraints + (("V1", 0.0),), depth + 1)
        return branches

    def _split_on_univariate(self, eqs, assignments, constraints, depth):
        for eq in eqs:
            variables = eq.variables()
            if len(variables) != 1:
                continue
            name = variables.pop()
            deg = eq.degree(name)
            if deg > 4:
                continue  # guard: np.roots is trusted up to quartics only
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
                    continue  # guard: the root breaks an inequation
                sub = {**assignments, name: value}
                sub_eqs = [e.substitute(name, value) for e in eqs]
                branches += self.solve(sub_eqs, sub, constraints, depth + 1)
            return branches
        return None

    def _is_speed_power(self, coeff: Poly) -> bool:
        """Whether coeff is a nonzero constant times a power of (v - A).

        A constant coefficient never gets here: propagation has pinned every
        unknown whose coefficient is a constant above the tolerance.
        """
        if coeff.variables() != {"v"}:
            return False  # guard: only a polynomial in v alone can be a power of (v - A)
        while True:
            coeff = coeff.divide_linear("v", self.A)
            if coeff is None:
                return False  # guard: a factor other than (v - A) may vanish
            cv = coeff.constant_value()
            if cv is not None:
                return abs(cv) > self.ztol

    def _assign_rational(self, eqs, assignments, constraints, depth):
        for i, eq in enumerate(eqs):
            for name in SYMBOLS:
                if name in assignments or eq.degree(name) != 1:
                    continue
                coeff = eq.coefficient_poly(name, 1)
                if ("v", self.A) not in constraints or not self._is_speed_power(coeff):
                    continue
                num = -1.0 * eq.coefficient_poly(name, 0)
                new_eqs = [
                    _substitute_rational_into_eq(other, name, num, coeff)
                    for j, other in enumerate(eqs)
                    if j != i
                ]
                new_assignments = {**assignments, name: Rational(num, coeff)}
                return self.solve(new_eqs, new_assignments, constraints, depth + 1)
        return None

    def _combo_useful(self, p: Poly, eqs) -> bool:
        cv = p.constant_value()
        if cv is not None:
            # guard: a zero combination is no progress; a nonzero one is a contradiction
            return abs(cv) > self.ztol
        if any(eq.terms == p.terms for eq in eqs):
            return False  # guard: an equation already present is no progress
        if len(p.variables()) == 1:
            return True
        if p.divide_linear("v", self.A) is not None:
            return True
        return p.divide_symbol("V1") is not None

    def _combine_pair(self, eqs, assignments, constraints, depth):
        """Append the difference of two equations when it exposes structure.

        Sound (any solution annihilates every linear combination); used as a
        last resort when no equation alone is divisible or solvable, e.g.
        when the integration constant is pinned numerically.
        """
        for i in range(len(eqs)):
            for j in range(i + 1, len(eqs)):
                combo = eqs[i] - eqs[j]
                if self._combo_useful(combo, eqs):
                    return self.solve(eqs + [combo], assignments, constraints, depth + 1)
        return None

    def _split_for_rational(self, eqs, assignments, constraints, depth):
        """Split on v = A when an unknown is affine with a power of (v - A) as coefficient.

        The last resort for an equation such as V0 (A - v) = C with C pinned
        to a nonzero number: no factor divides out, and only under v != A
        does ``_assign_rational`` pin the unknown.  A match never holds that
        constraint already, or ``_assign_rational`` would have taken it.
        """
        for eq in eqs:
            for name in SYMBOLS:
                if (name not in assignments and eq.degree(name) == 1
                        and self._is_speed_power(eq.coefficient_poly(name, 1))):
                    return self._branch_on_speed(eqs, eqs, assignments, constraints, depth)
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
                    # a Poly: in both encodings no symbol of a Rational is assigned later
                    value = value.substitute(other, resolved[other])
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
            if con[0] in free or isinstance(resolved.get(con[0]), (Poly, Rational))
        )
        return SolutionBranch(
            assignments=resolved,
            free=free,
            constraints=kept,
            unresolved_equations=tuple(unresolved),
        )


def solve_system(system: CoefficientSystem, *, fixed: dict | None = None) -> list[SolutionBranch]:
    """All solution branches of a coefficient system.

    The domain is the two encodings the package builds: the derived system
    of ``collect_system`` and the condensed one of
    ``condensed_coefficient_system``; the case analysis takes only the paths
    their equations need.  ``fixed`` optionally pins unknowns to numbers
    before solving (e.g. fixed={"C": 0.0} analyses the zero-integration-
    constant case).  The result is the exact solution set of the system as
    given; if only constant waveforms solve it, that is what the branches
    say, and a branch the case analysis cannot close is returned flagged
    unresolved.
    """
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
    solver = _Solver(advection=system.advection, ztol=1e-12 * scale)
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
