"""Sparse multivariate polynomials over the traveling-wave unknowns.

The unknown set is fixed: the ansatz amplitudes U1, V1, the offset V0, the
wave speed v and the integration constant C.  Monomials are exponent
tuples in that order; coefficients are floats.  Total degree stays at or
below four for every system built here, so nothing fancier than dict
arithmetic is needed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping

from ..errors import PowerOverflowError

SYMBOLS = ("U1", "V1", "V0", "v", "C")
_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
# the exponent of each symbol in a monomial
_EXPONENT = tuple(operator.itemgetter(i) for i in range(len(SYMBOLS)))
_ZERO_MONO = (0,) * len(SYMBOLS)

#: Magnitude below which a numerically produced constant counts as zero.
COEFF_TOL = 1e-12


def _check_symbol(name: str) -> int:
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown symbol {name!r}; expected one of {SYMBOLS}") from None


class Poly:
    """Polynomial with float coefficients over the fixed unknowns."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], float] | None = None):
        pruned: dict[tuple[int, ...], float] = {}
        if terms:
            for mono, coeff in terms.items():
                c = float(coeff)
                if c != 0.0:
                    pruned[tuple(mono)] = c
        self.terms = pruned

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, ...], float]) -> "Poly":
        """Take over a dict of tuple monomials to floats, dropping exact zeros only.

        For the arithmetic below, whose keys are tuples and whose values are
        floats already; it skips the coercion of the public constructor.
        The caller hands the dict over and does not change it afterwards.
        """
        out = cls.__new__(cls)
        if 0.0 in terms.values():
            terms = {mono: c for mono, c in terms.items() if c != 0.0}
        out.terms = terms
        return out

    @classmethod
    def const(cls, value: float) -> "Poly":
        return cls._trusted({_ZERO_MONO: float(value)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        idx = _check_symbol(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(SYMBOLS)))
        return cls({mono: 1.0})

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, float)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for mono, coeff in other.terms.items():
            out[mono] = get(mono, 0.0) + coeff
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, Poly):
            right = other.terms
        elif isinstance(other, (int, float)):
            # the terms of Poly.const(other), without building the Poly
            k = float(other)
            right = {_ZERO_MONO: k} if k != 0.0 else {}
        else:
            return NotImplemented
        left = self.terms
        # by a constant: the loop below with every monomial met once, so
        # each coefficient is 0.0 + c1 * c2, in the same order
        if len(right) == 1 and _ZERO_MONO in right:
            k = right[_ZERO_MONO]
            return Poly._trusted({m: 0.0 + c * k for m, c in left.items()})
        if len(left) == 1 and _ZERO_MONO in left:
            k = left[_ZERO_MONO]
            return Poly._trusted({m: 0.0 + k * c for m, c in right.items()})
        out: dict[tuple[int, ...], float] = {}
        get = out.get
        add = operator.add
        right = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                mono = tuple(map(add, m1, m2))
                out[mono] = get(mono, 0.0) + c1 * c2
        return Poly._trusted(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self, tol: float = 0.0) -> bool:
        if not self.terms:
            return True
        if tol > 0.0:
            return all(abs(c) <= tol for c in self.terms.values())
        return False

    def constant_value(self) -> float | None:
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return 0.0
        if len(self.terms) == 1 and _ZERO_MONO in self.terms:
            return self.terms[_ZERO_MONO]
        return None

    def variables(self) -> set[str]:
        out = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e > 0:
                    out.add(SYMBOLS[i])
        return out

    def degree(self, name: str | None = None) -> int:
        """Total degree, or the degree in one symbol; zero poly has degree -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(mono) for mono in self.terms)
        idx = _check_symbol(name)
        return max(mono[idx] for mono in self.terms)

    def coefficient_poly(self, name: str, power: int) -> "Poly":
        """Collect the coefficient of name**power as a polynomial in the rest."""
        idx = _check_symbol(name)
        # monomials with the same power of name reduce to distinct monomials
        return Poly._trusted({
            mono[:idx] + (0,) + mono[idx + 1:]: coeff
            for mono, coeff in self.terms.items()
            if mono[idx] == power
        })

    def substitute(self, name: str, value) -> "Poly":
        """Replace one symbol by a number or another Poly.

        A polynomial free of the symbol is returned itself: the terms would
        come out the same, and no Poly's terms change after it is built.
        """
        idx = _check_symbol(name)
        if not any(map(_EXPONENT[idx], self.terms)):
            return self
        # group by power so repl**k is computed once per power; within one
        # power the reduced monomials are distinct
        powers: dict[int, dict[tuple[int, ...], float]] = {}
        for mono, coeff in self.terms.items():
            k = mono[idx]
            group = powers.get(k)
            if group is None:
                group = powers[k] = {}
            group[mono[:idx] + (0,) + mono[idx + 1:]] = coeff
        if not isinstance(value, Poly):
            c = float(value)
            if math.isfinite(c):
                return Poly._trusted(_substitute_number(powers, c))
            value = Poly.const(c)
        result = Poly()
        acc = Poly.const(1.0)
        last = 0
        for k in sorted(powers):
            for _ in range(k - last):
                acc = acc * value
            last = k
            result = result + Poly._trusted(powers[k]) * acc
        return result

    def evaluate(self, values: Mapping[str, float]) -> float:
        total = 0.0
        for mono, coeff in sorted(self.terms.items()):
            term = coeff
            for i, e in enumerate(mono):
                if e:
                    value = values[SYMBOLS[i]]
                    try:
                        term *= value**e
                    except OverflowError:
                        raise PowerOverflowError(SYMBOLS[i], value, e) from None
            total += term
        return total

    def divide_linear(self, name: str, root: float) -> "Poly | None":
        """Exact quotient by (name - root), or None if the remainder is nonzero.

        Synthetic division treating the polynomial as univariate in ``name``
        with Poly coefficients.  Remainders are compared against zero with a
        small tolerance relative to the coefficient scale.
        """
        idx = _check_symbol(name)
        powers = list(map(_EXPONENT[idx], self.terms))
        deg = max(powers, default=-1)
        if deg < 1:
            return None if self.terms else Poly()
        # coefficient_poly(name, k) for every k, from one pass over the terms
        coeffs: list[dict[tuple[int, ...], float]] = [{} for _ in range(deg + 1)]
        for (mono, coeff), k in zip(self.terms.items(), powers):
            coeffs[k][mono[:idx] + (0,) + mono[idx + 1:]] = coeff
        quot: list[Poly] = [Poly()] * deg
        carry = Poly._trusted(coeffs[deg])
        for k in range(deg - 1, -1, -1):
            quot[k] = carry
            carry = Poly._trusted(coeffs[k]) + carry * root
        scale = max(map(abs, self.terms.values()), default=1.0)
        if not carry.is_zero(tol=COEFF_TOL * max(1.0, scale, abs(root))):
            return None
        # the sum of quot[k] * name**k: no quot[k] holds name, so each k's
        # terms shift to their own power of it and none collide
        out: dict[tuple[int, ...], float] = {}
        for k in range(deg):
            for mono, coeff in quot[k].terms.items():
                out[mono[:idx] + (k,) + mono[idx + 1:]] = coeff
        return Poly._trusted(out)

    def divide_symbol(self, name: str) -> "Poly | None":
        """Exact quotient by ``name`` when every term contains it, else None."""
        idx = _check_symbol(name)
        if not self.terms:
            return Poly()
        out = {}
        for mono, coeff in self.terms.items():
            if mono[idx] < 1:
                return None
            out[mono[:idx] + (mono[idx] - 1,) + mono[idx + 1:]] = coeff
        return Poly._trusted(out)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        return f"Poly({self.as_string()})"

    def as_string(self) -> str:
        """Canonical deterministic rendering, e.g. '-0.5*v^2*V1 + 1.2'."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            factors = [
                SYMBOLS[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e > 0
            ]
            if factors:
                body = "*".join(factors)
                if coeff == 1.0:
                    parts.append(body)
                elif coeff == -1.0:
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{coeff!r}*{body}")
            else:
                parts.append(repr(coeff))
        rendered = " + ".join(parts).replace("+ -", "- ")
        return rendered


def _substitute_number(
    powers: dict[int, dict[tuple[int, ...], float]], c: float
) -> dict[tuple[int, ...], float]:
    """The terms of sum_k powers[k] * c**k for a finite c, in ascending k.

    The float operations and their order are those of the Poly path with
    Poly.const(c): c**k as the product a_k = a_{k-1} * c from a_0 = 1.0, a
    zero term skipped, and exact zeros pruned after each power.  A zero a_k
    is the empty Poly there, and a finite c keeps it zero, so nothing from
    that power on is added (an infinite coefficient times zero is not NaN).
    """
    out: dict[tuple[int, ...], float] = {}
    get = out.get
    a = 1.0
    last = 0
    for k in sorted(powers):
        for _ in range(k - last):
            a = a * c
        last = k
        if a == 0.0:
            break
        for mono, coeff in powers[k].items():
            t = coeff * a
            if t != 0.0:
                out[mono] = get(mono, 0.0) + t
        if 0.0 in out.values():
            out = {mono: v for mono, v in out.items() if v != 0.0}
            get = out.get
    return out


class Rational:
    """Quotient of two Polys; denominators are guaranteed nonzero by the caller."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den

    def evaluate(self, values: Mapping[str, float]) -> float:
        den = self.den.evaluate(values)
        if den == 0.0 or not math.isfinite(den):
            raise ZeroDivisionError("rational assignment evaluated at a pole")
        return self.num.evaluate(values) / den

    def variables(self) -> set[str]:
        return self.num.variables() | self.den.variables()

    def as_string(self) -> str:
        return f"({self.num.as_string()}) / ({self.den.as_string()})"

    def __repr__(self):
        return f"Rational({self.as_string()})"
