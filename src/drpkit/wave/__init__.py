"""Traveling-wave reduction, exponential-polynomial algebra and its solver."""

from .ansatz import HyperbolicAnsatz, KinkSolution, closed_form_kink
from .expansion import (
    CoefficientSystem,
    CondensedSystemReport,
    ExpPolynomial,
    collect_system,
    condensed_coefficient_system,
    evaluate_system,
    substitute_ansatz,
    verify_condensed_system,
)
from .poly import SYMBOLS, Poly, Rational
from .reduction import TravelingWaveODE, reduce_to_ode, residual
from .solver import SolutionBranch, describe_solution_set, solve_system

__all__ = [
    "HyperbolicAnsatz",
    "KinkSolution",
    "closed_form_kink",
    "CoefficientSystem",
    "CondensedSystemReport",
    "ExpPolynomial",
    "collect_system",
    "condensed_coefficient_system",
    "evaluate_system",
    "substitute_ansatz",
    "verify_condensed_system",
    "SYMBOLS",
    "Poly",
    "Rational",
    "TravelingWaveODE",
    "reduce_to_ode",
    "residual",
    "SolutionBranch",
    "describe_solution_set",
    "solve_system",
]
