"""ellsym: symbol calculus and cancellation conditions for elliptic systems.

Exact rational core (polynomials, annihilators, subspace intersections),
numerical sphere quadrature for the moment map, and FFT-based witness
experiments for the associated L^1-data estimates.
"""

__version__ = "0.1.0"

import importlib

from .conditions import (
    CCResult,
    ConditionReport,
    EllipticityVerdict,
    LeftInverseFamily,
    WeakCancellationResult,
    check_cc,
    check_weak_cancellation,
    image_intersection,
    is_elliptic,
    kernel_intersection,
    left_inverse_family,
    potential_field,
    run_full_check,
)
from .dsl import format_operator, format_system, parse_operator, parse_system
from .operators import (
    OperatorSpec,
    SystemSpec,
    annihilator,
    homogenize,
)
from .poly import MatrixPolynomial, Polynomial, monomials_of_degree
from .ratlinalg import Subspace

# the numeric layer (numpy): each name is imported and bound on first use (PEP 562)
_NUMERIC = dict.fromkeys(("QuadratureRule", "build_rule", "moment_map", "surface_area"), "quadrature")
_NUMERIC |= dict.fromkeys(("Grid", "WitnessConfig", "WitnessResult", "blowup_experiment",
                           "constrain_field", "mollified_dirac", "solve_system"), "witness")


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)
    return globals()[name]


__all__ = [
    "CCResult",
    "ConditionReport",
    "EllipticityVerdict",
    "Grid",
    "LeftInverseFamily",
    "MatrixPolynomial",
    "OperatorSpec",
    "Polynomial",
    "QuadratureRule",
    "Subspace",
    "SystemSpec",
    "WeakCancellationResult",
    "WitnessConfig",
    "WitnessResult",
    "annihilator",
    "blowup_experiment",
    "build_rule",
    "check_cc",
    "check_weak_cancellation",
    "constrain_field",
    "format_operator",
    "format_system",
    "homogenize",
    "image_intersection",
    "is_elliptic",
    "kernel_intersection",
    "left_inverse_family",
    "moment_map",
    "mollified_dirac",
    "monomials_of_degree",
    "parse_operator",
    "parse_system",
    "potential_field",
    "run_full_check",
    "solve_system",
    "surface_area",
]
