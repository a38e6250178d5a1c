"""Quadrature on the unit sphere S^{n-1} and the moment map of a symbol.

Rules are antithetic: the sphere nodes come in ± pairs with equal weights,
and a rule stores one node of each pair. Moment integrands are rational
with homogeneous numerator/denominator, so their values at -ξ are the values
at ξ times a known sign; the pair sum exploits that to make odd integrands
cancel bitwise, not just to rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NearSingularSymbolError,
    OrderTooLowError,
    QuadratureNotConvergedError,
)
from .poly import monomial_table, monomials_of_degree, multinomial

DET_FLOOR = 1e-12  # relative det(A*A) floor before ellipticity is suspect
MAX_RULE_NODES = 2**21  # sphere nodes per rule: S² through level 10
SAMPLE_NODES = 2**15  # sphere nodes of the sampler and of a refinement's first rule, at most


def surface_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def rule_size(n, level):
    """Sphere nodes of `build_rule(n, level)`: 2·m^(n-1), m as in `_sphere`."""
    return 2 ** ((n - 1) * level + (n > 2))


def finest_level(n, nodes):
    """The finest level whose rule has at most `nodes` sphere nodes, or 0."""
    return next(level for level in itertools.count() if rule_size(n, level + 1) > nodes)


@dataclass
class QuadratureRule:
    """One node of each antithetic pair ±ξ on S^{n-1}, with the weight of each
    of the two; the rule covers count = 2·len(nodes) sphere nodes."""

    n: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self):
        return 2 * len(self.weights)


def build_rule(n, level):
    """Antithetic rule at a refinement level, one node per ± pair: for n=2,
    2^level equispaced angles (spectral accuracy for smooth integrands); for
    n>=3, the Gauss product rule of `_sphere` with m = 2^level, exact to degree
    2m - 1 (Stroud, Approximate Calculation of Multiple Integrals, 1971). A
    rule over MAX_RULE_NODES sphere nodes is refused before any allocation."""
    if n < 2:
        raise InvalidArgumentError("sphere rules need n >= 2")
    min_level = 2 if n == 2 else 1  # the circle rule needs at least 4 nodes
    if level < min_level:
        raise InvalidArgumentError(
            f"quadrature level must be >= {min_level} for n={n}, got {level}"
        )
    count = rule_size(n, level)
    if count > MAX_RULE_NODES:
        raise InvalidArgumentError(
            f"quadrature level {level} on S^{n - 1} needs {count} nodes, over the "
            f"budget of {MAX_RULE_NODES}"
        )
    nodes, weights = _sphere(n, 2 ** (level - (n == 2)), half=True)
    # renormalize away the last-digit drift so each node is unit to 1e-14
    return QuadratureRule(n, level, nodes / np.linalg.norm(nodes, axis=1, keepdims=True), weights)


def sample_nodes(n):
    """One node of each ± pair of at most SAMPLE_NODES sphere nodes: the finest
    product rule that fits while that is level 2 or finer (n ≤ 8; level 7 on S²,
    4 on S³, 3 on S⁴, 2 on S⁵ to S⁷). Above, the level-1 nodes share one sorted
    |ξ_i| pattern, and from n = 16 on are too many: SAMPLE_NODES/2 normalized
    Gaussian points of a fixed seed, uniform on the sphere (Muller, Comm. ACM 2
    (1959))."""
    level = finest_level(n, SAMPLE_NODES)
    if level >= 2:
        return build_rule(n, level).nodes
    g = np.random.default_rng(0).standard_normal((SAMPLE_NODES // 2, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _sphere(n, m, half=False):
    """Product rule on S^{n-1} ∋ (√(1-t²)·ω', t), dσ = (1-t²)^((n-3)/2) dt dσ':
    m Gauss–Gegenbauer nodes t times the rule on S^{n-2}, down to a circle of
    2m equispaced nodes. `half` keeps one node of each ± pair: t > 0, or on
    the circle the angles in [0, π)."""
    if n == 2:
        angles = 2.0 * math.pi * np.arange(m if half else 2 * m) / (2 * m)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1), np.full(len(angles), math.pi / m)
    t, w = _gauss_gegenbauer(m, (n - 2) / 2)
    if half:
        t, w = t[t > 0], w[t > 0]
    inner, inner_w = _sphere(n - 1, m)
    nodes = np.sqrt(1.0 - t**2)[:, None, None] * np.pad(inner, ((0, 0), (0, 1)))
    nodes[:, :, -1] = t[:, None]
    return nodes.reshape(-1, n), np.outer(w, inner_w).ravel()


def _gauss_gegenbauer(m, lam):
    """m-point Gauss rule for the weight (1-t²)^(λ-1/2) on [-1, 1] by Golub–Welsch
    (Math. Comp. 23 (1969)): the nodes are the eigenvalues of the Jacobi matrix,
    the weights μ₀·v₀²; mirrored so that the rule is exactly symmetric."""
    j = np.arange(1, m)
    off = 0.5 * np.sqrt(j * (j + 2 * lam - 1) / ((j + lam) * (j + lam - 1)))
    t, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1) * v[0] ** 2
    return (t - t[::-1]) / 2, (w + w[::-1]) / 2


def _require_moments(a):
    """Raise unless k >= n; `require_elliptic` refuses det G ≡ 0."""
    k = a.order
    if k < a.space_dim:
        raise OrderTooLowError(
            f"moment map needs order k >= n, got k={k}, n={a.space_dim}"
        )


def tensor_basis(n, order):
    """Monomial basis of the symmetric tensor power, with multiplicity weights.

    The tensor v ⊗ ξ ⊗ ... ⊗ ξ is stored by components (a, γ) over monomials
    γ of the given order; each carries weight sqrt(order!/γ!) so Euclidean
    norms of the stored coordinates equal tensor (Frobenius) norms.
    """
    gammas = monomials_of_degree(n, order)
    weights = np.array([math.sqrt(multinomial(order, g)) for g in gammas])
    return gammas, weights


def _pseudoinverse_at(a, nodes):
    """A†(ξ) = G(ξ)⁻¹A(ξ)ᵀ at the pair representatives, by one batched solve.

    A(-ξ) = (-1)^k A(ξ), so the values at -ξ need no evaluation. The
    near-singular test compares det G(ξ) with its largest value over the nodes.
    """
    sym = a.symbol_values(nodes)
    sym_t = sym.transpose(0, 2, 1)
    gram = sym_t @ sym
    det = np.abs(np.linalg.det(gram))
    scale = det.max()
    if scale == 0.0 or det.min() < DET_FLOOR * scale:
        raise NearSingularSymbolError(
            "det(A*A) nearly vanishes at a quadrature node; the operator "
            "may not be elliptic"
        )
    return np.linalg.solve(gram, sym_t)


def moments_for_vectors(a, vectors, rule):
    """Moment integrals ∫ A†(ξ) e ⊗^{k-n} ξ for each vector e.

    The ξ^γ come from the `monomial_table` that `symbol_values` also uses.
    Returns (values, scales): values has one row per input vector holding the
    weighted components of the symmetric tensor; scales holds per-vector
    maxima of the integrand norm over the nodes (the zero-test reference).
    """
    _require_moments(a)
    n = a.space_dim
    adag = _pseudoinverse_at(a, rule.nodes)
    gammas, tweights = tensor_basis(n, a.order - n)
    xi_pow = monomial_table(rule.nodes, np.array(gammas))
    # A†(-ξ) = (-1)^k A†(ξ) and (-ξ)^γ = (-1)^(k-n) ξ^γ: odd n cancels bitwise
    total_sign = -1 if n % 2 else 1
    values = []
    scales = []
    for e in vectors:
        evec = np.array([float(x) for x in e])
        w = adag @ evec  # (m, V)
        integrand = w[:, :, None] * xi_pow[:, None, :] * tweights[None, None, :]
        pair = integrand * (1 + total_sign)  # F(ξ) + F(-ξ) on each pair
        acc = np.tensordot(rule.weights, pair, axes=(0, 0))
        values.append(acc.reshape(-1))
        node_norms = np.sqrt((integrand**2).sum(axis=(1, 2)))
        scales.append(float(node_norms.max()) if len(node_norms) else 0.0)
    return np.array(values), np.array(scales)


@dataclass
class MomentMap:
    """The linear map e ↦ M e from E into V ⊙^{k-n} R^n, with error data."""

    n: int
    k: int
    source_dim: int
    v_dim: int
    gammas: list
    tensor_weights: np.ndarray
    matrix: np.ndarray  # (v_dim * len(gammas)) x source_dim
    error_estimate: float
    integrand_scale: float
    levels: tuple
    node_counts: tuple

    def to_json(self):
        return {
            "order": self.k,
            "space_dim": self.n,
            "tensor_monomials": [list(g) for g in self.gammas],
            "tensor_weights": [float(w) for w in self.tensor_weights],
            "matrix": [[float(x) for x in row] for row in self.matrix],
            "error_estimate": float(self.error_estimate),
            "integrand_scale": float(self.integrand_scale),
            "levels": list(self.levels),
            "node_counts": list(self.node_counts),
        }


def moment_map(a, rule):
    """Assemble M on the standard basis of E from `rule` and the next level:
    one step of the refinement in converged_moments, with no tolerance. Like
    `annihilator`, it refuses an A that `check` reports as not elliptic."""
    _require_moments(a)
    a.require_elliptic()
    vals, scales, err, rules = _refine(
        a, np.eye(a.target_dim), rule, rel_tol=math.inf, max_level=rule.level + 1
    )
    n, k = a.space_dim, a.order
    gammas, tweights = tensor_basis(n, k - n)
    return MomentMap(
        n=n,
        k=k,
        source_dim=a.target_dim,
        v_dim=a.source_dim,
        gammas=gammas,
        tensor_weights=tweights,
        matrix=vals.T,
        error_estimate=err,
        integrand_scale=float(scales.max()),
        levels=tuple(r.level for r in rules),
        node_counts=tuple(r.count for r in rules),
    )


def converged_moments(a, vectors, base_level=3, rel_tol=1e-8, max_level=9):
    """Refine until two successive levels agree to rel_tol (relative to the
    integrand scale times the sphere area); returns the finer values, their
    per-vector scales, the error and the two rules compared. The first level is
    base_level, or coarser where that rule has more than SAMPLE_NODES nodes
    (n ≥ 6) or leaves no finer level within MAX_RULE_NODES (n ≥ 8)."""
    _require_moments(a)  # before any rule is built
    n = a.space_dim
    top = finest_level(n, MAX_RULE_NODES)
    base = max(1, min(base_level, finest_level(n, SAMPLE_NODES), top - 1))
    return _refine(a, vectors, build_rule(n, base), rel_tol, max_level)


def _refine(a, vectors, rule, rel_tol, max_level):
    """The level loop behind every moment: start at `rule`, stop at the first
    level that agrees with the one below it, or raise after max_level or at
    the last level within MAX_RULE_NODES."""
    area = surface_area(a.space_dim)
    vals, _ = moments_for_vectors(a, vectors, rule)
    top = min(max_level, finest_level(rule.n, MAX_RULE_NODES))
    while rule.level < top:
        fine = build_rule(rule.n, rule.level + 1)
        fine_vals, scales = moments_for_vectors(a, vectors, fine)
        err = float(np.abs(fine_vals - vals).max())
        if err <= rel_tol * max(area * float(scales.max()), 1e-300):
            return fine_vals, scales, err, (rule, fine)
        rule, vals = fine, fine_vals
    over = f", the finest within the budget of {MAX_RULE_NODES} nodes" if top < max_level else ""
    raise QuadratureNotConvergedError(
        f"moment quadrature did not converge by level {rule.level}{over}"
    )
