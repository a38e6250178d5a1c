"""Quadrature on the unit sphere S^{n-1} and the moment map of a symbol.

Rules are antithetic: the sphere nodes come in ± pairs with equal weights,
and a rule stores one node of each pair. Moment integrands are rational
with homogeneous numerator/denominator, so their values at -ξ are the values
at ξ times a known sign; the pair sum exploits that to make odd integrands
cancel bitwise, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NearSingularSymbolError,
    NotHomogeneousError,
    OrderTooLowError,
    QuadratureNotConvergedError,
)
from .poly import monomial_table, monomials_of_degree, multinomial

DET_FLOOR = 1e-12  # relative det(A*A) floor before ellipticity is suspect
MAX_RULE_NODES = 2**22  # sphere nodes per rule: S² through level 10


def surface_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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
    """Antithetic rule at a refinement level, one node per ± pair.

    n=2: 2^level equispaced angles (spectral accuracy for smooth integrands);
    n=3: Gauss-Legendre in cos(theta) x uniform in phi (exact for polynomial
    degree up to the node counts); n>=4: mirrored low-discrepancy (Halton)
    nodes with equal weights. A rule over MAX_RULE_NODES sphere nodes is
    refused before anything is allocated.
    """
    if n < 2:
        raise InvalidArgumentError("sphere rules need n >= 2")
    min_level = 2 if n == 2 else 1  # the circle rule needs at least 4 nodes
    if level < min_level:
        raise InvalidArgumentError(
            f"quadrature level must be >= {min_level} for n={n}, got {level}"
        )
    # pairs: half of 2^level, of 2^level·2^(level+1), or of 2^(level+5) sphere nodes
    h = 2 ** (level - 1) if n == 2 else 2 ** (2 * level) if n == 3 else 2 ** (level + 4)
    if 2 * h > MAX_RULE_NODES:
        raise InvalidArgumentError(
            f"quadrature level {level} on S^{n - 1} needs {2 * h} nodes, over the "
            f"budget of {MAX_RULE_NODES}"
        )
    if n == 2:
        angles = 2.0 * math.pi * np.arange(h) / (2 * h)
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        weights = np.full(h, 2.0 * math.pi / (2 * h))
    elif n == 3:
        nz = 2**level
        nphi = 2 ** (level + 1)
        z, wz = np.polynomial.legendre.leggauss(nz)
        pos = z > 0
        zpos, wpos = z[pos], wz[pos]
        phis = 2.0 * math.pi * np.arange(nphi) / nphi
        r = np.sqrt(1.0 - zpos**2)
        nodes = np.stack(
            [
                np.outer(r, np.cos(phis)).ravel(),
                np.outer(r, np.sin(phis)).ravel(),
                np.outer(zpos, np.ones(nphi)).ravel(),
            ],
            axis=1,
        )
        weights = np.outer(wpos, np.full(nphi, 2.0 * math.pi / nphi)).ravel()
    else:
        from statistics import NormalDist

        inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[float])
        g = inv_cdf(_halton(n, h))
        nodes = g / np.linalg.norm(g, axis=1, keepdims=True)
        weights = np.full(h, surface_area(n) / (2 * h))
    # renormalize away the last-digit drift so each node is unit to 1e-14
    return QuadratureRule(n, level, nodes / np.linalg.norm(nodes, axis=1, keepdims=True), weights)


def _halton(n, h):
    """Unscrambled Halton points (Halton, Numer. Math. 2 (1960)) of indices 1..h
    (0 is the corner u = 0) in the first n primes, all below n² + 3: the base-p
    digits of each index mirrored about the radix point (radical inverse)."""
    primes = [p for p in range(2, n * n + 3) if all(p % q for q in range(2, p))][:n]
    u = np.zeros((h, n))
    for d, p in enumerate(primes):
        i, f = np.arange(1, h + 1), 1.0
        while i.any():
            f /= p
            u[:, d] += f * (i % p)
            i //= p
    return u


def _require_moments(a):
    """Raise unless the moment map is defined: det G ≢ 0 and k >= n."""
    k = a.order
    if a.degenerate:
        raise NotHomogeneousError("det(A*A) is not a nonzero homogeneous polynomial")
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
    """Refine from base_level until two successive levels agree to rel_tol
    (relative to the integrand scale times the sphere area); returns the finer
    values, their per-vector scales, the error and the two rules compared."""
    _require_moments(a)  # before any rule is built
    return _refine(a, vectors, build_rule(a.space_dim, base_level), rel_tol, max_level)


def _refine(a, vectors, rule, rel_tol, max_level):
    """The level loop behind every moment: start at `rule`, stop at the first
    level that agrees with the one below it, or raise after max_level."""
    area = surface_area(a.space_dim)
    vals, _ = moments_for_vectors(a, vectors, rule)
    while rule.level < max_level:
        fine = build_rule(rule.n, rule.level + 1)
        fine_vals, scales = moments_for_vectors(a, vectors, fine)
        err = float(np.abs(fine_vals - vals).max())
        if err <= rel_tol * max(area * float(scales.max()), 1e-300):
            return fine_vals, scales, err, (rule, fine)
        rule, vals = fine, fine_vals
    raise QuadratureNotConvergedError(
        f"moment quadrature did not converge by level {max_level}"
    )
