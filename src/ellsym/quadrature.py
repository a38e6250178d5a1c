"""Quadrature on the unit sphere S^{n-1} and the moment map of a symbol.

Rules are antithetic: nodes come in ± pairs with equal weights, laid out so
that nodes[m//2 + i] == -nodes[i] exactly. Moment integrands are rational
with homogeneous numerator/denominator, so their values at -ξ are the values
at ξ times a known sign; the pairing exploits that to make odd integrands
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
from .poly import FloatEvaluator, monomials_of_degree, multinomial

DET_FLOOR = 1e-12  # relative det(A*A) floor before ellipticity is suspect


def surface_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass
class QuadratureRule:
    """Nodes/weights on S^{n-1}; second half of the nodes mirrors the first."""

    n: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    antithetic: bool
    description: str

    @property
    def count(self):
        return len(self.weights)

    def half(self):
        h = self.count // 2
        return self.nodes[:h], self.weights[:h]


def build_rule(n, level):
    """Antithetic rule at a refinement level.

    n=2: 2^level equispaced angles (spectral accuracy for smooth integrands);
    n=3: Gauss-Legendre in cos(theta) x uniform in phi (exact for polynomial
    degree up to the node counts); n>=4: mirrored low-discrepancy (Halton)
    nodes with equal weights.
    """
    if n < 2:
        raise InvalidArgumentError("sphere rules need n >= 2")
    min_level = 2 if n == 2 else 1  # the circle rule needs at least 4 nodes
    if level < min_level:
        raise InvalidArgumentError(
            f"quadrature level must be >= {min_level} for n={n}, got {level}"
        )
    if n == 2:
        m = 2**level
        h = m // 2
        angles = 2.0 * math.pi * np.arange(h) / m
        half = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        nodes = np.concatenate([half, -half], axis=0)
        weights = np.full(m, 2.0 * math.pi / m)
        desc = f"uniform circle, {m} nodes"
    elif n == 3:
        nz = 2**level
        nphi = 2 ** (level + 1)
        z, wz = np.polynomial.legendre.leggauss(nz)
        pos = z > 0
        zpos, wpos = z[pos], wz[pos]
        phis = 2.0 * math.pi * np.arange(nphi) / nphi
        r = np.sqrt(1.0 - zpos**2)
        half = np.stack(
            [
                np.outer(r, np.cos(phis)).ravel(),
                np.outer(r, np.sin(phis)).ravel(),
                np.outer(zpos, np.ones(nphi)).ravel(),
            ],
            axis=1,
        )
        whalf = np.outer(wpos, np.full(nphi, 2.0 * math.pi / nphi)).ravel()
        nodes = np.concatenate([half, -half], axis=0)
        weights = np.concatenate([whalf, whalf])
        desc = f"Gauss-Legendre x uniform, {nz}x{nphi} nodes"
    else:
        from scipy.special import ndtri
        from scipy.stats import qmc

        h = 2 ** (level + 4)
        seq = qmc.Halton(d=n, scramble=False, seed=0)
        seq.fast_forward(1)  # index 0 maps to the origin under ndtri
        u = seq.random(h)
        g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        half = g / norms
        nodes = np.concatenate([half, -half], axis=0)
        weights = np.full(2 * h, surface_area(n) / (2 * h))
        desc = f"mirrored Halton, {2 * h} nodes"
    # renormalize away the last-digit drift so each node is unit to 1e-14
    nn = np.linalg.norm(nodes, axis=1, keepdims=True)
    nodes = nodes / nn
    return QuadratureRule(n, level, nodes, weights, True, desc)


def integrate(rule, values):
    """Weighted sum with antithetic pairing (node-index order, first axis)."""
    h = rule.count // 2
    paired = values[:h] + values[h:]
    w = rule.weights[:h]
    return np.tensordot(w, paired, axes=(0, 0))


@dataclass
class _SymbolData:
    """Float-compiled numerator/denominator of the pseudoinverse A†."""

    n: int
    k: int
    source_dim: int
    target_dim: int
    values: FloatEvaluator  # det G, then the V x E entries of N row by row
    sign: int  # parity of A† under ξ -> -ξ


def compile_pseudoinverse(a):
    """A†(ξ) = N(ξ) / det G(ξ) with N = adj(G)·A*, compiled to floats.

    Raises OrderTooLow unless k >= n, the regime of the moment map. Callers
    use `a.float_pinv`, which compiles once per operator.
    """
    k = a.order
    den = a.gram_det
    dden = den.homogeneous_degree()
    if den.is_zero() or dden is None:
        raise NotHomogeneousError("det(A*A) is not a nonzero homogeneous polynomial")
    if k < a.space_dim:
        raise OrderTooLowError(
            f"moment map needs order k >= n, got k={k}, n={a.space_dim}"
        )
    entries = [p for row in a.pinv_numerator.entries for p in row]
    num_deg = 0
    for p in entries:
        if not p.is_zero():
            num_deg = p.homogeneous_degree()
            if num_deg is None:
                raise NotHomogeneousError("pseudoinverse numerator entry not homogeneous")
    sign = -1 if (num_deg - dden) % 2 else 1
    return _SymbolData(
        a.space_dim, k, a.source_dim, a.target_dim, FloatEvaluator([den] + entries), sign
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


def _pseudoinverse_at(data, half_nodes):
    """A†(ξ) on the half nodes plus the sign relating values at -ξ."""
    m = len(half_nodes)
    vals = data.values(half_nodes)
    den_vals = vals[:, 0]
    scale = np.abs(den_vals).max() if m else 0.0
    if scale == 0.0 or np.abs(den_vals).min() < DET_FLOOR * scale:
        raise NearSingularSymbolError(
            "det(A*A) nearly vanishes at a quadrature node; the operator "
            "may not be elliptic"
        )
    num_vals = vals[:, 1:].reshape(m, data.source_dim, data.target_dim)
    return num_vals / den_vals[:, None, None], data.sign


def moments_for_vectors(a, vectors, rule):
    """Moment integrals ∫ A†(ξ) e ⊗^{k-n} ξ for each vector e.

    Returns (values, scales): values has one row per input vector holding the
    weighted components of the symmetric tensor; scales holds per-vector
    maxima of the integrand norm over the nodes (the zero-test reference).
    """
    data = a.float_pinv
    half_nodes, half_w = rule.half()
    adag, adag_sign = _pseudoinverse_at(data, half_nodes)
    gammas, tweights = tensor_basis(data.n, data.k - data.n)
    xi_pow = np.ones((len(half_nodes), len(gammas)))
    for gi, gamma in enumerate(gammas):
        for d, e in enumerate(gamma):
            if e:
                xi_pow[:, gi] *= half_nodes[:, d] ** e
    gamma_sign = -1 if (data.k - data.n) % 2 else 1
    total_sign = adag_sign * gamma_sign  # (-1)^n; odd n cancels bitwise
    values = []
    scales = []
    for e in vectors:
        evec = np.array([float(x) for x in e])
        w = adag @ evec  # (m, V)
        integrand = w[:, :, None] * xi_pow[:, None, :] * tweights[None, None, :]
        pair = integrand * (1 + total_sign)  # F(ξ) + F(-ξ) on each pair
        acc = np.tensordot(half_w, pair, axes=(0, 0))
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

    def apply(self, e):
        return self.matrix @ np.array([float(x) for x in e])

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
    """Assemble M on the standard basis of E, with a two-level error estimate."""
    data = a.float_pinv
    basis = np.eye(a.target_dim)
    coarse, scales = moments_for_vectors(a, basis, rule)
    fine_rule = build_rule(rule.n, rule.level + 1)
    fine, fine_scales = moments_for_vectors(a, basis, fine_rule)
    err = float(np.abs(fine - coarse).max())
    gammas, tweights = tensor_basis(data.n, data.k - data.n)
    return MomentMap(
        n=data.n,
        k=data.k,
        source_dim=a.target_dim,
        v_dim=a.source_dim,
        gammas=gammas,
        tensor_weights=tweights,
        matrix=fine.T,
        error_estimate=err,
        integrand_scale=float(np.max(fine_scales)) if len(fine_scales) else 0.0,
        levels=(rule.level, fine_rule.level),
        node_counts=(rule.count, fine_rule.count),
    )


def converged_moments(a, vectors, base_level=3, rel_tol=1e-8, max_level=9):
    """Refine until two successive levels agree to rel_tol (relative to the
    integrand scale times the sphere area); returns the finer values plus
    diagnostics (scales, error, levels used)."""
    a.float_pinv  # raises before any rule is built when M is undefined
    if len(vectors) == 0:
        return np.zeros((0, 0)), np.zeros(0), 0.0, (base_level, base_level + 1)
    area = surface_area(a.space_dim)
    prev = None
    level = base_level
    while level <= max_level:
        rule = build_rule(a.space_dim, level)
        vals, scales = moments_for_vectors(a, vectors, rule)
        if prev is not None:
            err = float(np.abs(vals - prev).max())
            ref = area * float(scales.max()) if scales.size else 0.0
            if err <= rel_tol * max(ref, 1e-300):
                return vals, scales, err, (level - 1, level)
        prev = vals
        level += 1
    raise QuadratureNotConvergedError(
        f"moment quadrature did not converge by level {max_level}"
    )
