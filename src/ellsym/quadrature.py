"""The numeric layer: the float symbol, sampled ellipticity, quadrature on the
unit sphere S^{n-1} and the moment map of a symbol.

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
from fractions import Fraction

import numpy as np

from .conditions import WEAK_ZERO_TOL, EllipticityVerdict, _require_moments
from .errors import InvalidArgumentError, NearSingularSymbolError, OversizedInputError, QuadratureNotConvergedError
from .poly import monomials_of_degree, multinomial
from .ratlinalg import primitive

DET_FLOOR = 1e-12  # relative det(A*A) floor below which a rule cannot resolve the symbol
MAX_RULE_NODES = 2**21  # sphere nodes per rule: S² through level 10
SAMPLE_NODES = 2**15  # sphere nodes of the sampler and of a refinement's first rule, at most
SYMBOL_BLOCK = 4096  # points per monomial table in float_symbol; bounds the temporaries
ELLIPTIC_MIN_THRESHOLD = 1e-9  # normalized sphere minimum of det G


def compile_monomials(exps):
    """points ↦ ξ^α for each row ξ of `points` (real or complex) and row α of `exps`, with
    each coordinate's top exponent and gather column found once: per coordinate, the powers
    x_i^0 … x_i^top by repeated multiplication (x^e errs by ≤ (e − 1)·u, Higham 2002, §3.1)
    down the columns of one buffer, then the gathered x_i^(α_i) multiplied into the table,
    in coordinate order from 1. numpy may fuse a complex product by its operands' memory
    layout; this one keeps the bits of the per-coordinate loop it replaced."""
    tops = exps.max(axis=0, initial=0).tolist()
    width = max(tops, default=0) + 1
    columns = list(exps.T)

    def table(points):
        powers = np.ones((len(points), width), dtype=np.result_type(points, float))
        out = np.ones((len(points), len(exps)), dtype=powers.dtype)
        for i, (top, column) in enumerate(zip(tops, columns)):
            for e in range(1, top + 1):  # columns past top hold an earlier coordinate's, never gathered
                np.multiply(powers[:, e - 1], points[:, i], out=powers[:, e])
            out *= powers[:, column]
        return out

    return table


def monomial_table(points, exps):
    """`compile_monomials(exps)` at `points`, compiled for this one call."""
    return compile_monomials(exps)(points)


def float_symbol(a):
    """points ↦ A(ξ) at each row of `points` (real or complex), shape (len(points), target,
    source): the compiled monomial table times the coefficient matrices C_α, stacked once,
    SYMBOL_BLOCK points at a time; BLAS may sum in another order for another block size, so
    a row's last bits depend on its batch. A C_α entry beyond the float range is oversized."""
    alphas = sorted(a.coeffs, reverse=True)
    table = compile_monomials(np.array(alphas, dtype=np.int64).reshape(len(alphas), a.space_dim))
    try:
        stack = np.array([a.coeffs[x] for x in alphas], dtype=float)
    except OverflowError:
        raise OversizedInputError("a coefficient of the operator is over the float range, "
                                  f"the budget of {np.finfo(float).max:g}") from None
    stack = stack.reshape(len(alphas), a.target_dim * a.source_dim)

    def values(points):
        out = np.empty((len(points), stack.shape[1]), dtype=np.result_type(points, float))
        for s in range(0, len(points), SYMBOL_BLOCK):
            block = slice(s, s + SYMBOL_BLOCK)
            np.matmul(table(points[block]), stack, out=out[block])
        return out.reshape(len(points), a.target_dim, a.source_dim)

    return values


def surface_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def rule_size(n, level):
    """Sphere nodes of `build_rule(n, level)`: 2·m^(n-1), m as in `_sphere`."""
    return 2 ** ((n - 1) * level + (n > 2))


def finest_level(n, nodes):
    """The finest level whose rule has at most `nodes` sphere nodes, or 0."""
    return next(level for level in itertools.count() if rule_size(n, level + 1) > nodes)


@dataclass(frozen=True)
class QuadratureRule:
    """One node of each antithetic pair ±ξ on S^{n-1}, with the weight of each of
    the two, in read-only arrays; the rule covers count = 2·len(nodes) sphere nodes."""

    n: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self):
        return 2 * len(self.weights)


_RULES = {}  # (n, level) -> a rule of at most SAMPLE_NODES sphere nodes, built once per process


def build_rule(n, level):
    """Antithetic rule at a refinement level, one node per ± pair: for n=2,
    2^level equispaced angles (spectral accuracy for smooth integrands); for
    n>=3, the Gauss product rule of `_sphere` with m = 2^level, exact to degree
    2m - 1 (Stroud, Approximate Calculation of Multiple Integrals, 1971). A
    rule over MAX_RULE_NODES sphere nodes is refused by its exponent, before
    its node count or any array is built; one within SAMPLE_NODES is kept."""
    if n < 2:
        raise InvalidArgumentError("sphere rules need n >= 2")
    min_level = 2 if n == 2 else 1  # the circle rule needs at least 4 nodes
    if level < min_level:
        raise InvalidArgumentError(
            f"quadrature level must be >= {min_level} for n={n}, got {level}"
        )
    e = (n - 1) * level + (n > 2)  # rule_size(n, level) = 2^e, compared before it is built
    if e > MAX_RULE_NODES.bit_length() - 1:
        raise InvalidArgumentError(
            f"quadrature level {level} on S^{n - 1} needs 2^{e} nodes, over the "
            f"budget of {MAX_RULE_NODES}"
        )
    if (n, level) in _RULES:
        return _RULES[n, level]
    nodes, weights = _sphere(n, 2 ** (level - (n == 2)), half=True)
    # renormalize away the last-digit drift so each node is unit to 1e-14
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    nodes.flags.writeable = weights.flags.writeable = False
    rule = QuadratureRule(n, level, nodes, weights)
    if rule.count <= SAMPLE_NODES:
        _RULES[n, level] = rule
    return rule


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


def numeric_kernel(a, xi_float):
    """The last right singular vector of A(ξ), rounded to denominators of at most 10⁶."""
    _, _, vt = np.linalg.svd(a.float_symbol(np.array([xi_float]))[0])
    return tuple(Fraction(float(x)).limit_denominator(10**6) for x in vt[-1])


def sampled_ellipticity(a):
    """n >= 3: sampling on `sample_nodes`, then a batched compass search
    (Kolda, Lewis & Torczon, SIAM Rev. 45 (2003)) from the five lowest pair
    representatives. det G is even, so the mirrored nodes add nothing: the
    five are the ten lowest sphere nodes less their mirrors."""
    n = a.space_dim

    def det_g(points):  # det G(ξ) = det(A(ξ)ᵀA(ξ)) at each row; inf or NaN past the float range
        sym = a.float_symbol(points)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.det(sym.transpose(0, 2, 1) @ sym)

    nodes = sample_nodes(n)
    vals = det_g(nodes)
    if not np.isfinite(vals).all():
        return EllipticityVerdict("inconclusive", note="det G is beyond the float range at a sample node")
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return EllipticityVerdict("inconclusive", note="det G underflows on all nodes")
    starts = np.argsort(vals)[:5]
    x, f = nodes[starts], vals[starts] / scale
    h = np.full(len(x), 0.05)  # about the node spacing
    steps = np.concatenate([np.eye(n), -np.eye(n)])
    rows = np.arange(len(x))
    for _ in range(400):
        live = h >= 1e-12  # a start whose step fell below this has stopped
        if not live.any():
            break
        # every start polls its 2n points x ± h·e_i, pulled back onto the sphere
        trial = x[:, None, :] + h[:, None, None] * steps
        trial /= np.sqrt(np.add.reduce(trial * trial, axis=2, keepdims=True))  # np.linalg.norm's arithmetic
        tv = det_g(trial.reshape(-1, n)).reshape(len(x), 2 * n) / scale
        pick = tv.argmin(axis=1)
        low = tv[rows, pick]
        moved = live & (low < f)
        x, f = np.where(moved[:, None], trial[rows, pick], x), np.where(moved, low, f)
        h = np.where(moved, h, h / 2)
    best, best_x = float(f.min()), x[int(np.argmin(f))]
    # try to certify an exact zero near the minimizer
    if best <= ELLIPTIC_MIN_THRESHOLD:
        for den in (1, 2, 3, 4, 6, 8, 12, 100, 10**4, 10**6):
            cand = tuple(Fraction(float(x)).limit_denominator(den) for x in best_x)
            # ±ξ and every multiple of ξ share ker A: report the primitive point
            if any(cand) and (kern := a.kernel_at(cand)) is not None:
                return EllipticityVerdict(
                    "no", witness_xi=primitive(cand), kernel_vector=kern, witness_exact=True
                )
        return EllipticityVerdict(
            "inconclusive",
            min_normalized=best,
            note="normalized sphere minimum of det G below threshold but no "
            "exact rational zero certified",
        )
    return EllipticityVerdict("numerically_positive", min_normalized=best)


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
    sym = a.float_symbol(nodes)
    sym_t = sym.transpose(0, 2, 1)
    gram = sym_t @ sym
    det = np.abs(np.linalg.det(gram))
    scale = det.max()
    if scale == 0.0 or det.min() < DET_FLOOR * scale:
        raise NearSingularSymbolError(
            f"det(A*A) at a quadrature node is below {DET_FLOOR:g} times its largest "
            "value over the nodes, or all are 0: the rule cannot resolve this symbol"
        )
    return np.linalg.solve(gram, sym_t)


def moment_matrix(a, rule):
    """M on the standard basis of E from one rule, shape (V·|γ|, dim E), the row of
    (v, γ) holding the weighted tensor component, and A†(ξ) at the stored nodes. The
    weighted ξ^γ have norm |ξ|^(k−n) = 1 on the sphere, so max_ξ |A†(ξ)e| is the
    integrand scale of any e."""
    n = a.space_dim
    adag = _pseudoinverse_at(a, rule.nodes)
    gammas, tweights = tensor_basis(n, a.order - n)
    # A†(-ξ) = (-1)^k A†(ξ) and (-ξ)^γ = (-1)^(k-n) ξ^γ: odd n cancels bitwise
    pair = rule.weights[:, None] * tweights * (1 + (-1) ** n)  # F(ξ) + F(-ξ) on each pair
    xi_pow = monomial_table(rule.nodes, np.array(gammas)) * pair
    m, v, e = adag.shape
    matrix = (xi_pow.T @ adag.reshape(m, v * e)).reshape(len(gammas), v, e)
    return matrix.transpose(1, 0, 2).reshape(v * len(gammas), e), adag


def _scale(adag):
    """max over the nodes and the basis of E of the integrand norm |A†(ξ)e|."""
    return math.sqrt(float((adag * adag).sum(axis=1).max()))


@dataclass
class MomentMap:
    """The linear map e ↦ M e from E into V ⊙^{k-n} R^n, one row per (v, γ) over
    `tensor_basis(n, k − n)`: exact ("isotropic") or from quadrature ("quadrature"),
    which alone has the error estimate, the integrand scale and the two levels."""

    n: int
    k: int
    matrix: np.ndarray  # (dim V * len(gammas)) x dim E
    method: str
    error_estimate: float | None = None
    integrand_scale: float | None = None
    levels: tuple | None = None

    def to_json(self):
        gammas, tweights = tensor_basis(self.n, self.k - self.n)
        d = {
            "order": self.k,
            "space_dim": self.n,
            "method": self.method,
            "tensor_monomials": [list(g) for g in gammas],
            "tensor_weights": [float(w) for w in tweights],
            "matrix": [[float(x) for x in row] for row in self.matrix],
        }
        if self.method == "quadrature":
            d.update(error_estimate=self.error_estimate, integrand_scale=self.integrand_scale,
                     levels=list(self.levels), node_counts=[rule_size(self.n, lv) for lv in self.levels])
        return d


def moment_map(a, rule):
    """M on the standard basis of E. For an isotropic operator it is the exact M that
    `check` reads (`OperatorSpec.isotropic_moments`), weighted by √multinomial(γ)·π^(n/2);
    otherwise the quadrature at the next level, with its distance from `rule`'s as the
    error estimate. Like `annihilator`, it refuses an A that `check` reports as not
    elliptic, and, for every operator, a `rule` whose next level is over the budget."""
    _require_moments(a)
    a.require_elliptic()
    n, k = a.space_dim, a.order
    if rule_size(n, rule.level + 1) > MAX_RULE_NODES:  # also where M is exact: one meaning of `rule`
        raise InvalidArgumentError(f"the moment map at level {rule.level} needs level {rule.level + 1}, "
                                   f"whose rule on S^{n - 1} is over the budget of {MAX_RULE_NODES} nodes")
    if a.isotropic:
        _, tweights = tensor_basis(n, k - n)
        exact = np.array(a.isotropic_moments, dtype=float).transpose(1, 0, 2) * tweights[:, None]
        return MomentMap(n, k, (exact * math.pi ** (n / 2)).reshape(-1, a.target_dim), "isotropic")
    coarse, _ = moment_matrix(a, rule)
    matrix, adag = moment_matrix(a, build_rule(n, rule.level + 1))
    return MomentMap(n, k, matrix, "quadrature", float(np.abs(matrix - coarse).max()), _scale(adag),
                     (rule.level, rule.level + 1))


def converged_moments(a):
    """Refine M on E until two successive levels agree to WEAK_ZERO_TOL (relative
    to the integrand scale times the sphere area); returns the finer matrix, A† at
    its nodes, the error and the two rules compared. The first level is 3, or
    coarser where that rule has more than SAMPLE_NODES nodes (n ≥ 6) or leaves no
    finer level within MAX_RULE_NODES (n ≥ 8); the loop raises after level 9 or
    at the last level within MAX_RULE_NODES."""
    _require_moments(a)  # before any rule is built
    n = a.space_dim
    top = finest_level(n, MAX_RULE_NODES)
    rule = build_rule(n, max(1, min(3, finest_level(n, SAMPLE_NODES), top - 1)))
    area = surface_area(n)
    matrix, _ = moment_matrix(a, rule)
    while rule.level < min(9, top):
        fine = build_rule(n, rule.level + 1)
        fine_matrix, adag = moment_matrix(a, fine)
        err = float(np.abs(fine_matrix - matrix).max())
        if err <= WEAK_ZERO_TOL * max(area * _scale(adag), 1e-300):
            return fine_matrix, adag, err, (rule, fine)
        rule, matrix = fine, fine_matrix
    over = f", the finest within the budget of {MAX_RULE_NODES} nodes" if top < 9 else ""
    raise QuadratureNotConvergedError(
        f"moment quadrature did not converge by level {rule.level}{over}"
    )
