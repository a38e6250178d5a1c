"""Seeded generators of operators used across the test modules, and the helpers
that only the tests use."""

from fractions import Fraction
from pathlib import Path

import numpy as np

from ellsym import sturm
from ellsym.operators import OperatorSpec
from ellsym.poly import MatrixPolynomial, Polynomial, monomials_of_degree
from ellsym.ratlinalg import Subspace, as_fraction_matrix, mat_mul, mat_vec, rref

ROOT = Path(__file__).resolve().parent.parent

NONZERO_COEFFS = [
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(5, 2),
]


# -- operator algebra -------------------------------------------------------------


def add(a, b):
    """A + B for operators between the same spaces."""
    assert (a.space_dim, a.source_dim, a.target_dim) == (b.space_dim, b.source_dim, b.target_dim)
    coeffs = {alpha: [list(r) for r in m] for alpha, m in a.coeffs.items()}
    for alpha, m in b.coeffs.items():
        acc = coeffs.get(alpha, [[0] * a.source_dim for _ in range(a.target_dim)])
        coeffs[alpha] = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, m)]
    return OperatorSpec(a.space_dim, a.source_dim, a.target_dim, coeffs)


def scale(a, c):
    """c·A for a rational c."""
    c = Fraction(c)
    coeffs = {alpha: [[c * x for x in row] for row in m] for alpha, m in a.coeffs.items()}
    return OperatorSpec(a.space_dim, a.source_dim, a.target_dim, coeffs)


def compose_left(a, mat):
    """M ∘ A for a constant matrix M (target side change of coordinates)."""
    mat = as_fraction_matrix(mat)
    coeffs = {alpha: mat_mul(mat, m) for alpha, m in a.coeffs.items()}
    return OperatorSpec(a.space_dim, a.source_dim, len(mat), coeffs)


def compose_right(a, mat):
    """A ∘ M for a constant matrix M (source side change of coordinates)."""
    mat = as_fraction_matrix(mat)
    coeffs = {alpha: mat_mul(m, mat) for alpha, m in a.coeffs.items()}
    return OperatorSpec(a.space_dim, len(mat[0]), a.target_dim, coeffs)


# -- operators ------------------------------------------------------------------


def laplacian_power(n, p):
    """|ξ|^{2p} as an exact polynomial."""
    q = Polynomial.zero(n)
    for i in range(n):
        q = q + Polynomial.variable(n, i) ** 2
    return q**p


def laplacian_operator(n, power=1, dim=None):
    """(-Δ)^power acting componentwise on R^dim-valued fields (dim defaults to n)."""
    dim = n if dim is None else dim
    return OperatorSpec.from_symbol(
        MatrixPolynomial.scalar_identity(laplacian_power(n, power), dim)
    )


def divergence_operator(n):
    coeffs = {}
    for i in range(n):
        alpha = [0] * n
        alpha[i] = 1
        coeffs[tuple(alpha)] = [[Fraction(1) if j == i else Fraction(0) for j in range(n)]]
    return OperatorSpec(n, n, 1, coeffs)


def gradient_operator(n):
    coeffs = {}
    for i in range(n):
        alpha = [0] * n
        alpha[i] = 1
        coeffs[tuple(alpha)] = [[Fraction(1)] if j == i else [Fraction(0)] for j in range(n)]
    return OperatorSpec(n, 1, n, coeffs)


def div_curl_operator():
    """(div, curl) on R^3: V = R^3, E = R^4, first row the divergence."""
    from ellsym.dsl import parse_operator

    return parse_operator(
        "from 3 to 4\n"
        "rows: d1 u1 + d2 u2 + d3 u3; d2 u3 - d3 u2; d3 u1 - d1 u3; d1 u2 - d2 u1",
        3,
    )


def random_elliptic_operator(rng, n, k, dim_v=1, extra_rows=2):
    """Elliptic by construction: an injective isotropic block plus random rows.

    Even k: (-Δ)^{k/2} Id_V as the base block; odd k: the rows of
    (-Δ)^{(k-1)/2} ∇ ⊗ Id_V. Extra random degree-k rows keep injectivity.
    """
    rows = []
    if k % 2 == 0:
        base = MatrixPolynomial.scalar_identity(laplacian_power(n, k // 2), dim_v)
        rows.extend(base.entries)
    else:
        q = laplacian_power(n, (k - 1) // 2)
        for i in range(n):
            xi = Polynomial.variable(n, i)
            for a in range(dim_v):
                row = [Polynomial.zero(n)] * dim_v
                row[a] = q * xi
                rows.append(list(row))
    monos = monomials_of_degree(n, k)
    for _ in range(extra_rows):
        row = []
        for _a in range(dim_v):
            p = Polynomial.zero(n)
            for _t in range(rng.randint(1, 2)):
                alpha = monos[rng.randrange(len(monos))]
                p = p + Polynomial.monomial(n, alpha, rng.choice(NONZERO_COEFFS))
            row.append(p)
        rows.append(row)
    return OperatorSpec.from_symbol(MatrixPolynomial(rows))


def random_operator(rng, n, source_dim, target_dim, max_degree=2, homogeneous=False):
    """Random per-row-homogeneous operator; rows may have different degrees."""
    common = rng.randint(0, max_degree)
    coeffs = {}
    for j in range(target_dim):
        d = common if homogeneous else rng.randint(0, max_degree)
        monos = monomials_of_degree(n, d)
        terms = max(1, rng.randint(1, min(3, len(monos) * source_dim)))
        placed = False
        for _ in range(terms):
            alpha = monos[rng.randrange(len(monos))]
            i = rng.randrange(source_dim)
            mat = coeffs.setdefault(
                alpha, [[Fraction(0)] * source_dim for _ in range(target_dim)]
            )
            mat[j][i] += rng.choice(NONZERO_COEFFS)
            placed = placed or mat[j][i] != 0
        if not placed:  # random cancellation: force one entry
            alpha = monos[0]
            mat = coeffs.setdefault(
                alpha, [[Fraction(0)] * source_dim for _ in range(target_dim)]
            )
            mat[j][0] += 1
    return OperatorSpec(n, source_dim, target_dim, coeffs)


def rank(a):
    """The rank of a rational matrix: its number of RREF pivots."""
    return len(rref(a)[1])


def random_invertible_matrix(rng, dim):
    while True:
        mat = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if rank(mat) == dim:
            return mat


# -- reference algorithms -------------------------------------------------------


def reference_remainder(a, b):
    """Euclidean remainder of a by b over the rationals (coefficient lists,
    lowest degree first)."""
    a = list(sturm.trim(a))
    b = sturm.trim(b)
    lead, db = b[-1], len(b) - 1
    while len(a) - 1 >= db:
        factor = a[-1] / lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        a = list(sturm.trim(a))
        if not a:
            break
    return a


def reference_sturm_chain(p):
    """The Sturm chain of p over the rationals: p, p′, then −rem(a, b)."""
    p = sturm.trim(p)
    chain = [p]
    dp = sturm.derivative(p)
    if dp:
        chain.append(dp)
        while sturm.degree(chain[-1]) > 0:
            rem = reference_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append([-c for c in rem])
    return chain


# -- sampled oracles -------------------------------------------------------------


def random_rational_point(rng, n, max_num=9, max_den=9):
    while True:
        p = tuple(
            Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
            for _ in range(n)
        )
        if any(x != 0 for x in p):
            return p


def sampled_kernel_dimension(c, points):
    """Numeric dim of ⋂ ker C(ξ) over the sample (rank tolerance 1e-10)."""
    stacked = []
    sym = c.symbol()
    for xi in points:
        mat = sym.eval(xi)
        stacked.extend([[float(x) for x in row] for row in mat])
    arr = np.array(stacked)
    if arr.size == 0:
        return c.source_dim, np.eye(c.source_dim)
    _, s, vt = np.linalg.svd(arr)
    tol = 1e-10 * max(1.0, (s[0] if len(s) else 1.0))
    ker_dim = sum(1 for x in s if x <= tol) + max(0, arr.shape[1] - len(s))
    basis = vt[arr.shape[1] - ker_dim:] if ker_dim else np.zeros((0, arr.shape[1]))
    return ker_dim, basis


# -- test-only helpers ----------------------------------------------------------------


def read_repo_file(path):
    """The text of a file of the repository, by its path from the repository root."""
    with open(ROOT / path) as fh:
        return fh.read()


def all_witnesses(verdict):
    """The (ξ, kernel vector) pairs of an EllipticityVerdict, the primary one first."""
    out = []
    if verdict.witness_xi is not None:
        out.append((verdict.witness_xi, verdict.kernel_vector))
    out.extend(verdict.extra_witnesses)
    return out


def is_full(subspace):
    return subspace.dim == subspace.ambient_dim


def image_of(subspace, m):
    """Image of the subspace under the linear map with matrix m."""
    return Subspace.from_vectors(len(m), [mat_vec(m, row) for row in subspace.basis])


def l1_norm(f, grid):
    """‖f‖_{L¹} of a grid field whose components lie on the last axis."""
    return float(np.linalg.norm(f, axis=-1).sum() * grid.cell_volume)
