"""Seeded generators of operators used across the test modules, and the helpers
that only the tests use."""

import math
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


def substitute(a, mat):
    """A_L(ξ) = A(Lξ) for an n × n rational matrix L: (Lξ)^α expanded, times C_α."""
    n = a.space_dim
    lxi = [sum((Polynomial.variable(n, j) * Fraction(x) for j, x in enumerate(row)), Polynomial.zero(n))
           for row in mat]
    terms = []
    for alpha, m in a.coeffs.items():
        power = math.prod((lxi[i] ** e for i, e in enumerate(alpha)), start=Polynomial.constant(n, 1))
        terms += [(beta, i, j, c * x) for beta, c in power.terms.items()
                  for i, row in enumerate(m) for j, x in enumerate(row) if x]
    return OperatorSpec.from_terms(n, a.source_dim, a.target_dim, terms)


def transform(a, p, q):
    """P·A·Q for constant rational matrices P on the target and Q on the source,
    multiplied on the symbol; the constraint of the transformed system is C·P⁻¹,
    which is transform(c, Id, P⁻¹)."""
    n = a.space_dim
    p, q = (MatrixPolynomial.from_rational(as_fraction_matrix(m), n) for m in (p, q))
    return OperatorSpec.from_symbol(p * a.symbol() * q)


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


def reference_rref(a):
    """Reduced row echelon form by Gauss–Jordan over Fraction. Returns (new
    matrix, pivot column list)."""
    m = [list(row) for row in a]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def reference_solve(a, b):
    """One exact solution of a x = b, free variables set to 0; None if inconsistent."""
    if not a:
        return None
    ncols = len(a[0])
    r, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots and pivots[-1] == ncols:  # pivot in the augmented column
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = r[i][-1]
    return tuple(x)


def projection_onto_rowspace(b):
    """Orthogonal projection of the ambient space onto the row space of b (exact),
    through `Subspace.projection`."""
    return Subspace.from_vectors(len(b[0]) if b else 0, b).projection()


def reference_gram(a):
    """G(ξ) = A*(ξ)A(ξ) by symbolic expansion, as `annihilator` forms it."""
    s = a.symbol()
    return s.transpose() * s


def reference_gram_det(a):
    """det G(ξ) by cofactor expansion of the symbolic Gram matrix."""
    return reference_gram(a).det()


def reference_pinv_numerator(a):
    """N(ξ) = adj G(ξ)·A*(ξ), so that A†(ξ) = N(ξ) / det G(ξ)."""
    return reference_gram(a).adjugate() * a.symbol().transpose()


def reference_det(m):
    """det m of a square rational matrix by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


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


def evaluate(p, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(sturm.trim(p)):
        acc = acc * x + c
    return acc


def reference_root_bound(p):
    """Cauchy bound: all real roots lie strictly inside (-B, B)."""
    p = sturm.trim(p)
    lead = abs(p[-1])
    return 1 + max((abs(c) / lead for c in p[:-1]), default=Fraction(0))


def reference_isolate_a_root(p):
    """`sturm.isolate_a_root` as it read the rational p (Fraction entries) beside
    its chain: the root bound from p's coefficients, the last zero test by
    evaluating p."""
    p = sturm.trim(p)
    chain = sturm.sturm_chain(p)
    if sturm.variations_at_inf(chain, False) == sturm.variations_at_inf(chain, True):
        return None
    bound = reference_root_bound(p)
    lo, hi = -bound, bound
    v_lo = sturm._variations(sturm._signs_at(chain, lo))
    while hi - lo > sturm.INTERVAL_WIDTH:
        mid = (lo + hi) / 2
        signs = sturm._signs_at(chain, mid)
        if not signs[0]:  # chain[0] is a positive multiple of p
            return ("exact", mid)
        v_mid = sturm._variations(signs)
        if v_lo - v_mid > 0:
            hi = mid
        else:
            lo, v_lo = mid, v_mid
    # try small-denominator rationals inside the bracket; lo and hi are no
    # roots: ±bound lies outside them all, and every mid was tested
    for cand in sturm._rational_candidates((lo + hi) / 2):
        if lo <= cand <= hi and evaluate(p, cand) == 0:
            return ("exact", cand)
    return ("interval", lo, hi)


def reference_monomial_table(points, exps):
    """The per-coordinate loop the compiled table replaced: the powers x_i^0 … x_i^max
    of each coordinate by repeated multiplication, the columns x_i^(α_i) multiplied in
    coordinate order."""
    dtype = np.result_type(points, float)
    table = np.ones((len(points), len(exps)), dtype=dtype)
    for i in range(exps.shape[1]):
        powers = np.ones((len(points), int(exps[:, i].max(initial=0)) + 1), dtype=dtype)
        for e in range(1, powers.shape[1]):
            np.multiply(powers[:, e - 1], points[:, i], out=powers[:, e])
        table *= powers[:, exps[:, i]]
    return table


def reference_float_symbol(a):
    """points ↦ A(ξ) as `quadrature.float_symbol` computed it before its table was
    compiled: `reference_monomial_table` times the stacked C_α, SYMBOL_BLOCK points at a time."""
    from ellsym.quadrature import SYMBOL_BLOCK

    alphas = sorted(a.coeffs, reverse=True)
    exps = np.array(alphas, dtype=np.int64).reshape(len(alphas), a.space_dim)
    stack = np.array([a.coeffs[x] for x in alphas], dtype=float)
    stack = stack.reshape(len(alphas), a.target_dim * a.source_dim)

    def values(points):
        out = np.empty((len(points), stack.shape[1]), dtype=np.result_type(points, float))
        for s in range(0, len(points), SYMBOL_BLOCK):
            block = slice(s, s + SYMBOL_BLOCK)
            np.matmul(reference_monomial_table(points[block], exps), stack, out=out[block])
        return out.reshape(len(points), a.target_dim, a.source_dim)

    return values


def reference_sampled_ellipticity(a):
    """`quadrature.sampled_ellipticity` before its round was trimmed, on
    `reference_float_symbol`: the same verdict, minimum and witness, bit for bit."""
    from ellsym.conditions import EllipticityVerdict
    from ellsym.quadrature import ELLIPTIC_MIN_THRESHOLD, sample_nodes
    from ellsym.ratlinalg import primitive

    n = a.space_dim
    symbol = reference_float_symbol(a)

    def det_g(points):  # det G(ξ) = det(A(ξ)ᵀA(ξ)) at each row
        sym = symbol(points)
        return np.linalg.det(sym.transpose(0, 2, 1) @ sym)

    nodes = sample_nodes(n)
    vals = det_g(nodes)
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
        trial /= np.linalg.norm(trial, axis=2, keepdims=True)
        tv = det_g(trial.reshape(-1, n)).reshape(len(x), 2 * n) / scale
        pick = tv.argmin(axis=1)
        moved = live & (tv[rows, pick] < f)
        x[moved], f[moved] = trial[rows, pick][moved], tv[rows, pick][moved]
        h[~moved] /= 2
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


def load_repo_module(path):
    """The Python module at `path` from the repository root, loaded by file name."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(Path(path).stem, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder_systems(seed):
    """The parsed systems of the benchmark's seeded operator ladder (perfbench/ladder.py)."""
    from ellsym.dsl import parse_system

    return [parse_system(rung.text) for rung in load_repo_module("perfbench/ladder.py").build_ladder(seed)]


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
