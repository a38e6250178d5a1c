import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ellsym.dsl import format_operator, parse_operator, parse_system
from ellsym.errors import NotEllipticError, NotHomogeneousError
from ellsym.operators import OperatorSpec, annihilator, homogenize
from ellsym.poly import MatrixPolynomial, Polynomial, monomials_of_degree
from ellsym.quadrature import SYMBOL_BLOCK, float_symbol
from ellsym.ratlinalg import mat_vec, nullspace
from genops import (
    add,
    compose_left,
    ROOT,
    compose_right,
    div_curl_operator,
    divergence_operator,
    gradient_operator,
    laplacian_operator,
    laplacian_power,
    ladder_systems,
    random_elliptic_operator,
    random_invertible_matrix,
    random_operator,
    rank,
)

F = Fraction


def test_symbol_gradient_column():
    s = gradient_operator(2).symbol()
    assert (s.rows, s.cols) == (2, 1)
    assert s.entries[0][0] == Polynomial.variable(2, 0)
    assert s.entries[1][0] == Polynomial.variable(2, 1)


def test_symbol_linear_in_coefficients():
    rng = random.Random(2)
    a = random_operator(rng, 2, 2, 2, homogeneous=True)
    b = random_operator(rng, 2, 2, 2, homogeneous=True)
    lhs = add(a, b).symbol()
    rhs_entries = [
        [a.symbol().entries[i][j] + b.symbol().entries[i][j] for j in range(2)]
        for i in range(2)
    ]
    assert lhs == MatrixPolynomial(rhs_entries)


def test_symbol_eval_gradient_point():
    s = gradient_operator(2).symbol()
    assert s.eval((F(1), F(2))) == [[F(1)], [F(2)]]


def test_symbol_divcurl_rank_at_point():
    s = div_curl_operator().symbol()
    m = s.eval((F(1), F(0), F(0)))
    assert rank(m) == 3  # rank equals dim V


def test_symbol_vanishes_at_zero_for_positive_order():
    s = div_curl_operator().symbol()
    assert all(x == 0 for row in s.eval((F(0), F(0), F(0))) for x in row)


def test_symbol_vector_laplacian():
    s = laplacian_operator(2).symbol()
    q = laplacian_power(2, 1)
    assert s == MatrixPolynomial.scalar_identity(q, 2)


def test_gram_gradient():
    g = gradient_operator(2).gram
    assert g == MatrixPolynomial([[laplacian_power(2, 1)]])


def test_gram_vector_laplacian():
    g = laplacian_operator(2).gram
    assert g == MatrixPolynomial.scalar_identity(laplacian_power(2, 2), 2)


def test_gram_zero_operator():
    from ellsym.operators import OperatorSpec

    z = OperatorSpec(2, 2, 2, {})
    assert z.gram.is_zero()


def test_gram_psd_at_random_points():
    rng = random.Random(7)
    for _ in range(10):
        op = random_operator(rng, 2, 2, 3, homogeneous=True)
        g = op.gram
        xi = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        x = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        gxi = g.eval(xi)
        val = sum(x[i] * mat_vec(gxi, x)[i] for i in range(2))
        assert val >= 0


def test_det_adj_examples():
    q2 = laplacian_power(2, 2)
    g = MatrixPolynomial.scalar_identity(q2, 2)
    det, adj = g.det(), g.adjugate()
    assert det == q2 * q2
    assert adj == MatrixPolynomial.scalar_identity(q2, 2)
    g1 = MatrixPolynomial([[q2]])
    det1, adj1 = g1.det(), g1.adjugate()
    assert det1 == q2
    assert adj1 == MatrixPolynomial.identity(1, 2)


def test_annihilator_gradient_exact_matrix():
    ann = annihilator(gradient_operator(2))
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    expected = MatrixPolynomial([[x2 * x2, -x1 * x2], [-x1 * x2, x1 * x1]])
    assert ann.symbol() == expected
    assert ann.order == 2


def test_annihilator_vector_laplacian_is_zero():
    ann = annihilator(laplacian_operator(2))
    assert not ann.coeffs  # L ≡ 0: symbol surjective everywhere


def test_annihilator_divcurl_degree_and_kernel():
    a = div_curl_operator()
    ann = annihilator(a)
    assert ann.order == 2  # reduced form: G is scalar for div-curl
    # exact polynomial identity L(ξ) A(ξ) = 0
    prod = ann.symbol() * a.symbol()
    assert prod.is_zero()
    # kernel of L(ξ) = image of A(ξ) at sampled rational points
    rng = random.Random(17)
    s_a, s_l = a.symbol(), ann.symbol()
    for _ in range(20):
        xi = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(3)]
        if all(x == 0 for x in xi):
            continue
        l_m = s_l.eval(xi)
        assert rank(l_m) == a.target_dim - a.source_dim
        # every column of A(ξ) is annihilated
        a_m = s_a.eval(xi)
        for j in range(a.source_dim):
            col = [a_m[i][j] for i in range(a.target_dim)]
            assert all(v == 0 for v in mat_vec(l_m, col))


def test_annihilator_rejects_visibly_nonelliptic():
    with pytest.raises(NotEllipticError):
        annihilator(divergence_operator(2))


def test_annihilator_homogeneous_output():
    rng = random.Random(23)
    op = random_operator(rng, 2, 1, 3, max_degree=2, homogeneous=True)
    try:
        ann = annihilator(op)
    except NotEllipticError:
        return
    degs = {sum(alpha) for row in ann.symbol().entries for p in row for alpha in p.terms}
    assert len(degs) <= 1


def test_symbol_coefficient_extraction_roundtrip():
    from ellsym.operators import OperatorSpec

    rng = random.Random(31)
    for _ in range(10):
        op = random_operator(rng, 2, rng.randint(1, 3), rng.randint(1, 3))
        assert OperatorSpec.from_symbol(op.symbol()) == op


def test_homogenize_identity_on_homogeneous():
    a = div_curl_operator()
    assert homogenize(a) == a
    assert homogenize(homogenize(a)) == homogenize(a)


def test_homogenize_mixed_degrees():
    from ellsym.dsl import parse_operator

    c = parse_operator("from 2 to 2\nrows: f1; d1 f2", 2)
    h = homogenize(c)
    # row 1 (degree 0) becomes d1 f1 and d2 f1; row 2 unchanged
    assert h.target_dim == 3
    assert h.order == 1
    from ellsym.conditions import kernel_intersection

    assert kernel_intersection(c).is_zero()
    assert kernel_intersection(h).is_zero()


def test_annihilator_scalar_gram_builds_no_det(monkeypatch):
    from ellsym.poly import MatrixPolynomial

    def no_det(self):
        raise AssertionError("det G built for a scalar Gram matrix")

    monkeypatch.setattr(MatrixPolynomial, "det", no_det)
    ann = annihilator(div_curl_operator())  # G = |ξ|²·Id
    assert ann.order == 2


@pytest.mark.parametrize("seed", range(6))
def test_square_annihilator_is_zero(monkeypatch, seed):
    # A = B₁·(d1² + 2 d2² + …)·B₂ with random invertible B: not isotropic, and
    # det G·Id − A·adj G·Aᵀ ≡ 0, the identity that lets the square case skip it
    rng = random.Random(seed)
    n, m = 2 + seed % 2, 1 + seed % 3
    scalar = parse_operator("rows: " + " + ".join(f"{i} d{i}^2 u1" for i in range(1, n + 1)), n)
    base = OperatorSpec.from_symbol(MatrixPolynomial.scalar_identity(scalar.symbol().entries[0][0], m))
    a = compose_left(compose_right(base, random_invertible_matrix(rng, m)), random_invertible_matrix(rng, m))
    lb = MatrixPolynomial.scalar_identity(a.gram_det, m) - a.symbol() * a.pinv_numerator
    assert lb.is_zero()

    def no_adjugate(self):  # det G itself may be built: n = 2 decides ellipticity on it
        raise AssertionError("adj G expanded for a square operator")

    monkeypatch.setattr(MatrixPolynomial, "adjugate", no_adjugate)
    a = OperatorSpec(a.space_dim, a.source_dim, a.target_dim, a.coeffs)  # nothing cached
    ann = annihilator(a)
    assert not ann.coeffs
    assert (ann.space_dim, ann.source_dim, ann.target_dim) == (n, m, m)


def test_annihilator_guard_payload_is_kernel_of_gram():
    # A(ξ) = [[ξ1, 0], [ξ2, ξ1]]: det G = ξ1⁴ vanishes at the guard point (0, 1)
    a = parse_operator("from 2 to 2\nrows: d1 u1; d1 u2 + d2 u1", 2)
    with pytest.raises(NotEllipticError) as info:
        annihilator(a)
    xi = info.value.witness_xi
    assert xi == (F(0), F(1))
    assert a.gram_det.eval(xi) == 0
    assert info.value.kernel_vector == nullspace(a.gram.eval(xi))[0]


def test_annihilator_requires_a_single_order():
    a = parse_operator("from 1 to 2\nrows: d1 u1; d1^2 u1 + d2^2 u1", 2)
    with pytest.raises(NotHomogeneousError):
        annihilator(a)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 4), (4, 2)])
@pytest.mark.parametrize("count", [1, 300], ids=["one_point", "many_points"])
def test_symbol_values_match_exact_eval(n, k, count):
    # two unknowns, so the isotropic block has zero off-diagonal entries
    a = random_elliptic_operator(random.Random(100 + n), n, k, dim_v=2)
    entries = a.symbol().entries
    assert any(p.is_zero() for row in entries for p in row)
    points = np.random.default_rng(n).normal(size=(count, n))
    vals = float_symbol(a)(points)
    assert vals.shape == (count, a.target_dim, a.source_dim)
    for mat, x in zip(vals, points):
        exact_point = [F(float(c)) for c in x]  # the float point, exactly
        for got_row, row in zip(mat, entries):
            for got, p in zip(got_row, row):
                # 1e-12 relative to the sum of the term magnitudes (exact when p = 0)
                bound = sum(abs(c * Polynomial.monomial(n, al).eval(exact_point))
                            for al, c in p.terms.items())
                assert abs(F(float(got)) - p.eval(exact_point)) <= F(1e-12) * bound


def test_symbol_values_across_blocks():
    # more points than one monomial table holds: every row lands in its place
    a = random_elliptic_operator(random.Random(7), 3, 2, dim_v=2)
    points = np.random.default_rng(7).normal(size=(2 * SYMBOL_BLOCK + 5, 3))
    vals = float_symbol(a)(points)
    for i in (0, SYMBOL_BLOCK - 1, SYMBOL_BLOCK, 2 * SYMBOL_BLOCK + 4):
        assert np.allclose(vals[i], float_symbol(a)(points[i:i + 1])[0], rtol=1e-14, atol=0)


def test_symbol_values_zero_operator():
    vals = float_symbol(OperatorSpec(3, 2, 2, {}))(np.ones((5, 3)))
    assert vals.shape == (5, 2, 2) and not vals.any()



def test_kernel_at_evaluates_each_line_once(monkeypatch):
    # A(1, 2) = [[0, 0], [1, 1]]: the kernel is span{(1, −1)} on the whole line
    rows = "d2 u1 - 2 d1 u1 + 1/2 d2 u2 - d1 u2; d1 u1 + 1/2 d2 u2"
    a = parse_operator("from 2 to 2\nrows: " + rows, 2)
    calls = []
    orig = OperatorSpec.value_at

    def counted(self, xi):
        calls.append(xi)
        return orig(self, xi)

    monkeypatch.setattr(OperatorSpec, "value_at", counted)
    xi = (F(1, 2), F(1))
    points = [xi, tuple(-2 * x for x in xi), tuple(x / 3 for x in xi)]
    assert [a.kernel_at(p) for p in points] == [(1, -1)] * 3
    assert calls == [(1, 2)]
    # c·A(ξ) with c = 2, the common denominator, in ints
    assert orig(a, (1, 2)) == [[0, 0], [2, 2]]
    assert all(type(x) is int for row in orig(a, (1, 2)) for x in row)
    assert a.kernel_at((1, 0)) is None and a.kernel_at((-3, 0)) is None
    assert calls == [(1, 2), (1, 0)]


def test_value_at_is_the_scaled_symbol():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_operator(rng, n, rng.randint(1, 3), rng.randint(1, 3))
        c = math.lcm(*(x.denominator for m in a.coeffs.values() for row in m for x in row))
        for _ in range(3):
            xi = tuple(rng.randint(-3, 3) for _ in range(n))
            assert a.value_at(xi) == [[c * x for x in row] for row in a.symbol().eval(xi)]


def test_row_degrees_are_computed_once_per_operator():
    a = parse_operator("from 2 to 3\nrows: d1^2 u1 + d2^2 u2; d1 d2 u1; 0 u1", 2)
    degrees = a.row_degrees
    assert degrees == (2, 2, None)
    assert (a.order, a.is_homogeneous(), len(a.lattice())) == (2, True, 5)
    assert a.row_degrees is degrees


@pytest.mark.parametrize("dim, text, make, head", [
    (3, "from 1 to 2\nrows: d1^30 f1; f1", homogenize, "from 1 to 497"),
    (3, "from 3 to 4\nrows: d1 u1 + d2 u2 + d3 u3; d2 u3 - d3 u2; d3 u1 - d1 u3; d1 u2 - d2 u1", annihilator,
     "from 4 to 4"),
    (2, "from 1 to 2\nrows: d1^2 u1 + 2 d2^2 u1; d1 d2 u1", annihilator, "from 2 to 2"),  # G is not scalar
], ids=["homogenize", "annihilator isotropic", "annihilator adjugate"])
def test_symbol_paths_never_build_the_dense_coefficients(monkeypatch, dim, text, make, head):
    # an operator is its symbol: parse, homogenize, annihilator and format read it alone
    def refuse(self):
        raise AssertionError("the dense C_α were built")

    monkeypatch.setattr(OperatorSpec, "coeffs", property(refuse))
    assert format_operator(make(parse_operator(text, dim))).startswith(head + "\nrows:\n")


def test_the_three_constructors_store_one_symbol():
    # the dense constructor, from_symbol and the parser (from_terms) agree on every
    # bundled operator and constraint and on every rung of the seed-1 ladder
    systems = [parse_system(path.read_text()) for path in sorted((ROOT / "systems").glob("*.sys"))]
    ops = [op for system in systems + ladder_systems(1) for op in (system.a, system.c) if op is not None]
    assert len(ops) == 20
    for op in ops:
        dense = OperatorSpec(op.space_dim, op.source_dim, op.target_dim, op.coeffs)
        assert dense == op == OperatorSpec.from_symbol(op.symbol())
        assert list(op.coeffs) == sorted(op.coeffs, reverse=True)
        assert all(type(x) is F for mat in op.coeffs.values() for row in mat for x in row)


def test_kernel_at_reports_the_first_canonical_kernel_vector():
    # ker A = span{(−2, −4, 1, 0), (−3, −5, 0, 1)}: the first row of its reduced echelon
    # basis is (1, 0, 5/2, −2), not the back-substituted first free column
    a = parse_operator("from 4 to 2\nrows: u1 + 2 u3 + 3 u4; u2 + 4 u3 + 5 u4", 2)
    assert a.kernel_at((1, 0)) == (2, 0, 5, -4)
    assert mat_vec(a.value_at((1, 0)), (2, 4, -1, 0)) == (0, 0)
