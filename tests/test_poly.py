import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ellsym.poly import (
    MatrixPolynomial,
    Polynomial,
    monomials_of_degree,
    multinomial,
)
from ellsym.quadrature import monomial_table

F = Fraction


def xi(n, i):
    return Polynomial.variable(n, i)


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms == sorted(ms, reverse=True)
    assert all(sum(m) == 2 for m in ms)


def test_multinomial():
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (2, 2)) == 6


def test_ring_basics():
    p = xi(2, 0) + 2 * xi(2, 1)
    q = xi(2, 0) - 2 * xi(2, 1)
    prod = p * q
    assert prod == xi(2, 0) ** 2 - 4 * xi(2, 1) ** 2
    assert (p - p).is_zero()
    assert p**0 == Polynomial.constant(2, 1)
    assert p.degree() == 1
    assert (p * p + xi(2, 0)).degree() == 2


def test_eval_exact():
    p = xi(2, 0) ** 3 * 7 + Polynomial.constant(2, F(1, 3))
    assert p.eval((F(1, 2), F(5))) == 7 * F(1, 8) + F(1, 3)


def test_diff():
    p = Polynomial.monomial(2, (2, 1), F(3))
    assert p.diff((1, 0)) == Polynomial.monomial(2, (1, 1), F(6))
    assert p.diff((2, 1)) == Polynomial.constant(2, F(6))
    assert p.diff((3, 0)).is_zero()


def test_eval_commutes_with_product():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 3)
        point = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]

        def rand_poly():
            p = Polynomial.zero(n)
            for _t in range(rng.randint(1, 4)):
                alpha = tuple(rng.randint(0, 2) for _ in range(n))
                p = p + Polynomial.monomial(n, alpha, F(rng.randint(-3, 3)))
            return p

        p, q = rand_poly(), rand_poly()
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)


def test_matrix_eval_commutes():
    rng = random.Random(11)
    n = 2
    a = MatrixPolynomial(
        [[xi(n, 0), xi(n, 1)], [xi(n, 1) ** 2, Polynomial.constant(n, 2)]]
    )
    b = MatrixPolynomial(
        [[xi(n, 0) + xi(n, 1), Polynomial.zero(n)], [xi(n, 0), xi(n, 1)]]
    )
    for _ in range(10):
        pt = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        lhs = (a * b).eval(pt)
        import ellsym.ratlinalg as rl

        rhs = rl.mat_mul(a.eval(pt), b.eval(pt))
        assert lhs == rhs


def test_det_adj_identity_scalar_matrix():
    n = 2
    q = xi(n, 0) ** 2 + xi(n, 1) ** 2
    g = MatrixPolynomial.scalar_identity(q * q, 2)
    det = g.det()
    adj = g.adjugate()
    assert det == (q * q) ** 2
    assert adj == MatrixPolynomial.scalar_identity(q * q, 2)


def test_det_adj_identity_1x1():
    p = xi(2, 0) ** 3
    g = MatrixPolynomial([[p]])
    det, adj = g.det(), g.adjugate()
    assert det == p
    assert adj == MatrixPolynomial.identity(1, 2)


def test_det_adj_random_3x3_degree1():
    # G · adj(G) = det(G) · Id checked by exact polynomial expansion
    rng = random.Random(99)
    n = 2
    for _ in range(5):
        entries = []
        for _i in range(3):
            row = []
            for _j in range(3):
                p = Polynomial.zero(n)
                for d in range(n):
                    p = p + Polynomial.monomial(
                        n, tuple(1 if e == d else 0 for e in range(n)), F(rng.randint(-2, 2))
                    )
                row.append(p)
            entries.append(row)
        g = MatrixPolynomial(entries)
        det = g.det()
        adj = g.adjugate()
        assert g * adj == MatrixPolynomial.scalar_identity(det, 3)
        assert adj * g == MatrixPolynomial.scalar_identity(det, 3)


def test_pow_squares_only_while_bits_remain(monkeypatch):
    p = xi(2, 0) + xi(2, 1)
    calls = []
    orig = Polynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return orig(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    sq = p**2
    assert len(calls) == 1  # p·p; no unused p^4
    calls.clear()
    fourth = p**4
    assert len(calls) == 2  # p², then (p²)²; no unused p^8
    monkeypatch.undo()
    assert sq == p * p
    assert fourth == p * p * p * p
    assert p**1 == p and p**3 == p * p * p


def _exact_monomial(pairs, alpha):
    """ξ^α in exact complex arithmetic, each coordinate a (re, im) pair of Fractions."""
    re, im = Fraction(1), Fraction(0)
    for (zr, zi), e in zip(pairs, alpha):
        for _ in range(int(e)):
            re, im = re * zr - im * zi, re * zi + im * zr
    return re, im


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_monomial_table_degree_12_within_rounding(kind):
    # each of the d − 1 products of a degree-d monomial errs by at most 2u times
    # the product of the factors' |Re| + |Im|, so the whole table entry errs by at
    # most d·2⁻⁵² times the sum of the magnitudes of the expanded terms
    n = 3
    exps = np.array([a for d in (0, 1, 5, 12) for a in monomials_of_degree(n, d)])
    rng = np.random.default_rng(12)
    points = rng.normal(size=(8, n)) * 1.5
    if kind == "complex":
        points = points + 1j * rng.normal(size=(8, n))
    table = monomial_table(points, exps)
    assert table.shape == (8, len(exps)) and table.dtype == points.dtype
    for x, row in zip(points, table):
        pairs = [(Fraction(c.real), Fraction(c.imag)) for c in x.astype(complex)]
        for alpha, got in zip(exps, row):
            re, im = _exact_monomial(pairs, alpha)
            terms = math.prod((abs(z[0]) + abs(z[1])) ** int(e) for z, e in zip(pairs, alpha))
            bound = sum(alpha) * Fraction(2) ** -52 * terms
            got = complex(got)
            assert abs(Fraction(got.real) - re) <= bound and abs(Fraction(got.imag) - im) <= bound


def test_monomial_table_empty_and_zero_exponents():
    points = np.array([[0.5, -2.0], [0.0, 3.0]])
    empty = monomial_table(points, np.zeros((0, 2), dtype=np.int64))
    assert empty.shape == (2, 0)
    ones = monomial_table(points, np.zeros((3, 2), dtype=np.int64))
    assert np.array_equal(ones, np.ones((2, 3)))  # 0^0 = 1, as for x**0
    assert monomial_table(points[:0], np.array([[1, 2]])).shape == (0, 1)
