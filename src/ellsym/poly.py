"""Sparse multivariate polynomials over exact rationals and matrices of them.

Multi-indices are plain tuples of non-negative ints of length nvars. Terms are
kept in a dict multi-index -> Fraction with no zero coefficients stored; the
printing/iteration order is descending lexicographic on the exponent tuple,
which fixes a total order for deterministic output.
"""

from __future__ import annotations

import math
from fractions import Fraction


def monomials_of_degree(nvars, degree):
    """All exponent tuples of the given total degree, descending lex order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def multinomial(degree, alpha):
    """degree! / alpha! — the number of tensor slots collapsing to ξ^alpha."""
    assert sum(alpha) == degree
    val = math.factorial(degree)
    for a in alpha:
        val //= math.factorial(a)
    return val


class Polynomial:
    """Multivariate polynomial with Fraction coefficients, stored sparsely."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for alpha, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    assert len(alpha) == nvars
                    self.terms[tuple(alpha)] = c

    @classmethod
    def _wrap(cls, nvars, terms):
        """The polynomial of a dict that already holds only nonzero Fractions."""
        p = cls.__new__(cls)
        p.nvars, p.terms = nvars, terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def monomial(cls, nvars, alpha, c=1):
        return cls(nvars, {tuple(alpha): Fraction(c)})

    @classmethod
    def variable(cls, nvars, i):
        alpha = [0] * nvars
        alpha[i] = 1
        return cls.monomial(nvars, alpha)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self):
        return Polynomial._wrap(self.nvars, {a: -c for a, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            s = terms.get(a, 0) + c
            if s == 0:
                terms.pop(a, None)
            else:
                terms[a] = s
        return Polynomial._wrap(self.nvars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.nvars, {a: c * v for a, v in self.terms.items()})
        assert isinstance(other, Polynomial) and other.nvars == self.nvars
        out = {}
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                a = tuple(x + y for x, y in zip(a1, a2))
                s = out.get(a, 0) + c1 * c2
                if s == 0:
                    out.pop(a, None)
                else:
                    out[a] = s
        return Polynomial._wrap(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.constant(self.nvars, 1) if result is None else result

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        assert isinstance(other, Polynomial) and other.nvars == self.nvars
        return other

    def eval(self, point):
        """Exact evaluation at a rational point."""
        point = [Fraction(x) for x in point]
        assert len(point) == self.nvars
        total = Fraction(0)
        for alpha, c in self.terms.items():
            v = c
            for x, a in zip(point, alpha):
                if a:
                    v *= x**a
            total += v
        return total

    def diff(self, alpha):
        """Exact partial derivative ∂^alpha."""
        terms = {}
        for beta, c in self.terms.items():
            coef = c
            new = []
            ok = True
            for b, a in zip(beta, alpha):
                if b < a:
                    ok = False
                    break
                # falling factorial b (b-1) ... (b-a+1)
                for i in range(a):
                    coef *= b - i
                new.append(b - a)
            if ok and coef != 0:
                terms[tuple(new)] = terms.get(tuple(new), 0) + coef
        return Polynomial(self.nvars, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for alpha, c in self.sorted_terms():
            mono = " ".join(
                f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            parts.append(f"{c} {mono}".strip() if mono else str(c))
        return " + ".join(parts)


class MatrixPolynomial:
    """Matrix with Polynomial entries; evaluation commutes with the entry grid."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries):
        assert entries and entries[0], "matrix must be non-empty"
        self.rows = len(entries)
        self.cols = len(entries[0])
        self.nvars = entries[0][0].nvars
        for row in entries:
            assert len(row) == self.cols
            for p in row:
                assert isinstance(p, Polynomial) and p.nvars == self.nvars
        self.entries = [list(row) for row in entries]

    @classmethod
    def zero(cls, rows, cols, nvars):
        return cls([[Polynomial.zero(nvars) for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def identity(cls, m, nvars):
        return cls.scalar_identity(Polynomial.constant(nvars, 1), m)

    @classmethod
    def scalar_identity(cls, p, m):
        z = Polynomial.zero(p.nvars)
        return cls([[p if i == j else z for j in range(m)] for i in range(m)])

    @classmethod
    def from_coeffs(cls, coeffs, rows, cols, nvars):
        """Σ_α x^α·C_α from a map α -> C_α (rows × cols); each entry lists its
        terms in the order of the map."""
        terms = [[{} for _ in range(cols)] for _ in range(rows)]
        for alpha, mat in coeffs.items():
            for entry_row, mat_row in zip(terms, mat):
                for entry, c in zip(entry_row, mat_row):
                    if c:
                        entry[alpha] = c
        return cls([[Polynomial(nvars, t) for t in row] for row in terms])

    @classmethod
    def from_rational(cls, mat, nvars):
        return cls.from_coeffs({(0,) * nvars: mat}, len(mat), len(mat[0]), nvars)

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return MatrixPolynomial(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return MatrixPolynomial(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return MatrixPolynomial(
                [[p * other for p in row] for row in self.entries]
            )
        assert isinstance(other, MatrixPolynomial) and self.cols == other.rows
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Polynomial.zero(self.nvars)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return MatrixPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Polynomial)):
            return self * other
        return NotImplemented

    def __neg__(self):
        return MatrixPolynomial([[-p for p in row] for row in self.entries])

    def transpose(self):
        return MatrixPolynomial(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def eval(self, point):
        """Exact entrywise evaluation; returns a Fraction matrix."""
        return [[p.eval(point) for p in row] for row in self.entries]

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def det(self):
        """Determinant by cofactor expansion along the sparsest row/column."""
        assert self.rows == self.cols
        return _det(self.entries, self.nvars)

    def adjugate(self):
        """adj(M) with M · adj(M) = det(M) · Id as an exact identity."""
        assert self.rows == self.cols
        m = self.rows
        if m == 1:
            return MatrixPolynomial.identity(1, self.nvars)
        cof = []
        for i in range(m):
            row = []
            for j in range(m):
                minor = [
                    [self.entries[r][c] for c in range(m) if c != j]
                    for r in range(m)
                    if r != i
                ]
                d = _det(minor, self.nvars)
                row.append(d if (i + j) % 2 == 0 else -d)
            cof.append(row)
        return MatrixPolynomial(cof).transpose()

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(p) for p in row) for row in self.entries
        )
        return f"MatrixPolynomial[{body}]"


def _det(entries, nvars):
    m = len(entries)
    if m == 1:
        return entries[0][0]
    if m == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    # expand along the row with the most zero entries to prune the recursion
    best_row = max(range(m), key=lambda i: sum(p.is_zero() for p in entries[i]))
    total = Polynomial.zero(nvars)
    for j in range(m):
        p = entries[best_row][j]
        if p.is_zero():
            continue
        minor = [
            [entries[r][c] for c in range(m) if c != j]
            for r in range(m)
            if r != best_row
        ]
        sub = _det(minor, nvars)
        term = p * sub
        total = total + (term if (best_row + j) % 2 == 0 else -term)
    return total
