"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are tuples of Fraction.
Subspaces are kept in reduced row echelon form so equality is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Vec = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def as_fraction_vector(v):
    return tuple(Fraction(x) for x in v)


def primitive(v):
    """The primitive integer multiple of a rational vector (int or Fraction
    entries) whose first nonzero coordinate is positive, as a tuple of ints;
    0 stays 0."""
    d = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    g = math.gcd(*ints) or 1
    g = -g if next((x for x in ints if x), 0) < 0 else g
    return tuple(x // g for x in ints)


def identity(m):
    return [[_ONE if i == j else _ZERO for j in range(m)] for i in range(m)]


def zeros(r, c):
    return [[_ZERO] * c for _ in range(r)]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    if not a or not b:
        return []
    n_inner = len(b)
    assert all(len(row) == n_inner for row in a)
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), _ZERO) for col in bt] for row in a]


def mat_vec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), _ZERO) for row in a)


def rref(a):
    """Reduced row echelon form. Returns (new matrix, pivot column list)."""
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
        inv = _ONE / m[r][c]
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


def injective(a):
    """Whether the int matrix a has full column rank, by fraction-free Bareiss
    elimination (Math. Comp. 22 (1968)): each column, in order, needs a pivot."""
    m, prev = [list(row) for row in a], 1
    for k in range(len(m[0])):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            return False
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, len(m)):
            m[i] = [(m[k][k] * x - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return True


def nullspace(a, ncols=None):
    """Canonical basis (RREF rows) of {x : a x = 0}. `ncols` needed when a is empty."""
    if not a:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        return [tuple(row) for row in identity(ncols)]
    ncols = len(a[0])
    r, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    if not basis:
        return []
    canon, _ = rref(basis)
    return [tuple(row) for row in canon if any(x != 0 for x in row)]


def solve(a, b):
    """One exact solution of a x = b, free variables set to 0; None if inconsistent."""
    if not a:
        return None
    ncols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    r, pivots = rref(aug)
    for row in r:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [_ZERO] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:  # pivot in the augmented column: inconsistent
            return None
        x[p] = r[i][-1]
    return tuple(x)


def inverse(a):
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in r]


def projection_onto_rowspace(b):
    """Orthogonal projection of the ambient space onto the row space of b (exact)."""
    rows = [row for row in b if any(x != 0 for x in row)]
    if not rows:
        dim = len(b[0]) if b else 0
        return zeros(dim, dim)
    canon, _ = rref(rows)
    basis = [row for row in canon if any(x != 0 for x in row)]
    bt = transpose(basis)
    gram = mat_mul(basis, bt)
    return mat_mul(mat_mul(bt, inverse(gram)), basis)


@dataclass(frozen=True)
class Subspace:
    """A rational subspace with its canonical (reduced row echelon) basis."""

    ambient_dim: int
    basis: tuple

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        vecs = [list(as_fraction_vector(v)) for v in vectors]
        vecs = [v for v in vecs if any(x != 0 for x in v)]
        if not vecs:
            return cls(ambient_dim, ())
        canon, _ = rref(vecs)
        rows = tuple(tuple(row) for row in canon if any(x != 0 for x in row))
        return cls(ambient_dim, rows)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls.from_vectors(ambient_dim, identity(ambient_dim))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, v):
        v = as_fraction_vector(v)
        if all(x == 0 for x in v):
            return True
        if not self.basis:
            return False
        stacked = [list(row) for row in self.basis]
        before = len(rref(stacked)[1])
        stacked.append(list(v))
        return len(rref(stacked)[1]) == before

    def orthogonal_complement(self):
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        return Subspace.from_vectors(
            self.ambient_dim, nullspace([list(r) for r in self.basis])
        )

    def intersect(self, other):
        """Exact intersection via the kernel of the stacked orthogonal complements."""
        assert self.ambient_dim == other.ambient_dim
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        stacked = [list(r) for r in self.orthogonal_complement().basis]
        stacked += [list(r) for r in other.orthogonal_complement().basis]
        if not stacked:
            return Subspace.full(self.ambient_dim)
        return Subspace.from_vectors(self.ambient_dim, nullspace(stacked))

    def to_json(self):
        return [[str(x) for x in row] for row in self.basis]
