"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction; vectors are tuples of Fraction; int
entries are accepted wherever a matrix is read. One fraction-free elimination
(`_echelon`, in ints) lies behind RREF, kernels, solves and subspaces.
Subspaces are kept in reduced row echelon form so equality is structural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OversizedInputError

MAX_KERNEL_ENTRIES = 2**16  # entries of one `nullspace` basis; tests and benchmark need 462

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


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


def _echelon(a):
    """Fraction-free row echelon form of a rational matrix. Each row is scaled
    to its primitive int multiple, then eliminated by Bareiss (Math. Comp. 22
    (1968)), skipping columns without a pivot, so every division is exact.
    Returns (int rows, pivot columns); rows past the pivots are zero."""
    m = [list(primitive(row)) for row in a]
    pivots, prev = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top, piv = m[r], m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(piv * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = piv
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def _reduce(m, pivots):
    """Clear above each pivot of an echelon form from `_echelon`, in ints and in
    place, so that row i becomes d times row i of the RREF; returns d, the last
    pivot. Each division is exact: d·RREF is integral by Cramer's rule."""
    if not pivots:
        return 1
    d = m[len(pivots) - 1][pivots[-1]]
    for i in range(len(pivots) - 2, -1, -1):
        row = m[i]
        acc = [d * x for x in row]
        for k in range(i + 1, len(pivots)):
            f = row[pivots[k]]
            if f:
                acc = [x - f * y for x, y in zip(acc, m[k])]
        m[i] = [x // row[pivots[i]] for x in acc]
    return d


def rref(a):
    """Reduced row echelon form. Returns (new matrix, pivot column list)."""
    m, pivots = _echelon(a)
    d = _reduce(m, pivots)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def nullspace(a, ncols=None):
    """Canonical basis (RREF rows) of {x : a x = 0}. `ncols` needed when a is empty.
    Where every column has a pivot this is [] with no back-substitution. A basis of
    over MAX_KERNEL_ENTRIES entries is refused once the rank is known, before it is built."""
    if not a:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        _check_kernel(ncols, ncols)
        return [tuple(row) for row in identity(ncols)]
    ncols = len(a[0])
    m, pivots = _echelon(a)
    if len(pivots) == ncols:
        return []
    _check_kernel(ncols - len(pivots), ncols)
    d = _reduce(m, pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = d
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return [tuple(row) for row in rref(basis)[0]]


def _check_kernel(dim, ncols):
    if dim * ncols > MAX_KERNEL_ENTRIES:
        raise OversizedInputError(
            f"a kernel of dimension {dim} in {ncols} unknowns has {dim * ncols} entries, "
            f"over the budget of {MAX_KERNEL_ENTRIES}")


def solve(a, b):
    """One exact solution of a x = b, free variables set to 0; None if inconsistent."""
    if not a:
        return None
    ncols = len(a[0])
    r, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)])
    if pivots and pivots[-1] == ncols:  # pivot in the augmented column
        return None
    x = [_ZERO] * ncols
    for i, p in enumerate(pivots):
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
    canon, pivots = rref(b)
    basis = canon[:len(pivots)]
    if not basis:
        dim = len(b[0]) if b else 0
        return [[_ZERO] * dim for _ in range(dim)]
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
        canon, pivots = rref(list(vectors))
        return cls(ambient_dim, tuple(tuple(row) for row in canon[:len(pivots)]))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, tuple(nullspace([], ambient_dim)))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def contains(self, v):
        """The basis rows are independent, so v lies in the span iff appending it
        leaves the rank at dim."""
        return len(_echelon([*self.basis, v])[1]) == self.dim

    def orthogonal_complement(self):
        return Subspace(self.ambient_dim, tuple(nullspace(self.basis, self.ambient_dim)))

    def intersect(self, other):
        """Exact intersection via the kernel of the stacked orthogonal complements."""
        assert self.ambient_dim == other.ambient_dim
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        stacked = [*self.orthogonal_complement().basis, *other.orthogonal_complement().basis]
        return Subspace(self.ambient_dim, tuple(nullspace(stacked, self.ambient_dim)))

    def to_json(self):
        return [[str(x) for x in row] for row in self.basis]
