"""Constant-coefficient differential operators and their symbol calculus.

An operator is held as its symbol, the matrix polynomial A(ξ) = Σ C_α ξ^α
(target x source, exact rationals); the dense C_α are a view derived from it
for the few readers of whole matrices. The symbol uses the real convention
ξ^α — no factor of i^|α| — so kernels and images match the constant-coefficient
theory while staying inside rational arithmetic. Rows of mixed degree are
admissible; many operations require a single common order and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .conditions import is_elliptic, isotropic_moment_matrix
from .errors import DimensionMismatchError, NotEllipticError, NotHomogeneousError, OversizedInputError
from .poly import MatrixPolynomial, Polynomial, monomials_of_degree
from .ratlinalg import nullspace, primitive, transpose

MAX_COEFF_ENTRIES = 2**18  # entries of all the C_α of one `from_terms` operator; tests and benchmark need 22,990


class OperatorSpec:
    """A homogeneous-by-row differential operator from R^source to R^target."""

    def __init__(self, space_dim, source_dim, target_dim, coeffs=None):
        """The operator Σ C_α ξ^α of a map α -> C_α, each C_α target × source."""
        self._symbol = MatrixPolynomial.from_coeffs(coeffs or {}, target_dim, source_dim, space_dim)
        self.space_dim, self.source_dim, self.target_dim = space_dim, source_dim, target_dim

    def __eq__(self, other):
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return self.space_dim == other.space_dim and self._symbol == other._symbol

    # -- structure ---------------------------------------------------------

    @cached_property
    def row_degrees(self):
        """Degree of each row, a tuple; None for an identically zero row. A row of
        mixed degrees, which parsing refuses, is a construction bug (ValueError)."""
        degs = []
        for j, row in enumerate(self._symbol.entries):
            d = {sum(alpha) for p in row for alpha in p.terms}
            if len(d) > 1:
                raise ValueError(f"row {j + 1} mixes degrees {sorted(d)}")
            degs.append(d.pop() if d else None)
        return tuple(degs)

    def is_homogeneous(self):
        degs = {d for d in self.row_degrees if d is not None}
        return len(degs) <= 1

    @property
    def order(self):
        """The single common order; NotHomogeneous if rows differ."""
        degs = {d for d in self.row_degrees if d is not None}
        if not degs:
            return 0
        if len(degs) > 1:
            raise NotHomogeneousError(
                f"operator has mixed row degrees {sorted(degs)}"
            )
        return degs.pop()

    # -- the symbol, and the data built from it on first use and kept ---------

    def symbol(self):
        """Matrix-valued polynomial A(ξ) = Σ C_α ξ^α (real convention), as stored."""
        return self._symbol

    def _terms(self):
        """(α, i, j, c) for each nonzero term c·ξ^α of each entry (i, j) of A(ξ)."""
        return ((alpha, i, j, c) for i, row in enumerate(self._symbol.entries) for j, p in enumerate(row)
                for alpha, c in p.terms.items())

    @cached_property
    def coeffs(self):
        """The dense C_α, α -> target × source tuple of Fractions, α in descending
        order: a read-only view of the symbol for the readers of whole matrices."""
        mats = {}
        for alpha, i, j, c in self._terms():
            if alpha not in mats:
                mats[alpha] = [[Fraction(0)] * self.source_dim for _ in range(self.target_dim)]
            mats[alpha][i][j] = c
        return {alpha: tuple(map(tuple, mats[alpha])) for alpha in sorted(mats, reverse=True)}

    @cached_property
    def gram(self):
        """G(ξ) = A*(ξ) A(ξ): square, symmetric, homogeneous of degree 2k."""
        s = self.symbol()
        return s.transpose() * s

    @cached_property
    def gram_det(self):
        """det G(ξ); it vanishes exactly where A(ξ) fails to be injective."""
        return self.gram.det()

    @cached_property
    def pinv_numerator(self):
        """N(ξ) = adj G(ξ)·A*(ξ), so that A†(ξ) = N(ξ) / det G(ξ)."""
        return self.gram.adjugate() * self.symbol().transpose()

    def value_at(self, xi):
        """c·A(ξ) = Σ ξ^α (c·C_α) in ints at an integer point, c the common
        denominator of the coefficients: it has the kernel and image of A(ξ)."""
        out = [[0] * self.source_dim for _ in range(self.target_dim)]
        for alpha, entries in self._int_coeffs.items():
            w = math.prod(x**e for x, e in zip(xi, alpha) if e)
            if w:
                for i, j, c in entries:
                    out[i][j] += w * c
        return out

    @cached_property
    def _int_coeffs(self):
        """α -> the nonzero entries (i, j, c·C_α[i][j]) of c·C_α, read off the symbol."""
        c = math.lcm(*(x.denominator for *_, x in self._terms()))
        table = {}
        for alpha, i, j, x in self._terms():
            table.setdefault(alpha, []).append((i, j, x.numerator * (c // x.denominator)))
        return table

    def kernel_at(self, xi):
        """The canonical kernel vector of A at `primitive(ξ)`, None where A is
        injective. A(cξ) is A(ξ) with its rows scaled by powers of c, so the
        answer holds on the whole line through ξ, and each line is evaluated once.
        `nullspace` eliminates c·A(ξ) in ints and returns [] at once where every
        column has a pivot; only a kernel is back-substituted."""
        p = primitive(xi)
        if p not in self._kernels:
            ker = nullspace(self.value_at(p))
            self._kernels[p] = primitive(ker[0]) if ker else None
        return self._kernels[p]

    @cached_property
    def _kernels(self):
        return {}

    def lattice(self):
        """Λ_D = {α ∈ ℕⁿ : |α| = D}, D = dim V · max row degree. Each dim V-minor of
        A (and, for one order, each (dim V + 1)-minor of [A(ξ) | v]) times
        (Σξ_i)^(D − its degree) is a degree-D form, and Λ_D is unisolvent for
        those (Nicolaides, SIAM J. Numer. Anal. 9 (1972)): zero on Λ_D means ≡ 0."""
        k = max((d for d in self.row_degrees if d is not None), default=0)
        return monomials_of_degree(self.space_dim, self.source_dim * k)

    @cached_property
    def degenerate(self):
        """det G ≡ 0, exactly. det G is the sum of the squared dim V-minors of A
        (Cauchy–Binet), so it vanishes identically iff A(α) is singular at
        every α ∈ Λ_D."""
        return all(self.kernel_at(alpha) is not None for alpha in self.lattice())

    @cached_property
    def isotropic(self):
        """G(ξ) = |ξ|^2k·G(e₁), exactly, with G = (c·A)ᵀ(c·A) from `value_at`; False
        for mixed row degrees. Both sides are forms of degree 2k, so agreement on Λ_2k
        suffices (as in `lattice`). The points with the most nonzero coordinates come
        first, and the walk stops at the first point that differs."""
        def gram(xi):
            cols = transpose(self.value_at(xi))
            return [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]

        if not self.is_homogeneous():
            return False
        k, n = self.order, self.space_dim
        g1 = gram((1,) + (0,) * (n - 1))
        return all(
            gram(alpha) == [[sum(x * x for x in alpha) ** k * g for g in row] for row in g1]
            for alpha in sorted(monomials_of_degree(n, 2 * k), key=lambda al: -sum(map(bool, al)))
        )

    @cached_property
    def isotropic_moments(self):
        """`isotropic_moment_matrix`, the exact M / π^(n/2) of an isotropic elliptic
        operator: the one M that `check` and `moment_map` read."""
        return isotropic_moment_matrix(self)

    @cached_property
    def rows_isotropic(self):
        """A(ξ)A(ξ)ᵀ = |ξ|^2k·A(e₁)A(e₁)ᵀ, exactly: `isotropic` of the transpose Aᵀ,
        whose entries share the one order k of the rows of A."""
        return self.is_homogeneous() and OperatorSpec.from_symbol(self._symbol.transpose()).isotropic

    @cached_property
    def float_symbol(self):
        """`quadrature.float_symbol` of this operator, compiled on first use."""
        from .quadrature import float_symbol  # the numeric layer (numpy)

        return float_symbol(self)

    @cached_property
    def ellipticity(self):
        """The `is_elliptic` verdict, the one that `check` reports."""
        return is_elliptic(self)

    def require_elliptic(self):
        """Guard of `annihilator` and `moment_map`: NotEllipticError when det G ≡ 0
        or when `ellipticity` is a No, with its witness and kernel vector."""
        if self.degenerate:
            raise NotEllipticError("det(A*A) vanishes identically")
        v = self.ellipticity
        if v.status == "no":
            xi = tuple(str(x) for x in v.witness_xi)
            raise NotEllipticError(f"det(A*A) vanishes {'at' if v.witness_exact else 'near'} ξ = {xi}",
                                   witness_xi=v.witness_xi, kernel_vector=v.kernel_vector)

    @classmethod
    def from_terms(cls, space_dim, source_dim, target_dim, terms):
        """The operator whose entry (i, j) is Σ c·ξ^α over the (α, i, j, c) of `terms`;
        terms add up. It is refused before its symbol is built if its #α dense C_α
        (one for the zero operator) would take the entries over MAX_COEFF_ENTRIES."""
        entries = {}
        for alpha, i, j, c in terms:
            entry = entries.setdefault((i, j), {})
            entry[alpha] = entry.get(alpha, 0) + c
        size = target_dim * source_dim
        if max(len({alpha for entry in entries.values() for alpha in entry}), 1) * size > MAX_COEFF_ENTRIES:
            count = MAX_COEFF_ENTRIES // size + 1  # the first count over the budget
            raise OversizedInputError(
                f"{count} coefficient matrices of {target_dim} × {source_dim} have "
                f"{count * size} entries, over the budget of {MAX_COEFF_ENTRIES}")
        return cls.from_symbol(MatrixPolynomial([[Polynomial(space_dim, entries.get((i, j))) for j in range(source_dim)]
                                                 for i in range(target_dim)]))

    @classmethod
    def from_symbol(cls, mp):
        """The operator of the matrix polynomial `mp`, stored as given."""
        op = cls.__new__(cls)
        op._symbol, op.space_dim, op.source_dim, op.target_dim = mp, mp.nvars, mp.cols, mp.rows
        return op


@dataclass
class SystemSpec:
    """A u = f subject to C f = 0; C may be absent (no constraint)."""

    a: OperatorSpec
    c: OperatorSpec | None
    n: int

    def __post_init__(self):
        if self.a.space_dim != self.n:
            raise DimensionMismatchError(
                f"operator space dimension {self.a.space_dim} != declared dim {self.n}"
            )
        if self.c is not None:
            if self.c.space_dim != self.n:
                raise DimensionMismatchError(
                    f"constraint space dimension {self.c.space_dim} != declared dim {self.n}"
                )
            if self.a.target_dim != self.c.source_dim:
                raise DimensionMismatchError(
                    f"operator target dimension {self.a.target_dim} != "
                    f"constraint source dimension {self.c.source_dim}"
                )


# -- symbol-level operations ------------------------------------------------


def annihilator(a):
    """L with ker L(ξ) = im A(ξ) wherever det G(ξ) ≠ 0, for a single-order A that
    `check` does not report as not elliptic (NotElliptic otherwise).

    L(ξ) = det G(ξ)·Id − A(ξ)·N(ξ) with N = adj G·A*. When G(ξ) is a scalar
    polynomial q(ξ) times the identity, the reduced form
    L(ξ) = q(ξ)·Id − A(ξ)A*(ξ) has the same kernel at every ξ with q(ξ) ≠ 0
    and the minimal degree 2k; it is used whenever applicable. A square A has
    A·adj(AᵀA)·Aᵀ = det(A)²·Id = det G·Id, so L ≡ 0 without any expansion.
    """
    a.require_elliptic()
    if a.source_dim == a.target_dim:
        return OperatorSpec(a.space_dim, a.target_dim, a.target_dim)
    s, g = a.symbol(), a.gram
    q = g.entries[0][0]
    if g == MatrixPolynomial.scalar_identity(q, g.rows):
        lb = MatrixPolynomial.scalar_identity(q, a.target_dim) - s * s.transpose()
    else:
        lb = MatrixPolynomial.scalar_identity(a.gram_det, a.target_dim) - s * a.pinv_numerator
    return OperatorSpec.from_symbol(lb)


def homogenize(c):
    """Pad each row to a common degree by all monomial multiples.

    Row j of degree d_j is replaced by the block of rows ξ^γ · C_j(ξ) over all
    |γ| = l − d_j, l = max_j d_j; this preserves the pointwise kernel of the
    symbol. Rows are emitted grouped by original row, γ in descending lex
    order, so an already-homogeneous operator comes back structurally equal.
    """
    degs = c.row_degrees
    l = max((d for d in degs if d is not None), default=0)
    n = c.space_dim
    rows = [(gamma, row) for row, d in zip(c.symbol().entries, degs)
            for gamma in monomials_of_degree(n, 0 if d is None else l - d)]
    terms = [(tuple(x + y for x, y in zip(alpha, gamma)), r, i, x) for r, (gamma, row) in enumerate(rows)
             for i, p in enumerate(row) for alpha, x in p.terms.items()]
    return OperatorSpec.from_terms(n, c.source_dim, len(rows), terms)
