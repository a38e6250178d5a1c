"""Constant-coefficient differential operators and their symbol calculus.

An operator is stored as a map multi-index -> coefficient matrix (target x
source, exact rationals). The symbol uses the real convention ξ^α — no factor
of i^|α| — so kernels and images match the constant-coefficient theory while
staying inside rational arithmetic. Rows of mixed degree are admissible; many
operations require a single common order and say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .conditions import is_elliptic, isotropic_moment_matrix
from .errors import DimensionMismatchError, NotEllipticError, NotHomogeneousError
from .poly import MatrixPolynomial, monomials_of_degree
from .ratlinalg import injective, nullspace, primitive, transpose

MultiIndex = tuple


def _freeze_matrix(mat):
    return tuple(tuple(Fraction(x) for x in row) for row in mat)


@dataclass
class OperatorSpec:
    """A homogeneous-by-row differential operator from R^source to R^target."""

    space_dim: int
    source_dim: int
    target_dim: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for alpha, mat in self.coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            assert len(alpha) == self.space_dim
            frozen = _freeze_matrix(mat)
            assert len(frozen) == self.target_dim
            assert all(len(row) == self.source_dim for row in frozen)
            if any(x != 0 for row in frozen for x in row):
                clean[alpha] = frozen
        self.coeffs = clean

    # -- structure ---------------------------------------------------------

    @cached_property
    def row_degrees(self):
        """Degree of each row, a tuple; None for an identically zero row.

        Raises NonHomogeneousRow-style ValueError if some row mixes degrees;
        parsing enforces this, so reaching it means a construction bug.
        """
        degs = [None] * self.target_dim
        for alpha, mat in self.coeffs.items():
            d = sum(alpha)
            for j in range(self.target_dim):
                if any(x != 0 for x in mat[j]):
                    if degs[j] is None:
                        degs[j] = d
                    elif degs[j] != d:
                        raise ValueError(f"row {j + 1} mixes degrees {degs[j]} and {d}")
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

    # -- symbol data, each built on first use and kept ------------------------

    def symbol(self):
        """Matrix-valued polynomial A(ξ) = Σ C_α ξ^α (real convention)."""
        return self._symbol

    @cached_property
    def _symbol(self):
        return MatrixPolynomial.from_coeffs(self.coeffs, self.target_dim, self.source_dim, self.space_dim)

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
        """The nonzero entries (i, j, c·C_α[i][j]) of each c·C_α."""
        c = math.lcm(*(x.denominator for m in self.coeffs.values() for row in m for x in row))
        return {alpha: [(i, j, x.numerator * (c // x.denominator)) for i, row in enumerate(m)
                        for j, x in enumerate(row) if x] for alpha, m in self.coeffs.items()}

    def kernel_at(self, xi):
        """The canonical kernel vector of A at `primitive(ξ)`, None where A is
        injective. A(cξ) is A(ξ) with its rows scaled by powers of c, so the
        answer holds on the whole line through ξ, and each line is evaluated once.
        Injectivity is decided in ints (`injective`); only a hit runs the RREF."""
        p = primitive(xi)
        if p not in self._kernels:
            m = self.value_at(p)
            self._kernels[p] = None if injective(m) else primitive(nullspace(m)[0])
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
        return self.is_homogeneous() and OperatorSpec(
            self.space_dim, self.target_dim, self.source_dim,
            {alpha: transpose(m) for alpha, m in self.coeffs.items()}).isotropic

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
        """The operator whose entry (i, j) is Σ c·ξ^α over the (α, i, j, c) of
        `terms`; C_α is built at the first term of each α, and terms add up."""
        coeffs = {}
        for alpha, i, j, c in terms:
            mat = coeffs.get(alpha)
            if mat is None:
                mat = coeffs[alpha] = [[0] * source_dim for _ in range(target_dim)]
            mat[i][j] += c
        return cls(space_dim, source_dim, target_dim, coeffs)

    @classmethod
    def from_symbol(cls, mp, space_dim=None):
        """Recover the coefficient map from a matrix polynomial."""
        n = space_dim if space_dim is not None else mp.nvars
        assert n == mp.nvars
        return cls.from_terms(n, mp.cols, mp.rows, (
            (alpha, i, j, c) for i, row in enumerate(mp.entries) for j, p in enumerate(row)
            for alpha, c in p.terms.items()))


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
    and the minimal degree 2k; it is used whenever applicable.
    """
    a.require_elliptic()
    s, g = a.symbol(), a.gram
    q = g.entries[0][0]
    if g == MatrixPolynomial.scalar_identity(q, g.rows):
        lb = MatrixPolynomial.scalar_identity(q, a.target_dim) - s * s.transpose()
    else:
        lb = MatrixPolynomial.scalar_identity(a.gram_det, a.target_dim) - s * a.pinv_numerator
    return OperatorSpec.from_symbol(lb, a.space_dim)


def homogenize(c, target_degree=None):
    """Pad each row to a common degree by all monomial multiples.

    Row j of degree d_j is replaced by the block of rows ξ^γ · C_j(ξ) over all
    |γ| = l − d_j; the pointwise kernel of the symbol is preserved for any
    l >= max_j d_j, and l defaults to that maximum. Rows are emitted grouped
    by original row, γ in descending lex order, so an already-homogeneous
    operator comes back structurally equal.
    """
    degs = c.row_degrees
    l = max((d for d in degs if d is not None), default=0)
    if target_degree is not None:
        if target_degree < l:
            raise ValueError(
                f"target degree {target_degree} below the maximal row degree {l}"
            )
        l = target_degree
    n = c.space_dim
    row_gammas = [monomials_of_degree(n, 0 if d is None else l - d) for d in degs]
    row_offset = list(accumulate((len(g) for g in row_gammas), initial=0))
    terms = []
    for alpha, mat in c.coeffs.items():
        for j, row in enumerate(mat):
            for gi, gamma in enumerate(row_gammas[j]):
                beta = tuple(x + y for x, y in zip(alpha, gamma))
                terms += [(beta, row_offset[j] + gi, i, x) for i, x in enumerate(row) if x]
    return OperatorSpec.from_terms(n, c.source_dim, row_offset[-1], terms)
