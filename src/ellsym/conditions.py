"""Deciders for ellipticity and the cancellation-type compatibility conditions.

The continuum intersections ⋂_{ξ≠0} ker C(ξ) and ⋂_{ξ≠0} im A(ξ) are reduced
to finite exact linear algebra: the first is the common kernel of the
coefficient matrices of C; the second is the exact intersection of im A(α)
over the principal lattice Λ_D, D = dim V·k, on which the degree-D minors
that decide membership vanish only if they vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, product

from . import sturm
from .errors import (
    HypothesisFailedError,
    NearSingularSymbolError,
    NotEllipticError,
    NotHomogeneousError,
    OrderTooLowError,
    QuadratureNotConvergedError,
)
from .poly import MatrixPolynomial, monomials_of_degree, multinomial
from .ratlinalg import (
    Subspace,
    as_fraction_matrix,
    gram_det,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    primitive,
    rref,
    transpose,
)

WEAK_ZERO_TOL = 1e-8  # fixed: |M e| <= it * area * max-node integrand norm, after two levels agree to it

NONELLIPTIC_CONSTRAINT_DIAGNOSTIC = (
    "operator is not elliptic although a constrained system in the k >= n "
    "regime was supplied; the boundedness analysis assumes ellipticity, so "
    "I_A and the verdicts built on it were skipped. This matches the known "
    "discrepancy in the bundled fourth-order quartic system on R^4 (see "
    "README): the reported verdict and witnesses are the computed facts, "
    "no intended operator is guessed."
)


# -- ellipticity --------------------------------------------------------------


@dataclass
class EllipticityVerdict:
    """Yes / No(witness) / NumericallyPositive(min) / Inconclusive."""

    status: str  # "yes" | "no" | "numerically_positive" | "inconclusive"
    witness_xi: tuple | None = None
    kernel_vector: tuple | None = None
    witness_exact: bool = False
    min_normalized: float | None = None
    extra_witnesses: list = field(default_factory=list)
    note: str = ""
    # identically_zero | source_exceeds_target | isotropic | axis_candidate | sturm | sampled
    decided_by: str | None = None

    def to_json(self):
        d = {"status": self.status}
        if self.decided_by:
            d["decided_by"] = self.decided_by
        if self.witness_xi is not None:
            d["witness_xi"] = [str(x) for x in self.witness_xi]
            d["witness_exact"] = self.witness_exact
        if self.kernel_vector is not None:
            d["kernel_vector"] = [str(x) for x in self.kernel_vector]
        if self.extra_witnesses:
            d["extra_witnesses"] = [
                {
                    "xi": [str(x) for x in xi],
                    "kernel_vector": [str(x) for x in v] if v else None,
                }
                for xi, v in self.extra_witnesses
            ]
        if self.min_normalized is not None:
            d["min_normalized"] = self.min_normalized
        if self.note:
            d["note"] = self.note
        return d


def _axis_and_sign_candidates(n):
    """Exact candidate points: basis vectors, then, for n <= 7, the {-1,0,1}
    patterns; each pattern comes before its mirror, as 1 comes before -1."""
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if n > 7:  # 3^n - 1 patterns
        return axes
    return axes + [p for p in product((0, 1, -1), repeat=n) if any(p) and p not in axes]


def is_elliptic(a):
    """Decide injectivity of A(ξ) for all ξ ≠ 0.

    Exact when det G ≡ 0 (`a.degenerate`), when G(ξ) = |ξ|^2k·G(e₁) (`a.isotropic`,
    every n = 1 operator among them), at an axis/sign candidate, and by a Sturm
    count on det G(1, t), evaluated in ints, for n = 2. Otherwise (n >= 3) a semi-decision
    on det(A(ξ)ᵀA(ξ)) by the numeric layer (`quadrature.sampled_ellipticity`).
    """
    if not a.is_homogeneous():
        raise NotHomogeneousError("ellipticity requires a single-order operator")
    n = a.space_dim
    if a.source_dim > a.target_dim:  # rank A(ξ) <= dim E < dim V everywhere
        note, by = "target dimension below source dimension", "source_exceeds_target"
    elif a.degenerate:
        note, by = "det(A*A) vanishes identically", "identically_zero"
    else:
        note = None
    if note:
        e1 = tuple(int(i == 0) for i in range(n))
        return EllipticityVerdict("no", witness_xi=e1, kernel_vector=a.kernel_at(e1),
                                  witness_exact=True, note=note, decided_by=by)
    if a.isotropic:  # det G(ξ) = |ξ|^(2k·dim V)·det G(e₁), and det G ≢ 0
        return EllipticityVerdict("yes", decided_by="isotropic")

    # exact witnesses at axis/sign points first (cheap, and they exist for
    # every non-elliptic example in the bundled systems); a mirror, listed
    # after its pair, is on the same line, so `kernel_at` evaluates it once
    candidates = _axis_and_sign_candidates(n)
    exact_hits = [(xi, v) for xi in candidates if (v := a.kernel_at(xi)) is not None]
    if exact_hits:
        (xi0, v0), rest = exact_hits[0], exact_hits[1:]
        return EllipticityVerdict(
            "no",
            witness_xi=xi0,
            kernel_vector=v0,
            witness_exact=True,
            extra_witnesses=rest,
            decided_by="axis_candidate",
        )

    if n == 2:
        return replace(_is_elliptic_2d(a), decided_by="sturm")
    from .quadrature import sampled_ellipticity  # the numeric layer (numpy)

    return replace(sampled_ellipticity(a), decided_by="sampled")


def _is_elliptic_2d(a):
    """Exact decision on the circle: Sturm count of det G(1, t), a positive multiple
    read off one integer evaluation (`_det_gram_on_line`); nothing is expanded. The rest
    of the circle, ξ1 = 0, is the axis candidate (0, 1) already found injective."""
    hit = sturm.isolate_a_root(_det_gram_on_line(a))
    if hit is None:
        return EllipticityVerdict("yes")
    if hit[0] == "exact":
        xi = primitive((1, hit[1]))
        return EllipticityVerdict(
            "no", witness_xi=xi, kernel_vector=a.kernel_at(xi), witness_exact=True
        )
    from .quadrature import numeric_kernel  # the numeric layer (numpy)

    lo, hi = hit[1], hit[2]
    mid = (lo + hi) / 2
    return EllipticityVerdict(
        "no",
        witness_xi=(1, mid),
        kernel_vector=numeric_kernel(a, (1.0, float(mid))),
        witness_exact=False,
        note=f"real zero of det G isolated in ({float(lo)}, {float(hi)}); "
        "no small-denominator rational zero found",
    )


def _det_gram_on_line(a):
    """The int coefficients, lowest degree first, of c^(2·dim V)·det G(1, t) (c clears
    the denominators in `value_at`): the balanced base-B digits of one integer det G_c(1, B),
    G_c = (c·A)ᵀ(c·A) (Kronecker substitution; von zur Gathen & Gerhard, Modern Computer
    Algebra, §8.4). With N_ri = Σ_α |c·C_α[r][i]|, the ℓ1 norm of entry (r, i) of c·A(1, t),
    and H = NᵀN, each coefficient is at most ‖det G_c(1, t)‖₁ <= perm H <= M = Π_i Σ_j H_ij,
    so B = 2M + 1 makes the digits unique. det G ≢ 0 (`degenerate`), and a binary form
    vanishing on ξ₁ = 1 vanishes everywhere, so the digits end at the leading coefficient."""
    norms = [[0] * a.source_dim for _ in range(a.target_dim)]
    for r, i, x in chain(*a.int_coeffs.values()):
        norms[r][i] += abs(x)
    bound = math.prod(sum(row[i] * sum(row) for row in norms) for i in range(a.source_dim))
    base, digits = 2 * bound + 1, []
    value = gram_det(a.gram_at((1, base)))
    while value:
        digits.append((value + bound) % base - bound)
        value = (value - digits[-1]) // base
    return digits


# -- subspace computations -----------------------------------------------------


def kernel_intersection(c):
    """K_C = ⋂_{ξ≠0} ker C(ξ), exactly.

    C(ξ)v vanishes identically iff every coefficient C_α v = 0, so K_C is the
    common kernel of the stacked coefficient matrices (all of the source
    space when C ≡ 0).
    """
    stacked = [
        list(row) for _, mat in sorted(c.coeffs.items(), reverse=True) for row in mat
    ]
    return Subspace(c.source_dim, tuple(nullspace(stacked, ncols=c.source_dim)))


def image_intersection(a):
    """I_A = ⋂_{ξ≠0} im A(ξ), exactly, as S = ⋂ im A(α) over Λ_D (`a.lattice()`).
    Where A(ξ) is injective, v ∈ im A(ξ) iff every (dim V + 1)-minor of
    [A(ξ) | v], a degree-D form, vanishes; zero on Λ_D, it vanishes identically.
    The walk raises NotEllipticError at the first singular A(α) and stops at
    S = {0}; a square operator has I_A = E once its first point passes."""
    if not a.is_homogeneous():
        raise NotHomogeneousError("I_A requires a single-order operator")
    square = a.source_dim == a.target_dim
    perp, basis = [], nullspace([], a.target_dim)  # S^⊥ spanned by perp; S by basis
    for alpha in a.lattice()[:1] if square else a.lattice():
        left = nullspace(transpose(a.value_at(alpha)))  # im A(α)^⊥ = ker A(α)ᵀ
        if len(left) != a.target_dim - a.source_dim:  # A(α) is not injective
            raise NotEllipticError(
                f"det(A*A) vanishes at ξ = {tuple(str(x) for x in alpha)}",
                witness_xi=alpha,
                kernel_vector=a.kernel_at(alpha),
            )
        perp += left
        basis = nullspace(perp, ncols=a.target_dim)
        if not basis:
            break
    return Subspace(a.target_dim, tuple(basis))


@dataclass
class CCResult:
    witness: tuple | None  # the first basis vector of I_A ∩ K_C; None when it is {0}
    image_intersection: Subspace
    kernel_intersection: Subspace

    @property
    def holds(self):
        return self.witness is None

    def to_json(self):
        d = {"holds": self.holds}
        if self.witness is not None:
            d["witness"] = [str(x) for x in self.witness]
        return d


def check_cc(system):
    """Condition (CC): I_A ∩ K_C = {0}. Witness = first canonical basis vector."""
    return _cc(image_intersection(system.a), _constraint_kernel(system))[0]


def _constraint_kernel(system):
    """K_C; all of E when the system has no constraint."""
    if system.c is None:
        return Subspace.full(system.a.target_dim)
    return kernel_intersection(system.c)


def _cc(i_a, k_c):
    """(CCResult, I_A ∩ K_C)."""
    isect = i_a.intersect(k_c)
    return CCResult(None if isect.is_zero() else isect.basis[0], i_a, k_c), isect


# -- weak cancellation ---------------------------------------------------------


@dataclass
class WeakCancellationResult:
    """|M e| over a basis: none for the zero subspace (method "vacuous"), exact
    ("isotropic") or from converged quadrature ("quadrature"), which alone has the
    scale, error and levels fields and reports the tolerance WEAK_ZERO_TOL."""

    holds: bool
    moments: list  # (basis vector, |M e|)
    method: str
    scale: float | None = None
    error_estimate: float | None = None
    levels: tuple | None = None

    @property
    def vacuous(self):
        return self.method == "vacuous"

    def to_json(self):
        d = {
            "holds": self.holds,
            "vacuous": self.vacuous,
            "method": self.method,
            "moments": [{"e": [str(x) for x in e], "norm": float(nrm)} for e, nrm in self.moments],
        }
        if self.method == "quadrature":
            d.update(integrand_scale=self.scale, error_estimate=self.error_estimate,
                     levels=list(self.levels), tolerance=WEAK_ZERO_TOL)
        return d


def check_weak_cancellation(a, subspace):
    """Vanishing of M_A on the given subspace (I_A, or I_A ∩ K_C for CWC).

    Vacuous on the zero subspace, with no moment computed. Exact for an isotropic
    operator (`isotropic_moment_matrix`). Otherwise the zero test is
    |M e| <= WEAK_ZERO_TOL * (sphere area) * max-node integrand norm, required
    after two quadrature refinements of M on E agree.
    """
    _require_moments(a)
    return _weak_verdicts(a, [subspace])[0]


def _require_moments(a):
    """Raise unless k >= n; `require_elliptic` refuses det G ≡ 0."""
    k, n = a.order, a.space_dim
    if k < n:
        raise OrderTooLowError(f"moment map needs order k >= n, got k={k}, n={n}")


def _weak_verdicts(a, subspaces):
    """The verdict on each subspace, every one read from one M on the standard basis
    of E, built only when a subspace is nonzero: exact for an isotropic operator,
    else by converged quadrature, whose `levels` and `error_estimate` describe all
    of E."""
    n, k = a.space_dim, a.order
    if all(s.is_zero() for s in subspaces):
        verdict = None
    elif a.isotropic and not a.degenerate:
        mats = a.isotropic_moments
        weights = [multinomial(k - n, g) for g in monomials_of_degree(n, k - n)]

        def verdict(basis):  # |M e / π^(n/2)|² in rationals
            sq = [sum(w * sum(x * x for x in mat_vec(m, e)) for w, m in zip(weights, mats))
                  for e in basis]
            moments = [(e, math.sqrt(s) * math.pi ** (n / 2)) for e, s in zip(basis, sq)]
            return WeakCancellationResult(not any(sq), moments, "isotropic")
    else:
        from .quadrature import converged_moments, surface_area  # the numeric layer (numpy)

        matrix, adag, err, rules = converged_moments(a)
        levels, bound = tuple(r.level for r in rules), WEAK_ZERO_TOL * surface_area(n)

        def verdict(basis):  # one column per basis vector e
            vectors = transpose([[float(x) for x in e] for e in basis])
            values, images = matrix @ vectors, adag @ vectors
            norms = (values * values).sum(axis=0) ** 0.5
            scales = (images * images).sum(axis=1).max(axis=0) ** 0.5  # max over ξ of |A†(ξ)e|
            holds = not any(nrm > bound * max(scl, 1e-300) for nrm, scl in zip(norms, scales))
            moments = list(zip(basis, map(float, norms)))
            return WeakCancellationResult(holds, moments, "quadrature", float(scales.max()),
                                          err, levels)

    return [WeakCancellationResult(True, [], "vacuous") if s.is_zero() else verdict(s.basis)
            for s in subspaces]


def isotropic_moment_matrix(a):
    """M / π^(n/2) on the standard basis of E as exact rationals: one V × E matrix per γ
    of `monomials_of_degree(n, k − n)` (the unweighted tensor components). On the sphere
    A†(ω) = G(e₁)⁻¹A(ω)ᵀ, so M = G(e₁)⁻¹ Σ_α C_αᵀ ∫ω^(α+γ) dσ, and for |β| = 2k − n
    ∫ω^β dσ = 2π^(n/2)/(k−1)!·∏(β_i − 1)!!/2^(β_i/2) when every β_i is even, else 0
    (Folland, Amer. Math. Monthly 108 (2001))."""
    n, k = a.space_dim, a.order
    a1 = a.coeffs[(k,) + (0,) * (n - 1)]  # A(e₁), injective
    g1_inv = inverse(mat_mul(transpose(a1), a1))
    scale = Fraction(2, math.factorial(k - 1) * 2 ** (k - n // 2))  # 2^(|β|/2) for even n

    def sphere(alpha, gamma):  # ∫ω^(α+γ) dσ / π^(n/2)
        beta = [x + y for x, y in zip(alpha, gamma)]
        if any(b % 2 for b in beta):
            return 0
        return scale * math.prod(math.prod(range(b - 1, 0, -2)) for b in beta)

    cts = [transpose(c) for c in a.coeffs.values()]  # C_αᵀ, V × E

    def integrated(gamma):  # Σ_α C_αᵀ ∫ω^(α+γ) dσ / π^(n/2)
        s = [sphere(al, gamma) for al in a.coeffs]
        return [[sum(w * ct[i][j] for w, ct in zip(s, cts)) for j in range(a.target_dim)]
                for i in range(a.source_dim)]

    return [mat_mul(g1_inv, integrated(g)) for g in monomials_of_degree(n, k - n)]


# -- left inverses and potentials ----------------------------------------------


@dataclass
class LeftInverseFamily:
    """Maps K_β with Σ K_β L_β = orthogonal projection onto im M*.

    Making the sum the *orthogonal* projection (not just any left inverse of
    the stacked map) is what lets the adjoint identity Σ L_β* K_β* = Id on
    im M* hold exactly as well.
    """

    order: int
    betas: list
    maps: dict  # β -> K_β as Fraction matrix (dim E x dim F)
    blocks: dict  # β -> L_β as Fraction matrix (dim F x dim E)
    target_subspace: Subspace  # im M* inside E
    projection: list  # Fraction matrix, orthogonal projection onto im M*

    def composite(self):
        dim = len(self.projection)
        acc = [[Fraction(0)] * dim for _ in range(dim)]
        for beta in self.betas:
            if beta in self.maps:
                prod = mat_mul(self.maps[beta], self.blocks[beta])
                acc = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, prod)]
        return acc


def left_inverse_family(op, m_matrix):
    """Exact K_β ∈ Lin(F, im M*) with Σ K_β L_β restricted to im M* = identity.

    Requires op homogeneous of a single order and M annihilating the common
    kernel ⋂_{ξ≠0} ker L(ξ) (HypothesisFailed otherwise).
    """
    order = op.order
    m_matrix = as_fraction_matrix(m_matrix)
    common = kernel_intersection(op)
    for v in common.basis:
        if any(x != 0 for x in mat_vec(m_matrix, v)):
            raise HypothesisFailedError(
                "M does not annihilate the common kernel of the operator symbol"
            )
    dim_e = op.source_dim
    dim_f = op.target_dim
    target = Subspace.from_vectors(dim_e, m_matrix)
    proj = target.projection()
    if target.is_zero():
        return LeftInverseFamily(order, [], {}, {}, target, proj)
    betas = sorted(monomials_of_degree(op.space_dim, order), reverse=True)
    blocks = {}
    t_rows = []
    row_index = []  # (β, row within block)
    for beta in betas:
        mat = op.coeffs.get(beta)
        if mat is None:
            blocks[beta] = tuple(tuple(Fraction(0) for _ in range(dim_e)) for _ in range(dim_f))
            continue
        blocks[beta] = mat
        for r in range(dim_f):
            if any(x != 0 for x in mat[r]):
                t_rows.append(list(mat[r]))
                row_index.append((beta, r))
    # solve Tᵀ Y = Π in one elimination of [Tᵀ | Π] (consistent because im M* ⊆ im Tᵀ)
    unknowns = len(t_rows)
    reduced, pivots = rref([t + p for t, p in zip(transpose(t_rows), proj)])
    if pivots and pivots[-1] >= unknowns:
        raise HypothesisFailedError(
            "projection column not in the row space of the stacked symbol "
            "coefficients (hypothesis violated)"
        )
    # K = Π Yᵀ split into β blocks: column p of K is Π times row p of Y, the Π block of the
    # pivot row of unknown p; free unknowns (Y row 0) and unreferenced rows of K_β stay zero
    maps = {beta: [[Fraction(0)] * dim_f for _ in range(dim_e)] for beta in betas if beta in op.coeffs}
    for i, p in enumerate(pivots):
        beta, r = row_index[p]
        for j, x in enumerate(mat_vec(proj, reduced[i][unknowns:])):
            maps[beta][j][r] = x
    maps = {b: tuple(tuple(row) for row in m) for b, m in maps.items()}
    fam = LeftInverseFamily(order, betas, maps, blocks, target, proj)
    assert fam.composite() == proj, "left-inverse construction inconsistency"
    return fam


@dataclass
class PotentialField:
    """P(x) = Σ x^β/β!·K_β*, an integral right inverse of the adjoint symbol."""

    matrix: MatrixPolynomial  # dim F x dim E polynomial in x
    family: LeftInverseFamily
    identity_checked: bool

    def adjoint_applied(self):
        """Σ L_β* ∂^β P, computed by exact symbolic differentiation."""
        dim_e = len(self.family.projection)
        nvars = self.matrix.nvars
        acc = MatrixPolynomial.zero(dim_e, dim_e, nvars)
        for beta in self.family.betas:
            block = self.family.blocks[beta]
            dbeta = MatrixPolynomial(
                [[p.diff(beta) for p in row] for row in self.matrix.entries]
            )
            lt = MatrixPolynomial.from_rational(transpose(block), nvars)
            acc = acc + lt * dbeta
        return acc


def potential_field(family):
    """Build P and verify L* P = Id on im M* symbolically (exact)."""
    dim_e = len(family.projection)
    dim_f = max((len(b) for b in family.blocks.values()), default=0)
    nvars = len(family.betas[0]) if family.betas else 1
    if dim_f == 0:
        matrix = MatrixPolynomial.zero(1, dim_e, nvars)
        return PotentialField(matrix, family, True)
    coeffs = {}  # β -> K_β*/β!
    for beta, k_beta in family.maps.items():
        fact = math.prod(map(math.factorial, beta))
        coeffs[beta] = [[x / fact for x in row] for row in transpose(k_beta)]
    matrix = MatrixPolynomial.from_coeffs(coeffs, dim_f, dim_e, nvars)
    field_obj = PotentialField(matrix, family, False)
    applied = field_obj.adjoint_applied()
    expected = MatrixPolynomial.from_rational(family.projection, nvars)
    if applied != expected:
        raise AssertionError("adjoint identity L*P = Id_{im M*} failed")
    # restriction to im M*: applied · q == q for every basis vector q
    for q in family.target_subspace.basis:
        image = mat_vec(applied.eval([Fraction(0)] * nvars), q)
        assert tuple(image) == tuple(q)
    field_obj.identity_checked = True
    return field_obj


# -- full report ----------------------------------------------------------------


@dataclass
class ConditionReport:
    """The full report; a verdict stays None when its analysis was skipped."""

    n: int
    order: int | None
    dims: dict
    kernel_basis: Subspace
    elliptic: EllipticityVerdict | None = None
    image_basis: Subspace | None = None
    cc: CCResult | None = None
    weak: WeakCancellationResult | None = None
    cwc: WeakCancellationResult | None = None
    diagnostics: list = field(default_factory=list)

    @property
    def canceling(self):
        """I_A = {0}; None when I_A was not computed."""
        return None if self.image_basis is None else self.image_basis.is_zero()

    @property
    def cocanceling(self):
        return self.kernel_basis.is_zero()

    def exit_status(self):
        if self.elliptic.status == "inconclusive":
            return 2
        return 0

    def to_json(self):
        return {
            "space_dim": self.n,
            "order": self.order,
            "dims": self.dims,
            "elliptic": self.elliptic.to_json(),
            "I_A_basis": self.image_basis.to_json() if self.image_basis else None,
            "K_C_basis": self.kernel_basis.to_json() if self.kernel_basis else None,
            "canceling": self.canceling,
            "cocanceling": self.cocanceling,
            "CC": self.cc.to_json() if self.cc else None,
            "weak": self.weak.to_json() if self.weak else None,
            "CWC": self.cwc.to_json() if self.cwc else None,
            "diagnostics": list(self.diagnostics),
        }


def run_full_check(system):
    """Assemble the full certified report for a system A u = f, C f = 0."""
    a = system.a
    diagnostics = []
    try:
        order = a.order
    except NotHomogeneousError:
        order = None
        diagnostics.append(
            "operator rows have mixed degrees; ellipticity and I_A need a "
            "single order and were skipped"
        )
    if system.c is None:
        diagnostics.append(
            "no constraint supplied: K_C is all of E, so (CC) degenerates to "
            "cancellation and (CWC) to weak cancellation"
        )
    k_c = _constraint_kernel(system)
    report = ConditionReport(system.n, order, _dims(system), k_c, diagnostics=diagnostics)

    if order is None:
        report.elliptic = EllipticityVerdict("inconclusive", note="operator not homogeneous")
        return report

    elliptic = report.elliptic = a.ellipticity
    if elliptic.status == "no":
        if system.c is not None and order >= system.n:
            diagnostics.append(NONELLIPTIC_CONSTRAINT_DIAGNOSTIC)
        else:
            diagnostics.append("operator is not elliptic; I_A and the verdicts built on it skipped")
        return report
    if elliptic.status == "inconclusive":
        diagnostics.append(
            "ellipticity is inconclusive; downstream verdicts assume A(α) "
            "is injective at the lattice points walked for I_A"
        )
    if elliptic.status == "numerically_positive":
        diagnostics.append(
            "ellipticity certified numerically (sampled sphere minimum of "
            "det G); n >= 3 has no exact decision procedure here"
        )

    try:
        i_a = report.image_basis = image_intersection(a)
    except NotEllipticError as exc:
        diagnostics.append(f"I_A not computed: {exc}")
        return report
    report.cc, isect = _cc(i_a, k_c)

    if system.n >= 2 and order >= system.n:
        try:
            report.weak, report.cwc = _weak_verdicts(a, [i_a, isect])
        except (NearSingularSymbolError, QuadratureNotConvergedError) as exc:
            diagnostics.append(f"moment quadrature failed: {exc}")
    elif order < system.n:
        diagnostics.append(
            f"order k={order} below dimension n={system.n}: the sup-norm "
            "regime does not apply, weak-cancellation verdicts omitted"
        )
    if system.n == 1:
        diagnostics.append(
            "n=1: the Lebesgue estimate range 1..min(k, n-1) is empty"
        )
    return report


def _dims(system):
    return {
        "source": system.a.source_dim,
        "target": system.a.target_dim,
        "constraint_target": system.c.target_dim if system.c else None,
    }
