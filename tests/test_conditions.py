import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym.conditions import (
    check_cc,
    check_weak_cancellation,
    image_intersection,
    is_elliptic,
    isotropic_moment_matrix,
    kernel_intersection,
    left_inverse_family,
    potential_field,
    run_full_check,
)
from ellsym.dsl import parse_operator, parse_system
from ellsym.errors import (
    HypothesisFailedError,
    NotEllipticError,
    NotHomogeneousError,
    OrderTooLowError,
)
from ellsym.operators import OperatorSpec, SystemSpec, homogenize
from ellsym.poly import MatrixPolynomial, Polynomial, monomials_of_degree
from ellsym.ratlinalg import Subspace, identity, mat_vec, nullspace, transpose
from genops import (
    all_witnesses,
    compose_left,
    compose_right,
    div_curl_operator,
    divergence_operator,
    gradient_operator,
    image_of,
    is_full,
    ladder_systems,
    laplacian_operator,
    load_repo_module,
    random_elliptic_operator,
    random_invertible_matrix,
    random_operator,
    random_rational_point,
    ROOT,
    read_repo_file,
    reference_gram,
    reference_gram_det,
    reference_solve,
    sampled_kernel_dimension,
    scale,
)

F = Fraction


# -- kernel / image intersections ------------------------------------------------


def test_kernel_intersection_divergence_is_cocanceling():
    for n in (2, 3, 4):
        assert kernel_intersection(divergence_operator(n)).is_zero()


def test_kernel_intersection_scalar_constraint_r4():
    c = parse_operator("from 4 to 1\nrows: d1 f1 + d2 f2 + d3 f3", 3)
    k = kernel_intersection(c)
    assert k.basis == ((F(0), F(0), F(0), F(1)),)


def test_kernel_intersection_two_term_constraint_r3_n4():
    c = parse_operator("from 3 to 1\nrows: d1 f1 + d2 f2", 4)
    k = kernel_intersection(c)
    assert k.basis == ((F(0), F(0), F(1)),)


def test_image_intersection_gradient_canceling():
    assert image_intersection(gradient_operator(2)).is_zero()
    assert image_intersection(gradient_operator(3)).is_zero()


def test_image_intersection_vector_laplacian_full():
    for n in (2, 3):
        i_a = image_intersection(laplacian_operator(n))
        assert is_full(i_a)


def test_image_intersection_divcurl():
    i_a = image_intersection(div_curl_operator())
    assert i_a.basis == ((F(1), F(0), F(0), F(0)),)


def test_divcurl_image_direction_has_explicit_preimage():
    # A(ξ) v = e1 is solved exactly by v = ξ/|ξ|²: ⟨ξ,v⟩ = 1 and ξ × v = 0
    rng = random.Random(8)
    a = div_curl_operator()
    sym = a.symbol()
    e1 = [F(1), F(0), F(0), F(0)]
    for _ in range(10):
        xi = random_rational_point(rng, 3)
        norm2 = sum(x * x for x in xi)
        mat = sym.eval(xi)
        v = reference_solve(mat, e1)
        assert v == tuple(x / norm2 for x in xi)


def test_image_basis_vectors_lie_in_image_at_samples():
    # exact solve A(ξ) v = e for each basis vector e of I_A
    rng = random.Random(41)
    a = div_curl_operator()
    i_a = image_intersection(a)
    sym = a.symbol()
    for _ in range(20):
        xi = random_rational_point(rng, 3)
        mat = sym.eval(xi)
        for e in i_a.basis:
            assert reference_solve(mat, list(e)) is not None


# -- I_A by the walk over the principal lattice ---------------------------------------

# div-curl with a source change: G is not scalar, and I_A = span{e1} is
# neither {0} nor E
SHEARED_DIVCURL = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]


def _scalar_gram(a):
    g = reference_gram(a)
    return g == g.scalar_identity(g.entries[0][0], g.rows)


def _annihilator_route(a):
    """The reference: the common kernel of the full annihilator's coefficients."""
    from ellsym.operators import annihilator

    return kernel_intersection(annihilator(a))


@pytest.mark.parametrize(
    "n, k, m", [(n, k, m) for n in (2, 3) for m in (1, 2, 3) for k in (1, 2)] + [(4, 1, 2), (4, 2, 2)]
)
def test_image_intersection_matches_annihilator_route_random(n, k, m):
    from genops import random_elliptic_operator

    rng = random.Random(100 * n + 10 * k + m)
    a = random_elliptic_operator(rng, n, k, dim_v=m, extra_rows=2)
    assert _scalar_gram(a) == (m == 1)
    assert image_intersection(a) == _annihilator_route(a)


def test_image_intersection_matches_annihilator_route_mixed_blocks():
    # Δ u1 beside the Hessian of u2 on R³, mixed by constant changes of source
    # and target: G is not scalar and I_A = M·span{e1}, so the walk never
    # reaches S = {0} and visits all 15 points of Λ_4
    from genops import laplacian_power

    n = 3
    rows = [[laplacian_power(n, 1), Polynomial.zero(n)]]
    for alpha in monomials_of_degree(n, 2):
        rows.append([Polynomial.zero(n), Polynomial.monomial(n, alpha, F(1))])
    rng = random.Random(77)
    m_target = random_invertible_matrix(rng, 7)
    a = compose_left(OperatorSpec.from_symbol(MatrixPolynomial(rows)), m_target)
    a = compose_right(a, random_invertible_matrix(rng, 2))
    assert not _scalar_gram(a) and len(a.lattice()) == 15
    i_a = image_intersection(a)
    assert i_a == Subspace.from_vectors(7, [[row[0] for row in m_target]])
    assert i_a == _annihilator_route(a)


@pytest.mark.parametrize(
    "name", ["biharmonic_div_r4", "divcurl_r3", "gradient_r2", "laplacian_div_r2", "laplacian_r2"]
)
def test_image_intersection_matches_annihilator_route_bundled(name):
    a = parse_system(read_repo_file(f"systems/{name}.sys")).a
    assert image_intersection(a) == _annihilator_route(a)


def test_image_intersection_partial_nonscalar_gram():
    a = compose_right(div_curl_operator(), SHEARED_DIVCURL)
    assert not _scalar_gram(a)
    i_a = image_intersection(a)
    assert i_a.basis == ((F(1), F(0), F(0), F(0)),)
    assert i_a == _annihilator_route(a)


def test_image_intersection_square_nonscalar_gram():
    a = compose_right(laplacian_operator(2), [[1, 1], [0, 1]])
    assert not _scalar_gram(a)
    assert is_full(image_intersection(a))
    assert is_full(_annihilator_route(a))


def test_image_intersection_witness_at_first_singular_lattice_point():
    # A(ξ) = [[ξ1, 0], [ξ2, 0], [0, ξ1]] on Λ_2 = (2,0), (1,1), (0,2): S is
    # span{e3} after two points, and A(0, 2) has the kernel span{e2}
    a = parse_operator("from 2 to 3\nrows: d1 u1; d2 u1; d1 u2", 2)
    with pytest.raises(NotEllipticError) as info:
        image_intersection(a)
    assert info.value.witness_xi == (0, 2)
    kernel = nullspace(a.value_at(info.value.witness_xi))
    assert Subspace.from_vectors(2, [info.value.kernel_vector]) == Subspace.from_vectors(2, kernel)


def test_run_full_check_walks_no_sample_point_and_builds_no_annihilator(monkeypatch):
    from ellsym import operators

    def refuse(*args):
        raise AssertionError("not on the check path")

    monkeypatch.setattr(operators, "annihilator", refuse)
    monkeypatch.setattr(MatrixPolynomial, "adjugate", refuse)
    systems = []
    for name in ["biharmonic_div_r4", "divcurl_r3", "gradient_r2", "laplacian_div_r2", "laplacian_r2", "quartic_r4"]:
        systems.append(parse_system(read_repo_file(f"systems/{name}.sys")))
    reports = [run_full_check(system) for system in systems + ladder_systems(1)]
    assert sum(r.image_basis is not None for r in reports) == len(reports) - 1  # all but quartic_r4


@pytest.mark.parametrize("name", ["laplacian_r2", "biharmonic_div_r4"])
def test_moment_map_after_check_evaluates_nothing_exact(monkeypatch, name):
    from ellsym import conditions, operators, quadrature

    system = parse_system(read_repo_file(f"systems/{name}.sys"))
    run_full_check(system)

    def refuse(*args):
        raise AssertionError("the verdict of the check is not reused")

    monkeypatch.setattr(OperatorSpec, "value_at", refuse)
    for module in (operators, conditions):  # every binding of the function
        monkeypatch.setattr(module, "is_elliptic", refuse)
        monkeypatch.setattr(module, "isotropic_moment_matrix", refuse)  # nor is M recomputed
    monkeypatch.setattr(quadrature, "moment_matrix", refuse)
    mm = quadrature.moment_map(system.a, quadrature.build_rule(system.n, 3))
    assert mm.method == "isotropic" and mm.levels is None
    assert np.array_equal(mm.matrix, quadrature.surface_area(system.n) * np.eye(system.a.target_dim))


@pytest.mark.parametrize("n", [3, 4])
def test_is_elliptic_evaluates_each_sign_pair_once(monkeypatch, n):
    # Σ j·ξ_j², positive and not isotropic, so the candidates are evaluated
    a = parse_operator("rows: " + " + ".join(f"{j} d{j}^2 u1" for j in range(1, n + 1)), n)
    # the lattice and isotropy tests run first, outside the count; the lattice
    # test stops at its first point, (2, 0, …, 0), whose line is e1's, so e1 is
    # not evaluated again
    assert not a.degenerate and not a.isotropic
    calls = []
    orig = OperatorSpec.value_at

    def counted(self, xi):
        calls.append(tuple(xi))
        return orig(self, xi)

    monkeypatch.setattr(OperatorSpec, "value_at", counted)
    v = is_elliptic(a)
    assert (v.status, v.decided_by) == ("numerically_positive", "sampled")
    assert len(calls) == len(set(calls)) == (3**n - 1) // 2 - 1
    assert (1,) + (0,) * (n - 1) not in calls
    assert all(next(x for x in xi if x) > 0 for xi in calls)


def test_cwc_reuses_weak_when_the_subspaces_agree(monkeypatch):
    import importlib

    cases = [
        # isotropic: one exact moment matrix on E
        ("d1^2 u1 + d2^2 u1; d1^2 u2 + d2^2 u2", "operators", "isotropic_moment_matrix", 1),
        # not isotropic: one converged quadrature on E
        ("d1^2 u1 + 2 d2^2 u1; d1^2 u2 + d2^2 u2", "quadrature", "converged_moments", 1),
    ]
    for rows, module, name, count in cases:
        mod = importlib.import_module(f"ellsym.{module}")
        calls = []
        orig = getattr(mod, name)

        def counted(*args, _orig=orig, _calls=calls, **kwargs):
            _calls.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
        report = run_full_check(SystemSpec(parse_operator(f"from 2 to 2\nrows: {rows}", 2), None, 2))
        assert report.image_basis.intersect(report.kernel_basis) == report.image_basis
        assert len(calls) == count
        assert report.cwc.to_json() == report.weak.to_json()


def test_weak_and_cwc_on_proper_subspaces_share_one_level_loop(monkeypatch):
    # I_A = span{(1,1,0), (0,0,1)} ≠ E and I_A ∩ K_C = span{(1,1,0)} ≠ I_A, not isotropic:
    # both verdicts read one M on E, converged by one run of the level loop, which
    # builds each level once, coarse to fine
    from ellsym import quadrature

    calls, built = [], []
    orig, orig_build = quadrature.converged_moments, quadrature.build_rule

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(quadrature, "converged_moments", counted)
    monkeypatch.setattr(quadrature, "build_rule", lambda n, level: built.append(level) or orig_build(n, level))
    rows = "d1^2 u1 + 2 d2^2 u1; d1^2 u1 + 2 d2^2 u1; d1^2 u2 + d2^2 u2"
    a = parse_operator(f"from 2 to 3\nrows: {rows}", 2)
    c = parse_operator("from 3 to 1\nrows: d1 f3", 2)
    report = run_full_check(SystemSpec(a, c, 2))
    assert len(calls) == 1
    assert built == list(range(3, built[-1] + 1)) and report.weak.levels == tuple(built[-2:])
    assert report.image_basis.basis == ((1, 1, 0), (0, 0, 1))
    weak, cwc = report.weak, report.cwc
    assert (weak.method, cwc.method) == ("quadrature", "quadrature")
    assert [e for e, _ in cwc.moments] == [(1, 1, 0)]
    assert cwc.moments[0] == weak.moments[0]  # the same column reads of the same M
    assert (cwc.levels, cwc.error_estimate) == (weak.levels, weak.error_estimate)
    assert not weak.holds and not cwc.holds


@pytest.mark.parametrize("case", ["divcurl_r3", "genops_333"])
def test_run_full_check_builds_no_annihilator(monkeypatch, case):
    from ellsym import conditions, operators
    from genops import random_elliptic_operator

    calls = []
    orig = operators.annihilator

    def counted(a):
        calls.append(a)
        return orig(a)

    for module in (operators, conditions):  # every binding of the function
        if getattr(module, "annihilator", None) is orig:
            monkeypatch.setattr(module, "annihilator", counted)
    if case == "divcurl_r3":
        system = parse_system(read_repo_file("systems/divcurl_r3.sys"))
    else:
        a = random_elliptic_operator(random.Random(333), 3, 3, dim_v=3, extra_rows=2)
        system = SystemSpec(a, None, 3)
    report = run_full_check(system)
    assert report.image_basis is not None
    assert calls == []


# -- condition (CC) ---------------------------------------------------------------


def test_cc_divcurl_holds():
    c = parse_operator("from 4 to 1\nrows: d1 f1 + d2 f2 + d3 f3", 3)
    system = SystemSpec(div_curl_operator(), c, 3)
    res = check_cc(system)
    assert res.holds and res.witness is None
    assert res.image_intersection.basis == ((F(1), F(0), F(0), F(0)),)
    assert res.kernel_intersection.basis == ((F(0), F(0), F(0), F(1)),)


def test_cc_laplacian_with_divergence_holds():
    for n in (2, 3):
        system = SystemSpec(laplacian_operator(n), divergence_operator(n), n)
        assert check_cc(system).holds


def test_cc_unconstrained_laplacian_fails_with_witness():
    system = SystemSpec(laplacian_operator(2), None, 2)
    res = check_cc(system)
    assert not res.holds
    assert res.witness == (F(1), F(0))


# -- ellipticity -------------------------------------------------------------------


def test_elliptic_gradient_yes():
    v = is_elliptic(gradient_operator(2))
    assert v.status == "yes"


def test_elliptic_divergence_no_with_witness():
    v = is_elliptic(divergence_operator(2))
    assert v.status == "no"
    assert v.witness_xi == (F(1), F(0))
    assert v.kernel_vector == (F(0), F(1))
    assert v.witness_exact


def test_elliptic_quartic_r4_no_with_pinned_witness():
    a = parse_operator("rows: (d1^4 + d2^4) u1; d3^4 u2; d4^4 u2", 4)
    v = is_elliptic(a)
    assert v.status == "no"
    witnesses = all_witnesses(v)
    target = ((F(0), F(0), F(1), F(0)), (F(1), F(0)))
    assert target in witnesses


def test_quartic_r4_witnesses_pinned():
    v = is_elliptic(parse_system(read_repo_file("systems/quartic_r4.sys")).a)
    assert (v.status, v.decided_by, v.witness_exact) == ("no", "axis_candidate", True)
    got = [(tuple(map(int, xi)), kern) for xi, kern in all_witnesses(v)]
    e3 = (1, 0)  # the kernel vector where ξ1 = ξ2 = 0, else e2
    assert got == [
        ((1, 0, 0, 0), (0, 1)), ((0, 1, 0, 0), (0, 1)), ((0, 0, 1, 0), e3), ((0, 0, 0, 1), e3),
        ((0, 0, 0, -1), e3), ((0, 0, 1, 1), e3), ((0, 0, 1, -1), e3), ((0, 0, -1, 0), e3),
        ((0, 0, -1, 1), e3), ((0, 0, -1, -1), e3), ((0, -1, 0, 0), (0, 1)), ((1, 1, 0, 0), (0, 1)),
        ((1, -1, 0, 0), (0, 1)), ((-1, 0, 0, 0), (0, 1)), ((-1, 1, 0, 0), (0, 1)), ((-1, -1, 0, 0), (0, 1)),
    ]


def _count_eliminations(monkeypatch):
    """Count the calls of `rref`, `_echelon` (the elimination) and `_reduce`
    (the back-substitution) in `ratlinalg`."""
    from ellsym import ratlinalg

    calls = dict.fromkeys(("rref", "_echelon", "_reduce"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ratlinalg, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(ratlinalg, name, counted)
    return calls


def test_kernel_at_runs_no_rref_where_a_is_injective(monkeypatch):
    from pathlib import Path

    from ellsym.conditions import _axis_and_sign_candidates
    from ellsym.ratlinalg import primitive

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import ladder

    calls = _count_eliminations(monkeypatch)
    rungs = [parse_system(r.text).a for r in ladder.build_ladder(1) if not r.square]
    assert len(rungs) == 8
    lines = 0
    for a in rungs:
        candidates = _axis_and_sign_candidates(a.space_dim)
        assert all(a.kernel_at(xi) is None for xi in candidates)
        lines += len({primitive(xi) for xi in candidates})
    # one elimination per line through the origin, and no back-substitution
    assert calls == {"rref": 0, "_echelon": lines, "_reduce": 0}
    # a hit eliminates and back-substitutes once per line through the origin
    quartic = parse_system(read_repo_file("systems/quartic_r4.sys")).a
    assert quartic.kernel_at((0, 0, 1, 0)) == quartic.kernel_at((0, 0, -2, 0)) == (1, 0)
    assert calls == {"rref": 0, "_echelon": lines + 1, "_reduce": 1}


def test_kernel_at_of_a_wide_kernel_runs_one_elimination(monkeypatch):
    # ker A(1, 0) has dimension 254; its first canonical vector is e2
    a = parse_operator("from 255 to 1\nrows: d1 u1", 2)
    calls = _count_eliminations(monkeypatch)
    assert a.kernel_at((1, 0)) == (0, 1) + (0,) * 253
    assert calls == {"rref": 0, "_echelon": 1, "_reduce": 1}


def test_elliptic_numeric_positive_n3():
    v = is_elliptic(laplacian_operator(3))
    assert (v.status, v.decided_by, v.min_normalized) == ("yes", "isotropic", None)


def test_elliptic_n1():
    a = parse_operator("rows: d1 u1; d1 u2", 1)  # V=2, E=2? rows use u1,u2
    v = is_elliptic(a)
    # symbol is [[ξ,0],[0,ξ]]... rows d1 u1 and d1 u2: matrix diag(ξ, ξ)
    assert v.status == "yes"


def test_elliptic_n1_degenerate():
    a = parse_operator("from 2 to 2\nrows: d1 u1; d1 u1", 1)
    v = is_elliptic(a)
    assert v.status == "no"
    assert v.kernel_vector == (F(0), F(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elliptic_order_zero(n):
    # A(ξ) = C for every ξ, and Λ_0 = {0}: ellipticity is the invertibility of C
    invertible = parse_operator("from 2 to 2\nrows: u1 + u2; u2", n)
    singular = parse_operator("from 2 to 2\nrows: u1 + 2 u2; 2 u1 + 4 u2", n)
    assert invertible.lattice() == singular.lattice() == [(0,) * n]
    report = run_full_check(SystemSpec(invertible, None, n))  # G(ξ) = CᵀC: isotropic
    assert report.elliptic.status == "yes" and is_full(report.image_basis)
    v = is_elliptic(singular)
    assert (v.status, v.note) == ("no", "det(A*A) vanishes identically")
    assert v.witness_xi == (1,) + (0,) * (n - 1) and v.kernel_vector == (2, -1)


def test_elliptic_irrational_zero_decided_no():
    # det G = (ξ1² − 2ξ2²)²: zeros irrational, Sturm still decides "no"
    a = parse_operator("rows: d1^2 u1 - 2 d2^2 u1", 2)
    v = is_elliptic(a)
    assert v.status == "no"
    assert not v.witness_exact


def test_elliptic_requires_homogeneous():
    mixed = parse_operator("from 1 to 2\nrows: d1 u1; d1^2 u1", 2)
    with pytest.raises(NotHomogeneousError):
        is_elliptic(mixed)


def test_image_intersection_and_cc_require_homogeneous():
    mixed = parse_operator("from 1 to 2\nrows: d1 u1; d1^2 u1 + d2^2 u1", 2)
    with pytest.raises(NotHomogeneousError):
        image_intersection(mixed)
    with pytest.raises(NotHomogeneousError):
        check_cc(SystemSpec(mixed, None, 2))


def test_elliptic_inconclusive_when_no_rational_zero_exists():
    # ξ1² − 2ξ2² + 3ξ3² is indefinite over R but anisotropic over Q: det G
    # has real zeros on the sphere yet no rational ones to certify
    a = parse_operator("rows: d1^2 u1 - 2 d2^2 u1 + 3 d3^2 u1", 3)
    v = is_elliptic(a)
    assert v.status == "inconclusive"
    assert v.min_normalized is not None and v.min_normalized < 1e-9
    report = run_full_check(SystemSpec(a, None, 3))
    assert report.exit_status() == 2


@pytest.mark.parametrize("n", [3, 4])
def test_elliptic_sampled_refinement_certifies_rational_zero(n):
    # A(ξ) = (2ξ1 − ξ2, 3ξ1 − ξ3, ...)ᵀ vanishes on the line through (1,2,...,n),
    # which no axis/sign candidate meets: only the rounded sampled minimizer finds
    # it. det G is even, so ±ξ tie; the witness has its first coordinate positive.
    rows = "; ".join(f"{j} d1 u1 - d{j} u1" for j in range(2, n + 1))
    v = is_elliptic(parse_operator(f"rows: {rows}", n))
    assert v.status == "no" and v.witness_exact
    assert v.witness_xi == tuple(F(j) for j in range(1, n + 1))
    assert v.kernel_vector == (F(1),)


@pytest.mark.parametrize("n", [9, 22])
def test_elliptic_sampled_finds_an_off_axis_zero_in_high_dimension(n):
    # A(ξ) = (ξ1 − ξ2, ξ3, ..., ξn)ᵀ vanishes only on the line through (1, 1, 0, ...);
    # from n = 8 on the candidates are the axes alone, so only the sampler finds it
    rows = "; ".join(["d1 u1 - d2 u1"] + [f"d{j} u1" for j in range(3, n + 1)])
    v = is_elliptic(parse_operator(f"rows: {rows}", n))
    assert v.status == "no" and v.witness_exact
    assert v.witness_xi == (F(1), F(1)) + (F(0),) * (n - 2)


def test_check_gradient_r22_gets_a_verdict():
    # the coarsest product rule on S^21 has 2^22 nodes, over the rule budget
    n = 22
    report = run_full_check(SystemSpec(gradient_operator(n), None, n))
    assert report.elliptic.status == "yes"  # G(ξ) = |ξ|², isotropic
    assert report.exit_status() == 0


def _nelder_mead_minimum(a):
    """The sphere minimum of det G as scipy's Nelder–Mead refines it from the
    five lowest pair representatives: the reference for the compass search."""
    from scipy.optimize import minimize

    from ellsym.quadrature import float_symbol, sample_nodes

    def det_g(points):
        sym = float_symbol(a)(points)
        return np.linalg.det(sym.transpose(0, 2, 1) @ sym)

    n = a.space_dim
    nodes = sample_nodes(n)  # the nodes is_elliptic samples
    vals = det_g(nodes)
    scale = float(np.abs(vals).max())
    best = float(vals.min()) / scale
    for idx in np.argsort(vals)[:5]:
        res = minimize(
            lambda x: float(det_g((x / np.linalg.norm(x))[None, :])[0]) / scale,
            nodes[idx],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 400},
        )
        best = min(best, float(res.fun))
    return best


@pytest.mark.parametrize("n, k, m", [(3, 1, 3), (3, 2, 2), (3, 3, 1), (4, 1, 2), (4, 2, 1)])
def test_compass_minimum_matches_nelder_mead(n, k, m):
    from genops import random_elliptic_operator

    a = random_elliptic_operator(random.Random(100 * n + 10 * k + m), n, k, dim_v=m)
    v = is_elliptic(a)
    assert v.status == "numerically_positive"
    ref = _nelder_mead_minimum(a)
    assert abs(v.min_normalized - ref) <= 1e-12 * ref


# -- weak cancellation --------------------------------------------------------------


def test_weak_cancellation_laplacian_r2_fails_with_2pi_moments():
    a = laplacian_operator(2)
    i_a = image_intersection(a)
    res = check_weak_cancellation(a, i_a)
    assert not res.holds and not res.vacuous
    for _e, nrm in res.moments:
        assert abs(nrm - 2 * math.pi) < 1e-8


def test_weak_cancellation_vacuous_with_divergence():
    a = laplacian_operator(2)
    res = check_weak_cancellation(a, Subspace.zero(2))
    assert res.holds and res.vacuous


@pytest.mark.parametrize(
    "n, rows",
    [
        (2, "from 2 to 2\nrows: d1^2 u1 + d2^2 u1; d1^2 u2 + d2^2 u2"),
        (2, "from 2 to 2\nrows: d1^2 u1 + 2 d2^2 u1 + d1 d2 u2; d1^2 u2 + d2^2 u2"),
    ],
    ids=["isotropic", "not isotropic"],
)
def test_weak_cancellation_on_the_zero_subspace_is_vacuous_for_every_operator(n, rows, monkeypatch):
    # no rule is built and no moment computed: the report has no quadrature fields
    from ellsym import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("the numeric layer was reached")

    monkeypatch.setattr(quadrature, "converged_moments", refuse)
    res = check_weak_cancellation(parse_operator(rows, n), Subspace.zero(2))
    assert res.to_json() == {"holds": True, "vacuous": True, "method": "vacuous", "moments": []}


def test_weak_cancellation_order_too_low():
    with pytest.raises(OrderTooLowError):
        check_weak_cancellation(laplacian_operator(3), Subspace.full(3))


def test_weak_cancellation_odd_dimension_holds():
    # (-Δ)² on R³ vector fields: odd n forces the moment map to vanish
    a = laplacian_operator(3, power=2)
    i_a = image_intersection(a)
    assert is_full(i_a)
    res = check_weak_cancellation(a, i_a)
    assert res.holds
    for _e, nrm in res.moments:
        assert nrm == 0.0


def test_weak_cancellation_r4_quartic_converges():
    # the elliptic scalar Σ ∂_i⁴ on R⁴: I_A = E and M e = ∫ dσ/Σω_i⁴ on S³; the
    # reference value is a Hopf-coordinate Gauss–Legendre rule, independent of
    # the product rule that converges here
    a = parse_operator("rows: d1^4 u1 + d2^4 u1 + d3^4 u1 + d4^4 u1", 4)
    report = run_full_check(SystemSpec(a, None, 4))
    assert not any("moment quadrature" in d for d in report.diagnostics)
    assert not report.weak.holds and report.weak.levels == (5, 6)
    [(_e, nrm)] = report.weak.moments
    assert abs(nrm - 43.198066515915) <= 1e-9 * 43.198066515915


# -- invariance properties ----------------------------------------------------------


def test_basis_change_invariance():
    rng = random.Random(53)
    a = div_curl_operator()
    c = parse_operator("from 4 to 1\nrows: d1 f1 + d2 f2 + d3 f3", 3)
    base = check_cc(SystemSpec(a, c, 3))
    for _ in range(3):
        g_e = random_invertible_matrix(rng, 4)
        from ellsym.ratlinalg import inverse

        a2 = compose_left(a, g_e)
        c2 = compose_right(c, inverse(g_e))
        res = check_cc(SystemSpec(a2, c2, 3))
        assert res.holds == base.holds
        assert res.image_intersection == image_of(base.image_intersection, g_e)
        assert res.kernel_intersection == image_of(base.kernel_intersection, g_e)
        assert (res.image_intersection.is_zero()) == (base.image_intersection.is_zero())
        assert (res.kernel_intersection.is_zero()) == (base.kernel_intersection.is_zero())


def test_scaling_invariance():
    a = div_curl_operator()
    c = parse_operator("from 4 to 1\nrows: d1 f1 + d2 f2 + d3 f3", 3)
    base = check_cc(SystemSpec(a, c, 3))
    for scalar in (F(3), F(-1, 2)):
        res = check_cc(SystemSpec(scale(a, scalar), scale(c, scalar), 3))
        assert res.holds == base.holds
        assert res.image_intersection == base.image_intersection
        assert res.kernel_intersection == base.kernel_intersection


def test_moment_linearity_in_e():
    # M e read from the matrix on E is the sphere integral of A†(ξ)e for each e (k = n: no ξ^γ)
    from ellsym.quadrature import build_rule, moment_matrix

    a = laplacian_operator(2)
    rule = build_rule(2, 5)
    matrix, adag = moment_matrix(a, rule)
    vectors = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    vals = [matrix @ e for e in vectors]
    for e, got in zip(vectors, vals):
        assert np.abs(got - 2 * np.einsum("m,mv->v", rule.weights, adag @ e)).max() < 2e-8
    assert np.abs(vals[2] - vals[0] - vals[1]).max() < 2e-8


# -- sampled oracle agreement ---------------------------------------------------------


def test_kernel_intersection_matches_sampled_oracle():
    rng = random.Random(97)
    for _ in range(6):
        n = rng.randint(2, 3)
        e_dim = rng.randint(2, 4)
        f_dim = rng.randint(1, 3)
        c = random_operator(rng, n, e_dim, f_dim, max_degree=2)
        exact = kernel_intersection(c)
        pts = [random_rational_point(rng, n) for _ in range(100)]
        dim_num, basis_num = sampled_kernel_dimension(c, pts)
        assert dim_num == exact.dim
        # containment: exact basis vectors annihilated at all samples
        sym = c.symbol()
        for xi in pts[:25]:
            mat = sym.eval(xi)
            for v in exact.basis:
                assert all(x == 0 for x in mat_vec(mat, v))
        # numeric kernel vectors lie in the exact subspace (distance check)
        if exact.dim:
            b = np.array([[float(x) for x in row] for row in exact.basis])
            q, _ = np.linalg.qr(b.T)
            for w in basis_num:
                proj = q @ (q.T @ w)
                assert np.linalg.norm(w - proj) < 1e-8
        else:
            assert basis_num.shape[0] == 0


# -- left inverses and potentials -------------------------------------------------------


def test_left_inverse_divergence_identity():
    div2 = divergence_operator(2)
    fam = left_inverse_family(div2, identity(2))
    assert fam.maps[(1, 0)] == ((F(1),), (F(0),))
    assert fam.maps[(0, 1)] == ((F(0),), (F(1),))
    assert fam.composite() == identity(2)


def test_left_inverse_hypothesis_failure():
    c = parse_operator("from 3 to 1\nrows: d1 f1 + d2 f2", 2)
    with pytest.raises(HypothesisFailedError):
        left_inverse_family(c, identity(3))


def test_left_inverse_projection_case():
    c = parse_operator("from 3 to 1\nrows: d1 f1 + d2 f2", 2)
    m = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    fam = left_inverse_family(c, m)
    assert fam.target_subspace.dim == 2
    # identity on im M*: composite fixes every basis vector
    comp = fam.composite()
    for q in fam.target_subspace.basis:
        assert mat_vec(comp, q) == tuple(q)


def test_potential_field_divergence():
    div2 = divergence_operator(2)
    fam = left_inverse_family(div2, identity(2))
    pf = potential_field(fam)
    assert pf.identity_checked
    from ellsym.poly import Polynomial

    assert pf.matrix.entries[0][0] == Polynomial.variable(2, 0)
    assert pf.matrix.entries[0][1] == Polynomial.variable(2, 1)


def test_potential_field_stack_case():
    stack = parse_operator("from 3 to 2\nrows: d1 f1 + d2 f2; d4^4 f2 - d3^4 f3", 4)
    hom = homogenize(stack)
    m = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    fam = left_inverse_family(hom, m)
    assert fam.composite() == fam.projection
    pf = potential_field(fam)
    assert pf.identity_checked


def test_potential_field_zero_family():
    div2 = divergence_operator(2)
    zero_m = [[F(0), F(0)], [F(0), F(0)]]
    fam = left_inverse_family(div2, zero_m)
    assert fam.target_subspace.is_zero()
    pf = potential_field(fam)
    assert pf.matrix.is_zero()


# -- full report ---------------------------------------------------------------------


def test_run_full_check_divcurl():
    spec = parse_system(read_repo_file("systems/divcurl_r3.sys"))
    report = run_full_check(spec)
    assert report.cc.holds
    assert report.canceling is False
    assert report.cocanceling is False
    assert report.weak is None  # k=1 < n=3
    assert report.exit_status() == 0


def test_run_full_check_laplacian_div():
    spec = parse_system(read_repo_file("systems/laplacian_div_r2.sys"))
    report = run_full_check(spec)
    assert report.cocanceling is True
    assert report.cc.holds
    assert report.weak is not None and not report.weak.holds  # M = 2π Id on I_A
    assert report.cwc is not None and report.cwc.holds and report.cwc.vacuous


def test_run_full_check_quartic_diagnostic():
    spec = parse_system(read_repo_file("systems/quartic_r4.sys"))
    report = run_full_check(spec)
    assert report.elliptic.status == "no"
    from ellsym.conditions import NONELLIPTIC_CONSTRAINT_DIAGNOSTIC

    assert NONELLIPTIC_CONSTRAINT_DIAGNOSTIC in report.diagnostics
    assert report.image_basis is None


def test_run_full_check_inhomogeneous_operator():
    spec = parse_system(
        "dim 2\noperator A { from 1 to 2 rows: d1 u1; d1^2 u1 }"
    )
    report = run_full_check(spec)
    assert report.elliptic.status == "inconclusive"
    assert report.exit_status() == 2


NONSCALAR_GRAM_SYSTEM = """dim 2
operator A {
  from 2 to 3
  rows:
    d1^2 u1 + d2^2 u1;
    d1^2 u2 + d2^2 u2;
    d1 d2 u1 + 2 d1^2 u2
}
constraint C {
  from 3 to 1
  rows: d1 f1 + d2 f2
}
"""


# the Laplacian on R² times [[1,1],[0,1]]: square, with a non-scalar Gram matrix
SQUARE_NONSCALAR_GRAM_SYSTEM = """dim 2
operator A {
  from 2 to 2
  rows: d1^2 u1 + d1^2 u2 + d2^2 u1 + d2^2 u2; d1^2 u2 + d2^2 u2
}
"""


# (d1² + 2 d2²)·B on R² with a dense invertible 8 × 8 B: square, not isotropic, decided
# by Sturm; a cofactor expansion of its det G took seconds
SQUARE_TIMES_B = [
    [6, 1, 1, 1, 1, 1, 1, 1], [4, 10, 1, 2, 3, 4, 5, 1], [2, 4, 6, 3, 5, 2, 4, 1], [5, 3, 1, 9, 2, 5, 3, 1],
    [3, 2, 1, 5, 9, 3, 2, 1], [1, 1, 1, 1, 1, 6, 1, 1], [4, 5, 1, 2, 3, 4, 10, 1], [2, 4, 1, 3, 5, 2, 4, 6],
]
SQUARE_TIMES_B_SYSTEM = "dim 2\noperator A {\n  from 8 to 8\n  rows: " + "; ".join(
    "(d1^2 + 2 d2^2)(" + " + ".join(f"{x} u{j + 1}" for j, x in enumerate(row)) + ")" for row in SQUARE_TIMES_B
) + "\n}\n"


@pytest.mark.parametrize("case", ["laplacian_r2", "nonscalar_gram", "square_nonscalar_gram", "square_times_b"])
def test_run_full_check_builds_det_and_adjugate_once(monkeypatch, case):
    # A† comes from a solve on A(ξ); I_A needs no identity, hence no adj G:
    # the lattice walk alone shows I_A = {0} for the 3 × 2 operator, and a
    # square operator has I_A = E; the n = 2 Sturm input is evaluated, not expanded
    from ellsym.poly import MatrixPolynomial

    texts = {
        "laplacian_r2": read_repo_file("systems/laplacian_r2.sys"),
        "nonscalar_gram": NONSCALAR_GRAM_SYSTEM,
        "square_nonscalar_gram": SQUARE_NONSCALAR_GRAM_SYSTEM,
        "square_times_b": SQUARE_TIMES_B_SYSTEM,
    }
    calls = {"det": 0, "adjugate": 0}
    for name in calls:
        def counted(self, _name=name, _orig=getattr(MatrixPolynomial, name)):
            calls[_name] += 1
            return _orig(self)

        monkeypatch.setattr(MatrixPolynomial, name, counted)
    report = run_full_check(parse_system(texts[case]))
    assert report.weak is not None and report.cwc is not None
    assert calls == {"det": 0, "adjugate": 0}


def _check_systems():
    """The bundled systems, ladder seeds 1–3 and the n = 2 ELLIPTIC_CASES of
    tools/compare_outputs.py as systems without a constraint."""
    systems = [parse_system(read_repo_file(f"systems/{p.name}")) for p in sorted((ROOT / "systems").glob("*.sys"))]
    systems += [s for seed in (1, 2, 3) for s in ladder_systems(seed)]
    cases = load_repo_module("tools/compare_outputs.py").ELLIPTIC_CASES
    return systems + [SystemSpec(parse_operator(text, n), None, n) for _, n, text in cases if n == 2]


def test_run_full_check_builds_no_symbol_product(monkeypatch):
    # every exact decision of `check` evaluates the symbol (`value_at`) and eliminates
    # in ints; no MatrixPolynomial product, det or adjugate is built for any input
    systems = _check_systems()
    assert sum(s.a.ellipticity.decided_by == "sturm" for s in systems) >= 18
    # fresh operators, so that nothing is cached
    systems = [SystemSpec(OperatorSpec.from_symbol(s.a.symbol()), s.c, s.n) for s in systems]

    def refuse(self, *args):
        raise AssertionError("a MatrixPolynomial product, det or adjugate was built")

    for name in ("__mul__", "det", "adjugate"):
        monkeypatch.setattr(MatrixPolynomial, name, refuse)
    for system in systems:
        run_full_check(system)


def test_square_times_b_decides_by_sturm_in_bounded_time():
    import time

    system = parse_system(SQUARE_TIMES_B_SYSTEM)
    start = time.perf_counter()
    v = is_elliptic(system.a)
    assert time.perf_counter() - start < 0.5
    assert (v.status, v.decided_by) == ("yes", "sturm")


def _expanded_det_gram_on_line(a):
    """c^(2·dim V)·det G(1, t) from the cofactor expansion, lowest degree first."""
    c = math.lcm(*(x.denominator for row in a.coeffs.values() for r in row for x in r))
    p = {}
    for (_, a2), x in reference_gram_det(a).terms.items():
        p[a2] = p.get(a2, 0) + x * c ** (2 * a.source_dim)
    return [p.get(i, 0) for i in range(max(p) + 1)] if p else []


_line_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-(10**30), 10**30),
)


@st.composite
def _line_operators(draw):
    """n = 2 operators of one order k, dim V 1..3, square or not; each entry a few
    terms ξ1^(k−j)ξ2^j, so high orders give sparse rows."""
    dim_v = draw(st.integers(1, 3))
    dim_e = draw(st.integers(dim_v, dim_v + 2))
    k = draw(st.sampled_from((0, 1, 2, 3, 7, 30, 60)))
    terms = draw(st.lists(st.tuples(st.integers(0, k), st.integers(0, dim_e - 1), st.integers(0, dim_v - 1),
                                    _line_coeffs), min_size=1, max_size=3 * dim_e))
    return OperatorSpec.from_terms(2, dim_v, dim_e, [((k - j, j), r, i, x) for j, r, i, x in terms])


@settings(max_examples=150, deadline=None)
@given(_line_operators())
def test_det_gram_on_line_matches_the_expansion(a):
    from ellsym.conditions import _det_gram_on_line

    assert _det_gram_on_line(a) == _expanded_det_gram_on_line(a)


# -- exact zero tests by the rank of A(ξ) ------------------------------------------


def _detg_zero_hits(a):
    """Axis/sign candidates where the expanded det G vanishes, with the kernel
    vector of A*A(ξ): the reference the rank test replaced."""
    from ellsym.conditions import _axis_and_sign_candidates
    from ellsym.ratlinalg import mat_mul, nullspace, primitive

    hits, detg = [], reference_gram_det(a)
    for xi in _axis_and_sign_candidates(a.space_dim):
        if detg.eval(xi) == 0:
            axi = a.symbol().eval(xi)
            kern = nullspace(mat_mul(transpose(axi), axi), ncols=a.source_dim)
            hits.append((xi, primitive(kern[0])))
    return hits


@functools.cache
def _non_elliptic_operators():
    quartic = parse_operator("rows: (d1^4 + d2^4) u1; d3^4 u2; d4^4 u2", 4)
    ops = [quartic, divergence_operator(2), divergence_operator(3)]
    rng = random.Random(4242)
    while len(ops) < 15:
        n = rng.choice((2, 3))
        op = random_operator(rng, n, rng.randint(1, 2), rng.randint(2, 3), homogeneous=True)
        if op.order > 0 and not reference_gram_det(op).is_zero() and _detg_zero_hits(op):
            ops.append(op)
    return ops


def test_degenerate_matches_expanded_det():
    ops = _non_elliptic_operators() + [
        parse_operator("from 2 to 2\nrows: d1 u1; d1 u1", 1),
        parse_operator("from 2 to 2\nrows: d1^2 u1 + d1 d2 u2; d1^2 u1 + d1 d2 u2", 2),
        # mixed row degrees: Λ_D takes D from the largest row degree
        parse_operator("from 2 to 2\nrows: d1 u1 + d1 u2; d1^2 u1 + d2^2 u1 + d1^2 u2 + d2^2 u2", 2),
        parse_operator("from 1 to 2\nrows: d1 u1; d1^2 u1 + d2^2 u1", 2),
    ]
    expected = [reference_gram_det(op).is_zero() for op in ops]
    assert True in expected and False in expected
    assert [op.degenerate for op in ops] == expected


@pytest.mark.parametrize("name", ["divcurl_r3", "biharmonic_div_r4"])
def test_run_full_check_expands_no_det_for_n_ge_3(monkeypatch, name):
    # det G ≢ 0 by one injective A(ξ); sampling and moments evaluate A(ξ)
    from ellsym.poly import MatrixPolynomial

    calls = []
    orig = MatrixPolynomial.det

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(MatrixPolynomial, "det", counted)
    report = run_full_check(parse_system(read_repo_file(f"systems/{name}.sys")))
    assert (report.elliptic.status, report.elliptic.decided_by) == ("yes", "isotropic")
    assert calls == []


@pytest.mark.parametrize("index", range(15))
def test_rank_zero_test_matches_expanded_det(index):
    from ellsym.conditions import _axis_and_sign_candidates

    a = _non_elliptic_operators()[index]
    hits = _detg_zero_hits(a)
    assert hits
    # same zero set and kernel vectors at every candidate ...
    found = [
        (xi, a.kernel_at(xi))
        for xi in _axis_and_sign_candidates(a.space_dim)
        if a.kernel_at(xi) is not None
    ]
    assert found == hits
    # ... hence the same verdict, witness and extra_witnesses order
    v = is_elliptic(a)
    assert v.status == "no" and v.witness_exact
    assert (v.witness_xi, v.kernel_vector) == hits[0]
    if not reference_gram_det(a).is_zero():  # divergence exits earlier, at e1 alone
        assert v.extra_witnesses == hits[1:]


def test_moments_build_no_adjugate_for_scalar_gram(monkeypatch):
    from ellsym import quadrature
    from ellsym.poly import MatrixPolynomial

    calls = []
    orig = MatrixPolynomial.adjugate

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(MatrixPolynomial, "adjugate", counted)
    system = parse_system(read_repo_file("systems/laplacian_div_r2.sys"))
    report = run_full_check(system)
    assert report.weak is not None and report.cwc is not None  # both verdicts computed
    quadrature.moment_map(system.a, quadrature.build_rule(2, 4))
    assert calls == []


# -- the isotropic certificate: G(ξ) = |ξ|^2k·G(e₁) ------------------------------------


def _random_isotropic_operator(rng, n, k, m):
    """B·(−Δ)^(k/2)·Id_m with a random injective (m + 1) × m matrix B for even k;
    for odd k the rows of (−Δ)^((k−1)/2)∇ ⊗ Id_m times a random invertible B on the
    source side. Either way G(ξ) = |ξ|^2k·G(e₁)."""
    if k % 2:
        return compose_right(random_elliptic_operator(rng, n, k, dim_v=m, extra_rows=0),
                             random_invertible_matrix(rng, m))
    b = random_invertible_matrix(rng, m) + [[F(rng.randint(-3, 3)) for _ in range(m)]]
    return compose_left(laplacian_operator(n, k // 2, dim=m), b)


def _exact_moment_map_matches_converged_quadrature(a):
    """`moment_map` of an isotropic operator is the exact M, in the row layout (v, γ) of
    the quadrature and within 1e-12 of it; for odd n every entry is 0 in both, +0.0 in M."""
    from ellsym.quadrature import build_rule, converged_moments, moment_map

    assert a.isotropic and is_elliptic(a).decided_by == "isotropic"
    mm = moment_map(a, build_rule(a.space_dim, 3))
    got, _, _, _ = converged_moments(a)
    assert mm.method == "isotropic" and mm.matrix.shape == got.shape
    norms = [nrm for _, nrm in check_weak_cancellation(a, Subspace.full(a.target_dim)).moments]
    if a.space_dim % 2:  # |α + γ| = 2k − n is odd: every integral is 0, in both
        assert all(x == 0 for m in isotropic_moment_matrix(a) for r in m for x in r) and not got.any()
        assert not mm.matrix.any() and not np.signbit(mm.matrix).any()
        assert norms == [0.0] * a.target_dim
        return
    assert np.abs(mm.matrix - got).max() <= 1e-12 * np.abs(got).max()
    for nrm, column in zip(norms, got.T):
        assert abs(nrm - np.linalg.norm(column)) <= 1e-12 * nrm


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4), (4, 5), (5, 6)])
def test_isotropic_moments_match_converged_quadrature(n, k):
    rng = random.Random(1000 * n + k)
    _exact_moment_map_matches_converged_quadrature(_random_isotropic_operator(rng, n, k, m=2))


def test_exact_moment_map_of_bundled_systems_and_square_rungs(monkeypatch):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import ladder

    ops = [parse_system(read_repo_file(f"systems/{name}.sys")).a
           for name in ("biharmonic_div_r4", "laplacian_div_r2", "laplacian_r2")]
    for seed in (1, 2):
        ops += [parse_system(r.text).a for r in ladder.build_ladder(seed) if r.square]
    assert len(ops) == 7
    for a in ops:
        _exact_moment_map_matches_converged_quadrature(a)


def _value_at_calls(monkeypatch, a):
    calls = []
    orig = OperatorSpec.value_at

    def counted(self, xi):
        calls.append(xi)
        return orig(self, xi)

    monkeypatch.setattr(OperatorSpec, "value_at", counted)
    isotropic = a.isotropic
    monkeypatch.setattr(OperatorSpec, "value_at", orig)
    return isotropic, len(calls)


def _non_isotropic_operators(monkeypatch):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import ladder

    ops = [parse_operator("rows: d1^4 u1 + d2^4 u1 + d3^4 u1 + d4^4 u1", 4)]
    for seed in (1, 2):
        ops += [parse_system(r.text).a for r in ladder.build_ladder(seed) if not r.square]
    rng = random.Random(20240811)
    for n, k, m in [(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1), (4, 2, 1), (4, 4, 2)]:
        ops.append(random_elliptic_operator(rng, n, k, dim_v=m))
    return ops


def test_non_isotropic_operators_exit_the_test_at_the_second_point(monkeypatch):
    for a in _non_isotropic_operators(monkeypatch):
        assert _value_at_calls(monkeypatch, a) == (False, 2)
        assert is_elliptic(a).decided_by != "isotropic"


def test_isotropic_verdicts_are_exact_and_float_free(monkeypatch):
    # no float enters: the numeric layer is never reached
    from ellsym import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("the numeric layer was reached")

    for name in ("float_symbol", "sampled_ellipticity", "converged_moments"):
        monkeypatch.setattr(quadrature, name, refuse)
    report = run_full_check(parse_system(read_repo_file("systems/biharmonic_div_r4.sys"))).to_json()
    assert report["elliptic"] == {"status": "yes", "decided_by": "isotropic"}
    # I_A ∩ K_C = {0}, so the CWC verdict is vacuous and computes no moment
    assert (report["weak"]["method"], report["CWC"]["method"]) == ("isotropic", "vacuous")
    for key in ("weak", "CWC"):
        assert not {"levels", "error_estimate", "integrand_scale", "tolerance"} & report[key].keys()
    # M e = 2π²·e exactly: |M e| is |S³|
    assert report["weak"]["moments"][0]["norm"] == 2 * math.pi**2
    # (−Δ)² on R³: every moment is 0, not merely below a tolerance
    res = check_weak_cancellation(laplacian_operator(3, power=2), Subspace.full(3))
    assert res.holds and res.method == "isotropic" and all(nrm == 0.0 for _, nrm in res.moments)


@pytest.mark.parametrize(
    "n, rows, decided_by",
    [
        (2, "from 2 to 1\nrows: d1 u1 + d2 u2", "source_exceeds_target"),
        (2, "from 2 to 2\nrows: d1 u1 + d2 u2; 2 d1 u1 + 2 d2 u2", "identically_zero"),
        (1, "rows: d1^3 u1", "isotropic"),
        (3, "rows: d1^2 u1 + d2^2 u1", "axis_candidate"),
        (2, "rows: d1^2 u1 + 2 d2^2 u1", "sturm"),
        (2, "rows: d1^2 u1 - 2 d2^2 u1", "sturm"),
        (3, "rows: 2 d1 u1 - d2 u1; 3 d1 u1 - d3 u1", "sampled"),
    ],
)
def test_every_ellipticity_verdict_names_its_method(n, rows, decided_by):
    v = is_elliptic(parse_operator(rows, n))
    assert v.decided_by == decided_by and v.to_json()["decided_by"] == decided_by
