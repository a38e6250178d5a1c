import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ellsym.cli import main
from ellsym.conditions import run_full_check
from ellsym.dsl import parse_operator, parse_system
from ellsym.errors import InvalidArgumentError, NearSingularSymbolError, NotEllipticError, OrderTooLowError
from ellsym.poly import monomials_of_degree
from ellsym.quadrature import (
    SAMPLE_NODES,
    SYMBOL_BLOCK,
    _pseudoinverse_at,
    _sphere,
    build_rule,
    converged_moments,
    finest_level,
    float_symbol,
    moment_map,
    moment_matrix,
    monomial_table,
    sample_nodes,
    sampled_ellipticity,
    surface_area,
    tensor_basis,
)
from genops import (
    divergence_operator,
    ladder_systems,
    laplacian_operator,
    random_elliptic_operator,
    read_repo_file,
    reference_float_symbol,
    reference_gram_det,
    reference_monomial_table,
    reference_pinv_numerator,
    reference_sampled_ellipticity,
)


def integrate(rule, f):
    """Weighted sum of f over both nodes ±ξ of every pair (first axis)."""
    paired = f(rule.nodes) + f(-rule.nodes)
    return np.tensordot(rule.weights, paired, axes=(0, 0))


def test_rule_shapes_and_antithetic_layout():
    for n, level in ((2, 6), (3, 3), (4, 2), (5, 2)):
        rule = build_rule(n, level)
        assert rule.count == 2 * len(rule.nodes) == 2 * len(rule.weights)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)
        assert rule.weights.min() > 0
        assert abs(2 * rule.weights.sum() - surface_area(n)) < 1e-12


def test_circle_rule_matches_spec_example():
    rule = build_rule(2, 6)
    assert rule.count == 64
    assert np.allclose(rule.weights, 2 * math.pi / 64)


def test_constant_integrates_to_area():
    for n in (2, 3, 4):
        rule = build_rule(n, 3)
        val = integrate(rule, lambda x: np.ones(len(x)))
        assert abs(val - surface_area(n)) < 1e-12


def test_xi1_squared_over_s2():
    rule = build_rule(3, 3)
    val = integrate(rule, lambda x: x[:, 0] ** 2)
    assert abs(val - 4 * math.pi / 3) < 1e-10


def test_moment_map_laplacian_2d():
    # isotropic: the exact M that check reads, 2π·Id to the bit, with no quadrature fields
    a = laplacian_operator(2)
    mm = moment_map(a, build_rule(2, 6))
    assert mm.method == "isotropic"
    assert np.array_equal(mm.matrix, 2 * math.pi * np.eye(2))
    assert mm.to_json()["matrix"] == [[2 * math.pi, 0.0], [0.0, 2 * math.pi]]
    assert not {"error_estimate", "integrand_scale", "levels", "node_counts"} & mm.to_json().keys()


def test_moment_map_anisotropic_closed_form():
    # A u = (∂₁²u, ∂₂²u): both moment entries equal
    # ∫ cos²θ/(cos⁴θ+sin⁴θ) dθ = π√2 (independent oracle: scipy quad agrees)
    from scipy.integrate import quad

    from ellsym.dsl import parse_operator

    a = parse_operator("from 1 to 2\nrows: d1^2 u1; d2^2 u1", 2)
    mm = moment_map(a, build_rule(2, 7))
    closed = math.pi * math.sqrt(2.0)
    oracle = quad(
        lambda t: math.cos(t) ** 2 / (math.cos(t) ** 4 + math.sin(t) ** 4),
        0.0,
        2.0 * math.pi,
    )[0]
    assert abs(oracle - closed) < 1e-10
    assert np.abs(mm.matrix - closed).max() < 1e-10


def test_moment_map_zero_vector_is_zero():
    a = laplacian_operator(2)
    matrix, adag = moment_matrix(a, build_rule(2, 5))
    zero = np.zeros(2)
    assert np.all(matrix @ zero == 0.0)
    assert np.linalg.norm(adag @ zero, axis=1).max() == 0.0


def test_moment_map_biharmonic_r3_parity_zero():
    a = laplacian_operator(3, power=2)  # k=4, n=3
    mm = moment_map(a, build_rule(3, 3))
    assert mm.method == "isotropic"
    assert mm.matrix.shape == (3 * 3, 3)  # V ⊗ monomials of degree 1
    assert np.all(mm.matrix == 0.0) and not np.signbit(mm.matrix).any()  # +0.0, no −0.0


def test_moment_map_order_too_low():
    with pytest.raises(OrderTooLowError):
        moment_map(laplacian_operator(3), build_rule(3, 3))


def test_near_singular_detection():
    # divergence has det(A*A) ≡ 0... use a rank-deficient but nonzero case:
    # A = d1 (only) acting on scalars in R^2: det G = ξ1², zero on a node axis?
    from ellsym.dsl import parse_operator

    a = parse_operator("rows: d1^2 u1", 2)  # det G = ξ1⁴, vanishes at (0, ±1)
    with pytest.raises(NearSingularSymbolError):
        moment_matrix(a, build_rule(2, 6))


def test_refinement_convergence_decreases():
    from ellsym.dsl import parse_operator

    a = parse_operator("rows: d1^2 u1 + 3 d2^2 u1; d1 d2 u1", 2)
    diffs = []
    prev = None
    for level in (3, 4, 5, 6):
        vals = moment_matrix(a, build_rule(2, level))[0][:, 0]  # M e₁
        if prev is not None:
            diffs.append(np.abs(vals - prev).max())
        prev = vals
    assert diffs[-1] <= diffs[0]
    _, adag, err, _ = converged_moments(a)
    assert err <= 1e-8 * surface_area(2) * max(np.linalg.norm(adag, axis=1).max(), 1e-300)


def test_build_rule_refuses_a_huge_level_by_its_exponent():
    with pytest.raises(InvalidArgumentError, match=r"^quadrature level 1000000000 on S\^1 needs 2\^1000000000 nodes, "
                       r"over the budget of 2097152$"):
        build_rule(2, 10**9)
    with pytest.raises(InvalidArgumentError, match=r"needs 2\^22 nodes"):
        build_rule(4, 7)


def test_converged_moments_raises_when_levels_exhausted(monkeypatch):
    # on S¹ the budget admits level 10, so the loop stops at its last level, 9,
    # having built each level from 3 once and none finer
    from ellsym.errors import QuadratureNotConvergedError
    from ellsym.dsl import parse_operator

    from ellsym import quadrature

    a = parse_operator("rows: d1^2 u1 + 3 d2^2 u1; d1 d2 u1", 2)
    built = []
    monkeypatch.setattr(quadrature, "build_rule", lambda n, level: built.append(level) or build_rule(n, level))
    monkeypatch.setattr(quadrature, "WEAK_ZERO_TOL", 0.0)
    with pytest.raises(QuadratureNotConvergedError, match="did not converge by level 9$"):
        converged_moments(a)
    assert built == [3, 4, 5, 6, 7, 8, 9]


def test_refine_stops_at_the_budget_without_building_past_it(monkeypatch):
    # S³ at level 6 has 2^19 nodes; level 7 would need 2^22, over MAX_RULE_NODES
    from ellsym import quadrature
    from ellsym.errors import QuadratureNotConvergedError

    a = parse_operator("rows: d1^4 u1 + d2^4 u1 + d3^4 u1 + d4^4 u1", 4)
    built = []
    monkeypatch.setattr(quadrature, "build_rule", lambda n, level: built.append(level) or build_rule(n, level))
    monkeypatch.setattr(quadrature, "WEAK_ZERO_TOL", 0.0)
    message = "did not converge by level 6, the finest within the budget of 2097152 nodes$"
    with pytest.raises(QuadratureNotConvergedError, match=message):
        converged_moments(a)
    assert built == [3, 4, 5, 6]


@pytest.mark.parametrize("n", [3, 8, 9, 16, 22])
def test_sample_nodes_keep_the_budget_and_spread_in_every_dimension(n):
    # the level-1 rule is one orbit of the sign flips (every node has the same
    # sorted |ξ_i|), and from n = 16 on it has more than SAMPLE_NODES nodes
    nodes = sample_nodes(n)
    assert nodes.shape[1] == n and 2 * len(nodes) <= SAMPLE_NODES
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-14)
    assert np.ptp(np.sort(np.abs(nodes), axis=1), axis=0).max() > 0.25


@pytest.mark.parametrize("n, levels", [(6, (2, 3)), (8, (1, 2))])
def test_converged_moments_starts_within_the_sample_budget(n, levels):
    # level 3 on S⁵ has 2^16 nodes, over SAMPLE_NODES; on S⁷ level 2 is the last
    # within MAX_RULE_NODES. (−Δ)^(n/2) has the constant integrand 1, which
    # every level integrates exactly, so the first two levels agree
    a = laplacian_operator(n, power=n // 2, dim=1)
    vals, _, _, rules = converged_moments(a)
    assert tuple(r.level for r in rules) == levels
    assert abs(vals[0, 0] - surface_area(n)) <= 1e-13 * surface_area(n)


def test_random_elliptic_odd_dimension_bitwise_zero():
    rng = random.Random(4242)
    for k in (3, 4, 5):
        a = random_elliptic_operator(rng, 3, k, dim_v=1, extra_rows=2)
        vals, _ = moment_matrix(a, build_rule(3, 3))
        assert np.all(vals == 0.0)


def test_rotation_equivariance_isotropic():
    # (-Δ) on R², k=n: M = 2π Id commutes with any rotation of E
    a = laplacian_operator(2)
    mm = moment_map(a, build_rule(2, 6))
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    lhs = mm.matrix @ rot
    rhs = rot @ mm.matrix
    assert np.abs(lhs - rhs).max() < 1e-8


def test_tensor_basis_weights():
    gammas, weights = tensor_basis(2, 2)
    assert gammas == [(2, 0), (1, 1), (0, 2)]
    assert np.allclose(weights, [1.0, math.sqrt(2.0), 1.0])


def test_import_leaves_scipy_unloaded():
    # importing, and the n >= 4 paths (the isotropic certificate, sampled
    # ellipticity of a non-isotropic operator, Gauss–Gegenbauer product rules,
    # whose nodes come from numpy's eigh)
    import subprocess
    import sys

    report = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    n4_work = (
        "from ellsym import build_rule, is_elliptic, moment_map, parse_operator, parse_system, run_full_check\n"
        f"system = parse_system({read_repo_file('systems/biharmonic_div_r4.sys')!r})\n"
        "assert run_full_check(system).elliptic.status == 'yes'\n"
        "moment_map(system.a, build_rule(4, 3))\n"
        "rows = 'rows: d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1 + 4 d4^2 u1'\n"
        "assert is_elliptic(parse_operator(rows, 4)).status == 'numerically_positive'\n"
    )
    for body in ("", n4_work):
        code = "import sys, ellsym\n" + body + report
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def folland_integral(beta):
    """∫_{S^{n-1}} ω^β dσ in closed form (Folland, Amer. Math. Monthly 108
    (2001)): 2·∏Γ(b_i)/Γ(Σb_i) with b_i = (β_i + 1)/2, and 0 for any odd β_i."""
    if any(b % 2 for b in beta):
        return 0.0
    halves = [(b + 1) / 2 for b in beta]
    return 2 * math.prod(math.gamma(h) for h in halves) / math.gamma(sum(halves))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_product_rule_exact_to_its_degree(n):
    # every ω^β with |β| <= 2^(level+1) - 1, as β = (α, γ) over the first and
    # the last coordinates: one matrix product per |α| and per block of 1024
    # pairs sums them all; ±ω add (1 + (-1)^|β|) times the stored node's term.
    # The bound is rounding in sums of up to 2^15 terms of size <= the weights.
    head, tail = n // 2, n - n // 2
    for level in (1, 2, 3):
        deg = 2 ** (level + 1) - 1
        rule = build_rule(n, level)
        alphas = [monomials_of_degree(head, a) for a in range(deg + 1)]
        gammas = [g for d in range(deg + 1) for g in monomials_of_degree(tail, d)]
        sums = [0.0] * (deg + 1)
        for block in np.array_split(np.arange(len(rule.nodes)), -(-len(rule.nodes) // 1024)):
            right = monomial_table(rule.nodes[block, head:], np.array(gammas))
            for a in range(deg + 1):
                left = monomial_table(rule.nodes[block, :head], np.array(alphas[a]))
                left *= rule.weights[block, None]
                sums[a] = sums[a] + left.T @ right[:, : math.comb(deg - a + tail, tail)]
        for a in range(deg + 1):
            for alpha, row in zip(alphas[a], sums[a]):
                for gamma, total in zip(gammas, row):
                    got = total * (1 + (-1) ** (a + sum(gamma)))
                    assert abs(got - folland_integral(alpha + gamma)) <= 4e-14


def _reference_operators():
    from test_conditions import NONSCALAR_GRAM_SYSTEM

    ops = [laplacian_operator(3, power=2), parse_system(NONSCALAR_GRAM_SYSTEM).a]
    rng = random.Random(2718)
    for n, k, dim_v in ((2, 2, 1), (2, 3, 2), (3, 3, 1), (3, 4, 2)):
        ops.append(random_elliptic_operator(rng, n, k, dim_v=dim_v))
    return ops


@pytest.mark.parametrize("index", range(6))
def test_batched_solve_pseudoinverse_matches_exact(index):
    # reference: A† = N / det G with N = adj(G)·A*, evaluated in Fractions
    a = _reference_operators()[index]
    rng = random.Random(index)
    points = []
    while len(points) < 4:
        # dyadic coordinates, so the float nodes are the rational points exactly
        p = tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 8))) for _ in range(a.space_dim))
        if any(p):
            points.append(p)

    detg, numerator = reference_gram_det(a), reference_pinv_numerator(a)

    def exact(xi):
        den = detg.eval(xi)
        return [[q.eval(xi) / den for q in row] for row in numerator.entries]

    sign = (-1) ** a.order
    for p in points:
        minus = tuple(-x for x in p)
        assert exact(minus) == [[sign * x for x in row] for row in exact(p)]
        for xi in (p, minus):
            ref = np.array(exact(xi), dtype=float)
            got = _pseudoinverse_at(a, np.array([xi], dtype=float))[0]
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n, k, level", [(2, 6, 5), (4, 7, 3)])
def test_moment_tensor_monomials_match_exact(n, k, level):
    # reference: ω^γ at each float node, exact in Fractions and rounded once
    a = random_elliptic_operator(random.Random(31 + n), n, k)
    rule = build_rule(n, level)
    gammas, tweights = tensor_basis(n, k - n)
    omega = np.array([[float(math.prod(Fraction(x) ** g for x, g in zip(node, gamma)))
                       for gamma in gammas] for node in rule.nodes])
    adag = _pseudoinverse_at(a, rule.nodes)
    vectors = np.eye(a.target_dim)
    values, nodes_adag = moment_matrix(a, rule)
    assert np.array_equal(nodes_adag, adag)
    for got, e in zip(values.T, vectors):
        ref = 2 * np.einsum("m,mv,mg->vg", rule.weights, adag @ e, omega * tweights).ravel()
        assert np.abs(ref).max() > 0
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize(
    "n, level, rows",
    [
        (4, 6, "rows: d1^4 u1 + 2 d2^4 u1 + 3 d3^4 u1 + d4^4 u1"),
        (3, 10, "rows: d1^4 u1 + 2 d2^4 u1 + 3 d3^4 u1"),
        (3, 10, "rows: (d1^2 + d2^2 + d3^2)^2 u1"),  # isotropic: M is exact, and the rule is the same
    ],
    ids=["quartic R4", "S2 anisotropic", "S2 isotropic"],
)
def test_moment_at_the_finest_level_is_refused_before_any_moment(tmp_path, capsys, monkeypatch, n, level, rows):
    # the finest level within MAX_RULE_NODES builds, but the moment map also needs the next one
    from ellsym import operators, quadrature

    def refuse(*args):
        raise AssertionError("a moment matrix was built")

    monkeypatch.setattr(quadrature, "moment_matrix", refuse)
    monkeypatch.setattr(operators, "isotropic_moment_matrix", refuse)
    path = tmp_path / "op.sys"
    path.write_text(f"dim {n}\noperator A {{\n  from 1 to 1\n  {rows}\n}}\n")
    assert main(["moment", str(path), "--level", str(level)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: the moment map at level {level} needs level {level + 1}, whose rule on "
                   f"S^{n - 1} is over the budget of 2097152 nodes\n")


def test_near_singular_note_states_what_was_measured(tmp_path, capsys):
    # det G = (10⁹ξ₁² + ξ₂²)² spans 18 orders over the circle: elliptic by an exact
    # Sturm count, but no rule resolves it below DET_FLOOR, and the note says so
    text = "dim 2\noperator A {\n  from 1 to 1\n  rows: 1000000000 d1^2 u1 + d2^2 u1\n}\n"
    report = run_full_check(parse_system(text))
    assert (report.elliptic.status, report.elliptic.decided_by) == ("yes", "sturm")
    assert report.weak is None and report.cwc is None
    message = ("det(A*A) at a quadrature node is below 1e-12 times its largest value over the "
               "nodes, or all are 0: the rule cannot resolve this symbol")
    assert report.diagnostics[-1] == f"moment quadrature failed: {message}"
    path = tmp_path / "stiff.sys"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "elliptic: yes\n" in out and "may not be elliptic" not in out
    assert main(["moment", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_moment_map_identically_singular_symbol(tmp_path, capsys):
    rows = "rows: d1^2 u1 + d1 d2 u2; d1^2 u1 + d1 d2 u2"
    message = "det(A*A) vanishes identically"
    a = parse_operator("from 2 to 2\n" + rows, 2)
    with pytest.raises(NotEllipticError, match=re.escape(message)):
        moment_map(a, build_rule(2, 4))
    path = tmp_path / "singular.sys"
    path.write_text("dim 2\noperator A {\n  from 2 to 2\n  " + rows + "\n}\n")
    assert main(["moment", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_monomial_table_is_bitwise_the_per_coordinate_loop(kind, n):
    # full degrees, uneven tops per coordinate, zero and no exponents, at one point,
    # one compass round (5 starts × 2n points), one symbol block and more
    rng = np.random.default_rng(n)
    cases = [np.array(monomials_of_degree(n, d)) for d in (1, 3, 4)]
    cases += [rng.integers(0, 6, size=(7, n)), np.zeros((3, n), dtype=np.int64), np.zeros((0, n), dtype=np.int64)]
    for count in (1, 5 * 2 * n, SYMBOL_BLOCK, 2 * SYMBOL_BLOCK + 5):
        points = rng.normal(size=(count, n))
        if kind == "complex":
            points = points + 1j * rng.normal(size=(count, n))
        for exps in cases:
            got, want = monomial_table(points, exps), reference_monomial_table(points, exps)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1, 30, SYMBOL_BLOCK, 2 * SYMBOL_BLOCK + 5])
def test_float_symbol_is_bitwise_the_reference(count):
    rng = np.random.default_rng(count)
    for system in ladder_systems(1):
        a = system.a
        points = rng.normal(size=(count, a.space_dim))
        for pts in (points, points + 1j * rng.normal(size=points.shape)):
            assert float_symbol(a)(pts).tobytes() == reference_float_symbol(a)(pts).tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_ellipticity_is_bitwise_the_reference_compass(seed):
    rungs = [system.a for system in ladder_systems(seed) if system.n >= 3]
    assert len(rungs) == 5
    for a in rungs:
        got, want = sampled_ellipticity(a), reference_sampled_ellipticity(a)
        assert got == want and got.status == "numerically_positive"
        assert got.min_normalized.hex() == want.min_normalized.hex()


@pytest.mark.parametrize("n", [3, 4])
def test_sampled_zero_on_a_line_is_the_reference_witness(n):
    # ker A(ξ) ≠ 0 on the line through (1, 2, …, n), off every axis/sign candidate
    a = parse_operator("rows: " + "; ".join(f"{i} d1 u1 - d{i} u1" for i in range(2, n + 1)), n)
    got = sampled_ellipticity(a)
    assert got == reference_sampled_ellipticity(a) and got.status == "no"
    assert got.witness_xi in (tuple(range(1, n + 1)), tuple(range(-1, -n - 1, -1)))


@pytest.mark.parametrize("n, level", [(2, 6), (3, 3), (3, 4), (4, 3), (4, 4)])
def test_build_rule_returns_one_read_only_rule_per_level(n, level):
    rule = build_rule(n, level)
    nodes, weights = _sphere(n, 2 ** (level - (n == 2)), half=True)
    nodes = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
    again = build_rule(n, level)
    assert again is rule and rule.nodes.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    if level == finest_level(n, SAMPLE_NODES):
        assert sample_nodes(n) is rule.nodes


def test_a_rule_over_the_sample_budget_is_built_per_call():
    from ellsym import quadrature

    level = finest_level(2, SAMPLE_NODES) + 1
    rule = build_rule(2, level)
    assert rule.count > SAMPLE_NODES and (2, level) not in quadrature._RULES
    again = build_rule(2, level)
    assert again is not rule and again.nodes.tobytes() == rule.nodes.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rule.nodes[0] = 0
