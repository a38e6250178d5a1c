"""Acceptance criteria, one test per criterion, with a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from ellsym.conditions import (
    NONELLIPTIC_CONSTRAINT_DIAGNOSTIC,
    check_weak_cancellation,
    image_intersection,
    isotropic_moments,
    kernel_intersection,
    run_full_check,
)
from ellsym.dsl import parse_operator, parse_system
from ellsym.operators import OperatorSpec, SystemSpec, annihilator, homogenize
from ellsym.poly import MatrixPolynomial
from ellsym.quadrature import build_rule, moment_map, moments_for_vectors
from ellsym.ratlinalg import identity, mat_vec, rank, solve
from ellsym.witness import WitnessConfig, blowup_experiment
from genops import (
    all_witnesses,
    div_curl_operator,
    divergence_operator,
    gradient_operator,
    laplacian_operator,
    random_elliptic_operator,
    random_operator,
    random_rational_point,
    read_repo_file,
    sampled_kernel_dimension,
)

F = Fraction
SEED = 20240811


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS — {text}")


def _load(path):
    return parse_system(read_repo_file(path))


def test_criterion_01_divcurl_regression():
    report = run_full_check(_load("systems/divcurl_r3.sys"))
    assert report.kernel_basis.basis == ((F(0), F(0), F(0), F(1)),)
    assert report.image_basis.basis == ((F(1), F(0), F(0), F(0)),)
    assert report.cocanceling is False
    assert report.canceling is False
    assert report.cc.holds is True
    _ok(1, "div-curl regression: K_C=span{e4}, I_A=span{e1}, CC holds (exact)")


def test_criterion_02_laplacian_divergence_regime():
    for n in (2, 3, 4):
        system = SystemSpec(laplacian_operator(n), divergence_operator(n), n)
        report = run_full_check(system)
        assert report.cocanceling is True, f"n={n}"
        assert report.cc.holds is True, f"n={n}"
    for n in (2, 4):
        system = SystemSpec(
            laplacian_operator(n, power=n // 2), divergence_operator(n), n
        )
        report = run_full_check(system)
        assert report.cwc is not None and report.cwc.holds, f"n={n}"
        assert report.cwc.vacuous, f"n={n}"
        assert report.cc.holds  # I_A ∩ K_C = {0}
    _ok(2, "vector Laplacian + div: cocanceling & CC (n=2,3,4); CWC vacuous (n=2,4)")


def test_criterion_03_weak_cancellation_failure_2pi():
    mm = moment_map(laplacian_operator(2), build_rule(2, 6))
    target = 2 * math.pi * np.eye(2)
    assert np.abs(mm.matrix - target).max() <= 1e-8 * 2 * math.pi
    i_a = image_intersection(laplacian_operator(2))
    res = check_weak_cancellation(laplacian_operator(2), i_a)
    assert not res.holds
    # the isotropic certificate: M e = 2π·e in rationals times π, |M e| = 2π to the bit
    assert res.method == "isotropic"
    for e, nrm in res.moments:
        assert isotropic_moments(laplacian_operator(2), e)[0] == [tuple(2 * x for x in e)]
        assert nrm == 2 * math.pi
    _ok(3, "moment map of the 2-d Laplacian equals 2π·Id within 1e-8 relative, and exactly")


def test_criterion_04_odd_dimension_parity_bitwise():
    rng = random.Random(SEED)
    ks = [3, 4, 5, 3, 4]
    for i, k in enumerate(ks):
        dim_v = 1 if k == 5 else rng.choice((1, 2))
        a = random_elliptic_operator(rng, 3, k, dim_v=dim_v, extra_rows=2)
        mm = moment_map(a, build_rule(3, 3))
        assert np.all(mm.matrix == 0.0), f"operator {i} (k={k}) not bitwise zero"
        assert mm.error_estimate == 0.0
        i_a = image_intersection(a)
        res = check_weak_cancellation(a, i_a)
        assert res.holds, f"operator {i} (k={k}) weak verdict"
    _ok(4, "5 random elliptic operators, n=3: antithetic moments bitwise 0; weakly canceling")


def _annihilator_suite():
    rng = random.Random(SEED + 1)
    ops = [
        gradient_operator(2),
        gradient_operator(3),
        div_curl_operator(),
        laplacian_operator(2),
        laplacian_operator(3),
        laplacian_operator(4, power=2),
        random_elliptic_operator(rng, 3, 3, dim_v=1, extra_rows=2),
        random_elliptic_operator(rng, 2, 2, dim_v=2, extra_rows=1),
    ]
    return ops


def test_criterion_05_annihilator_correctness():
    rng = random.Random(SEED + 2)
    for op in _annihilator_suite():
        ann = annihilator(op)
        sym_a = op.symbol()
        sym_l = ann.symbol()
        # exact polynomial identity L(ξ) A(ξ) = 0
        assert (sym_l * sym_a).is_zero()
        gram_sym = sym_a.transpose() * sym_a
        detg = gram_sym.det()
        checked = 0
        while checked < 20:
            xi = random_rational_point(rng, op.space_dim)
            if detg.eval(xi) == 0:
                continue
            checked += 1
            l_xi = sym_l.eval(xi)
            r = rank(l_xi)
            # ker L(ξ) = im A(ξ): rank L = dim E − dim V, so the kernel has
            # dimension dim V (the criterion's "dim E − dim V" names the rank)
            assert r == op.target_dim - op.source_dim
            assert op.target_dim - r == op.source_dim
            a_xi = sym_a.eval(xi)
            for e in image_intersection(op).basis:
                assert solve(a_xi, list(e)) is not None
    _ok(5, "L·A ≡ 0 exactly; kernel/rank dimensions and I_A solvability at 20 samples")


def test_criterion_06_oracle_equivalence():
    rng = random.Random(SEED + 3)
    for case in range(10):
        n = rng.choice((2, 3))
        e_dim = rng.randint(2, 4)
        f_dim = rng.randint(1, 3)
        homogeneous = case < 5
        c = random_operator(rng, n, e_dim, f_dim, max_degree=2, homogeneous=homogeneous)
        exact = kernel_intersection(c)
        pts = [random_rational_point(rng, n) for _ in range(100)]
        dim_num, basis_num = sampled_kernel_dimension(c, pts)
        assert dim_num == exact.dim, f"case {case}"
        sym = c.symbol()
        for xi in pts:
            mat = sym.eval(xi)
            for v in exact.basis:
                assert all(x == 0 for x in mat_vec(mat, v))
        if exact.dim:
            b = np.array([[float(x) for x in row] for row in exact.basis])
            q, _ = np.linalg.qr(b.T)
            for w in basis_num:
                assert np.linalg.norm(w - q @ (q.T @ w)) < 1e-8
    _ok(6, "kernel_intersection matches the 100-point sampled oracle on 10 operators")


def test_criterion_07_left_inverse_identity():
    from ellsym.conditions import left_inverse_family, potential_field

    # divergence with M = Id
    div2 = divergence_operator(2)
    fam = left_inverse_family(div2, identity(2))
    assert fam.composite() == identity(2)  # zero rational residual
    pf = potential_field(fam)
    assert pf.identity_checked
    # quartic R^4 constraint stacked with its exact annihilator row
    stack = parse_operator("from 3 to 2\nrows: d1 f1 + d2 f2; d4^4 f2 - d3^4 f3", 4)
    hom = homogenize(stack)
    m = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(0)]]
    fam2 = left_inverse_family(hom, m)
    comp = fam2.composite()
    assert comp == fam2.projection
    for q in fam2.target_subspace.basis:
        assert mat_vec(comp, q) == tuple(q)  # identity on im M*, exactly
    pf2 = potential_field(fam2)
    assert pf2.identity_checked
    _ok(7, "left-inverse identity and adjoint potential identity hold exactly")


def _witness_growing_config():
    return WitnessConfig(
        system=_load("systems/laplacian_r2.sys"),
        epsilons=[0.4, 0.2, 0.1, 0.05],
        e=(F(1), F(0)),
        j=None,
        grid_n=256,
        seed=SEED,
    )


def _witness_bounded_config():
    return WitnessConfig(
        system=_load("systems/laplacian_div_r2.sys"),
        epsilons=[0.4, 0.2, 0.1, 0.05],
        j=1,
        grid_n=256,
        seed=SEED,
        mode="constrained",
    )


def test_criterion_08_witness_blowup_and_boundedness():
    start = time.monotonic()
    res = blowup_experiment(_witness_growing_config())
    ratios = [r["ratio"] for r in res.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] / ratios[0] >= 2.0
    assert res.classification == "GROWING"
    assert res.slope > 0
    assert res.r_squared >= 0.95
    bounded = blowup_experiment(_witness_bounded_config())
    bratios = [r["ratio"] for r in bounded.rows]
    mean = sum(bratios) / len(bratios)
    tv = sum(abs(b - a) for a, b in zip(bratios, bratios[1:]))
    assert tv < 0.10 * mean
    assert bounded.classification == "BOUNDED"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"witness experiments took {elapsed:.1f}s"
    _ok(8, f"blow-up GROWING (x{ratios[-1] / ratios[0]:.2f}, R²={res.r_squared:.4f}); constrained BOUNDED ({elapsed:.0f}s)")


def test_criterion_09_discrepancy_detection():
    report = run_full_check(_load("systems/quartic_r4.sys"))
    assert report.elliptic.status == "no"
    witnesses = all_witnesses(report.elliptic)
    target = ((F(0), F(0), F(1), F(0)), (F(1), F(0)))
    assert target in witnesses
    assert NONELLIPTIC_CONSTRAINT_DIAGNOSTIC in report.diagnostics
    _ok(9, "quartic R^4 file: elliptic=no with witness (0,0,1,0)/(1,0) and diagnostic")


def _battery():
    """JSON artifacts covering criteria 1–9, for the determinism check."""
    out = {}
    for name in (
        "divcurl_r3",
        "laplacian_div_r2",
        "laplacian_r2",
        "quartic_r4",
        "biharmonic_div_r4",
    ):
        report = run_full_check(_load(f"systems/{name}.sys"))
        out[f"check:{name}"] = json.dumps(report.to_json(), sort_keys=True, indent=1)
    mm = moment_map(laplacian_operator(2), build_rule(2, 6))
    out["moment:laplacian_r2"] = json.dumps(mm.to_json(), sort_keys=True, indent=1)
    grow = blowup_experiment(_witness_growing_config())
    out["witness:growing"] = json.dumps(grow.to_json(), sort_keys=True, indent=1)
    bounded = blowup_experiment(_witness_bounded_config())
    out["witness:bounded"] = json.dumps(bounded.to_json(), sort_keys=True, indent=1)
    rng = random.Random(SEED)
    ks = [3, 4, 5, 3, 4]
    for i, k in enumerate(ks):
        dim_v = 1 if k == 5 else rng.choice((1, 2))
        a = random_elliptic_operator(rng, 3, k, dim_v=dim_v, extra_rows=2)
        vals, _ = moments_for_vectors(a, np.eye(a.target_dim), build_rule(3, 3))
        out[f"parity:{i}"] = json.dumps(vals.tolist(), sort_keys=True)
    return out

def test_criterion_10_determinism_byte_identical():
    first = _battery()
    second = _battery()
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"artifact {key} not byte-identical"
    _ok(10, f"{len(first)} JSON artifacts byte-identical across repeated runs")
