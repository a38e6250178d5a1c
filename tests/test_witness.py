import math
from fractions import Fraction

import numpy as np
import pytest

from ellsym import witness
from ellsym.dsl import parse_operator, parse_system
from ellsym.errors import EpsilonTooSmallError
from ellsym.operators import SystemSpec
from ellsym.poly import monomials_of_degree, multinomial
from ellsym.quadrature import float_symbol, monomial_table
from ellsym.witness import (
    CONSTRAINED_DECAY_POWER,
    DEFAULT_RESIDUAL_TOL,
    Grid,
    Spectrum,
    WitnessConfig,
    _classify,
    _fit_log,
    blowup_experiment,
    constrain_field,
    derivative_magnitude,
    lp_norm_of_field,
    mollified_dirac,
    solve_modes,
    solve_system,
    symbol_on_modes,
)
from genops import (
    compose_right,
    div_curl_operator,
    divergence_operator,
    gradient_operator,
    l1_norm,
    laplacian_operator,
    read_repo_file,
)

F = Fraction


def grid_symbol(op, k):
    """The complex A(ik) = Σ C_α (ik)^α at the frequencies k of a Spectrum."""
    shape = np.broadcast_shapes(*(kd.shape for kd in k))
    ik = np.zeros(shape + (len(k),), dtype=complex)
    for i, kd in enumerate(k):
        ik[..., i].imag = kd
    return float_symbol(op)(ik.reshape(-1, len(k))).reshape(shape + (op.target_dim, op.source_dim))


def apply_operator(op, fhat, spectrum):
    return np.einsum("...ij,...j->...i", grid_symbol(op, spectrum.k), fhat)


def full_spectrum(grid):
    """The Spectrum of every fftn mode: the reference for the half spectrum of Grid."""
    k1 = np.rint(np.fft.fftfreq(grid.npts) * grid.npts)
    k = np.meshgrid(*([k1] * grid.n), indexing="ij", sparse=True)
    nyquist = sum(np.abs(kd) == grid.npts // 2 for kd in k) > 0
    return Spectrum(k, sum(kd**2 for kd in k), nyquist)


def transform(f, grid, spectrum):
    """fftn of f on the full spectrum, rfftn on the half spectrum."""
    fft = np.fft.rfftn if spectrum is grid.half else np.fft.fftn
    return fft(f, axes=range(grid.n))


def coords(grid):
    x = np.arange(grid.npts) * grid.spacing
    return np.meshgrid(*([x] * grid.n), indexing="ij")


@pytest.mark.parametrize("order", [2, 9])
def test_symbol_on_modes_is_the_sum_over_alpha(order):
    # A(k) = Σ C_α k^α; every value here is an integer below 2^53, so exact
    a = parse_operator(
        f"from 2 to 2\nrows: d1^{order} u1 + 2 d1 d2^{order - 1} u2; -3 d2^{order} u1", 2
    )
    alphas = sorted(a.coeffs)
    grid = Grid(2, 16)
    for spec in (full_spectrum(grid), grid.half):
        points = np.stack(np.broadcast_arrays(*spec.k), axis=-1).reshape(-1, 2)
        mono = np.array([[math.prod(int(x) ** e for x, e in zip(k, alpha)) for alpha in alphas]
                         for k in points], dtype=float)
        assert np.array_equal(monomial_table(points, np.array(alphas)), mono)
        coeffs = np.array([a.coeffs[alpha] for alpha in alphas], dtype=float)
        ref = np.einsum("ma,aij->mij", mono, coeffs)
        assert np.array_equal(symbol_on_modes(a, spec.k), ref.reshape(spec.k2.shape + (2, 2)))


def test_symbol_on_modes_beyond_int64():
    # |k| reaches 2^15 on this grid, so k^5 reaches 2^75: no integer wrap-around
    a = parse_operator("rows: d1^5 u1", 1)
    grid = Grid(1, 2**16)
    for spec in (full_spectrum(grid), grid.half):
        ref = np.array([float(int(k) ** 5) for k in spec.k[0]])
        np.testing.assert_allclose(symbol_on_modes(a, spec.k)[:, 0, 0], ref, rtol=1e-15, atol=0)


def test_grid_budget_enforced():
    with pytest.raises(ValueError):
        Grid(4, 64)
    with pytest.raises(ValueError):
        Grid(3, 512)
    Grid(4, 32)
    Grid(3, 256)


def test_mollifier_unit_mass_direction():
    grid = Grid(2, 64)
    e = (F(3, 5), F(4, 5))
    f, _ = mollified_dirac(grid, 0.5, e)
    mass = f.sum(axis=tuple(range(grid.n))) * grid.cell_volume
    assert np.abs(mass - np.array([0.6, 0.8])).max() < 1e-12


def test_mollifier_annihilated_by_constraint():
    grid = Grid(3, 32)
    c = parse_operator("from 4 to 1\nrows: d1 f1 + d2 f2 + d3 f3", 3)
    e4 = (F(0), F(0), F(0), F(1))
    _, fhat = mollified_dirac(grid, 0.8, e4)
    cf = apply_operator(c, fhat, grid.half)
    assert np.abs(cf).max() < 1e-12


def test_mollifier_epsilon_too_small():
    grid = Grid(2, 64)
    with pytest.raises(EpsilonTooSmallError):
        mollified_dirac(grid, 0.5 * grid.spacing, (F(1), F(0)))


def test_constrain_field_divergence_free():
    grid = Grid(2, 64)
    f = np.random.default_rng(3).standard_normal(grid.shape + (2,))
    div = divergence_operator(2)
    for spec in (full_spectrum(grid), grid.half):
        projected = constrain_field(transform(f, grid, spec), div, spec.k)
        residual = apply_operator(div, projected, spec)
        residual.reshape(-1, 1)[0] = 0.0  # zero mode is not constrained
        scale = np.abs(projected).max()
        assert np.abs(residual).max() < 1e-10 * max(scale, 1.0)
        # idempotence
        again = constrain_field(projected, div, spec.k)
        assert np.abs(again - projected).max() < 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize(
    "rows", ["d1 f1 + d2 f2", "d1 f1 + d2 f2; d1 f1 + d2 f2"], ids=["divergence", "duplicate rows"]
)
def test_constrain_field_isotropic_rows_match_the_per_mode_pinv(rows, monkeypatch):
    # C(k)C(k)ᵀ = |k|²·H₀ with H₀ = [[1]] and the singular [[1, 1], [1, 1]]
    c = parse_operator(f"from 2 to {rows.count(';') + 1}\nrows: {rows}", 2)
    assert c.rows_isotropic
    grid = Grid(2, 64)
    f = np.random.default_rng(11).standard_normal(grid.shape + (2,))
    pinv = np.linalg.pinv
    for spec in (full_spectrum(grid), grid.half):
        fhat = transform(f, grid, spec)
        shapes = []
        monkeypatch.setattr(np.linalg, "pinv", lambda m: shapes.append(m.shape) or pinv(m))
        projected = constrain_field(fhat, c, spec.k).reshape(-1, 2)
        monkeypatch.undo()
        assert shapes == [(c.target_dim, c.target_dim)]  # one pinv, of H₀
        sym = symbol_on_modes(c, spec.k).reshape(-1, c.target_dim, 2)
        proj = np.eye(2) - pinv(sym) @ sym
        expected = np.einsum("mij,mj->mi", proj, fhat.reshape(-1, 2))
        expected[0] = fhat.reshape(-1, 2)[0]
        assert np.abs(projected - expected).max() <= 1e-14 * np.abs(fhat).max()


def test_constrain_field_trivial_kernel_zeroes_modes():
    grid = Grid(2, 32)
    c = parse_operator("from 1 to 1\nrows: f1", 2)  # C(ξ) = 1: kernel {0}
    f = np.random.default_rng(5).standard_normal(grid.shape + (1,))
    for spec in (full_spectrum(grid), grid.half):
        fhat = transform(f, grid, spec)
        flat = constrain_field(fhat, c, spec.k).reshape(-1, 1)
        assert np.abs(flat[1:]).max() < 1e-12 * np.abs(fhat).max()
        assert flat[0] == fhat.reshape(-1, 1)[0]


def test_solve_eigenfunction_exact():
    # -Δ written with literal signs: the grid applies true derivatives (ik)^α
    neg_lap = parse_operator(
        "from 2 to 2\nrows: -d1^2 u1 - d2^2 u1; -d1^2 u2 - d2^2 u2", 2
    )
    grid = Grid(2, 64)
    x1, _x2 = coords(grid)
    f = np.zeros(grid.shape + (2,))
    f[..., 0] = np.sin(x1)
    u, info = solve_system(neg_lap, f, grid)
    assert info["residual"] < 1e-12
    assert np.abs(u[..., 0] - np.sin(x1)).max() < 1e-12
    assert np.abs(u[..., 1]).max() < 1e-12


def test_solve_gradient_recovers_potential():
    grid = Grid(2, 64)
    x1, x2 = coords(grid)
    g = np.sin(x1) * np.cos(x2)
    f = np.stack([np.cos(x1) * np.cos(x2), -np.sin(x1) * np.sin(x2)], axis=-1)
    u, info = solve_system(gradient_operator(2), f, grid)
    assert info["residual"] < 1e-10
    target = g - g.mean()
    assert np.abs(u[..., 0] - target).max() < 1e-10


def test_solve_out_of_range_reports_the_residual():
    grid = Grid(2, 32)
    _x1, x2 = coords(grid)
    f = np.zeros(grid.shape + (2,))
    f[..., 0] = np.cos(x2)  # (cos x2, 0) ⊥ k = (0, ±1): no part of it is a gradient
    u, info = solve_system(gradient_operator(2), f, grid)
    assert info["residual"] == pytest.approx(1.0, rel=1e-12)
    assert not u.any()


def test_constraint_preserved_through_pipeline():
    grid = Grid(2, 64)
    full = full_spectrum(grid)
    div = divergence_operator(2)
    rng = np.random.default_rng(11)
    fhat = np.fft.fftn(rng.standard_normal(grid.shape + (2,)), axes=(0, 1))
    fhat = constrain_field(fhat, div, full.k)
    f = np.fft.ifftn(fhat, axes=(0, 1)).real
    before = np.abs(apply_operator(div, np.fft.fftn(f, axes=(0, 1)), full))[1:].max()
    solve_system(laplacian_operator(2), f, grid)
    after = np.abs(apply_operator(div, np.fft.fftn(f, axes=(0, 1)), full))[1:].max()
    assert before == after  # the solve never mutates f


def test_translation_invariance_of_ratios():
    grid = Grid(2, 64)
    lap = laplacian_operator(2)
    f, _ = mollified_dirac(grid, 0.5, (F(1), F(0)))

    def ratio(f):
        u, info = solve_system(lap, f, grid)
        return np.abs(u).max() / l1_norm(f, grid)

    r0 = ratio(f)
    r1 = ratio(np.roll(f, (8, 3), axis=(0, 1)))  # the center moved by 8 and 3 grid steps
    assert abs(r0 - r1) < 1e-10 * max(1.0, r0)


def test_ratio_stability_under_grid_doubling():
    lap_sys = parse_system(
        "dim 2\noperator A { from 2 to 2 rows: d1^2 u1 + d2^2 u1; d1^2 u2 + d2^2 u2 }"
    )
    eps = 8 * (2 * math.pi / 64)
    ratios = []
    for npts in (64, 128):
        cfg = WitnessConfig(
            system=lap_sys,
            epsilons=[eps],
            e=(F(1), F(0)),
            j=None,
            grid_n=npts,
            seed=1,
        )
        res = blowup_experiment(cfg)
        ratios.append(res.rows[0]["ratio"])
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.02


def test_blowup_divcurl_bad_direction_records_diagnostics():
    spec = parse_system(read_repo_file("systems/divcurl_r3.sys"))
    cfg = WitnessConfig(
        system=spec,
        epsilons=[0.8, 0.6],
        e=(F(0), F(0), F(0), F(1)),  # e4 ∈ K_C but e4 ∉ I_A
        j=1,
        grid_n=32,
        seed=0,
    )
    res = blowup_experiment(cfg)
    assert all(r["ratio"] is None for r in res.rows)
    assert res.classification == "INDETERMINATE"
    assert any("no ratio recorded" in d for d in res.diagnostics)


def test_blowup_constraint_violation_reported():
    spec = parse_system(read_repo_file("systems/laplacian_div_r2.sys"))
    cfg = WitnessConfig(
        system=spec,
        epsilons=[0.5],
        e=(F(1), F(0)),  # not in K_C = {0}
        j=None,
        grid_n=32,
        seed=0,
    )
    res = blowup_experiment(cfg)
    assert any("ConstraintViolation" in d for d in res.diagnostics)


def test_parity_hook_odd_dimension_flat_slope(monkeypatch):
    # n=3, k=3 elliptic (odd n, M ≡ 0): the inverse kernel has no log part,
    # so the magnitude at the Dirac center is width-flat. The global sup
    # drifts like ε^(2/3) toward its bounded limit at desk scale, so the
    # zero-slope check is made on the center column; the classifier must
    # still not report GROWING.
    a = parse_operator(
        "rows: (d1^2+d2^2+d3^2) d1 u1; (d1^2+d2^2+d3^2) d2 u1; (d1^2+d2^2+d3^2) d3 u1",
        3,
    )
    spec = SystemSpec(a, None, 3)
    cfg = WitnessConfig(
        system=spec,
        epsilons=[0.5, 0.35, 0.25],
        e=(F(1), F(0), F(0)),
        j=None,
        grid_n=64,
        seed=2,
    )
    # least-squares family: range deficiency expected
    monkeypatch.setattr(witness, "DEFAULT_RESIDUAL_TOL", 10.0)
    res = blowup_experiment(cfg)
    ratios = [r["ratio"] for r in res.rows]
    centers = [r["center_ratio"] for r in res.rows]
    assert all(r is not None for r in ratios)
    mean = sum(ratios) / len(ratios)
    x = np.log(1.0 / np.array([r["epsilon"] for r in res.rows]))
    slope = np.polyfit(x, np.array(centers), 1)[0]
    assert abs(slope) < 0.05 * mean
    assert res.classification != "GROWING"


def load_system(name):
    return parse_system(read_repo_file(f"systems/{name}.sys"))


def live_modes(grid):
    """Half-spectrum modes the solve keeps: neither the zero mode nor a Nyquist mode."""
    live = ~grid.half.nyquist
    live[(0,) * grid.n] = False
    return live


def test_solve_flags_every_mode_of_a_rank_one_symbol():
    # A(ξ) = [[ξ1, ξ2], [3ξ1, 3ξ2]] has rank 1 at every ξ, so G = A*A is
    # singular at every mode; |det G| < 1e-300 missed 141 of them at grid 32
    a = parse_operator("from 2 to 2\nrows: d1 u1 + d2 u2; 3 d1 u1 + 3 d2 u2", 2)
    grid = Grid(2, 32)
    f = np.random.default_rng(7).standard_normal(grid.shape + (2,))
    _, info = solve_system(a, f, grid)
    assert not info["uhat"].any()
    assert info["singular"].sum() == grid.half.k2.size - 1  # all but the zero mode
    # û = 0, so the residual is the data itself, mode by mode
    assert np.array_equal(info["resid_sq"], info["data_sq"])


# n = 4 runs at grid 16: at grid 32 the 4x4 complex symbol alone would take 270 MB
ELLIPTIC_SOLVE_CASES = (
    [
        pytest.param(load_system(name).a, npts, id=name)
        for name, npts in (
            ("laplacian_r2", 64),
            ("laplacian_div_r2", 64),
            ("gradient_r2", 64),
            ("divcurl_r3", 32),
            ("biharmonic_div_r4", 16),
        )
    ]
    + [
        # non-scalar Gram matrices: det G / ∏ diag G is 1/2 for both; isotropic
        # all the same, G(ξ) = |ξ|^2k·MᵀM for the shear M
        pytest.param(
            compose_right(laplacian_operator(2, dim=2), [[1, 1], [0, 1]]), 64, id="sheared laplacian"
        ),
        pytest.param(
            compose_right(div_curl_operator(), [[1, 1, 0], [0, 1, 0], [0, 0, 2]]), 32, id="sheared divcurl"
        ),
        # elliptic and not isotropic: G(ξ) is no multiple of a constant matrix
        pytest.param(
            parse_operator("from 2 to 2\nrows: d1^2 u1 + 2 d2^2 u1 + d1 d2 u2; d1^2 u2 + d2^2 u2", 2),
            64,
            id="anisotropic square",
        ),
    ]
)


@pytest.mark.parametrize("a, npts", ELLIPTIC_SOLVE_CASES)
def test_solve_flags_no_mode_of_an_elliptic_system(a, npts):
    n = len(next(iter(a.coeffs)))
    grid = Grid(n, npts)
    f = np.random.default_rng(17).standard_normal(grid.shape + (a.target_dim,))
    _, info = solve_system(a, f, grid)
    # random data have A(ik)* f̂ ≠ 0, so only a flagged mode gets û = 0
    assert (np.abs(info["uhat"]).sum(axis=-1)[live_modes(grid)] > 0).all()


def reference_solve(a, f, grid):
    """The complex full-grid solve: û = G⁻¹A(ik)*f̂ with G = A(ik)*A(ik) at every mode.

    Returns u, the sums of ‖A(ik)û − f̂‖² and ‖f̂‖² over the grid, and the
    singular-mode mask.
    """
    flat = np.fft.fftn(f, axes=range(grid.n)).reshape(-1, a.target_dim)
    full = full_spectrum(grid)
    flat[0] = 0.0
    flat[full.nyquist.reshape(-1)] = 0.0
    sym = grid_symbol(a, full.k).reshape(-1, a.target_dim, a.source_dim)
    gram = np.einsum("mji,mjl->mil", sym.conj(), sym)
    rhs = np.einsum("mji,mj->mi", sym.conj(), flat)
    gram[0] = np.eye(a.source_dim)
    diag = np.einsum("mii->mi", gram).real.prod(axis=-1)
    singular = np.abs(np.linalg.det(gram)) <= 1e-12 * diag
    gram[singular] = np.eye(a.source_dim)
    uhat = np.linalg.solve(gram, rhs[..., None])[..., 0]
    uhat[singular] = 0.0
    uhat[0] = 0.0
    resid_sq = np.abs(np.einsum("mij,mj->mi", sym, uhat) - flat) ** 2
    u = np.fft.ifftn(uhat.reshape(grid.shape + (a.source_dim,)), axes=range(grid.n)).real
    return u, resid_sq.sum(), (np.abs(flat) ** 2).sum(), singular.reshape(grid.shape)


def assert_matches_reference(a, f, grid):
    u, info = solve_system(a, f, grid)
    ref_u, ref_resid, ref_data, ref_singular = reference_solve(a, f, grid)
    assert np.abs(u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
    assert info["data_sq"].sum() == pytest.approx(ref_data, rel=1e-12)
    # an in-range residual is rounding noise: compare it on the data's scale
    assert abs(info["resid_sq"].sum() - ref_resid) <= 1e-12 * ref_data
    assert np.array_equal(info["singular"], ref_singular[..., : grid.npts // 2 + 1])


SOLVE_REFERENCE_CASES = ELLIPTIC_SOLVE_CASES + [
    pytest.param(parse_operator("from 2 to 2\nrows: d1 u1 + d2 u2; 3 d1 u1 + 3 d2 u2", 2), 32, id="rank one"),
    # G(ξ) = diag(|ξ|², 0): isotropic, and singular at every mode
    pytest.param(parse_operator("from 2 to 2\nrows: d1 u1; d2 u1", 2), 32, id="rank one, isotropic"),
    # rows of degree 1 and 2: the data take the row phases i^(k - d_r)
    pytest.param(
        parse_operator("from 2 to 3\nrows: d1 u1 + d2 u2; d1 d2 u1 - d2^2 u2; d1^2 u2", 2),
        32,
        id="mixed degrees",
    ),
]
PER_MODE_SOLVE_CASES = {"anisotropic square", "rank one", "mixed degrees"}


@pytest.mark.parametrize("a, npts", SOLVE_REFERENCE_CASES)
def test_solve_matches_the_complex_full_grid_reference(a, npts):
    grid = Grid(len(next(iter(a.coeffs))), npts)
    f = np.random.default_rng(17).standard_normal(grid.shape + (a.target_dim,))
    assert_matches_reference(a, f, grid)


@pytest.mark.parametrize(
    "a, npts, per_mode",
    [pytest.param(*case.values, case.id in PER_MODE_SOLVE_CASES, id=case.id) for case in SOLVE_REFERENCE_CASES],
)
def test_solve_factors_per_mode_only_a_non_isotropic_gram(a, npts, per_mode, monkeypatch):
    # an isotropic G = |k|^2k·G₀ takes one det and no solve; any other G one
    # det and one solve over the stack of all half-spectrum modes
    dets, solves = [], []
    det, solve = np.linalg.det, np.linalg.solve
    monkeypatch.setattr(np.linalg, "det", lambda g: dets.append(len(g)) or det(g))
    monkeypatch.setattr(np.linalg, "solve", lambda g, b: solves.append(len(g)) or solve(g, b))
    grid = Grid(len(next(iter(a.coeffs))), npts)
    info = solve_modes(a, np.ones(a.target_dim), grid)
    modes = grid.half.k2.size
    assert a.isotropic is not per_mode
    assert (dets, solves) == (([modes], [modes]) if per_mode else ([1], []))
    assert not info["singular"].flat[0]


def test_isotropy_is_false_for_mixed_row_degrees():
    a = parse_operator("from 1 to 2\nrows: d1 u1; d1^2 u1 + d2^2 u1", 2)
    assert (a.isotropic, a.rows_isotropic) == (False, False)


def test_solve_matches_the_reference_on_constrained_odd_order_data():
    # k = 1 and a complex f̂: two real right-hand sides per mode, û = -i·X
    system = load_system("divcurl_r3")
    grid = Grid(3, 32)
    base = np.random.default_rng(23).standard_normal(grid.shape + (4,))
    fhat = constrain_field(np.fft.fftn(base, axes=range(3)), system.c, full_spectrum(grid).k)
    assert_matches_reference(system.a, np.fft.ifftn(fhat, axes=range(3)).real, grid)


def test_solve_modes_takes_one_real_column_for_real_data():
    # the grid Dirac: f̂ = e on every mode, real, as blowup_experiment passes it
    a = load_system("divcurl_r3").a
    grid = Grid(3, 32)
    e = np.array([1.0, 0.5, 0.0, 0.0])
    f = np.zeros(grid.shape + (4,))
    f[0, 0, 0] = e
    info = solve_modes(a, e, grid)
    u = np.fft.irfftn(info["uhat"], s=grid.shape, axes=range(3))
    ref_u, ref_resid, ref_data, _ = reference_solve(a, f, grid)
    assert np.abs(u - ref_u).max() <= 1e-12 * np.abs(ref_u).max()
    assert info["data_sq"].sum() == pytest.approx(ref_data, rel=1e-12)
    assert info["resid_sq"].sum() == pytest.approx(ref_resid, rel=1e-12)


def test_constrain_field_commutes_with_a_modewise_scale():
    grid = Grid(2, 64)
    rng = np.random.default_rng(13)
    div = divergence_operator(2)
    for spec in (full_spectrum(grid), grid.half):
        shape = spec.k2.shape + (2,)
        hhat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = np.exp(-0.5 * 0.3**2 * spec.k2)[..., None]
        scaled_first = constrain_field(g * hhat, div, spec.k)
        scaled_after = g * constrain_field(hhat, div, spec.k)
        live = ~spec.nyquist
        gap = np.linalg.norm((scaled_first - scaled_after)[live], axis=-1)
        assert (gap <= 1e-14 * np.linalg.norm((g * hhat)[live], axis=-1)).all()


def per_width_reference(config):
    """Rows of the experiment built width by width: data, solve, derivatives."""
    system = config.system
    a, n = system.a, system.n
    grid = Grid(n, config.grid_n)
    j = config.j
    order = a.order - (n if j is None else j)
    p = None if j is None else n / (n - j)
    full = full_spectrum(grid)
    k2 = full.k2
    if config.mode == "constrained":
        base = np.random.default_rng(config.seed).standard_normal(grid.shape + (a.target_dim,))
        decay = np.zeros(grid.shape)
        decay[k2 > 0] = k2[k2 > 0] ** (-CONSTRAINED_DECAY_POWER / 2.0)
        base_hat = np.fft.fftn(base, axes=range(n)) * decay[..., None]
    rows = []
    for eps in config.epsilons:
        if config.mode == "dirac":
            f, _ = mollified_dirac(grid, eps, config.e)
        else:
            fhat = base_hat * np.exp(-0.5 * eps**2 * k2)[..., None]
            if system.c is not None:
                fhat = constrain_field(fhat, system.c, full.k)
            fhat.reshape(-1, a.target_dim)[0] = 0.0
            f = np.fft.ifftn(fhat, axes=range(n)).real
        l1 = l1_norm(f, grid)
        _, info = solve_system(a, f, grid)
        mag = derivative_magnitude(info["uhat"], grid, order)
        rows.append(
            {
                "ratio": lp_norm_of_field(mag, grid, p) / l1,
                "center_ratio": float(mag[(0,) * n]) / l1,
                "residual": info["residual"],
            }
        )
    return rows


EQUIVALENCE_CASES = {
    "laplacian_r2 dirac j=inf": dict(
        system="laplacian_r2", epsilons=[0.8, 0.4, 0.2], e=(F(1), F(0)), j=None, grid_n=64
    ),
    "divcurl_r3 dirac e1 j=1": dict(
        system="divcurl_r3", epsilons=[0.8, 0.6, 0.4], e=(F(1), F(0), F(0), F(0)), j=1, grid_n=32
    ),
    "divcurl_r3 dirac e4 out of range": dict(
        system="divcurl_r3", epsilons=[0.8, 0.6], e=(F(0), F(0), F(0), F(1)), j=1, grid_n=32
    ),
    # a random field is not a gradient: the residual is O(1) and moves with eps
    "gradient_r2 constrained out of range": dict(
        system="gradient_r2", epsilons=[0.8, 0.4, 0.2], j=1, grid_n=64, seed=1, mode="constrained"
    ),
    "laplacian_div_r2 constrained j=1": dict(
        system="laplacian_div_r2", epsilons=[0.4, 0.2, 0.1], j=1, grid_n=128, seed=20240811,
        mode="constrained",
    ),
    # p = 2: the L² norm by Parseval, the center by a half-spectrum sum
    "laplacian_r2 dirac j=1": dict(
        system="laplacian_r2", epsilons=[0.8, 0.4, 0.2], e=(F(1), F(0)), j=1, grid_n=64
    ),
}


@pytest.mark.parametrize("label", sorted(EQUIVALENCE_CASES))
def test_blowup_matches_the_per_width_pipeline(label):
    kwargs = dict(EQUIVALENCE_CASES[label])
    config = WitnessConfig(system=load_system(kwargs.pop("system")), **kwargs)
    res = blowup_experiment(config)
    ref = per_width_reference(config)
    tol = DEFAULT_RESIDUAL_TOL
    assert [r["residual"] > tol for r in res.rows] == [r["residual"] > tol for r in ref]
    in_range = [r["residual"] <= tol for r in ref]
    for row, want, ok in zip(res.rows, ref, in_range):
        if not ok:
            # an out-of-range residual is O(1) and agrees; an in-range one is rounding noise
            assert row["ratio"] is None
            assert row["residual"] == pytest.approx(want["residual"], rel=1e-12)
            continue
        assert row["ratio"] == pytest.approx(want["ratio"], rel=1e-12)
        if config.mode == "dirac":
            # the center value is 0 by symmetry for div-curl: compare on the ratio's scale
            assert abs(row["center_ratio"] - want["center_ratio"]) <= 1e-12 * want["ratio"]
    ratios = [r["ratio"] if ok else None for r, ok in zip(ref, in_range)]
    assert res.classification == _classify(ratios)
    if config.j is None:
        slope, intercept, _ = _fit_log(config.epsilons, ratios)
        assert res.slope == pytest.approx(slope, rel=1e-12)
        assert res.intercept == pytest.approx(intercept, rel=1e-12)
    out = [f"solve residual {r['residual']:.3e} exceeds" for r, ok in zip(ref, in_range) if not ok]
    got = [d for d in res.diagnostics if "no ratio recorded" in d]
    assert len(got) == len(out) and all(w in g for g, w in zip(got, out))


def component_last_magnitude(uhat, grid, order):
    """derivative_magnitude with the components on the last axis: strided irfftn calls."""
    spec = grid.half
    acc = np.zeros(grid.shape)
    for beta in monomials_of_degree(grid.n, order):
        mono = math.prod(kd**b for kd, b in zip(spec.k, beta))
        mult = np.where(spec.nyquist, 0.0, (1j ** (order % 4)) * mono)
        du = np.fft.irfftn(mult[..., None] * uhat, s=grid.shape, axes=range(grid.n))
        acc += multinomial(order, beta) * (du**2).sum(axis=-1)
    return np.sqrt(acc)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name, npts", [("laplacian_r2", 64), ("laplacian_div_r2", 64), ("divcurl_r3", 32)])
def test_derivative_magnitude_matches_the_component_last_loop(name, npts, order):
    system = load_system(name)
    grid = Grid(system.n, npts)
    f = np.random.default_rng(29).standard_normal(grid.shape + (system.a.target_dim,))
    _, info = solve_system(system.a, f, grid)
    got = derivative_magnitude(info["uhat"], grid, order)
    assert np.array_equal(got, component_last_magnitude(info["uhat"], grid, order))


@pytest.mark.parametrize(
    "e, rel", [((F(1), F(0)), 0.0), ((F(3, 5), F(4, 5)), 1e-15), ((F(3), F(1)), 1e-15)],
    ids=["e1", "(3/5,4/5)", "(3,1)"],
)
def test_dirac_l1_from_the_scalar_field(e, rel):
    # ‖f‖_{L¹} = ‖e‖·Σ|g_ε|·hⁿ from the scalar Gaussian; the sup norm of u is the
    # same bits on both sides, so the ratio carries the whole L¹ difference
    system = load_system("laplacian_r2")
    grid = Grid(2, 64)
    config = WitnessConfig(system=system, epsilons=[0.8, 0.4, 0.2], e=e, j=None, grid_n=64)
    rows = blowup_experiment(config).rows
    evec = np.array([float(x) for x in e])
    top = np.abs(evec).max()
    evec = np.ldexp(evec, -math.frexp(top)[1]) if top > 1.0 else evec  # as blowup_experiment scales it
    info = solve_modes(system.a, evec / (2.0 * math.pi) ** 2 * grid.npts**2, grid)
    for row, eps in zip(rows, config.epsilons):
        g = np.exp(-0.5 * eps**2 * grid.half.k2)
        sup = float(derivative_magnitude(g[..., None] * info["uhat"], grid, 0).max())
        want = sup / l1_norm(mollified_dirac(grid, eps, evec)[0], grid)
        assert abs(row["ratio"] - want) <= rel * want


def test_parseval_center_matches_the_synthesized_center():
    # n = 4, j = 2: p = 2, and D²u of the Dirac family is nonzero at the center
    config = WitnessConfig(system=load_system("biharmonic_div_r4"), epsilons=[0.6],
                           e=(F(1), F(0), F(0), F(0)), j=2, grid_n=32)
    for row, want in zip(blowup_experiment(config).rows, per_width_reference(config)):
        assert row["ratio"] == pytest.approx(want["ratio"], rel=1e-12)
        assert row["center_ratio"] == pytest.approx(want["center_ratio"], rel=1e-12)


@pytest.mark.parametrize("label", ["laplacian_r2 dirac j=1", "laplacian_div_r2 constrained j=1"])
def test_p2_norms_synthesize_the_data_only(label, monkeypatch):
    # one irfftn per width, for ‖f‖_{L¹}: Parseval and the center sum need none
    kwargs = dict(EQUIVALENCE_CASES[label])
    config = WitnessConfig(system=load_system(kwargs.pop("system")), **kwargs)
    calls = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *args, **kw: calls.append(1) or irfftn(*args, **kw))
    result = blowup_experiment(config)
    assert all(r["ratio"] is not None for r in result.rows)
    assert len(calls) == len(config.epsilons)


# below 2 spacings of grid 64, above π/2, and not a width at all
@pytest.mark.parametrize("eps", [0.1, 1.6, 0, -0.2, math.nan])
def test_blowup_rejects_widths_off_the_grid_or_period(eps):
    dirac = WitnessConfig(
        system=load_system("laplacian_r2"), epsilons=[0.4, eps], e=(F(1), F(0)), j=None, grid_n=64
    )
    constrained = WitnessConfig(
        system=load_system("laplacian_div_r2"), epsilons=[0.4, eps], j=1, grid_n=64,
        mode="constrained",
    )
    for config in (dirac, constrained):
        with pytest.raises(EpsilonTooSmallError):
            blowup_experiment(config)


def test_blowup_dirac_data_underflowing_to_zero_record_no_ratio():
    # nonzero and finite, but every |f|² of the field underflows: ‖f‖_{L¹} = 0
    config = WitnessConfig(
        system=load_system("laplacian_r2"), epsilons=[0.8, 0.4], e=(F(1, 10**320), F(0)), grid_n=32
    )
    result = blowup_experiment(config)
    assert result.classification == "INDETERMINATE"
    assert [r["ratio"] for r in result.rows] == [None, None]
    assert all("underflow to zero" in d for d in result.diagnostics)


def test_constrained_experiment_runs_without_a_full_spectrum_transform(monkeypatch):
    # the constrained field is built, projected and synthesized on the half spectrum
    def refuse(*args, **kwargs):
        raise AssertionError("a full-spectrum FFT was called")

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    # in range (divergence-free data), and out of range (div-curl, odd order)
    for system, classification in (("laplacian_div_r2", "BOUNDED"), ("divcurl_r3", "INDETERMINATE")):
        config = WitnessConfig(system=load_system(system), epsilons=[0.8, 0.6, 0.4], j=1,
                               grid_n=32, seed=3, mode="constrained")
        result = blowup_experiment(config)
        assert result.classification == classification
        assert all((r["ratio"] is None) == (r["residual"] > DEFAULT_RESIDUAL_TOL) for r in result.rows)
