"""Spectral experiments on the periodic torus [0, 2π)^n.

The torus stands in for R^n at desk scale: with the mollification width well
inside the period the Gaussian tails are below 1e-12 at the boundary and the
blow-up phenomenon under study is local. The zero mode is not in the range of
a homogeneous symbol, so the data mean is removed and its size reported.

Derivatives follow the grid convention A(ik) = Σ C_α (ik)^α. Data and
solutions are real, so every spectrum is the rfftn half spectrum (last axis
0..N/2), and every solve and projection runs on it in real arithmetic:
A(ik) = i^k·A(k) for one order k, and only norms of fields enter the reported
ratios.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .conditions import kernel_intersection
from .errors import EpsilonTooSmallError, InvalidArgumentError
from .poly import monomials_of_degree, multinomial

# fixed thresholds of every experiment, echoed in its config; not settings
DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_GROWTH_FACTOR = 2.0
DEFAULT_FLATNESS = 0.10
MIN_EPS_SPACING_FACTOR = 2.0  # required eps / grid-spacing ratio
CONSTRAINED_DECAY_POWER = 2.0  # spectral decay |k|^-p of the fixed random base
ZERO_DATA_RTOL = 1e-12  # a projected spectrum this far below the unprojected one is rounding noise

# the rfftn half spectrum (last axis 0..N/2): lattice frequencies k (sparse: one
# broadcastable float array per axis), |k|² and the mask of modes with a Nyquist
# index (N/2 on some axis)
Spectrum = namedtuple("Spectrum", "k k2 nyquist")


@dataclass
class Grid:
    """Uniform periodic grid with 2π period and npts points per axis."""

    n: int
    npts: int

    def __post_init__(self):
        if self.npts < 16 or self.npts % 2:
            raise InvalidArgumentError(
                f"grid needs an even point count of at least 16, got {self.npts}"
            )
        assert self.n >= 1
        # memory budget: up to 256 points per axis through n=3, 32 for n=4
        if self.n >= 4 and self.npts > 32:
            raise InvalidArgumentError(f"n={self.n} grids are capped at 32 points per axis")
        if self.npts ** self.n > 256**3:
            raise InvalidArgumentError("grid exceeds the desk-scale memory budget")

    @property
    def spacing(self):
        return 2.0 * math.pi / self.npts

    @property
    def shape(self):
        return (self.npts,) * self.n

    @property
    def cell_volume(self):
        return self.spacing**self.n

    @cached_property
    def half(self):
        k1 = np.rint(np.fft.fftfreq(self.npts) * self.npts)
        k = np.meshgrid(*([k1] * (self.n - 1) + [k1[: self.npts // 2 + 1]]), indexing="ij", sparse=True)
        nyquist = sum(np.abs(kd) == self.npts // 2 for kd in k) > 0
        return Spectrum(k, sum(kd**2 for kd in k), nyquist)


def symbol_on_modes(op, k):
    """Real A(k) = Σ C_α k^α at the frequencies k of a Spectrum, shape k2 + (target, source)."""
    points = np.stack(np.broadcast_arrays(*k), axis=-1)
    values = op.float_symbol(points.reshape(-1, len(k)))
    return values.reshape(points.shape[:-1] + (op.target_dim, op.source_dim))


def _check_width(grid, eps):
    """Raise unless eps is a finite width of at least MIN_EPS_SPACING_FACTOR grid
    spacings and at most π/2, where the Gaussian tails stay inside the period."""
    factor = MIN_EPS_SPACING_FACTOR
    if not math.isfinite(eps) or eps < factor * grid.spacing:
        raise EpsilonTooSmallError(
            f"eps={eps} is not a finite width of at least {factor} grid "
            f"spacings ({factor * grid.spacing:.4g})"
        )
    if eps > math.pi / 2:
        raise EpsilonTooSmallError(
            f"eps={eps} too wide for the 2π period; Gaussian tails would wrap"
        )


def _dirac_profile(grid, eps):
    """The scalar unit-mass periodized Gaussian g_ε of width eps, and its
    Fourier-series coefficients on the rfftn half spectrum."""
    _check_width(grid, eps)
    coeff = np.exp(-0.5 * eps * eps * grid.half.k2) / (2.0 * math.pi) ** grid.n
    return np.fft.irfftn(coeff * grid.npts**grid.n, s=grid.shape, axes=range(grid.n)), coeff


def mollified_dirac(grid, eps, e):
    """Unit-mass periodized Gaussian of width eps in the direction e.

    Returns (field, fhat) where fhat holds the Fourier-series coefficients on
    the rfftn half spectrum. Exact directional structure: every Fourier
    coefficient is a scalar times e, so any constraint matrix annihilating e
    annihilates the field identically.
    """
    f, coeff = _dirac_profile(grid, eps)
    evec = np.array([float(x) for x in e])
    return f[..., None] * evec, coeff[..., None] * evec


def constrain_field(fhat, c_op, k):
    """Project every nonzero mode of fhat, at the frequencies k of its spectrum, onto
    ker C(ik) = ker C(k) (homogeneous rows), with the real projector I − C(k)⁺C(k).
    C⁺ = Cᵀ(CCᵀ)⁺ for every C, so where CCᵀ = |k|^2m·H₀ (`rows_isotropic`) it is
    I − C(k)ᵀH₀⁺C(k)/|k|^2m, H₀ = C(e₁)C(e₁)ᵀ; any other C takes a pinv per mode."""
    sym = symbol_on_modes(c_op, k).reshape(-1, c_op.target_dim, c_op.source_dim)
    flat = fhat.reshape(-1, c_op.source_dim)
    parts = np.stack([flat.real, flat.imag], axis=-1)
    if c_op.rows_isotropic:
        c1 = c_op.float_symbol(np.eye(1, len(k)))[0]
        corr = sym.transpose(0, 2, 1) @ (np.linalg.pinv(c1 @ c1.T) @ (sym @ parts))
        parts -= corr / (np.maximum(sum(kd**2 for kd in k), 1.0) ** c_op.order).reshape(-1, 1, 1)
    else:
        parts = (np.eye(c_op.source_dim) - np.linalg.pinv(sym) @ sym) @ parts
    out = parts.view(complex).reshape(fhat.shape)
    out.reshape(-1, c_op.source_dim)[0] = flat[0]
    return out


def solve_modes(a_op, fhat, grid):
    """Least-squares û = A(ik)†f̂ on the rfftn half spectrum, in real arithmetic.

    fhat broadcasts to grid.half + (target,). A(ik) = i^k·D*A(k) with A(k)
    real and row phases D = diag(i^(k − d_r)), so û = i^-k·G⁻¹A(k)ᵀ(D f̂) with
    G = A(k)ᵀA(k) real; the real and imaginary parts of D f̂ are two real
    right-hand sides (one if D f̂ is real). The zero mode and the Nyquist modes
    (no conjugate partner) get no data. A mode with det G ≤ 1e-12·∏ diag G
    (scale-free: the ratio lies in [0, 1]) is singular and gets û = 0. Where
    G = |k|^2k·G₀, G₀ = G(e₁) (`a_op.isotropic`), the test is decided on G₀ and
    X = |k|^-2k·G₀⁻¹A(k)ᵀ(D f̂); any other A takes det G and a solve per mode.
    Returns {uhat, resid_sq, data_sq, singular} on the half spectrum; the
    squares ‖A(ik)û − f̂‖² and ‖f̂‖² count twice off the last axis's zero
    plane, for the conjugate −k, so their sums are the full-grid sums.
    """
    spec = grid.half
    t, s = a_op.target_dim, a_op.source_dim
    live = ~spec.nyquist
    live.flat[0] = False
    data = np.where(live[..., None], fhat, 0.0).reshape(-1, t)
    degs = a_op.row_degrees  # None for a zero row, which takes any phase
    k = max((d for d in degs if d is not None), default=0)
    if any(d not in (None, k) for d in degs):
        data = data * np.array([1 if d is None else 1j ** (k - d) for d in degs])
    cols = data.view(float).reshape(-1, t, 2) if np.iscomplexobj(data) else data[..., None]

    sym = symbol_on_modes(a_op, spec.k).reshape(-1, t, s)
    sym_t = sym.transpose(0, 2, 1)
    a1 = a_op.float_symbol(np.eye(1, grid.n)) if a_op.isotropic else sym
    gram = a1.transpose(0, 2, 1) @ a1
    singular = np.abs(np.linalg.det(gram)) <= 1e-12 * np.einsum("mii->mi", gram).prod(axis=-1)
    gram[singular] = np.eye(s)
    if a_op.isotropic:
        singular = np.repeat(singular, len(sym))
        x = np.linalg.inv(gram[0]) @ (sym_t @ cols)
        x /= np.maximum(spec.k2, 1.0).reshape(-1, 1, 1) ** k  # |k|² ≥ 1 off the zero mode
    else:
        x = np.linalg.solve(gram, sym_t @ cols)
    x[singular] = 0.0
    singular[0] = False  # k=0: û(0) := 0
    x[0] = 0.0

    shape = spec.k2.shape
    resid_sq = ((sym @ x - cols) ** 2).sum(axis=(-2, -1)).reshape(shape)
    data_sq = (cols**2).sum(axis=(-2, -1)).reshape(shape)
    for sq in (resid_sq, data_sq):
        sq[..., 1:] *= 2.0
    uhat = (-1j) ** k * (x.view(complex) if x.shape[-1] == 2 else x)[..., 0]
    return dict(uhat=uhat.reshape(shape + (s,)), resid_sq=resid_sq, data_sq=data_sq,
                singular=singular.reshape(shape))


def solve_system(a_op, f, grid):
    """Least-squares spectral solve of A u = f for real f, mean removed: rfftn,
    solve_modes, irfftn. Returns (u, info); info holds solve_modes' half-spectrum
    entries, removed_mean and the residual ‖A u − (f − mean)‖₂ / ‖f − mean‖₂,
    small iff f̂ lies in im A(ik) at every mode."""
    fhat = np.fft.rfftn(f, axes=range(grid.n))
    mean = fhat.reshape(-1, a_op.target_dim)[0] / grid.npts**grid.n
    info = solve_modes(a_op, fhat, grid)
    info["residual"] = _residual(info["resid_sq"], info["data_sq"], 1.0)
    info["removed_mean"] = float(np.linalg.norm(mean)) * (2.0 * math.pi) ** grid.n
    return np.fft.irfftn(info["uhat"], s=grid.shape, axes=range(grid.n)), info


def _residual(resid_sq, data_sq, g):
    """‖g r‖ / ‖g f̂‖ from the per-mode squares that solve_modes returns."""
    g2 = g * g
    fnorm2 = float((g2 * data_sq).sum())
    return math.sqrt(float((g2 * resid_sq).sum()) / fnorm2) if fnorm2 > 0 else 0.0


def _derivative_monomials(spec, order):
    """(multinomial(order, β), k^β with the Nyquist modes dropped) for every |β| = order;
    the derivative ∂^β takes (ik)^β = i^order·k^β."""
    for beta in monomials_of_degree(len(spec.k), order):
        mono = math.prod(kd**b for kd, b in zip(spec.k, beta))
        yield multinomial(order, beta), np.where(spec.nyquist, 0.0, mono)


def derivative_magnitude(uhat, grid, order):
    """Pointwise Frobenius norm of the full order-th derivative tensor of u, from
    its rfftn half spectrum uhat with the Nyquist modes dropped. The components
    go first, so each irfftn runs on contiguous planes."""
    uhat = np.ascontiguousarray(np.moveaxis(uhat, -1, 0))
    acc = np.zeros(grid.shape)
    for weight, mono in _derivative_monomials(grid.half, order):
        du = np.fft.irfftn(1j ** (order % 4) * mono * uhat, s=grid.shape, axes=range(1, grid.n + 1))
        acc += weight * (du**2).sum(axis=0)
    return np.sqrt(acc)


def lp_norm_of_field(values, grid, p):
    if p is None:  # sup norm
        return float(np.abs(values).max())
    return float(((np.abs(values) ** p).sum() * grid.cell_volume) ** (1.0 / p))


@dataclass
class WitnessConfig:
    """Inputs of a blow-up / boundedness experiment."""

    system: object
    epsilons: list
    e: tuple | None = None
    j: int | None = None  # None means the sup-norm case (j = ∞)
    grid_n: int = 128
    seed: int = 0
    mode: str = "dirac"  # "dirac" | "constrained"

    def echo(self):
        return {
            "mode": self.mode,
            "e": [str(x) for x in self.e] if self.e is not None else None,
            "epsilons": [float(x) for x in self.epsilons],
            "j": "inf" if self.j is None else int(self.j),
            "grid_n": self.grid_n,
            "seed": self.seed,
            "growth_factor": DEFAULT_GROWTH_FACTOR,
            "flatness": DEFAULT_FLATNESS,
            "residual_tol": DEFAULT_RESIDUAL_TOL,
            "min_eps_factor": MIN_EPS_SPACING_FACTOR,
        }


@dataclass
class WitnessResult:
    rows: list  # dicts: epsilon, ratio (None allowed), residual
    classification: str  # GROWING | BOUNDED | INDETERMINATE
    slope: float | None
    intercept: float | None
    r_squared: float | None
    diagnostics: list
    config: dict

    def to_json(self):
        return {
            "rows": [
                {key: None if v is None else float(v) for key, v in r.items()}
                for r in self.rows
            ],
            "classification": self.classification,
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "diagnostics": list(self.diagnostics),
            "config": self.config,
        }

    def to_csv(self):
        lines = ["epsilon,ratio,residual"]
        for r in self.rows:
            ratio = "" if r["ratio"] is None else repr(float(r["ratio"]))
            lines.append(f"{r['epsilon']!r},{ratio},{r['residual']!r}")
        return "\n".join(lines) + "\n"


def _classify(ratios):
    if any(r is None for r in ratios) or len(ratios) < 2:
        return "INDETERMINATE"
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    if increasing and ratios[-1] / ratios[0] >= DEFAULT_GROWTH_FACTOR:
        return "GROWING"
    mean = sum(ratios) / len(ratios)
    tv = sum(abs(b - a) for a, b in zip(ratios, ratios[1:]))
    if tv < DEFAULT_FLATNESS * mean:
        return "BOUNDED"
    return "INDETERMINATE"


def _fit_log(epsilons, ratios):
    x = np.log(1.0 / np.array(epsilons, dtype=float))
    y = np.array(ratios, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _exact_member(subspace, e):
    try:
        vec = [Fraction(x) for x in e]
    except (TypeError, ValueError):
        return None  # float direction: no exact membership statement
    return subspace.contains(vec)


def blowup_experiment(config):
    """Norm-ratio family over shrinking widths, classified per the thresholds.

    dirac mode: f = mollified Dirac in direction e. constrained mode: a fixed
    random base field (spectral decay |k|^-2), projected onto the constraint
    kernel, is mollified at each width. Both record the ratio
    ‖D^{k-j}u‖_{L^{n/(n-j)}} / ‖f‖_{L¹} (sup norm when j = ∞); a width whose
    least-squares residual exceeds the tolerance records a diagnostic instead
    of a ratio.
    """
    system = config.system
    a = system.a
    n = system.n
    grid = Grid(n, config.grid_n)
    spec = grid.half
    k = a.order
    j = config.j
    if j is None:
        if k < n:
            raise InvalidArgumentError(f"sup-norm experiment needs k >= n (k={k}, n={n})")
        deriv_order = k - n
        p = None
    else:
        if not 1 <= j <= min(k, n - 1):
            raise InvalidArgumentError(
                f"j must lie in 1..min(k, n-1) = 1..{min(k, n - 1)}"
            )
        deriv_order = k - j
        p = n / (n - j)

    rows = []
    diagnostics = []

    # Width eps scales fixed data h by g(k) = exp(-eps²|k|²/2). Projection and
    # solve are modewise linear, so both are done once, on h.
    if config.mode == "dirac":
        if config.e is None:
            raise InvalidArgumentError("dirac mode needs a direction e")
        if len(config.e) != a.target_dim:
            raise InvalidArgumentError(
                f"direction e has {len(config.e)} components; the data space "
                f"has dimension {a.target_dim}"
            )
        if system.c is not None:
            member = _exact_member(kernel_intersection(system.c), config.e)
            if member is False:
                diagnostics.append(
                    "ConstraintViolation: direction e is not in the constraint "
                    "kernel intersection; the Dirac family does not satisfy "
                    "C f = 0"
                )
        out_of_range = "the Dirac direction is not in the symbol range"
        no_data = "the Dirac data underflow to zero"
        try:
            evec = np.array([float(x) for x in config.e])
        except OverflowError:  # a rational component beyond the float range
            evec = np.array([math.inf])
        if not (np.isfinite(evec).all() and evec.any()):
            raise InvalidArgumentError("direction e must be nonzero and finite in floating point")
        # ratios are linear in e above and below: an exact power-of-two scale keeps squares finite
        top = np.abs(evec).max()
        if top > 1.0:
            evec = np.ldexp(evec, -math.frexp(top)[1])
        hhat = evec / (2.0 * math.pi) ** n * grid.npts**n  # the grid Dirac: ĥ = e·N^n/(2π)^n

        def data_l1(eps):  # the field is g_ε·e, so ‖f‖_{L¹} = ‖e‖·Σ|g_ε|·hⁿ
            return float(np.linalg.norm(evec)) * lp_norm_of_field(_dirac_profile(grid, eps)[0], grid, 1)

    elif config.mode == "constrained":
        rng = np.random.default_rng(config.seed)
        base = rng.standard_normal(grid.shape + (a.target_dim,))
        decay = np.where(spec.k2 > 0, spec.k2, 1.0) ** (-CONSTRAINED_DECAY_POWER / 2.0)
        hhat = np.fft.rfftn(base, axes=range(n)) * decay[..., None]
        hhat.reshape(-1, a.target_dim)[0] = 0.0
        if system.c is not None:
            projected = constrain_field(hhat, system.c, spec.k)
            if np.abs(projected).max() <= ZERO_DATA_RTOL * np.abs(hhat).max():
                projected[...] = 0.0  # ker C(k) = {0} on every mode: no data
            hhat = projected
        out_of_range = "the constrained field is not in the symbol range"
        no_data = "the constraint admits no nonzero data"
        hhat_first = np.ascontiguousarray(np.moveaxis(hhat, -1, 0))  # components first

        def data_l1(eps):
            g = np.exp(-0.5 * eps**2 * spec.k2)
            f = np.fft.irfftn(hhat_first * g, s=grid.shape, axes=range(1, n + 1))
            return lp_norm_of_field(np.sqrt((f**2).sum(axis=0)), grid, 1)

    else:
        raise InvalidArgumentError(f"unknown mode {config.mode!r}")

    for eps in config.epsilons:
        _check_width(grid, float(eps))
    info = solve_modes(a, hhat, grid)
    uhat = np.ascontiguousarray(np.moveaxis(info.pop("uhat"), -1, 0))  # components first
    if p == 2:
        # Parseval on the half spectrum: a mode off the last axis's zero plane
        # stands for its conjugate too, and a Nyquist mode carries no solution
        half = np.where(spec.nyquist, 0.0, 2.0)
        half[..., 0] /= 2.0
        # Σ_β multinomial(m, β)·k^2β = |k|^2m sums the derivative tensor
        power = half * spec.k2**deriv_order * (uhat.real**2 + uhat.imag**2).sum(axis=0)
        phased = (1j ** (deriv_order % 4) * uhat).real  # Re((ik)^β û) = k^β·Re(i^m û)
    for eps in config.epsilons:
        eps = float(eps)
        g = np.exp(-0.5 * eps**2 * spec.k2)
        l1 = data_l1(eps)
        residual = _residual(info["resid_sq"], info["data_sq"], g)
        row = {"epsilon": eps, "ratio": None, "residual": residual}
        rows.append(row)
        if l1 == 0.0:
            diagnostics.append(f"eps={eps}: {no_data} — no ratio recorded")
            continue
        if residual > DEFAULT_RESIDUAL_TOL:
            diagnostics.append(
                f"eps={eps}: solve residual {residual:.3e} exceeds "
                f"tolerance; {out_of_range} — no ratio recorded"
            )
            continue
        if p == 2:  # ‖D^m u‖²_{L²} = hⁿ·N⁻ⁿ·Σ half·|k|^2m·|ĝû|², with no synthesis
            row["ratio"] = math.sqrt(float((g * g * power).sum()) * grid.cell_volume / grid.npts**n) / l1
        else:
            mag = derivative_magnitude(np.moveaxis(g * uhat, 0, -1), grid, deriv_order)
            row["ratio"] = lp_norm_of_field(mag, grid, p) / l1
        if config.mode == "dirac":
            # magnitude at the Dirac center: the log term of the inverse
            # kernel lives exactly there, so this column isolates it
            if p == 2:  # a field's value at x = 0 is N⁻ⁿ·Σ half·Re(its coefficients)
                center = math.sqrt(sum(
                    weight * (np.tensordot(phased, half * g * mono, n) ** 2).sum()
                    for weight, mono in _derivative_monomials(spec, deriv_order)
                )) / grid.npts**n
            else:
                center = mag[(0,) * n]
            row["center_ratio"] = float(center) / l1

    ratios = [r["ratio"] for r in rows]
    classification = _classify(ratios)
    slope = intercept = r2 = None
    if j is None and all(r is not None for r in ratios) and len(ratios) >= 2:
        slope, intercept, r2 = _fit_log([r["epsilon"] for r in rows], ratios)
    return WitnessResult(
        rows, classification, slope, intercept, r2, diagnostics, config.echo()
    )
