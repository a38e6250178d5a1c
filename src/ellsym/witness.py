"""Spectral experiments on the periodic torus [0, 2π)^n.

The torus stands in for R^n at desk scale: with the mollification width well
inside the period the Gaussian tails are below 1e-12 at the boundary and the
blow-up phenomenon under study is local. The zero mode is not in the range of
a homogeneous symbol, so the data mean is removed and its size reported.

Derivatives follow the grid convention A(ik) = Σ C_α (ik)^α; only norms of
fields enter the reported ratios, so the i-power bookkeeping cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EpsilonTooSmallError, InvalidArgumentError, ResidualTooLargeError
from .poly import monomials_of_degree, multinomial

DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_GROWTH_FACTOR = 2.0
DEFAULT_FLATNESS = 0.10
MIN_EPS_SPACING_FACTOR = 2.0  # required eps / grid-spacing ratio
CONSTRAINED_DECAY_POWER = 2.0  # spectral decay |k|^-p of the fixed random base


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

    def mode_grids(self):
        k1 = np.rint(np.fft.fftfreq(self.npts) * self.npts).astype(int)
        return np.meshgrid(*([k1] * self.n), indexing="ij")

    def nyquist_mask(self):
        mask = np.zeros(self.shape, dtype=bool)
        for kd in self.mode_grids():
            mask |= np.abs(kd) == self.npts // 2
        return mask


def symbol_on_modes(op, grid):
    """A(ik) = Σ C_α (ik)^α on every lattice frequency, shape grid + (target, source)."""
    kg = grid.mode_grids()
    ik = np.zeros((kg[0].size, grid.n), dtype=complex)
    for i, kd in enumerate(kg):  # in place: a stacked temporary raised peak RSS 6 %
        ik[:, i].imag = kd.ravel()
    return op.symbol_values(ik).reshape(grid.shape + (op.target_dim, op.source_dim))


def mollified_dirac(grid, eps, e, center=None, min_factor=MIN_EPS_SPACING_FACTOR):
    """Unit-mass periodized Gaussian of width eps in the direction e.

    Returns (field, fhat) where fhat holds Fourier-series coefficients. Exact
    directional structure: every Fourier coefficient is a scalar times e, so
    any constraint matrix annihilating e annihilates the field identically.
    """
    if eps < min_factor * grid.spacing:
        raise EpsilonTooSmallError(
            f"eps={eps} below {min_factor} grid spacings ({min_factor * grid.spacing:.4g})"
        )
    if eps > math.pi / 2:
        raise EpsilonTooSmallError(
            f"eps={eps} too wide for the 2π period; Gaussian tails would wrap"
        )
    kg = grid.mode_grids()
    k2 = sum(kd.astype(float) ** 2 for kd in kg)
    coeff = np.exp(-0.5 * eps * eps * k2) / (2.0 * math.pi) ** grid.n
    if center is not None:
        phase = sum(kd * x0 for kd, x0 in zip(kg, center))
        coeff = coeff * np.exp(-1j * phase)
    evec = np.array([float(x) for x in e])
    f = np.fft.ifftn(coeff * grid.npts**grid.n).real[..., None] * evec
    return f, coeff[..., None] * evec


def constrain_field(fhat, c_op, grid):
    """Project every nonzero mode of fhat onto ker C(ik) (machine precision)."""
    flat_sym = symbol_on_modes(c_op, grid).reshape(-1, c_op.target_dim, c_op.source_dim)
    flat_f = fhat.reshape(-1, c_op.source_dim)
    pinv = np.linalg.pinv(flat_sym)
    corrected = flat_f - np.einsum(
        "mij,mj->mi", pinv, np.einsum("mij,mj->mi", flat_sym, flat_f)
    )
    out = corrected.reshape(fhat.shape)
    out.reshape(-1, c_op.source_dim)[0] = fhat.reshape(-1, c_op.source_dim)[0]
    return out


def solve_system(a_op, f, grid, strict=False, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Least-squares spectral solve û = A†(ik) f̂ modewise; mean removed.

    Returns (u, info) with info = {residual, removed_mean, uhat, resid_sq,
    data_sq}; the last two are ‖A(ik)û − f̂‖² and ‖f̂‖² per mode. The residual
    is ‖A u − (f − mean)‖₂ / ‖f − mean‖₂, small iff f̂ lies in im A(ik) at
    every mode. Modes with a singular Gram matrix G get û = 0; the test is
    scale-free (Hadamard: det G / ∏ diag G lies in [0, 1] for G ⪰ 0).
    strict=True raises ResidualTooLarge beyond tol.
    """
    fhat = np.fft.fftn(f, axes=range(grid.n))
    flat = fhat.reshape(-1, a_op.target_dim)
    mean = flat[0].copy() / grid.npts**grid.n
    flat[0] = 0.0
    # Nyquist rows have no conjugate partner on an even grid; drop them
    nymask = grid.nyquist_mask().reshape(-1)
    flat[nymask] = 0.0

    sym = symbol_on_modes(a_op, grid).reshape(-1, a_op.target_dim, a_op.source_dim)
    gram_m = np.einsum("mji,mjl->mil", sym.conj(), sym)
    rhs = np.einsum("mji,mj->mi", sym.conj(), flat)
    gram_m[0] = np.eye(a_op.source_dim)  # k=0: û(0) := 0
    diag = np.einsum("mii->mi", gram_m).real.prod(axis=-1)
    singular = np.abs(np.linalg.det(gram_m)) <= 1e-12 * diag
    gram_m[singular] = np.eye(a_op.source_dim)
    uhat = np.linalg.solve(gram_m, rhs[..., None])[..., 0]
    uhat[singular] = 0.0
    uhat[0] = 0.0

    resid_vec = np.einsum("mij,mj->mi", sym, uhat) - flat
    resid_sq = (np.abs(resid_vec) ** 2).sum(axis=-1).reshape(grid.shape)
    data_sq = (np.abs(flat) ** 2).sum(axis=-1).reshape(grid.shape)
    residual = _residual(resid_sq, data_sq, 1.0)
    if strict and residual > residual_tol:
        raise ResidualTooLargeError(
            f"modewise solve residual {residual:.3e} exceeds {residual_tol:.1e}"
        )
    uhat = uhat.reshape(grid.shape + (a_op.source_dim,))
    u = np.fft.ifftn(uhat, axes=range(grid.n)).real
    info = {
        "residual": residual,
        "removed_mean": float(np.linalg.norm(mean)) * (2.0 * math.pi) ** grid.n,
        "uhat": uhat,
        "resid_sq": resid_sq,
        "data_sq": data_sq,
    }
    return u, info


def _residual(resid_sq, data_sq, g):
    """‖g r‖ / ‖g f̂‖ from the per-mode squares that solve_system returns."""
    g2 = g * g
    fnorm2 = float((g2 * data_sq).sum())
    return math.sqrt(float((g2 * resid_sq).sum()) / fnorm2) if fnorm2 > 0 else 0.0


def l1_norm(f, grid):
    return float(np.linalg.norm(f, axis=-1).sum() * grid.cell_volume)


def derivative_magnitude(uhat, grid, order):
    """Pointwise Frobenius norm of the full order-th derivative tensor of u.

    uhat must be Hermitian (u real) off the Nyquist modes, which are dropped,
    so each field is the irfftn of the half spectrum along the last axis.
    """
    half = slice(0, grid.npts // 2 + 1)
    kg = [kd[..., half] for kd in grid.mode_grids()]
    ny = grid.nyquist_mask()[..., half]
    acc = np.zeros(grid.shape)
    for beta in monomials_of_degree(grid.n, order):
        mono = np.ones(ny.shape)
        for d, b in enumerate(beta):
            if b:
                mono = mono * kg[d].astype(float) ** b
        mono[ny] = 0.0
        mult = (1j ** (order % 4)) * mono
        dhat = mult[..., None] * uhat[..., half, :]
        du = np.fft.irfftn(dhat, s=grid.shape, axes=range(grid.n))
        acc += multinomial(order, beta) * (du**2).sum(axis=-1)
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
    growth_factor: float = DEFAULT_GROWTH_FACTOR
    flatness: float = DEFAULT_FLATNESS
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    min_eps_factor: float = MIN_EPS_SPACING_FACTOR

    def echo(self):
        return {
            "mode": self.mode,
            "e": [str(x) for x in self.e] if self.e is not None else None,
            "epsilons": [float(x) for x in self.epsilons],
            "j": "inf" if self.j is None else int(self.j),
            "grid_n": self.grid_n,
            "seed": self.seed,
            "growth_factor": self.growth_factor,
            "flatness": self.flatness,
            "residual_tol": self.residual_tol,
            "min_eps_factor": self.min_eps_factor,
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


def _classify(ratios, growth_factor, flatness):
    if any(r is None for r in ratios) or len(ratios) < 2:
        return "INDETERMINATE"
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    if increasing and ratios[-1] / ratios[0] >= growth_factor:
        return "GROWING"
    mean = sum(ratios) / len(ratios)
    tv = sum(abs(b - a) for a, b in zip(ratios, ratios[1:]))
    if tv < flatness * mean:
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
    k2 = sum(kd.astype(float) ** 2 for kd in grid.mode_grids())

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
            from .conditions import kernel_intersection

            member = _exact_member(kernel_intersection(system.c), config.e)
            if member is False:
                diagnostics.append(
                    "ConstraintViolation: direction e is not in the constraint "
                    "kernel intersection; the Dirac family does not satisfy "
                    "C f = 0"
                )
        out_of_range = "the Dirac direction is not in the symbol range"
        # the grid Dirac: ĥ = e·N^n/(2π)^n on every mode
        h = np.zeros(grid.shape + (a.target_dim,))
        h[(0,) * n] = [float(x) / (2.0 * math.pi) ** n * grid.npts**n for x in config.e]

        def data(eps, g):
            return mollified_dirac(grid, eps, config.e, min_factor=config.min_eps_factor)[0]

    elif config.mode == "constrained":
        rng = np.random.default_rng(config.seed)
        base = rng.standard_normal(grid.shape + (a.target_dim,))
        decay = np.where(k2 > 0, k2, 1.0) ** (-CONSTRAINED_DECAY_POWER / 2.0)
        hhat = np.fft.fftn(base, axes=range(n)) * decay[..., None]
        if system.c is not None:
            hhat = constrain_field(hhat, system.c, grid)
        hhat.reshape(-1, a.target_dim)[0] = 0.0
        h = np.fft.ifftn(hhat, axes=range(n)).real
        out_of_range = "the constrained field is not in the symbol range"

        def data(eps, g):
            return np.fft.ifftn(hhat * g[..., None], axes=range(n)).real

    else:
        raise InvalidArgumentError(f"unknown mode {config.mode!r}")

    _, info = solve_system(a, h, grid, strict=False)
    for eps in config.epsilons:
        eps = float(eps)
        g = np.exp(-0.5 * eps**2 * k2)
        l1 = l1_norm(data(eps, g), grid)
        residual = _residual(info["resid_sq"], info["data_sq"], g)
        row = {"epsilon": eps, "ratio": None, "residual": residual}
        rows.append(row)
        if residual > config.residual_tol:
            diagnostics.append(
                f"eps={eps}: solve residual {residual:.3e} exceeds "
                f"tolerance; {out_of_range} — no ratio recorded"
            )
            continue
        mag = derivative_magnitude(g[..., None] * info["uhat"], grid, deriv_order)
        row["ratio"] = lp_norm_of_field(mag, grid, p) / l1
        if config.mode == "dirac":
            # magnitude at the Dirac center: the log term of the inverse
            # kernel lives exactly there, so this column isolates it
            row["center_ratio"] = float(mag[(0,) * n]) / l1

    ratios = [r["ratio"] for r in rows]
    classification = _classify(ratios, config.growth_factor, config.flatness)
    slope = intercept = r2 = None
    if j is None and all(r is not None for r in ratios) and len(ratios) >= 2:
        slope, intercept, r2 = _fit_log([r["epsilon"] for r in rows], ratios)
    return WitnessResult(
        rows, classification, slope, intercept, r2, diagnostics, config.echo()
    )
