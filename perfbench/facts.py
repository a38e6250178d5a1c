"""Output checks computed apart from the program.

Nothing here imports ellsym or stores a copy of its output. The expected
values are the facts stated in the README and the system files, closed-form
results (|S^{n-1}|, the constant 1/(2π) of the 2-d fundamental solution),
and a separate numpy solve of the div-curl system. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
SPHERE_AREA = {2: TWO_PI, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}
REL_TOL = 1e-9


def _close(x, y, rel=REL_TOL):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# -- exact spans ----------------------------------------------------------------


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def same_span(basis_json, expected):
    """True when the reported basis spans exactly the expected vectors."""
    basis = [[Fraction(x) for x in row] for row in basis_json or []]
    if len(basis) != _rank(basis) or len(expected) != _rank(expected):
        return False
    if len(basis) != len(expected):
        return False
    return not basis or _rank(basis + expected) == len(basis)


def unit(dim, i):
    return [1 if j == i else 0 for j in range(dim)]


# -- bundled systems --------------------------------------------------------------


def quartic_symbol(xi):
    """A(ξ) of systems/quartic_r4.sys, written out from the file."""
    x1, x2, x3, x4 = xi
    return [[x1**4 + x2**4, 0], [0, x3**4], [0, x4**4]]


def _moment_norms(weak, area, what):
    problems = []
    if weak is None or not weak["moments"]:
        return [f"{what}: no weak-cancellation moments reported"]
    for m in weak["moments"]:
        if not _close(m["norm"], area):
            problems.append(f"{what}: |M e| = {m['norm']!r} for e={m['e']}, expected {area!r}")
    return problems


def check_bundled(name, report):
    """Facts about one bundled system, checked on `report.to_json()`."""
    status = report["elliptic"]["status"]
    p = []
    if name == "divcurl_r3":
        if status not in ("yes", "numerically_positive"):
            p.append(f"divcurl_r3: elliptic {status}")
        if not same_span(report["I_A_basis"], [unit(4, 0)]):
            p.append(f"divcurl_r3: I_A = {report['I_A_basis']}, expected span{{e1}}")
        if not same_span(report["K_C_basis"], [unit(4, 3)]):
            p.append(f"divcurl_r3: K_C = {report['K_C_basis']}, expected span{{e4}}")
        if not (report["CC"] and report["CC"]["holds"]):
            p.append("divcurl_r3: CC does not hold")
    elif name == "gradient_r2":
        if status != "yes":
            p.append(f"gradient_r2: elliptic {status}, expected yes")
        if report["canceling"] is not True or report["I_A_basis"]:
            p.append("gradient_r2: not canceling")
    elif name == "laplacian_r2":
        if status != "yes":
            p.append(f"laplacian_r2: elliptic {status}, expected yes")
        if not report["CC"] or report["CC"]["holds"]:
            p.append("laplacian_r2: CC holds, expected it to fail")
        p += _moment_norms(report["weak"], TWO_PI, "laplacian_r2")
    elif name == "laplacian_div_r2":
        if status != "yes":
            p.append(f"laplacian_div_r2: elliptic {status}, expected yes")
        if not (report["CWC"] and report["CWC"]["holds"]):
            p.append("laplacian_div_r2: CWC does not hold")
        p += _moment_norms(report["weak"], TWO_PI, "laplacian_div_r2")
    elif name == "quartic_r4":
        if status != "no":
            p.append(f"quartic_r4: elliptic {status}, expected no")
        ell = report["elliptic"]
        pairs = []
        if "witness_xi" in ell:
            pairs.append((ell["witness_xi"], ell.get("kernel_vector")))
        pairs += [(w["xi"], w["kernel_vector"]) for w in ell.get("extra_witnesses", [])]
        pairs = [
            (tuple(Fraction(x) for x in xi), tuple(Fraction(x) for x in v or ()))
            for xi, v in pairs
        ]
        target = ((0, 0, 1, 0), (1, 0))
        if target not in pairs:
            p.append("quartic_r4: witness (0,0,1,0)/(1,0) missing")
        for xi, v in pairs:  # every reported witness must be a real kernel vector
            av = [sum(a * b for a, b in zip(row, v)) for row in quartic_symbol(xi)]
            if not any(v) or any(av):
                p.append(f"quartic_r4: A(ξ)v != 0 for ξ={xi}, v={v}")
    elif name == "biharmonic_div_r4":
        if status not in ("yes", "numerically_positive"):
            p.append(f"biharmonic_div_r4: elliptic {status}")
        if report["K_C_basis"]:
            p.append("biharmonic_div_r4: K_C is not {0}")
        if not (report["CWC"] and report["CWC"]["holds"]):
            p.append("biharmonic_div_r4: CWC does not hold")
        p += _moment_norms(report["weak"], SPHERE_AREA[4], "biharmonic_div_r4")
    else:
        p.append(f"no facts for {name}")
    return p


# -- CLI text output ------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?) )?((?:d\d+(?:\^\d+)? )*)([fu])(\d+)$")


def parse_rows(text, n):
    """Rows of a printed operator as {(row, component, exponents): coefficient}."""
    lines = text.splitlines()
    body = lines[lines.index("rows:") + 1:]
    out = {}
    for r, line in enumerate(body):
        line = line.strip().rstrip(";")
        terms = re.split(r" (?=[+-] )", line)
        for term in terms:
            sign = 1
            if term.startswith("- "):
                sign, term = -1, term[2:]
            elif term.startswith("+ "):
                term = term[2:]
            elif term.startswith("-"):
                sign, term = -1, term[1:]
            m = _TERM.match(term)
            if m is None:
                raise ValueError(f"cannot read term {term!r}")
            coeff = Fraction(m.group(1) or 1) * sign
            alpha = [0] * n
            for d in m.group(2).split():
                var, _, power = d[1:].partition("^")
                alpha[int(var) - 1] += int(power or 1)
            key = (r, int(m.group(4)) - 1, tuple(alpha))
            out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v != 0}


# L = [[d2^2, -d1 d2], [-d1 d2, d1^2]], as stated in systems/gradient_r2.sys
GRADIENT_ANNIHILATOR = {
    (0, 0, (0, 2)): 1,
    (0, 1, (1, 1)): -1,
    (1, 0, (1, 1)): -1,
    (1, 1, (2, 0)): 1,
}
# the div constraint of systems/divcurl_r3.sys is homogeneous already
DIVCURL_HOMOGENIZED = {(0, 0, (1, 0, 0)): 1, (0, 1, (0, 1, 0)): 1, (0, 2, (0, 0, 1)): 1}


def check_moment_laplacian(result):
    """`moment laplacian_r2`: M = |S^1|·Id = 2π·Id."""
    mat = np.array(result["matrix"], dtype=float)
    if mat.shape != (2, 2) or not np.allclose(mat, TWO_PI * np.eye(2), rtol=REL_TOL, atol=REL_TOL):
        return [f"moment laplacian_r2: M = {result['matrix']}, expected 2π·Id"]
    return []


# -- witness experiments -----------------------------------------------------------------


def check_laplacian_growth(result):
    """laplacian_r2 Dirac, j = ∞: GROWING, log slope within 3% of 1/(2π)."""
    p = []
    if result["classification"] != "GROWING":
        p.append(f"laplacian_r2 witness: {result['classification']}, expected GROWING")
    slope = result["slope"]
    if slope is None or abs(slope * TWO_PI - 1.0) > 0.03:
        p.append(f"laplacian_r2 witness: slope {slope!r}, expected 1/(2π) within 3%")
    return p


def check_bounded(result, what):
    if result["classification"] != "BOUNDED":
        return [f"{what}: {result['classification']}, expected BOUNDED"]
    return []


def divcurl_ratio(npts, eps):
    """‖u‖_{L^{3/2}} / ‖f‖_{L¹} for div u = δ_ε, curl u = 0 on the 3-torus.

    û = −i k f̂₁/|k|², with the program's conventions: f is the periodized
    unit-mass Gaussian sampled on the grid, the zero mode and every mode with
    a Nyquist index are dropped, and norms are Riemann sums.
    """
    k1 = np.fft.fftfreq(npts, 1.0 / npts)
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k2 = kx**2 + ky**2 + kz**2
    coeff = np.exp(-0.5 * eps * eps * k2) * (npts**3 / TWO_PI**3)
    f1 = np.fft.ifftn(coeff).real
    fhat = np.fft.fftn(f1)
    keep = (k2 > 0) & (np.abs(kx) != npts // 2) & (np.abs(ky) != npts // 2) & (np.abs(kz) != npts // 2)
    fhat = np.where(keep, fhat, 0.0) / np.where(keep, k2, 1.0)
    mag2 = np.zeros(k2.shape)
    for kd in (kx, ky, kz):
        mag2 += np.fft.ifftn(-1j * kd * fhat).real ** 2
    cell = (TWO_PI / npts) ** 3
    lp = ((np.sqrt(mag2) ** 1.5).sum() * cell) ** (1.0 / 1.5)
    return lp / (np.abs(f1).sum() * cell)


def check_divcurl(result, npts):
    p = []
    for row in result["rows"]:
        if row["residual"] > 1e-6:
            p.append(f"divcurl_r3 witness: residual {row['residual']!r} at eps={row['epsilon']}")
        elif row["ratio"] is None:
            p.append(f"divcurl_r3 witness: no ratio at eps={row['epsilon']}")
        else:
            want = divcurl_ratio(npts, row["epsilon"])
            if not _close(row["ratio"], want, rel=1e-8):
                p.append(
                    f"divcurl_r3 witness: ratio {row['ratio']!r} at eps={row['epsilon']}, "
                    f"independent solve gives {want!r}"
                )
    return p


# -- ladder ----------------------------------------------------------------------------------


def _numeric_symbol(coeffs, xi):
    """Σ C_α ξ^α from an {alpha: matrix} map, in floats."""
    out = None
    for alpha, mat in coeffs.items():
        term = math.prod(x**a for x, a in zip(xi, alpha)) * np.array(mat, dtype=float)
        out = term if out is None else out + term
    return out


def check_ladder(rung, report, moment, annihilator_coeffs, points):
    """Verdict, annihilator and image facts for one ladder operator."""
    p = []
    status = report["elliptic"]["status"]
    if status == "no" or (rung.n == 2 and status != "yes"):
        p.append(f"{rung.label}: elliptic {status}")
    for xi in points:
        a = np.array(rung.symbol_at(xi))
        scale = np.linalg.norm(a)
        if annihilator_coeffs:  # L ≡ 0 when A(ξ) is onto
            lsym = _numeric_symbol(annihilator_coeffs, xi)
            if np.linalg.norm(lsym @ a) > 1e-9 * np.linalg.norm(lsym) * scale:
                p.append(f"{rung.label}: L(ξ)A(ξ) != 0 at ξ={xi}")
        for v in report["I_A_basis"] or []:
            v = np.array([float(Fraction(x)) for x in v])
            x = np.linalg.lstsq(a, v, rcond=None)[0]
            if np.linalg.norm(a @ x - v) > 1e-9 * np.linalg.norm(v):
                p.append(f"{rung.label}: I_A vector {v} not in im A(ξ) at ξ={xi}")
    if rung.square:
        if len(report["I_A_basis"] or []) != rung.m:
            p.append(f"{rung.label}: I_A is not all of E")
        if rung.k == rung.n:
            binv = np.linalg.inv(np.array(rung.b_matrix, dtype=float))
            want = SPHERE_AREA[rung.n] * binv
            if not np.allclose(moment, want, rtol=1e-9, atol=1e-12 * np.abs(want).max()):
                p.append(f"{rung.label}: M != |S^(n-1)|·B^-1")
    if moment is not None and rung.n % 2 == 1 and np.any(moment != 0.0):
        p.append(f"{rung.label}: M is not bitwise 0 for odd n")
    return p
