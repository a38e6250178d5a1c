"""Seeded ladder of elliptic operators, generated as DSL text.

The benchmark keeps its own copy of every coefficient, so the checks can
evaluate A(ξ) without going through the program's parser or polynomials.
An operator is a list of rows; a row maps a component index to a
polynomial, and a polynomial maps an exponent tuple to a Fraction.

Two families:

* random elliptic operators over (n, k, m): an injective isotropic block,
  (-Δ)^{k/2}·Id_m for even k or the rows of (-Δ)^{(k-1)/2}∇ ⊗ Id_m for odd
  k, plus random degree-k rows (the recipe of ``tests/genops.py``);
* square, non-canceling systems (-Δ)^{k/2}·B with even k >= n and a random
  invertible rational matrix B.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# (n, k, m) rungs; (3,3,1), (3,3,3) and (4,4,2) are the ROADMAP reference points.
# The two costly rungs appear twice so that a pass's cost depends less on the seed.
ELLIPTIC_RUNGS = ((2, 2, 1), (2, 3, 2), (2, 6, 2), (3, 3, 1), (3, 3, 3), (3, 3, 3), (4, 4, 2), (4, 4, 2))
# (n, k, m) of the square systems (-Δ)^{k/2}·B
SQUARE_RUNGS = ((2, 2, 2), (2, 4, 2))
EXTRA_ROWS = 2
NONZERO_COEFFS = tuple(
    Fraction(x) for x in ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "5/2")
)


def monomials(n, degree):
    """Exponent tuples of total degree `degree` in n variables, descending lex."""
    if n == 1:
        return [(degree,)]
    return [(a,) + rest for a in range(degree, -1, -1) for rest in monomials(n - 1, degree - a)]


def laplacian_power(n, p):
    """|ξ|^{2p} expanded: the multinomial sum over |β| = p of p!/β! ξ^{2β}."""
    out = {}
    for beta in monomials(n, p):
        c = math.factorial(p)
        for b in beta:
            c //= math.factorial(b)
        out[tuple(2 * b for b in beta)] = Fraction(c)
    return out


def _times_variable(poly, i):
    return {a[:i] + (a[i] + 1,) + a[i + 1:]: c for a, c in poly.items()}


class LadderOperator:
    """One rung: its DSL text plus the facts the checks need."""

    def __init__(self, label, n, k, m, rows, b_matrix=None):
        self.label = label
        self.n = n
        self.k = k
        self.m = m  # source dimension
        self.rows = rows
        self.b_matrix = b_matrix  # square family only
        self.text = to_dsl(n, m, rows)

    @property
    def square(self):
        return self.b_matrix is not None

    def symbol_at(self, xi):
        """A(ξ) as a float matrix, evaluated from the generator's coefficients."""
        out = []
        for row in self.rows:
            vals = [0.0] * self.m
            for comp, poly in row.items():
                vals[comp] = sum(float(c) * math.prod(x**e for x, e in zip(xi, a)) for a, c in poly.items())
            out.append(vals)
        return out


def random_elliptic(rng, shape, n, k, m):
    """The random rows' monomials come from `shape`, their coefficients from `rng`."""
    rows = []
    if k % 2 == 0:
        q = laplacian_power(n, k // 2)
        rows.extend({a: q} for a in range(m))
    else:
        q = laplacian_power(n, (k - 1) // 2)
        for i in range(n):
            rows.extend({a: _times_variable(q, i)} for a in range(m))
    monos = monomials(n, k)
    for _ in range(EXTRA_ROWS):
        # distinct monomials and nonzero coefficients: no entry cancels to zero
        rows.append({
            a: {monos[j]: rng.choice(NONZERO_COEFFS) for j in shape.sample(range(len(monos)), shape.randint(1, 2))}
            for a in range(m)
        })
    return LadderOperator(f"elliptic(n={n},k={k},m={m})", n, k, m, rows)


def _det(mat):
    mat = [list(r) for r in mat]
    size = len(mat)
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if mat[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, size):
            f = mat[r][c] / mat[c][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return det


def square_system(rng, n, k, m):
    while True:
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] for _ in range(m)]
        if _det(b) != 0:
            break
    q = laplacian_power(n, k // 2)
    rows = []
    for i in range(m):
        row = {}
        for j in range(m):
            if b[i][j] != 0:
                row[j] = {a: c * b[i][j] for a, c in q.items()}
        rows.append(row)
    return LadderOperator(f"square(n={n},k={k},m={m})", n, k, m, rows, b_matrix=b)


def build_ladder(seed):
    """The ladder of one seed.

    The seed draws every coefficient. Which monomials the random rows use is
    fixed per rung, so that the cost of a pass (which grows with the number
    of terms of det G) hardly depends on the seed.
    """
    rng = random.Random(seed)
    ladder = [
        random_elliptic(rng, random.Random(1000 + i), *rung) for i, rung in enumerate(ELLIPTIC_RUNGS)
    ]
    ladder += [square_system(rng, *rung) for rung in SQUARE_RUNGS]
    return ladder


def _format_term(alpha, coeff, comp):
    mono = " ".join(f"d{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a)
    body = f"{mono} u{comp + 1}" if mono else f"u{comp + 1}"
    return body if coeff == 1 else f"{coeff} {body}"


def to_dsl(n, m, rows):
    lines = []
    for row in rows:
        parts = []
        for comp in sorted(row):
            for alpha, c in sorted(row[comp].items(), reverse=True):
                sign = "-" if c < 0 else "+"
                parts.append((sign, _format_term(alpha, abs(c), comp)))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        text += "".join(f" {s} {t}" for s, t in parts[1:])
        lines.append("    " + text)
    body = ";\n".join(lines)
    return f"dim {n}\noperator A {{\n  from {m} to {len(rows)}\n  rows:\n{body}\n}}\n"
