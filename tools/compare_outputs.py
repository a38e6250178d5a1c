"""Compare the outputs of two ellsym checkouts, float leaves by tolerance.

    python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout with `src/ellsym`, `systems/` and `perfbench/`. Both
run the same list of operations:

- `check`, `annihilator`, `homogenize` and `moment` on every file in
  `systems/`, each once with `--json` and once as text (`moment` on
  `divcurl_r3`, `gradient_r2` and `quartic_r4` ends in an error, whose
  message and exit code are compared too; on the other three, all
  isotropic, it prints the exact M);
- `moment` on the inline systems of MOMENT_CASES, each with `--json` and as
  text, so that the quadrature branch of the command is run: the
  non-isotropic `d1^2 u1 + 2 d2^2 u1` on R^2 at the default level, and the
  non-isotropic quartic `d1^4 u1 + 2 d2^4 u1 + 3 d3^4 u1 + d4^4 u1` on R^4
  at `--level 6`, the finest level within the node budget, which ends in
  an error;
- nine `witness --json` runs (WITNESS_CASES), the one labelled
  CSV_WITNESS_CASE also as CSV text: a dirac `laplacian_r2`, the
  same with e = (3, 1) (beyond unit size, so `blowup_experiment` scales it
  by a power of two), the same with j = 1 (p = 2: the L² norm by Parseval
  and the center value by a half-spectrum sum), a constrained `laplacian_div_r2`, a dirac
  `divcurl_r3` with j = 1, an out-of-range `gradient_r2` direction, whose
  rows carry the residual diagnostic instead of a ratio, an n = 4 dirac `biharmonic_div_r4` with
  j = ∞ (a 4x4 symbol, order 4), a constrained `divcurl_r3` (odd order,
  complex data, out of range; widths of at least two spacings of grid 32),
  and a constrained Laplacian whose constraint `d1 f1; d2 f1` admits no data
  (INLINE_SYSTEMS, written to a temporary file that both roots read);
- the report of `run_full_check` and, when k >= n, the level-3 `moment_map`
  matrix for each rung of the seed-1 and seed-2 `perfbench` ladders;
- `is_elliptic(...).to_json()` for the inline operators of ELLIPTIC_CASES,
  which reach the branches no system file reaches: det G ≡ 0 for n = 1 and
  n = 2, irrational zeros for n = 2 (numeric kernel vectors; one of a det G
  with non-integer coefficients, whose bisection interval the int chain
  must reproduce), three R^2 operators of order 10 whose long Sturm chains
  reach both verdicts (an
  elliptic one from 3 to 4 with det G of degree 60; from 2 to 3, one with
  the exact zero ξ = (3, 2) off every axis/sign candidate and one with the
  irrational zeros ξ2/ξ1 = ±1/√2, whose bisection runs to the end), two
  elliptic R^2 operators whose det G(1, t) is read off one integer
  evaluation: the square (d1^2 + 2 d2^2)·B with a dense invertible 7 x 7 B
  (det G of degree 28), and a sparse one from 2 to 3 of order 30 (det G of
  degree 120 with large coefficients, which tests the digit bound), an
  inconclusive n = 3 minimum, an n = 3 zero on the line through (1, 2, 3),
  off every axis/sign candidate, that the rounding of the refined minimizer
  certifies, the same for an n = 4 zero on the line through (1, 2, 3, 4)
  (a witness whose sign rests on which compass start wins), a non-isotropic elliptic n = 4 operator (a refined minimum),
  a source larger than the target, and two order-0 operators, A(ξ) = C with
  C invertible and C singular (Λ_0 = {0});
- level-3 `moment_map(...).to_json()` and `annihilator` (its rows) for the
  inline operators of GUARD_CASES, or the class and message of the error
  each raises: three operators that `check` proves not elliptic away from
  the axes (an exact zero at (2, 1) on R², an irrational zero on R², an
  exact zero at (1, 1, 0) on R³), one with mixed row orders, and a square,
  non-isotropic elliptic operator from 3 to 3 on R², whose annihilator is the
  zero operator without any symbolic expansion;
- `run_full_check(...).to_json()` for the inline systems of CHECK_CASES,
  which reach the branches of I_A that no system file reaches: a non-scalar
  Gram matrix with 0 < dim I_A < dim E, a square non-scalar Gram matrix
  (I_A = E), constrained systems whose CC fails, one of them with rows of
  non-integer and 10^20-sized rational coefficients in A and in C (so that
  I_A, K_C and the CC witness pin the scaling of each row to a primitive
  int row before the fraction-free elimination), the inconclusive n = 3
  operator of ELLIPTIC_CASES, whose report carries the diagnostics of an
  inconclusive ellipticity verdict, the quartic Σ ∂_i⁴ on R⁴, whose
  weak verdict needs the n = 4 moment quadrature to converge, (−Δ)²·B on R³,
  an isotropic k > n system whose exact moments are bitwise 0, a
  non-isotropic square n = 2 system, whose moments still come from quadrature,
  and a non-isotropic n = 2 system from 2 to 3 (rows `d1^2 u1 + 2 d2^2 u1;
  d1^2 u1 + 2 d2^2 u1; d1^2 u2 + d2^2 u2`, constraint `d1 f3`), whose weak
  verdict reads the quadrature M on a proper I_A = span{(1,1,0), (0,0,1)}
  and whose CWC verdict reads it on span{(1,1,0)};
- four single CLI runs on inline systems (CLI_CASES): `homogenize` of the
  constraint `d1^30 f1; f1` on R^3 (497 rows), `check` of
  `10^200 d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1` on R^3, whose det G is beyond the
  float range at some sample nodes, once with `--json` and once as text
  (the note of its inconclusive verdict), and `check` (text) of `d1 u1`
  from 255 to 1 on R^2, whose witness has a kernel of dimension 254;
- `format_system` of every file in `systems/` and of every system of
  CHECK_CASES, which pins the one block writer of the operator and the
  constraint;
- the class and message of the error that the two float conversions of a
  coefficient beyond the float range (10^400) raise: `is_elliptic` of a
  non-isotropic n = 3 operator, which reaches the sampler, and
  `blowup_experiment` of an n = 2 system (FLOAT_RANGE_SCRIPT).

Every output is a JSON tree (or text) plus standard error and the exit
code. Two outputs either are byte for byte equal, or differ only in float
leaves. For every float field (the path to the leaf, with list positions
dropped) the largest absolute and relative deviation is printed. A
`residual` leaf that is at most RESIDUAL_NOISE on both sides is pooled
apart, labelled rounding noise and judged on the data's scale, by its
absolute deviation only: an in-range witness residual near 1e-17 moves by
a large relative amount when only the order of roundings changes. Any
other difference (a status, a witness, a string, an integer, the shape of
the tree, the exit code) is printed and makes the exit code 1; a text
output is one string, so any change in it counts. Standard library and
numpy only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

SYSTEMS = (
    "biharmonic_div_r4",
    "divcurl_r3",
    "gradient_r2",
    "laplacian_div_r2",
    "laplacian_r2",
    "quartic_r4",
)
# (label, system, witness options)
WITNESS_CASES = (
    ("laplacian_r2", "laplacian_r2", ["--e", "1,0", "--eps", "0.4,0.2,0.1", "--grid", "128"]),
    ("laplacian_r2 e=(3,1)", "laplacian_r2", ["--e", "3,1", "--eps", "0.4,0.2,0.1", "--grid", "128"]),
    ("laplacian_r2 j=1", "laplacian_r2", ["--e", "1,0", "--j", "1", "--eps", "0.4,0.2,0.1", "--grid", "128"]),
    (
        "laplacian_div_r2 constrained",
        "laplacian_div_r2",
        ["--mode", "constrained", "--j", "1", "--grid", "256", "--seed", "20240811"],
    ),
    ("divcurl_r3 e1 j=1", "divcurl_r3", ["--e", "1,0,0,0", "--j", "1", "--eps", "0.4,0.3,0.2", "--grid", "64"]),
    ("gradient_r2 out of range", "gradient_r2", ["--e", "1,0", "--j", "1"]),
    (
        "biharmonic_div_r4 n=4",
        "biharmonic_div_r4",
        ["--e", "1,0,0,0", "--j", "inf", "--eps", "0.8,0.6,0.4", "--grid", "32"],
    ),
    (
        "divcurl_r3 constrained",
        "divcurl_r3",
        ["--mode", "constrained", "--j", "1", "--eps", "0.8,0.6,0.4", "--grid", "32"],
    ),
    (
        "laplacian_grad_r2 constrained, no data",
        "laplacian_grad_r2",
        ["--mode", "constrained", "--j", "1", "--eps", "0.8,0.4", "--grid", "32"],
    ),
)
CSV_WITNESS_CASE = "laplacian_r2"  # the WITNESS_CASES label also run without --json
# (label, system, moment options) for the inline systems run by `moment`
MOMENT_CASES = (
    ("anisotropic_r2", "anisotropic_r2", []),
    ("quartic R4 --level 6", "anisotropic_quartic_r4", ["--level", "6"]),
)
# systems of WITNESS_CASES and MOMENT_CASES that no file in systems/ holds
INLINE_SYSTEMS = {
    "laplacian_grad_r2": (
        "dim 2\noperator A {\n  from 1 to 1\n  rows: d1^2 u1 + d2^2 u1\n}\n"
        "constraint C {\n  from 1 to 2\n  rows: d1 f1; d2 f1\n}\n"
    ),
    "anisotropic_r2": "dim 2\noperator A {\n  from 1 to 1\n  rows: d1^2 u1 + 2 d2^2 u1\n}\n",
    "anisotropic_quartic_r4": (
        "dim 4\noperator A {\n  from 1 to 1\n  rows: d1^4 u1 + 2 d2^4 u1 + 3 d3^4 u1 + d4^4 u1\n}\n"
    ),
    "homogenize_degree_30_r3": (
        "dim 3\noperator A {\n  from 3 to 1\n  rows: d1 u1 + d2 u2 + d3 u3\n}\n"
        "constraint C {\n  from 1 to 2\n  rows: d1^30 f1; f1\n}\n"
    ),
    "det_g_overflow_r3": (
        f"dim 3\noperator A {{\n  from 1 to 1\n  rows: {10**200} d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1\n}}\n"
    ),
    "kernel_255_r2": "dim 2\noperator A {\n  from 255 to 1\n  rows: d1 u1\n}\n",
}
# (label, command, system of INLINE_SYSTEMS, options) for single CLI runs
CLI_CASES = (
    ("homogenize d1^30 f1; f1 on R^3", "homogenize", "homogenize_degree_30_r3", []),
    ("check --json, det G beyond the float range", "check", "det_g_overflow_r3", ["--json"]),
    ("check text, det G beyond the float range", "check", "det_g_overflow_r3", []),
    ("check text, d1 u1 from 255 to 1 on R^2", "check", "kernel_255_r2", []),
)
# six orders below witness.DEFAULT_RESIDUAL_TOL (1e-6): a residual this small is rounding noise
RESIDUAL_NOISE = 1e-12
NOISE_LABEL = " (rounding noise, absolute only)"
LADDER_SEEDS = (1, 2)
MAX_SHOWN = 10  # non-float differences printed per operation

# run in a child process of each root: the ladder of one seed, one JSON list
LADDER_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import ladder
from ellsym import build_rule, moment_map, parse_system, run_full_check

out = []
for rung in ladder.build_ladder(%d):
    system = parse_system(rung.text)
    item = {"label": rung.label, "report": run_full_check(system).to_json()}
    if rung.k >= rung.n:
        item["moment"] = moment_map(system.a, build_rule(rung.n, 3)).matrix.tolist()
    out.append(item)
print(json.dumps(out, sort_keys=True))
"""


# (label, space dimension, operator text) for the is_elliptic comparison
ELLIPTIC_CASES = (
    ("n1 degenerate", 1, "from 2 to 2\nrows: d1 u1; d1 u1"),
    ("n2 detG zero", 2, "from 2 to 2\nrows: d1^2 u1 + d1 d2 u2; d1^2 u1 + d1 d2 u2"),
    ("n2 irrational scalar", 2, "rows: d1^2 u1 - 2 d2^2 u1"),
    ("n2 irrational 2x2 a", 2, "from 2 to 2\nrows: d1 u1 + d2 u2; d2 u1 + 2 d1 u2"),
    ("n2 irrational 2x2 b", 2, "from 2 to 2\nrows: d1 u1 + d2 u2; 3 d2 u1 + 2 d1 u2"),
    ("n2 irrational zero, non-integer det G", 2, "rows: 1/2 d1^2 u1 - 1/3 d2^2 u1"),
    (
        "n2 elliptic, det G of degree 60",
        2,
        "from 3 to 4\nrows: (d1^2 + d2^2)^5 u1 + d1^5 d2^5 u2; (d1^2 + d1 d2 + 2 d2^2)^5 u2 + d1^10 u3;"
        " (2 d1^2 - d1 d2 + d2^2)^5 u3; d1^7 d2^3 u1 + d1^3 d2^7 u3",
    ),
    (
        "n2 rational zero at (3, 2), det G of degree 40",
        2,
        "from 2 to 3\nrows: (2 d1 - 3 d2)^2 (d1^2 + d2^2)^4 u1 + d1^5 d2^5 u2;"
        " (2 d1 - 3 d2)(d1^9 + d2^9) u1 + (d1^2 + d1 d2 + 2 d2^2)^5 u2; (2 d1 - 3 d2) d2^9 u1 + d1^3 d2^7 u2",
    ),
    (
        "n2 irrational zero, det G of degree 40",
        2,
        "from 2 to 3\nrows: (d1^2 - 2 d2^2)(d1^2 + d2^2)^4 u1 + d1^5 d2^5 u2;"
        " (d1^2 - 2 d2^2) d1^8 u1 + (2 d1^2 - d1 d2 + d2^2)^5 u2; (d1^2 - 2 d2^2) d2^8 u1 + d1^7 d2^3 u2",
    ),
    (
        "n2 square (d1^2 + 2 d2^2)·B, dense 7 x 7 B",
        2,
        "from 7 to 7\nrows: (d1^2 + 2 d2^2)(6 u1 + u2 + u3 + u4 + u5 + u6 + u7);"
        " (d1^2 + 2 d2^2)(4 u1 + 10 u2 + u3 + 2 u4 + 3 u5 + 4 u6 + 5 u7);"
        " (d1^2 + 2 d2^2)(2 u1 + 4 u2 + 6 u3 + 3 u4 + 5 u5 + 2 u6 + 4 u7);"
        " (d1^2 + 2 d2^2)(5 u1 + 3 u2 + u3 + 9 u4 + 2 u5 + 5 u6 + 3 u7);"
        " (d1^2 + 2 d2^2)(3 u1 + 2 u2 + u3 + 5 u4 + 9 u5 + 3 u6 + 2 u7);"
        " (d1^2 + 2 d2^2)(u1 + u2 + u3 + u4 + u5 + 6 u6 + u7);"
        " (d1^2 + 2 d2^2)(4 u1 + 5 u2 + u3 + 2 u4 + 3 u5 + 4 u6 + 10 u7)",
    ),
    (
        "n2 sparse order 30, from 2 to 3",
        2,
        "from 2 to 3\nrows: d1^30 u1 - 7 d1^15 d2^15 u2 + 2 d2^30 u1; 5 d1^30 u2 + 3 d1^7 d2^23 u1 + d2^30 u2;"
        " 11 d1^20 d2^10 u1 + 13 d1^3 d2^27 u2",
    ),
    ("n3 inconclusive", 3, "rows: d1^2 u1 - 2 d2^2 u1 + 3 d3^2 u1"),
    ("n3 refined rational zero", 3, "rows: 2 d1 u1 - d2 u1; 3 d1 u1 - d3 u1"),
    ("n4 refined rational zero", 4, "rows: 2 d1 u1 - d2 u1; 3 d1 u1 - d3 u1; 4 d1 u1 - d4 u1"),
    ("n4 anisotropic elliptic", 4, "rows: d1^2 u1 + 2 d2^2 u1 + d3 d4 u1; d3^2 u1 + 3 d4^2 u1 + d1 d2 u1"),
    ("source > target", 2, "from 2 to 1\nrows: d1 u1 + d2 u2"),
    ("order 0 invertible", 2, "from 2 to 2\nrows: u1 + u2; u2"),
    ("order 0 singular", 2, "from 2 to 2\nrows: u1 + 2 u2; 2 u1 + 4 u2"),
)

# (label, space dimension, operator text) for the moment_map / annihilator guard
GUARD_CASES = (
    ("n2 square zero", 2, "rows: (d1 - 2 d2)^2 u1"),
    ("n2 irrational zero", 2, "rows: d1^2 u1 - 2 d2^2 u1"),
    ("n3 cone times laplacian", 3, "rows: ((d1 - d2)^2 + d3^2)(d1^2 + d2^2 + d3^2) u1"),
    ("mixed orders", 2, "from 1 to 2\nrows: d1 u1; d1^2 u1 + d2^2 u1"),
    (
        "n2 square anisotropic elliptic",
        2,
        "from 3 to 3\nrows: d1^2 u1 + 2 d2^2 u1 + d1 d2 u2; d1^2 u2 + d2^2 u2 + d1 d2 u3; d1^2 u3 + 3 d2^2 u3",
    ),
)

# div-curl on R^3 after the source change u = M w, M = [[1,1,0],[0,1,0],[0,0,2]]:
# G is not scalar and I_A = span{e1}
SHEARED_DIVCURL = (
    "operator A {\n  from 3 to 4\n  rows:\n"
    "    d1 u1 + d1 u2 + d2 u2 + 2 d3 u3; 2 d2 u3 - d3 u2;\n"
    "    -2 d1 u3 + d3 u1 + d3 u2; d1 u2 - d2 u1 - d2 u2\n}\n"
)
# the same with its first row times 2/3 and its second times 10^20: rows with
# non-integer and huge rational coefficients, scaled to primitive int rows
SCALED_DIVCURL = (
    "operator A {\n  from 3 to 4\n  rows:\n"
    "    2/3 d1 u1 + 2/3 d1 u2 + 2/3 d2 u2 + 4/3 d3 u3; 200000000000000000000 d2 u3 - 100000000000000000000 d3 u2;\n"
    "    -2 d1 u3 + d3 u1 + d3 u2; d1 u2 - d2 u1 - d2 u2\n}\n"
)
# the Laplacian on R^2 times [[1,1],[0,1]]: square, G not scalar, I_A = E
SHEARED_LAPLACIAN = (
    "operator A {\n  from 2 to 2\n  rows:\n"
    "    d1^2 u1 + d1^2 u2 + d2^2 u1 + d2^2 u2; d1^2 u2 + d2^2 u2\n}\n"
)

# (label, system text) for the run_full_check comparison
CHECK_CASES = (
    ("sheared divcurl", "dim 3\n" + SHEARED_DIVCURL),
    ("sheared divcurl, CC fails", "dim 3\n" + SHEARED_DIVCURL + "constraint C {\n  from 4 to 1\n  rows: d1 f2\n}\n"),
    (
        "scaled divcurl, CC fails",
        "dim 3\n" + SCALED_DIVCURL
        + "constraint C {\n  from 4 to 1\n  rows: 5/7 d1 f2 + 100000000000000000000 d2 f3\n}\n",
    ),
    ("sheared laplacian", "dim 2\n" + SHEARED_LAPLACIAN),
    ("sheared laplacian, CC fails", "dim 2\n" + SHEARED_LAPLACIAN + "constraint C {\n  from 2 to 1\n  rows: d1 f1\n}\n"),
    ("n3 inconclusive", "dim 3\noperator A {\n  from 1 to 1\n  rows: d1^2 u1 - 2 d2^2 u1 + 3 d3^2 u1\n}\n"),
    ("R4 quartic", "dim 4\noperator A {\n  from 1 to 1\n  rows: d1^4 u1 + d2^4 u1 + d3^4 u1 + d4^4 u1\n}\n"),
    (
        "R3 bilaplacian times B",
        "dim 3\noperator A {\n  from 2 to 2\n  rows:\n"
        "    (d1^2 + d2^2 + d3^2)^2 u1 + (d1^2 + d2^2 + d3^2)^2 u2; (d1^2 + d2^2 + d3^2)^2 u2\n}\n",
    ),
    ("R2 anisotropic square", "dim 2\noperator A {\n  from 2 to 2\n  rows: d1^2 u1 + 2 d2^2 u1 + d1 d2 u2; d1^2 u2 + d2^2 u2\n}\n"),
    (
        "R2 2 to 3, weak and CWC on proper subspaces",
        "dim 2\noperator A {\n  from 2 to 3\n  rows: d1^2 u1 + 2 d2^2 u1; d1^2 u1 + 2 d2^2 u1; d1^2 u2 + d2^2 u2\n}\n"
        "constraint C {\n  from 3 to 1\n  rows: d1 f3\n}\n",
    ),
)

CHECK_SCRIPT = """
import json
from ellsym import parse_system, run_full_check

cases = %r
print(json.dumps({label: run_full_check(parse_system(text)).to_json() for label, text in cases}, sort_keys=True))
""" % (CHECK_CASES,)

ELLIPTIC_SCRIPT = """
import json
from ellsym import is_elliptic, parse_operator

cases = %r
print(json.dumps({label: is_elliptic(parse_operator(text, n)).to_json() for label, n, text in cases}, sort_keys=True))
""" % (ELLIPTIC_CASES,)


GUARD_SCRIPT = """
import json
from ellsym import annihilator, build_rule, format_operator, moment_map, parse_operator

def attempt(fn):
    try:
        return fn()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]

cases = %r
out = {}
for label, n, text in cases:
    out[label + " moment"] = attempt(lambda: moment_map(parse_operator(text, n), build_rule(n, 3)).to_json())
    out[label + " annihilator"] = attempt(lambda: format_operator(annihilator(parse_operator(text, n))).splitlines())
print(json.dumps(out, sort_keys=True))
""" % (GUARD_CASES,)

FORMAT_SCRIPT = """
import json
from ellsym import format_system, parse_system

cases = %r + [(name, open(f"systems/{name}.sys").read()) for name in %r]
print(json.dumps({label: format_system(parse_system(text)).splitlines() for label, text in cases}, sort_keys=True))
""" % (list(CHECK_CASES), SYSTEMS)

# coefficients beyond the float range, on the two paths that convert them to floats
FLOAT_RANGE_SCRIPT = """
import json
from fractions import Fraction
from ellsym import WitnessConfig, blowup_experiment, is_elliptic, parse_operator, parse_system

def attempt(fn):
    try:
        return fn()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]

big = 10**400
system = parse_system(f"dim 2\\noperator A {{\\n  from 1 to 1\\n  rows: {big} d1^2 u1 + {big} d2^2 u1\\n}}\\n")
config = WitnessConfig(system=system, epsilons=[0.8, 0.4], e=(Fraction(1),), grid_n=32)
sampled = parse_operator(f"rows: {big} d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1", 3)
print(json.dumps({
    "is_elliptic n3": attempt(lambda: is_elliptic(sampled).to_json()),
    "witness n2": attempt(lambda: blowup_experiment(config).to_json()),
}, sort_keys=True))
"""


def operations(inline_dir):
    """(label, argv after the interpreter) for every operation; the files of
    INLINE_SYSTEMS are in inline_dir."""
    ops = []
    for name in SYSTEMS:
        for cmd in ("check", "annihilator", "homogenize", "moment"):
            argv = ["-m", "ellsym.cli", cmd, f"systems/{name}.sys"]
            ops.append((f"{cmd} {name}", [*argv, "--json"]))
            ops.append((f"{cmd} {name} text", argv))
    for label, name, options in MOMENT_CASES:
        argv = ["-m", "ellsym.cli", "moment", os.path.join(inline_dir, f"{name}.sys"), *options]
        ops.append((f"moment {label}", [*argv, "--json"]))
        ops.append((f"moment {label} text", argv))
    for label, name, options in WITNESS_CASES:
        path = os.path.join(inline_dir, f"{name}.sys") if name in INLINE_SYSTEMS else f"systems/{name}.sys"
        argv = ["-m", "ellsym.cli", "witness", path, *options]
        ops.append((f"witness {label}", [*argv, "--json"]))
        if label == CSV_WITNESS_CASE:
            ops.append((f"witness {label} csv", argv))
    for label, cmd, name, options in CLI_CASES:
        ops.append((label, ["-m", "ellsym.cli", cmd, os.path.join(inline_dir, f"{name}.sys"), *options]))
    for seed in LADDER_SEEDS:
        ops.append((f"ladder seed {seed}", ["-c", LADDER_SCRIPT % seed]))
    ops.append(("is_elliptic inline operators", ["-c", ELLIPTIC_SCRIPT]))
    ops.append(("moment_map and annihilator guard", ["-c", GUARD_SCRIPT]))
    ops.append(("run_full_check inline systems", ["-c", CHECK_SCRIPT]))
    ops.append(("format_system of the systems", ["-c", FORMAT_SCRIPT]))
    ops.append(("coefficients beyond the float range", ["-c", FLOAT_RANGE_SCRIPT]))
    return ops


def run(root, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True, timeout=600
    )
    try:
        body = json.loads(proc.stdout)
    except json.JSONDecodeError:
        body = proc.stdout
    raw = (proc.stdout, proc.stderr, proc.returncode)
    return raw, {"exit": proc.returncode, "output": body, "stderr": proc.stderr}


def compare(old, new, path, floats, problems):
    """Walk two JSON trees; collect float deviations and other differences.

    `path` holds dict keys and list positions; float deviations are pooled
    per field (keys only; a noise-sized `residual` leaf under its own label),
    other differences are reported per leaf.
    """
    where = "/".join(map(str, path))
    if isinstance(old, float) and isinstance(new, float):
        key = "/".join(p for p in path if isinstance(p, str))
        dev_abs = abs(old - new)
        big = max(abs(old), abs(new))
        if path[-1] == "residual" and big <= RESIDUAL_NOISE:
            key += NOISE_LABEL
        dev_rel = dev_abs / big if big else 0.0
        prev = floats.get(key, (0.0, 0.0))
        floats[key] = (max(prev[0], dev_abs), max(prev[1], dev_rel))
    elif isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            problems.append(f"{where}: keys {sorted(old)} != {sorted(new)}")
            return
        for k in old:
            compare(old[k], new[k], path + [k], floats, problems)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{where}: length {len(old)} != {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            compare(a, b, path + [i], floats, problems)
    elif type(old) is not type(new) or old != new:
        problems.append(f"{where}: {old!r} != {new!r}")


def compare_operation(label, argv, old_root, new_root):
    """Run one operation in both roots and print how the outputs differ;
    True when a non-float difference was found."""
    old_raw, old = run(old_root, argv)
    new_raw, new = run(new_root, argv)
    if old_raw == new_raw:
        print(f"{label}: byte-equal")
        return False
    floats, problems = {}, []
    compare(old, new, [], floats, problems)
    if problems:
        print(f"{label}: NON-FLOAT DIFFERENCE")
        for line in problems[:MAX_SHOWN]:
            print(f"  {line}")
        if len(problems) > MAX_SHOWN:
            print(f"  ... and {len(problems) - MAX_SHOWN} more")
    else:
        print(f"{label}: float leaves differ")
    for key, (dev_abs, dev_rel) in sorted(floats.items()):
        if dev_abs:
            rel = "" if key.endswith(NOISE_LABEL) else f", max rel {dev_rel:.3g}"
            print(f"  {key}: max abs {dev_abs:.3g}{rel}")
    return bool(problems)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_root, new_root = (os.path.abspath(r) for r in args)
    with tempfile.TemporaryDirectory() as inline_dir:
        for name, text in INLINE_SYSTEMS.items():
            with open(os.path.join(inline_dir, f"{name}.sys"), "w") as fh:
                fh.write(text)
        failed = [compare_operation(label, op, old_root, new_root) for label, op in operations(inline_dir)]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
