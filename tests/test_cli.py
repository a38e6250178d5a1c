import json

import pytest

from ellsym.cli import build_parser, main
from ellsym.dsl import MAX_GROUP_DEPTH
from ellsym.errors import InvalidArgumentError
from genops import read_repo_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_divcurl_text(capsys):
    code, out, _ = run(capsys, "check", "systems/divcurl_r3.sys")
    assert code == 0
    assert "CC: holds" in out
    assert "cocanceling: False" in out


def test_check_json_schema(capsys):
    code, out, _ = run(capsys, "check", "systems/divcurl_r3.sys", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["tool"] == "ellsym"
    assert env["version"]
    assert len(env["input_sha256"]) == 64
    assert "tolerances" in env and "seed" in env
    report = env["result"]
    for key in (
        "elliptic",
        "I_A_basis",
        "K_C_basis",
        "canceling",
        "cocanceling",
        "CC",
        "weak",
        "CWC",
        "diagnostics",
    ):
        assert key in report
    assert report["I_A_basis"] == [["1", "0", "0", "0"]]
    assert report["K_C_basis"] == [["0", "0", "0", "1"]]
    assert report["CC"]["holds"] is True


def test_check_report_byte_stable(capsys):
    _, out1, _ = run(capsys, "check", "systems/laplacian_div_r2.sys", "--json")
    _, out2, _ = run(capsys, "check", "systems/laplacian_div_r2.sys", "--json")
    assert out1 == out2


def test_check_quartic_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "check", "systems/quartic_r4.sys", "--json")
    assert code == 0  # decided verdict (elliptic: no)
    env = json.loads(out)
    report = env["result"]
    assert report["elliptic"]["status"] == "no"
    witnesses = [report["elliptic"]["witness_xi"]] + [
        w["xi"] for w in report["elliptic"].get("extra_witnesses", [])
    ]
    assert ["0", "0", "1", "0"] in witnesses
    assert any("discrepancy" in d for d in report["diagnostics"])


def test_annihilator_gradient_roundtrip(capsys):
    code, out, _ = run(capsys, "annihilator", "systems/gradient_r2.sys")
    assert code == 0
    from ellsym.dsl import parse_operator
    from ellsym.operators import annihilator as ann_fn
    from ellsym import parse_system

    reparsed = parse_operator(out, 2)
    direct = ann_fn(parse_system(read_repo_file("systems/gradient_r2.sys")).a)
    assert reparsed == direct


def test_annihilator_trivial_note(capsys):
    code, out, _ = run(capsys, "annihilator", "systems/laplacian_r2.sys")
    assert code == 0
    assert "not canceling: annihilator trivial" in out


def test_annihilator_nonelliptic_errors(capsys):
    code, out, err = run(capsys, "annihilator", "systems/quartic_r4.sys")
    assert (code, out) == (1, "")
    assert err == "error: det(A*A) vanishes at ξ = ('1', '0', '0', '0')\n"


def test_moment_command(capsys):
    code, out, _ = run(
        capsys, "moment", "systems/laplacian_div_r2.sys", "--json", "--level", "5"
    )
    assert code == 0
    env = json.loads(out)
    mat = env["result"]["matrix"]
    assert abs(mat[0][0] - 2 * 3.141592653589793) < 1e-8
    assert abs(mat[0][1]) < 1e-12


def test_moment_refuses_operator_singular_at_sample_point(capsys):
    # quartic_r4 is not elliptic; no quadrature node lands on its zeros
    code, out, err = run(capsys, "moment", "systems/quartic_r4.sys")
    assert (code, out) == (1, "")
    assert err == "error: det(A*A) vanishes at ξ = ('1', '0', '0', '0')\n"


# operators that `check` proves not elliptic at zeros off the coordinate axes
NON_ELLIPTIC_OFF_AXES = {
    "square r2": "dim 2\noperator A {\n  from 1 to 1\n  rows: (d1 - 2 d2)^2 u1\n}\n",
    "irrational r2": "dim 2\noperator A {\n  from 1 to 1\n  rows: d1^2 u1 - 2 d2^2 u1\n}\n",
    "cone r3": "dim 3\noperator A {\n  from 1 to 1\n"
    "  rows: ((d1 - d2)^2 + d3^2)(d1^2 + d2^2 + d3^2) u1\n}\n",
}


@pytest.mark.parametrize("label", sorted(NON_ELLIPTIC_OFF_AXES))
def test_moment_and_annihilator_refuse_what_check_refuses(capsys, tmp_path, label):
    path = tmp_path / "op.sys"
    path.write_text(NON_ELLIPTIC_OFF_AXES[label])
    code, out, _ = run(capsys, "check", str(path), "--json")
    verdict = json.loads(out)["result"]["elliptic"]
    assert (code, verdict["status"]) == (0, "no")
    where = "at" if verdict["witness_exact"] else "near"
    message = f"det(A*A) vanishes {where} ξ = {tuple(verdict['witness_xi'])}\n"
    for command in ("moment", "annihilator"):
        assert run(capsys, command, str(path)) == (1, "", "error: " + message)


def test_witness_constraint_without_data_is_indeterminate(capsys, tmp_path):
    # ker C(k) = {0} at every k ≠ 0: the projected field is rounding noise
    path = tmp_path / "lap_grad.sys"
    path.write_text(
        "dim 2\noperator A {\n  from 1 to 1\n  rows: d1^2 u1 + d2^2 u1\n}\n"
        "constraint C {\n  from 1 to 2\n  rows: d1 f1; d2 f1\n}\n"
    )
    code, out, _ = run(
        capsys, "witness", str(path), "--mode", "constrained", "--j", "1",
        "--grid", "32", "--eps", "0.8,0.4", "--json",
    )
    assert code == 2
    result = json.loads(out)["result"]
    assert result["classification"] == "INDETERMINATE"
    assert [r["ratio"] for r in result["rows"]] == [None, None]
    assert len(result["diagnostics"]) == 2
    assert all("admits no nonzero data" in d for d in result["diagnostics"])


def test_homogenize_command(capsys):
    code, out, _ = run(capsys, "homogenize", "systems/divcurl_r3.sys")
    assert code == 0
    assert out.startswith("from 4 to 1")


def test_witness_csv_and_exit(capsys, tmp_path):
    out_path = tmp_path / "w.csv"
    code, _out, _ = run(
        capsys,
        "witness",
        "systems/laplacian_r2.sys",
        "--e",
        "1,0",
        "--eps",
        "0.5,0.3",
        "--j",
        "inf",
        "--grid",
        "64",
        "--out",
        str(out_path),
    )
    text = out_path.read_text()
    assert text.splitlines()[0] == "epsilon,ratio,residual"
    assert code in (0, 2)


def test_witness_json_deterministic(capsys):
    argv = (
        "witness",
        "systems/laplacian_div_r2.sys",
        "--mode",
        "constrained",
        "--eps",
        "0.5,0.4",
        "--j",
        "1",
        "--grid",
        "32",
        "--seed",
        "3",
        "--json",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    env = json.loads(out1)
    assert env["result"]["config"]["seed"] == 3


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_witness_large_direction_matches_unit_direction(capsys):
    # the ratios are scale-invariant in e; a finite e near the float limit must
    # neither overflow the per-mode squares nor print bare NaN tokens
    results = {}
    for e in ("1,0", "1e300,0"):
        code, out, _ = run(
            capsys, "witness", "systems/laplacian_r2.sys", "--e", e,
            "--grid", "32", "--eps", "0.8,0.4", "--json",
        )
        results[e] = (code, json.loads(out, parse_constant=_no_constant)["result"])
    (code, unit), (big_code, big) = results["1,0"], results["1e300,0"]
    assert big_code == code
    assert big["classification"] == unit["classification"]
    for row, big_row in zip(unit["rows"], big["rows"]):
        for key in ("ratio", "center_ratio"):
            assert big_row[key] == pytest.approx(row[key], rel=1e-15, abs=0)


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.sys"
    bad.write_text("dim 2\noperator A { from 1 to 1 rows: d1 }\n")
    code, _out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _out, err = run(capsys, "check", "does_not_exist.sys")
    assert code == 1


def test_deeply_nested_group_is_a_syntax_error(capsys, tmp_path):
    depth = 1000  # far past MAX_GROUP_DEPTH and past what recursive descent survives
    path = tmp_path / "deep.sys"
    path.write_text("dim 2\noperator A {\n  from 1 to 1\n  rows: " + "(" * depth + "d1^2 + d2^2" + ")" * depth + " u1\n}\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == ""
    col = len("  rows: ") + MAX_GROUP_DEPTH + 1  # the first group past the bound
    assert err == f"error: line 4, col {col}: groups nested deeper than {MAX_GROUP_DEPTH} levels\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "systems/laplacian_r2.sys", "--level", "1"),
        ("moment", "systems/laplacian_r2.sys", "--level", "0"),
        ("witness", "systems/laplacian_r2.sys", "--grid", "32"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1", "--grid", "32"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1,0", "--grid", "15"),
        ("moment", "systems/laplacian_r2.sys", "--level", "40"),
        ("witness", "systems/laplacian_r2.sys", "--e", "0,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1/0,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1e400,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("check", "{tmp}"),
        ("check", "systems/laplacian_r2.sys", "--out", "{tmp}"),
        ("moment", "{tmp}/line.sys"),
        ("check", "systems/laplacian_r2.sys", "--bogus"),
        ("check", "systems/laplacian_r2.sys", "--tol", "abc"),
        ("check", "systems/laplacian_r2.sys", "--tol", "1e-6"),
        ("witness", "systems/laplacian_r2.sys", "--grid", "x"),
        (),
    ],
    ids=[
        "level-1", "level-0", "dirac-without-e", "e-too-short", "odd-grid",
        "level-over-budget", "e-zero", "e-zero-denominator",
        "e-beyond-float", "input-is-directory", "out-is-directory", "moment-dim-1",
        "unknown-option", "tol-not-a-number", "tol-removed", "grid-not-an-integer", "no-command",
    ],
)
def test_invalid_argument_exit_code(capsys, tmp_path, argv):
    (tmp_path / "line.sys").write_text("dim 1\noperator A {\n  from 1 to 1\n  rows: d1^2 u1\n}\n")
    code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_huge_level_is_refused_by_the_budget_within_seconds():
    # the node count 2^(10^11) is never built: the exponent meets the budget first
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom ellsym.cli import main\nsys.exit(main(sys.argv[1:]))",
         "moment", "systems/laplacian_r2.sys", "--level", "100000000000"],
        capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == ("error: quadrature level 100000000000 on S^1 needs 2^100000000000 nodes, "
                          "over the budget of 2097152\n")


# (command, system text, the budget named by the error); each input hung, ran out of
# memory or ended in a RecursionError before its size was counted
OVERSIZED = {
    "order 0 on R^1100": ("check", "dim 1100\noperator A {\n  from 1 to 1\n  rows: 3 u1\n}\n", "64"),
    "order 1 on R^2000": ("check", "dim 2000\noperator A {\n  from 1 to 1\n  rows: d1 u1\n}\n", "64"),
    "order 1 on R^500": ("check", "dim 500\noperator A {\n  from 1 to 1\n  rows: d1 u1\n}\n", "64"),
    "order 2000 on R^3": ("check", "dim 3\noperator A {\n  from 1 to 1\n  rows: d1^2000 u1\n}\n", "1048576"),
    "order 100000 on R^3": ("check", "dim 3\noperator A {\n  from 1 to 1\n  rows: d1^100000 u1\n}\n", "1048576"),
    "homogenize degree 60": (
        "homogenize",
        "dim 3\noperator A {\n  from 3 to 1\n  rows: d1 u1 + d2 u2 + d3 u3\n}\n"
        "constraint C {\n  from 1 to 2\n  rows: d1^60 f1; f1\n}\n",
        "262144",
    ),
    "kernel of dimension 1999": ("check", "dim 2\noperator A {\n  from 2000 to 1\n  rows: d1 u1\n}\n", "65536"),
    "a row of 10^9 entries": ("check", "dim 2\noperator A {\n  from 999999999 to 1\n  rows: d1 u1\n}\n", "262144"),
}


@pytest.mark.parametrize("label", sorted(OVERSIZED))
def test_oversized_input_is_refused_by_a_budget_within_seconds(tmp_path, label):
    import resource
    import subprocess
    import sys

    def cap():  # 2 GB of address space: an input that allocates first fails here
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    command, text, budget = OVERSIZED[label]
    path = tmp_path / "big.sys"
    path.write_text(text)
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom ellsym.cli import main\nsys.exit(main(sys.argv[1:]))",
         command, str(path)],
        capture_output=True, text=True, timeout=5, preexec_fn=cap,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert out.stderr.endswith(f"over the budget of {budget}\n")


# (command, system text, options): a coefficient of 10^400 is beyond the float range
# where the float symbol converts it, in the n = 3 sampler and in the witness solve
BEYOND_FLOAT = {
    "check": ("dim 3\noperator A {\n  from 1 to 1\n"
              f"  rows: {10**400} d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1\n}}\n", []),
    "witness": (f"dim 2\noperator A {{\n  from 1 to 1\n  rows: {10**400} d1^2 u1 + {10**400} d2^2 u1\n}}\n",
                ["--e", "1", "--eps", "0.8,0.4", "--grid", "32"]),
}


@pytest.mark.parametrize("command", sorted(BEYOND_FLOAT))
def test_coefficient_beyond_the_float_range_is_oversized_input(capsys, tmp_path, command):
    text, options = BEYOND_FLOAT[command]
    path = tmp_path / "big.sys"
    path.write_text(text)
    assert run(capsys, command, str(path), *options) == (
        1, "", "error: a coefficient of the operator is over the float range, the budget of 1.79769e+308\n")


def test_det_g_beyond_the_float_range_is_inconclusive_and_the_report_strict_json(tmp_path):
    # the coefficient fits a float but det G overflows at some sample nodes: no minimum
    # is read off an inf or a NaN, no numpy warning is printed, and no NaN is written
    import subprocess
    import sys

    path = tmp_path / "big.sys"
    path.write_text(f"dim 3\noperator A {{\n  from 1 to 1\n  rows: {10**200} d1^2 u1 + 2 d2^2 u1 + 3 d3^2 u1\n}}\n")
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom ellsym.cli import main\nsys.exit(main(sys.argv[1:]))",
         "check", "--json", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stderr) == (2, "")

    def refuse(constant):
        raise ValueError(f"{constant} in the report")

    assert json.loads(out.stdout, parse_constant=refuse)["result"]["elliptic"] == {
        "status": "inconclusive", "decided_by": "sampled",
        "note": "det G is beyond the float range at a sample node"}


def test_seed_is_an_option_of_witness_alone(capsys):
    code, out, err = run(capsys, "check", "systems/gradient_r2.sys", "--seed", "1")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --seed 1\n"
    code, out, _ = run(capsys, "check", "systems/gradient_r2.sys", "--json")
    assert json.loads(out)["seed"] == 0


@pytest.mark.parametrize(
    "options, flag",
    [
        (["--e", "1,0", "--eps", ",,"], "--eps"),
        (["--e", "1,0", "--j", "x"], "--j"),
        (["--mode", "constrained", "--j", "1", "--seed", "-1"], "--seed"),
    ],
    ids=["eps-empty", "j-not-an-integer", "constrained-seed-negative"],
)
def test_witness_argument_errors_are_typed_and_name_the_flag(capsys, options, flag):
    argv = ["witness", "systems/laplacian_div_r2.sys", "--grid", "32", *options]
    args = build_parser().parse_args(argv)
    with pytest.raises(InvalidArgumentError, match=f"^{flag} "):
        args.func(args)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_witness_dirac_mode_ignores_the_seed(capsys):
    argv = ["witness", "systems/laplacian_r2.sys", "--e", "1,0", "--grid", "32", "--eps", "0.8,0.4"]
    outputs = [run(capsys, *argv, "--seed", seed) for seed in ("0", "-1")]
    assert outputs[0] == outputs[1] and outputs[0][0] != 1


def test_witness_constrained_out_of_range_indeterminate(capsys):
    code, out, _ = run(
        capsys, "witness", "systems/divcurl_r3.sys", "--mode", "constrained",
        "--j", "1", "--grid", "32", "--eps", "0.5,0.4", "--json",
    )
    assert code == 2
    result = json.loads(out)["result"]
    assert result["classification"] == "INDETERMINATE"
    assert [r["ratio"] for r in result["rows"]] == [None, None]
    assert all(r["residual"] > 0.5 for r in result["rows"])
    assert len(result["diagnostics"]) == 2
    assert all("no ratio recorded" in d for d in result["diagnostics"])


# one child process per list: each command through `runpy` of ellsym.cli, then
# whether numpy is loaded, one JSON line per command
NUMPY_PROBE = """
import contextlib, io, json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["ellsym", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("ellsym.cli", run_name="__main__")
        except SystemExit:
            pass
    print(json.dumps([argv, "numpy" in sys.modules]))
"""
EXACT_COMMANDS = [["--version"]] + [
    ["check", f"systems/{name}.sys", "--json"]
    for name in ("divcurl_r3", "gradient_r2", "laplacian_r2", "laplacian_div_r2", "quartic_r4", "biharmonic_div_r4")
] + [["annihilator", "systems/gradient_r2.sys"], ["homogenize", "systems/divcurl_r3.sys"]]


@pytest.mark.parametrize(
    "commands, loaded",
    [
        ([], [False]),  # `import ellsym` alone
        (EXACT_COMMANDS, [False] * len(EXACT_COMMANDS)),
        ([["moment", "systems/laplacian_r2.sys", "--json"]], [True]),
        ([["witness", "systems/laplacian_r2.sys", "--e", "1,0", "--eps", "0.8,0.4", "--grid", "32"]], [True]),
    ],
    ids=["import", "exact_commands", "moment", "witness"],
)
def test_numpy_is_loaded_by_the_numeric_commands_only(commands, loaded):
    import subprocess
    import sys

    code = "import ellsym, sys\nprint(json.dumps([[], 'numpy' in sys.modules]))\n" if not commands else NUMPY_PROBE
    out = subprocess.run(
        [sys.executable, "-c", "import json\n" + code, json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    results = [json.loads(line) for line in out.stdout.splitlines()]
    assert [argv for argv, _ in results] == (commands or [[]])
    assert [flag for _, flag in results] == loaded
