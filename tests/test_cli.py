import json

import pytest

from ellsym.cli import main


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
    direct = ann_fn(parse_system(open("systems/gradient_r2.sys").read()).a)
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


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "systems/laplacian_r2.sys", "--level", "1"),
        ("moment", "systems/laplacian_r2.sys", "--level", "0"),
        ("witness", "systems/laplacian_r2.sys", "--grid", "32"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1", "--grid", "32"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1,0", "--grid", "15"),
        ("moment", "systems/laplacian_r2.sys", "--level", "40"),
        ("check", "systems/laplacian_r2.sys", "--tol", "nan"),
        ("check", "systems/laplacian_r2.sys", "--tol", "-1"),
        ("witness", "systems/laplacian_r2.sys", "--e", "0,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1/0,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("witness", "systems/laplacian_r2.sys", "--e", "1e400,0", "--grid", "32", "--eps", "0.8,0.4"),
        ("check", "{tmp}"),
        ("check", "systems/laplacian_r2.sys", "--out", "{tmp}"),
        ("moment", "{tmp}/line.sys"),
    ],
    ids=[
        "level-1", "level-0", "dirac-without-e", "e-too-short", "odd-grid",
        "level-over-budget", "tol-nan", "tol-negative", "e-zero", "e-zero-denominator",
        "e-beyond-float", "input-is-directory", "out-is-directory", "moment-dim-1",
    ],
)
def test_invalid_argument_exit_code(capsys, tmp_path, argv):
    (tmp_path / "line.sys").write_text("dim 1\noperator A {\n  from 1 to 1\n  rows: d1^2 u1\n}\n")
    code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
