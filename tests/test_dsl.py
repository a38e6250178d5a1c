import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym.dsl import MAX_SPACE_DIM, format_operator, format_system, parse_operator, parse_system
from ellsym.errors import (
    DimensionMismatchError,
    DslSyntaxError,
    DuplicateBlockError,
    EllsymError,
    NonHomogeneousRowError,
    UnknownComponentError,
)
from ellsym.operators import SystemSpec
from genops import random_operator, read_repo_file

F = Fraction


def test_parse_scalar_divergence_row():
    op = parse_operator("rows: d1 f1 + d2 f2 + d3 f3", 3)
    assert (op.source_dim, op.target_dim) == (3, 1)
    assert op.coeffs[(1, 0, 0)] == ((F(1), F(0), F(0)),)
    assert op.coeffs[(0, 1, 0)] == ((F(0), F(1), F(0)),)
    assert op.coeffs[(0, 0, 1)] == ((F(0), F(0), F(1)),)
    assert op.order == 1


def test_parse_identity_row_zeroth_order():
    op = parse_operator("rows: f1", 2)
    assert op.coeffs == {(0, 0): ((F(1),),)}
    assert op.order == 0


def test_parse_quartic_rows_with_group():
    op = parse_operator("rows: (d1^4 + d2^4) u1; d3^4 u2; d4^4 u2", 4)
    assert (op.source_dim, op.target_dim) == (2, 3)
    assert op.row_degrees == (4, 4, 4)
    assert op.coeffs[(4, 0, 0, 0)][0] == (F(1), F(0))
    assert op.coeffs[(0, 4, 0, 0)][0] == (F(1), F(0))
    assert op.coeffs[(0, 0, 4, 0)][1] == (F(0), F(1))
    assert op.coeffs[(0, 0, 0, 4)][2] == (F(0), F(1))


def test_parse_rational_coefficients_and_signs():
    op = parse_operator("rows: 2/3 d1^2 f1 - d2^2 f2; 4 f3", 2)
    assert op.coeffs[(2, 0)][0] == (F(2, 3), F(0), F(0))
    assert op.coeffs[(0, 2)][0] == (F(0), F(-1), F(0))
    assert op.coeffs[(0, 0)][1] == (F(0), F(0), F(4))
    assert op.row_degrees == (2, 0)


def test_nonhomogeneous_row_rejected():
    with pytest.raises(NonHomogeneousRowError):
        parse_operator("rows: d1 f1 + f2", 2)


def test_unknown_component_rejected():
    with pytest.raises(UnknownComponentError):
        parse_operator("from 2 to 1\nrows: d1 f3", 2)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_operator("rows: d1 f1 +", 2)
    assert "line" in str(err.value)


@pytest.mark.parametrize("starred, adjacent", [("2 * d1 u1", "2 d1 u1"), ("d1*d2 u1", "d1 d2 u1")])
def test_a_star_is_multiplication_as_adjacency_is(starred, adjacent):
    assert parse_operator(f"rows: {starred}", 2) == parse_operator(f"rows: {adjacent}", 2)


@pytest.mark.parametrize("row, col", [("d1 u1 *", 13), ("d1 u1 * + d2 u1", 13), ("d1 * * u1", 10)])
def test_a_star_must_be_followed_by_a_factor(row, col):
    with pytest.raises(DslSyntaxError) as err:
        parse_operator(f"rows: {row}", 2)
    assert str(err.value) == f"line 1, col {col}: expected a factor after '*'"


def test_scalar_only_row_rejected():
    with pytest.raises(DslSyntaxError):
        parse_operator("rows: d1 + d2", 2)


def test_nonlinear_component_product_rejected():
    with pytest.raises(DslSyntaxError):
        parse_operator("rows: f1 f2", 2)


def test_groups_may_hold_components_linearly():
    assert parse_operator("rows: d1 (d1 u1 + d2 u2)", 2) == parse_operator("rows: d1^2 u1 + d1 d2 u2", 2)
    assert parse_operator("rows: (d1 u1)^1", 2) == parse_operator("rows: d1 u1", 2)
    with pytest.raises(DslSyntaxError, match="cannot raise a component expression to a power"):
        parse_operator("rows: (d1 u1)^2", 2)
    with pytest.raises(DslSyntaxError, match="nonlinear in the components"):
        parse_operator("rows: (d1 u1 + u2)(d2 u1)", 2)


def test_dimension_over_the_budget_is_refused():
    assert parse_operator("rows: u1", MAX_SPACE_DIM).space_dim == MAX_SPACE_DIM
    with pytest.raises(DslSyntaxError, match=f"dimension {MAX_SPACE_DIM + 1} is over the budget"):
        parse_operator("rows: u1", MAX_SPACE_DIM + 1)


def test_group_powers():
    op = parse_operator("rows: (d1 + d2)^2 u1", 2)
    assert op.coeffs[(2, 0)] == ((F(1),),)
    assert op.coeffs[(1, 1)] == ((F(2),),)
    assert op.coeffs[(0, 2)] == ((F(1),),)


def test_comments_and_blank_lines():
    text = """
# leading comment
rows:   # trailing comment
  d1 u1;  # one row
  d2 u1
"""
    op = parse_operator(text, 2)
    assert op.target_dim == 2


def test_parse_system_divcurl():
    text = read_repo_file("systems/divcurl_r3.sys")
    spec = parse_system(text)
    assert spec.n == 3
    assert (spec.a.source_dim, spec.a.target_dim) == (3, 4)
    assert (spec.c.source_dim, spec.c.target_dim) == (4, 1)


def test_parse_system_without_constraint():
    spec = parse_system("dim 2\noperator A {\nfrom 1 to 2\nrows: d1 u1; d2 u1\n}")
    assert spec.c is None


def test_parse_system_dimension_mismatch():
    text = """
dim 3
operator A { from 3 to 4 rows: d1 u1; d2 u2; d3 u3; d1 u2 }
constraint C { from 5 to 1 rows: d1 f1 }
"""
    with pytest.raises(DimensionMismatchError):
        parse_system(text)


def test_parse_system_duplicate_block():
    text = """
dim 2
operator A { from 1 to 1 rows: d1 u1 }
operator B { from 1 to 1 rows: d2 u1 }
"""
    with pytest.raises(DuplicateBlockError):
        parse_system(text)


def test_sig_row_count_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse_operator("from 1 to 3\nrows: d1 u1; d2 u1", 2)


def test_parse_deterministic():
    text = "rows: d1 u1 + 1/2 d2 u2; d2 u1 - d1 u2"
    assert parse_operator(text, 2) == parse_operator(text, 2)


def test_roundtrip_random_specs():
    rng = random.Random(314)
    for _ in range(25):
        n = rng.randint(1, 3)
        op = random_operator(rng, n, rng.randint(1, 3), rng.randint(1, 3), max_degree=3)
        text = format_operator(op, letter=rng.choice("uf"))
        back = parse_operator(text, n)
        assert back == op, text


def test_roundtrip_system():
    rng = random.Random(271)
    for _ in range(10):
        n = rng.randint(1, 3)
        e_dim = rng.randint(1, 3)
        a = random_operator(rng, n, rng.randint(1, 3), e_dim, homogeneous=True)
        c = random_operator(rng, n, e_dim, rng.randint(1, 2))
        spec = SystemSpec(a, c, n)
        back = parse_system(format_system(spec))
        assert back.a == spec.a and back.c == spec.c and back.n == spec.n


def test_zero_row_roundtrip():
    op = parse_operator("from 2 to 2\nrows: 0 u1; d1 u1 + d2 u2", 2)
    assert op.target_dim == 2
    assert all(all(x == 0 for x in mat[0]) for mat in op.coeffs.values())
    assert parse_operator(format_operator(op), 2) == op


def test_block_without_rows_rejected():
    with pytest.raises(DslSyntaxError, match="^operator A has no rows$"):
        parse_system("dim 1\noperator A { from 1 to 0 rows: }\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("d1 f1 + d1^2 f1", "line 2: row 1 mixes derivative orders [1, 2]"),
        ("d1 f3", "line 2: component 3 exceeds source dimension 2"),
    ],
)
def test_row_errors_give_the_line_alone(rows, message):
    # these errors know the row's line but no column
    with pytest.raises(DslSyntaxError) as err:
        parse_operator(f"from 2 to 1\nrows: {rows}", 2)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ("2² d1 u1", "line 2, col 33: unexpected character '²'"),
        ("d1² u1", "line 2, col 32: expected a derivative (d1..d2) or component, found 'd1²'"),
        ("٣ d1 u1", "line 2, col 32: unexpected character '٣'"),
    ],
)
def test_non_ascii_digits_rejected(row, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_system(f"dim 2\noperator A {{ from 1 to 1 rows: {row} }}\n")
    assert str(err.value) == message


# the DSL's characters and keywords, and three characters that str.isdigit or
# str.isalpha admit but the DSL does not
DSL_ALPHABET = "0123456789dfu ^+-*/(){};:#\n\t" + "²٣ξ"
DSL_WORDS = ["dim ", "operator A ", "constraint C ", "from ", " to ", "rows: "]


def _parse_or_typed_error(text):
    try:
        parse_system(text)
    except EllsymError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(DSL_WORDS), st.text(DSL_ALPHABET, max_size=8)), max_size=12)
)
def test_parse_system_raises_only_ellsym_errors_on_arbitrary_text(pieces):
    _parse_or_typed_error("".join(pieces))


# every bundled file; a mutated exponent on a group of terms meets the
# parser's expansion budget
SYSTEM_TEXTS = sorted(p.read_text() for p in (Path(__file__).parents[1] / "systems").glob("*.sys"))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SYSTEM_TEXTS),
    st.lists(
        st.tuples(
            st.floats(0, 1),
            st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(DSL_ALPHABET),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_parse_system_raises_only_ellsym_errors_on_mutated_system(source, edits):
    text = list(source)
    for where, kind, ch in edits:
        pos = min(int(where * len(source)), len(text))
        if kind == "insert":
            text.insert(pos, ch)
        elif pos < len(text):
            text[pos : pos + 1] = [ch] if kind == "replace" else []
    _parse_or_typed_error("".join(text))


def test_power_of_a_group_over_the_expansion_budget_is_refused_at_once():
    # one mutated digit of biharmonic_div_r4.sys: 43,680 terms, once past 60 s of expansion
    text = (Path(__file__).parents[1] / "systems" / "biharmonic_div_r4.sys").read_text()
    mutated = text.replace("d4^2)^2 u2", "d4^2)^62 u2")
    assert mutated != text
    start = time.perf_counter()
    with pytest.raises(DslSyntaxError, match="over the budget") as err:
        parse_system(mutated)
    assert time.perf_counter() - start < 1.0
    assert err.value.line == 8
    # (d1 + d2)^255 is within the budget, (d1 + d2)^256 is not
    assert len(parse_operator("rows: (d1 + d2)^255 u1", 2).coeffs) == 256
    with pytest.raises(DslSyntaxError, match="over the budget"):
        parse_operator("rows: (d1 + d2)^256 u1", 2)


def test_product_of_groups_over_the_expansion_budget_is_refused_at_once():
    # expanded with no estimate, 40 factors took seconds and the cost grew like m⁴
    start = time.perf_counter()
    with pytest.raises(DslSyntaxError, match="over the budget") as err:
        parse_operator("rows: " + "(d1 + d2 + d3 + d4) " * 40 + "u1", 4)
    assert time.perf_counter() - start < 1.0
    assert (err.value.line, err.value.col) == (1, 7)
    # the same budget when the component comes first
    with pytest.raises(DslSyntaxError, match="over the budget"):
        parse_operator("rows: u1" + " (d1 + d2 + d3 + d4)" * 40, 4)
    assert len(parse_operator("rows: " + "(d1 + d2 + d3 + d4) " * 10 + "u1", 4).coeffs) == 286


def test_parse_system_tokenizes_the_text_once(monkeypatch):
    from ellsym import dsl

    calls = []
    tokenize = dsl._tokenize
    monkeypatch.setattr(dsl, "_tokenize", lambda text: calls.append(text) or tokenize(text))
    parse_system((Path(__file__).parents[1] / "systems" / "divcurl_r3.sys").read_text())
    assert len(calls) == 1
