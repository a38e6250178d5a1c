import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym.dsl import MAX_EXPANSION_BITS, MAX_SPACE_DIM, format_operator, format_system, parse_operator, parse_system
from ellsym.errors import (
    DimensionMismatchError,
    DslSyntaxError,
    DuplicateBlockError,
    EllsymError,
    NonHomogeneousRowError,
    UnknownComponentError,
)
from ellsym.operators import OperatorSpec, SystemSpec
from ellsym.poly import Polynomial, monomials_of_degree
from genops import load_repo_module, random_operator, read_repo_file

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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_term_without_groups_builds_no_polynomial_product(seed, monkeypatch):
    # every rung of the ladder is a sum of terms c·ξ^α·u_i: numbers, derivatives and
    # one component fold into one monomial, with no Polynomial product
    texts = [rung.text for rung in load_repo_module("perfbench/ladder.py").build_ladder(seed)]

    def refuse(self, other):
        raise AssertionError("a Polynomial product in a term without groups")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    for text in texts:
        parse_system(text)


def _derivatives(alpha):
    return " ".join(f"d{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(alpha) if a)


@st.composite
def _group(draw, n, source_dim, with_component):
    """A parenthesized signed sum of monomials of one degree, each times a component
    when with_component: (text, degree, value), the value a Polynomial or, with
    components, {index: Polynomial}; a scalar group may carry a power."""
    degree = draw(st.integers(0, 2))
    term = st.tuples(st.sampled_from("+-"), st.integers(0, 4), st.sampled_from(monomials_of_degree(n, degree)),
                     st.integers(0, source_dim - 1))
    value, parts = ({} if with_component else Polynomial.zero(n)), []
    for sign, c, alpha, i in draw(st.lists(term, min_size=1, max_size=3)):
        p = Polynomial.monomial(n, alpha, c if sign == "+" else -c)
        parts.append(" ".join(filter(None, [sign, str(c), _derivatives(alpha), f"u{i + 1}" if with_component else ""])))
        if with_component:
            value[i] = value[i] + p if i in value else p
        else:
            value = value + p
    text = "(" + " ".join(parts) + ")"
    if with_component:
        return text + draw(st.sampled_from(["", "^1"])), degree, value
    k = draw(st.sampled_from([None, 0, 1, 2, 3]))
    return (text, degree, value) if k is None else (f"{text}^{k}", degree * k, value**k)


def _derivative(n, i, k):
    """(text, degree, value) of d_i^k, written as d_i when k is None."""
    alpha = [0] * n
    alpha[i - 1] = 1 if k is None else k
    return (f"d{i}" if k is None else f"d{i}^{k}"), alpha[i - 1], Polynomial.monomial(n, alpha)


@st.composite
def _term(draw, n, source_dim):
    """The factors (text, degree, value) of one term, in drawn order: numbers,
    derivatives, scalar groups and one component, bare or in a group."""
    factors = []
    for p, q in draw(st.lists(st.tuples(st.integers(0, 9), st.sampled_from([1, 1, 2, 3, 7])), max_size=2)):
        factors.append((str(p) if q == 1 else f"{p}/{q}", 0, Polynomial.constant(n, F(p, q))))
    for i, k in draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from([None, 0, 1, 2])), max_size=3)):
        factors.append(_derivative(n, i, k))
    factors += draw(st.lists(_group(n, source_dim, False), max_size=2))
    if draw(st.booleans()):
        i = draw(st.integers(1, source_dim))
        factors.append((f"u{i}", 0, {i - 1: Polynomial.constant(n, 1)}))
    else:
        factors.append(draw(_group(n, source_dim, True)))
    return draw(st.permutations(factors))


@st.composite
def _row(draw, n, source_dim):
    """(text, {index: Polynomial}) of a homogeneous row: every term is padded to the
    top degree by one more derivative, and the last may come again to cancel."""
    terms = draw(st.lists(_term(n, source_dim), min_size=1, max_size=3))
    top = max(sum(degree for _, degree, _ in factors) for factors in terms)
    signed = []
    for factors in terms:
        factors = list(factors)
        missing = top - sum(degree for _, degree, _ in factors)
        if missing:
            factors.insert(draw(st.integers(0, len(factors))), _derivative(n, draw(st.integers(1, n)), missing))
        signed.append((draw(st.sampled_from("+-")), factors))
    if draw(st.booleans()):
        sign, factors = signed[-1]
        signed.append(("-" if sign == "+" else "+", factors))
    text, row = "", {}
    for sign, factors in signed:
        scalar, comps = Polynomial.constant(n, 1), None
        for _, _, value in factors:
            if isinstance(value, dict):
                comps = value
            else:
                scalar = scalar * value
        for i, p in comps.items():
            p = -(p * scalar) if sign == "-" else p * scalar
            row[i] = row[i] + p if i in row else p
        glue = draw(st.lists(st.sampled_from([" ", " * "]), min_size=len(factors) - 1, max_size=len(factors) - 1))
        lead = "" if not text and sign == "+" and draw(st.booleans()) else f" {sign}"
        text += f"{lead} " + "".join(f + g for (f, _, _), g in zip(factors, glue)) + factors[-1][0]
    return text, row


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_operator_matches_polynomial_arithmetic(data):
    n, source_dim = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(_row(n, source_dim), min_size=1, max_size=3))
    text = f"from {source_dim} to {len(rows)}\nrows:" + ";\n".join(row_text for row_text, _ in rows)
    expected = OperatorSpec.from_terms(n, source_dim, len(rows), (
        (alpha, j, i, c) for j, (_, row) in enumerate(rows) for i, p in row.items() for alpha, c in p.terms.items()))
    assert parse_operator(text, n) == expected, text


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("u1 u2", DslSyntaxError, "line 1, col 7: expression is nonlinear in the components"),
        ("(u1 - u1) u2", DslSyntaxError, "line 1, col 7: expression is nonlinear in the components"),
        ("(u1)^0", DslSyntaxError, "line 1, col 12: cannot raise a component expression to a power"),
        ("u1^2", DslSyntaxError, "line 1, col 9: unexpected token '^'"),
        ("d0 u1", DslSyntaxError, "line 1, col 7: derivative d0 out of range for dimension 2"),
        ("u0", UnknownComponentError, "line 1, col 7: component index must be >= 1, got 0"),
        ("u1 * * u2", DslSyntaxError, "line 1, col 10: expected a factor after '*'"),
        ("d1^-1 u1", DslSyntaxError, "line 1, col 10: expected an exponent, found '-'"),
    ],
)
def test_parser_edge_cases_keep_their_class_and_message(row, error, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_operator(f"rows: {row}", 2)
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("row", ["0 u1", "u1 - u1"])
def test_zero_rows_keep_their_component(row):
    op = parse_operator(f"rows: {row}", 2)
    assert op == parse_operator("from 1 to 1\nrows: 0 u1", 2)
    assert format_operator(op) == "from 1 to 1\nrows:\n  0 u1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("rows: d1 u1 +", "line 1, col 14: unexpected end of input"),
        ("rows: -", "line 1, col 8: unexpected end of input"),
        ("rows: (d1 u1", "line 1, col 13: expected ')', found end of input"),
        ("rows: d1^", "line 1, col 10: expected an exponent, found end of input"),
        ("rows: 2/", "line 1, col 9: expected a denominator, found end of input"),
        ("from 1 to", "line 1, col 10: expected target dimension, found end of input"),
        ("from 1", "line 1, col 7: expected 'to', found end of input"),
    ],
)
def test_truncated_text_names_the_end_of_input(text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_operator(text, 2)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim 2\noperator A", "line 2, col 11: expected '{', found end of input"),
        ("dim 2\noperator A {", "line 2, col 13: expected 'from', found end of input"),
        ("dim 2\noperator A { from 1 to 1 rows: d1 u1", "line 2, col 37: expected '}', found end of input"),
    ],
)
def test_truncated_system_names_the_end_of_input(text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_system(text)
    assert str(err.value) == message


def test_power_of_a_derivative_over_the_budget_names_the_derivative():
    k = MAX_EXPANSION_BITS
    assert parse_operator(f"rows: d2^{k} u1", 2).row_degrees == (k,)
    with pytest.raises(DslSyntaxError) as err:
        parse_operator(f"rows: d2^{k + 1} u1", 2)
    assert str(err.value) == (
        f"line 1, col 10: power {k + 1} of d2 may expand to 1 terms of about {k + 1} bits each, "
        f"over the budget of {k} bits"
    )
