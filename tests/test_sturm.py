from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym import sturm
from genops import reference_sturm_chain

F = Fraction


def poly(*coeffs):
    return [F(c) for c in coeffs]


def test_no_real_roots():
    assert sturm.isolate_a_root(poly(1, 0, 1)) is None  # 1 + t^2
    assert sturm.isolate_a_root(poly(1, 0, 2, 0, 1)) is None  # (t^2 + 1)^2


def test_double_roots_counted_once_each():
    # (t^2 - 2)^2 = 4 - 4t^2 + t^4 keeps its sign, but the chain counts each
    # double root once, so the bisection still brackets one of ±√2
    hit = sturm.isolate_a_root(poly(4, 0, -4, 0, 1))
    assert hit[0] == "interval"
    assert hit[1] ** 2 <= 2 <= hit[2] ** 2 or hit[2] ** 2 <= 2 <= hit[1] ** 2


def test_cubic():
    assert sturm.isolate_a_root(poly(0, -1, 0, 1)) == ("exact", 0)  # t^3 - t


def test_constant_and_linear():
    assert sturm.isolate_a_root(poly(5)) is None
    assert sturm.isolate_a_root(poly(-3, 2)) == ("exact", F(3, 2))


def test_isolate_exact_rational_root():
    # (2t - 3)(t^2 + 1) = -3 + 2t - 3t^2 + 2t^3
    kind, value = sturm.isolate_a_root(poly(-3, 2, -3, 2))
    assert kind == "exact"
    assert value == F(3, 2)


def test_isolate_irrational_root_interval():
    p = poly(-2, 0, 1)  # t^2 - 2
    hit = sturm.isolate_a_root(p)
    assert hit[0] == "interval"
    lo, hi = hit[1], hit[2]
    assert hi - lo <= F(1, 10**13)
    assert sturm.evaluate(p, lo) * sturm.evaluate(p, hi) < 0


def test_root_bound():
    p = poly(-10, 0, 1)  # roots ±sqrt(10)
    b = sturm.root_bound(p)
    assert isinstance(b, Fraction)
    assert b >= 4


def test_evaluate_and_pseudo_remainder():
    p = poly(1, 2, 1)  # (1+t)^2
    assert sturm.evaluate(p, F(-1)) == 0
    r = sturm.pseudo_remainder([0, 0, 0, 1], [0, 1])  # t^3 mod t
    assert sturm.trim(r) == []


def test_pseudo_remainder_is_scaled_remainder():
    # lc(b)^(δ+1)·a = q·b + prem: (t^3 + 1) by (2t + 1), δ = 2, gives 8·(1 − 1/8) = 7
    assert sturm.pseudo_remainder([1, 0, 0, 1], [1, 2]) == [7]
    assert sturm.pseudo_remainder([1, 0, 0, 1], [-1, -2]) == [-7]


def _multiply(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


small = st.integers(-6, 6)
# integer polynomials of degree 0 to 6, their squares, and products with rational
# linear factors b + a·t, whose root −b/a is a rational the bisection can meet
base = st.lists(small, min_size=1, max_size=7).filter(lambda p: p[-1] != 0)
linear = st.tuples(small, small.filter(bool)).map(list)
polynomials = st.one_of(
    base,
    base.map(lambda p: _multiply(p, p)),
    st.tuples(base, linear, linear).map(lambda t: _multiply(_multiply(t[0], t[1]), t[2])),
    linear,
)


@settings(max_examples=150, deadline=None)
@given(polynomials, st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool))
def test_int_chain_matches_rational_chain(ints, scale):
    p = [scale * c for c in ints]
    chain, ref = sturm.sturm_chain(p), reference_sturm_chain(p)
    assert len(chain) == len(ref)
    for q, r in zip(chain, ref):
        assert all(type(c) is int for c in q)
        assert len(q) == len(r)
        factor = Fraction(q[-1]) / r[-1]
        assert factor > 0
        assert [factor * c for c in r] == q
    hit = sturm.isolate_a_root(p)
    with mock.patch.object(sturm, "sturm_chain", reference_sturm_chain):
        assert sturm.isolate_a_root(p) == hit
