from fractions import Fraction

from ellsym import sturm

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
    assert b >= 4


def test_evaluate_and_remainder():
    p = poly(1, 2, 1)  # (1+t)^2
    assert sturm.evaluate(p, F(-1)) == 0
    r = sturm.remainder(poly(0, 0, 0, 1), poly(0, 1))  # t^3 mod t
    assert sturm.trim(r) == []
