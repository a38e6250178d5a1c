from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym.ratlinalg import (
    Subspace,
    identity,
    injective,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    primitive,
    projection_onto_rowspace,
    rref,
    solve,
    transpose,
)
from genops import image_of, is_full, rank

F = Fraction


def test_rref_pivots():
    m = [[F(2), F(4)], [F(1), F(2)]]
    r, pivots = rref(m)
    assert r == [[F(1), F(2)], [F(0), F(0)]]
    assert pivots == [0]


def test_nullspace_canonical():
    m = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    ns = nullspace(m)
    assert ns == [(F(1), F(-1), F(0))]


def test_nullspace_empty_matrix_is_full_space():
    assert nullspace([], ncols=2) == [(F(1), F(0)), (F(0), F(1))]


def test_solve_consistent_and_inconsistent():
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert solve(a, [F(3), F(6)]) == (F(3), F(0))
    assert solve(a, [F(3), F(7)]) is None


def test_inverse_roundtrip():
    a = [[F(2), F(1)], [F(1), F(1)]]
    assert mat_mul(a, inverse(a)) == identity(2)


def test_projection_is_idempotent_and_symmetric():
    b = [[F(1), F(1), F(0)], [F(0), F(2), F(0)]]
    p = projection_onto_rowspace(b)
    assert mat_mul(p, p) == p
    assert transpose(p) == p
    # fixes the rows, kills the orthogonal complement
    for row in b:
        assert mat_vec(p, row) == tuple(row)
    assert mat_vec(p, (F(0), F(0), F(1))) == (F(0), F(0), F(0))


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fracs, min_size=3, max_size=3), min_size=1, max_size=4
    )
)
def test_nullspace_vectors_annihilate(rows):
    ns = nullspace(rows)
    for v in ns:
        assert mat_vec(rows, v) == tuple(Fraction(0) for _ in rows)
    # rank-nullity over the 3 columns
    assert rank(rows) + len(ns) == 3


def test_subspace_intersection_examples():
    e1 = Subspace.from_vectors(4, [(1, 0, 0, 0)])
    e4 = Subspace.from_vectors(4, [(0, 0, 0, 1)])
    assert e1.intersect(e4).is_zero()
    plane = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    other = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    line = plane.intersect(other)
    assert line.basis == ((F(1), F(1), F(0)),)


def test_subspace_contains_and_transform():
    s = Subspace.from_vectors(3, [(1, 2, 0)])
    assert s.contains((F(1, 2), F(1), F(0)))
    assert not s.contains((1, 0, 0))
    m = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    assert image_of(s, m).basis == ((F(1), F(1, 2), F(0)),)


def test_subspace_full_and_zero():
    z = Subspace.zero(3)
    f = Subspace.full(3)
    assert z.intersect(f).is_zero()
    assert is_full(f.intersect(f))
    assert is_full(z.orthogonal_complement())
    assert f.orthogonal_complement().is_zero()


def _bareiss_cases():
    """Int matrices, tall, square and wide, with small or huge entries, some
    with a zero column or a repeated column."""
    def shape(entries):
        return st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)))

    def edit(args):
        m, kind, i, j = args
        c = len(m[0])
        i, j = i % c, j % c
        if kind == "zero":
            return [row[:i] + [0] + row[i + 1:] for row in m]
        if kind == "repeat":
            return [row[:i] + [row[j]] + row[i + 1:] for row in m]
        return m

    matrices = st.one_of(shape(st.integers(-3, 3)), shape(st.integers(-10**40, 10**40)))
    return st.tuples(matrices, st.sampled_from(["keep", "zero", "repeat"]), st.integers(0, 4),
                     st.integers(0, 4)).map(edit)


@settings(max_examples=300, deadline=None)
@given(_bareiss_cases())
def test_injective_agrees_with_nullspace(m):
    assert injective(m) == (not nullspace(m))


def test_injective_examples():
    assert injective([[2, 1], [4, 3], [0, 5]])
    assert not injective([[1, 2], [2, 4]])  # repeated column up to a factor
    assert not injective([[1, 2, 3], [4, 5, 6]])  # wide
    assert not injective([[0, 1], [0, 2], [0, 3]])  # zero column
    assert injective([[0, 1], [1, 0]])  # a row swap
    assert injective([[10**30, 1], [1, 10**30]])


def test_primitive_of_ints_and_fractions():
    assert primitive((F(-1, 2), 0, F(3, 4))) == (2, 0, -3)
    assert primitive((0, -4, 6)) == (0, 2, -3)
    assert primitive((F(1, 3), F(2, 3))) == primitive((1, 2)) == (1, 2)
    assert primitive((0, 0)) == (0, 0)
    assert all(type(x) is int for x in primitive((F(5, 6), F(-1, 4))))
