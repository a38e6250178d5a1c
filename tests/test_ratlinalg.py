from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellsym.ratlinalg import (
    Subspace,
    _echelon,
    identity,
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
from genops import image_of, is_full, rank, reference_rref

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
    return _matrices(st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40)),
                     ["keep", "zero", "repeat"])


def _matrices(entries, edits):
    """Matrices of 1–5 rows and 1–5 columns over `entries`, after one edit:
    none, a zero column, a repeated column, a column or a row replaced by a
    combination of two others (rank-deficient, so elimination skips a column
    and goes on)."""
    shape = st.integers(1, 5).flatmap(lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)))

    def edit(args):
        m, kind, i, j, k = args
        c, r = len(m[0]), len(m)
        if kind == "zero":
            return [row[:i % c] + [0] + row[i % c + 1:] for row in m]
        if kind == "repeat":
            return [row[:i % c] + [row[j % c]] + row[i % c + 1:] for row in m]
        if kind == "column":
            return [row[:i % c] + [2 * row[j % c] - row[k % c]] + row[i % c + 1:] for row in m]
        if kind == "row":
            return m[:i % r] + [[2 * x - y for x, y in zip(m[j % r], m[k % r])]] + m[i % r + 1:]
        return m

    index = st.integers(0, 4)
    return st.tuples(shape, st.sampled_from(edits), index, index, index).map(edit)


_oracle_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**40, 10**40),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**20)),
)


def _reference_nullspace(m):
    r, pivots = reference_rref(m)
    basis = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        v = [F(0)] * len(m[0])
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return [tuple(row) for row in reference_rref(basis)[0] if any(row)]


@settings(max_examples=300, deadline=None)
@given(_matrices(_oracle_entries, ["keep", "zero", "repeat", "column", "row"]),
       st.lists(_oracle_entries, min_size=5, max_size=5))
def test_one_elimination_agrees_with_gauss_jordan(m, b):
    """rref, nullspace, solve, inverse and Subspace against the Fraction Gauss–Jordan."""
    ref, pivots = reference_rref(m)
    assert rref(m) == (ref, pivots)
    assert all(type(x) is Fraction for row in rref(m)[0] for x in row)
    assert nullspace(m) == _reference_nullspace(m)
    ncols = len(m[0])
    span = Subspace.from_vectors(ncols, m)
    assert span.basis == tuple(tuple(row) for row in ref[:len(pivots)])
    for v in (b[:ncols], mat_vec(transpose(m), b[:len(m)])):
        assert span.contains(v) == (len(reference_rref([*m, v])[1]) == len(pivots))
    for rhs in (b[:len(m)], mat_vec(m, b[:ncols])):
        aug_ref, aug_pivots = reference_rref([list(row) + [y] for row, y in zip(m, rhs)])
        want = None
        if ncols not in aug_pivots:
            want = [F(0)] * ncols
            for i, p in enumerate(aug_pivots):
                want[p] = aug_ref[i][-1]
            want = tuple(want)
        assert solve(m, rhs) == want
    if len(m) == ncols:
        aug_ref, aug_pivots = reference_rref([list(row) + list(e) for row, e in zip(m, identity(ncols))])
        if aug_pivots[:ncols] == list(range(ncols)):
            assert inverse(m) == [row[ncols:] for row in aug_ref]
        else:
            with pytest.raises(ZeroDivisionError):
                inverse(m)


@settings(max_examples=300, deadline=None)
@given(_bareiss_cases())
def test_injective_agrees_with_nullspace(m):
    assert (nullspace(m) == []) == (len(reference_rref(m)[1]) == len(m[0]))


def test_echelon_divides_by_the_previous_pivot():
    # Bareiss: each pivot is a leading minor, so the last one is det = -1, not -2
    assert _echelon([[2, 1, 1], [1, 3, 2], [1, 0, 0]]) == ([[2, 1, 1], [0, 5, 3], [0, 0, -1]], [0, 1, 2])
    # a Fraction row enters as its primitive int row; a column without a pivot is skipped
    assert _echelon([[F(1, 2), F(1, 3), F(1, 2)], [1, F(2, 3), 0]]) == ([[3, 2, 3], [0, 0, -9]], [0, 2])


def test_injective_examples():
    assert nullspace([[2, 1], [4, 3], [0, 5]]) == []
    assert nullspace([[1, 2], [2, 4]]) != []  # repeated column up to a factor
    assert nullspace([[1, 2, 3], [4, 5, 6]]) != []  # wide
    assert nullspace([[0, 1], [0, 2], [0, 3]]) != []  # zero column
    assert nullspace([[0, 1], [1, 0]]) == []  # a row swap
    assert nullspace([[10**30, 1], [1, 10**30]]) == []


def test_primitive_of_ints_and_fractions():
    assert primitive((F(-1, 2), 0, F(3, 4))) == (2, 0, -3)
    assert primitive((0, -4, 6)) == (0, 2, -3)
    assert primitive((F(1, 3), F(2, 3))) == primitive((1, 2)) == (1, 2)
    assert primitive((0, 0)) == (0, 0)
    assert all(type(x) is int for x in primitive((F(5, 6), F(-1, 4))))
