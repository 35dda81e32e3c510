"""Exact linear algebra: echelon, coordinates, RREF, nullspace, transpose."""

from fractions import Fraction

from leibcx.exactla import SparseEchelon, nullspace, rank, rref, transpose


def F(x):
    return Fraction(x)


def test_echelon_rank_and_membership():
    ech = SparseEchelon()
    assert ech.insert({0: F(2), 1: F(4)})
    assert ech.insert({1: F(1), 2: F(1)})
    assert not ech.insert({0: F(1), 1: F(3), 2: F(1)})  # sum of halves
    assert ech.rank == 2
    assert ech.contains({0: F(3), 1: F(6)})
    assert not ech.contains({2: F(1)})


def test_echelon_fractions_cleared():
    ech = SparseEchelon()
    ech.insert({0: Fraction(1, 3), 1: Fraction(1, 6)})
    row = ech.rows[0]
    assert all(isinstance(v, int) for v in row.values())
    assert row == {0: 2, 1: 1}


def test_echelon_coordinates_exact():
    ech = SparseEchelon(track=True)
    ech.insert({0: F(1), 1: F(2)})
    ech.insert({0: F(1), 1: F(3), 2: F(1)})
    ech.insert({1: F(1), 2: F(1)})  # dependent: source 2
    vec = {0: F(5), 1: F(11), 2: F(1)}
    coords = ech.coordinates(vec)
    assert coords is not None
    # reconstruct from the two accepted sources
    sources = [{0: F(1), 1: F(2)}, {0: F(1), 1: F(3), 2: F(1)}, {1: F(1), 2: F(1)}]
    rebuilt = {}
    for s, c in coords.items():
        for i, v in sources[s].items():
            rebuilt[i] = rebuilt.get(i, F(0)) + c * v
    assert {i: v for i, v in rebuilt.items() if v} == vec
    assert ech.coordinates({3: F(1)}) is None


def test_echelon_late_pivot_order():
    # second row's pivot column precedes the first row's
    ech = SparseEchelon()
    ech.insert({5: F(1), 2: F(1)})
    ech.insert({2: F(1)})
    assert ech.contains({5: F(1)})
    assert not ech.insert({5: F(3), 2: F(7)})


def test_rank_matches_dense_rref():
    rows = [
        {0: F(1), 1: F(2), 2: F(3)},
        {0: F(2), 1: F(4), 2: F(6)},
        {1: F(1), 2: F(1)},
        {0: F(1), 1: F(1), 2: F(2)},
    ]
    assert rank(rows) == 2
    red, pivots = rref(rows)
    assert len(red) == 2 and pivots == [0, 1]
    assert red[0] == {0: F(1), 2: F(1)}
    assert red[1] == {1: F(1), 2: F(1)}


def test_nullspace_canonical():
    rows = [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}]
    basis = nullspace(rows, 3)
    assert basis == [{0: F(-1), 1: F(-1), 2: F(1)}]
    for v in basis:
        assert all(sum(c * v.get(i, 0) for i, c in r.items()) == 0
                   for r in rows)


def test_transpose_sparse_columns():
    # columns of [[1, 2], [3, 4]]
    a = [{0: F(1), 1: F(3)}, {0: F(2), 1: F(4)}]
    assert transpose(a, 2) == [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}]
    # empty rows and columns survive with the given row count
    assert transpose([{}, {2: F(5)}], 3) == [{}, {}, {1: F(5)}]
    assert transpose([], 2) == [{}, {}]
