import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k0heap.lattice import (
    IntMatrix,
    InvariantFactors,
    basis_rows,
    hnf,
    identity_matrix,
    insert,
    residue,
    smith_decomposition,
    snf,
)
from oracles import dense_residue, det_cofactor, matmul, smith_with_transforms, snf_oracle

entries = st.integers(min_value=-9, max_value=9)


def member(m, v):
    return not any(dense_residue(hnf(m)[0].to_rows(), v))


def square(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_intmatrix_shape_checked():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_hnf_identity():
    m = identity_matrix(2)
    h, u = hnf(m)
    assert h == m
    assert u == m


def test_hnf_zero_matrix():
    m = IntMatrix.from_rows([[0, 0], [0, 0]])
    h, u = hnf(m)
    assert h == m
    assert abs(det_cofactor(u.to_rows())) == 1


def test_hnf_example_2x2():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    h, u = hnf(m)
    assert h.to_rows() == [[2, 0], [0, 4]]
    assert matmul(u.to_rows(), m.to_rows()) == h.to_rows()
    assert abs(det_cofactor(u.to_rows())) == 1
    # mutual row-space membership
    for i in range(2):
        assert member(m, h.row(i))
        assert member(h, m.row(i))


def test_snf_zero_matrix_is_free():
    assert snf(IntMatrix.from_rows([[0, 0], [0, 0]])) == InvariantFactors(rank=2, torsion=())


def test_snf_example_2x2():
    # determinant-divisor oracle: d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])) == InvariantFactors(rank=0, torsion=(2, 4))


def test_snf_single_pivot():
    assert snf(IntMatrix.from_rows([[1, 0]])) == InvariantFactors(rank=1, torsion=())


def test_lattice_member_examples():
    m = IntMatrix.from_rows([[2, 0]])
    assert member(m, [0, 0])
    assert not member(m, [1, 0])
    m2 = IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]])
    assert member(m2, [1, 0, -1])
    with pytest.raises(ValueError):
        member(m2, [1, 0])


def test_invariant_factors_chain_enforced():
    with pytest.raises(ValueError):
        InvariantFactors(rank=0, torsion=(4, 2))
    with pytest.raises(ValueError):
        InvariantFactors(rank=0, torsion=(1,))


def _assert_hnf_shape(h):
    rows = h.to_rows()
    pivots = []
    for row in rows:
        cols = [j for j, x in enumerate(row) if x]
        pivots.append(cols[0] if cols else None)
    seen_zero = False
    last = -1
    for i, p in enumerate(pivots):
        if p is None:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        assert p > last
        last = p
        assert rows[i][p] > 0
        for k in range(i):
            assert 0 <= rows[k][p] < rows[i][p]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=1, max_size=5))
def test_hnf_contract(rows):
    m = IntMatrix.from_rows(rows)
    h, u = hnf(m)
    assert matmul(u.to_rows(), m.to_rows()) == h.to_rows()
    assert abs(det_cofactor(u.to_rows())) == 1
    _assert_hnf_shape(h)
    for i in range(m.rows):
        assert member(h, m.row(i))
        assert member(m, h.row(i))


@settings(max_examples=100, deadline=None)
@given(square(4), st.randoms(use_true_random=False))
def test_hnf_invariant_under_row_permutation(rows, rng):
    m1 = IntMatrix.from_rows(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    m2 = IntMatrix.from_rows(shuffled)
    assert hnf(m1)[0] == hnf(m2)[0]


@settings(max_examples=150, deadline=None)
@given(square(4))
def test_snf_matches_minor_gcd_oracle(rows):
    oracle_rank, oracle_torsion = snf_oracle(rows)
    factors = snf(IntMatrix.from_rows(rows))
    assert factors.rank == 4 - oracle_rank
    assert factors.torsion == oracle_torsion


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=1, max_size=5))
def test_smith_decomposition_transforms(rows):
    m = IntMatrix.from_rows(rows)
    dec = smith_decomposition(m)
    product = matmul(matmul(dec.left.to_rows(), rows), dec.right.to_rows())
    for i, row in enumerate(product):
        for j, x in enumerate(row):
            expected = dec.diagonal[i] if i == j and i < len(dec.diagonal) else 0
            assert x == expected
    assert abs(det_cofactor(dec.left.to_rows())) == 1
    assert abs(det_cofactor(dec.right.to_rows())) == 1


@st.composite
def tall_matrices(draw):
    cols = draw(st.integers(min_value=1, max_value=4))
    cell = st.one_of(entries, st.integers(min_value=-60, max_value=60))
    rows = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), max_size=4 * cols + 3))
    return cols, rows


@settings(max_examples=150, deadline=None)
@given(tall_matrices())
def test_smith_decomposition_matches_eager_elimination(shape):
    cols, rows = shape
    dec = smith_decomposition(IntMatrix.from_rows(rows, cols=cols))
    assert "left" not in vars(dec)  # the row transform is not built until it is read
    diagonal, left, right = smith_with_transforms(rows, cols)
    assert dec.diagonal == diagonal
    assert dec.right.to_rows() == right
    assert dec.left.to_rows() == left
    assert dec.left is dec.left


@st.composite
def tied_matrices(draw):
    """Tall matrices dense in 0 and +-1, with duplicate rows and zero rows.

    Ties in |entry| are everywhere, so every pivot choice rests on the
    (row, column) tie-break; the rare 2s and 3s reach the divisibility fix.
    """
    cols = draw(st.integers(min_value=1, max_value=6))
    cell = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3))
    distinct = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=1, max_size=cols + 2))
    distinct.append([0] * cols)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=cols + 1, max_size=4 * cols + 4))
    return cols, [list(distinct[k]) for k in picks]


@settings(max_examples=300, deadline=None)
@given(tied_matrices())
def test_smith_with_many_ties_matches_eager_elimination(shape):
    cols, rows = shape
    dec = smith_decomposition(IntMatrix.from_rows(rows, cols=cols))
    diagonal, left, right = smith_with_transforms(rows, cols)
    assert dec.diagonal == diagonal
    assert dec.right.to_rows() == right
    assert dec.left.to_rows() == left


def test_member_of_every_row_randomized():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        m = IntMatrix.from_rows(rows)
        for row in rows:
            assert member(m, row)


@st.composite
def hermite_forms_and_vectors(draw):
    """A row Hermite form with a pivot above 1, and a combination of its rows plus an offset, perhaps zero."""
    n = draw(st.integers(min_value=1, max_value=6))
    columns = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    pivot = {c: draw(st.integers(1, 6)) for c in columns}
    pivot[draw(st.sampled_from(columns))] = draw(st.integers(2, 6))
    h = []
    for c in columns:
        row = [0] * n
        row[c] = pivot[c]
        for j in range(c + 1, n):
            row[j] = draw(st.integers(0, pivot[j] - 1) if j in pivot else entries)
        h.append(row)
    coeffs = draw(st.lists(entries, min_size=len(h), max_size=len(h)))
    offset = draw(st.one_of(st.just([0] * n), st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return h, [o + sum(a * row[j] for a, row in zip(coeffs, h)) for j, o in enumerate(offset)]


@settings(max_examples=300, deadline=None)
@given(hermite_forms_and_vectors())
@example(([[2, -3, 1]], [3, 0, 0]))  # the pivot does not divide the entry: stop at column 0
@example(([[1, 5, 0], [0, 0, 4]], [-1, 0, 0]))  # column 1 has no pivot row: stop there
def test_sparse_residue_matches_the_dense_reduction(case):
    h, v = case
    assert hnf(IntMatrix.from_rows(h))[0].to_rows() == h
    pivots = {}
    for row in h:  # a Hermite form's rows are their own basis
        insert(pivots, dict(enumerate(row)))
    assert basis_rows(pivots, len(v)) == h
    rest = residue(pivots, dict(enumerate(v)))
    dense = dense_residue(h, v)
    assert (not rest) == (not any(dense))
    assert all(rest.values())
    # the remainder differs from v by a lattice vector, and its least column is one no pivot row clears
    assert dense_residue(h, [rest.get(j, 0) for j in range(len(v))]) == dense
    if rest:
        c = min(rest)
        assert c not in pivots or rest[c] % pivots[c][0]
