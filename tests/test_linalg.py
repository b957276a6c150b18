"""The rational matrix oracle of the tests: ``det``, ``solve``, ``rank``."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rational_oracle import (
    QMatrix,
    ShapeError,
    SingularMatrixError,
    det,
    solve,
)
from reader_oracle import det_int_rows, rank, solve_consistent

GRAM_A10_TWISTED = [[2, 0, -2], [0, 2, -1], [-2, -1, 2]]


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def matvec(rows, x):
    return [sum(a * t for a, t in zip(row, x)) for row in rows]


def permutation_sum_det(rows):
    """Independent determinant oracle: sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += sign * prod
    return total


def small_int_matrix(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def test_det_examples():
    assert det(QMatrix.from_rows(GRAM_A10_TWISTED)) == -2
    assert det(identity(3)) == 1
    # Gram of the hyperbolic-plane-plus-<2> basis
    assert det(QMatrix.from_rows([[0, -1, 0], [-1, 0, 0], [0, 0, 2]])) == -2


def test_det_rational_entries():
    m = QMatrix.from_rows(
        [[Fraction(1, 2), 0], [Fraction(1, 3), Fraction(1, 3)]]
    )
    assert det(m) == Fraction(1, 6)


def test_det_requires_square():
    with pytest.raises(ShapeError):
        det(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@given(small_int_matrix())
def test_det_matches_permutation_sum(rows):
    assert det(QMatrix.from_rows(rows)) == permutation_sum_det(rows)


def test_solve_example():
    x = solve(QMatrix.from_rows(GRAM_A10_TWISTED), [-1, -2, -2])
    assert x == (Fraction(15, 2), Fraction(3), Fraction(8))


def test_solve_identity():
    assert solve(identity(3), [5, -7, 2]) == (5, -7, 2)


def test_solve_singular_raises():
    m = QMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve(m, [1, 1])


@given(small_int_matrix())
def test_solve_round_trip(rows):
    m = QMatrix.from_rows(rows)
    if det(m) == 0:
        with pytest.raises(SingularMatrixError):
            solve(m, [1] * m.rows)
        return
    v = list(range(1, m.rows + 1))
    x = solve(m, v)
    assert matvec(rows, x) == v


# rank, solve_consistent and det_int_rows are the slow oracle of the
# integer reader path (tests/reader_oracle.py); they are checked here.


def test_rank_examples():
    gram = QMatrix.from_rows(
        [[2, -2, -4, 0], [-2, 2, 0, -4], [-4, 0, 2, -2], [0, -4, -2, 2]]
    )
    assert rank(gram) == 3
    assert rank(identity(5)) == 5
    assert rank(QMatrix.from_rows([[0, 0], [0, 0]])) == 0


@given(small_int_matrix())
def test_rank_equals_rank_of_transpose(rows):
    m = QMatrix.from_rows(rows)
    assert rank(m) == rank(QMatrix.from_rows(list(zip(*rows))))


@given(small_int_matrix())
def test_rank_invariant_under_row_ops(rows):
    m = QMatrix.from_rows(rows)
    r = rank(m)
    swapped = [rows[-1]] + rows[1:-1] + [rows[0]]
    assert rank(QMatrix.from_rows(swapped)) == r
    if len(rows) >= 2:
        added = [list(rows[0])] + [
            [a + 3 * b for a, b in zip(rows[i], rows[0])]
            for i in range(1, len(rows))
        ]
        assert rank(QMatrix.from_rows(added)) == r


def test_rational_normalization_is_idempotent():
    x = Fraction(6, -4)
    assert (x.numerator, x.denominator) == (-3, 2)
    assert Fraction(x.numerator, x.denominator) == x


@given(small_int_matrix())
def test_det_int_rows_matches_det(rows):
    assert det_int_rows(rows) == det(QMatrix.from_rows(rows))


def test_det_int_rows_requires_square():
    with pytest.raises(ShapeError):
        det_int_rows([[1, 2], [3, 4], [5, 6]])


@given(small_int_matrix())
def test_solve_consistent_solves_or_reports_inconsistency(rows):
    m = QMatrix.from_rows(rows)
    v = list(range(1, m.rows + 1))
    x = solve_consistent(m, v)
    if det(m) != 0:
        assert x == solve(m, v)
    elif x is None:
        # inconsistent: appending v raises the rank
        assert rank(QMatrix.from_rows([r + [t] for r, t in zip(rows, v)])) > rank(m)
    else:
        assert matvec(rows, x) == v
