"""Exact rational linear algebra for small dense matrices: a test oracle.

The package computes on integers through closed forms, Cramer's rule and
one fraction-free elimination (``core._weyl_numerators``); this general
``Fraction`` matrix API is what it used before, kept so the tests can
compare the integer paths against it.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), so
nothing here ever rounds.  The determinant runs fraction-free (Bareiss)
on an integer rescaling of the rows, which keeps intermediate entries
polynomially bounded; linear solve is plain Gaussian elimination over
the rationals.  Singularity means det == 0 exactly, never "small".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

QLike = Fraction | int


class ShapeError(ValueError):
    """Matrix/vector dimensions do not fit the requested operation."""


class SingularMatrixError(ZeroDivisionError):
    """A linear solve hit an exactly singular matrix."""


def _as_rational(x: QLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class QMatrix:
    """Immutable rows x cols matrix of rationals, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[QLike]]) -> "QMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(_as_rational(x) for x in row)
        return cls(nrows, ncols, tuple(flat))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def _integer_rows(m: QMatrix) -> tuple[list[list[int]], Fraction]:
    """Rescale each row to integers; return (rows, product of row scales)."""
    rows: list[list[int]] = []
    scale = Fraction(1)
    for i in range(m.rows):
        row = m.row(i)
        mult = lcm(*(x.denominator for x in row)) if row else 1
        scale *= mult
        rows.append([int(x * mult) for x in row])
    return rows, scale


def _bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys its input)."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            arow = a[i]
            krow = a[k]
            for j in range(k + 1, n):
                arow[j] = (arow[j] * pivot - aik * krow[j]) // prev
            arow[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det(m: QMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
    rows, scale = _integer_rows(m)
    return Fraction(_bareiss_det(rows)) / scale


def solve(m: QMatrix, v: Sequence[QLike]) -> tuple[Fraction, ...]:
    """Solve m x = v exactly; raises SingularMatrixError when det(m) == 0."""
    if not m.is_square:
        raise ShapeError("solve needs a square matrix")
    n = m.rows
    if len(v) != n:
        raise ShapeError("right-hand side length does not match matrix size")
    a = [list(m.row(i)) + [_as_rational(v[i])] for i in range(n)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                for j in range(k, n + 1):
                    a[i][j] -= factor * a[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = a[k][n] - sum((a[k][j] * x[j] for j in range(k + 1, n)), Fraction(0))
        x[k] = acc / a[k][k]
    return tuple(x)
