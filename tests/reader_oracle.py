"""Slow reference implementations for the integer reader path in ``core``.

``rank``, ``solve_consistent`` and ``det_int_rows`` are the general
``Fraction`` routines that ``verify_realization`` used before it ran one
fraction-free pass over the integer Gram.  The ``reference_*`` functions
rebuild the verification report, the symmetry group and the canonical
form the old way (``assemble_gram`` and two eliminations, a determinant
per side triple, ``apply_move`` images), so the tests can compare the
fast paths against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypercartan.canonical import PackedDatum
from hypercartan.core import (
    CheckResult,
    DihedralMove,
    SymmetryGroup,
    all_moves,
    apply_move,
    assemble_gram,
    divisibility_ok,
)
from hypercartan.linalg import QMatrix, ShapeError, _bareiss_det, _integer_rows


def rank(m: QMatrix) -> int:
    """Rank over the rationals, via fraction-free elimination."""
    rows, _ = _integer_rows(m)
    nrows, ncols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            aic = rows[i][c]
            for j in range(c + 1, ncols):
                rows[i][j] = (rows[i][j] * pivot - aic * rows[r][j]) // prev
            rows[i][c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def solve_consistent(m: QMatrix, v) -> tuple[Fraction, ...] | None:
    """One exact solution of m x = v (free coordinates 0), or None."""
    nrows, ncols = m.rows, m.cols
    if len(v) != nrows:
        raise ShapeError("right-hand side length does not match row count")
    a = [list(m.row(i)) + [Fraction(v[i])] for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pivot = a[r][c]
        for i in range(r + 1, nrows):
            factor = a[i][c] / pivot
            if factor:
                for j in range(c, ncols + 1):
                    a[i][j] -= factor * a[r][j]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for pr, pc in reversed(pivots):
        acc = a[pr][ncols] - sum(
            (a[pr][j] * x[j] for j in range(pc + 1, ncols)), Fraction(0)
        )
        x[pc] = acc / a[pr][pc]
    return tuple(x)


def det_int_rows(rows) -> int:
    """Determinant of a square integer matrix given as nested iterables."""
    a = [list(r) for r in rows]
    if any(len(r) != len(a) for r in a):
        raise ShapeError("determinant of a non-square matrix")
    return _bareiss_det(a)


def _reference_lorentzian(d) -> CheckResult:
    n = d.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                dd = det_int_rows(
                    [[d.pair(a, b) for b in (i, j, k)] for a in (i, j, k)]
                )
                if dd != 0:
                    if dd < 0:
                        return CheckResult("lorentzian", True)
                    return CheckResult(
                        "lorentzian", False, f"triple ({i},{j},{k}) has det {dd} > 0"
                    )
    return CheckResult("lorentzian", False, "no nondegenerate side triple")


def reference_verify(d):
    """(checks, weyl_solution, weyl_square) of ``verify_realization``, the slow way."""
    n = d.n
    gram = assemble_gram(d)
    gram_rank = rank(gram)
    checks = [
        CheckResult("rank", gram_rank == 3, f"Gram rank is {gram_rank}, need 3"),
        _reference_lorentzian(d),
    ]
    bad_adj = [
        (i, i % n + 1, d.pair(i, i % n + 1))
        for i in range(1, n + 1)
        if not -2 <= d.pair(i, i % n + 1) <= 0
    ]
    checks.append(CheckResult(
        "adjacent-pairings",
        not bad_adj,
        f"adjacent pairings outside [-2, 0]: {bad_adj}" if bad_adj else "",
    ))
    bad_sign = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if d.pair(i, j) > 0
    ]
    checks.append(CheckResult(
        "nonpositive-pairings",
        not bad_sign,
        f"positive pairings at {bad_sign}" if bad_sign else "",
    ))
    bad_div = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and not divisibility_ok(d.lam[i - 1], d.lam[j - 1], d.pair(i, j))
    ]
    checks.append(CheckResult(
        "divisibility",
        not bad_div,
        f"divisibility fails for ordered pairs {bad_div}" if bad_div else "",
    ))
    g = gcd(*d.lam)
    checks.append(
        CheckResult("coprime-lambda", g == 1, f"gcd(lambda) = {g}" if g != 1 else "")
    )
    solution = solve_consistent(gram, [-l for l in d.lam])
    square = None
    if solution is None:
        checks.append(
            CheckResult("weyl-vector", False, "no rho with (rho, delta_i) = -lambda_i")
        )
    else:
        square = -sum((Fraction(l) * x for l, x in zip(d.lam, solution)), Fraction(0))
        checks.append(CheckResult("weyl-vector", True))
    return tuple(checks), solution, square


def reference_symmetry_group(d) -> SymmetryGroup:
    """``symmetry_group`` from the ``apply_move`` stabilizer."""
    stab = [m for m in all_moves(d.n) if apply_move(d, m) == d]
    order = len(stab)
    rotations = sorted(m.shift for m in stab if not m.reflected and m.shift)
    reflections = sorted(m.shift for m in stab if m.reflected)
    gens = []
    if rotations:
        gens.append(DihedralMove(rotations[0], False))
    if reflections:
        gens.append(DihedralMove(reflections[0], True))
    if order == 1:
        kind, degree = "trivial", 1
    elif not reflections:
        kind, degree = "cyclic", order
    else:
        kind, degree = "dihedral", order // 2
    return SymmetryGroup(order, kind, degree, tuple(gens))


def reference_canonical_form(p: PackedDatum) -> PackedDatum:
    """Orbit minimum over the ``apply_move`` images of p."""
    d = p.to_polygon()
    images = (PackedDatum.from_polygon(apply_move(d, m)) for m in all_moves(p.n))
    return min(images, key=lambda q: q.body)
