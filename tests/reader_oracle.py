"""Slow reference implementations for the integer reader path.

``rank``, ``solve_consistent`` and ``det_int_rows`` are the general
``Fraction`` routines that ``verify_realization`` used before it ran on
integers.  ``assemble_gram``, ``weyl_vector`` and ``reflect`` are the
rational matrix API ``core`` once carried.  ``DihedralMove`` names one
relabelling of the sides, ``all_moves`` lists them in the order of
``core.dihedral_relabellers``, ``apply_move`` relabels one side at a time
through ``pair``, ``dihedral_images`` lists the relabellings the package
computes by index permutation, and ``reference_relabellers`` builds those
permutations with a ``pack_index`` per pair; ``divisibility_ok`` is the
twisting condition for one ordered pair, and ``reference_cartan`` and
``reference_symcartan`` build both Cartan matrices one entry at a time.
``PackedDatum`` and ``canonical_form`` are the packed value and orbit
minimum the engine deduplicated with before ``core.canonical_key``
replaced them.  The ``reference_*`` functions rebuild the decoded table,
the verification report, the symmetry order, the canonical form and a
fixture's report the old way (a ``pack_index`` per table entry,
``assemble_gram`` and two eliminations, a determinant per side triple,
``apply_move`` images and stabilizers, a rational ``det`` and ``solve``
per fixture), so the tests can compare the fast paths against them.
``all_pairs_window_weyl`` is ``core._window_weyl`` as it was before it
left out the window's own sides: the Schur test on every pair of sides
and the Weyl equation on every side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from engine_oracle import pair
from hypercartan.core import (
    CheckResult,
    PolygonDatum,
    RealizationReport,
    TableDecodeError,
    _window_adjugate,
    dihedral_relabellers,
    pack_index,
    pair_count,
)
from hypercartan.goldens import LatticeFixture
from rational_oracle import QMatrix, ShapeError, _bareiss_det, _integer_rows, det, solve


@dataclass(frozen=True)
class PackedDatum:
    """Flat encoding: all -(delta_j, delta_k) for j < k in packed order, then lambdas."""

    n: int
    body: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.body) != pair_count(self.n) + self.n:
            raise ValueError("packed body has the wrong length")

    @classmethod
    def from_polygon(cls, d: PolygonDatum) -> "PackedDatum":
        return cls(d.n, tuple(-p for p in d.pairings) + d.lam)

    def to_polygon(self) -> PolygonDatum:
        k = pair_count(self.n)
        return PolygonDatum(
            self.n, tuple(-v for v in self.body[:k]), self.body[k:]
        )


def canonical_form(p: PackedDatum) -> PackedDatum:
    """Lexicographically smallest element of the dihedral orbit of p."""
    body = min(relabel(p.body) for relabel in dihedral_relabellers(p.n))
    return PackedDatum(p.n, body)


class NotHyperbolicError(ValueError):
    """A 3x3 Gram block that must be Lorentzian is not (det >= 0)."""


@dataclass(frozen=True)
class WeylData:
    """A Weyl vector rho in the basis of the first three sides, and r = (rho, rho)."""

    coords: tuple[Fraction, Fraction, Fraction]
    r: Fraction


def assemble_gram(d: PolygonDatum) -> QMatrix:
    """Gram matrix ((delta_i, delta_j)) of the sides, diagonal 2."""
    return QMatrix.from_rows(d.gram)


def weyl_vector(g3: QMatrix, lam3: Sequence[int]) -> WeylData:
    """Solve (rho, delta_i) = -lambda_i on a hyperbolic 3x3 Gram block.

    The coordinates are in the basis (delta_1, delta_2, delta_3) and
    r = (rho, rho) = -(lambda_1 x_1 + lambda_2 x_2 + lambda_3 x_3).
    """
    if g3.rows != 3 or g3.cols != 3:
        raise NotHyperbolicError("expected a 3x3 Gram block")
    if det(g3) >= 0:
        raise NotHyperbolicError("Gram block is not hyperbolic (det >= 0)")
    x = solve(g3, [-l for l in lam3])
    r = -sum((Fraction(l) * xi for l, xi in zip(lam3, x)), Fraction(0))
    return WeylData((x[0], x[1], x[2]), r)


def reflect(
    x: Sequence[Fraction | int], i: int, g3: QMatrix
) -> tuple[Fraction, Fraction, Fraction]:
    """Reflection in side i on coordinates in the (delta_1, delta_2, delta_3) basis.

    Since (delta_i, delta_i) = 2 this is x -> x - (delta_i, x) delta_i;
    the twisting coefficients scale away.
    """
    if i not in (1, 2, 3):
        raise IndexError("side index must be 1, 2 or 3")
    xs = tuple(Fraction(v) for v in x)
    coeff = sum((g3.entry(i - 1, j) * xs[j] for j in range(3)), Fraction(0))
    out = list(xs)
    out[i - 1] -= coeff
    return (out[0], out[1], out[2])


@dataclass(frozen=True)
class DihedralMove:
    """Side relabelling i -> sigma(i): rotate by ``shift``, mirror first if ``reflected``."""

    shift: int
    reflected: bool

    def source_index(self, n: int, i: int) -> int:
        """Old label of the side that becomes side i (1-based)."""
        if self.reflected:
            return (n - i + self.shift) % n + 1
        return (i - 1 + self.shift) % n + 1


def all_moves(n: int) -> tuple[DihedralMove, ...]:
    """The 2n dihedral relabellings of an n-gon: the rotations, then the reflections."""
    return tuple(
        DihedralMove(t, refl) for refl in (False, True) for t in range(n)
    )


def divisibility_ok(lam_i: int, lam_j: int, g_ij: int) -> bool:
    """Twisting condition for the ordered pair (i, j): lambda_i | lambda_j * g_ij."""
    return (lam_j * g_ij) % lam_i == 0


def apply_move(d: PolygonDatum, move: DihedralMove) -> PolygonDatum:
    """Relabel the sides of a polygon by a dihedral move."""
    n = d.n
    src = [move.source_index(n, i) for i in range(1, n + 1)]
    pairings = tuple(
        pair(d, src[i - 1], src[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    lam = tuple(d.lam[s - 1] for s in src)
    return PolygonDatum(n, pairings, lam)


def dihedral_images(p: PackedDatum) -> tuple[PackedDatum, ...]:
    """The 2n relabellings of p (with repeats when p is symmetric).

    Built from ``core.dihedral_relabellers``, the index permutations that
    ``canonical_key`` and ``symmetry_group`` use.
    """
    return tuple(
        PackedDatum(p.n, relabel(p.body)) for relabel in dihedral_relabellers(p.n)
    )


def reference_relabellers(n: int) -> tuple[tuple[int, ...], ...]:
    """The index tuples of ``core.dihedral_relabellers(n)``, in its order,
    one ``pack_index`` of the ``sorted`` relabelled pair per pair."""
    k = pair_count(n)
    sources = [[(i + t) % n for i in range(n)] for t in range(n)]
    sources += [[(t - 1 - i) % n for i in range(n)] for t in range(n)]
    return tuple(
        tuple(
            pack_index(n, *sorted((src[i] + 1, src[j] + 1)))
            for i in range(n)
            for j in range(i + 1, n)
        )
        + tuple(k + s for s in src)
        for src in sources
    )


def reference_table_to_datum(table) -> PolygonDatum:
    """``table_to_datum`` scanning every entry, with a ``pack_index`` per entry."""
    if len(table) < 2:
        raise TableDecodeError("table needs a lambda row and at least one pairing row")
    n = len(table[0])
    if n < 3:
        raise TableDecodeError("a polygon needs at least 3 sides")
    if any(len(row) != n for row in table):
        raise TableDecodeError("ragged table rows")
    if len(table) != 1 + n // 2:
        raise TableDecodeError(
            f"expected {1 + n // 2} rows for an {n}-gon, got {len(table)}"
        )
    if any(value >= 10**18 for row in table for value in row):
        raise TableDecodeError("table entries must be below 10^18")
    lam = table[0]
    if any(l < 1 for l in lam):
        raise TableDecodeError("lambda row must be positive")
    pairings = [0] * pair_count(n)
    for dist in range(1, n // 2 + 1):
        for j in range(1, n + 1):
            value = table[dist][j - 1]
            if value < 0:
                raise TableDecodeError(
                    f"positive pairing -({value}) at distance {dist}, column {j}"
                )
            k = (j - 1 + dist) % n + 1
            lo, hi = min(j, k), max(j, k)
            idx = pack_index(n, lo, hi)
            if 2 * dist == n and j > n // 2:
                if pairings[idx] != -value:
                    raise TableDecodeError(
                        f"antipodal row inconsistent at column {j}"
                    )
            else:
                pairings[idx] = -value
    return PolygonDatum(n, tuple(pairings), lam)


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


def all_pairs_window_weyl(g, lam, window):
    """``core._window_weyl`` testing every pair m <= p and every side m."""
    i, j, k, det = window
    gi, gj, gk = g[i], g[j], g[k]
    a11, a12, a13, a22, a23, a33 = _window_adjugate(-gi[j], -gi[k], -gj[k])
    cols = tuple(zip(gi, gj, gk))
    for m, (u1, u2, u3) in enumerate(cols):
        c1 = a11 * u1 + a12 * u2 + a13 * u3
        c2 = a12 * u1 + a22 * u2 + a23 * u3
        c3 = a13 * u1 + a23 * u2 + a33 * u3
        for v, (x, y, z) in zip(g[m][m:], cols[m:]):
            if det * v != c1 * x + c2 * y + c3 * z:
                return None
    li, lj, lk = lam[i], lam[j], lam[k]
    w1 = a11 * li + a12 * lj + a13 * lk
    w2 = a12 * li + a22 * lj + a23 * lk
    w3 = a13 * li + a23 * lj + a33 * lk
    for l, (x, y, z) in zip(lam, cols):
        if det * l != w1 * x + w2 * y + w3 * z:
            return 3, None
    return 3, Fraction(li * w1 + lj * w2 + lk * w3, det)


def _reference_lorentzian(d) -> CheckResult:
    n = d.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                dd = det_int_rows(
                    [[pair(d, a, b) for b in (i, j, k)] for a in (i, j, k)]
                )
                if dd != 0:
                    if dd < 0:
                        return CheckResult("lorentzian", True)
                    return CheckResult(
                        "lorentzian", False, f"triple ({i},{j},{k}) has det {dd} > 0"
                    )
    return CheckResult("lorentzian", False, "no nondegenerate side triple")


def reference_verify(d):
    """(checks, weyl_square) of ``verify_realization``, the slow way."""
    n = d.n
    gram = assemble_gram(d)
    gram_rank = rank(gram)
    checks = [
        CheckResult(
            "rank",
            gram_rank == 3,
            f"Gram rank is {gram_rank}, need 3" if gram_rank != 3 else "",
        ),
        _reference_lorentzian(d),
    ]
    bad_adj = [
        (i, i % n + 1, pair(d, i, i % n + 1))
        for i in range(1, n + 1)
        if not -2 <= pair(d, i, i % n + 1) <= 0
    ]
    checks.append(CheckResult(
        "adjacent-pairings",
        not bad_adj,
        f"adjacent pairings outside [-2, 0]: {bad_adj}" if bad_adj else "",
    ))
    bad_sign = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if pair(d, i, j) > 0
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
        if i != j and not divisibility_ok(d.lam[i - 1], d.lam[j - 1], pair(d, i, j))
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
    return tuple(checks), square


def reference_cartan(d) -> tuple[tuple[Fraction, ...], ...]:
    """a_jk = lambda_k (delta_j, delta_k) / lambda_j, one ``Fraction`` per entry."""
    n = d.n
    return tuple(
        tuple(
            Fraction(d.lam[k - 1] * pair(d, j, k), d.lam[j - 1])
            for k in range(1, n + 1)
        )
        for j in range(1, n + 1)
    )


def reference_symcartan(d) -> tuple[tuple[int, ...], ...]:
    """b_jk = lambda_j lambda_k (delta_j, delta_k), one product per entry."""
    n = d.n
    return tuple(
        tuple(d.lam[j - 1] * d.lam[k - 1] * pair(d, j, k) for k in range(1, n + 1))
        for j in range(1, n + 1)
    )


def stabilizer(d) -> list[DihedralMove]:
    """The dihedral moves that fix d, in ``all_moves`` order."""
    return [m for m in all_moves(d.n) if apply_move(d, m) == d]


def reference_symmetry_group(d) -> int:
    """``symmetry_group``: the order of the ``apply_move`` stabilizer."""
    return len(stabilizer(d))


def reference_canonical_form(p: PackedDatum) -> PackedDatum:
    """Orbit minimum over the ``apply_move`` images of p."""
    d = p.to_polygon()
    images = (PackedDatum.from_polygon(apply_move(d, m)) for m in all_moves(p.n))
    return min(images, key=lambda q: q.body)


def reference_verify_fixture(f: LatticeFixture) -> RealizationReport:
    """``goldens.verify_fixture`` with a rational ``det`` and ``solve``."""
    checks: list[CheckResult] = []
    n = len(f.roots)

    d = det(QMatrix.from_rows([[f.pairing(u, v) for v in f.basis] for u in f.basis]))
    checks.append(
        CheckResult(
            "lattice-determinant",
            d == f.expected_det,
            f"det {d}, expected {f.expected_det} ({f.lattice})"
            if d != f.expected_det
            else "",
        )
    )

    basis_t = QMatrix.from_rows(
        [[f.basis[j][i] for j in range(3)] for i in range(3)]
    )
    non_integral = []
    for idx, root in enumerate(f.roots, start=1):
        coords = solve(basis_t, root)
        if any(x.denominator != 1 for x in coords):
            non_integral.append((idx, coords))
    checks.append(
        CheckResult(
            "roots-in-lattice",
            not non_integral,
            f"roots outside the sublattice: {non_integral}" if non_integral else "",
        )
    )

    bad_norm = [
        (i + 1, f.pairing(root, root))
        for i, root in enumerate(f.roots)
        if f.pairing(root, root) != 2
    ]
    checks.append(
        CheckResult(
            "root-norms", not bad_norm, f"squares != 2: {bad_norm}" if bad_norm else ""
        )
    )

    gram_mismatch = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if f.pairing(f.roots[i], f.roots[j]) != f.expected_cartan[i][j]
    ]
    checks.append(
        CheckResult(
            "gram-matches-cartan",
            not gram_mismatch,
            f"pairs off: {gram_mismatch}" if gram_mismatch else "",
        )
    )

    bad_weyl = [
        (i + 1, f.pairing(f.rho, root))
        for i, root in enumerate(f.roots)
        if f.pairing(f.rho, root) != -1
    ]
    checks.append(
        CheckResult(
            "weyl-pairings",
            not bad_weyl,
            f"(rho, delta_i) != -1 at {bad_weyl}" if bad_weyl else "",
        )
    )

    rr = f.pairing(f.rho, f.rho)
    checks.append(
        CheckResult(
            "weyl-square",
            rr == f.expected_r,
            f"(rho, rho) = {rr}, expected {f.expected_r}" if rr != f.expected_r else "",
        )
    )

    order = reference_symmetry_group(f.induced_polygon())
    checks.append(
        CheckResult(
            "symmetry-order",
            order == f.expected_sym_order,
            f"order {order}, expected {f.expected_sym_order}"
            if order != f.expected_sym_order
            else "",
        )
    )

    return RealizationReport(tuple(checks), rr)
