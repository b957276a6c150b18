"""Domain model for geometric realizations of rank-3 hyperbolic GCMs.

The objects here describe a labelled polygon on the hyperbolic plane
through pure combinatorial data: the pairwise products of its norm-2
side vectors and the positive twisting coefficients attached to them.
Every value type is a ``NamedTuple``, and all arithmetic is exact on
Python integers.  Polygons that differ by a rotation or reflection of
their side labels are one solution; ``canonical_key`` names the class.
The Gram determinant and adjugate of a 3-window of sides are closed
forms: the search glues chains with them and verification tests
side triples with them.  The rank and the Weyl vector of a whole
polygon come from one fraction-free elimination.  Its last pivot D is a
minor of full rank, so by Cramer's rule D times the solution is
integral: the back-substitution and the Weyl square run on integers, and
each result becomes one ``Fraction`` over D at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Sequence


class InvalidRealizationError(ValueError):
    """Polygon data violating a structural requirement of a realization."""


class TableDecodeError(ValueError):
    """A realization table that cannot be decoded into polygon data."""


def pack_index(n: int, i: int, j: int) -> int:
    """0-based position of the unordered pair (i, j), 1 <= i < j <= n.

    Pairs are stored row-major over the strict upper triangle:
    (1,2), (1,3), ..., (1,n), (2,3), ...
    """
    if not 1 <= i < j <= n:
        raise IndexError(f"bad pair ({i}, {j}) for n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i) - 1


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=64)
def _gram(n: int, pairings: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # Cached for the few data in use at a time: verification and the Cartan
    # data of one polygon all read its Gram, while a caller holding many
    # polygons (``check`` on a large file) keeps no Gram alive.
    g = [[2] * n for _ in range(n)]
    values = iter(pairings)
    for i in range(n):
        row = g[i]
        for j in range(i + 1, n):
            row[j] = g[j][i] = next(values)
    return tuple(map(tuple, g))


class _PolygonFields(NamedTuple):
    n: int
    pairings: tuple[int, ...]
    lam: tuple[int, ...]

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix ((delta_i, delta_j)), 0-based rows, diagonal 2."""
        return _gram(self.n, self.pairings)

    def adjacent_pairs(self) -> tuple[int, ...]:
        """Cyclic-adjacent pairings (delta_1,delta_2), ..., (delta_n,delta_1)."""
        g = self.gram
        n = self.n
        return tuple(g[i][(i + 1) % n] for i in range(n))


class PolygonDatum(_PolygonFields):
    """Closed n-gon data: side pairings (delta_i, delta_j) and lambdas.

    ``pairings`` holds the strict upper triangle in packed order; every
    diagonal value (delta_i, delta_i) is 2 by convention and not stored.
    """

    __slots__ = ()

    def __new__(cls, n: int, pairings: tuple[int, ...], lam: tuple[int, ...]):
        if n < 3:
            raise InvalidRealizationError("a polygon needs at least 3 sides")
        if len(pairings) != pair_count(n):
            raise InvalidRealizationError("wrong number of pairings")
        if len(lam) != n:
            raise InvalidRealizationError("wrong number of lambdas")
        if any(l < 1 for l in lam):
            raise InvalidRealizationError("lambdas must be positive")
        return tuple.__new__(cls, (n, pairings, lam))

    @classmethod
    def _make(cls, iterable) -> PolygonDatum:
        # ``_replace`` builds through ``_make``: validate there too.
        return cls(*iterable)


class RealizationFlags(NamedTuple):
    kind: str  # "elliptic" | "parabolic"
    compact: bool
    untwisted: bool


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class RealizationReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    weyl_square: Fraction | None

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


@lru_cache(maxsize=None)
def dihedral_relabellers(n: int) -> tuple[Callable[[tuple], tuple], ...]:
    """Index permutations of the 2n dihedral relabellings of an n-gon.

    The n rotations come first, then the n reflections.  With 0-based
    sides, rotation t relabels side i from side (i + t) mod n and
    reflection t from side (t - 1 - i) mod n.  Each permutation maps a
    packed body (the pairings in packed order, then the lambdas) to the
    body of the relabelled polygon.
    """
    k = pair_count(n)
    sources = [[(i + t) % n for i in range(n)] for t in range(n)]
    sources += [[(t - 1 - i) % n for i in range(n)] for t in range(n)]
    return tuple(
        itemgetter(
            *(
                pack_index(n, *sorted((src[i] + 1, src[j] + 1)))
                for i in range(n)
                for j in range(i + 1, n)
            ),
            *(k + s for s in src),
        )
        for src in sources
    )


def canonical_key(d: PolygonDatum) -> tuple[int, tuple[int, ...]]:
    """The dihedral class of a polygon, as (n, body).

    A body packs -(delta_j, delta_k) for j < k in packed order, then the
    lambdas.  The key's body is the lexicographically smallest over the
    2n relabellings, so two polygons are one solution up to rotation and
    reflection exactly when their keys are equal.  Keys sort the catalog
    within a radius, and the body decodes to the relabelling it prints.
    """
    body = tuple([-p for p in d.pairings]) + d.lam
    return d.n, min(relabel(body) for relabel in dihedral_relabellers(d.n))


# ---------------------------------------------------------------------------
# 3-window arithmetic
#
# A window has pairings (delta_1,delta_2) = -a, (delta_1,delta_3) = -b,
# (delta_2,delta_3) = -c.  Its Gram determinant and the adjugate are small
# closed forms, so the Weyl square r = lam^T adj lam / det never touches a
# matrix routine.
# ---------------------------------------------------------------------------


def _window_det(a: int, b: int, c: int) -> int:
    return 8 - 2 * (a * a + b * b + c * c) - 2 * a * b * c


def _window_adjugate(a: int, b: int, c: int) -> tuple[int, int, int, int, int, int]:
    """(adj11, adj12, adj13, adj22, adj23, adj33) of the window Gram."""
    return (4 - c * c, 2 * a + b * c, a * c + 2 * b, 4 - b * b, 2 * c + a * b, 4 - a * a)


def _adj_mul(a: int, b: int, c: int, v: tuple[int, ...]) -> tuple[int, int, int]:
    """adj(g) v for the window Gram g."""
    a11, a12, a13, a22, a23, a33 = _window_adjugate(a, b, c)
    v1, v2, v3 = v
    return (
        a11 * v1 + a12 * v2 + a13 * v3,
        a12 * v1 + a22 * v2 + a23 * v3,
        a13 * v1 + a23 * v2 + a33 * v3,
    )


def _divisibility_failures(d: PolygonDatum) -> list[tuple[int, int]]:
    """Ordered pairs (j, k), 1-based, where lambda_j does not divide lambda_k g_jk."""
    # The diagonal lambda_j * 2 and every row with lambda_j = 1 always pass.
    lam = d.lam
    return [
        (j + 1, k + 1)
        for j, (lj, row) in enumerate(zip(lam, d.gram))
        if lj != 1
        for k, v in enumerate(map(mul, lam, row))
        if v % lj
    ]


def cartan_matrix(d: PolygonDatum) -> tuple[tuple[int, ...], ...]:
    """Twisted generalized Cartan matrix a_jk = lambda_k (delta_j, delta_k) / lambda_j."""
    # One stored value per unordered pair and lambda >= 1: a_jk = 0 iff a_kj = 0.
    lam = d.lam
    entries = []
    for lj, row in zip(lam, d.gram):
        products = tuple(map(mul, lam, row))
        if lj != 1:
            if any(v % lj for v in products):
                bad = _divisibility_failures(d)
                raise InvalidRealizationError(f"divisibility fails for ordered pairs {bad}")
            products = tuple([v // lj for v in products])
        entries.append(products)
    return tuple(entries)


def symmetrized_cartan(d: PolygonDatum) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix b_jk = lambda_j lambda_k (delta_j, delta_k)."""
    lam = d.lam
    return tuple(
        tuple([lj * v for v in map(mul, lam, row)]) for lj, row in zip(lam, d.gram)
    )


def polygon_table(d: PolygonDatum) -> tuple[tuple[int, ...], ...]:
    """Encode a polygon as its realization table.

    The table has 1 + n//2 rows of n integers.  Row 1 lists the lambdas;
    row i+1, column j holds -(delta_j, delta_{j+i}) with the second index
    cyclic.  For even n the last row runs through the full cycle, so each
    antipodal pairing appears twice.
    """
    n = d.n
    g = d.gram
    rows: list[tuple[int, ...]] = [d.lam]
    for dist in range(1, n // 2 + 1):
        rows.append(tuple(-g[j][(j + dist) % n] for j in range(n)))
    return tuple(rows)


# The most sides a decoded table may have (the catalog's largest has 12):
# verification scans O(n^3) side triples, for seconds on 200 degenerate sides.
MAX_TABLE_SIDES = 64


def table_to_datum(table: Sequence[tuple[int, ...]]) -> PolygonDatum:
    """Decode the rows of a realization table; inverse of polygon_table."""
    if len(table) < 2:
        raise TableDecodeError("table needs a lambda row and at least one pairing row")
    n = len(table[0])
    if n < 3:
        raise TableDecodeError("a polygon needs at least 3 sides")
    if n > MAX_TABLE_SIDES:
        raise TableDecodeError(
            f"a table has at most {MAX_TABLE_SIDES} sides, got {n}"
        )
    if any(len(row) != n for row in table):
        raise TableDecodeError("ragged table rows")
    if len(table) != 1 + n // 2:
        raise TableDecodeError(
            f"expected {1 + n // 2} rows for an {n}-gon, got {len(table)}"
        )
    lam, *rest = table
    if min(lam) < 1:
        raise TableDecodeError("lambda row must be positive")
    h = n // 2
    if min(map(min, rest)) < 0 or (n % 2 == 0 and rest[-1][:h] != rest[-1][h:]):
        # Name the first bad entry in row-major order.
        for dist, row in enumerate(rest, start=1):
            for j, value in enumerate(row, start=1):
                if value < 0:
                    raise TableDecodeError(
                        f"positive pairing -({value}) at distance {dist}, column {j}"
                    )
                if 2 * dist == n and j > h and value != row[j - h - 1]:
                    raise TableDecodeError(f"antipodal row inconsistent at column {j}")
    return PolygonDatum(n, _table_layout(n)([-v for row in rest for v in row]), lam)


@lru_cache(maxsize=None)
def _table_layout(n: int) -> Callable[[list], tuple]:
    """Read the packed pairings from an n-gon's pairing rows, flattened.

    Pair (i, j), 0-based, sits at distance j - i in column i, or at
    distance n - j + i in column j; the antipodal row of an even n-gon
    lists each pair twice, and the first (column i) is read.
    """
    return itemgetter(*(
        (j - i - 1) * n + i if 2 * (j - i) <= n else (n - j + i - 1) * n + j
        for i in range(n)
        for j in range(i + 1, n)
    ))


def _lorentzian_check(g: Sequence[Sequence[int]]) -> CheckResult:
    """Some independent side triple must span a Lorentzian (det < 0) block."""
    n = len(g)
    for i in range(n):
        gi = g[i]
        for j in range(i + 1, n):
            a, gj = -gi[j], g[j]
            for k in range(j + 1, n):
                dd = _window_det(a, -gi[k], -gj[k])
                if dd != 0:
                    if dd < 0:
                        return CheckResult("lorentzian", True)
                    return CheckResult(
                        "lorentzian",
                        False,
                        f"triple ({i + 1},{j + 1},{k + 1}) has det {dd} > 0",
                    )
    return CheckResult("lorentzian", False, "no nondegenerate side triple")


def _weyl_numerators(
    g: Sequence[Sequence[int]], lam: Sequence[int]
) -> tuple[int, list[int] | None, int]:
    """Rank of the Gram g, D x for one solution x of g x = -lam (or None), and D.

    One fraction-free (Bareiss) pass over the integer matrix [g | -lam]:
    every entry stays an integer minor, so each division is exact.  An
    entry is nonzero exactly where Gaussian elimination over Q has one,
    so the pivots (column by column, the first nonzero row at or below the
    current one) and the solution, free coordinates 0, are those of plain
    Gaussian elimination.  The rank counts the pivots; the system is
    consistent when the last column vanishes below them.  The last pivot D
    is the determinant of the pivot rows and columns, so by Cramer's rule
    y = D x is integral and back-substitution solves for y exactly on
    integers.
    """
    n = len(g)
    a = [list(row) + [-l] for row, l in zip(g, lam)]
    pivot_cols: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivot_cols)
        p = next((i for i in range(r, n) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        pivot = prow[c]
        for row in a[r + 1 :]:
            f = row[c]
            for j in range(c + 1, n + 1):
                row[j] = (row[j] * pivot - f * prow[j]) // prev
            row[c] = 0
        prev = pivot
        pivot_cols.append(c)
    rank = len(pivot_cols)
    if any(row[n] for row in a[rank:]):
        return rank, None, prev
    y = [0] * n
    for r in range(rank - 1, -1, -1):
        row, c = a[r], pivot_cols[r]
        acc = prev * row[n] - sum(row[j] * y[j] for j in pivot_cols[r + 1 :])
        y[c] = acc // row[c]
    return rank, y, prev


def _weyl_system(
    g: Sequence[Sequence[int]], lam: Sequence[int]
) -> tuple[int, tuple[Fraction, ...] | None]:
    """Rank of the Gram g and one solution x of g x = -lam, or None: each x_c
    is one ``Fraction`` y_c / D of the integral y = D x of ``_weyl_numerators``."""
    rank, y, den = _weyl_numerators(g, lam)
    return rank, None if y is None else tuple(Fraction(v, den) if v else _ZERO for v in y)


_ZERO = Fraction(0)


def verify_realization(d: PolygonDatum) -> RealizationReport:
    """Run every structural check on polygon data, reporting all failures.

    A valid datum has: Gram of rank 3 spanning a Lorentzian block,
    cyclic-adjacent pairings in {0, -1, -2}, all pairings <= 0, the
    twisting divisibility for every ordered pair, coprime lambdas, and a
    vector rho with (rho, delta_i) = -lambda_i for every side.  Together
    with the lambda row this is exactly the rank-3 test on the stacked
    (n+1) x n matrix.
    """
    n, g = d.n, d.gram
    gram_rank, y, den = _weyl_numerators(g, d.lam)
    checks = [
        CheckResult("rank", gram_rank == 3, f"Gram rank is {gram_rank}, need 3"),
        _lorentzian_check(g),
    ]

    bad_adj = [
        (i + 1, (i + 1) % n + 1, g[i][(i + 1) % n])
        for i in range(n)
        if not -2 <= g[i][(i + 1) % n] <= 0
    ]
    checks.append(
        CheckResult(
            "adjacent-pairings",
            not bad_adj,
            f"adjacent pairings outside [-2, 0]: {bad_adj}" if bad_adj else "",
        )
    )

    bad_sign = [
        (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if g[i][j] > 0
    ]
    checks.append(
        CheckResult(
            "nonpositive-pairings",
            not bad_sign,
            f"positive pairings at {bad_sign}" if bad_sign else "",
        )
    )

    bad_div = _divisibility_failures(d)
    checks.append(
        CheckResult(
            "divisibility",
            not bad_div,
            f"divisibility fails for ordered pairs {bad_div}" if bad_div else "",
        )
    )

    gl = gcd(*d.lam)
    checks.append(
        CheckResult("coprime-lambda", gl == 1, f"gcd(lambda) = {gl}" if gl != 1 else "")
    )

    weyl_square = None
    if y is None:
        checks.append(
            CheckResult(
                "weyl-vector", False, "no rho with (rho, delta_i) = -lambda_i"
            )
        )
    else:
        weyl_square = Fraction(-sum(map(mul, d.lam, y)), den)
        checks.append(CheckResult("weyl-vector", True))

    return RealizationReport(tuple(checks), weyl_square)


def classify_flags(d: PolygonDatum, r: Fraction) -> RealizationFlags:
    """Type, compactness and twisting flags of a realization with Weyl square r.

    Elliptic means r < 0, parabolic means r = 0; compact means no adjacent
    pairing equals -2 (no vertex at infinity); untwisted means lambda = 1.
    """
    if r > 0:
        raise ValueError(f"Weyl square must be <= 0, got {r}")
    kind = "elliptic" if r < 0 else "parabolic"
    compact = all(p != -2 for p in d.adjacent_pairs())
    untwisted = all(l == 1 for l in d.lam)
    return RealizationFlags(kind, compact, untwisted)


def symmetry_group(d: PolygonDatum) -> int:
    """Order of the stabilizer of the decorated cyclic sequence in the dihedral group."""
    body = d.pairings + d.lam
    return sum(relabel(body) == body for relabel in dihedral_relabellers(d.n))
