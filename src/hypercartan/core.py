"""Domain model for geometric realizations of rank-3 hyperbolic GCMs.

The objects here describe a labelled polygon on the hyperbolic plane
through pure combinatorial data: the pairwise products of its norm-2
side vectors and the positive twisting coefficients attached to them.
Everything is an immutable value, and all arithmetic is exact on Python
integers.  The Gram determinant and adjugate of a 3-window of sides are
closed forms: the search glues chains with them and verification tests
side triples with them.  The rank and the Weyl vector of a whole
polygon come from one fraction-free elimination, with ``Fraction`` only
in its back-substitution and in the Weyl square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, Sequence


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


@dataclass(frozen=True)
class PolygonDatum:
    """Closed n-gon data: side pairings (delta_i, delta_j) and lambdas.

    ``pairings`` holds the strict upper triangle in packed order; every
    diagonal value (delta_i, delta_i) is 2 by convention and not stored.
    """

    n: int
    pairings: tuple[int, ...]
    lam: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 3:
            raise InvalidRealizationError("a polygon needs at least 3 sides")
        if len(self.pairings) != pair_count(self.n):
            raise InvalidRealizationError("wrong number of pairings")
        if len(self.lam) != self.n:
            raise InvalidRealizationError("wrong number of lambdas")
        if any(l < 1 for l in self.lam):
            raise InvalidRealizationError("lambdas must be positive")

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Integer Gram matrix ((delta_i, delta_j)), 0-based rows, diagonal 2."""
        return _gram(self.n, self.pairings)

    def adjacent_pairs(self) -> tuple[int, ...]:
        """Cyclic-adjacent pairings (delta_1,delta_2), ..., (delta_n,delta_1)."""
        g = self.gram
        n = self.n
        return tuple(g[i][(i + 1) % n] for i in range(n))


@dataclass(frozen=True)
class CartanMatrix:
    """Generalized Cartan matrix A with its diagonal symmetrizer 1/lambda_i^2."""

    entries: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[Fraction, ...]


@dataclass(frozen=True)
class SymmetrizedCartan:
    """Symmetric even matrix B with b_ij = lambda_i lambda_j (delta_i, delta_j)."""

    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeometricRealizationTable:
    """The (1 + n//2) x n tabular encoding: lambda row, then cyclic pairing rows."""

    rows: tuple[tuple[int, ...], ...]


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


@dataclass(frozen=True)
class SymmetryGroup:
    order: int
    kind: str  # "trivial" | "cyclic" | "dihedral"
    degree: int  # cyclic(k) has order k, dihedral(k) has order 2k
    generators: tuple[DihedralMove, ...]


@dataclass(frozen=True)
class RealizationFlags:
    kind: str  # "elliptic" | "parabolic"
    compact: bool
    untwisted: bool


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RealizationReport:
    datum: PolygonDatum
    checks: tuple[CheckResult, ...]
    weyl_solution: tuple[Fraction, ...] | None
    weyl_square: Fraction | None

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def all_moves(n: int) -> tuple[DihedralMove, ...]:
    """The 2n dihedral relabellings of an n-gon."""
    return tuple(
        DihedralMove(t, refl) for refl in (False, True) for t in range(n)
    )


@lru_cache(maxsize=None)
def dihedral_relabellers(n: int) -> tuple[Callable[[tuple], tuple], ...]:
    """Index permutations of the 2n dihedral moves, in ``all_moves`` order.

    Each maps a packed body (the pairings in packed order, then the
    lambdas) to the body of the polygon with side i relabelled from side
    ``move.source_index(n, i)``.
    """
    k = pair_count(n)
    getters = []
    for move in all_moves(n):
        src = [move.source_index(n, i) for i in range(1, n + 1)]
        pairs = [
            pack_index(n, *sorted((src[i], src[j])))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        getters.append(itemgetter(*pairs, *(k + s - 1 for s in src)))
    return tuple(getters)


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


def divisibility_ok(lam_i: int, lam_j: int, g_ij: int) -> bool:
    """Twisting condition for the ordered pair (i, j): lambda_i | lambda_j * g_ij."""
    return (lam_j * g_ij) % lam_i == 0


def _divisibility_failures(d: PolygonDatum) -> list[tuple[int, int]]:
    """Ordered pairs (j, k), 1-based, where lambda_j does not divide lambda_k g_jk."""
    lam = d.lam
    return [
        (j + 1, k + 1)
        for j, (lj, row) in enumerate(zip(lam, d.gram))
        for k, (lk, g) in enumerate(zip(lam, row))
        if j != k and not divisibility_ok(lj, lk, g)
    ]


def cartan_matrix(d: PolygonDatum) -> CartanMatrix:
    """Twisted generalized Cartan matrix a_jk = lambda_k (delta_j, delta_k) / lambda_j."""
    # One stored value per unordered pair and lambda >= 1: a_jk = 0 iff a_kj = 0.
    lam = d.lam
    entries = []
    for lj, row in zip(lam, d.gram):
        out = []
        for lk, g in zip(lam, row):
            a, rem = divmod(lk * g, lj)
            if rem:
                raise InvalidRealizationError(
                    f"divisibility fails for ordered pairs {_divisibility_failures(d)}"
                )
            out.append(a)
        entries.append(tuple(out))
    return CartanMatrix(tuple(entries), tuple(Fraction(1, l * l) for l in lam))


def symmetrized_cartan(d: PolygonDatum) -> SymmetrizedCartan:
    """Symmetric matrix b_jk = lambda_j lambda_k (delta_j, delta_k)."""
    lam = d.lam
    entries = tuple(
        tuple(lj * lk * g for lk, g in zip(lam, row))
        for lj, row in zip(lam, d.gram)
    )
    return SymmetrizedCartan(entries)


def polygon_table(d: PolygonDatum) -> GeometricRealizationTable:
    """Encode a polygon as its realization table.

    Row 1 lists the lambdas; row i+1, column j holds -(delta_j, delta_{j+i})
    with the second index cyclic.  For even n the last row runs through the
    full cycle, so each antipodal pairing appears twice.
    """
    n = d.n
    g = d.gram
    rows: list[tuple[int, ...]] = [d.lam]
    for dist in range(1, n // 2 + 1):
        rows.append(tuple(-g[j][(j + dist) % n] for j in range(n)))
    return GeometricRealizationTable(tuple(rows))


def table_to_datum(t: GeometricRealizationTable) -> PolygonDatum:
    """Decode a realization table; inverse of polygon_table."""
    if len(t.rows) < 2:
        raise TableDecodeError("table needs a lambda row and at least one pairing row")
    n = len(t.rows[0])
    if n < 3:
        raise TableDecodeError("a polygon needs at least 3 sides")
    if any(len(row) != n for row in t.rows):
        raise TableDecodeError("ragged table rows")
    if len(t.rows) != 1 + n // 2:
        raise TableDecodeError(
            f"expected {1 + n // 2} rows for an {n}-gon, got {len(t.rows)}"
        )
    lam = t.rows[0]
    if any(l < 1 for l in lam):
        raise TableDecodeError("lambda row must be positive")
    pairings = [0] * pair_count(n)
    for dist in range(1, n // 2 + 1):
        for j in range(1, n + 1):
            value = t.rows[dist][j - 1]
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


def _weyl_system(
    g: Sequence[Sequence[int]], lam: Sequence[int]
) -> tuple[int, tuple[Fraction, ...] | None]:
    """Rank of the Gram g and one solution x of g x = -lam, or None.

    One fraction-free (Bareiss) pass over the integer matrix [g | -lam]:
    every entry stays an integer minor, so each division is exact.  An
    entry is nonzero exactly where Gaussian elimination over Q has one,
    so the pivots (column by column, the first nonzero row at or below the
    current one) and the back-substituted solution, free coordinates 0,
    are those of plain Gaussian elimination.  The rank counts the pivots;
    the system is consistent when the last column vanishes below them.
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
        return rank, None
    x = [Fraction(0)] * n
    for r in range(rank - 1, -1, -1):
        row, c = a[r], pivot_cols[r]
        acc = row[n] - sum((row[j] * x[j] for j in pivot_cols[r + 1 :]), Fraction(0))
        x[c] = acc / row[c]
    return rank, tuple(x)


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
    gram_rank, solution = _weyl_system(g, d.lam)
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

    weyl_square: Fraction | None = None
    if solution is None:
        checks.append(
            CheckResult(
                "weyl-vector", False, "no rho with (rho, delta_i) = -lambda_i"
            )
        )
    else:
        weyl_square = -sum(
            (l * x for l, x in zip(d.lam, solution) if x), Fraction(0)
        )
        checks.append(CheckResult("weyl-vector", True))

    return RealizationReport(d, tuple(checks), solution, weyl_square)


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


def symmetry_group(d: PolygonDatum) -> SymmetryGroup:
    """Stabilizer of the decorated cyclic sequence inside the dihedral group."""
    n = d.n
    body = d.pairings + d.lam
    stab = [
        m
        for m, relabel in zip(all_moves(n), dihedral_relabellers(n))
        if relabel(body) == body
    ]
    order = len(stab)
    rotations = sorted(m.shift for m in stab if not m.reflected and m.shift)
    reflections = sorted((m.shift for m in stab if m.reflected))
    gens: list[DihedralMove] = []
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
