"""Domain model for geometric realizations of rank-3 hyperbolic GCMs.

The objects here describe a labelled polygon on the hyperbolic plane
through pure combinatorial data: the pairwise products of its norm-2
side vectors and the positive twisting coefficients attached to them.
Every value type is a ``NamedTuple``, and all arithmetic is exact on
Python integers.  ``verify_realization`` decorates a polygon in one pass:
it reads the Gram row-major from the packed pairings followed by a 2 (one
cached index layout per n) and a twisted polygon's lambda-Gram rows once,
for the checks and both Cartan matrices (an untwisted polygon's are its
Gram).  Polygons that differ by a rotation or reflection of their side
labels are one solution; ``canonical_key`` names the class.
The Gram determinant and adjugate of a 3-window of sides are closed
forms: the search glues chains with them, and verification decides a
polygon's rank and Weyl vector from its first nondegenerate side triple.
With D that triple's det and A its adjugate, the Gram has rank 3 exactly
when its Schur complement vanishes, D g_mp = (A u_m) . u_p for the
triple's columns u_m; then rho exists exactly when the triple's solution
fits every side, and (rho, rho) = lam_T . A lam_T / D.  A side m of the
triple has u_m a column of the triple's Gram, so A u_m = D e_m and its
Schur row and Weyl equation hold identically: only the pairs and sides
outside the triple are tested.  Only data with no
nondegenerate triple or a failed Schur test (rank above 3) reach a
fraction-free elimination, for the exact rank and Weyl vector.  Its last
pivot D is a minor of full rank, so by Cramer's rule D times the
solution is integral: the back-substitution and the Weyl square run on
integers, and each result becomes one ``Fraction`` over D at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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


@lru_cache(maxsize=None)
def _gram_layout(n: int) -> Callable[[tuple], tuple]:
    """Read an n-gon's Gram, row-major, from its packed pairings followed by 2."""
    k = pair_count(n)
    return itemgetter(*(
        k if i == j else pack_index(n, min(i, j) + 1, max(i, j) + 1)
        for i in range(n)
        for j in range(n)
    ))


def _gram(n: int, pairings: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # Built once per call and not kept: ``verify_realization`` reads it for
    # the checks and the Cartan data of one polygon in a single pass.
    flat = _gram_layout(n)(pairings + (2,))
    return tuple([flat[i : i + n] for i in range(0, n * n, n)])


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
        return _adjacent_layout(self.n)(self.pairings)


@lru_cache(maxsize=None)
def _adjacent_layout(n: int) -> Callable[[tuple], tuple]:
    """Read pairs (1,2), ..., (n-1,n), (1,n) from an n-gon's packed pairings."""
    return itemgetter(*(pack_index(n, i, i + 1) for i in range(1, n)), pack_index(n, 1, n))


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
        if min(lam) < 1:
            raise InvalidRealizationError("lambdas must be positive")
        return tuple.__new__(cls, (n, pairings, lam))

    @classmethod
    def _make(cls, iterable) -> PolygonDatum:
        # ``_replace`` builds through ``_make``: validate there too.
        return cls(*iterable)


class RealizationFlags(NamedTuple):
    kind: str | None  # "elliptic" | "parabolic"; None on data not valid with r <= 0
    compact: bool
    untwisted: bool


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class RealizationReport(NamedTuple):
    """Checks and Weyl square of polygon data, and its decoration when valid.

    ``verify_realization`` always sets ``flags``; their kind, both Cartan matrices
    and the symmetry order are set exactly when every check passes and r <= 0.
    """

    checks: tuple[CheckResult, ...]
    weyl_square: Fraction | None
    flags: RealizationFlags | None = None
    cartan: tuple[tuple[int, ...], ...] | None = None
    symcartan: tuple[tuple[int, ...], ...] | None = None
    sym_order: int | None = None

    @property
    def valid(self) -> bool:
        return all([c.passed for c in self.checks])

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple([c for c in self.checks if not c.passed])


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
    pos = [[0] * n for _ in range(n)]  # packed position of the pair {i, j}
    for p, (i, j) in enumerate(combinations(range(n), 2)):
        pos[i][j] = pos[j][i] = p
    sources = [[(i + t) % n for i in range(n)] for t in range(n)]
    sources += [[(t - 1 - i) % n for i in range(n)] for t in range(n)]
    return tuple(
        itemgetter(
            *(pos[src[i]][sj] for i in range(n) for sj in src[i + 1 :]),
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


def _products(g, lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...] | None:
    """Rows lambda_k (delta_j, delta_k) of the Gram g, 0-based; None when every lambda is 1."""
    if max(lam) == 1:
        return None
    # A list first: tuple(map(...)) resizes its tuple, and such rows piled up
    # in CPython's tuple free lists (0.6 MB of peak memory on 2,400 blocks).
    return tuple([tuple([*map(mul, lam, row)]) for row in g])


def _divisibility_failures(lam: tuple[int, ...], prods) -> list[tuple[int, int]]:
    """Ordered pairs (j, k), 1-based, where lambda_j does not divide lambda_k g_jk."""
    # ``prods`` is ``_products(g, lam)``.  The diagonal lambda_j * 2 and rows
    # with lambda_j = 1 pass, and a row passes whole if gcd(lambda_j, row) = lambda_j.
    if prods is None:
        return []
    return [
        (j + 1, k + 1)
        for j, (lj, row) in enumerate(zip(lam, prods))
        if gcd(lj, *row) != lj
        for k, v in enumerate(row)
        if v % lj
    ]


def _cartan(g, lam, prods) -> tuple[tuple[int, ...], ...]:
    # Rows lambda_k g_jk / lambda_j of data that pass the divisibility check;
    # an untwisted polygon's is its Gram.
    if prods is None:
        return g
    return tuple([
        row if lj == 1 else tuple([v // lj for v in row]) for lj, row in zip(lam, prods)
    ])


def _symcartan(g, lam, prods) -> tuple[tuple[int, ...], ...]:
    # Rows lambda_j lambda_k g_jk; an untwisted polygon's is its Gram.
    if prods is None:
        return g
    return tuple([
        row if lj == 1 else tuple([lj * v for v in row]) for lj, row in zip(lam, prods)
    ])


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
# Every table entry is below this (the catalog's largest is 50): a rank above 3
# sends the data to the elimination, whose integer minors grow with the
# entries' digits: about 1 s for 64 sides of 18 digits, 5 s at 50.
MAX_TABLE_ENTRY = 10**18


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
    if set(map(len, table)) != {n}:
        raise TableDecodeError("ragged table rows")
    if len(table) != 1 + n // 2:
        raise TableDecodeError(
            f"expected {1 + n // 2} rows for an {n}-gon, got {len(table)}"
        )
    if max(map(max, table)) >= MAX_TABLE_ENTRY:
        raise TableDecodeError("table entries must be below 10^18")
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
    # The shape and lambda checks of ``PolygonDatum`` have passed above.
    pairings = _table_layout(n)([-v for row in rest for v in row])
    return tuple.__new__(PolygonDatum, (n, pairings, lam))


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


def _first_window(g: Sequence[Sequence[int]]) -> tuple[int, int, int, int] | None:
    """The first side triple (i, j, k), 0-based, with a nonzero Gram det, and that det."""
    n = len(g)
    for i in range(n):
        gi = g[i]
        for j in range(i + 1, n):
            a, gj = -gi[j], g[j]
            for k in range(j + 1, n):
                dd = _window_det(a, -gi[k], -gj[k])
                if dd:
                    return i, j, k, dd
    return None


def _window_weyl(
    g: Sequence[Sequence[int]], lam: Sequence[int], window: tuple[int, int, int, int]
) -> tuple[int, Fraction | None] | None:
    """(3, (rho, rho) or None when no rho exists), or None when g has rank > 3.

    Let D be the window's det, A its adjugate, u_m = (g_mi, g_mj, g_mk) the
    window column of side m, and lam_T = (lam_i, lam_j, lam_k).  The window
    has rank 3, so g has rank 3 exactly when its Schur complement vanishes:
    D g_mp = (A u_m) . u_p for all m <= p.  Then the window's columns span
    those of g, so rho exists exactly when u_m . A lam_T = D lam_m for every
    side m, and (rho, rho) = lam_T . A lam_T / D.  Every solution gives that
    square, since a kernel vector of g pairs to 0 with lam.

    For a side m of the window, u_m is a column of the window's Gram, so
    A u_m = D e_m: its Schur row (A u_m) . u_p = D g_mp and its Weyl
    equation u_m . A lam_T = (A u_m) . lam_T = D lam_m hold identically
    (A is symmetric, so a pair with p in the window holds too).  Only the
    pairs and the sides outside {i, j, k} are tested.
    """
    i, j, k, det = window
    gi, gj, gk = g[i], g[j], g[k]
    a11, a12, a13, a22, a23, a33 = _window_adjugate(-gi[j], -gi[k], -gj[k])
    off = [m for m in range(len(g)) if m != i and m != j and m != k]
    cols = [(gi[m], gj[m], gk[m]) for m in off]
    for s, (u1, u2, u3) in enumerate(cols):
        c1 = a11 * u1 + a12 * u2 + a13 * u3
        c2 = a12 * u1 + a22 * u2 + a23 * u3
        c3 = a13 * u1 + a23 * u2 + a33 * u3
        gm = g[off[s]]
        for p, (x, y, z) in zip(off[s:], cols[s:]):  # symmetric: p >= m
            if det * gm[p] != c1 * x + c2 * y + c3 * z:
                return None
    li, lj, lk = lam[i], lam[j], lam[k]
    w1 = a11 * li + a12 * lj + a13 * lk
    w2 = a12 * li + a22 * lj + a23 * lk
    w3 = a13 * li + a23 * lj + a33 * lk
    for m, (x, y, z) in zip(off, cols):
        if det * lam[m] != w1 * x + w2 * y + w3 * z:
            return 3, None
    return 3, Fraction(li * w1 + lj * w2 + lk * w3, det)


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


_PASSED: dict[str, CheckResult] = {}


def check_result(name: str, failure: str = "") -> CheckResult:
    """A failed check with detail ``failure`` if it is non-empty, else a pass.

    A passed check carries no detail, and is one shared value per name.
    """
    if failure:
        return CheckResult(name, False, failure)
    return _PASSED.get(name) or _PASSED.setdefault(name, CheckResult(name, True))


# The checks of ``verify_realization``, in report order, and the one tuple it
# reports when all of them pass.
_REALIZATION_CHECKS = (
    "rank", "lorentzian", "adjacent-pairings", "nonpositive-pairings",
    "divisibility", "coprime-lambda", "weyl-vector",
)
_ALL_PASSED = tuple(map(check_result, _REALIZATION_CHECKS))


def verify_realization(d: PolygonDatum) -> RealizationReport:
    """Run every structural check on polygon data, reporting all failures.

    A valid datum has: Gram of rank 3 spanning a Lorentzian block,
    cyclic-adjacent pairings in {0, -1, -2}, all pairings <= 0, the
    twisting divisibility for every ordered pair, coprime lambdas, and a
    vector rho with (rho, delta_i) = -lambda_i for every side.  Together
    with the lambda row this is exactly the rank-3 test on the stacked
    (n+1) x n matrix.  The first nondegenerate side triple decides the
    rank and rho; the elimination runs only when there is none or the
    Gram has rank above 3.  When every check passes, the report holds one
    shared tuple of passed checks.

    This is the one decoration pass: the Gram, the adjacent pairs and the
    lambda-Gram rows of a twisted polygon are built once; the rows serve
    the divisibility check and both Cartan matrices.
    """
    n, g, lam = d.n, _gram(d.n, d.pairings), d.lam
    window = _first_window(g)
    solved = None if window is None else _window_weyl(g, lam, window)
    if solved is None:
        gram_rank, y, den = _weyl_numerators(g, lam)
        solved = gram_rank, None if y is None else Fraction(-sum(map(mul, lam, y)), den)
    gram_rank, weyl_square = solved
    if window is None:
        bad_window = "no nondegenerate side triple"
    else:
        i, j, k, dd = window
        bad_window = f"triple ({i + 1},{j + 1},{k + 1}) has det {dd} > 0" if dd > 0 else ""
    adjacent = d.adjacent_pairs()
    bad_adj = bad_sign = ""
    if min(adjacent) < -2 or max(adjacent) > 0:
        bad = [
            (i + 1, (i + 1) % n + 1, p) for i, p in enumerate(adjacent) if not -2 <= p <= 0
        ]
        bad_adj = f"adjacent pairings outside [-2, 0]: {bad}"
    if max(d.pairings) > 0:
        bad = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if g[i][j] > 0]
        bad_sign = f"positive pairings at {bad}"
    prods = _products(g, lam)
    bad_div = _divisibility_failures(lam, prods)
    gl = gcd(*lam)
    failures = (
        f"Gram rank is {gram_rank}, need 3" if gram_rank != 3 else "",
        bad_window,
        bad_adj,
        bad_sign,
        f"divisibility fails for ordered pairs {bad_div}" if bad_div else "",
        f"gcd(lambda) = {gl}" if gl != 1 else "",
        "" if weyl_square is not None else "no rho with (rho, delta_i) = -lambda_i",
    )
    if any(failures):
        checks = tuple(map(check_result, _REALIZATION_CHECKS, failures))
        return RealizationReport(checks, weyl_square, _flags(adjacent, lam, None))
    flags = _flags(adjacent, lam, weyl_square)
    if flags.kind is None:
        return RealizationReport(_ALL_PASSED, weyl_square, flags)
    return RealizationReport(
        _ALL_PASSED, weyl_square, flags,
        _cartan(g, lam, prods), _symcartan(g, lam, prods), symmetry_group(d),
    )


def _flags(adjacent, lam, r: Fraction | None) -> RealizationFlags:
    # Kind: elliptic for r < 0, parabolic for r = 0, else None (a Fraction's
    # numerator carries its sign).  Compact: no adjacent pairing is -2 (no
    # vertex at infinity).  Untwisted: lambda = 1, as lambdas are positive.
    kind = None
    if r is not None and r.numerator <= 0:
        kind = "elliptic" if r.numerator < 0 else "parabolic"
    return RealizationFlags(kind, -2 not in adjacent, max(lam) == 1)


def symmetry_group(d: PolygonDatum) -> int:
    """Order of the stabilizer of the decorated cyclic sequence in the dihedral group."""
    # The fixing rotations are the multiples of the least one, t0, which
    # divides n; the fixing reflections, if any, are a coset of them, so one
    # of the first t0 reflections fixes the body when any does.
    n, body = d.n, d.pairings + d.lam
    relabel = dihedral_relabellers(n)
    t0 = next((t for t in range(1, n) if n % t == 0 and relabel[t](body) == body), n)
    mirrored = any(relabel[t](body) == body for t in range(n, n + t0))
    return (1 + mirrored) * n // t0
