"""Classification search for rank-3 realizations with a lattice Weyl vector.

The search runs on Python integers and works radius by radius.  A
3-window of consecutive sides has pairings -a, -b, -c and lambdas
(l1, l2, l3); its Weyl square is r = num / det, where det < 0 is the
window's Gram determinant and num = lam^T adj(g) lam.  The search first
collects every square r < 0 attained by a window within fixed bounds,
then seeds, for each radius, every window whose square is exactly r.
Both sweeps run one window scan.  It enumerates the admissible shapes
(a, c, lam) directly, from a table of the lambdas allowed next to each
lambda across an adjacent pairing.  For one shape num and det are
integer quadratics in b.  The long pairing b of a seed is bounded in
closed form from those coefficients: r <= r_max is a quadratic
inequality in b whose leading coefficient is negative, so b never
exceeds the floor of its larger root.  b steps over the multiples of
(l1/g)(l3/g), g = gcd(l1, l3), which are exactly the values that pass
the twisting divisibility, and num and det follow it by constant second
differences.  Radii are sorted by an exact integer key.

From the seeds the search repeatedly glues overlapping open chains.  The
single unknown pairing (delta_1, delta_n) comes from the integer
adjugate of one window: through the Weyl-vector equation on the chain's
first window at length 4, by composing coordinates across the shared
window at length >= 5.  An exact division is the integrality test.
Gluing stops when every chain has closed or died.

A chain is a packed tuple of its pairings, row-major over the strict
upper triangle.  The join keys of two overlapping chains are a slice and
a fixed index selection of it, the glued chain is a concatenation, and
gluing reads its pairings at fixed offsets: no pairing is looked up by
(i, j) in the chain loop.

Closed polygons are deduplicated by dihedral canonical form, re-verified
and decorated; the final catalog depends only on (lambda_max, mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import itemgetter
from typing import Callable, Iterator

from .canonical import PackedDatum, canonical_form
from .core import (
    PolygonDatum,
    _adj_mul,
    _window_det,
    cartan_matrix,
    classify_flags,
    pack_index,
    polygon_table,
    symmetrized_cartan,
    symmetry_group,
    verify_realization,
)

# Radius-collection window bounds: adjacent pairings in [-2, 0], long
# pairing in (-15, 0].  All windows of a polygon share its Weyl square, so
# the collected radii are complete under the assumption
#   (N) every solution polygon has three consecutive sides with
#       -(delta_1, delta_3) <= RADIUS_B_MAX.
# (N) is not proven here.  Its likely source is the bound on the narrow
# part of a polygon in Nikulin's method, as used by Gritsenko and Nikulin
# (arXiv alg-geom/9610022).  The tests check that every catalog polygon
# has such a window and that a larger bound changes no record at
# lambda <= 6.
ADJACENT_MAX = 2
RADIUS_B_MAX = 14

DEFAULT_MAX_SIDES = 32


class EngineError(RuntimeError):
    pass


class InvariantViolation(EngineError):
    """An emitted solution failed re-verification; indicates an engine bug."""


@dataclass(frozen=True)
class ChainState:
    """An open chain of consecutive sides delta_1..delta_length.

    ``pairings`` is the packed strict upper triangle (signed values),
    row-major: (1,2), (1,3), ..., (1,length), (2,3), ...
    """

    length: int
    pairings: tuple[int, ...]
    lam: tuple[int, ...]

    @property
    def closing_pair(self) -> int:
        return self.pairings[self.length - 2]  # (1, length) ends row 1


@dataclass(frozen=True)
class CatalogRecord:
    """One classified solution, canonical under dihedral relabelling."""

    r: Fraction
    n: int
    body: tuple[int, ...]
    lam: tuple[int, ...]
    pairings: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    symcartan: tuple[tuple[int, ...], ...]
    sym_order: int
    compact: bool
    untwisted: bool
    kind: str


@dataclass(frozen=True)
class CapEvent:
    r: Fraction
    length: int


@dataclass(frozen=True)
class EnumerationResult:
    records: tuple[CatalogRecord, ...]
    cap_events: tuple[CapEvent, ...]


@dataclass(frozen=True)
class PeriodicChainReport:
    period: int
    signature: tuple[tuple[int, ...], ...]
    length: int
    lam: tuple[int, ...]
    pairings: tuple[int, ...]


@dataclass(frozen=True)
class ParabolicReport:
    periodic: tuple[PeriodicChainReport, ...]
    capped_chains: int

    @property
    def records(self) -> tuple[CatalogRecord, ...]:
        """Always empty: no r = 0 polygon closes (see ``run_parabolic``)."""
        return ()


# ---------------------------------------------------------------------------
# 3-window scan (window closed forms in ``core``)
# ---------------------------------------------------------------------------


def _window_chain(a: int, b: int, c: int, lam: tuple[int, int, int]) -> ChainState:
    return ChainState(3, (-a, -b, -c), lam)


def _partners(lambda_max: int, a: int) -> list[tuple[int, ...]]:
    """partners[l]: the m in [1, lambda_max] with l | m a and m | l a, ascending.

    These are the lambdas that may sit next to l across an adjacent
    pairing -a (index 0 is unused).
    """
    return [()] + [
        tuple(m for m in range(1, lambda_max + 1) if (m * a) % l == 0 and (l * a) % m == 0)
        for l in range(1, lambda_max + 1)
    ]


# The bound on the long pairing of one window shape (a, c, lam).  The shape
# fixes num and det as integer quadratics in b,
#   num(b) = n2 b^2 + n1 b + n0,   det(b) = -2 b^2 + d1 b + d0,
# and b_max(n2, n1, n0, d1, d0) is the largest long pairing to scan.
BMax = Callable[[int, int, int, int, int], int]


def _windows(
    lambda_max: int, b_max: BMax
) -> Iterator[tuple[int, int, int, tuple[int, int, int], int, int]]:
    """Admissible hyperbolic 3-windows (a, b, c, lam, num, det), in search order.

    Adjacent pairings run over [0, ADJACENT_MAX], lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair, and the long pairing upward from 0 to the shape's b_max.  The
    Weyl square of a window is num / det, with det < 0.

    Shapes are enumerated directly: l2 runs over the partners of l1
    across a, l3 over the partners of l2 across c, which is the
    lexicographic order of (l1, l2, l3) restricted to admissible triples.
    The long pairing steps over the multiples of s = (l1/g)(l3/g), g =
    gcd(l1, l3): l1 | l3 b and l3 | l1 b hold exactly for those b, since
    l1/g and l3/g are coprime.  Along that stride num and det are
    quadratics in the step count with constant second differences
    2 n2 s^2 and -4 s^2, so each window costs a few additions.
    """
    for a in range(ADJACENT_MAX + 1):
        across_a = _partners(lambda_max, a)
        for c in range(ADJACENT_MAX + 1):
            across_c = _partners(lambda_max, c)
            # det(b) = 8 - 2(a^2 + b^2 + c^2) - 2abc
            d1 = -2 * a * c
            d0 = 8 - 2 * (a * a + c * c)
            for l1 in range(1, lambda_max + 1):
                for l2 in across_a[l1]:
                    for l3 in across_c[l2]:
                        lam = (l1, l2, l3)
                        # num(b) = lam^T adj(g) lam with adj(g) =
                        # (4 - c^2, 2a + bc, ac + 2b, 4 - b^2, 2c + ab, 4 - a^2)
                        n2 = -l2 * l2
                        n1 = 2 * (c * l1 * l2 + 2 * l1 * l3 + a * l2 * l3)
                        n0 = (
                            (4 - c * c) * l1 * l1
                            + 4 * l2 * l2
                            + (4 - a * a) * l3 * l3
                            + 2 * (2 * a * l1 * l2 + a * c * l1 * l3 + 2 * c * l2 * l3)
                        )
                        g = gcd(l1, l3)
                        s = (l1 // g) * (l3 // g)
                        ss = s * s
                        num, dnum, ddnum = n0, n2 * ss + n1 * s, 2 * n2 * ss
                        d, dd, ddd = d0, d1 * s - 2 * ss, -4 * ss
                        for b in range(0, b_max(n2, n1, n0, d1, d0) + 1, s):
                            if d < 0:
                                yield a, b, c, lam, num, d
                            num += dnum
                            dnum += ddnum
                            d += dd
                            dd += ddd


def _square_key(num: int, d: int) -> tuple[int, int]:
    """The Weyl square num/d (d < 0) in lowest terms, as (numerator, denominator)."""
    g = gcd(num, d)
    return -num // g, -d // g


def _radius_b_max(*_: int) -> int:
    return RADIUS_B_MAX


def collect_radii(lambda_max: int) -> tuple[Fraction, ...]:
    """All Weyl squares r < 0 attainable by a bounded admissible 3-window.

    The long pairing is scanned over [0, 14]; adjacent pairings over
    [0, 2]; lambdas over [1, lambda_max]^3 with the twisting
    divisibility for every ordered pair.  Sorted ascending.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    windows = _windows(lambda_max, _radius_b_max)
    # r = num/det with det < 0, so r < 0 iff num > 0
    squares = {_square_key(num, d) for _, _, _, _, num, d in windows if num > 0}
    # p/q < p'/q' iff p (L/q) < p' (L/q') for a common multiple L of the
    # denominators: an exact integer sort key.
    common = lcm(*(q for _, q in squares))
    return tuple(
        Fraction(p, q) for p, q in sorted(squares, key=lambda pq: pq[0] * (common // pq[1]))
    )


def _long_pairing_bound(r_max: Fraction) -> BMax:
    """b_max: no window of the shape with Weyl square <= r_max <= 0 has a larger b.

    Write r_max = p/q.  Since det < 0, r <= r_max iff
    f(b) = q num(b) - p det(b) = A b^2 + B b + C >= 0, read off the
    shape's coefficients.  A = q n2 + 2p = 2p - q l2^2 < 0, so f is
    non-negative only up to its larger root (B + sqrt(disc)) / (-2A).
    For an integer E > 0, floor(x / E) = floor(floor(x) / E), so isqrt
    gives that root's floor exactly.
    """
    p, q = r_max.numerator, r_max.denominator

    def b_max(n2: int, n1: int, n0: int, d1: int, d0: int) -> int:
        qa = q * n2 + 2 * p
        qb = q * n1 - p * d1
        qc = q * n0 - p * d0
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return -1
        return (qb + isqrt(disc)) // (-2 * qa)

    return b_max


def _seeds(
    radii: tuple[Fraction, ...], lambda_max: int
) -> dict[Fraction, list[ChainState]]:
    """Windows whose Weyl square is one of ``radii`` (all <= 0), by square."""
    by_key: dict[tuple[int, int], list[ChainState]] = {
        (r.numerator, r.denominator): [] for r in radii
    }
    for a, b, c, lam, num, d in _windows(lambda_max, _long_pairing_bound(max(radii))):
        bucket = by_key.get(_square_key(num, d))
        if bucket is not None:
            bucket.append(_window_chain(a, b, c, lam))
    return {r: by_key[r.numerator, r.denominator] for r in radii}


def seed_triples(r: Fraction | int, lambda_max: int) -> list[ChainState]:
    """All 3-windows whose Weyl square is exactly r (r <= 0)."""
    target = Fraction(r)
    if target > 0:
        raise ValueError("the Weyl square of a seed window is never positive")
    return _seeds((target,), lambda_max)[target]


def _seed_map(lambda_max: int) -> dict[Fraction, list[ChainState]]:
    """Seeds for every radius of collect_radii(lambda_max), in one sweep."""
    return _seeds(collect_radii(lambda_max), lambda_max)


def partition_closed(
    chains: list[ChainState],
) -> tuple[list[PolygonDatum], list[ChainState]]:
    """Split chains at the closure threshold (delta_1, delta_length) >= -2.

    Closed chains become polygons, kept only with coprime lambdas;
    the rest are returned for extension.
    """
    closed: list[PolygonDatum] = []
    extendable: list[ChainState] = []
    for ch in chains:
        if ch.pairings[ch.length - 2] >= -2:  # the closing pair (1, length)
            if gcd(*ch.lam) == 1:
                closed.append(PolygonDatum(ch.length, ch.pairings, ch.lam))
        else:
            extendable.append(ch)
    return closed, extendable


# Join keys.  In the row-major packing the pairs among sides 2..m (rows
# 2..m) are a contiguous suffix starting at offset m - 1, and the pairs
# among sides 1..m-1 are every row with its last entry (i, m) left out.


@cache
def _head_pairs(m: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """Picks the pairs (i, j), i < j <= m - 1, from a packed length-m chain."""
    if m == 3:
        return lambda p: p[:1]  # itemgetter of one index returns a scalar
    return itemgetter(
        *(pack_index(m, i, j) for i in range(1, m - 1) for j in range(i + 1, m))
    )


def _head_key(ch: ChainState) -> tuple:
    return _head_pairs(ch.length)(ch.pairings) + ch.lam[:-1]


def _tail_key(ch: ChainState) -> tuple:
    return ch.pairings[ch.length - 1 :] + ch.lam[1:]


def _divisible_both(l1: int, ln: int, g: int) -> bool:
    return (ln * g) % l1 == 0 and (l1 * g) % ln == 0


def _extended_chain(x: ChainState, y: ChainState, g1n: int) -> ChainState:
    """x's side 1 followed by y's sides: row 1 is x's row 1 plus g1n."""
    return ChainState(
        x.length + 1,
        x.pairings[: x.length - 1] + (g1n,) + y.pairings,
        x.lam[:1] + y.lam,
    )


def _glue(x: ChainState, y: ChainState) -> list[ChainState]:
    """Extensions of chain x by the last side of an overlapping chain y.

    The overlap (x sides 2..m against y sides 1..m-1) is assumed checked.
    Only the pairing (delta_1, delta_n) is unknown; it must come out a
    non-positive integer satisfying divisibility against both lambdas.
    """
    m = x.length
    xp, yp = x.pairings, y.pairings
    if m == 3:
        # rho = -adj(g) lam / det in the basis of x's window, so the Weyl
        # equation (rho, delta_4) = -lambda_4 reads
        # A1 g14 = lambda_4 det - A2 g24 - A3 g34 with A = adj(g) lam.  Every
        # term of A1 = (4 - c^2) l1 + (2a + bc) l2 + (ac + 2b) l3 is >= 0
        # (c <= ADJACENT_MAX = 2), and all vanish only at a = b = 0, c = 2,
        # where det = 0: A1 > 0 on every seed window.
        #
        # No rank check is needed: the 4x4 Gram of delta_1..delta_4 is
        # singular for this g14.  Both windows share (delta_2, delta_3) and
        # the values (rho, delta_2) = -lambda_2, (rho, delta_3) = -lambda_3,
        # (rho, rho) = r.  delta_2, delta_3, rho are independent (delta_3 =
        # -delta_2 would give (rho, delta_3) = lambda_2 > 0): for r < 0 the
        # plane of delta_2, delta_3 (pairing 0, -1 or -2) holds no negative
        # vector, and for r = 0 its null vectors are 0 and the multiples of
        # delta_2 + delta_3, all with (rho, delta_2) = 0 != -lambda_2.  So
        # the two windows are isometric on that span, which contains delta_1
        # and delta_4; as A1 > 0 the geometric (delta_1, delta_4) is the
        # unique solution g14 above, and the 4x4 determinant vanishes.
        a, b, c = -xp[0], -xp[1], -xp[2]
        a1, a2, a3 = _adj_mul(a, b, c, x.lam)
        # y's (1,3), (2,3) are (delta_2, delta_4), (delta_3, delta_4)
        g1n, rem = divmod(y.lam[-1] * _window_det(a, b, c) - a2 * yp[1] - a3 * yp[2], a1)
    else:
        # delta_n = e1 delta_2 + e2 delta_3 + e3 delta_4 with
        # e = adj(g_y) h / det(g_y), where g_y is the Gram of y's first window
        # (delta_2, delta_3, delta_4) and h holds their pairings with
        # delta_n.  Pairing with delta_1 gives (delta_1, delta_n); rank 3
        # holds by construction.  Packed offsets in y: (1,2) = 0, (1,3) = 1,
        # (2,3) = m-1, (1,m) = m-2, (2,m) = 2m-4, (3,m) = 3m-7; in x:
        # (1,2), (1,3), (1,4) = 0, 1, 2.
        a, b, c = -yp[0], -yp[1], -yp[m - 1]
        e1, e2, e3 = _adj_mul(a, b, c, (yp[m - 2], yp[2 * m - 4], yp[3 * m - 7]))
        u = xp[0] * e1 + xp[1] * e2 + xp[2] * e3
        g1n, rem = divmod(u, _window_det(a, b, c))
    if rem or g1n > 0 or not _divisible_both(x.lam[0], y.lam[-1], g1n):
        return []
    return [_extended_chain(x, y, g1n)]


def extend_step(extendable: list[ChainState]) -> list[ChainState]:
    """One gluing round: all chains one side longer.

    Matches ordered pairs (X, Y) whose overlap agrees (X's sides 2..m
    carry the same pairings and lambdas as Y's sides 1..m-1) via a hash
    join, then computes the unknown closing-side pairing for each pair.
    """
    if extendable:
        m = extendable[0].length
        for ch in extendable:
            if ch.length != m:
                raise EngineError("extend_step needs chains of equal length")
            if ch.closing_pair >= -2:
                raise EngineError("extend_step received a closed chain")
    by_head: dict[tuple, list[ChainState]] = {}
    for ch in extendable:
        by_head.setdefault(_head_key(ch), []).append(ch)
    out: list[ChainState] = []
    for x in extendable:
        for y in by_head.get(_tail_key(x), ()):
            out.extend(_glue(x, y))
    return out


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _record_from_canonical(r: Fraction, packed: PackedDatum) -> CatalogRecord:
    d = packed.to_polygon()
    report = verify_realization(d)
    if not report.valid:
        raise InvariantViolation(
            f"emitted datum fails verification: {report.failures()}"
        )
    if report.weyl_square != r:
        raise InvariantViolation(
            f"emitted datum has square {report.weyl_square}, expected {r}"
        )
    flags = classify_flags(d, report.weyl_square)
    sym = symmetry_group(d)
    return CatalogRecord(
        r=r,
        n=d.n,
        body=packed.body,
        lam=d.lam,
        pairings=d.pairings,
        table=polygon_table(d).rows,
        cartan=cartan_matrix(d).entries,
        symcartan=symmetrized_cartan(d).entries,
        sym_order=sym.order,
        compact=flags.compact,
        untwisted=flags.untwisted,
        kind=flags.kind,
    )


def _dedup_records(r: Fraction, closed: list[PolygonDatum]) -> list[CatalogRecord]:
    canon: dict[tuple[int, tuple[int, ...]], PackedDatum] = {}
    for poly in closed:
        c = canonical_form(PackedDatum.from_polygon(poly))
        canon[(c.n, c.body)] = c
    return [
        _record_from_canonical(r, canon[key])
        for key in sorted(canon.keys())
    ]


def _grow(
    chains: list[ChainState],
    max_sides: int,
    periodic: dict[tuple, PeriodicChainReport] | None = None,
) -> tuple[list[PolygonDatum], list[ChainState]]:
    """Glue chains until every one has closed or died, or reached max_sides.

    Returns the closed polygons and the chains still alive at the cap.
    With ``periodic`` (parabolic mode), a chain whose newest decorated
    3-window state repeats an earlier one is recorded there, keyed by
    (period, signature), instead of being extended.
    """
    closed_all: list[PolygonDatum] = []
    while chains:
        closed, chains = partition_closed(chains)
        closed_all.extend(closed)
        if periodic is not None:
            alive: list[ChainState] = []
            for ch in chains:
                rep = _detect_period(ch)
                if rep is None:
                    alive.append(ch)
                else:
                    periodic.setdefault((rep.period, rep.signature), rep)
            chains = alive
        if not chains:
            break
        if chains[0].length >= max_sides:
            return closed_all, chains
        chains = extend_step(chains)
    return closed_all, []


def _run_radius(
    r: Fraction, seeds: list[ChainState], max_sides: int
) -> tuple[list[CatalogRecord], CapEvent | None]:
    closed, capped = _grow(seeds, max_sides)
    cap = CapEvent(r, capped[0].length) if capped else None
    return _dedup_records(r, closed), cap


def run_elliptic(
    lambda_max: int,
    max_sides: int = DEFAULT_MAX_SIDES,
    *,
    r_filter: Fraction | None = None,
) -> EnumerationResult:
    """The full elliptic classification for lambda_i <= lambda_max.

    Deterministic: the catalog is sorted by (r, n, canonical body), since
    radii are searched in ascending order and each radius's records come
    out of ``_dedup_records`` ordered by (n, body).  Hitting ``max_sides``
    on a live chain is reported as a cap event, and that radius's output
    is partial.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    records: list[CatalogRecord] = []
    caps: list[CapEvent] = []
    for r, seeds in _seed_map(lambda_max).items():
        if r_filter is not None and r != r_filter:
            continue
        recs, cap = _run_radius(r, seeds, max_sides)
        records.extend(recs)
        if cap is not None:
            caps.append(cap)
    return EnumerationResult(tuple(records), tuple(caps))


def _chain_windows(ch: ChainState) -> list[tuple[int, ...]]:
    """Decorated 3-window states along an open chain.

    Row i of the packing starts with (i, i+1), (i, i+2) and is followed by
    row i+1, which starts with (i+1, i+2), n - i entries later.
    """
    p, lam, n = ch.pairings, ch.lam, ch.length
    windows = []
    s = 0
    for i in range(1, n - 1):
        t = s + n - i
        windows.append((p[s], p[s + 1], p[t], lam[i - 1], lam[i], lam[i + 1]))
        s = t
    return windows


def _min_rotation(block: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return min(
        tuple(block[k:] + block[:k]) for k in range(len(block))
    )


def _detect_period(ch: ChainState) -> PeriodicChainReport | None:
    """Report a recurring decorated 3-window state, if the newest one repeats."""
    windows = _chain_windows(ch)
    last = windows[-1]
    for i, w in enumerate(windows[:-1]):
        if w == last:
            block = tuple(windows[i:-1])
            return PeriodicChainReport(
                period=len(windows) - 1 - i,
                signature=_min_rotation(block),
                length=ch.length,
                lam=ch.lam,
                pairings=ch.pairings,
            )
    return None


def run_parabolic(
    lambda_max: int, max_sides: int = DEFAULT_MAX_SIDES
) -> ParabolicReport:
    """The r = 0 pipeline: periodic-chain detection on the r = 0 seeds.

    Chains whose newest decorated 3-window state repeats an earlier one
    are reported with their period and a rotation-invariant signature
    instead of being extended further; anything still alive at
    ``max_sides`` is counted as capped.  Exploratory mode: the parabolic
    classification itself is out of scope here.

    No r = 0 chain ever closes.  A closed polygon bounds a cone
    {x : (x, delta_i) <= 0 for all i} whose interior vectors all have
    negative square.  (rho, delta_i) = -lambda_i < 0 on every side puts
    rho strictly inside that cone, so (rho, rho) < 0.  A closed r = 0
    polygon is therefore an engine fault and raises InvariantViolation.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    periodic: dict[tuple, PeriodicChainReport] = {}
    closed, capped = _grow(seed_triples(0, lambda_max), max_sides, periodic)
    if closed:
        raise InvariantViolation(f"a chain closed at r = 0: {closed[0]}")
    reports = tuple(periodic[key] for key in sorted(periodic))
    return ParabolicReport(reports, len(capped))
