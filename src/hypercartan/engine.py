"""Classification search for rank-3 realizations with a lattice Weyl vector.

The search runs on Python integers and works radius by radius.  A
3-window of consecutive sides has pairings -a, -b, -c and lambdas
(l1, l2, l3); its Weyl square is r = num / det, where det < 0 is the
window's Gram determinant and num = lam^T adj(g) lam.  The search first
collects every square r < 0 attained by a window whose long pairing b
is within assumption (N) below, then seeds, for each radius, every
window whose square is exactly r.  Both sweeps run one window scan.  It
enumerates the admissible shapes (a, c, lam) directly, from a table of
the lambdas allowed next to each lambda across an adjacent pairing.
For one shape num and det are integer quadratics in b.  num is positive
at b = 0 and has leading coefficient -l2^2 < 0, so r <= 0 holds exactly
up to the floor of num's larger root: the scan stops there, and the
seed sweep needs no other bound.  b steps over the multiples of
(l1/g)(l3/g), g = gcd(l1, l3), which are exactly the values that pass
the twisting divisibility, and num and det follow it by constant second
differences.  Radii are sorted by an exact integer key.

From the seeds the search repeatedly glues overlapping open chains.  Two
chains of one radius join when the second and third sides of one and
the first and second of the other carry the same pairings and lambdas;
those rows decide the whole overlap.  The single unknown pairing
(delta_1, delta_n) comes from one gluing equation at every length: the
Weyl-vector equation (rho, delta_n) = -lambda_n, through the integer
adjugate of the chain's first window, which is always its seed window.
An exact division is the integrality test.  Gluing stops when every
chain has closed or died.

A chain is a packed tuple of its pairings, row-major over the strict
upper triangle.  The join keys of two overlapping chains are slices of
it, the glued chain is a concatenation, and gluing reads its pairings at
fixed offsets: no pairing is looked up by (i, j) in the chain loop.

Closed polygons are deduplicated by ``core.canonical_key``, re-verified
and decorated; the final catalog depends only on (lambda_max, mode).
Every result is a ``NamedTuple``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterator, NamedTuple

from .core import (
    PolygonDatum,
    _adj_mul,
    _window_det,
    canonical_key,
    cartan_matrix,
    classify_flags,
    pair_count,
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
# (arXiv alg-geom/9610022).  Only ``collect_radii`` depends on it.  The
# tests check that every catalog polygon has such a window and that a
# larger bound changes no record at lambda <= 6.
ADJACENT_MAX = 2
RADIUS_B_MAX = 14

DEFAULT_MAX_SIDES = 32


class EngineError(RuntimeError):
    pass


class InvariantViolation(EngineError):
    """An emitted solution failed re-verification; indicates an engine bug."""


class ChainState(NamedTuple):
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


class CatalogRecord(NamedTuple):
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


class CapEvent(NamedTuple):
    r: Fraction
    length: int


class EnumerationResult(NamedTuple):
    records: tuple[CatalogRecord, ...]
    cap_events: tuple[CapEvent, ...]


class PeriodicChainReport(NamedTuple):
    period: int
    signature: tuple[tuple[int, ...], ...]
    length: int
    lam: tuple[int, ...]
    pairings: tuple[int, ...]


class ParabolicReport(NamedTuple):
    periodic: tuple[PeriodicChainReport, ...]
    capped_chains: int

    @property
    def records(self) -> tuple[CatalogRecord, ...]:
        """Always empty: no r = 0 polygon closes (see ``run_parabolic``)."""
        return ()


# ---------------------------------------------------------------------------
# 3-window scan (window closed forms in ``core``)
# ---------------------------------------------------------------------------


def _partners(lambda_max: int, a: int) -> list[tuple[int, ...]]:
    """partners[l]: the m in [1, lambda_max] with l | m a and m | l a, ascending.

    These are the lambdas that may sit next to l across an adjacent
    pairing -a (index 0 is unused).
    """
    return [()] + [
        tuple(m for m in range(1, lambda_max + 1) if (m * a) % l == 0 and (l * a) % m == 0)
        for l in range(1, lambda_max + 1)
    ]


def _windows(
    lambda_max: int, b_cap: int | None = None
) -> Iterator[tuple[int, int, int, tuple[int, int, int], int, int]]:
    """Admissible hyperbolic 3-windows (a, b, c, lam, num, det) of square r <= 0.

    Adjacent pairings run over [0, ADJACENT_MAX], lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair, and the long pairing upward from 0 to the shape's bound, or to
    ``b_cap`` if that is smaller.  The Weyl square of a window is
    num / det, with det < 0.

    Shapes are enumerated directly: l2 runs over the partners of l1
    across a, l3 over the partners of l2 across c, which is the
    lexicographic order of (l1, l2, l3) restricted to admissible triples.
    For one shape num(b) = n2 b^2 + n1 b + n0 with n2 = -l2^2 < 0 and
    n0 = num(0) >= 4 l2^2 > 0, so num >= 0, that is r <= 0, holds
    exactly for b from 0 to the floor of num's larger root
    (n1 + sqrt(n1^2 - 4 n2 n0)) / (-2 n2).  For an integer E > 0,
    floor(x / E) = floor(floor(x) / E), so isqrt gives that floor
    exactly.  The long pairing steps over the multiples of
    s = (l1/g)(l3/g), g = gcd(l1, l3): l1 | l3 b and l3 | l1 b hold
    exactly for those b, since l1/g and l3/g are coprime.  Along that
    stride num and det are quadratics in the step count with constant
    second differences 2 n2 s^2 and -4 s^2, so each window costs a few
    additions.
    """
    for a in range(ADJACENT_MAX + 1):
        across_a = _partners(lambda_max, a)
        for c in range(ADJACENT_MAX + 1):
            across_c = _partners(lambda_max, c)
            # det(b) = 8 - 2(a^2 + b^2 + c^2) - 2abc
            d1 = -2 * a * c
            d0 = 8 - 2 * (a * a + c * c)
            # The stride s is at most lambda_max^2.  With det(0) >= 0 a
            # stride past b_cap leaves only b = 0 under the cap, which is
            # no window: skip such shapes before solving num's quadratic.
            s_max = b_cap if b_cap is not None and d0 >= 0 else lambda_max * lambda_max
            for l1 in range(1, lambda_max + 1):
                for l2 in across_a[l1]:
                    for l3 in across_c[l2]:
                        g = gcd(l1, l3)
                        s = (l1 // g) * (l3 // g)
                        if s > s_max:
                            continue
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
                        b_max = (n1 + isqrt(n1 * n1 - 4 * n2 * n0)) // (-2 * n2)
                        if b_cap is not None and b_max > b_cap:
                            b_max = b_cap
                        ss = s * s
                        num, dnum, ddnum = n0, n2 * ss + n1 * s, 2 * n2 * ss
                        d, dd, ddd = d0, d1 * s - 2 * ss, -4 * ss
                        for b in range(0, b_max + 1, s):
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


def collect_radii(lambda_max: int) -> tuple[Fraction, ...]:
    """All Weyl squares r < 0 attainable by a bounded admissible 3-window.

    The long pairing is scanned over [0, RADIUS_B_MAX], the one place
    assumption (N) enters; adjacent pairings over [0, 2]; lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair.  Sorted ascending.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    windows = _windows(lambda_max, RADIUS_B_MAX)
    # r = num/det with det < 0, so r < 0 iff num > 0
    squares = {_square_key(num, d) for _, _, _, _, num, d in windows if num > 0}
    # p/q < p'/q' iff p (L/q) < p' (L/q') for a common multiple L of the
    # denominators: an exact integer sort key.
    common = lcm(*(q for _, q in squares))
    return tuple(
        Fraction(p, q) for p, q in sorted(squares, key=lambda pq: pq[0] * (common // pq[1]))
    )


def _seeds(
    radii: tuple[Fraction, ...], lambda_max: int
) -> dict[Fraction, list[ChainState]]:
    """Windows whose Weyl square is one of ``radii`` (all <= 0), by square."""
    by_key: dict[tuple[int, int], list[ChainState]] = {
        (r.numerator, r.denominator): [] for r in radii
    }
    for a, b, c, lam, num, d in _windows(lambda_max):
        bucket = by_key.get(_square_key(num, d))
        if bucket is not None:
            bucket.append(ChainState(3, (-a, -b, -c), lam))
    return {r: by_key[r.numerator, r.denominator] for r in radii}


def seed_triples(r: Fraction | int, lambda_max: int) -> list[ChainState]:
    """All 3-windows whose Weyl square is exactly r (r <= 0: the sweep reaches no more)."""
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


# Join keys.  Packed rows 1, 2, 3 take offsets 0..m-2, m-1..2m-4 and
# 2m-3..3m-7.  The tail key is x's rows 2 and 3, the head key y's rows 1
# and 2 without their pairs with side m, each with the overlap's lambdas;
# ``_glue`` shows why these rows suffice.


def _head_key(ch: ChainState) -> tuple:
    p, m = ch.pairings, ch.length
    return p[: m - 2] + p[m - 1 : 2 * m - 4] + ch.lam[:-1]


def _tail_key(ch: ChainState) -> tuple:
    p, m = ch.pairings, ch.length
    return p[m - 1 : 3 * m - 6] + ch.lam[1:]


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

    The join keys are assumed equal.  Only (delta_1, delta_n), n = m + 1,
    is unknown; it must come out a non-positive integer satisfying
    divisibility against both lambdas.

    Both chains are realized at one Weyl square r (a seed window is, and so
    is each glued chain, by what follows).  delta_2, delta_3 and rho are
    independent: delta_3 = -delta_2 would give (rho, delta_3) = lambda_2 > 0;
    for r < 0 the plane of delta_2, delta_3 (pairing 0, -1 or -2) holds no
    negative vector, and for r = 0 its null vectors are the multiples of
    delta_2 + delta_3, where (rho, delta_2) = 0 != -lambda_2.  Their Gram is
    the same in x as for y's sides 1, 2, so x and y are isometric on the
    whole space.  Each side k is fixed by (delta_k, delta_2),
    (delta_k, delta_3) and lambda_k, so the key rows decide the overlap.

    x's first window is its seed window (an extension keeps x's first three
    sides): det < 0, and the Weyl equation (rho, delta_n) = -lambda_n reads
    A1 g1n = lambda_n det - A2 g2n - A3 g3n with A = adj(g) lam.  Every term
    of A1 = (4 - c^2) l1 + (2a + bc) l2 + (ac + 2b) l3 is >= 0 (c <= 2), and
    all vanish only at a = b = 0, c = 2, where det = 0: A1 > 0, the geometric
    (delta_1, delta_n) is the unique solution, and the glued Gram has rank 3.
    """
    m = x.length
    xp, yp = x.pairings, y.pairings
    # x: (1,2), (1,3), (2,3) at offsets 0, 1, m-1; y: (1,m), (2,m) at m-2, 2m-4
    a, b, c = -xp[0], -xp[1], -xp[m - 1]
    a1, a2, a3 = _adj_mul(a, b, c, x.lam[:3])
    g1n, rem = divmod(
        y.lam[-1] * _window_det(a, b, c) - a2 * yp[m - 2] - a3 * yp[2 * m - 4], a1
    )
    if rem or g1n > 0 or not _divisible_both(x.lam[0], y.lam[-1], g1n):
        return []
    return [_extended_chain(x, y, g1n)]


def extend_step(extendable: list[ChainState]) -> list[ChainState]:
    """One gluing round: all chains one side longer.

    Matches ordered pairs (X, Y) whose overlap agrees (X's sides 2..m
    carry the same pairings and lambdas as Y's sides 1..m-1) via a hash
    join on the key rows, then computes the unknown closing-side pairing
    for each pair.
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


def _record_from_canonical(
    r: Fraction, key: tuple[int, tuple[int, ...]]
) -> CatalogRecord:
    n, body = key
    k = pair_count(n)
    d = PolygonDatum(n, tuple([-v for v in body[:k]]), body[k:])
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
    return CatalogRecord(
        r=r,
        n=d.n,
        body=body,
        lam=d.lam,
        pairings=d.pairings,
        table=polygon_table(d),
        cartan=cartan_matrix(d),
        symcartan=symmetrized_cartan(d),
        sym_order=symmetry_group(d),
        compact=flags.compact,
        untwisted=flags.untwisted,
        kind=flags.kind,
    )


def _dedup_records(r: Fraction, closed: list[PolygonDatum]) -> list[CatalogRecord]:
    keys = {canonical_key(poly) for poly in closed}
    return [_record_from_canonical(r, key) for key in sorted(keys)]


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
