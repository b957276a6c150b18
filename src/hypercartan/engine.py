"""Classification search for rank-3 realizations with a lattice Weyl vector.

The search runs on Python integers and works radius by radius.  A
3-window of consecutive sides has pairings -a, -b, -c and lambdas
(l1, l2, l3); its Weyl square is r = num / det, where det < 0 is the
window's Gram determinant and num = lam^T adj(g) lam.  The search first
collects every square r < 0 attained by a window within fixed bounds,
then seeds, for each radius, every window whose square is exactly r.  The
long pairing b of a seed is bounded in closed form: r <= r_max is a
quadratic inequality in b whose leading coefficient is negative, so b
never exceeds the floor of its larger root.  From the seeds it repeatedly
glues overlapping open chains.  The single unknown pairing
(delta_1, delta_n) comes from the integer adjugate of one window: through
the Weyl-vector equation on the chain's first window at length 4, by
composing coordinates across the shared window at length >= 5.  An exact
division is the integrality test.  Gluing stops when every chain has
closed or died.

Closed polygons are deduplicated by dihedral canonical form, re-verified
and decorated; the final catalog depends only on (lambda_max, mode).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterator

from .canonical import PackedDatum, canonical_form
from .core import (
    PolygonDatum,
    cartan_matrix,
    classify_flags,
    pack_index,
    polygon_table,
    symmetrized_cartan,
    symmetry_group,
    verify_realization,
)
from .linalg import det_int_rows

# Radius-collection window bounds: adjacent pairings in [-2, 0], long
# pairing in (-15, 0].
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

    ``pairings`` is the packed strict upper triangle (signed values).
    """

    length: int
    pairings: tuple[int, ...]
    lam: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.length

    def pair(self, i: int, j: int) -> int:
        if i == j:
            return 2
        if i > j:
            i, j = j, i
        return self.pairings[pack_index(self.length, i, j)]

    @property
    def closing_pair(self) -> int:
        return self.pair(1, self.length)


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

    @property
    def sort_key(self) -> tuple:
        return (self.r, self.n, self.body)


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
    records: tuple[CatalogRecord, ...]
    periodic: tuple[PeriodicChainReport, ...]
    capped_chains: int


# ---------------------------------------------------------------------------
# 3-window arithmetic
#
# A window has pairings (delta_1,delta_2) = -a, (delta_1,delta_3) = -b,
# (delta_2,delta_3) = -c with a, b, c >= 0.  Its Gram determinant and the
# adjugate are small closed forms, so the Weyl square r = lam^T adj lam / det
# never touches a matrix routine.
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


def _window_square_num(a: int, b: int, c: int, l1: int, l2: int, l3: int) -> int:
    """Numerator lam^T adj(g) lam of the Weyl square (denominator is det)."""
    a11, a12, a13, a22, a23, a33 = _window_adjugate(a, b, c)
    return (
        a11 * l1 * l1
        + a22 * l2 * l2
        + a33 * l3 * l3
        + 2 * (a12 * l1 * l2 + a13 * l1 * l3 + a23 * l2 * l3)
    )


def _adjacent_divisible(a: int, c: int, l1: int, l2: int, l3: int) -> bool:
    return (
        (l2 * a) % l1 == 0
        and (l1 * a) % l2 == 0
        and (l3 * c) % l2 == 0
        and (l2 * c) % l3 == 0
    )


def _long_divisible(b: int, l1: int, l3: int) -> bool:
    return (l3 * b) % l1 == 0 and (l1 * b) % l3 == 0


def _window_chain(a: int, b: int, c: int, lam: tuple[int, int, int]) -> ChainState:
    return ChainState(3, (-a, -b, -c), lam)


BMax = Callable[[int, int, tuple[int, int, int]], int]


def _windows(
    lambda_max: int, b_max: BMax
) -> Iterator[tuple[int, int, int, tuple[int, int, int], int, int]]:
    """Admissible hyperbolic 3-windows (a, b, c, lam, num, det), in search order.

    Adjacent pairings run over [0, ADJACENT_MAX], lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair, and the long pairing upward from 0 to b_max(a, c, lam).  The
    Weyl square of a window is num / det, with det < 0.
    """
    for a in range(ADJACENT_MAX + 1):
        for c in range(ADJACENT_MAX + 1):
            for lam in itertools.product(range(1, lambda_max + 1), repeat=3):
                l1, l2, l3 = lam
                if not _adjacent_divisible(a, c, l1, l2, l3):
                    continue
                for b in range(b_max(a, c, lam) + 1):
                    d = _window_det(a, b, c)
                    if d < 0 and _long_divisible(b, l1, l3):
                        yield a, b, c, lam, _window_square_num(a, b, c, l1, l2, l3), d


def collect_radii(lambda_max: int) -> tuple[Fraction, ...]:
    """All Weyl squares r < 0 attainable by a bounded admissible 3-window.

    The long pairing is scanned over [0, 14]; adjacent pairings over
    [0, 2]; lambdas over [1, lambda_max]^3 with the twisting
    divisibility for every ordered pair.  Sorted ascending.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    windows = _windows(lambda_max, lambda a, c, lam: RADIUS_B_MAX)
    # r = num/det with det < 0, so r < 0 iff num > 0
    return tuple(sorted({Fraction(num, d) for *_, num, d in windows if num > 0}))


def _long_pairing_bound(r_max: Fraction) -> BMax:
    """b_max(a, c, lam): no window with Weyl square <= r_max <= 0 has a larger b.

    Write r_max = p/q.  Since det < 0, r <= r_max iff
    f(b) = q num(b) - p det(b) >= 0.  In b, num = -l2^2 b^2 + ... and
    det = -2 b^2 - 2ac b + ..., so f has leading coefficient
    2p - q l2^2 < 0 and is non-negative only up to its larger root
    (B + sqrt(disc)) / (-2A).  For an integer E > 0, floor(x / E) =
    floor(floor(x) / E), so isqrt gives that root's floor exactly.
    """
    p, q = r_max.numerator, r_max.denominator

    def b_max(a: int, c: int, lam: tuple[int, int, int]) -> int:
        l1, l2, l3 = lam
        qa = 2 * p - q * l2 * l2
        qb = 2 * q * (c * l1 * l2 + 2 * l1 * l3 + a * l2 * l3) + 2 * p * a * c
        qc = q * _window_square_num(a, 0, c, l1, l2, l3) - p * _window_det(a, 0, c)
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            return -1
        return (qb + isqrt(disc)) // (-2 * qa)

    return b_max


def _seeds(
    radii: tuple[Fraction, ...], lambda_max: int
) -> dict[Fraction, list[ChainState]]:
    """Windows whose Weyl square is one of ``radii`` (all <= 0), by square."""
    buckets: dict[Fraction, list[ChainState]] = {r: [] for r in radii}
    by_key = {(r.numerator, r.denominator): buckets[r] for r in radii}
    for a, b, c, lam, num, d in _windows(lambda_max, _long_pairing_bound(max(radii))):
        g = gcd(num, d)
        bucket = by_key.get((-num // g, -d // g))  # num/det in lowest terms
        if bucket is not None:
            bucket.append(_window_chain(a, b, c, lam))
    return buckets


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
        if ch.closing_pair >= -2:
            if gcd(*ch.lam) == 1:
                closed.append(PolygonDatum(ch.length, ch.pairings, ch.lam))
        else:
            extendable.append(ch)
    return closed, extendable


def _head_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(
        ch.pair(i, j) for i in range(1, m) for j in range(i + 1, m)
    )
    return pairs + ch.lam[: m - 1]


def _tail_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(
        ch.pair(i, j) for i in range(2, m + 1) for j in range(i + 1, m + 1)
    )
    return pairs + ch.lam[1:]


def _det4(p12: int, p13: int, p14: int, p23: int, p24: int, p34: int) -> int:
    return det_int_rows(
        [
            [2, p12, p13, p14],
            [p12, 2, p23, p24],
            [p13, p23, 2, p34],
            [p14, p24, p34, 2],
        ]
    )


def _divisible_both(l1: int, ln: int, g: int) -> bool:
    return (ln * g) % l1 == 0 and (l1 * g) % ln == 0


def _extended_chain(x: ChainState, y: ChainState, g1n: int) -> ChainState:
    m = x.length
    n = m + 1
    newp: list[int] = [x.pair(1, j) for j in range(2, m + 1)]
    newp.append(g1n)
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            newp.append(y.pair(i - 1, j - 1))
    lam = (x.lam[0],) + y.lam
    return ChainState(n, tuple(newp), lam)


def _glue(x: ChainState, y: ChainState) -> list[ChainState]:
    """Extensions of chain x by the last side of an overlapping chain y.

    The overlap (x sides 2..m against y sides 1..m-1) is assumed checked.
    Only the pairing (delta_1, delta_n) is unknown; it must come out a
    non-positive integer satisfying divisibility against both lambdas.
    """
    m = x.length
    if m == 3:
        # rho = -adj(g) lam / det in the basis of x's window, so the Weyl
        # equation (rho, delta_4) = -lambda_4 reads
        # A1 g14 = lambda_4 det - A2 g24 - A3 g34 with A = adj(g) lam.  Every
        # term of A1 = (4 - c^2) l1 + (2a + bc) l2 + (ac + 2b) l3 is >= 0
        # (c <= ADJACENT_MAX = 2), and all vanish only at a = b = 0, c = 2,
        # where det = 0: A1 > 0 on every seed window.
        a, b, c = (-p for p in x.pairings)
        a1, a2, a3 = _adj_mul(a, b, c, x.lam)
        g24, g34 = y.pair(1, 3), y.pair(2, 3)
        g1n, rem = divmod(y.lam[-1] * _window_det(a, b, c) - a2 * g24 - a3 * g34, a1)
    else:
        # delta_n = e1 delta_2 + e2 delta_3 + e3 delta_4 with
        # e = adj(g_y) h / det(g_y), where g_y is the Gram of y's first window
        # (delta_2, delta_3, delta_4) and h holds their pairings with
        # delta_n.  Pairing with delta_1 gives (delta_1, delta_n); rank 3
        # holds by construction.
        a, b, c = -y.pair(1, 2), -y.pair(1, 3), -y.pair(2, 3)
        e1, e2, e3 = _adj_mul(a, b, c, (y.pair(1, m), y.pair(2, m), y.pair(3, m)))
        u = x.pair(1, 2) * e1 + x.pair(1, 3) * e2 + x.pair(1, 4) * e3
        g1n, rem = divmod(u, _window_det(a, b, c))
    if rem or g1n > 0 or not _divisible_both(x.lam[0], y.lam[-1], g1n):
        return []
    if m == 3 and _det4(x.pair(1, 2), x.pair(1, 3), g1n, x.pair(2, 3), g24, g34) != 0:
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
    task: tuple[Fraction, tuple[ChainState, ...], int],
) -> tuple[list[CatalogRecord], CapEvent | None]:
    r, seeds, max_sides = task
    closed, capped = _grow(list(seeds), max_sides)
    cap = CapEvent(r, capped[0].length) if capped else None
    return _dedup_records(r, closed), cap


def _worker_count(jobs: int, tasks: int) -> int:
    """Worker processes to start: never more than requested, cores or tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def run_elliptic(
    lambda_max: int,
    max_sides: int = DEFAULT_MAX_SIDES,
    *,
    jobs: int = 1,
    r_filter: Fraction | None = None,
) -> EnumerationResult:
    """The full elliptic classification for lambda_i <= lambda_max.

    Deterministic: the catalog is sorted by (r, n, canonical body) and
    does not depend on ``jobs``.  Hitting ``max_sides`` on a live chain
    is reported as a cap event, and that radius's output is partial.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    seed_map = _seed_map(lambda_max)
    radii = sorted(seed_map)
    if r_filter is not None:
        wanted = Fraction(r_filter)
        radii = [r for r in radii if r == wanted]
    tasks = [(r, tuple(seed_map[r]), max_sides) for r in radii]
    workers = _worker_count(jobs, len(tasks))
    if workers <= 1:
        results = [_run_radius(t) for t in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_radius, tasks, chunksize=chunk))
    records: list[CatalogRecord] = []
    caps: list[CapEvent] = []
    for recs, cap in results:
        records.extend(recs)
        if cap is not None:
            caps.append(cap)
    records.sort(key=lambda rec: rec.sort_key)
    caps.sort(key=lambda e: (e.r, e.length))
    return EnumerationResult(tuple(records), tuple(caps))


def _chain_windows(ch: ChainState) -> list[tuple[int, ...]]:
    """Decorated 3-window states along an open chain."""
    return [
        (
            ch.pair(i, i + 1),
            ch.pair(i, i + 2),
            ch.pair(i + 1, i + 2),
            ch.lam[i - 1],
            ch.lam[i],
            ch.lam[i + 1],
        )
        for i in range(1, ch.length - 1)
    ]


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
    """The r = 0 pipeline: closed polygons plus periodic-chain detection.

    Chains whose newest decorated 3-window state repeats an earlier one
    are reported with their period and a rotation-invariant signature
    instead of being extended further; anything still alive at
    ``max_sides`` is counted as capped.  Exploratory mode: the parabolic
    classification itself is out of scope here.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    periodic: dict[tuple, PeriodicChainReport] = {}
    closed, capped = _grow(seed_triples(0, lambda_max), max_sides, periodic)
    reports = tuple(periodic[key] for key in sorted(periodic))
    return ParabolicReport(
        tuple(_dedup_records(Fraction(0), closed)), reports, len(capped)
    )
