"""Classification search for rank-3 realizations with a lattice Weyl vector.

The search runs on Python integers and works radius by radius.  A
3-window of consecutive sides has pairings -a, -b, -c and lambdas
(l1, l2, l3); its Weyl square is r = num / det, where det < 0 is the
window's Gram determinant and num = lam^T adj(g) lam.  The search
visits each window once: a narrow pass over the windows whose long
pairing b is within assumption (N) below collects every square r < 0
with its windows as seeds, and a wide pass over larger b adds the
windows of those squares.  Both passes run one window scan.  It
enumerates the admissible shapes (a, c, lam) directly, from a table of
the lambdas allowed next to each lambda across an adjacent pairing.
Read from its other end, a window (a, b, c, l1, l2, l3) is its mirror
(c, b, a, l3, l2, l1); the stride, num and det below are symmetric under
a <-> c, l1 <-> l3, so a window and its mirror have one square.  The
scan therefore visits only the shapes with (a, l1) <= (c, l3), and each
seed brings its mirror when that is not itself.
For one shape num and det are integer quadratics in b.  num is positive
at b = 0 and has leading coefficient -l2^2 < 0, so r <= 0 holds exactly
up to the floor of num's larger root: the scan stops there, and the
wide pass needs no other bound.  b steps over the multiples of
(l1/g)(l3/g), g = gcd(l1, l3), which are exactly the values that pass
the twisting divisibility, and num and det follow it by constant second
differences.  Both passes find a window's radius by the float num / det,
checked exactly by cross-multiplication; distinct radii have distinct
floats, so sorting by them is exact.  A radius p / q is the integer
pair (p, q) in lowest terms with q > 0, reduced by one gcd per radius;
a ``Fraction`` is built only for a record, a cap event, the ``r_filter``
and the argument of ``seed_triples``.

A seed is one int: its window (a, b, c, l1, l2, l3) packed from the top
as b, l1, a, l2, c, l3, with lambda_max.bit_length() bits per lambda and
2 bits each for a and c (see ``collect_radii``).  b goes on top, so it
needs no width, and whether a seed closes at 3 sides is one comparison.
Both passes file ints, each ``b << S | shape`` from a shape packed once
by the window scan.  A seed becomes a ``ChainState`` only in
``_join_seeds``, and only if it closes at 3 sides or takes part in a
join: at lambda = 16 that is 616 and 2,802 of the 7,239 seeds.

From the seeds the search repeatedly glues overlapping open chains.  The
single unknown pairing (delta_1, delta_n) of a glued chain comes from
one gluing equation at every length: the Weyl-vector equation
(rho, delta_n) = -lambda_n, through the integer adjugate of the chain's
first window, which is always its seed window.  An exact division is
the integrality test.  Gluing stops when every chain has closed or died.

Seeds join on their 2-side overlap: x's sides 2, 3 against y's sides
1, 2, one pairing and two lambdas, by a hash join within their radius
on two bit fields of the seeds.
Longer chains join by lineage.  A chain glued from x and y has x as its
sides 1..m and y as its sides 2..m+1.  Within one radius no two live
chains of one length are equal: the seeds are distinct windows, a glued
chain determines both its parents, and one pair of parents gives at
most one (delta_1, delta_n).  So x's sides 2..m equal y's sides 1..m-1
exactly when x's right parent is y's left parent, and each chain is
glued to the live extensions of its right parent.  Chains of two radii
never overlap, since a window determines its square.  A round emits the
live extensions of each left parent together, so a chain's partners
are one range of its round, handed to it when the round before ends:
the join hashes nothing and matches no chain.  An extension with
(delta_1, delta_n) >= -2 is closed where that is computed: it goes to
``partition_closed`` and is not glued again.

One chain loop runs every radius, in passes of ``_PASS_RADII`` radii in
ascending order: a pass pops and joins its radii's seeds radius by
radius, then glues one round per length over all its radii at once.  A
chain holds no radius: all its windows share one Weyl square, as a
polygon's do, so its radius is the square of its first window, its seed
window (``_seed_square``).  A round keeps the order of its radii, and
within a radius that of x, then of x's partners, which differ only in
their last window: the capped chains come out ascending by radius, and
from sorted seeds every round is sorted by windows.  Parabolic mode runs
the loop as the one radius 0, and ``extend_step`` settles a periodic
extension where it is glued, as it does a closed one: it never goes live,
so the partner ranges need no moving.

A chain is a packed tuple of its pairings, row-major over the strict
upper triangle, built with ``tuple.__new__``.  The glued chain is a
concatenation, and gluing reads its pairings at fixed offsets: no
pairing is looked up by (i, j) in the chain loop.  A chain is glued to
all its partners at once.  Its Weyl row (the seed window's adjugate
times its lambdas, the det and lambda_1) is computed once per seed and
handed down to the seed's extensions, which keep its first window; each
pair costs one exact division and the divisibility test.

The closed polygons of every radius are deduplicated together by
``core.canonical_key``, re-verified and decorated; each record takes its
radius from the verification, and the catalog is sorted by (r, n, body),
so it depends only on (lambda_max, mode).
Every result is a ``NamedTuple``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Sequence

from .core import (
    PolygonDatum,
    _window_adjugate,
    _window_det,
    canonical_key,
    pair_count,
    polygon_table,
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


class EnumerationResult(NamedTuple):
    records: tuple[CatalogRecord, ...]
    cap_events: tuple[Fraction, ...]  # radii whose chains reached max_sides, ascending


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


def _seed_layout(lambda_max: int) -> tuple[int, int]:
    """(L, S) of the seed layout for lambdas <= lambda_max (see ``collect_radii``).

    L = lambda_max.bit_length() bits hold one lambda, and a seed's long
    pairing b sits above its lowest S = 3 L + 4 bits.
    """
    width = lambda_max.bit_length()
    return width, 3 * width + 4


# (b, seed, mirror, num, det) of a window: the seed's fields below b, and
# the mirror's, or None (see ``_windows``).
Window = tuple[int, int, int | None, int, int]


def _windows(
    lambda_max: int, b_cap: int | None = None, b_min: int = 0
) -> Iterator[Window]:
    """Admissible hyperbolic 3-windows (b, seed, mirror, num, det) of square r <= 0.

    Adjacent pairings run over [0, ADJACENT_MAX], lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair, and the long pairing upward from ``b_min`` to the shape's
    bound, or to ``b_cap`` if that is smaller.  The Weyl square of a
    window is num / det, with det < 0.  ``seed`` is the window's shape
    (a, c, l1, l2, l3) packed as its seed's fields below b, so the seed
    is ``b << S | seed`` (see ``collect_radii``); it is packed once per
    shape, after the shape's skip tests.

    Only one window of each mirror pair is yielded: the shapes with
    (a, l1) <= (c, l3).  The mirror (c, b, a, l3, l2, l1) of a window has
    the same num, det and stride, since each is symmetric under a <-> c,
    l1 <-> l3, and it is admissible exactly when the window is (the
    partner relation is symmetric).  ``mirror`` is the mirror's shape,
    packed as ``seed`` is, or None when the window is its own mirror
    (a == c, l1 == l3).

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
    exactly for those b, since l1/g and l3/g are coprime.  It starts at
    the first multiple b0 >= b_min, where num, det and their first
    differences come from the closed forms; num(b0) < 0 puts b0 past the
    larger root, so such a shape is skipped before the root is taken.
    Along that stride num and det are quadratics in the step count with
    constant second differences 2 n2 s^2 and -4 s^2, so each window costs
    a few additions.
    """
    width, _ = _seed_layout(lambda_max)
    partners = [_partners(lambda_max, a) for a in range(ADJACENT_MAX + 1)]
    for a in range(ADJACENT_MAX + 1):
        across_a = partners[a]
        for c in range(a, ADJACENT_MAX + 1):
            across_c = partners[c]
            # det(b) = 8 - 2(a^2 + b^2 + c^2) - 2abc
            d1 = -2 * a * c
            d0 = 8 - 2 * (a * a + c * c)
            # The stride s is at most lambda_max^2.  With det(0) >= 0 a
            # stride past b_cap leaves only b = 0 under the cap, which is
            # no window: skip such shapes before solving num's quadratic.
            s_max = b_cap if b_cap is not None and d0 >= 0 else lambda_max * lambda_max
            for l1 in range(1, lambda_max + 1):
                l3_min = l1 if c == a else 1  # (a, l1) <= (c, l3)
                for l2 in across_a[l1]:
                    # the shape's fields above l3, and its mirror's below c
                    shape_hi = (((l1 << 2 | a) << width | l2) << 2 | c) << width
                    mirror_lo = (l2 << 2 | a) << width | l1
                    for l3 in across_c[l2]:
                        if l3 < l3_min:
                            continue
                        g = gcd(l1, l3)
                        s = (l1 // g) * (l3 // g)
                        if s > s_max:
                            continue
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
                        b0 = -(-b_min // s) * s
                        num = (n2 * b0 + n1) * b0 + n0
                        if num < 0:  # b0 is past num's larger root
                            continue
                        b_max = (n1 + isqrt(n1 * n1 - 4 * n2 * n0)) // (-2 * n2)
                        if b_cap is not None and b_max > b_cap:
                            b_max = b_cap
                        seed = shape_hi | l3
                        mirror = None if c == a and l3 == l1 else (
                            (l3 << 2 | c) << (2 * width + 2) | mirror_lo)
                        t, ss = 2 * b0 + s, s * s  # f(b0 + s) - f(b0) = (f2 t + f1) s
                        dnum = (n2 * t + n1) * s
                        d, dd = (d1 - 2 * b0) * b0 + d0, (d1 - 2 * t) * s
                        ddnum, ddd = 2 * n2 * ss, -4 * ss
                        for b in range(b0, b_max + 1, s):
                            if d < 0:
                                yield b, seed, mirror, num, d
                            num += dnum
                            dnum += ddnum
                            d += dd
                            dd += ddd


Radius = tuple[int, int]  # p / q in lowest terms, q > 0


def collect_radii(lambda_max: int) -> dict[Radius, list[int]]:
    """All Weyl squares r < 0 of a bounded admissible 3-window, each with those windows.

    The long pairing is scanned over [0, RADIUS_B_MAX], the one place
    assumption (N) enters; adjacent pairings over [0, 2]; lambdas over
    [1, lambda_max]^3 with the twisting divisibility for every ordered
    pair.  Each window, and its mirror, is a seed of its square.  A
    radius r = p / q is keyed by the integer pair (p, q) in lowest terms
    with q > 0.  A window is filed under its float num / det and checked
    exactly against the first window of that float, num d' == num' d, so
    one gcd per radius reduces its key; two squares sharing a float raise
    EngineError (see ``_add_seeds``: radii never do).  Sorted ascending by
    the float, which is exact for distinct floats.

    A seed is one int, the window (a, b, c, l1, l2, l3) packed from the
    top as b, l1, a, l2, c, l3, with L = lambda_max.bit_length() bits
    for each lambda and 2 bits each for a and c (``_seed_layout``).  b
    is on top because it alone has no bound known before the sweep: it
    needs no width, and it sits above the lowest S = 3 L + 4 bits.  So
    a seed is closed, b <= 2, exactly when it is below 3 << S.  Its
    head (l1, a, l2) and its tail (l2, c, l3), the keys ``_join_seeds``
    matches, are two bit fields of width 2 L + 2.  A seed becomes a
    ``ChainState`` only in ``_join_seeds``, and only if it closes or
    joins.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    _, shift = _seed_layout(lambda_max)
    by_float: dict[float, tuple[int, int, list[int]]] = {}
    for b, seed, mirror, num, d in _windows(lambda_max, RADIUS_B_MAX):
        if num > 0:  # r = num/det with det < 0, so r < 0 iff num > 0
            r = num / d
            hit = by_float.get(r)
            if hit is None:
                hit = by_float[r] = (num, d, [])
            elif hit[0] * d != num * hit[1]:
                raise EngineError(f"squares {hit[0]}/{hit[1]} and {num}/{d} share a float")
            bucket = hit[2]
            b <<= shift
            bucket.append(b | seed)
            if mirror is not None:
                bucket.append(b | mirror)
    radii: dict[Radius, list[int]] = {}
    for r in sorted(by_float):
        num, d, bucket = by_float[r]
        g = gcd(num, d)
        radii[-num // g, -d // g] = bucket
    return radii


def _add_seeds(
    seeds: dict[Radius, list[int]], windows: Iterator[Window], lambda_max: int
) -> dict[Radius, list[int]]:
    """Add each of ``windows`` whose square is a key of ``seeds``, and its mirror, to seeds.

    Each is filed as one int, ``b << S | seed`` (see ``collect_radii``).
    A window is looked up by the float num / d and accepted only if its
    square is exactly the key's, p d == num q.  int / int is correctly
    rounded, so equal squares give equal floats and no seed is missed.
    Two distinct keys sharing a float raise EngineError; radii never do:
    their denominators divide some |det| <= 512 (b <= 14), so two of them
    differ by at least 1/512^2, far above a float step at their size.
    """
    by_float: dict[float, tuple[int, int, list[int]]] = {}
    for (p, q), bucket in seeds.items():
        first = by_float.setdefault(p / q, (p, q, bucket))
        if first[2] is not bucket:
            raise EngineError(f"squares {first[0]}/{first[1]} and {p}/{q} share a float")
    _, shift = _seed_layout(lambda_max)
    for b, seed, mirror, num, d in windows:
        hit = by_float.get(num / d)
        if hit is not None:
            p, q, bucket = hit
            if p * d == num * q:
                b <<= shift
                bucket.append(b | seed)
                if mirror is not None:
                    bucket.append(b | mirror)
    return seeds


def seed_triples(r: Fraction | int, lambda_max: int) -> list[int]:
    """All 3-windows whose Weyl square is exactly r (r <= 0: the sweep reaches no more).

    Each is a seed, one int (see ``collect_radii``).
    """
    target = Fraction(r)
    if target > 0:
        raise ValueError("the Weyl square of a seed window is never positive")
    try:
        float(target)
    except OverflowError:  # a window's square is num / det of small integers
        return []
    key = (target.numerator, target.denominator)
    return _add_seeds({key: []}, _windows(lambda_max), lambda_max)[key]


def _seed_map(lambda_max: int) -> dict[Radius, list[int]]:
    """Seeds for every radius of collect_radii(lambda_max), each window visited once:
    collect_radii seeds the windows with b <= RADIUS_B_MAX, this the wider ones."""
    wide = _windows(lambda_max, b_min=RADIUS_B_MAX + 1)
    return _add_seeds(collect_radii(lambda_max), wide, lambda_max)


def partition_closed(
    chains: list[ChainState],
) -> tuple[list[PolygonDatum], list[ChainState]]:
    """Split chains at the closure threshold (delta_1, delta_length) >= -2.

    Closed chains become polygons, kept only with coprime lambdas;
    the rest are returned for extension.

    Every caller in this package passes closed chains only: the seeds that
    ``_join_seeds`` closes and the extensions that ``extend_step`` closes.
    So the second list is always empty there.  The two-list shape stays
    until the benchmark's next change (ROADMAP item 1), because
    ``perfbench/tracer.py`` wraps this function by name and reads the
    chains passed in and the first list returned.
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


# (A1, A2, A3, det, lambda_1, (lambda_1,)) of a chain's first window, with
# A = adj(g) lam: all that gluing needs of x beyond its pairings.
WeylRow = tuple[int, int, int, int, int, tuple[int]]
# Of each live chain of a round: its Weyl row (None for a seed), and its
# partners, the indices in the round of the chains it is glued to: a
# bucket of the seed join, then a range.
Lineage = tuple[list[WeylRow | None], list[Sequence[int]]]


def _weyl_row(x: ChainState) -> WeylRow:
    """The Weyl row of x's first window, its seed window, which its extensions keep."""
    xp, lam = x.pairings, x.lam
    # (1,2), (1,3), (2,3) at offsets 0, 1, m-1
    a, b, c = -xp[0], -xp[1], -xp[x.length - 1]
    l1, l2, l3 = lam[0], lam[1], lam[2]
    a11, a12, a13, a22, a23, a33 = _window_adjugate(a, b, c)
    return (
        a11 * l1 + a12 * l2 + a13 * l3,
        a12 * l1 + a22 * l2 + a23 * l3,
        a13 * l1 + a23 * l2 + a33 * l3,
        _window_det(a, b, c),
        l1,
        lam[:1],
    )


def _seed_square(x: ChainState) -> Radius:
    """The radius of x: its seed window's Weyl square, which every window of x shares."""
    a1, a2, a3, det, l1, _ = _weyl_row(x)
    num = l1 * a1 + x.lam[1] * a2 + x.lam[2] * a3
    g = gcd(num, det)  # det < 0, so the key has q = -det / g > 0
    return -num // g, -det // g


def _glue(
    x: ChainState, row: WeylRow, chains: list[ChainState], js: Sequence[int]
) -> list[tuple[ChainState, int | None]]:
    """Extensions of chain x by the last side of each chain y = chains[j], j in js.

    Each y's sides 1..m-1 are assumed to be x's sides 2..m.  Only
    (delta_1, delta_n), n = m + 1, is unknown; it must come out a
    non-positive integer satisfying divisibility against both lambdas.
    The extension is x's side 1 followed by y's sides: its row 1 is x's
    row 1 plus (delta_1, delta_n).  Each extension comes with the index j
    of its y, in the order of js, or with None when (delta_1, delta_n)
    >= -2: that is its closing pair, so it is closed and is never glued.

    ``row`` is x's ``_weyl_row``.  x's first window is its seed window:
    det < 0, and the Weyl equation (rho, delta_n) = -lambda_n reads
    A1 g1n = lambda_n det - A2 g2n - A3 g3n with A = adj(g) lam.  Every term
    of A1 = (4 - c^2) l1 + (2a + bc) l2 + (ac + 2b) l3 is >= 0 (c <= 2), and
    all vanish only at a = b = 0, c = 2, where det = 0: A1 > 0, the geometric
    (delta_1, delta_n) is the unique solution, and the glued Gram has rank 3.
    Each pair costs one exact division and the divisibility test.
    """
    a1, a2, a3, det, l1, lam1 = row
    m = x.length
    head, n = x.pairings[: m - 1], m + 1
    i2n, i3n = m - 2, 2 * m - 4  # y's (1,m), (2,m)
    new = tuple.__new__
    out: list[tuple[ChainState, int | None]] = []
    for j in js:
        _, yp, ylam = chains[j]
        ln = ylam[-1]
        g1n, rem = divmod(ln * det - a2 * yp[i2n] - a3 * yp[i3n], a1)
        if rem or g1n > 0 or (ln * g1n) % l1 or (l1 * g1n) % ln:
            continue
        ch = new(ChainState, (n, head + (g1n,) + yp, lam1 + ylam))
        out.append((ch, j if g1n < -2 else None))
    return out


def extend_step(
    chains: list[ChainState],
    lineage: Lineage,
    periodic: dict[tuple, PeriodicChainReport] | None = None,
) -> tuple[list[ChainState], Lineage, list[ChainState]]:
    """One gluing round over the radii of a pass at once.

    ``chains`` are the live chains of one length, grouped by radius, with
    their lineage: from ``_join_seeds`` for seeds, else from the round
    before.  Returns the live extensions, in the order of x, then of y,
    each with its right parent's range of them as its partners (see the
    module docstring), and the closed extensions, in the same order.
    With ``periodic`` (parabolic mode) an extension whose newest window
    repeats its seed window is settled there instead of going live:
    ``periodic`` keeps the first chain of each (period, signature).
    """
    rows, partners = lineage
    if not len(rows) == len(partners) == len(chains):
        raise EngineError("extend_step needs the lineage of its chains")
    out: list[ChainState] = []
    out_rows: list[WeylRow | None] = []
    rights: list[int] = []  # each live extension's right parent
    at: list[int] = []  # where each chain's live extensions start in out
    closing: list[ChainState] = []
    for x, row, js in zip(chains, rows, partners):
        at.append(len(out))
        if js:
            if row is None:  # a seed
                row = _weyl_row(x)
            for ch, j in _glue(x, row, chains, js):
                if j is None:
                    closing.append(ch)
                    continue
                if periodic is not None:
                    rep = _detect_period(ch)
                    if rep is not None:
                        periodic.setdefault((rep.period, rep.signature), rep)
                        continue
                out.append(ch)
                out_rows.append(row)
                rights.append(j)
    at.append(len(out))
    return out, (out_rows, [range(at[j], at[j + 1]) for j in rights]), closing


def _join_seeds(
    seeds: dict[Radius, list[int]],
    radii: list[Radius],
    lambda_max: int,
    at_cap: bool = False,
) -> tuple[list[ChainState], Lineage, list[ChainState]]:
    """The joining seeds of ``radii``, popped from ``seeds``, their lineage and the closed seeds.

    Radius by radius, seeds with (delta_1, delta_3) >= -2 are closed, and
    the others are joined on x's tail (delta_2, delta_3), lambda_2,
    lambda_3 against y's head (delta_1, delta_2), lambda_1, lambda_2 by a
    hash join freed with the radius.  Both keys are bit fields of the
    seed (see ``collect_radii``).  Only a seed that closes or takes part
    in a join, as x or as y, becomes a ``ChainState``: any other is glued
    to nothing and nothing is glued to it.  With ``at_cap`` (a chain loop
    capped at 3 sides, which caps every live seed) every live seed becomes
    one.
    """
    width, shift = _seed_layout(lambda_max)
    lmask, kmask = (1 << width) - 1, (1 << 2 * width + 2) - 1
    at_l2, at_a, at_l1 = width + 2, 2 * width + 2, 2 * width + 4
    closes = 3 << shift  # b <= 2
    new = tuple.__new__
    live: list[ChainState] = []
    live_tails: list[int] = []
    partners: list[Sequence[int]] = []
    closing: list[ChainState] = []
    for r in radii:
        found = seeds.pop(r)
        heads = {w >> at_l2 & kmask for w in found if w >= closes}
        tails = {w & kmask for w in found if w >= closes}
        first = len(live)
        by_head: dict[int, list[int]] = {}
        for w in found:
            tail, head = w & kmask, w >> at_l2 & kmask
            if w >= closes and not (at_cap or tail in heads or head in tails):
                continue
            x = new(ChainState, (
                3,
                (-(w >> at_a & 3), -(w >> shift), -(w >> width & 3)),
                (w >> at_l1 & lmask, head & lmask, w & lmask),
            ))
            if w < closes:
                closing.append(x)
                continue
            bucket = by_head.get(head)
            if bucket is None:
                by_head[head] = [len(live)]
            else:
                bucket.append(len(live))
            live.append(x)
            live_tails.append(tail)
        partners += [by_head.get(tail, ()) for tail in live_tails[first:]]
    return live, ([None] * len(live), partners), closing


# Radii glued together in one pass of the chain loop.  The chains of a
# round die together, and CPython keeps up to 2000 freed tuples of each
# size below 20 for reuse; gluing every radius at lambda = 16 at once left
# about 0.5 MB of dead chain tuples there, which passes of this many radii
# reuse from one pass to the next.
_PASS_RADII = 128


def _chain_loop(
    seeds: dict[Radius, list[int]],
    lambda_max: int,
    max_sides: int,
    periodic: dict[tuple, PeriodicChainReport] | None = None,
) -> tuple[list[PolygonDatum], list[ChainState]]:
    """Glue the seeds of every radius until each chain has closed or died, or reached max_sides.

    ``seeds`` are packed for ``lambda_max`` (see ``collect_radii``).
    Returns the closed polygons and the chains alive at the cap, in
    order; ``seeds`` is emptied.  Radii go in passes (see the module
    docstring).  ``periodic`` (parabolic mode) goes to ``extend_step``,
    which settles each periodic extension there.
    """
    closed: list[PolygonDatum] = []
    capped: list[ChainState] = []
    order = list(seeds)
    at_cap = max_sides == 3
    for first in range(0, len(order), _PASS_RADII):
        chains, lineage, closing = _join_seeds(
            seeds, order[first : first + _PASS_RADII], lambda_max, at_cap
        )
        closed += partition_closed(closing)[0]
        while chains:
            if chains[0].length >= max_sides:
                capped += chains
                break
            chains, lineage, closing = extend_step(chains, lineage, periodic)
            closed += partition_closed(closing)[0]
    return closed, capped


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def _record_from_canonical(key: tuple[int, tuple[int, ...]]) -> CatalogRecord:
    n, body = key
    k = pair_count(n)
    d = PolygonDatum(n, tuple([-v for v in body[:k]]), body[k:])
    report = verify_realization(d)
    if not report.valid:
        raise InvariantViolation(
            f"emitted datum fails verification: {report.failure_text()}"
        )
    flags = report.flags
    return CatalogRecord(
        r=report.weyl_square,
        n=d.n,
        body=body,
        lam=d.lam,
        pairings=d.pairings,
        table=polygon_table(d),
        cartan=report.cartan,
        symcartan=report.symcartan,
        sym_order=report.sym_order,
        compact=flags.compact,
        untwisted=flags.untwisted,
        kind=flags.kind,
    )


def run_elliptic(
    lambda_max: int,
    max_sides: int = DEFAULT_MAX_SIDES,
    *,
    r_filter: Fraction | None = None,
) -> EnumerationResult:
    """The full elliptic classification for lambda_i <= lambda_max.

    Deterministic: the closed polygons are deduplicated by
    ``canonical_key``, each record takes its r from ``verify_realization``,
    and the catalog is sorted by (r, n, canonical body).  When a live
    chain hits ``max_sides``, its seed window's square is listed in
    ``cap_events``, ascending as the chain loop leaves them, and that
    radius's output is partial.  ``r_filter`` searches that square alone.
    """
    if lambda_max < 1:
        raise ValueError("lambda_max must be >= 1")
    if max_sides < 3:
        raise ValueError("max_sides must be >= 3")
    if r_filter is None:
        seeds = _seed_map(lambda_max)
    else:
        # One sweep finds every window of square r < 0, and r is a radius
        # of collect_radii exactly when one of them has b <= RADIUS_B_MAX.
        square = Fraction(r_filter)
        found = seed_triples(square, lambda_max) if square < 0 else []
        _, shift = _seed_layout(lambda_max)
        narrow = any(w >> shift <= RADIUS_B_MAX for w in found)
        seeds = {square.as_integer_ratio(): found} if narrow else {}
    closed, capped = _chain_loop(seeds, lambda_max, max_sides)
    records = sorted(map(_record_from_canonical, {canonical_key(poly) for poly in closed}))
    squares = dict.fromkeys(map(_seed_square, capped))
    return EnumerationResult(tuple(records), tuple(Fraction(*r) for r in squares))


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
    """Report ch as periodic if its newest decorated 3-window repeats its seed window.

    ch is glued from two live chains x and y.  A live chain's windows are
    pairwise distinct, by induction on its length: it is a seed, or it was
    glued from two live chains and its newest window did not repeat its
    seed window.  ch's windows are x's followed by y's last, and y's are
    ch's from the second on, so y's last can repeat only ch's first, its
    seed window.  The period is then length - 3.
    """
    p, lam, n = ch.pairings, ch.lam, ch.length
    if p[-3:] + lam[-3:] != (p[0], p[1], p[n - 1]) + lam[:3]:
        return None
    return PeriodicChainReport(
        period=n - 3,
        signature=_min_rotation(tuple(_chain_windows(ch)[:-1])),
        length=n,
        lam=lam,
        pairings=p,
    )


def run_parabolic(
    lambda_max: int, max_sides: int = DEFAULT_MAX_SIDES
) -> ParabolicReport:
    """The r = 0 pipeline: periodic-chain detection on the r = 0 seeds.

    Chains whose newest decorated 3-window repeats their seed window are
    reported with their period and a rotation-invariant signature instead
    of being extended further; anything still alive at ``max_sides`` is
    counted as capped.  Exploratory mode: the parabolic classification
    itself is out of scope here.

    Each (period, signature) reports its least chain, the shortest, then
    by windows (a, c, l1, l2, l3, b), whatever order ``seed_triples``
    finds seeds in: sorted seeds give sorted rounds (see the module
    docstring), so ``extend_step`` meets each key's least chain first.

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
    seeds = seed_triples(0, lambda_max)
    width, shift = _seed_layout(lambda_max)
    lmask = (1 << width) - 1
    seeds.sort(key=lambda w: (  # (a, c, l1, l2, l3, b)
        w >> 2 * width + 2 & 3, w >> width & 3,
        w >> 2 * width + 4 & lmask, w >> width + 2 & lmask, w & lmask, w >> shift,
    ))
    periodic: dict[tuple, PeriodicChainReport] = {}
    closed, capped = _chain_loop({(0, 1): seeds}, lambda_max, max_sides, periodic)
    if closed:
        raise InvariantViolation(f"a chain closed at r = 0: {closed[0]}")
    reports = tuple(periodic[key] for key in sorted(periodic))
    return ParabolicReport(reports, len(capped))
