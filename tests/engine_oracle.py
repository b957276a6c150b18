"""Slow reference implementations for the chain kernel and window scan in ``engine``.

``pair`` looks one pairing up by its side indices, as ``ChainState.pair``
and ``PolygonDatum.pair`` did.  The join keys and the extended chain are
rebuilt entry by entry through it, and ``key_join`` is one gluing round
as a hash join on the whole overlap, as ``extend_step`` glued before it
joined chains by lineage; ``reached_chains`` runs the chain loop on it.
``radius`` reads an engine radius key (p, q) as a ``Fraction``, checking
that it is in lowest terms.  The window scan walks every (a, c, lam) triple with
a divisibility test per triple, every long pairing b with a divisibility
test per b, and evaluates num and det per window from the closed forms,
as the engine did before it enumerated admissible shapes directly and
stepped the long pairing by second differences; its bound on b comes
from a callback; it yields both windows of each mirror pair, and
``half`` and ``mirror_expanded`` relate its stream to the engine's.
``long_pairing_bound(r_max)`` bounds b for squares at
most r_max, as the seed sweep did before it stopped at num's larger root
(the same bound at r_max = 0).  ``bucketed_seeds`` files windows under
their squares by an exact gcd-reduced key, as the seed sweep did before
it looked windows up by float.  The tests compare the fast paths against
them.  ``radius_slice_mismatches`` compares a full
run against the same search run one radius at a time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

from hypercartan.core import _window_adjugate, _window_det, pack_index
from hypercartan.engine import (
    ADJACENT_MAX,
    DEFAULT_MAX_SIDES,
    ChainState,
    EnumerationResult,
    _detect_period,
    collect_radii,
    partition_closed,
    run_elliptic,
)


def pair(x, i: int, j: int) -> int:
    """(delta_i, delta_j), 1-based, of a chain or polygon x: its packed entry."""
    if i == j:
        return 2
    if i > j:
        i, j = j, i
    return x.pairings[pack_index(len(x.lam), i, j)]


def window_square_num(a: int, b: int, c: int, l1: int, l2: int, l3: int) -> int:
    """Numerator lam^T adj(g) lam of the Weyl square (denominator is det)."""
    a11, a12, a13, a22, a23, a33 = _window_adjugate(a, b, c)
    return (
        a11 * l1 * l1
        + a22 * l2 * l2
        + a33 * l3 * l3
        + 2 * (a12 * l1 * l2 + a13 * l1 * l3 + a23 * l2 * l3)
    )


def adjacent_divisible(a: int, c: int, l1: int, l2: int, l3: int) -> bool:
    return (
        (l2 * a) % l1 == 0
        and (l1 * a) % l2 == 0
        and (l3 * c) % l2 == 0
        and (l2 * c) % l3 == 0
    )


def long_divisible(b: int, l1: int, l3: int) -> bool:
    return (l3 * b) % l1 == 0 and (l1 * b) % l3 == 0


def shape_quadratics(a: int, c: int, lam: tuple[int, int, int]) -> tuple[int, ...]:
    """(n2, n1, n0, d1, d0) of num(b) and det(b), interpolated at b = 0, 1, 2."""
    f0, f1, f2 = (window_square_num(a, b, c, *lam) for b in (0, 1, 2))
    e0, e1, e2 = (_window_det(a, b, c) for b in (0, 1, 2))
    assert e2 - 2 * e1 + e0 == -4  # det has leading coefficient -2
    n2 = (f2 - 2 * f1 + f0) // 2
    return n2, f1 - f0 - n2, f0, e1 - e0 + 2, e0


# The bound on the long pairing of one window shape (a, c, lam).  The shape
# fixes num and det as integer quadratics in b,
#   num(b) = n2 b^2 + n1 b + n0,   det(b) = -2 b^2 + d1 b + d0,
# and b_max(n2, n1, n0, d1, d0) is the largest long pairing to scan.
BMax = Callable[[int, int, int, int, int], int]


def long_pairing_bound(r_max: Fraction) -> BMax:
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


def windows(lambda_max: int, b_max: BMax):
    """engine._windows over every (a, c) and lambda triple and every long pairing.

    Both mirror windows of a pair are yielded, in the order (a, c, lam, b).
    """
    for a in range(ADJACENT_MAX + 1):
        for c in range(ADJACENT_MAX + 1):
            for lam in itertools.product(range(1, lambda_max + 1), repeat=3):
                l1, l2, l3 = lam
                if not adjacent_divisible(a, c, l1, l2, l3):
                    continue
                for b in range(b_max(*shape_quadratics(a, c, lam)) + 1):
                    d = _window_det(a, b, c)
                    if d < 0 and long_divisible(b, l1, l3):
                        yield a, b, c, lam, window_square_num(a, b, c, l1, l2, l3), d


def half(stream) -> list:
    """The windows (a, b, c, lam, num, det) of ``stream`` with (a, l1) <= (c, l3), in order.

    Reading a window from its other end swaps a and c and reverses lam and
    keeps b, num and det; this keeps one window of each such mirror pair.
    """
    return [w for w in stream if (w[0], w[3][0]) <= (w[2], w[3][2])]


def mirror_expanded(half_windows):
    """engine._windows' windows (a, b, c, lam, mirror, num, det) as (a, b, c, lam, num, det).

    Each window is followed by its mirror (c, b, a, mirror, num, det) when
    ``mirror`` is not None.
    """
    for a, b, c, lam, mirror, num, d in half_windows:
        yield a, b, c, lam, num, d
        if mirror is not None:
            yield c, b, a, mirror, num, d


def mirror_seed(ch: ChainState) -> ChainState:
    """A seed window read from its other end."""
    return ChainState(3, ch.pairings[::-1], ch.lam[::-1])


def bucketed_seeds(radii, windows) -> dict:
    """The windows (a, b, c, lam, num, det) of square r, as seeds, for each r in radii."""
    buckets = {(r.numerator, r.denominator): [] for r in radii}
    for a, b, c, lam, num, d in windows:
        g = gcd(num, d)
        bucket = buckets.get((-num // g, -d // g))
        if bucket is not None:
            bucket.append(ChainState(3, (-a, -b, -c), lam))
    return {r: buckets[r.numerator, r.denominator] for r in radii}


def reached_chains(seeds, parabolic: bool, max_sides: int = DEFAULT_MAX_SIDES):
    """Every chain the chain loop meets from these seeds, length by length.

    Follows engine._grow, gluing each round by ``key_join``: closed
    chains stop, and with ``parabolic`` a chain whose newest window state
    repeats is set aside.
    """
    chains = seeds
    while chains:
        yield from chains
        _, chains = partition_closed(chains)
        if parabolic:
            chains = [ch for ch in chains if _detect_period(ch) is None]
        if not chains or chains[0].length >= max_sides:
            break
        chains = key_join(chains)[1]


def head_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(pair(ch, i, j) for i in range(1, m) for j in range(i + 1, m))
    return pairs + ch.lam[: m - 1]


def tail_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(
        pair(ch, i, j) for i in range(2, m + 1) for j in range(i + 1, m + 1)
    )
    return pairs + ch.lam[1:]


def extended_chain(x: ChainState, y: ChainState, g1n: int) -> ChainState:
    m = x.length
    n = m + 1
    newp: list[int] = [pair(x, 1, j) for j in range(2, m + 1)]
    newp.append(g1n)
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            newp.append(pair(y, i - 1, j - 1))
    lam = (x.lam[0],) + y.lam
    return ChainState(n, tuple(newp), lam)


def weyl_pairing(x: ChainState, y: ChainState) -> Fraction:
    """(delta_1, delta_n) of x glued to y over the rationals, n = x.length + 1.

    The Weyl equation (rho, delta_n) = -lambda_n on x's first window:
    A1 g1n = lambda_n det - A2 (delta_2, delta_n) - A3 (delta_3, delta_n),
    with A = adj(g) lam and y's sides 1, 2, m standing for sides 2, 3, n.
    """
    m = x.length
    a, b, c = -pair(x, 1, 2), -pair(x, 1, 3), -pair(x, 2, 3)
    a11, a12, a13, a22, a23, a33 = _window_adjugate(a, b, c)
    l1, l2, l3 = x.lam[:3]
    ln = y.lam[-1]
    rhs = (
        ln * _window_det(a, b, c)
        - (a12 * l1 + a22 * l2 + a23 * l3) * pair(y, 1, m)
        - (a13 * l1 + a23 * l2 + a33 * l3) * pair(y, 2, m)
    )
    return Fraction(rhs, a11 * l1 + a12 * l2 + a13 * l3)


def key_join(chains: list[ChainState]) -> tuple[list[tuple], list[ChainState]]:
    """One gluing round by a hash join on the whole overlap: the pairs and the extensions.

    x and y join when tail_key(x) == head_key(y), in the order of x, then
    of y in ``chains``.  A pair extends x when its ``weyl_pairing`` is a
    non-positive integer passing the divisibility against lambda_1 and
    lambda_n; the extensions come out in the order of the pairs.
    """
    by_head: dict[tuple, list[ChainState]] = {}
    for y in chains:
        by_head.setdefault(head_key(y), []).append(y)
    pairs = [(x, y) for x in chains for y in by_head.get(tail_key(x), ())]
    out = []
    for x, y in pairs:
        g1n = weyl_pairing(x, y)
        if g1n.denominator == 1 and g1n <= 0 and long_divisible(int(g1n), x.lam[0], y.lam[-1]):
            out.append(extended_chain(x, y, int(g1n)))
    return pairs, out


def radius(key: tuple[int, int]) -> Fraction:
    """The square p / q of an engine radius key (p, q), which must be in lowest terms with q > 0."""
    p, q = key
    assert type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1, key
    return Fraction(p, q)


def chain_windows(ch: ChainState) -> list[tuple[int, ...]]:
    """engine._chain_windows through ``pair``."""
    return [
        (
            pair(ch, i, i + 1),
            pair(ch, i, i + 2),
            pair(ch, i + 1, i + 2),
            ch.lam[i - 1],
            ch.lam[i],
            ch.lam[i + 1],
        )
        for i in range(1, ch.length - 1)
    ]


def radius_slice_mismatches(
    full: EnumerationResult, lambda_max: int, max_sides: int = DEFAULT_MAX_SIDES
) -> list:
    """Radii r where run_elliptic(lambda_max, max_sides, r_filter=r) is not full's slice at r.

    Checks every radius carrying a record in ``full`` and the first radius
    of collect_radii(lambda_max) carrying none.  The slice at r is the
    records of ``full`` with square r and its cap events at r.  ``None``
    is reported when those slices, concatenated in ascending r, are not
    ``full.records``: the full run is the radius-by-radius search in
    ascending order.
    """
    with_records = sorted({rec.r for rec in full.records})
    radii = map(radius, collect_radii(lambda_max))
    empty = next(r for r in radii if r not in with_records)
    mismatches: list = []
    concatenated: list = []
    for r in with_records + [empty]:
        alone = run_elliptic(lambda_max, max_sides, r_filter=r)
        expected = EnumerationResult(
            tuple(rec for rec in full.records if rec.r == r),
            tuple(ev for ev in full.cap_events if ev == r),
        )
        if alone != expected:
            mismatches.append(r)
        concatenated.extend(alone.records)
    if tuple(concatenated) != full.records:
        mismatches.append(None)
    return mismatches
