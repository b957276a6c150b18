"""Slow reference implementations for the window scan and chain loop in ``engine``.

The tests compare the engine with these oracles at three seams, and one
adapter here reads each seam from the engine, so a change of the
engine's representation edits only that adapter:

1. *The seeds.*  ``engine_seeds(lambda_max, r)`` reads ``engine._seed_map``
   with each seed unpacked, against ``seed_map``, built from ``windows``,
   and for one r against the full map's entry.
2. *The chains.*  ``engine_chain_loop(seeds, lambda_max, k)`` runs
   ``engine._chain_loop`` on a packed seed map capped at k sides and
   returns its closed polygons and the chains alive at the cap, against
   ``rounds``, one radius at a time.
3. *The records and cap events.*  ``run_elliptic`` and ``run_parabolic``
   return them in public types, so this seam needs no adapter: the tests
   check them against the goldens, the command pins (``pins.json``) and
   ``radius_slice_mismatches``.

Besides ``_seed_map`` and ``_chain_loop`` the tests name two private
engine functions: ``_windows``, whose arguments (order, stride, cap and
``b_min``, float keys, field widths) they pin against ``windows``, and
``_detect_period``, which they wrap to compare with ``detect_period``.
``test_engine.test_tests_name_four_private_engine_names`` fails when a
test names any other.

``pair`` looks one pairing up by its side indices, as ``ChainState.pair``
and ``PolygonDatum.pair`` did.  The join keys and the extended chain are
rebuilt entry by entry through it, ``glued`` glues one pair, and
``key_join`` is one gluing round as a hash join on the whole overlap;
``rounds`` runs the chain loop of one radius on it, splitting off the
closed chains itself, and ``reached_chains`` lists the chains that loop
meets.  ``radii`` reads the radii of ``collect_radii`` as ``Fraction``s
from the (num, det) each float key holds, and ``first_window_square`` is
the square of a chain's or polygon's sides 1, 2, 3, the radius it
belongs to.
The window scan walks every (a, c, lam) triple with a divisibility test
per triple, every long pairing b with a divisibility test per b, and
evaluates num and det per window from the closed forms; its bound on b
comes from a callback; it yields both windows of each mirror pair, and
``half`` and ``mirror_expanded`` relate its stream to the engine's.
``long_pairing_bound(r_max)`` bounds b for squares at most r_max (at
r_max = 0, num's larger root).  ``bucketed_seeds`` files windows under
their squares by an exact gcd-reduced key.  ``detect_period`` scans every
earlier window of a chain for its newest one, and ``min_rotation`` is a
period block's least rotation.  ``radius_slice_mismatches`` compares a
full run against the same search run one radius at a time, and
``cyclic_windows`` lists a polygon's windows around it.
``lies_on_no_coprime_polygon`` is the prune lemma's hypothesis, tested
prime power by prime power, with which ``seed_map`` drops seeds as the
engine's window scan does.
``trimmed_windows`` trims the window graph, and ``uncertified_squares``
lists the trimmed squares that ``collect_radii`` misses: the certificate
for assumption (N) at one lambda_max.

The engine files each seed as one int.  ``seed_window`` reads one back
field by field and ``pack_seed`` packs one, both from the documented
layout; ``seed_chains`` and ``unpacked`` turn a list of seeds and a seed
map into chains, ``unpacked`` keying each radius by the square of its
seeds, and ``unpacked_windows`` reads the packed shapes of
``engine._windows``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable

from hypercartan.core import PolygonDatum, _window_adjugate, _window_det, pack_index
from hypercartan.engine import (
    ADJACENT_MAX,
    DEFAULT_MAX_SIDES,
    RADIUS_B_MAX,
    ChainState,
    EnumerationResult,
    PeriodicChainReport,
    _chain_loop,
    _seed_map,
    collect_radii,
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


def first_window_square(x) -> Fraction:
    """The Weyl square of sides 1, 2, 3 of a chain or polygon x, from the closed forms."""
    a, b, c = -pair(x, 1, 2), -pair(x, 1, 3), -pair(x, 2, 3)
    return Fraction(window_square_num(a, b, c, *x.lam[:3]), _window_det(a, b, c))


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


def seed_window(w: int, lambda_max: int) -> tuple[int, int, int, tuple[int, int, int]]:
    """The window (a, b, c, lam) of an engine seed, read field by field from the bottom.

    From the bottom a seed holds l3, c, l2, a and l1, each lambda in
    lambda_max.bit_length() bits and a and c in 2 bits, and b above them.
    """
    width = lambda_max.bit_length()
    fields = []
    for bits in (width, 2, width, 2, width):
        w, field = divmod(w, 2**bits)
        fields.append(field)
    l3, c, l2, a, l1 = fields
    return a, w, c, (l1, l2, l3)


def pack_seed(a: int, b: int, c: int, lam: tuple[int, int, int], lambda_max: int) -> int:
    """The engine seed of the window (a, b, c, lam): ``seed_window`` inverted."""
    width = lambda_max.bit_length()
    l1, l2, l3 = lam
    w = b
    for field, bits in ((l1, width), (a, 2), (l2, width), (c, 2), (l3, width)):
        assert 0 <= field < 2**bits, (field, bits)
        w = w * 2**bits + field
    return w


def seed_chains(seeds: list[int], lambda_max: int) -> list[ChainState]:
    """Engine seeds as the chains of their windows, in order."""
    chains = []
    for w in seeds:
        a, b, c, lam = seed_window(w, lambda_max)
        chains.append(ChainState(3, (-a, -b, -c), lam))
    return chains


def unpacked(seed_map: dict, lambda_max: int) -> dict:
    """A packed seed map as {radius: ``seed_chains``}, radii and seeds in order.

    Each key's radius is the one ``first_window_square`` of all its seeds,
    and the key must be that radius's float.
    """
    found = {}
    for key, seeds in seed_map.items():
        chains = seed_chains(seeds, lambda_max)
        [r] = set(map(first_window_square, chains))
        assert key == float(r), (key, r)
        found[r] = chains
    return found


def engine_seeds(lambda_max: int, r_filter: Fraction | None = None) -> dict:
    """Seam 1: ``engine._seed_map(lambda_max, r_filter)``, ``unpacked``."""
    return unpacked(_seed_map(lambda_max, r_filter), lambda_max)


def engine_chain_loop(
    seed_map: dict, lambda_max: int, max_sides: int, parabolic: bool = False
) -> tuple[list[PolygonDatum], list[ChainState]]:
    """Seam 2: ``engine._chain_loop`` on a copy of a packed seed map, capped at max_sides.

    Returns the closed polygons and the chains alive at the cap.  With
    ``parabolic`` the loop sets periodic chains aside, as
    ``run_parabolic`` runs it.
    """
    return _chain_loop(dict(seed_map), lambda_max, max_sides, {} if parabolic else None)


def unpacked_windows(half_windows, lambda_max: int):
    """engine._windows' windows (b, seed, mirror, num, det) as (a, b, c, lam, mirror, num, det).

    The shape fields are read by ``seed_window`` under b; ``mirror`` is
    read the same way as a window (a, b, c, lam), or stays None.
    """
    top = 2 ** (3 * lambda_max.bit_length() + 4)
    for b, seed, mirror, num, d in half_windows:
        window = seed_window(b * top + seed, lambda_max)
        if mirror is not None:
            mirror = seed_window(b * top + mirror, lambda_max)
        yield (*window, mirror, num, d)


def mirror_expanded(half_windows, lambda_max: int):
    """engine._windows' windows as (a, b, c, lam, num, det), each followed by its mirror.

    The mirror comes from the window's packed mirror field, when that is
    not None.
    """
    for a, b, c, lam, mirror, num, d in unpacked_windows(half_windows, lambda_max):
        yield a, b, c, lam, num, d
        if mirror is not None:
            yield (*mirror, num, d)


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


def prime_powers(n: int) -> list[int]:
    """The prime powers p^k exactly dividing n > 0, by trial division."""
    found = []
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            found.append(q)
        p += 1
    return found


def lies_on_no_coprime_polygon(a: int, b: int, c: int, lam: tuple[int, int, int]) -> bool:
    """The prune lemma's hypothesis: some prime power divides every lambda of
    the window (a, b, c, lam) and not its det.

    Every side delta_n of a polygon with this window then has lambda_n det =
    (adj(g) lam) . ((delta_1, delta_n), (delta_2, delta_n), (delta_3, delta_n)),
    so that prime divides every lambda_n.
    """
    det = _window_det(a, b, c)
    return any(det % q for q in prime_powers(gcd(*lam)))


def seed_map(lambda_max: int, pruned: bool = True) -> dict:
    """engine._seed_map from ``windows``, as chains, radii and seeds in the engine's order.

    The radii are the negative squares of the windows with b <= RADIUS_B_MAX,
    ascending.  Each window of ``half`` the stream whose square is a radius
    is a seed, followed by its ``mirror_seed`` unless it is its own mirror:
    first those with b <= RADIUS_B_MAX, then the rest, each in stream order.
    With ``pruned``, as in the engine, a window that
    ``lies_on_no_coprime_polygon`` is no seed, though its square is a radius;
    a radius left with no seed is left out, as the engine leaves it out.
    """
    stream = half(windows(lambda_max, long_pairing_bound(Fraction(0))))
    narrow = [w for w in stream if w[1] <= RADIUS_B_MAX]
    wide = [w for w in stream if w[1] > RADIUS_B_MAX]
    radii = sorted({Fraction(num, d) for *_, num, d in narrow if num > 0})
    seeds: dict = {r: [] for r in radii}
    for a, b, c, lam, num, d in narrow + wide:
        bucket = seeds.get(Fraction(num, d))
        if bucket is not None and not (pruned and lies_on_no_coprime_polygon(a, b, c, lam)):
            seed = ChainState(3, (-a, -b, -c), lam)
            bucket.append(seed)
            if (a, lam[0]) != (c, lam[2]):
                bucket.append(mirror_seed(seed))
    return {r: found for r, found in seeds.items() if found}


def rounds(seeds, parabolic: bool, max_sides: int = DEFAULT_MAX_SIDES):
    """The chain loop of one radius on these seeds, gluing by ``key_join``: one round per length.

    Each round is (met, closed, live, joined): the chains of that length;
    the closed ones, (delta_1, delta_m) >= -2, as polygons, kept only with
    coprime lambdas; the open ones, with ``parabolic`` less each chain
    whose newest window state repeats; and ``key_join(live)``, the pairs
    glued and the next round's chains.  At ``max_sides`` the live chains
    are alive at the cap and joined is ([], []).  No two live chains of a
    round are equal, the lemma that lets the engine join by lineage.
    """
    chains = seeds
    while chains:
        closed = [
            PolygonDatum(ch.length, ch.pairings, ch.lam)
            for ch in chains
            if pair(ch, 1, ch.length) >= -2 and gcd(*ch.lam) == 1
        ]
        live = [ch for ch in chains if pair(ch, 1, ch.length) < -2]
        if parabolic:
            live = [ch for ch in live if detect_period(ch) is None]
        assert len(set(live)) == len(live), live[0]
        joined = key_join(live) if live and live[0].length < max_sides else ([], [])
        yield chains, closed, live, joined
        chains = joined[1]


def reached_chains(seeds, parabolic: bool, max_sides: int = DEFAULT_MAX_SIDES):
    """Every chain the chain loop meets from these seeds, length by length."""
    for met, *_ in rounds(seeds, parabolic, max_sides):
        yield from met


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


def glued(x: ChainState, y: ChainState) -> list[ChainState]:
    """x glued to y: [the extension] when its ``weyl_pairing`` is a non-positive
    integer passing the divisibility against lambda_1 and lambda_n, else []."""
    g1n = weyl_pairing(x, y)
    if g1n.denominator == 1 and g1n <= 0 and long_divisible(int(g1n), x.lam[0], y.lam[-1]):
        return [extended_chain(x, y, int(g1n))]
    return []


def key_join(chains: list[ChainState]) -> tuple[list[tuple], list[ChainState]]:
    """One gluing round by a hash join on the whole overlap: the pairs and the extensions.

    x and y join when tail_key(x) == head_key(y), in the order of x, then
    of y in ``chains``; the extensions, ``glued``, come out in the order of
    the pairs.
    """
    by_head: dict[tuple, list[ChainState]] = {}
    for y in chains:
        by_head.setdefault(head_key(y), []).append(y)
    pairs = [(x, y) for x in chains for y in by_head.get(tail_key(x), ())]
    return pairs, [ch for x, y in pairs for ch in glued(x, y)]


def radii(lambda_max: int) -> list[Fraction]:
    """The radii num / det of collect_radii(lambda_max) as Fractions, in its order.

    Each is read from the (num, det) its key holds, which must have
    det < 0 < num, and the key must be its float.
    """
    found = []
    for key, (num, d, _) in collect_radii(lambda_max).items():
        assert type(num) is int and type(d) is int and d < 0 < num, (key, num, d)
        r = Fraction(num, d)
        assert key == float(r), (key, r)
        found.append(r)
    return found


def chain_windows(ch: ChainState) -> list[tuple[int, ...]]:
    """The decorated 3-windows of ch, ((i, i+1), (i, i+2), (i+1, i+2), lambdas), through ``pair``."""
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


def cyclic_windows(d: PolygonDatum) -> list[tuple]:
    """The n windows (a, b, c, lam) of a polygon's sides i, i+1, i+2, indices mod n."""
    n = d.n
    out = []
    for i in range(1, n + 1):
        j, k = i % n + 1, (i + 1) % n + 1
        a, b, c = -pair(d, i, j), -pair(d, i, k), -pair(d, j, k)
        out.append((a, b, c, (d.lam[i - 1], d.lam[j - 1], d.lam[k - 1])))
    return out


def min_rotation(block: tuple) -> tuple:
    """The least rotation of a period block."""
    return min(block[k:] + block[:k] for k in range(len(block)))


def detect_period(ch: ChainState) -> PeriodicChainReport | None:
    """engine._detect_period as a full scan: the newest window against every earlier one.

    The first earlier window equal to the newest starts the period's block,
    the windows up to the newest; the signature is its ``min_rotation``.
    """
    windows = chain_windows(ch)
    last = windows[-1]
    for i, w in enumerate(windows[:-1]):
        if w == last:
            block = tuple(windows[i:-1])
            return PeriodicChainReport(
                period=len(windows) - 1 - i,
                signature=min_rotation(block),
                length=ch.length,
                lam=ch.lam,
                pairings=ch.pairings,
            )
    return None


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
    empty = next(r for r in radii(lambda_max) if r not in with_records)
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


def trimmed_windows(lambda_max: int) -> list:
    """The windows (a, b, c, lam, num, det) of square r < 0 left by trimming the window graph.

    The nodes are the windows of ``windows`` with num > 0, both of each
    mirror pair, with no bound but num's larger root.  An edge w -> w'
    joins two windows of one square with w's (c, l2, l3) equal to w''s
    (a, l1, l2), the overlap gluing joins on.  Windows with no
    predecessor or no successor are dropped until none is.  Squares are
    keyed by the float num / det: equal squares give equal floats, so a
    shared float can only merge squares and keep more windows.
    """
    kept = [w for w in windows(lambda_max, long_pairing_bound(Fraction(0))) if w[4] > 0]
    while True:
        heads = {(num / d, a, lam[0], lam[1]) for a, _, _, lam, num, d in kept}
        tails = {(num / d, c, lam[1], lam[2]) for _, _, c, lam, num, d in kept}
        trimmed = [
            (a, b, c, lam, num, d)
            for a, b, c, lam, num, d in kept
            if (num / d, c, *lam[1:]) in heads and (num / d, a, *lam[:2]) in tails
        ]
        if len(trimmed) == len(kept):
            return kept
        kept = trimmed


def uncertified_squares(lambda_max: int) -> list[Fraction]:
    """The squares of ``trimmed_windows`` that are not radii of collect_radii(lambda_max), ascending.

    A trimmed window's square num / det is matched to the radius p / q of
    its float and checked exactly, p det == num q.
    """
    by_float = {float(r): r for r in radii(lambda_max)}
    missed = set()
    for *_, num, d in trimmed_windows(lambda_max):
        hit = by_float.get(num / d)
        if hit is None or hit.numerator * d != num * hit.denominator:
            missed.add(Fraction(num, d))
    return sorted(missed)
