"""Slow reference implementations for the chain kernel and window scan in ``engine``.

``pair`` looks one pairing up by its side indices, as ``ChainState.pair``
and ``PolygonDatum.pair`` did.  The join keys and the extended chain are
rebuilt entry by entry through it.  The window scan walks every (a, c, lam) triple with
a divisibility test per triple, every long pairing b with a divisibility
test per b, and evaluates num and det per window from the closed forms,
as the engine did before it enumerated admissible shapes directly and
stepped the long pairing by second differences.  The tests compare the
fast paths against them.
"""

from __future__ import annotations

import itertools

from hypercartan.core import _window_adjugate, _window_det, pack_index
from hypercartan.engine import (
    ADJACENT_MAX,
    DEFAULT_MAX_SIDES,
    BMax,
    ChainState,
    _detect_period,
    extend_step,
    partition_closed,
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


def windows(lambda_max: int, b_max: BMax):
    """engine._windows over every lambda triple and every long pairing."""
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


def reached_chains(seeds, parabolic: bool, max_sides: int = DEFAULT_MAX_SIDES):
    """Every chain the chain loop meets from these seeds, length by length.

    Follows engine._grow: closed chains stop, and with ``parabolic`` a
    chain whose newest window state repeats is set aside.
    """
    chains = seeds
    while chains:
        yield from chains
        _, chains = partition_closed(chains)
        if parabolic:
            chains = [ch for ch in chains if _detect_period(ch) is None]
        if not chains or chains[0].length >= max_sides:
            break
        chains = extend_step(chains)


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
