"""Slow reference implementations for the packed-tuple chain kernel in ``engine``.

The join keys and the extended chain are rebuilt entry by entry through
``ChainState.pair``, and the window scan steps the long pairing through
every b with an explicit divisibility test, as the engine did before it
sliced the packed tuples and strided the scan.  The tests compare the
fast paths against them.
"""

from __future__ import annotations

import itertools

from hypercartan.engine import (
    ADJACENT_MAX,
    BMax,
    ChainState,
    _adjacent_divisible,
    _window_det,
    _window_square_num,
)


def long_divisible(b: int, l1: int, l3: int) -> bool:
    return (l3 * b) % l1 == 0 and (l1 * b) % l3 == 0


def windows(lambda_max: int, b_max: BMax):
    """engine._windows with every long pairing tested for divisibility."""
    for a in range(ADJACENT_MAX + 1):
        for c in range(ADJACENT_MAX + 1):
            for lam in itertools.product(range(1, lambda_max + 1), repeat=3):
                l1, l2, l3 = lam
                if not _adjacent_divisible(a, c, l1, l2, l3):
                    continue
                for b in range(b_max(a, c, lam) + 1):
                    d = _window_det(a, b, c)
                    if d < 0 and long_divisible(b, l1, l3):
                        yield a, b, c, lam, _window_square_num(a, b, c, l1, l2, l3), d


def head_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(ch.pair(i, j) for i in range(1, m) for j in range(i + 1, m))
    return pairs + ch.lam[: m - 1]


def tail_key(ch: ChainState) -> tuple:
    m = ch.length
    pairs = tuple(
        ch.pair(i, j) for i in range(2, m + 1) for j in range(i + 1, m + 1)
    )
    return pairs + ch.lam[1:]


def extended_chain(x: ChainState, y: ChainState, g1n: int) -> ChainState:
    m = x.length
    n = m + 1
    newp: list[int] = [x.pair(1, j) for j in range(2, m + 1)]
    newp.append(g1n)
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            newp.append(y.pair(i - 1, j - 1))
    lam = (x.lam[0],) + y.lam
    return ChainState(n, tuple(newp), lam)


def chain_windows(ch: ChainState) -> list[tuple[int, ...]]:
    """engine._chain_windows through ChainState.pair."""
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
