import ast
import itertools
import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from hypercartan import engine
from hypercartan.cli import LAMBDA_MAX_CEILING
from hypercartan.core import PolygonDatum, _window_adjugate, _window_det, verify_realization
from hypercartan.engine import (
    DEFAULT_MAX_SIDES,
    RADIUS_B_MAX,
    ChainState,
    EngineError,
    EnumerationResult,
    _seed_map,
    _windows,
    collect_radii,
    partition_closed,
    run_elliptic,
    run_parabolic,
    seed_triples,
)
from hypercartan.goldens import golden_catalog
from rational_oracle import QMatrix, SingularMatrixError, det, solve
from reader_oracle import rank, weyl_vector

import engine_oracle as oracle
from engine_oracle import pair

SYMMETRIC_NONCOMPACT_RADII = [
    Fraction(-23, 2),
    Fraction(-4),
    Fraction(-7, 2),
    Fraction(-13, 6),
    Fraction(-3, 2),
    Fraction(-1),
    Fraction(-2, 3),
    Fraction(-1, 2),
    Fraction(-7, 18),
    Fraction(-1, 6),
    Fraction(-1, 8),
    Fraction(-1, 24),
]


def _first_window_weyl(chain):
    """The Weyl vector of a chain in the basis of its first three sides."""
    g3 = QMatrix.from_rows([[pair(chain, i, j) for j in (1, 2, 3)] for i in (1, 2, 3)])
    return weyl_vector(g3, chain.lam[:3])


def _exhaustive_seeds(r, lambda_max, b_to=200):
    """Every admissible window of square r with long pairing <= b_to.

    A full scan of the long pairing, with no bound worked out in advance;
    the slow reference for the seeds of one square.
    """
    out = []
    for a in range(3):
        for c in range(3):
            for lam in itertools.product(range(1, lambda_max + 1), repeat=3):
                if not oracle.adjacent_divisible(a, c, *lam):
                    continue
                for b in range(b_to + 1):
                    d = _window_det(a, b, c)
                    if d >= 0 or not oracle.long_divisible(b, lam[0], lam[2]):
                        continue
                    if Fraction(oracle.window_square_num(a, b, c, *lam), d) == r:
                        out.append(((-a, -b, -c), lam))
    return out


def test_collect_radii_contains_known_values():
    radii = list(map(oracle.radius, collect_radii(2)))
    assert Fraction(-59, 2) in radii
    assert Fraction(-22) in radii
    assert all(r < 0 for r in radii)
    assert list(radii) == sorted(radii)


def test_collect_radii_untwisted_values():
    radii = list(map(oracle.radius, collect_radii(1)))
    for r in SYMMETRIC_NONCOMPACT_RADII[:5] + [Fraction(-23, 2), Fraction(-4)]:
        assert r in radii


def test_collect_radii_monotone_in_lambda():
    assert set(map(oracle.radius, collect_radii(1))) <= set(map(oracle.radius, collect_radii(2)))


def test_seed_triples_finds_base_triangle():
    [seeds] = oracle.engine_seeds(1, Fraction(-23, 2)).values()
    match = [
        s for s in seeds if s.pairings == (0, -1, -2) and s.lam == (1, 1, 1)
    ]
    assert len(match) == 1
    chain = match[0]
    assert _first_window_weyl(chain).coords == (2, Fraction(9, 2), 5)
    assert chain.pairings[chain.length - 2] == -1  # closed: >= -2


def test_seed_triples_twisted_triangle():
    [seeds] = oracle.engine_seeds(2, Fraction(-59, 2)).values()
    match = [
        s for s in seeds if s.pairings == (0, -2, -1) and s.lam == (1, 2, 2)
    ]
    assert len(match) == 1
    chain = match[0]
    assert _first_window_weyl(chain).coords == (Fraction(15, 2), 3, 8)
    assert chain.pairings[chain.length - 2] == -2  # closed at the boundary value


def test_seed_triples_matches_exhaustive_scan():
    """seed_triples finds the windows of square 0 that a scan of every long
    pairing finds at lambda 2, and at lambda <= 8 those of the oracle's
    sweep, filed by gcd-reduced keys; compared as multisets."""
    fast = [(s.pairings, s.lam) for s in oracle.seed_chains(seed_triples(2), 2)]
    assert sorted(fast) == sorted(_exhaustive_seeds(Fraction(0), 2))
    for lambda_max in range(1, 9):
        sweep = oracle.windows(lambda_max, oracle.long_pairing_bound(Fraction(0)))
        [expected] = oracle.bucketed_seeds([Fraction(0)], sweep).values()
        found = oracle.seed_chains(seed_triples(lambda_max), lambda_max)
        assert expected and sorted(found) == sorted(expected), lambda_max


def test_seed_map_of_one_square_is_its_entry_of_the_full_map():
    """_seed_map(lambda_max, r) is {r: the full map's seeds at r}, seed for
    seed, at every radius for lambda <= 4, and at lambda 2 its seeds are
    the windows of square r that a scan of every long pairing finds.  It
    is empty when r is no radius: a square no window has, -3/22 (at lambda
    6 only windows past RADIUS_B_MAX have it), a square whose float
    overflows, and r > 0."""
    for lambda_max in range(1, 5):
        for r, seeds in oracle.engine_seeds(lambda_max).items():
            assert oracle.engine_seeds(lambda_max, r) == {r: seeds}, (lambda_max, r)
    for r in (Fraction(-23, 2), Fraction(-7), Fraction(-1, 2)):
        [seeds] = oracle.engine_seeds(2, r).values()
        fast = [(s.pairings, s.lam) for s in seeds]
        assert sorted(fast) == sorted(_exhaustive_seeds(r, 2)), r
    for r in (Fraction(-100000), Fraction(-3, 22), Fraction(-10**400), Fraction(1, 2)):
        assert oracle.engine_seeds(6, r) == {}, r


def test_partition_closed():
    closed_chain = ChainState(3, (0, -1, -2), (1, 1, 1))
    open_chain = ChainState(3, (0, -3, -1), (1, 3, 3))
    scaled = ChainState(3, (-2, -2, -2), (2, 2, 2))
    closed, _ = partition_closed([closed_chain, open_chain, scaled])
    # the open chain is not closed, and the non-coprime closed chain is dropped
    assert [(d.n, d.pairings) for d in closed] == [(3, (0, -1, -2))]


def _first_round(seed_map, lambda_max):
    """A packed seed map for lambda_max, glued once.

    Returns the chains alive at 4 sides and the polygons closed at 4
    sides: the chain loop capped at 4 sides less the one capped at 3.
    """
    closed3, _ = oracle.engine_chain_loop(seed_map, lambda_max, 3)
    closed4, live = oracle.engine_chain_loop(seed_map, lambda_max, 4)
    return live, closed4[len(closed3):]


def test_extend_step_reaches_seven_quadrangle():
    live, closed = _first_round(_seed_map(3, Fraction(-7)), 3)
    assert closed and all(len(c.lam) == 4 for c in live + closed)
    target = ((0, -3, -1, -1, -3, 0), (1, 3, 3, 1))
    # (delta_1, delta_4) = -1 closes it: it is filed as a polygon, not glued on
    assert [(d.pairings, d.lam) for d in closed].count(target) == 1
    assert target not in [(c.pairings, c.lam) for c in live]


def test_extend_step_rejects_fractional_pairing():
    x = ChainState(3, (0, -3, -1), (1, 3, 3))
    y = ChainState(3, (-1, -4, 0), (3, 3, 1))
    # overlap matches, but the Weyl equation gives (delta_1, delta_4) = -6/5
    seeds = [oracle.pack_seed(-p[0], -p[1], -p[2], lam, 3) for _, p, lam in (x, y)]
    assert _first_round({(-1, 1): seeds}, 3) == ([], [])


def test_extended_chains_keep_weyl_consistency():
    live, closed = _first_round(_seed_map(3, Fraction(-7)), 3)
    assert closed
    for chain in live + closed:
        x = _first_window_weyl(chain).coords
        for j in range(1, len(chain.lam) + 1):
            paired = sum(x[i] * pair(chain, i + 1, j) for i in range(3))
            assert paired == -chain.lam[j - 1]
        # solving on the shifted window gives the same vector
        g234 = QMatrix.from_rows(
            [[pair(chain, i, j) for j in (2, 3, 4)] for i in (2, 3, 4)]
        )
        y = solve(g234, [-chain.lam[1], -chain.lam[2], -chain.lam[3]])
        paired_first = sum(y[i] * pair(chain, i + 2, 1) for i in range(3))
        assert paired_first == -chain.lam[0]


def test_run_elliptic_lambda_one():
    result = run_elliptic(1)
    assert len(result.records) == 16
    assert not result.cap_events
    assert all(rec.untwisted for rec in result.records)
    noncompact = [rec for rec in result.records if not rec.compact]
    assert sorted(rec.r for rec in noncompact) == sorted(SYMMETRIC_NONCOMPACT_RADII)


def _as_polygon(rec):
    return PolygonDatum(rec.n, rec.pairings, rec.lam)


def test_run_elliptic_records_are_verified_and_sorted():
    result = run_elliptic(1)
    keys = [(rec.r, rec.n, rec.body) for rec in result.records]
    assert keys == sorted(keys)
    for rec in result.records:
        report = verify_realization(_as_polygon(rec))
        assert report.valid
        assert report.weyl_square == rec.r


def test_run_elliptic_monotone_in_lambda():
    keys1 = {(r.n, r.body) for r in run_elliptic(1).records}
    keys2 = {(r.n, r.body) for r in run_elliptic(2).records}
    assert keys1 <= keys2


def test_records_pair_nonadjacent_sides_below_minus_two():
    """Evidence for the closure lemma: in every record at lambda 16, two
    sides that are not adjacent pair to less than -2, so a chain whose ends
    pair to >= -2 has met its last side.  The largest such pairing is -3."""
    nonadjacent = [
        pair(rec, i, j)
        for rec in run_elliptic(16).records
        for i in range(1, rec.n + 1)
        for j in range(i + 2, rec.n + 1)
        if (i, j) != (1, rec.n)
    ]
    assert max(nonadjacent) == -3


def test_run_elliptic_r_filter():
    result = run_elliptic(1, r_filter=Fraction(-23, 2))
    assert len(result.records) == 1
    assert result.records[0].r == Fraction(-23, 2)
    assert result.records[0].n == 3


@pytest.mark.parametrize("max_sides", [DEFAULT_MAX_SIDES, 5])
def test_r_filter_searches_its_own_square(max_sides):
    """At every radius for lambda <= 6, run_elliptic(r_filter=r), which
    seeds square r alone, gives the full run's records and cap events
    at r."""
    for lambda_max in range(1, 7):
        full = run_elliptic(lambda_max, max_sides)
        for key in collect_radii(lambda_max):
            r = oracle.radius(key)
            expected = EnumerationResult(
                tuple(rec for rec in full.records if rec.r == r),
                tuple(ev for ev in full.cap_events if ev == r),
            )
            assert run_elliptic(lambda_max, max_sides, r_filter=r) == expected, (lambda_max, r)


def test_r_filter_skips_squares_that_are_not_radii(monkeypatch):
    """A square that only windows past RADIUS_B_MAX reach is no radius:
    filtering on it gives nothing, though its seeds glue chains to the
    cap.  r = 0 and r > 0 give nothing without a window scan."""
    radii = set(collect_radii(6))
    wide = {}  # each such square's windows, all past RADIUS_B_MAX, as seeds
    for a, b, c, lam, mirror, num, d in oracle.unpacked_windows(
        _windows(6, b_min=RADIUS_B_MAX + 1), 6
    ):
        g = gcd(num, d)
        key = (-num // g, -d // g)
        if num > 0 and key not in radii:
            wide.setdefault(key, []).extend(
                oracle.pack_seed(*w, 6) for w in ((a, b, c, lam), mirror) if w
            )
    capping = [
        key for key, seeds in wide.items() if oracle.engine_chain_loop({key: seeds}, 6, 4)[1]
    ]
    assert len(capping) >= 10
    for key in capping[:10]:
        assert run_elliptic(6, 4, r_filter=Fraction(*key)) == EnumerationResult((), ())

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned windows")

    monkeypatch.setattr(engine, "_windows", no_scan)
    for r in (Fraction(0), Fraction(1, 2), Fraction(3)):
        assert run_elliptic(6, 4, r_filter=r) == EnumerationResult((), ())


def test_run_elliptic_cap_event():
    result = run_elliptic(1, max_sides=4)
    # the radii whose chains reach 4 sides, in ascending order
    assert result.cap_events == tuple(map(Fraction, (
        "-1/2", "-5/11", "-7/18", "-11/32", "-3/10", "-1/4", "-13/54",
        "-5/22", "-1/6", "-4/25", "-1/8", "-2/23", "-1/14", "-1/24",
    )))
    # radii whose chains were cut off report partial catalogs, so fewer records
    assert len(result.records) < 16


@pytest.mark.parametrize(
    "lambda_max, max_sides",
    [(2, DEFAULT_MAX_SIDES), (3, DEFAULT_MAX_SIDES), (6, DEFAULT_MAX_SIDES), (6, 5), (6, 8)],
)
def test_run_elliptic_does_not_depend_on_seed_order(monkeypatch, lambda_max, max_sides):
    """Reversed and shuffled seeds at every radius give the same records and
    cap events: the window sweep may emit seeds in any order."""
    expected = run_elliptic(lambda_max, max_sides)
    assert bool(expected.cap_events) == (max_sides < DEFAULT_MAX_SIDES)
    seed_map = engine._seed_map
    ran = []

    def reversed_seeds(lm, r_filter):
        ran.append("reversed")
        return {r: found[::-1] for r, found in seed_map(lm, r_filter).items()}

    def shuffled_seeds(lm, r_filter):
        ran.append("shuffled")
        rng = random.Random(lambda_max)
        found = seed_map(lm, r_filter)
        for bucket in found.values():
            rng.shuffle(bucket)
        return found

    for reorder in (reversed_seeds, shuffled_seeds):
        monkeypatch.setattr(engine, "_seed_map", reorder)
        assert run_elliptic(lambda_max, max_sides) == expected
    assert ran == ["reversed", "shuffled"]


def test_run_parabolic_properties():
    """At lambda 2 and cap 16 some r = 0 chains are periodic, none is alive
    at the cap, and each signature is the least rotation of its block."""
    report = run_parabolic(2, 16)
    # no r = 0 chain reaches the closing threshold (see run_parabolic)
    chains = list(oracle.reached_chains(oracle.seed_chains(seed_triples(2), 2), True))
    assert chains and all(ch.pairings[ch.length - 2] < -2 for ch in chains)
    assert report.capped_chains == 0
    assert report.periodic
    for per in report.periodic:
        assert per.length <= 16
        assert per.period == per.length - 3
        block = per.signature
        for k in range(len(block)):
            assert oracle.min_rotation(block[k:] + block[:k]) == per.signature


@pytest.mark.parametrize("lambda_max", [1, 2, 3, 6])
def test_run_parabolic_does_not_depend_on_seed_order(monkeypatch, lambda_max):
    """A reversed and a shuffled window scan give the same reports: each
    (period, signature) keeps its least chain, not the first to arrive."""
    expected = run_parabolic(lambda_max)
    windows = list(_windows(lambda_max))
    shuffled = windows[:]
    random.Random(lambda_max).shuffle(shuffled)
    for order in (windows[::-1], shuffled):
        monkeypatch.setattr(engine, "_windows", lambda *args, order=order: iter(order))
        assert run_parabolic(lambda_max) == expected


def test_run_parabolic_reports_the_least_chain_of_each_class(monkeypatch):
    """Each (period, signature) is reported by the least chain detected with
    it: the shortest, then by windows (a, c, l1, l2, l3, b) in turn."""
    detected = []
    detect = engine._detect_period

    def recording(ch):
        rep = detect(ch)
        if rep is not None:
            detected.append(rep)
        return rep

    def order(x):
        n = x.length
        return n, [
            (-pair(x, i, i + 1), -pair(x, i + 1, i + 2), *x.lam[i - 1 : i + 2],
             -pair(x, i, i + 2))
            for i in range(1, n - 1)
        ]

    monkeypatch.setattr(engine, "_detect_period", recording)
    report = run_parabolic(2, 16)
    least = {}
    for rep in detected:
        key = (rep.period, rep.signature)
        least[key] = min(least.get(key, rep), rep, key=order)
    assert len(detected) > len(least)
    assert report.periodic == tuple(least[key] for key in sorted(least))


@pytest.mark.parametrize("lambda_max", range(1, 7))
def test_run_parabolic_sorts_its_seeds_and_reports_each_first_hit(monkeypatch, lambda_max):
    """run_parabolic hands the chain loop the r = 0 seeds in the order a full
    sweep emits them, by window (a, c, l1, l2, l3, b), and reports for each
    (period, signature) the first chain detected with it."""
    handed, detected = [], []
    loop, detect = engine._chain_loop, engine._detect_period

    def recorded_loop(seeds, lm, max_sides, periodic=None):
        handed.append({r: found[:] for r, found in seeds.items()})
        return loop(seeds, lm, max_sides, periodic)

    def recorded_detect(ch):
        rep = detect(ch)
        if rep is not None:
            detected.append(rep)
        return rep

    def window(x):
        return -pair(x, 1, 2), -pair(x, 2, 3), *x.lam, -pair(x, 1, 3)

    monkeypatch.setattr(engine, "_chain_loop", recorded_loop)
    monkeypatch.setattr(engine, "_detect_period", recorded_detect)
    report = run_parabolic(lambda_max)
    [(r, seeds)] = handed[0].items()
    assert len(handed) == 1 and r == (0, 1)
    assert seeds == seed_triples(lambda_max)
    keys = list(map(window, oracle.seed_chains(seeds, lambda_max)))
    assert keys == sorted(set(keys))
    first = {}
    for rep in detected:
        first.setdefault((rep.period, rep.signature), rep)
    assert report.periodic == tuple(first[key] for key in sorted(first))


@pytest.mark.parametrize("lambda_max", range(1, 7))
def test_period_test_agrees_with_the_full_scan(monkeypatch, lambda_max):
    """Every chain run_parabolic tests for a period, at max_sides 5, 8, 16
    and the default, has length >= 4, and comparing its newest window with
    its seed window reports what ``engine_oracle.detect_period``'s scan of
    every earlier window reports.  Each lambda has hits, and each lambda
    >= 2 misses too (at lambda = 1 all 12 chains tested are periodic)."""
    tested = []
    detect = engine._detect_period

    def recording(ch):
        rep = detect(ch)
        tested.append((ch, rep))
        return rep

    monkeypatch.setattr(engine, "_detect_period", recording)
    for max_sides in (5, 8, 16, DEFAULT_MAX_SIDES):
        run_parabolic(lambda_max, max_sides)
    for ch, rep in tested:
        assert ch.length >= 4, ch
        assert rep == oracle.detect_period(ch), ch
    hits = sum(rep is not None for _, rep in tested)
    print(f"lambda {lambda_max}: {len(tested)} chains tested, {hits} periodic")
    assert hits > 0
    if lambda_max >= 2:
        assert hits < len(tested)


def test_catalog_polygons_have_a_radius_window():
    """Assumption (N) on the catalog: some 3 consecutive sides have b <= RADIUS_B_MAX.

    b = -(delta_i, delta_{i+2}) is the long pairing of the window at side i;
    a polygon's radius is collected when one of its windows has b within
    the bound.  Reports the largest b any row needs and the slack.
    """
    needed = []
    for row in golden_catalog():
        d = row.datum()
        g, n = d.gram, d.n
        needed.append(min(-g[i][(i + 2) % n] for i in range(n)))
    slack = RADIUS_B_MAX - max(needed)
    print(f"(N): largest long pairing needed {max(needed)}, bound {RADIUS_B_MAX}, "
          f"slack {slack}")
    assert slack >= 0, needed


def test_larger_radius_bound_changes_no_record(monkeypatch):
    """Raising RADIUS_B_MAX from 14 to 20 finds more radii but no new record at lambda <= 6."""
    radii, records = collect_radii(6), run_elliptic(6).records
    monkeypatch.setattr(engine, "RADIUS_B_MAX", 20)
    assert len(collect_radii(6)) > len(radii)
    assert run_elliptic(6).records == records


def test_window_graph_certifies_assumption_n():
    """Every square left by trimming the window graph is a radius, for lambda <= 16.

    Every cyclic window of a polygon is a node of the graph.  Its three
    sides are linearly independent: otherwise line 3 would pass through
    the vertex of lines 1 and 2 and meet line 2 twice.  So their Gram, in
    signature (2, 1), has det < 0, and r < 0 gives num > 0.  Consecutive
    windows of a polygon share an edge, so its windows form a closed walk,
    and trimming drops none of them.  So when every kept square is a radius
    of collect_radii, every polygon's square is searched, and the wide
    pass seeds it with all its windows: the run is complete at that
    lambda_max without (N).
    """
    for lambda_max in range(1, 17):
        assert oracle.uncertified_squares(lambda_max) == [], lambda_max
    kept = oracle.trimmed_windows(16)
    print(f"(N) certified at lambda <= 16: {len(kept)} windows kept at lambda 16")
    assert kept


def test_catalog_windows_survive_window_graph_trimming():
    """Each of the catalog's 328 cyclic windows is a trimmed window at lambda 6."""
    kept = {w[:4] for w in oracle.trimmed_windows(6)}
    cyclic = []
    for row in golden_catalog():
        d = row.datum()
        n = d.n
        for i in range(1, n + 1):
            j, k = i % n + 1, (i + 1) % n + 1
            a, b, c = -pair(d, i, j), -pair(d, i, k), -pair(d, j, k)
            cyclic.append((a, b, c, (d.lam[i - 1], d.lam[j - 1], d.lam[k - 1])))
    assert len(cyclic) == 328
    assert [w for w in cyclic if w not in kept] == []


def test_weyl_square_strictly_monotone_in_long_pairing():
    """The square grows with the long pairing, so a shape meets a radius once.

    Checked exhaustively for every admissible window shape with lambdas
    up to 3 over the whole relevant range of the long pairing.
    """
    for a in range(3):
        for c in range(3):
            for lam in itertools.product((1, 2, 3), repeat=3):
                if not oracle.adjacent_divisible(a, c, *lam):
                    continue
                prev = None
                for b in range(0, 80):
                    d = _window_det(a, b, c)
                    if d >= 0:
                        # the non-hyperbolic range is an initial segment
                        assert prev is None
                        continue
                    rp = Fraction(oracle.window_square_num(a, b, c, *lam), d)
                    if prev is not None:
                        assert rp > prev, (a, b, c, lam)
                    prev = rp


def test_extend_step_rejects_mixed_or_closed_input(monkeypatch):
    """extend_step takes the open chains of one length and their lineage.

    The chain loop hands it only open chains of one length, with partners
    inside the round, and it hands nothing closed on.  It raises on a
    lineage that is not one entry per chain.
    """
    step = engine.extend_step
    calls = []

    def checked(chains, lineage, periodic=None):
        m = chains[0].length
        assert all(ch.length == m and pair(ch, 1, m) < -2 for ch in chains), m
        assert all(0 <= j < len(chains) for js in lineage[1] for j in js), m
        out, out_lineage, closing = step(chains, lineage, periodic)
        assert all(pair(ch, 1, m + 1) < -2 for ch in out), m
        assert all(pair(ch, 1, m + 1) >= -2 for ch in closing), m
        calls.append((chains, lineage))
        return out, out_lineage, closing

    monkeypatch.setattr(engine, "extend_step", checked)
    run_elliptic(3)
    run_parabolic(2, 16)
    assert {chains[0].length for chains, _ in calls} == set(range(3, 12))
    live, (rows, partners) = next(call for call in calls if len(call[0]) >= 2)
    for chains, lineage in (
        (live, (rows[1:], partners)), (live, (rows, partners[1:])), (live[1:], (rows, partners))
    ):
        with pytest.raises(EngineError, match="lineage"):
            step(chains, lineage)


def test_run_elliptic_r_filter_unattained():
    assert run_elliptic(1, r_filter=Fraction(-12345)).records == ()


def test_run_elliptic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_elliptic(0)
    with pytest.raises(ValueError):
        run_elliptic(1, max_sides=2)
    with pytest.raises(ValueError):
        run_parabolic(0)


# --- slow oracles for the integer search core -------------------------------


def _rational_quadratic_roots(alpha, beta, gamma):
    """Rational roots of alpha t^2 + beta t + gamma = 0 (not identically zero)."""
    if alpha == 0:
        if beta == 0:
            if gamma == 0:
                raise AssertionError("degenerate rank condition: 0 = 0")
            return []
        return [Fraction(-gamma, beta)]
    disc = beta * beta - 4 * alpha * gamma
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    return sorted({Fraction(-beta + s, 2 * alpha), Fraction(-beta - s, 2 * alpha)})


def _det4(p12, p13, p14, p23, p24, p34):
    """Gram determinant of delta_1..delta_4; p14 may be a Fraction."""
    return det(
        QMatrix.from_rows(
            [
                [2, p12, p13, p14],
                [p12, 2, p23, p24],
                [p13, p23, 2, p34],
                [p14, p24, p34, 2],
            ]
        )
    )


def _window_gram(p12, p13, p23):
    return QMatrix.from_rows([[2, p12, p13], [p12, 2, p23], [p13, p23, 2]])


def _fraction_glue(x, y):
    """x glued to y over Fractions, with linear solves: the slow reference
    for ``engine_oracle.glued``."""
    m = x.length
    l1 = x.lam[0]
    ln = y.lam[-1]
    if m == 3:
        ra = _first_window_weyl(x).coords
        g24 = pair(y, 1, 3)
        g34 = pair(y, 2, 3)
        if ra[0] != 0:
            candidates = [(-ln - ra[1] * g24 - ra[2] * g34) / ra[0]]
        else:
            # the Weyl equation cannot see g14: use the vanishing 4x4 determinant
            if ra[1] * g24 + ra[2] * g34 != -ln:
                return []
            f0 = _det4(pair(x, 1, 2), pair(x, 1, 3), 0, pair(x, 2, 3), g24, g34)
            f1 = _det4(pair(x, 1, 2), pair(x, 1, 3), 1, pair(x, 2, 3), g24, g34)
            f_1 = _det4(pair(x, 1, 2), pair(x, 1, 3), -1, pair(x, 2, 3), g24, g34)
            alpha = (f1 + f_1) // 2 - f0
            beta = (f1 - f_1) // 2
            candidates = _rational_quadratic_roots(alpha, beta, f0)
        out = []
        for cand in candidates:
            if cand.denominator != 1:
                continue
            g14 = int(cand)
            if g14 > 0 or not oracle.long_divisible(g14, l1, ln):
                continue
            if _det4(pair(x, 1, 2), pair(x, 1, 3), g14, pair(x, 2, 3), g24, g34) != 0:
                continue
            out.append(oracle.extended_chain(x, y, g14))
        return out
    try:
        gx = _window_gram(pair(x, 1, 2), pair(x, 1, 3), pair(x, 2, 3))
        d4 = solve(gx, [pair(x, 1, 4), pair(x, 2, 4), pair(x, 3, 4)])
        gy = _window_gram(pair(y, 1, 2), pair(y, 1, 3), pair(y, 2, 3))
        dn_in_y = solve(gy, [pair(y, 1, m), pair(y, 2, m), pair(y, 3, m)])
    except SingularMatrixError as exc:
        raise AssertionError(f"degenerate chain window: {exc}") from exc
    v = (
        dn_in_y[2] * d4[0],
        dn_in_y[0] + dn_in_y[2] * d4[1],
        dn_in_y[1] + dn_in_y[2] * d4[2],
    )
    g1n_exact = 2 * v[0] + pair(x, 1, 2) * v[1] + pair(x, 1, 3) * v[2]
    if g1n_exact.denominator != 1:
        return []
    g1n = int(g1n_exact)
    if g1n > 0 or not oracle.long_divisible(g1n, l1, ln):
        return []
    return [oracle.extended_chain(x, y, g1n)]


def test_glue_matches_fraction_oracle():
    """Each pair the key join glues, at every radius for lambda <= 3, extends
    as the Fraction solve extends it."""
    outcomes = set()
    for seeds in oracle.engine_seeds(3).values():
        for *_, (pairs, _) in oracle.rounds(seeds, False):
            for x, y in pairs:
                fast = oracle.glued(x, y)
                assert fast == _fraction_glue(x, y), (x, y)
                outcomes.add((x.length == 3, bool(fast)))
    # both branches of the oracle (length 3, and the composition across
    # y's first window beyond), each seen accepting and rejecting
    assert len(outcomes) == 4


def test_glue_candidates_have_rank_3():
    """The glued Gram has rank 3 at every candidate (delta_1, delta_n).

    The candidate solves the Weyl equation (rho, delta_n) = -lambda_n in
    the basis of x's first window, over the rationals; the rank is why
    gluing needs no rank check at any length.
    """
    runs = [(seeds, False) for seeds in oracle.engine_seeds(4).values()]
    runs.append((oracle.seed_chains(seed_triples(4), 4), True))
    integral = fractional = 0
    lengths = set()
    for seeds, parabolic in runs:
        for *_, (pairs, _) in oracle.rounds(seeds, parabolic):
            for x, y in pairs:
                m = x.length
                rho = _first_window_weyl(x).coords
                g2n, g3n = pair(y, 1, m), pair(y, 2, m)
                g1n = (-y.lam[-1] - rho[1] * g2n - rho[2] * g3n) / rho[0]
                glued = oracle.extended_chain(x, y, g1n)
                gram = QMatrix.from_rows(
                    [[pair(glued, i, j) for j in range(1, m + 2)] for i in range(1, m + 2)]
                )
                assert rank(gram) == 3, (x, y)
                lengths.add(m)
                if g1n.denominator == 1:
                    integral += 1
                else:
                    fractional += 1
    assert integral and fractional
    assert {3, 4, 5} <= lengths


def _all_shapes(lambda_max):
    for a in range(3):
        for c in range(3):
            for lam in itertools.product(range(1, lambda_max + 1), repeat=3):
                if oracle.adjacent_divisible(a, c, *lam):
                    yield a, c, lam


def test_long_pairing_bound_matches_brute_force_scan():
    r_maxes = {max(map(oracle.radius, collect_radii(k))) for k in range(1, 5)}
    r_maxes |= {Fraction(0), Fraction(-1), Fraction(-59, 2), Fraction(-1, 24)}
    for r_max in r_maxes:
        p, q = r_max.numerator, r_max.denominator
        b_max = oracle.long_pairing_bound(r_max)
        for a, c, lam in _all_shapes(4):
            bound = b_max(*oracle.shape_quadratics(a, c, lam))
            assert bound < 200, (r_max, a, c, lam)
            # the floor of the larger root of f(b) = q num(b) - p det(b)
            f_hits = [
                b for b in range(201)
                if q * oracle.window_square_num(a, b, c, *lam) - p * _window_det(a, b, c) >= 0
            ]
            assert max(f_hits, default=-1) == max(bound, -1), (r_max, a, c, lam)
            # every hyperbolic window at or below r_max lies within the bound
            for b in range(bound + 1, 201):
                d = _window_det(a, b, c)
                assert d >= 0 or Fraction(oracle.window_square_num(a, b, c, *lam), d) > r_max


def test_first_adjugate_coordinate_is_positive():
    """A1 = (adj(g) lam)_1 > 0 on every hyperbolic window: gluing divides by it."""
    for a, c, lam in _all_shapes(4):
        for b in range(201):
            if _window_det(a, b, c) < 0:
                a11, a12, a13, *_ = _window_adjugate(a, b, c)
                assert a11 * lam[0] + a12 * lam[1] + a13 * lam[2] > 0, (a, b, c, lam)


# --- the chain seam: the chain loop against the per-radius key join --------


def _loop_runs():
    """(lambda_max, packed seed map, parabolic): every radius for lambda <= 6,
    and r = 0 with the period filter for lambda <= 2."""
    runs = [(lm, _seed_map(lm), False) for lm in range(1, 7)]
    return runs + [(lm, {(0, 1): seed_triples(lm)}, True) for lm in (1, 2)]


def _by_square(chains):
    """Chains or polygons grouped by the square of their first window, each group in order."""
    groups = {}
    for x in chains:
        groups.setdefault(oracle.first_window_square(x), []).append(x)
    return groups


def test_chain_loop_closes_and_caps_as_the_per_radius_loop():
    """At every cap k from 3 sides to one past the longest chain, the chain
    loop leaves alive at the cap, in order, the live chains of length k of
    ``engine_oracle.rounds`` run radius by radius in ascending order, and
    closes each radius's polygons of at most k sides in the oracle's order:
    every radius for lambda <= 6, and r = 0 with the period filter for
    lambda <= 2.  The loop's one list of closed polygons is grouped by
    square to compare; each has its radius as its verified Weyl square.
    run_elliptic's cap events are the squares of the capped chains, in
    order, each once."""
    capped_runs = 0
    for lambda_max, seed_map, parabolic in _loop_runs():
        found = {
            r: list(oracle.rounds(seeds, parabolic))
            for r, seeds in oracle.unpacked(seed_map, lambda_max).items()
        }
        longest = max(met[0].length for rounds in found.values() for met, *_ in rounds)
        for k in range(3, longest + 2):
            closed, capped = {}, []
            for r, rounds in found.items():
                for met, done, live, _ in rounds:
                    if met[0].length > k:
                        break
                    if done:
                        closed.setdefault(r, []).extend(done)
                    if met[0].length == k:
                        capped += live
            got_closed, got_capped = oracle.engine_chain_loop(seed_map, lambda_max, k, parabolic)
            assert got_capped == capped, (lambda_max, k)
            assert _by_square(got_closed) == closed, (lambda_max, k)
            capped_runs += bool(capped)
            if not parabolic:
                squares = dict.fromkeys(map(oracle.first_window_square, capped))
                assert run_elliptic(lambda_max, k).cap_events == tuple(squares), (lambda_max, k)
        for r, polygons in closed.items():
            assert all(verify_realization(p).weyl_square == r for p in polygons), r
    assert capped_runs >= 50


def test_cap_at_three_sides_reports_every_radius_with_a_live_seed():
    """At max_sides 3 every live seed is at the cap, though most seeds join
    nothing and become no chain: the cap events are the radii of the
    oracle's seed map that have a seed with b > 2, ascending, for lambda
    <= 6; 434 of them at lambda 6."""
    for lambda_max in range(1, 7):
        seed_map = oracle.seed_map(lambda_max)
        live = [r for r, seeds in seed_map.items() if any(pair(s, 1, 3) < -2 for s in seeds)]
        assert run_elliptic(lambda_max, 3).cap_events == tuple(live), lambda_max
    assert len(live) == 434


def test_windows_match_unstrided_oracle():
    """The shape enumeration and second-difference scan yield the oracle's windows.

    The oracle's windows with (a, l1) <= (c, l3), with the same num and
    det, in the oracle's order, for both sweeps: the seed sweep's bound is
    num's larger root, the oracle's long-pairing bound at r_max = 0, and
    the radius sweep clips it to RADIUS_B_MAX.  A window's mirror lambdas
    are lam reversed, or None when the window is its own mirror.
    """
    root = oracle.long_pairing_bound(Fraction(0))

    def capped(*quadratics):
        return min(root(*quadratics), RADIUS_B_MAX)

    for lambda_max in range(1, 9):
        for b_cap, b_max in ((None, root), (RADIUS_B_MAX, capped)):
            fast = list(oracle.unpacked_windows(_windows(lambda_max, b_cap), lambda_max))
            expected = oracle.half(oracle.windows(lambda_max, b_max))
            assert [w[:4] + w[5:] for w in fast] == expected, lambda_max
            for a, b, c, lam, mirror, *_ in fast:
                self_mirror = (a, lam[0]) == (c, lam[2])
                assert mirror == (None if self_mirror else (c, b, a, lam[::-1])), (a, c, lam)
            assert fast


def test_radii_integer_order_matches_fraction_sort():
    """collect_radii is the sorted set of negative squares of the oracle's windows,
    each with exactly the oracle's windows of that square as its seeds.

    The oracle scans every long pairing up to RADIUS_B_MAX, with no root
    bound, and yields both windows of each mirror pair; the seeds are
    compared as multisets.
    """
    for lambda_max in range(1, 9):
        narrow = [
            w for w in oracle.windows(lambda_max, lambda *_: RADIUS_B_MAX) if w[4] > 0
        ]
        squares = sorted({Fraction(num, d) for *_, num, d in narrow})
        radii = collect_radii(lambda_max)
        assert list(map(oracle.radius, radii)) == squares, lambda_max
        expected = oracle.bucketed_seeds(squares, narrow)
        for r in squares:
            found = oracle.seed_chains(radii[r.as_integer_ratio()], lambda_max)
            assert sorted(found) == sorted(expected[r]), (lambda_max, r)


def test_split_sweep_is_the_full_sweep():
    """_windows(lam, cap) and _windows(lam, b_min=cap + 1) split _windows(lam)
    at the cap, each half in sweep order; so does a lower bound alone.

    The capped sweep skips a shape whose stride passes the cap when det(0)
    >= 0; only b = 0 would be left, and it is no window.  When det(0) < 0
    the adjacent lambdas differ by a factor of at most 2, so the stride is
    at most 4: only caps below 4 reach a shape whose b = 0 window the skip
    must keep.  A lower bound such as 15 is a multiple of few strides, so
    most shapes start at the first multiple above it, from the closed
    forms there.
    """
    for lambda_max in (*range(1, 9), 16):
        full = list(_windows(lambda_max))
        for cap in (0, 1, 2, 3, RADIUS_B_MAX):
            capped = list(_windows(lambda_max, cap))
            assert capped == [w for w in full if w[0] <= cap], (lambda_max, cap)
            wide = list(_windows(lambda_max, b_min=cap + 1))
            assert wide == [w for w in full if w[0] > cap], (lambda_max, cap)
        for b_min in (5, 7, 16, 33):
            wide = list(_windows(lambda_max, b_min=b_min))
            assert wide == [w for w in full if w[0] >= b_min], (lambda_max, b_min)


def test_window_float_is_the_float_of_its_reduced_square():
    """num / d, a correctly rounded int / int, is p / q for num / d = p / q in lowest terms."""
    for lambda_max in range(1, 13):
        for *_, num, d in _windows(lambda_max):
            r = Fraction(num, d)
            assert num / d == r.numerator / r.denominator, (num, d)


def test_collect_radii_checks_float_hits_exactly(monkeypatch):
    """The narrow pass files windows of one square under one reduced key,
    and two squares sharing a float raise instead of merging.  The wide
    pass looks windows up by float: two radii sharing a float raise, and
    a window whose float matches a radius but whose square differs from
    it is not its seed."""
    near_third = (-1 / 3).as_integer_ratio()
    assert Fraction(*near_third) != Fraction(-1, 3) and near_third[0] / near_third[1] == -1 / 3

    def window(b, lam, num, d):  # a = c = 0, its own mirror
        return b, oracle.pack_seed(0, 0, 0, lam, 2), None, num, d

    third = window(0, (1, 1, 1), 1, -3)  # num / det = -1/3
    third_again = window(1, (1, 2, 1), 2, -6)
    close = window(2, (1, 1, 1), -near_third[0], -near_third[1])
    windows = [third, third_again]
    monkeypatch.setattr(engine, "_windows", lambda *args, **kwargs: iter(windows))
    radii = collect_radii(2)
    assert list(radii) == [(-1, 3)]
    assert [s.lam for s in oracle.seed_chains(radii[-1, 3], 2)] == [(1, 1, 1), (1, 2, 1)]
    windows = [third, close]
    with pytest.raises(EngineError, match="share a float"):
        collect_radii(2)
    windows = [third]
    for key, filed in (((-1, 3), [third[1]]), (near_third, [])):
        monkeypatch.setattr(engine, "collect_radii", lambda lm, key=key: {key: []})
        assert _seed_map(2) == {key: filed}, key
    monkeypatch.setattr(engine, "collect_radii", lambda lm: {(-1, 3): [], near_third: []})
    with pytest.raises(EngineError, match="share a float"):
        _seed_map(2)


def test_radii_at_the_lambda_ceiling_have_distinct_floats_in_order():
    keys = list(collect_radii(LAMBDA_MAX_CEILING))
    radii = list(map(oracle.radius, keys))
    floats = [p / q for p, q in keys]
    assert radii == sorted(radii)
    assert all(x < y for x, y in zip(floats, floats[1:]))


def test_windows_are_exactly_the_non_positive_squares():
    """_windows(4) and its mirrors are every hyperbolic window with num >= 0
    (r <= 0), b <= 200.

    A brute-force scan of each shape over b in [0, 200], compared as a
    multiset; no shape's bound comes near 200.
    """
    brute = []
    for a, c, lam in _all_shapes(4):
        for b in range(201):
            d = _window_det(a, b, c)
            num = oracle.window_square_num(a, b, c, *lam)
            if d < 0 and num >= 0 and oracle.long_divisible(b, lam[0], lam[2]):
                brute.append((a, b, c, lam, num, d))
    fast = list(_windows(4))
    assert sorted(oracle.mirror_expanded(fast, 4)) == sorted(brute)
    assert max(b for b, *_ in fast) < 100


def test_seed_map_matches_sweep_bounded_by_largest_radius():
    """_seed_map agrees with seeds bucketed from the oracle sweep bounded at max(radii).

    That bound is the one the seed sweep used before it stopped at num's
    larger root; every seed has square <= max(radii), so both find the
    same windows at each radius, compared as multisets.
    """
    for lambda_max in range(1, 9):
        radii = list(map(oracle.radius, collect_radii(lambda_max)))
        buckets = {r: [] for r in radii}
        sweep = oracle.windows(lambda_max, oracle.long_pairing_bound(max(radii)))
        for a, b, c, lam, num, d in sweep:
            bucket = buckets.get(Fraction(num, d))
            if bucket is not None:
                bucket.append(ChainState(3, (-a, -b, -c), lam))
        seeds = oracle.engine_seeds(lambda_max)
        assert list(seeds) == list(buckets), lambda_max
        for r in radii:
            assert sorted(seeds[r]) == sorted(buckets[r]), (lambda_max, r)


def test_half_sweep_and_its_mirrors_are_the_full_sweep():
    """_windows plus the mirror of each window that is not its own mirror is
    the oracle's full stream, as a multiset, for both sweeps and small caps;
    every radius's seeds are closed under the mirror, as a multiset."""
    root = oracle.long_pairing_bound(Fraction(0))
    for lambda_max in range(1, 9):
        for cap in (None, 0, 1, 2, 3, RADIUS_B_MAX):
            b_max = root if cap is None else lambda *q, cap=cap: min(root(*q), cap)
            expanded = sorted(oracle.mirror_expanded(_windows(lambda_max, cap), lambda_max))
            assert expanded == sorted(oracle.windows(lambda_max, b_max)), (lambda_max, cap)
        for r, seeds in oracle.engine_seeds(lambda_max).items():
            assert sorted(seeds) == sorted(map(oracle.mirror_seed, seeds)), (lambda_max, r)


@pytest.mark.parametrize("lambda_max", [1, 2, 3, 4, 5, 6, 16])
def test_packed_seed_map_is_the_oracle_seed_map_in_order(lambda_max):
    """_seed_map, each seed unpacked, is the oracle's seed map: the seeds
    built from engine_oracle.windows plus their mirrors, radius by radius
    and in order."""
    expected = oracle.seed_map(lambda_max)
    assert list(oracle.engine_seeds(lambda_max).items()) == list(expected.items())


@pytest.mark.parametrize("lambda_max", [64, 128, 1000])
def test_seed_round_trip_at_the_widest_fields(lambda_max):
    """A window with a = c = 2, every lambda lambda_max and b >= 2^20 packs
    and unpacks exactly, and the chain loop capped at 3 sides reads it back
    as a live chain.  Its head (l1, a, l2) is its tail (l2, c, l3), so the
    loop capped at 4 sides joins it to itself and glues what the key join
    glues: one chain for even b.  With b = 2, the largest closing b, and
    coprime lambdas (lambda_max, 1, lambda_max), it is read back as a
    polygon."""
    lam = (lambda_max,) * 3
    key = (-1, 1)
    glued = 0
    for b in (2**20, 2**20 + 1, 2**40 + 5):
        w = oracle.pack_seed(2, b, 2, lam, lambda_max)
        assert oracle.seed_window(w, lambda_max) == (2, b, 2, lam)
        x = ChainState(3, (-2, -b, -2), lam)
        assert oracle.engine_chain_loop({key: [w]}, lambda_max, 3) == ([], [x])
        pairs, extensions = oracle.key_join([x])
        assert pairs == [(x, x)]
        assert oracle.engine_chain_loop({key: [w]}, lambda_max, 4) == ([], extensions)
        glued += len(extensions)
    assert glued == 1
    lam = (lambda_max, 1, lambda_max)
    w = oracle.pack_seed(2, 2, 2, lam, lambda_max)
    closed, capped = oracle.engine_chain_loop({key: [w]}, lambda_max, 3)
    assert (closed, capped) == ([PolygonDatum(3, (-2, -2, -2), lam)], [])


@pytest.mark.parametrize("lambda_max", [64, 128])
def test_windows_pack_their_shapes_at_full_width(lambda_max):
    """Every window of _windows(lambda_max, 2), read back by the oracle, has
    the num and det of its fields, admissible lambdas, and its mirror's
    fields; lambda_max itself is reached, so the top lambda bits are used."""
    top = 0
    for a, b, c, lam, mirror, num, d in oracle.unpacked_windows(
        _windows(lambda_max, 2), lambda_max
    ):
        assert (num, d) == (oracle.window_square_num(a, b, c, *lam), _window_det(a, b, c))
        assert oracle.adjacent_divisible(a, c, *lam) and oracle.long_divisible(b, lam[0], lam[2])
        assert mirror in (None, (c, b, a, lam[::-1])), (a, b, c, lam)
        top = max(top, *lam)
    assert top == lambda_max


def _private_engine_names(source: str) -> set[str]:
    """The private ``hypercartan.engine`` names a test module imports, reads as
    attributes of the module, or hands to ``setattr`` on it."""
    tree = ast.parse(source)
    modules = {"hypercartan.engine"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hypercartan":
            modules |= {a.asname or a.name for a in node.names if a.name == "engine"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "hypercartan.engine" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hypercartan.engine":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            names.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            target, name = node.args[:2]
            if ast.unparse(target) in modules and isinstance(name, ast.Constant):
                names.add(str(name.value))
    return {name for name in names if name.startswith("_")}


def test_tests_name_four_private_engine_names():
    """The tests reach the engine's representation through four private
    names: the window scan, the seed map, the chain loop and the period
    test (see ``engine_oracle``'s three seams)."""
    named = set()
    for path in Path(__file__).parent.glob("*.py"):
        named |= _private_engine_names(path.read_text(encoding="utf-8"))
    assert named <= {"_windows", "_seed_map", "_chain_loop", "_detect_period"}, sorted(named)
    assert _private_engine_names(
        "from hypercartan import engine as e\nfrom hypercartan.engine import _glue, run_elliptic\n"
        "e._weyl_row(x)\nmonkeypatch.setattr(e, '_join_seeds', f)\n"
    ) == {"_glue", "_weyl_row", "_join_seeds"}
