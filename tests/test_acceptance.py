"""Acceptance suite: one test per catalog-level requirement.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
verdict per criterion.
"""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from hypercartan.cli import _record_json
from hypercartan.core import PolygonDatum, verify_realization
from hypercartan.engine import (
    _min_rotation,
    collect_radii,
    run_elliptic,
    run_parabolic,
    seed_triples,
)
from hypercartan.goldens import (
    canonical_key,
    cross_check,
    lattice_fixtures,
    golden_catalog,
    verify_fixture,
)

import engine_oracle

EXPECTED_RADIUS_COUNTS = {
    Fraction(-59, 2): 1, Fraction(-22): 1, Fraction(-16): 1,
    Fraction(-23, 2): 1, Fraction(-10): 1, Fraction(-17, 2): 1,
    Fraction(-7): 2, Fraction(-6): 1, Fraction(-11, 2): 2,
    Fraction(-4): 5, Fraction(-7, 2): 1, Fraction(-5, 2): 1,
    Fraction(-13, 6): 1, Fraction(-17, 8): 1, Fraction(-2): 4,
    Fraction(-3, 2): 2, Fraction(-1): 6, Fraction(-2, 3): 1,
    Fraction(-5, 8): 1, Fraction(-1, 2): 6, Fraction(-2, 5): 1,
    Fraction(-7, 18): 1, Fraction(-1, 4): 2, Fraction(-2, 9): 1,
    Fraction(-1, 6): 13, Fraction(-1, 8): 1, Fraction(-1, 24): 1,
}

EXPECTED_FIXTURE_SYM = [1, 2, 6, 2, 2, 4, 8, 8, 2, 4, 12, 12]


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def catalog6():
    start = time.monotonic()
    result = run_elliptic(6, 32)
    result_elapsed = time.monotonic() - start
    return result, result_elapsed


@pytest.fixture(scope="module")
def catalog1():
    return run_elliptic(1, 32)


def test_criterion_1_catalog_cardinality(catalog6):
    result, elapsed = catalog6
    report = cross_check(result.records)
    ok = (
        len(result.records) == 60
        and not result.cap_events
        and report.ok
        and elapsed < 7200
    )
    _report(
        1,
        "lambda_max=6 emits exactly 60 records bijective with the catalog",
        ok,
        f"{len(result.records)} records in {elapsed:.1f}s; "
        f"missing={len(report.missing)} extra={len(report.extra)} "
        f"mismatched={len(report.mismatched)}",
    )


def test_criterion_2_symmetric_subcatalog(catalog1):
    result = catalog1
    noncompact = [rec for rec in result.records if not rec.compact]
    problems = []
    if len(result.records) != 16:
        problems.append(f"{len(result.records)} records, expected 16")
    if len(noncompact) != 12:
        problems.append(f"{len(noncompact)} non-compact, expected 12")
    for f in lattice_fixtures():
        m, n = f.expected_cartan, len(f.expected_cartan)
        upper = tuple(m[i][j] for i in range(n) for j in range(i + 1, n))
        key = canonical_key(PolygonDatum(n, upper, (1,) * n))
        matches = [rec for rec in noncompact if rec.r == f.expected_r]
        if len(matches) != 1:
            problems.append(f"{f.name}: {len(matches)} records at r={f.expected_r}")
            continue
        if (matches[0].n, matches[0].body) != key:
            problems.append(f"{f.name}: matrix mismatch at r={f.expected_r}")
    _report(
        2,
        "lambda_max=1 gives 16 records; the 12 non-compact realize the "
        "named symmetric matrices with their radii",
        not problems,
        "; ".join(problems) if problems else "all 12 matched",
    )


def test_criterion_3_flag_counts(catalog6):
    result, _ = catalog6
    compact = sum(1 for rec in result.records if rec.compact)
    untwisted = sum(1 for rec in result.records if rec.untwisted)
    nc_untwisted = sum(
        1 for rec in result.records if rec.untwisted and not rec.compact
    )
    ok = (compact, untwisted, nc_untwisted) == (7, 16, 12)
    _report(
        3,
        "flag counts at lambda_max=6: compact=7, untwisted=16, "
        "non-compact untwisted=12",
        ok,
        f"got compact={compact}, untwisted={untwisted}, "
        f"non-compact untwisted={nc_untwisted}",
    )


def test_criterion_4_per_radius_counts(catalog6):
    result, _ = catalog6
    counts = dict(Counter(rec.r for rec in result.records))
    ok = counts == EXPECTED_RADIUS_COUNTS
    diff = {
        r: (counts.get(r), EXPECTED_RADIUS_COUNTS.get(r))
        for r in set(counts) | set(EXPECTED_RADIUS_COUNTS)
        if counts.get(r) != EXPECTED_RADIUS_COUNTS.get(r)
    }
    _report(4, "per-radius counts match the catalog exactly", ok, f"diff={diff}")


def test_criterion_5_stability_at_lambda_twelve(catalog6):
    result6, _ = catalog6
    keys6 = {(rec.n, rec.body) for rec in result6.records}
    details = []
    ok = True
    for lam_max in (12, 24, 48):
        start = time.monotonic()
        result = run_elliptic(lam_max, 32)
        elapsed = time.monotonic() - start
        keys = {(rec.n, rec.body) for rec in result.records}
        ok = ok and keys == keys6 and len(result.records) == 60
        ok = ok and not result.cap_events
        details.append(
            f"lambda_max={lam_max}: {len(result.records)} records in {elapsed:.1f}s"
        )
    _report(
        5,
        "lambda_max=12, 24 and 48 emit the same 60 records",
        ok,
        "; ".join(details),
    )


def test_criterion_6_fixture_suite():
    problems = []
    orders = []
    for fixture in lattice_fixtures():
        report = verify_fixture(fixture)
        orders.append(fixture.expected_sym_order)
        if not report.valid:
            problems.append(f"{fixture.name}: {report.failures()}")
    if orders != EXPECTED_FIXTURE_SYM:
        problems.append(f"symmetry orders {orders} != {EXPECTED_FIXTURE_SYM}")
    _report(
        6,
        "all 12 lattice fixtures verify (Gram, Weyl pairings, squares, "
        "symmetry orders)",
        not problems,
        "; ".join(problems) if problems else "12/12",
    )


# --- criterion 7: brute-force oracle ---------------------------------------


def _det3s(a, b, c, d, e, f, g, h, i):
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4_sym(p12, p13, p14, p23, p24, p34):
    return (
        2 * _det3s(2, p23, p24, p23, 2, p34, p24, p34, 2)
        - p12 * _det3s(p12, p23, p24, p13, 2, p34, p14, p34, 2)
        + p13 * _det3s(p12, 2, p24, p13, p23, p34, p14, p24, 2)
        - p14 * _det3s(p12, 2, p23, p13, p23, 2, p14, p24, p34)
    )


def _divisible_all(pairings, lam, n):
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            g = pairings[idx]
            idx += 1
            if (lam[j] * g) % lam[i] or (lam[i] * g) % lam[j]:
                return False
    return True


def _oracle_catalog(bound=60):
    """Exhaustive reference: every small Gram matrix passing verification.

    Enumerates all integer Gram matrices with diagonal 2, cyclic-adjacent
    entries in [-2, 0] and the rest in [-bound, 0], all lambda tuples up
    to 2, and keeps the dihedral classes that verify with a Weyl square
    in the admissible radius set.
    """
    targets = set(map(engine_oracle.radius, collect_radii(2)))
    found: dict[tuple, Fraction] = {}

    for pairings in itertools.product(range(-2, 1), repeat=3):
        for lam in itertools.product((1, 2), repeat=3):
            if not _divisible_all(pairings, lam, 3):
                continue
            d = PolygonDatum(3, pairings, lam)
            report = verify_realization(d)
            if report.valid and report.weyl_square in targets:
                found[canonical_key(d)] = report.weyl_square

    for adj in itertools.product(range(-2, 1), repeat=4):
        p12, p23, p34, p14 = adj
        for p13 in range(-bound, 1):
            for p24 in range(-bound, 1):
                if _det4_sym(p12, p13, p14, p23, p24, p34) != 0:
                    continue
                pairings = (p12, p13, p14, p23, p24, p34)
                for lam in itertools.product((1, 2), repeat=4):
                    if not _divisible_all(pairings, lam, 4):
                        continue
                    d = PolygonDatum(4, pairings, lam)
                    report = verify_realization(d)
                    if report.valid and report.weyl_square in targets:
                        found[canonical_key(d)] = report.weyl_square
    return found


def test_criterion_7_oracle_equivalence():
    start = time.monotonic()
    oracle = _oracle_catalog()
    engine = {
        (rec.n, rec.body): rec.r
        for rec in run_elliptic(2).records
        if rec.n <= 4
    }
    elapsed = time.monotonic() - start
    only_oracle = sorted(set(oracle) - set(engine))
    only_engine = sorted(set(engine) - set(oracle))
    radius_diff = [k for k in oracle if k in engine and oracle[k] != engine[k]]
    ok = not only_oracle and not only_engine and not radius_diff and elapsed < 300
    _report(
        7,
        "engine catalog (n<=4, lambda<=2) equals the brute-force oracle",
        ok,
        f"{len(oracle)} classes in {elapsed:.1f}s; "
        f"oracle-only={only_oracle[:3]} engine-only={only_engine[:3]} "
        f"radius-mismatch={radius_diff[:3]}",
    )


def test_criterion_8_determinism_across_jobs(catalog6):
    result_ref, _ = catalog6
    mismatches = engine_oracle.radius_slice_mismatches(result_ref, 6)
    again = run_elliptic(6, 32)
    ok = not mismatches and [_record_json(rec) for rec in again.records] == [
        _record_json(rec) for rec in result_ref.records
    ]
    _report(
        8,
        "each radius searched alone gives its slice of the catalog, "
        "and two runs are byte-identical",
        ok,
        f"{len({rec.r for rec in result_ref.records})} radii with records "
        f"and 1 without; mismatches={mismatches[:3]}",
    )


def test_criterion_9_parabolic_properties():
    problems = []
    closing_total = 0
    periodic_total = 0
    for lam_max, cap in ((2, 16), (3, 14), (12, 32)):
        report = run_parabolic(lam_max, cap)
        periodic_total += len(report.periodic)
        chains = engine_oracle.reached_chains(seed_triples(0, lam_max), True, cap)
        closing = sum(1 for ch in chains if ch.pairings[ch.length - 2] >= -2)
        if closing:
            problems.append(f"{closing} r=0 chains close at lambda<={lam_max}")
        closing_total += closing
        for per in report.periodic:
            if per.length > cap:
                problems.append("periodic chain exceeds max_sides")
            block = per.signature
            for k in range(len(block)):
                if _min_rotation(block[k:] + block[:k]) != per.signature:
                    problems.append("signature is not shift-invariant")
                    break
    if periodic_total == 0:
        problems.append("no periodic chains found at all")
    _report(
        9,
        "parabolic runs: no r=0 chain closes, period signatures "
        "are shift-invariant, max_sides respected",
        not problems,
        f"closing={closing_total} periodic={periodic_total}"
        + ("; " + "; ".join(problems) if problems else ""),
    )
