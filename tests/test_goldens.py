import ast
import inspect
from collections import Counter
from fractions import Fraction

import pytest

from engine_oracle import pair
from hypercartan import goldens
from hypercartan.core import polygon_table, verify_realization
from hypercartan.engine import run_elliptic
from hypercartan.goldens import (
    GoldenFormatError,
    GoldenRow,
    canonical_key,
    cross_check,
    format_golden_block,
    lattice_fixtures,
    parse_golden_text,
    parse_rational,
    self_check_catalog,
    golden_catalog,
    verify_fixture,
)
from reader_oracle import reference_verify_fixture, unit_polygon

EXPECTED_RADIUS_COUNTS = {
    Fraction(-59, 2): 1,
    Fraction(-22): 1,
    Fraction(-16): 1,
    Fraction(-23, 2): 1,
    Fraction(-10): 1,
    Fraction(-17, 2): 1,
    Fraction(-7): 2,
    Fraction(-6): 1,
    Fraction(-11, 2): 2,
    Fraction(-4): 5,
    Fraction(-7, 2): 1,
    Fraction(-5, 2): 1,
    Fraction(-13, 6): 1,
    Fraction(-17, 8): 1,
    Fraction(-2): 4,
    Fraction(-3, 2): 2,
    Fraction(-1): 6,
    Fraction(-2, 3): 1,
    Fraction(-5, 8): 1,
    Fraction(-1, 2): 6,
    Fraction(-2, 5): 1,
    Fraction(-7, 18): 1,
    Fraction(-1, 4): 2,
    Fraction(-2, 9): 1,
    Fraction(-1, 6): 13,
    Fraction(-1, 8): 1,
    Fraction(-1, 24): 1,
}

EXPECTED_SYM_ORDERS = {
    "1,0": 1, "1,I": 2, "1,II": 6, "1,III": 2,
    "2,0": 2, "2,I": 4, "2,II": 8, "2,III": 8,
    "3,0": 2, "3,I": 4, "3,II": 12, "3,III": 12,
}


def test_catalog_has_sixty_rows():
    rows = golden_catalog()
    assert len(rows) == 60
    assert rows[0].r == Fraction(-59, 2)
    assert rows[0].table == ((1, 2, 2), (0, 1, 2))
    last = rows[-1]
    assert last.r == Fraction(-1, 24)
    assert last.datum().n == 12
    assert last.datum().lam == (1,) * 12


def test_catalog_radius_distribution():
    counts = Counter(row.r for row in golden_catalog())
    assert dict(counts) == EXPECTED_RADIUS_COUNTS


def test_catalog_self_check_passes():
    for check in self_check_catalog():
        assert check.passed, (check.name, check.detail)


def test_catalog_rows_round_trip_through_tables():
    for row in golden_catalog():
        d = row.datum()
        assert polygon_table(d) == row.table


def test_self_check_detects_corruption():
    rows = list(golden_catalog())
    bad_table = tuple(
        tuple(v + (1 if (i, j) == (1, 0) else 0) for j, v in enumerate(r))
        for i, r in enumerate(rows[0].table)
    )
    rows[0] = GoldenRow(rows[0].r, bad_table)
    checks = {c.name: c for c in self_check_catalog(tuple(rows))}
    assert not checks["rows-valid"].passed


def test_fixture_cartan_matrices_shape():
    fixtures = lattice_fixtures()
    assert len(fixtures) == 12
    by_name = {f.name: f.expected_cartan for f in fixtures}
    assert by_name["1,0"] == ((2, 0, -1), (0, 2, -2), (-1, -2, 2))
    assert by_name["3,III"][0] == (
        2, -2, -11, -25, -37, -47, -50, -46, -37, -23, -11, -1,
    )
    for m in by_name.values():
        n = len(m)
        for i in range(n):
            assert m[i][i] == 2
            for j in range(n):
                assert m[i][j] == m[j][i]


def test_fixture_radius_association():
    assert {f.name: f.expected_r for f in lattice_fixtures()} == {
        "1,0": Fraction(-23, 2), "1,I": Fraction(-4), "1,II": Fraction(-3, 2),
        "1,III": Fraction(-7, 18), "2,0": Fraction(-7, 2), "2,I": Fraction(-1),
        "2,II": Fraction(-1, 2), "2,III": Fraction(-1, 8),
        "3,0": Fraction(-13, 6), "3,I": Fraction(-2, 3),
        "3,II": Fraction(-1, 6), "3,III": Fraction(-1, 24),
    }


def test_all_fixtures_verify():
    for fixture in lattice_fixtures():
        report = verify_fixture(fixture)
        assert report.valid, (fixture.name, report.failures())
        assert report.weyl_square == fixture.expected_r


def test_fixture_sym_orders():
    for fixture in lattice_fixtures():
        assert fixture.expected_sym_order == EXPECTED_SYM_ORDERS[fixture.name]


def test_fixture_polygons_match_catalog_rows():
    rows_by_key = {canonical_key(row.datum()): row for row in golden_catalog()}
    for fixture in lattice_fixtures():
        key = canonical_key(unit_polygon(fixture.root_gram()))
        assert key in rows_by_key
        assert rows_by_key[key].r == fixture.expected_r


def test_fixture_verification_detects_wrong_root():
    fixture = lattice_fixtures()[0]
    broken = fixture._replace(roots=((2, 0, 0),) + fixture.roots[1:])
    report = verify_fixture(broken)
    assert not report.valid


def _mutated_fixtures():
    """Each fixture, with root 1 moved by a unit vector, and with a wrong det."""
    for f in lattice_fixtures():
        yield f
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            moved = tuple(a + b for a, b in zip(f.roots[0], e))
            yield f._replace(roots=(moved,) + f.roots[1:])
        yield f._replace(expected_det=f.expected_det + 1)


def test_verify_fixture_matches_rational_oracle():
    failing = set()
    for f in _mutated_fixtures():
        report = verify_fixture(f)
        assert report.checks == reference_verify_fixture(f).checks, f.name
        failing |= {c.name for c in report.failures()}
    # both the sublattice test and the determinant test are seen failing
    assert {"roots-in-lattice", "lattice-determinant"} <= failing


def test_passed_checks_carry_no_detail():
    """A pass has detail ""; a failure names what failed."""
    checks = [c for row in golden_catalog() for c in verify_realization(row.datum()).checks]
    checks += [c for f in _mutated_fixtures() for c in verify_fixture(f).checks]
    checks += self_check_catalog()
    checks += self_check_catalog(golden_catalog()[1:])  # 59 rows: some pass, some fail
    passed = [c for c in checks if c.passed]
    assert len(passed) > len(golden_catalog()) * 7 + len(lattice_fixtures()) * 7
    assert [c for c in passed if c.detail] == []
    assert all(c.detail for c in checks if not c.passed)


def test_verify_fixture_singular_basis_fails_without_raising():
    """A basis of rank 2: the lattice determinant is 0 and no root has coordinates."""
    f = lattice_fixtures()[0]
    b1, b2, _ = f.basis
    singular = f._replace(basis=(b1, b2, tuple(x + y for x, y in zip(b1, b2))))
    checks = {c.name: c for c in verify_fixture(singular).checks}
    assert not checks["lattice-determinant"].passed
    assert checks["lattice-determinant"].detail.startswith("det 0, expected ")
    assert not checks["roots-in-lattice"].passed
    expected = [(i, None) for i in range(1, len(f.roots) + 1)]
    assert checks["roots-in-lattice"].detail == f"roots outside the sublattice: {expected}"


def test_goldens_imports_only_public_core_names():
    tree = ast.parse(inspect.getsource(goldens))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "core"
        for alias in node.names
    ]
    assert "canonical_key" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_golden_text_parser_round_trip():
    rows = golden_catalog()
    text = "\n\n".join(format_golden_block(r.r, r.table) for r in rows)
    assert [(p.r, p.table) for p in parse_golden_text(text)] == [
        (p.r, p.table) for p in rows
    ]


def test_golden_text_parser_errors():
    with pytest.raises(GoldenFormatError):
        parse_golden_text("")
    with pytest.raises(GoldenFormatError):
        parse_golden_text("x = 3\n1 1 1\n")
    with pytest.raises(GoldenFormatError):
        parse_golden_text("r = -2\n1 a 1\n")
    with pytest.raises(GoldenFormatError):
        parse_golden_text("r = -2\n")
    # int() reads these; the table grammar is ASCII -?[0-9]+
    for row in ("0 1 +2", "0_0 1 2", "0 1 \u0662", "0 1 - 2", "0 1 2-"):
        with pytest.raises(GoldenFormatError, match="not an ASCII integer"):
            parse_golden_text(f"r = -2\n1 1 1\n{row}\n")
    assert parse_golden_text("r = -2\n1 1 1\n0 -1 2\n")[0].table[1] == (0, -1, 2)


def test_parse_rational_reads_exactly_what_the_package_prints():
    for r in {row.r for row in golden_catalog()} | {Fraction(0), Fraction(3, 7)}:
        assert parse_rational(f" {r} ") == r
    assert parse_rational("+6/4") == Fraction(3, 2)
    for text in ("-1e5", "-0.5", "1_000", "1/0", "1/-2", "-", "", "\u0663", "\u22121"):
        with pytest.raises(GoldenFormatError):
            parse_rational(text)


@pytest.fixture(scope="module")
def catalog2():
    return run_elliptic(2)


def test_cross_check_flags_missing_and_extra(catalog2):
    records = list(catalog2.records)
    golden_subset = tuple(
        row for row in golden_catalog() if max(row.datum().lam) <= 2
    )
    report = cross_check(records, golden_subset)
    assert report.ok, (report.missing, report.extra, report.mismatched)

    dropped = cross_check(records[1:], golden_subset)
    assert len(dropped.missing) == 1 and not dropped.extra

    foreign = [r for r in run_elliptic(3).records if max(r.lam) == 3][:1]
    extra = cross_check(records + foreign, golden_subset)
    assert len(extra.extra) == 1 and not extra.missing


def test_cross_check_lambda2_against_subset_catches_symmetric_noncompact_matrices(catalog2):
    report = cross_check(list(catalog2.records))
    # the full golden catalog has rows the lambda<=2 run cannot reach
    assert report.missing and not report.extra


def test_cross_check_names_each_mismatch():
    records = list(run_elliptic(6).records)
    assert cross_check(records).ok
    (named,) = [
        rec for rec in records
        if rec.r == Fraction(-23, 2) and rec.untwisted and not rec.compact
    ]
    a, b = [rec for rec in records if not rec.untwisted][:2]

    moved = [rec._replace(r=rec.r - 1) if rec is a else rec for rec in records]
    assert cross_check(moved).mismatched == (
        f"radius disagrees at {(a.n, a.body)}: engine {a.r - 1}, golden {a.r}",
    )

    twice = cross_check(records + [named])
    assert not (twice.missing or twice.extra)
    assert twice.engine_count == 61
    assert twice.mismatched == (
        "1,0: expected a unique untwisted non-compact record at r=-23/2, found 2",
        f"engine emits {(named.n, named.body)} 2 times",
    )

    # 1,0 flagged twisted, and the twisted record b standing in at its radius
    stand_in = [
        rec._replace(untwisted=False) if rec is named
        else rec._replace(r=named.r, untwisted=True, compact=False) if rec is b
        else rec
        for rec in records
    ]
    assert cross_check(stand_in).mismatched == (
        "1,0: record at r=-23/2 does not realize the matrix",
        f"radius disagrees at {(b.n, b.body)}: engine -23/2, golden {b.r}",
    )


def test_cross_check_counts_and_names_duplicate_classes():
    """A class the engine emits twice is named, whichever record repeats."""
    records = list(run_elliptic(6).records)
    assert cross_check(records).engine_count == 60
    twisted = [rec for rec in records if not rec.untwisted][:2]
    report = cross_check(records + twisted + twisted[:1])
    assert report.engine_count == 63
    assert not (report.missing or report.extra)
    a, b = twisted
    assert report.mismatched == tuple(sorted((
        f"engine emits {(a.n, a.body)} 3 times",
        f"engine emits {(b.n, b.body)} 2 times",
    )))
    assert not report.ok


def test_self_check_catalog_lets_a_decoder_bug_propagate(monkeypatch):
    """Only TableDecodeError is a catalog fault; any other error is a bug."""

    def broken(table):
        raise RuntimeError("decoder bug")

    monkeypatch.setattr(goldens, "table_to_datum", broken)
    with pytest.raises(RuntimeError, match="decoder bug"):
        self_check_catalog()


def test_goldens_import_loads_no_engine():
    """``goldens`` depends on ``core`` only; ``-S`` keeps site hooks out."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, hypercartan.goldens\n"
        "assert 'hypercartan.engine' not in sys.modules, 'engine loaded'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_realization_on_every_row_matches_stored_r():
    for row in golden_catalog():
        report = verify_realization(row.datum())
        assert report.valid
        assert report.weyl_square == row.r


def test_catalog_cartan_matrices_are_generalized_cartan():
    for row in golden_catalog():
        d = row.datum()
        report = verify_realization(d)
        a, b = report.cartan, report.symcartan
        n = d.n
        for i in range(n):
            assert a[i][i] == 2
            assert b[i][i] == 2 * d.lam[i] ** 2
            for j in range(n):
                if i != j:
                    assert a[i][j] <= 0
                    assert (a[i][j] == 0) == (a[j][i] == 0)
                    assert (2 * b[i][j]) % b[i][i] == 0  # even-symmetrizable
                assert b[i][j] == b[j][i]
                assert b[i][j] == d.lam[i] * d.lam[j] * pair(d, i + 1, j + 1)


def test_catalog_symmetry_generators_fix_each_row():
    from hypercartan.core import symmetry_group
    from reader_oracle import reference_symmetry_group

    for row in golden_catalog():
        d = row.datum()
        order = symmetry_group(d)
        assert (2 * d.n) % order == 0
        assert order == reference_symmetry_group(d)
