"""Embedded golden data and the checks tying it to the search engine.

Two data files ship with the package: the full 60-entry catalog of
realization tables (``data/catalog.txt``, in the same plain-text block
format the CLI reads and writes) and the twelve explicit lattice
realizations of the symmetric non-compact solutions A_{1,0} ... A_{3,III}
(``data/fixtures.json``), each with its root coordinates, Weyl vector,
symmetry order and expected Cartan matrix.  The fixtures are the named
matrices: the engine cross-check reads each one's name, radius and
expected Cartan matrix.  Fixtures are checked on integers: the lattice
determinant by cofactor expansion, root membership by Cramer's rule on
the 3x3 basis, and the Weyl pairings on D rho, for D the lcm of rho's
denominators.  This module imports public ``core`` names only; engine
records reach it as arguments.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    CheckResult,
    PolygonDatum,
    RealizationReport,
    TableDecodeError,
    canonical_key,
    check_result,
    symmetry_group,
    table_to_datum,
    verify_realization,
)

if TYPE_CHECKING:
    from .engine import CatalogRecord


class GoldenFormatError(ValueError):
    """A golden-format text block that cannot be parsed."""


class GoldenRow(NamedTuple):
    r: Fraction
    table: tuple[tuple[int, ...], ...]

    def datum(self) -> PolygonDatum:
        return table_to_datum(self.table)


def _unit_polygon(m) -> PolygonDatum:
    """The lambda = 1 polygon whose pairings are the strict upper triangle of m."""
    n = len(m)
    pairings = tuple(m[i][j] for i in range(n) for j in range(i + 1, n))
    return PolygonDatum(n, pairings, (1,) * n)


class LatticeFixture(NamedTuple):
    """An explicit realization: lattice basis, root and Weyl coordinates.

    ``basis`` rows and ``roots`` are coordinates in the ambient family
    lattice whose Gram matrix is ``family_gram``; the named lattice is
    the span of the basis rows, and the roots must lie in it.
    """

    name: str
    family_gram: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[int, ...], ...]
    rho: tuple[Fraction, Fraction, Fraction]
    expected_r: Fraction
    expected_sym_order: int
    lattice: str
    expected_det: int
    expected_cartan: tuple[tuple[int, ...], ...]

    def root_gram(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.pairing(u, v) for v in self.roots) for u in self.roots)

    def pairing(self, u, v):
        """(u, v) in the family lattice: an integer for integer coordinates."""
        g = self.family_gram
        return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))


class CrossCheckReport(NamedTuple):
    engine_count: int
    missing: tuple[tuple[int, tuple[int, ...]], ...]
    extra: tuple[tuple[int, tuple[int, ...]], ...]
    mismatched: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.mismatched)


# A rational as the package prints one: an optional sign, ASCII digits and
# an optional /denominator.  No exponent, decimal point or underscore, so
# the value costs no more than its digits.
RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """``text`` without surrounding whitespace, read as RATIONAL; else GoldenFormatError."""
    match = RATIONAL.fullmatch(text.strip())
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError):  # int digit limit, zero denominator
            pass
    raise GoldenFormatError(f"bad rational {text!r}")


def parse_golden_text(text: str) -> list[GoldenRow]:
    """Parse golden-format blocks: 'r = p/q' then the table rows.

    Blank lines separate blocks; lines starting with '#' are comments.
    """
    rows: list[GoldenRow] = []
    block: list[str] = []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line:
            block.append(line)
            continue
        if not block:
            continue
        head = block[0]
        name, eq, value = head.partition("=")
        if not eq or name.strip() != "r":
            raise GoldenFormatError(f"block must start with 'r = ...', got {head!r}")
        r = parse_rational(value)
        # Entries are ASCII integers -?[0-9]+, whitespace-separated.  int()
        # also reads '+2', '0_0' and non-ASCII digits such as '\u0662'; with
        # '+', '_' and non-ASCII text ruled out by one scan of the block, it
        # reads exactly that grammar.  The minus stays, so that a negative
        # lambda or a positive pairing reaches table_to_datum, which names it.
        entries = "".join(block[1:])
        try:
            table_rows = tuple([tuple(map(int, line.split())) for line in block[1:]])
        except ValueError:  # a token int() refuses, or one past its digit limit
            table_rows = None
        if table_rows is None or not entries.isascii() or "+" in entries or "_" in entries:
            raise GoldenFormatError(
                f"table entry not an ASCII integer -?[0-9]+ in block r={r}"
            )
        if not table_rows:
            raise GoldenFormatError(f"block r={r} has no table rows")
        rows.append(GoldenRow(r, table_rows))
        block = []
    if not rows:
        raise GoldenFormatError("no blocks found")
    return rows


def format_golden_block(r: Fraction, table: tuple[tuple[int, ...], ...]) -> str:
    lines = [f"r = {r}"]
    lines.extend(" ".join(str(v) for v in row) for row in table)
    return "\n".join(lines)


def _data_text(name: str) -> str:
    return resources.files("hypercartan.data").joinpath(name).read_text()


@lru_cache(maxsize=None)
def golden_catalog() -> tuple[GoldenRow, ...]:
    """The embedded 60-entry catalog, in ascending order of r."""
    return tuple(parse_golden_text(_data_text("catalog.txt")))


@lru_cache(maxsize=None)
def lattice_fixtures() -> tuple[LatticeFixture, ...]:
    payload = json.loads(_data_text("fixtures.json"))
    out = []
    for fx in payload["fixtures"]:
        out.append(
            LatticeFixture(
                name=fx["name"],
                family_gram=tuple(tuple(row) for row in fx["family_gram"]),
                basis=tuple(tuple(row) for row in fx["basis"]),
                roots=tuple(tuple(row) for row in fx["roots"]),
                rho=tuple(parse_rational(x) for x in fx["rho"]),
                expected_r=parse_rational(fx["r"]),
                expected_sym_order=fx["sym_order"],
                lattice=fx["lattice"],
                expected_det=fx["lattice_det"],
                expected_cartan=tuple(tuple(row) for row in fx["cartan"]),
            )
        )
    return tuple(out)


def _det3(m) -> int:
    """Determinant of a 3x3 integer matrix by cofactor expansion along row 1."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def verify_fixture(f: LatticeFixture) -> RealizationReport:
    """Re-derive everything a fixture claims and compare.

    Checks: the sublattice determinant, that the roots lie in the
    sublattice, root norms, the Gram matrix against the expected Cartan
    matrix, the Weyl pairings (rho, delta_i) = -1, the Weyl square, and
    the symmetry order of the induced polygon.  The report's Weyl square
    is (rho, rho).
    """
    n = len(f.roots)
    gram = f.root_gram()

    # det(B F B^T) = det(B)^2 det(F) for basis B and family Gram F
    db = _det3(f.basis)
    d = db * db * _det3(f.family_gram)

    # Cramer's rule: coordinate i of a root is det(basis, row i := root) / db
    non_integral = []
    for idx, root in enumerate(f.roots, start=1):
        nums = [_det3(f.basis[:i] + (root,) + f.basis[i + 1 :]) for i in range(3)]
        if not db or any(v % db for v in nums):
            non_integral.append((idx, tuple(Fraction(v, db) for v in nums) if db else None))

    bad_norm = [(i + 1, gram[i][i]) for i in range(n) if gram[i][i] != 2]
    gram_mismatch = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if gram[i][j] != f.expected_cartan[i][j]
    ]
    # D rho is integral for the lcm D of rho's denominators: pair it on integers.
    den = lcm(*(x.denominator for x in f.rho))
    rho = tuple([x.numerator * (den // x.denominator) for x in f.rho])
    weyl = [(i + 1, f.pairing(rho, root)) for i, root in enumerate(f.roots)]
    bad_weyl = [(i, Fraction(p, den)) for i, p in weyl if p != -den]
    rr = Fraction(f.pairing(rho, rho), den * den)
    order = symmetry_group(_unit_polygon(gram))

    checks = (
        check_result("lattice-determinant", "" if d == f.expected_det
                     else f"det {d}, expected {f.expected_det} ({f.lattice})"),
        check_result("roots-in-lattice", "" if not non_integral
                     else f"roots outside the sublattice: {non_integral}"),
        check_result("root-norms", f"squares != 2: {bad_norm}" if bad_norm else ""),
        check_result("gram-matches-cartan",
                     f"pairs off: {gram_mismatch}" if gram_mismatch else ""),
        check_result("weyl-pairings",
                     f"(rho, delta_i) != -1 at {bad_weyl}" if bad_weyl else ""),
        check_result("weyl-square", "" if rr == f.expected_r
                     else f"(rho, rho) = {rr}, expected {f.expected_r}"),
        check_result("symmetry-order", "" if order == f.expected_sym_order
                     else f"order {order}, expected {f.expected_sym_order}"),
    )
    return RealizationReport(checks, rr)


def self_check_catalog(
    rows: tuple[GoldenRow, ...] | None = None,
) -> list[CheckResult]:
    """The golden catalog's own consistency: decode, verify, recount."""
    if rows is None:
        rows = golden_catalog()
    bad: list[str] = []
    untwisted = 0
    compact = 0
    for idx, row in enumerate(rows, start=1):
        try:
            d = row.datum()
        except TableDecodeError as exc:  # decode failure is a data bug
            bad.append(f"row {idx} (r={row.r}): {exc}")
            continue
        report = verify_realization(d)
        if not report.valid:
            bad.append(f"row {idx} (r={row.r}): {report.failures()}")
        elif report.weyl_square != row.r:
            bad.append(
                f"row {idx}: recomputed square {report.weyl_square} != {row.r}"
            )
        untwisted += report.flags.untwisted
        compact += report.flags.compact
    return [
        check_result("catalog-size",
                     "" if len(rows) == 60 else f"{len(rows)} rows, expected 60"),
        check_result("rows-valid", "; ".join(bad)),
        check_result("untwisted-count",
                     "" if untwisted == 16 else f"{untwisted}, expected 16"),
        check_result("compact-count", "" if compact == 7 else f"{compact}, expected 7"),
    ]


def cross_check(
    records: tuple[CatalogRecord, ...] | list[CatalogRecord],
    golden_rows: tuple[GoldenRow, ...] | None = None,
) -> CrossCheckReport:
    """Compare an engine catalog against the golden data.

    Canonical forms must biject with the golden catalog, the engine
    emitting each once, and the twelve untwisted non-compact records must
    realize the named symmetric matrices at their stated radii.  Golden
    rows that do not decode are left out; ``self_check_catalog`` reports
    them.
    """
    if golden_rows is None:
        golden_rows = golden_catalog()
    engine_keys = {(rec.n, rec.body): rec for rec in records}
    counts = Counter((rec.n, rec.body) for rec in records)
    golden_keys: dict[tuple[int, tuple[int, ...]], GoldenRow] = {}
    for row in golden_rows:
        try:
            golden_keys[canonical_key(row.datum())] = row
        except TableDecodeError:
            continue

    missing = tuple(sorted(k for k in golden_keys if k not in engine_keys))
    extra = tuple(sorted(k for k in engine_keys if k not in golden_keys))

    mismatched = [f"engine emits {key} {c} times" for key, c in counts.items() if c > 1]
    for key, row in golden_keys.items():
        rec = engine_keys.get(key)
        if rec is not None and rec.r != row.r:
            mismatched.append(
                f"radius disagrees at {key}: engine {rec.r}, golden {row.r}"
            )

    for f in lattice_fixtures():
        matches = [
            rec
            for rec in records
            if rec.r == f.expected_r and rec.untwisted and not rec.compact
        ]
        if len(matches) != 1:
            mismatched.append(
                f"{f.name}: expected a unique untwisted non-compact record "
                f"at r={f.expected_r}, found {len(matches)}"
            )
            continue
        rec = matches[0]
        if (rec.n, rec.body) != canonical_key(_unit_polygon(f.expected_cartan)):
            mismatched.append(
                f"{f.name}: record at r={f.expected_r} does not realize the matrix"
            )

    return CrossCheckReport(
        engine_count=len(records),
        missing=missing,
        extra=extra,
        mismatched=tuple(sorted(mismatched)),
    )
