"""Command-line surface: enumerate the catalog, verify goldens, check files.

Exit codes: 0 success, 1 a verification or check failed, 2 bad usage or
unparseable input, 3 the enumeration hit the max-sides cap somewhere, 4 an
engine invariant failed (an engine bug, reported as one line on stderr),
141 the reader closed standard output early (as in ``hypercartan check
big.txt | head``): the command stops quietly, with nothing on stderr,
and 141 = 128 + SIGPIPE is what a shell reports for a program that
SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import TableDecodeError, verify_realization
from .engine import (
    DEFAULT_MAX_SIDES,
    CatalogRecord,
    EngineError,
    run_elliptic,
    run_parabolic,
)
from .goldens import (
    RATIONAL,
    GoldenFormatError,
    cross_check,
    format_golden_block,
    lattice_fixtures,
    parse_golden_text,
    parse_rational,
    self_check_catalog,
    verify_fixture,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_ENGINE = 4
EXIT_PIPE = 141

# 64 took 0.68-1.15 s over 7 fresh-process runs on a shared 2-vCPU Xeon host
# (Python 3.11).  A larger value finishes too, but past 64 the cost grows
# faster than lambda^2: in later fresh-process runs on such a host, run_elliptic
# took 3.7-3.8 s and 93 MB peak RSS at 128 (the same 60 records) against
# 0.55 s and 36 MB at 64.  The ceiling stays at 64 until 128 costs at most
# 4.5 times 64 and at most 50 MB.
LAMBDA_MAX_CEILING = 64


def _record_json(rec: CatalogRecord) -> str:
    payload = {
        "r": str(rec.r),
        "n": rec.n,
        "lambda": rec.lam,
        "pairings": rec.pairings,
        "polygon_table": rec.table,
        "cartan": rec.cartan,
        "symcartan": rec.symcartan,
        "sym_order": rec.sym_order,
        "compact": rec.compact,
        "untwisted": rec.untwisted,
        "type": rec.kind,
    }
    return json.dumps(payload)


def _emit_records(records, fmt: str, out) -> None:
    if fmt == "records":
        for rec in records:
            out.write(_record_json(rec) + "\n")
    else:
        blocks = [format_golden_block(rec.r, rec.table) for rec in records]
        if blocks:
            out.write("\n\n".join(blocks) + "\n")


def _filtered(records, untwisted_only: bool, noncompact_only: bool):
    out = records
    if untwisted_only:
        out = [r for r in out if r.untwisted]
    if noncompact_only:
        out = [r for r in out if not r.compact]
    return list(out)


def cmd_enumerate(args) -> int:
    r_filter = None
    if args.r is not None:
        try:
            r_filter = parse_rational(args.r)
        except GoldenFormatError:
            print(f"error: bad rational for --r: {args.r!r}", file=sys.stderr)
            return EXIT_USAGE
    out = sys.stdout
    if args.mode == "elliptic":
        result = run_elliptic(args.lambda_max, args.max_sides, r_filter=r_filter)
        records = _filtered(result.records, args.untwisted_only, args.noncompact_only)
        _emit_records(records, args.format, out)
        for r in result.cap_events:
            print(f"warning: chain cap {args.max_sides} hit at r={r}", file=sys.stderr)
        return EXIT_CAP if result.cap_events else EXIT_OK

    if r_filter not in (None, Fraction(0)):
        print("error: parabolic mode runs at r = 0 only", file=sys.stderr)
        return EXIT_USAGE
    if args.untwisted_only or args.noncompact_only:
        print("error: --untwisted-only and --noncompact-only filter elliptic "
              "records; parabolic mode emits none", file=sys.stderr)
        return EXIT_USAGE
    report = run_parabolic(args.lambda_max, args.max_sides)
    if args.format == "records":
        for per in report.periodic:
            out.write(
                json.dumps(
                    {
                        "periodic": {
                            "period": per.period,
                            "signature": per.signature,
                            "length": per.length,
                            "lambda": per.lam,
                            "pairings": per.pairings,
                        }
                    }
                )
                + "\n"
            )
    else:
        for per in report.periodic:
            out.write(
                f"# periodic: period={per.period} detected_at={per.length} "
                f"lambda={','.join(str(l) for l in per.lam)} "
                f"signature={per.signature}\n"
            )
    if report.capped_chains:
        print(
            f"warning: {report.capped_chains} chains truncated at "
            f"{args.max_sides} sides",
            file=sys.stderr,
        )
        return EXIT_CAP
    return EXIT_OK


def _verdict(passed: bool, name: str, detail: str) -> int:
    """Print one ``verify`` line, ``ok`` or ``FAIL`` padded to 4, then the name and detail.

    The detail carries its own separator (``": ..."`` or ``" (...)"``), and
    is empty where the line has none.  Returns 1 on a failure, else 0.
    """
    print(f"{'ok' if passed else 'FAIL':4s} {name}{detail}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    failures = 0

    golden_rows = None
    if args.catalog is not None:
        try:
            golden_rows = tuple(
                parse_golden_text(Path(args.catalog).read_text(encoding="utf-8"))
            )
        except (OSError, UnicodeDecodeError, GoldenFormatError) as exc:
            print(f"error: cannot read golden file: {exc}", file=sys.stderr)
            return EXIT_USAGE

    for check in self_check_catalog(golden_rows):
        failures += _verdict(check.passed, f"catalog/{check.name}",
                             check.detail and f": {check.detail}")

    for fixture in lattice_fixtures():
        report = verify_fixture(fixture)
        failures += _verdict(report.valid, f"fixture/{fixture.name}",
                             "" if report.valid else f": {report.failure_text()}")

    if args.skip_engine:
        print("skip engine-vs-catalog cross-check")
    else:
        result = run_elliptic(6, DEFAULT_MAX_SIDES)
        report = cross_check(result.records, golden_rows)
        failures += _verdict(report.ok, "engine/cross-check",
                             f" ({report.engine_count} records)" if report.ok else "")
        for key in report.missing:
            print(f"     missing from engine: {key}")
        for key in report.extra:
            print(f"     extra in engine: {key}")
        for msg in report.mismatched:
            print(f"     {msg}")

    print(f"{'PASS' if failures == 0 else 'FAIL'}: {failures} failing checks")
    return EXIT_OK if failures == 0 else EXIT_FAIL


class _Cells(dict):
    """Matrix entries and their printed cells, each entry formatted at first use."""

    def __missing__(self, value: int) -> str:
        self[value] = cell = "%4d" % value
        return cell


def _matrix_block(rows, cells: _Cells) -> str:
    """One line per row of a square matrix, each after a newline, entries right-aligned in 4."""
    cell = cells.__getitem__
    return "".join(["\n  " + " ".join(map(cell, row)) for row in rows])


def cmd_check(args) -> int:
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows = parse_golden_text(text)
        data: list[tuple] = [(row, row.datum()) for row in rows]
    except (GoldenFormatError, TableDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    any_invalid = False
    cells = _Cells()
    for index, (row, datum) in enumerate(data, start=1):
        report = verify_realization(datum)
        square = report.weyl_square
        # The report has a kind exactly when every check passed and r <= 0.
        valid = report.flags.kind is not None
        lines = [f"block {index}: r = {row.r}: {'valid' if valid else 'INVALID'}"]
        lines += [f"  FAIL {check.name}: {check.detail}" for check in report.failures()]
        if square is not None:
            if square != row.r:
                lines.append(
                    f"  note: recomputed Weyl square {square} differs from declared {row.r}"
                )
            # A Fraction's denominator is positive: its numerator carries the sign.
            if square.numerator > 0:
                lines.append(f"  FAIL weyl-square-positive: {square} > 0")
        if valid:
            flags = report.flags
            lines.append(f"  type={flags.kind} compact={flags.compact} "
                         f"untwisted={flags.untwisted} "
                         f"sym_order={report.sym_order}")
            cartan = _matrix_block(report.cartan, cells)
            if flags.untwisted:  # both matrices are the Gram
                symcartan = cartan
            else:
                symcartan = _matrix_block(report.symcartan, cells)
            lines.append(f"  cartan:{cartan}\n  symcartan:{symcartan}")
        else:
            any_invalid = True
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_FAIL if any_invalid else EXIT_OK


JOBS_HELP = (
    "accepted for compatibility, no effect: the search runs in one process, "
    "since worker processes were slower at every lambda-max measured "
    "(must be >= 1)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercartan",
        description=(
            "Classify rank-3 hyperbolic generalized Cartan matrices of "
            "elliptic/parabolic type with a lattice Weyl vector, twisted "
            "to symmetric matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="run the classification search")
    enum.add_argument("--lambda-max", type=int, default=6,
                      help=f"largest lambda searched, 1 to {LAMBDA_MAX_CEILING} "
                           "(default 6)")
    enum.add_argument("--mode", choices=("elliptic", "parabolic"), default="elliptic")
    enum.add_argument("--r", default=None, help="only this Weyl square, e.g. -7/18")
    enum.add_argument("--max-sides", type=int, default=DEFAULT_MAX_SIDES)
    enum.add_argument("--format", choices=("table", "records"), default="table")
    enum.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    enum.add_argument("--untwisted-only", action="store_true")
    enum.add_argument("--noncompact-only", action="store_true")
    enum.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run the golden-data suite")
    ver.add_argument("--skip-engine", action="store_true",
                     help="static golden checks only (fast)")
    ver.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    ver.add_argument("--catalog", default=None,
                     help="golden catalog file to verify instead of the embedded "
                          "one; it must hold the paper's classification (60 rows, "
                          "16 untwisted, 7 compact, the engine's classes at "
                          "lambda-max 6), so only a reordering or dihedral "
                          "relabelling of the embedded catalog passes")
    ver.set_defaults(func=cmd_verify)

    chk = sub.add_parser("check", help="validate realization tables from a file")
    chk.add_argument("path")
    chk.set_defaults(func=cmd_check)

    return parser


def _merge_r_values(argv: list[str]) -> list[str]:
    """Let '--r -7/18' parse: argparse reads a bare '-7/18' as an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--r" and i + 1 < len(argv) and RATIONAL.fullmatch(argv[i + 1]):
            out.append(f"--r={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    # Move the objects made at import (about 13,000: modules, functions,
    # argparse tables) into the permanent generation, which no collection
    # scans.  The interpreter runs full collections while it shuts down;
    # they then scan a few hundred objects instead.  Collection stays on.
    gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_r_values(list(argv)))
    if getattr(args, "lambda_max", 1) < 1 or getattr(args, "max_sides", 3) < 3:
        print("error: --lambda-max must be >= 1 and --max-sides >= 3",
              file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "lambda_max", 1) > LAMBDA_MAX_CEILING:
        print(f"error: --lambda-max must be at most {LAMBDA_MAX_CEILING}",
              file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        try:
            code = args.func(args)
        except EngineError as exc:  # InvariantViolation included
            print(f"error: engine invariant violated: {exc}", file=sys.stderr)
            code = EXIT_ENGINE
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # shutdown writes nowhere instead of raising again, and stop.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
