import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercartan import cli, engine
from hypercartan.cli import _matrix_block, main
from hypercartan.core import (
    CheckResult,
    PolygonDatum,
    RealizationReport,
    _products,
    _symcartan,
    canonical_key,
    polygon_table,
    symmetry_group,
    verify_realization,
)
from hypercartan.engine import EngineError, InvariantViolation
from hypercartan.goldens import format_golden_block, golden_catalog
from reader_oracle import PackedDatum, dihedral_images
from test_core import decodable, random_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_records_lambda_one(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--lambda-max", "1", "--format", "records"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 16
    assert sum(1 for rec in lines if not rec["compact"]) == 12
    assert all(rec["untwisted"] for rec in lines)


def test_records_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "enumerate", "--lambda-max", "1", "--format", "records"
    )
    for line in out.splitlines():
        rec = json.loads(line)
        d = PolygonDatum(rec["n"], tuple(rec["pairings"]), tuple(rec["lambda"]))
        report = verify_realization(d)
        assert report.valid
        assert str(Fraction(report.weyl_square)) == rec["r"]
        assert [list(r) for r in polygon_table(d)] == rec["polygon_table"]
        assert [list(r) for r in report.cartan] == rec["cartan"]
        assert [list(r) for r in report.symcartan] == rec["symcartan"]
        assert symmetry_group(d) == rec["sym_order"]
        flags = report.flags
        assert (flags.kind, flags.compact, flags.untwisted) == (
            rec["type"],
            rec["compact"],
            rec["untwisted"],
        )


def test_enumerate_noncompact_filter(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--lambda-max", "1", "--noncompact-only",
        "--format", "records",
    )
    assert code == 0
    assert len(out.splitlines()) == 12


def test_enumerate_single_radius_pentagon(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--lambda-max", "6", "--r", "-7/18",
        "--format", "records",
    )
    assert code == 0
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert rec["r"] == "-7/18"
    assert rec["n"] == 5
    emitted = PolygonDatum(rec["n"], tuple(rec["pairings"]), tuple(rec["lambda"]))
    expected = next(
        row.datum() for row in golden_catalog() if row.r == Fraction(-7, 18)
    )
    assert canonical_key(emitted) == canonical_key(expected)


def test_enumerate_table_output_feeds_check(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "enumerate", "--lambda-max", "1")
    assert code == 0
    path = tmp_path / "catalog.txt"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out.count("block ") == 16
    assert "INVALID" not in out


def test_enumerate_determinism_across_jobs(capsys):
    outputs = set()
    for jobs in ("1", "2", "4"):
        _, out, _ = run_cli(
            capsys, "enumerate", "--lambda-max", "2", "--format", "records",
            "--jobs", jobs,
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--lambda-max", "1", "--max-sides", "4"
    )
    assert code == 3
    radii = (
        "-1/2", "-5/11", "-7/18", "-11/32", "-3/10", "-1/4", "-13/54",
        "-5/22", "-1/6", "-4/25", "-1/8", "-2/23", "-1/14", "-1/24",
    )
    assert err.splitlines() == [f"warning: chain cap 4 hit at r={r}" for r in radii]


def test_enumerate_parabolic_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--mode", "parabolic", "--lambda-max", "2",
        "--max-sides", "12", "--format", "records",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines
    assert all("periodic" in rec or rec["type"] == "parabolic" for rec in lines)


def test_enumerate_parabolic_table_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--mode", "parabolic", "--lambda-max", "2",
        "--max-sides", "12",
    )
    assert code == 0
    assert "# periodic:" in out


def test_enumerate_parabolic_rejects_record_filters(capsys):
    for flag in ("--untwisted-only", "--noncompact-only"):
        code, out, err = run_cli(
            capsys, "enumerate", "--mode", "parabolic", "--lambda-max", "2",
            "--max-sides", "12", flag,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert flag in err


def test_enumerate_parabolic_rejects_nonzero_r(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--mode", "parabolic", "--r", "-1/2"
    )
    assert code == 2
    assert "r = 0" in err


def test_enumerate_rejects_bad_r(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--r", "nonsense")
    assert code == 2
    assert "bad rational" in err


# Not what the package prints: an exponent, a decimal point, an underscore,
# a zero denominator.  Reading an exponent costs time and memory growing
# with its value, and -1e5000 is too long for str() to print.
BAD_RATIONALS = ("-1e5000", "-0.5", "-1_000", "-1/0")


@pytest.mark.parametrize("token", BAD_RATIONALS)
def test_enumerate_rejects_r_outside_the_printed_grammar(capsys, token):
    code, out, err = run_cli(capsys, "enumerate", "--lambda-max", "1", f"--r={token}")
    assert (code, out) == (2, "")
    assert err == f"error: bad rational for --r: {token!r}\n"


@pytest.mark.parametrize("token", BAD_RATIONALS)
def test_check_and_verify_reject_r_outside_the_printed_grammar(capsys, tmp_path, token):
    path = tmp_path / "block.txt"
    path.write_text(f"r = {token}\n1 2 2\n0 1 2\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: bad rational {' ' + token!r}\n"
    code, out, err = run_cli(capsys, "verify", "--skip-engine", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read golden file: bad rational {' ' + token!r}\n"


def test_huge_exponent_r_is_rejected_at_once():
    """An exponent is refused before any power of ten is built."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hypercartan.cli", "enumerate", "--lambda-max", "1",
         "--r=-1e100000000"],
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: bad rational for --r: '-1e100000000'\n"


def test_enumerate_rejects_bad_lambda(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--lambda-max", "0")
    assert code == 2


def test_enumerate_rejects_lambda_above_ceiling(capsys, monkeypatch):
    """--lambda-max above 64 exits 2 before any search runs."""

    def searched(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "run_elliptic", searched)
    monkeypatch.setattr(cli, "run_parabolic", searched)
    for mode in ("elliptic", "parabolic"):
        code, out, err = run_cli(
            capsys, "enumerate", "--mode", mode, "--lambda-max", "65"
        )
        assert (code, out) == (2, "")
        assert err == "error: --lambda-max must be at most 64\n"


def test_rejects_jobs_below_one(capsys):
    for argv in (("enumerate", "--jobs", "0"), ("verify", "--jobs", "-1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--jobs" in err


def test_jobs_starts_no_worker_pool():
    """--jobs is accepted and ignored: no CLI path loads a process pool."""
    import subprocess
    import sys

    code = (
        "import sys\n"
        "from hypercartan import cli\n"
        "assert cli.main(['enumerate', '--lambda-max', '2', '--jobs', '4']) == 0\n"
        "assert cli.main(['verify', '--skip-engine', '--jobs', '4']) == 0\n"
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--frobnicate"])
    assert exc.value.code == 2


def test_check_flags_bad_adjacent_pairing(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("r = -2\n1 1 1\n3 1 2\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "INVALID" in out
    assert "adjacent-pairings" in out


def test_check_empty_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2


def test_check_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("r = -2\n1 1 1\n3 1 2 \u00e9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_garbage_is_parse_error(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("hello world\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2


def _all_minus_one_block(n):
    """An n-gon table with every pairing -1: each side triple is degenerate."""
    return "r = -1\n" + "\n".join([" ".join(["1"] * n)] * (1 + n // 2)) + "\n"


def test_check_refuses_more_than_64_sides(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(_all_minus_one_block(65))
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: a table has at most 64 sides, got 65\n"
    path.write_text(_all_minus_one_block(64))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "FAIL lorentzian: no nondegenerate side triple" in out


# A 4-gon whose last row sits at the entry bound; one less decodes, with Gram rank 4.
_BIG_ENTRY_BLOCK = "r = -1\n1 1 1 1\n0 0 0 0\n" + " ".join([str(10**18)] * 4) + "\n"


def test_check_refuses_entries_of_10_to_the_18(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(_BIG_ENTRY_BLOCK)
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "parse error: table entries must be below 10^18\n")
    path.write_text(_BIG_ENTRY_BLOCK.replace(str(10**18), str(10**18 - 1)))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "  FAIL rank: Gram rank is 4, need 3" in out.splitlines()


CHECK_MIXED_INPUT = """\
r = -59/2
1 2 2
0 1 2

r = -3
1 1 1
0 3 0

r = -22/3
2 1 1
0 1 2
"""

CHECK_MIXED_OUTPUT = """\
block 1: r = -59/2: valid
  type=elliptic compact=False untwisted=False sym_order=1
  cartan:
     2    0   -4
     0    2   -1
    -1   -1    2
  symcartan:
     2    0   -4
     0    8   -4
    -4   -4    8
block 2: r = -3: INVALID
  FAIL adjacent-pairings: adjacent pairings outside [-2, 0]: [(2, 3, -3)]
  note: recomputed Weyl square -3/2 differs from declared -3
block 3: r = -22/3: valid
  note: recomputed Weyl square -22 differs from declared -22/3
  type=elliptic compact=False untwisted=False sym_order=1
  cartan:
     2    0   -1
     0    2   -1
    -4   -1    2
  symcartan:
     8    0   -4
     0    2   -1
    -4   -1    2
"""


def test_check_streams_valid_invalid_and_misdeclared_blocks(capsys, tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(CHECK_MIXED_INPUT)
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (1, CHECK_MIXED_OUTPUT, "")


def test_check_takes_validity_from_the_report_kind(capsys, tmp_path, monkeypatch):
    """A report whose checks all pass but whose kind is None reads INVALID."""
    report = verify_realization(_UNTWISTED_ROW.datum())
    undecorated = RealizationReport(
        report.checks, report.weyl_square, report.flags._replace(kind=None)
    )
    assert undecorated.valid and undecorated.weyl_square < 0
    monkeypatch.setattr(cli, "verify_realization", lambda d: undecorated)
    path = tmp_path / "row.txt"
    path.write_text(format_golden_block(_UNTWISTED_ROW.r, _UNTWISTED_ROW.table) + "\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (1, f"block 1: r = {_UNTWISTED_ROW.r}: INVALID\n", "")


def test_check_prints_twisted_cartan(capsys, tmp_path):
    path = tmp_path / "r22.txt"
    path.write_text("r = -22\n2 1 1\n0 1 2\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "valid" in out
    # a_13 = lambda_3 g_13 / lambda_1 = -1; a_31 = lambda_1 g_31 / lambda_3 = -4
    d = PolygonDatum(3, (0, -2, -1), (2, 1, 1))
    a = verify_realization(d).cartan
    assert (a[0][2], a[2][0]) == (-1, -4)
    assert "cartan" in out


def test_console_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "hypercartan.cli", "enumerate",
         "--lambda-max", "1", "--format", "records", "--jobs", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 16


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that closes the pipe early stops the command with exit 141 and
    nothing on stderr: after a few bytes of a long output, and before any
    byte of a short one, which stays in the stdout buffer until the end."""
    import os
    import subprocess
    import sys

    blocks = [format_golden_block(row.r, row.table) for row in golden_catalog()]
    path = tmp_path / "catalog40.txt"
    path.write_text("\n\n".join(blocks * 40) + "\n")  # about 1.2 MB of output
    with subprocess.Popen(
        [sys.executable, "-m", "hypercartan.cli", "check", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b"block 1: r"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == cli.EXIT_PIPE == 141

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hypercartan.cli", "verify", "--skip-engine"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_verify_skip_engine(capsys):
    code, out, _ = run_cli(capsys, "verify", "--skip-engine")
    assert code == 0
    assert "PASS" in out


def test_verify_detects_corrupted_golden_file(capsys, tmp_path):
    rows = golden_catalog()
    from hypercartan.goldens import format_golden_block

    blocks = [format_golden_block(r.r, r.table) for r in rows]
    corrupted = blocks[0].replace("0 1 2", "0 1 3", 1)
    path = tmp_path / "catalog.txt"
    path.write_text("\n\n".join([corrupted] + blocks[1:]) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--skip-engine", "--catalog", str(path)
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_catalog_accepts_only_the_same_classes(capsys, tmp_path):
    """A reordered, dihedrally relabelled catalog passes; a 59-row one fails."""
    import random

    from hypercartan.goldens import format_golden_block
    from reader_oracle import dihedral_images

    rng = random.Random(7)
    rows = list(golden_catalog())
    rng.shuffle(rows)
    blocks = []
    for row in rows:
        image = rng.choice(dihedral_images(PackedDatum.from_polygon(row.datum())))
        table = polygon_table(image.to_polygon())
        blocks.append(format_golden_block(row.r, table))
    embedded = [format_golden_block(row.r, row.table) for row in golden_catalog()]
    assert blocks != embedded and sorted(blocks) != sorted(embedded)
    path = tmp_path / "alt.txt"
    path.write_text("\n\n".join(blocks) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(path))
    assert code == 0
    assert "ok   engine/cross-check (60 records)" in out

    path.write_text("\n\n".join(blocks[:-1]) + "\n")
    code, out, _ = run_cli(
        capsys, "verify", "--skip-engine", "--catalog", str(path)
    )
    assert code == 1
    assert "FAIL catalog/catalog-size: 59 rows, expected 60" in out


@pytest.mark.parametrize(
    "text, reason",
    [
        ("r = -1\n1 1 1\n0 1 2\n1 1 1\n", "expected 2 rows for an 3-gon, got 3"),
        ("r = -1\n-1 1 1\n0 1 2\n", "lambda row must be positive"),
        (_all_minus_one_block(65), "a table has at most 64 sides, got 65"),
        (_BIG_ENTRY_BLOCK, "table entries must be below 10^18"),
    ],
    ids=["extra-row", "negative-lambda", "too-many-sides", "entry-too-large"],
)
def test_verify_catalog_with_undecodable_row_fails_cleanly(capsys, tmp_path, text, reason):
    """The engine cross-check skips a row that does not decode; rows-valid names it."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert f"FAIL catalog/rows-valid: row 1 (r=-1): {reason}" in lines
    assert "FAIL engine/cross-check" in lines
    assert lines[-1].startswith("FAIL: ")


def test_verify_catalog_names_the_failed_checks_of_a_decodable_row(capsys, tmp_path):
    """A row that decodes but fails reads as its failed checks, each with its detail."""
    from hypercartan.goldens import _data_text

    text = _data_text("catalog.txt")  # as the workflow corrupts it: lambda row 1 of block 1
    bad = text.replace("\n1 2 2\n", "\n2 2 2\n", 1)
    assert bad != text
    path = tmp_path / "catalog-bad.txt"
    path.write_text(bad)
    code, out, err = run_cli(capsys, "verify", "--skip-engine", "--catalog", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[:2] == [
        "ok   catalog/catalog-size",
        "FAIL catalog/rows-valid: row 1 (r=-59/2): coprime-lambda (gcd(lambda) = 2)",
    ]


def test_verify_prints_a_failing_fixture_as_its_failed_checks(capsys, monkeypatch):
    """A fixture whose lattice determinant is off by one: one FAIL line, exit 1."""
    from hypercartan.goldens import lattice_fixtures

    fixtures = list(lattice_fixtures())
    fx = fixtures[5]
    fixtures[5] = fx._replace(expected_det=fx.expected_det + 1)
    monkeypatch.setattr(cli, "lattice_fixtures", lambda: tuple(fixtures))
    code, out, err = run_cli(capsys, "verify", "--skip-engine")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[4:] == [
        *(f"ok   fixture/{f.name}" for f in fixtures[:5]),
        f"FAIL fixture/{fx.name}: lattice-determinant "
        f"(det {fx.expected_det}, expected {fx.expected_det + 1} ({fx.lattice}))",
        *(f"ok   fixture/{f.name}" for f in fixtures[6:]),
        "skip engine-vs-catalog cross-check",
        "FAIL: 1 failing checks",
    ]


def test_verify_non_utf8_catalog_is_usage_error(capsys, tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_bytes(b"r = -59/2\n1 2 2\n0 1 2\xff\n")
    code, out, err = run_cli(
        capsys, "verify", "--skip-engine", "--catalog", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read golden file") and err.count("\n") == 1


def test_engine_invariant_failure_is_one_line_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("a chain closed at r = 0: (3, (0, -1, -2), (1, 1, 1))")

    monkeypatch.setattr(cli, "run_elliptic", broken)
    code, out, err = run_cli(capsys, "enumerate", "--lambda-max", "1")
    assert code == 4
    assert out == ""
    assert err == (
        "error: engine invariant violated: "
        "a chain closed at r = 0: (3, (0, -1, -2), (1, 1, 1))\n"
    )

    def failing(*args, **kwargs):
        raise EngineError("extend_step received a closed chain")

    monkeypatch.setattr(cli, "run_elliptic", failing)
    code, _, err = run_cli(capsys, "verify", "--jobs", "1")
    assert code == 4
    assert err == "error: engine invariant violated: extend_step received a closed chain\n"


def test_emitted_datum_failing_verification_is_one_line_exit_4(capsys, monkeypatch):
    """An emitted datum whose report fails names its failed checks on one line."""
    failing = RealizationReport(
        (CheckResult("rank", False, "Gram rank is 4, need 3"),
         CheckResult("weyl-vector", True)),
        None,
    )
    monkeypatch.setattr(engine, "verify_realization", lambda d: failing)
    message = "emitted datum fails verification: rank (Gram rank is 4, need 3)"
    with pytest.raises(InvariantViolation) as info:
        engine.run_elliptic(1)
    assert str(info.value) == message
    code, out, err = run_cli(capsys, "enumerate", "--lambda-max", "1")
    assert (code, out, err) == (4, "", f"error: engine invariant violated: {message}\n")


def test_verify_prints_each_cross_check_mismatch(capsys, monkeypatch):
    """Doctored engine records: each mismatch is one indented line, exit 1."""
    result = engine.run_elliptic(6)
    records = list(result.records)
    by_r = {rec.r: rec for rec in records if rec.untwisted and not rec.compact}
    a10, a1i = by_r[Fraction(-23, 2)], by_r[Fraction(-4)]
    b = next(rec for rec in records if not rec.untwisted)
    doctored = [
        rec._replace(untwisted=False) if rec is a10
        else rec._replace(r=a10.r, untwisted=True, compact=False) if rec is b
        else rec
        for rec in records
    ] + [a1i]
    monkeypatch.setattr(
        cli, "run_elliptic", lambda *a, **k: result._replace(records=tuple(doctored))
    )
    code, out, err = run_cli(capsys, "verify")
    assert (code, err) == (1, "")
    assert out.splitlines()[-6:] == [
        "FAIL engine/cross-check",
        "     1,0: record at r=-23/2 does not realize the matrix",
        "     1,I: expected a unique untwisted non-compact record at r=-4, found 2",
        f"     engine emits {(a1i.n, a1i.body)} 2 times",
        f"     radius disagrees at {(b.n, b.body)}: engine -23/2, golden {b.r}",
        "FAIL: 1 failing checks",
    ]


def test_parabolic_closed_polygon_exits_4(capsys, monkeypatch):
    # a closed r = 0 polygon cannot exist; fake one by seeding a closed window
    closed = engine.ChainState(3, (0, -1, -2), (1, 1, 1))
    monkeypatch.setattr(engine, "seed_triples", lambda r, lambda_max: [closed])
    with pytest.raises(InvariantViolation, match="closed at r = 0"):
        engine.run_parabolic(1)
    code, out, err = run_cli(capsys, "enumerate", "--mode", "parabolic")
    assert (code, out) == (4, "")
    assert err.startswith("error: engine invariant violated: a chain closed at r = 0")
    assert err.count("\n") == 1


def test_import_surface():
    """The CLI loads no rational matrix module, and the package alone loads no module.

    Each name is imported from its own module; ``-S`` keeps site hooks,
    which may import anything, out of the check.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, hypercartan\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hypercartan.'))\n"
        "assert not loaded, loaded\n"
        "import hypercartan.cli\n"
        "assert 'hypercartan.linalg' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_dataclasses():
    """The CLI's import skips ``dataclasses`` (and the ``inspect`` it loads).

    ``-S`` keeps site hooks, which may import anything, out of the check.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, hypercartan.cli\n"
        "loaded = {'dataclasses', 'hypercartan.canonical'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_matrix_block_matches_per_entry_format():
    """Each row prints as its entries in '%4d', also where '%4d' widens.

    One cell cache serves every matrix, as in ``check``, and is read both
    cold and warm: the catalog's matrices, twisted symmetrized rows with
    entries of seven digits, and entries of 10^4 and more or -1000 and less.
    """
    matrices = []
    for row in golden_catalog():
        report = verify_realization(row.datum())
        matrices += [report.cartan, report.symcartan]
    wide = [
        PolygonDatum(3, (-2, -3000, -1), (50, 7, 11)),
        PolygonDatum(4, (-1, -10**4, 0, -2, -999, -1), (1, 9, 1, 10**3)),
    ]
    assert all(max(d.lam) > 1 for d in wide)
    # both fail verification, so no report holds their rows: the kernel builds them
    matrices += [_symcartan(d.gram, d.lam, _products(d.gram, d.lam)) for d in wide]
    matrices += [((10**4, -1000, 2), (-1001, 99999, 0), (-10**9, 123456, -999))]
    cells = cli._Cells()
    for _ in range(2):
        for rows in matrices:
            assert _matrix_block(rows, cells) == "".join(
                "\n  " + " ".join(f"{v:4d}" for v in r) for r in rows
            )
    assert any(len(cell) > 4 for cell in cells.values())


def _oracle_check_text(blocks) -> tuple[int, str]:
    """Exit code and stdout of ``check`` on (r, table) blocks, from the oracles.

    Decoding, verification and the symmetry order are the reader oracle's;
    both matrices are built and printed one entry at a time.
    """
    from engine_oracle import pair
    from reader_oracle import (
        reference_cartan,
        reference_symcartan,
        reference_symmetry_group,
        reference_table_to_datum,
        reference_verify,
    )

    def matrix(name, rows):
        return [f"  {name}:"] + ["  " + " ".join(f"{v:4d}" for v in r) for r in rows]

    lines, any_invalid = [], False
    for index, (r, table) in enumerate(blocks, start=1):
        d = reference_table_to_datum(table)
        checks, square = reference_verify(d)
        valid = all(c.passed for c in checks) and (square is None or square <= 0)
        lines.append(f"block {index}: r = {r}: {'valid' if valid else 'INVALID'}")
        lines += [f"  FAIL {c.name}: {c.detail}" for c in checks if not c.passed]
        if square is not None:
            if square != r:
                lines.append(f"  note: recomputed Weyl square {square} differs "
                             f"from declared {r}")
            if square > 0:
                lines.append(f"  FAIL weyl-square-positive: {square} > 0")
        if valid:
            n = d.n
            compact = all(pair(d, i, i % n + 1) != -2 for i in range(1, n + 1))
            lines.append(
                f"  type={'elliptic' if square < 0 else 'parabolic'} "
                f"compact={compact} untwisted={all(l == 1 for l in d.lam)} "
                f"sym_order={reference_symmetry_group(d)}"
            )
            lines += matrix("cartan", [[int(v) for v in r] for r in reference_cartan(d)])
            lines += matrix("symcartan", reference_symcartan(d))
        any_invalid = any_invalid or not valid
    return (1 if any_invalid else 0), "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_prints_what_the_oracles_print(capsys, tmp_path, seed):
    """check on relabelled catalog blocks, then the mixed blocks, against the oracles."""
    import random

    from hypercartan.goldens import format_golden_block, parse_golden_text
    from reader_oracle import dihedral_images

    rng = random.Random(seed)
    blocks = []
    for row in golden_catalog():
        image = rng.choice(dihedral_images(PackedDatum.from_polygon(row.datum())))
        blocks.append((row.r, polygon_table(image.to_polygon())))
    blocks += [(row.r, row.table) for row in parse_golden_text(CHECK_MIXED_INPUT)]
    path = tmp_path / "relabelled.txt"
    path.write_text("\n\n".join(format_golden_block(r, t) for r, t in blocks) + "\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (*_oracle_check_text(blocks), "")


@st.composite
def check_block(draw):
    """One (r, table) block for ``check``.

    A relabelled catalog row (valid, twisted or not), the same with one
    lambda raised (mostly invalid), or a random table (invalid, mostly of rank
    above 3), declaring its catalog radius or a random one.
    """
    kind = draw(st.sampled_from(("catalog", "raised", "random")))
    radius = st.fractions(min_value=-60, max_value=3, max_denominator=24)
    if kind == "random":
        return draw(radius), decodable(draw(random_table()))
    row = draw(st.sampled_from(golden_catalog()))
    image = draw(st.sampled_from(dihedral_images(PackedDatum.from_polygon(row.datum()))))
    table = polygon_table(image.to_polygon())
    if kind == "raised":
        lam = list(table[0])
        lam[draw(st.integers(0, len(lam) - 1))] += draw(st.integers(1, 3))
        table = (tuple(lam), *table[1:])
    return draw(st.just(row.r) | radius), table


def _check_blocks(blocks) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``check`` on a file of the blocks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocks.txt"
        path.write_text("\n\n".join(format_golden_block(r, t) for r, t in blocks) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


_UNTWISTED_ROW = next(row for row in golden_catalog() if max(row.table[0]) == 1)
_TWISTED_ROW = next(row for row in golden_catalog() if max(row.table[0]) > 1)


@settings(max_examples=60)
@given(st.lists(check_block(), min_size=1, max_size=4))
@example([
    (_UNTWISTED_ROW.r, _UNTWISTED_ROW.table),
    (_TWISTED_ROW.r, _TWISTED_ROW.table),
    (_TWISTED_ROW.r, ((7,) + _TWISTED_ROW.table[0][1:], *_TWISTED_ROW.table[1:])),
    (Fraction(-1), ((1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))),  # rank 4
])
def test_check_prints_what_the_oracles_print_on_random_tables(blocks):
    """Valid, twisted, invalid and rank-4 blocks in one file, against the oracles."""
    assert _check_blocks(blocks) == (*_oracle_check_text(blocks), "")


def test_check_scans_each_twisted_block_once(capsys, tmp_path, monkeypatch):
    """One divisibility scan per twisted block, valid or not, and none more.

    The input is two relabelled copies of the catalog (44 valid twisted
    blocks each), the mixed blocks (two valid twisted) and a twisted row
    with one lambda raised (invalid); an untwisted block has no product
    rows, and its call returns at once.
    """
    import random

    from hypercartan import core
    from hypercartan.goldens import parse_golden_text

    scans, calls = [], []

    def counted(lam, prods):
        calls.append(lam)
        if prods is not None:
            scans.append(lam)
        return scan(lam, prods)

    scan = core._divisibility_failures
    monkeypatch.setattr(core, "_divisibility_failures", counted)
    rng = random.Random(5)
    blocks = []
    for _ in range(2):
        for row in golden_catalog():
            image = rng.choice(dihedral_images(PackedDatum.from_polygon(row.datum())))
            blocks.append((row.r, polygon_table(image.to_polygon())))
    blocks += [(row.r, row.table) for row in parse_golden_text(CHECK_MIXED_INPUT)]
    row = _TWISTED_ROW
    blocks.append((row.r, ((7,) + row.table[0][1:], *row.table[1:])))
    path = tmp_path / "blocks.txt"
    path.write_text("\n\n".join(format_golden_block(r, t) for r, t in blocks) + "\n")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    twisted = [t[0] for _, t in blocks if max(t[0]) > 1]
    assert (len(twisted), out.count("untwisted=False")) == (91, 90)
    assert scans == twisted
    assert len(calls) == len(blocks)


# int() reads each of these as 2 or 0; the table grammar is ASCII -?[0-9]+.
NON_GRAMMAR_ROWS = ("0 1 +2", "0_0 1 2", "0 1 \u0662")


@pytest.mark.parametrize("row", NON_GRAMMAR_ROWS)
def test_check_and_verify_reject_entries_outside_the_table_grammar(capsys, tmp_path, row):
    path = tmp_path / "block.txt"
    path.write_text(f"r = -59/2\n1 2 2\n{row}\n", encoding="utf-8")
    message = "table entry not an ASCII integer -?[0-9]+ in block r=-59/2\n"
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"parse error: {message}")
    code, out, err = run_cli(capsys, "verify", "--skip-engine", "--catalog", str(path))
    assert (code, out, err) == (2, "", f"error: cannot read golden file: {message}")


def test_table_grammar_keeps_the_minus_for_the_decoder(capsys, tmp_path):
    """A '-' entry parses, so the decoder names the negative lambda or pairing."""
    path = tmp_path / "block.txt"
    for text, reason in (
        ("r = -59/2\n-1 2 2\n0 1 2\n", "lambda row must be positive"),
        ("r = -59/2\n1 2 2\n0 -1 2\n", "positive pairing -(-1) at distance 1, column 2"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"parse error: {reason}\n")
