"""Workload definitions, the seeded input generator and the output gates.

A workload is a list of steps; each step is one ``hypercartan`` command.
Steps that accept ``--jobs`` are run once per job count; the others run
unchanged.  Every command's output is checked against ``reference.json``
(exit code and stdout digest recorded from a known-good build) and against
semantic counts fixed here, independent of the recording.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CATALOG = Path("src/hypercartan/data/catalog.txt")
CATALOG_SIZE = 60
CATALOG_COMPACT = 7
CATALOG_UNTWISTED = 16


@dataclass(frozen=True)
class Step:
    name: str
    args: tuple[str, ...]
    takes_jobs: bool
    # Semantic expectations: for enumerate steps {records, untwisted,
    # compact, periodic}; unused for verify/check, whose gates are fixed.
    expect: dict | None = None

    def key(self) -> str:
        """Reference key: the command line without --jobs or file paths."""
        return " ".join("<input>" if a.endswith(".txt") else a for a in self.args)

    def argv(self, jobs: int) -> list[str]:
        return list(self.args) + (["--jobs", str(jobs)] if self.takes_jobs else [])


# Sizes: "full" is what the benchmark times; "tiny" is the self-test size.
SIZES = ("full", "tiny")
LAMBDA = {"elliptic-l16": 16, "parabolic-l24": 24}
TINY_LAMBDA = 2
COPIES = {"full": 40, "tiny": 1}
ELLIPTIC_EXPECT = {
    "full": {"records": 60, "untwisted": 16, "compact": 7, "periodic": 0},
    "tiny": {"records": 53, "untwisted": 16, "compact": 5, "periodic": 0},
}
PARABOLIC_EXPECT = {
    "full": {"records": 0, "untwisted": 0, "compact": 0, "periodic": 294},
    "tiny": {"records": 0, "untwisted": 0, "compact": 0, "periodic": 24},
}

WORKLOADS = ("elliptic-l16", "parabolic-l24", "golden-check")


def steps_for(workload: str, size: str, input_path: Path | None) -> list[Step]:
    lam = str(LAMBDA.get(workload) if size == "full" else TINY_LAMBDA)
    if workload == "elliptic-l16":
        return [Step("enumerate", ("enumerate", "--lambda-max", lam,
                                   "--format", "records"), True,
                     ELLIPTIC_EXPECT[size])]
    if workload == "parabolic-l24":
        return [Step("enumerate", ("enumerate", "--mode", "parabolic",
                                   "--lambda-max", lam, "--format", "records"),
                     True, PARABOLIC_EXPECT[size])]
    if workload == "golden-check":
        assert input_path is not None
        return [Step("verify", ("verify",), True),
                Step("check", ("check", str(input_path)), False)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Seeded input for golden-check: the catalog, each block under a random
# dihedral relabelling of its sides, repeated ``copies`` times.
# ---------------------------------------------------------------------------


def parse_blocks(text: str) -> list[tuple[str, list[list[int]]]]:
    """Golden-format blocks as (r text, table rows)."""
    blocks, cur = [], []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line:
            cur.append(line)
        elif cur:
            r = cur[0].split("=", 1)[1].strip()
            blocks.append((r, [[int(t) for t in row.split()] for row in cur[1:]]))
            cur = []
    return blocks


def _decode(rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(lambdas, full Gram) from a realization table."""
    lam = rows[0]
    n = len(lam)
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for dist in range(1, n // 2 + 1):
        for j in range(n):
            k = (j + dist) % n
            gram[j][k] = gram[k][j] = -rows[dist][j]
    return lam, gram


def _encode(lam: list[int], gram: list[list[int]]) -> list[list[int]]:
    n = len(lam)
    return [list(lam)] + [
        [-gram[j][(j + dist) % n] for j in range(n)] for dist in range(1, n // 2 + 1)
    ]


def relabel(rows: list[list[int]], sigma: list[int]) -> list[list[int]]:
    """Table of the same polygon with new side i = old side sigma[i]."""
    lam, gram = _decode(rows)
    n = len(lam)
    return _encode(
        [lam[sigma[i]] for i in range(n)],
        [[gram[sigma[i]][sigma[j]] for j in range(n)] for i in range(n)],
    )


def dihedral(n: int, rng: random.Random) -> list[int]:
    shift, flip = rng.randrange(n), rng.random() < 0.5
    return [(shift - i) % n if flip else (shift + i) % n for i in range(n)]


def generate_check_input(
    catalog_text: str, seed: int, copies: int
) -> tuple[str, list[list[int]]]:
    """The check step's input file and the relabelling used for each block."""
    rng = random.Random(seed)
    blocks = parse_blocks(catalog_text)
    out, sigmas = [], []
    for _ in range(copies):
        for r, rows in blocks:
            sigma = dihedral(len(rows[0]), rng)
            sigmas.append(sigma)
            table = relabel(rows, sigma)
            out.append("\n".join([f"r = {r}"] + [" ".join(map(str, t)) for t in table]))
    return "\n\n".join(out) + "\n", sigmas


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def enumerate_counts(stdout: str) -> dict:
    counts = {"records": 0, "untwisted": 0, "compact": 0, "periodic": 0}
    for line in stdout.splitlines():
        obj = json.loads(line)
        if "periodic" in obj:
            counts["periodic"] += 1
        else:
            counts["records"] += 1
            counts["untwisted"] += bool(obj["untwisted"])
            counts["compact"] += bool(obj["compact"])
    return counts


def normalize_check_blocks(stdout: str, sigmas: list[list[int]]) -> list[str]:
    """Per block, the check output with the relabelling undone.

    Block numbers are reduced to the position in the catalog and every
    printed matrix is conjugated back, so each copy of the catalog must
    read exactly as ``check`` reads the unrelabelled catalog.
    """
    chunks: list[list[str]] = []
    for line in stdout.splitlines():
        if line.startswith("block "):
            chunks.append([])
        if not chunks:
            raise ValueError(f"output before the first block: {line!r}")
        chunks[-1].append(line)
    if len(chunks) != len(sigmas):
        raise ValueError(f"{len(chunks)} blocks in output, {len(sigmas)} in input")
    out = []
    for index, (lines, sigma) in enumerate(zip(chunks, sigmas)):
        head = lines[0].split(":", 1)[1]
        norm = [f"block {index % CATALOG_SIZE + 1}:{head}"]
        n, i = len(sigma), 1
        while i < len(lines):
            line = lines[i]
            if line in ("  cartan:", "  symcartan:"):
                rows = [[int(v) for v in lines[i + 1 + k].split()] for k in range(n)]
                orig = [[0] * n for _ in range(n)]
                for a in range(n):
                    for b in range(n):
                        orig[sigma[a]][sigma[b]] = rows[a][b]
                norm.append(line)
                norm.extend("  " + " ".join(f"{v:4d}" for v in row) for row in orig)
                i += 1 + n
            else:
                norm.append(line)
                i += 1
        out.append("\n".join(norm) + "\n")
    return out


def gate(step: Step, ref: dict, code: int, stdout: str, stderr: str,
         sigmas: list[list[int]] | None = None) -> list[str]:
    """Problems with one command's result; empty when it is correct."""
    want = ref.get(step.key())
    if want is None:
        return [f"no reference for {step.key()!r}"]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit {code}, expected {want['exit']}")
    if "warning:" in stderr:
        problems.append(f"stderr warning: {stderr.strip()[:200]}")
    if step.name == "check":
        try:
            blocks = normalize_check_blocks(stdout, sigmas or [])
        except (ValueError, IndexError) as exc:
            return problems + [f"check output unreadable: {exc}"]
        for start in range(0, len(blocks), CATALOG_SIZE):
            copy = blocks[start:start + CATALOG_SIZE]
            text = "".join(copy)
            if sha256(text) != want["copy_sha256"]:
                problems.append(f"catalog copy {start // CATALOG_SIZE}: digest differs")
            heads = [b.splitlines()[0] for b in copy]
            flags = [b.splitlines()[1] for b in copy if len(b.splitlines()) > 1]
            if len(copy) != CATALOG_SIZE or not all(h.endswith(": valid") for h in heads):
                problems.append(f"catalog copy {start // CATALOG_SIZE}: not all valid")
            if sum("compact=True" in f for f in flags) != CATALOG_COMPACT:
                problems.append("compact count differs")
            if sum("untwisted=True" in f for f in flags) != CATALOG_UNTWISTED:
                problems.append("untwisted count differs")
        return problems
    if sha256(stdout) != want["sha256"]:
        problems.append("stdout digest differs from the reference")
    if step.name == "verify":
        if not stdout.rstrip().endswith("PASS: 0 failing checks"):
            problems.append("verify did not print 'PASS: 0 failing checks'")
    elif step.expect is not None:
        try:
            counts = enumerate_counts(stdout)
        except (ValueError, KeyError) as exc:
            return problems + [f"records unreadable: {exc}"]
        if counts != step.expect:
            problems.append(f"counts {counts}, expected {step.expect}")
    return problems
