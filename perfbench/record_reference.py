"""Record reference.json: exit code and stdout digest of every benchmarked command.

Run from the root of a checkout whose output is known to be right:

    python3 perfbench/record_reference.py

Each command runs once with ``--jobs 1``.  The check step is recorded on
the unrelabelled catalog, one copy; the benchmark undoes its relabellings
before comparing.  Recording refuses to write when the elliptic search at
lambda <= 16 does not print the same records as at lambda <= 6.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    return subprocess.run([sys.executable, "-m", "hypercartan.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)


def main() -> int:
    reference: dict[str, dict] = {}
    catalog = wl.CATALOG.read_text()
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        plain = Path(tmp) / "catalog.txt"
        plain.write_text(catalog)
        identity = [list(range(len(rows[0]))) for _, rows in wl.parse_blocks(catalog)]
        for size in wl.SIZES:
            for workload in wl.WORKLOADS:
                for step in wl.steps_for(workload, size, plain):
                    proc = run_cli(step.argv(1))
                    entry = {"exit": proc.returncode}
                    if step.name == "check":
                        blocks = wl.normalize_check_blocks(proc.stdout, identity)
                        entry["copy_sha256"] = wl.sha256("".join(blocks))
                    else:
                        entry["sha256"] = wl.sha256(proc.stdout)
                    problems = wl.gate(step, {step.key(): entry}, proc.returncode,
                                       proc.stdout, proc.stderr, identity)
                    if problems:
                        print(f"{step.key()}: {problems}", file=sys.stderr)
                        return 1
                    reference[step.key()] = entry
    lam6 = run_cli(["enumerate", "--lambda-max", "6", "--format", "records"])
    key16 = wl.steps_for("elliptic-l16", "full", None)[0].key()
    if wl.sha256(lam6.stdout) != reference[key16]["sha256"]:
        print("lambda <= 16 records differ from lambda <= 6", file=sys.stderr)
        return 1
    wl.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE} ({len(reference)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
