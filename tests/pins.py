"""Run the command pins in ``pins.json`` through ``hypercartan.cli.main``.

Each row of ``pins.json`` is one ``hypercartan`` command and what it must
print.  Its keys:

- ``id``: the row's name, which a failure prints;
- ``argv``: the arguments after ``hypercartan``; an ``{input}`` among them
  is the path of a file that holds the row's ``input``;
- ``input`` (only where ``argv`` names it): ``{"text": ...}``, inline
  text; ``{"data": name}``, a data file of the installed package, read
  through ``importlib.resources``, with ``"replace": [old, new]`` to
  replace its first line equal to ``old`` by ``new``, as ``sed
  '0,/^old$/s//new/'`` does; or ``{"stdout_of": id}``, what another row
  prints on stdout;
- ``exit``: the exit code;
- ``stdout`` and ``stderr``: the exact text, or ``{"lines": ..., "sha256":
  ...}``, the number of newlines (as ``wc -l`` counts) and the sha256 of
  the UTF-8 bytes, with an optional ``"has"``: lines that the stream must
  hold, each in full.

A row holds when running it gives the row back: ``observe(row) == row``.
A failing row is printed with its expected and observed values, and the
observed row as JSON; when an output changes on purpose, copy that row
over the old one.

Run ``PYTHONPATH=src python tests/pins.py`` in the checkout, or ``python
path/to/tests/pins.py`` where ``hypercartan`` is installed.  It runs
every row in one process and exits 1 if any row fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
import tempfile
from importlib import resources
from pathlib import Path

from hypercartan.cli import main

ROWS: list[dict] = json.loads(
    Path(__file__).with_name("pins.json").read_text(encoding="utf-8")
)


def _input_text(source: dict) -> str:
    if "text" in source:
        return source["text"]
    if "stdout_of" in source:
        return run(next(row for row in ROWS if row["id"] == source["stdout_of"]))[1]
    text = resources.files("hypercartan.data").joinpath(source["data"]).read_text(
        encoding="utf-8")
    if "replace" in source:
        old, new = source["replace"]
        lines = text.split("\n")
        lines[lines.index(old)] = new  # ValueError if no line is old
        text = "\n".join(lines)
    return text


def run(row: dict) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the row's command, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = row["argv"]
        if "input" in row:
            path = Path(tmp, "input.txt")
            path.write_text(_input_text(row["input"]), encoding="utf-8")
            argv = [str(path) if arg == "{input}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _pin(text: str, expected: str | dict) -> str | dict:
    """text pinned in the shape of expected: the text itself, or its count, hash and required lines."""
    if isinstance(expected, str):
        return text
    pin = {"lines": text.count("\n"),
           "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    if "has" in expected:
        lines = text.split("\n")
        pin["has"] = [line for line in expected["has"] if line in lines]
    return pin


def observe(row: dict) -> dict:
    """The row with the exit code and streams that this build gives it."""
    code, out, err = run(row)
    return dict(row, exit=code, stdout=_pin(out, row["stdout"]),
                stderr=_pin(err, row["stderr"]))


def report(row: dict, observed: dict) -> str:
    """The failed row's command, each value that differs, and the observed row."""
    lines = [f"FAIL {row['id']}: hypercartan {shlex.join(row['argv'])}"]
    lines += [f"  {key}: expected {json.dumps(row[key])}, got {json.dumps(observed[key])}"
              for key in ("exit", "stdout", "stderr") if observed[key] != row[key]]
    lines.append(f"  observed row: {json.dumps(observed)}")
    return "\n".join(lines)


def check_all() -> int:
    failed = 0
    for row in ROWS:
        observed = observe(row)
        if observed != row:
            print(report(row, observed))
            failed += 1
    print(f"{len(ROWS) - failed} of {len(ROWS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_all())
