"""Self-test of the benchmark at a tiny size (lambda <= 2, one catalog copy).

Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def tiny(workload: str, trace: bool, seed: int = 1, reference=None) -> dict:
    return run.run_workload(workload, seed, 0.0, trace, size="tiny",
                            reference=reference)


class TinyRuns(unittest.TestCase):
    def test_every_metric_reported_and_correct(self):
        for workload in wl.WORKLOADS:
            for trace, names in ((False, run.E2E_UNITS), (True, run.LAYER_UNITS)):
                with self.subTest(workload=workload, trace=trace):
                    out = tiny(workload, trace)
                    res = out["result"]
                    self.assertEqual(set(res["metrics"]), set(names))
                    self.assertTrue(res["correct"], out["details"]["problems"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(out["details"]["machine"]["nproc"], run.nproc())

    def test_traced_counts(self):
        layers = tiny("golden-check", True)["result"]["metrics"]
        self.assertEqual(layers["engine.radii"]["value"], 455)
        self.assertEqual(layers["engine.closed"]["value"], 283)
        # 60 blocks of the embedded catalog (verify) + 60 of the input (check)
        self.assertEqual(layers["goldens.blocks"]["value"], 2 * wl.CATALOG_SIZE)
        (counts,) = tiny("parabolic-l24", True)["details"]["per_step_counts"]
        self.assertEqual(counts["engine.periodic"], 24)

    def test_tampered_digest_fails(self):
        reference = copy.deepcopy(wl.load_reference())
        key = wl.steps_for("elliptic-l16", "tiny", None)[0].key()
        reference[key]["sha256"] = "0" * 64
        for trace in (False, True):
            out = tiny("elliptic-l16", trace, reference=reference)
            self.assertFalse(out["result"]["correct"])
            self.assertGreater(out["details"]["fail_rate"], 0)

    def test_tampered_copy_digest_fails(self):
        reference = copy.deepcopy(wl.load_reference())
        reference["check <input>"]["copy_sha256"] = "0" * 64
        out = tiny("golden-check", False, reference=reference)
        self.assertGreater(out["details"]["fail_rate"], 0)


class Generator(unittest.TestCase):
    def setUp(self):
        self.catalog = wl.CATALOG.read_text()

    def test_relabelling_round_trip(self):
        for _, rows in wl.parse_blocks(self.catalog):
            n = len(rows[0])
            self.assertEqual(wl.relabel(rows, list(range(n))), rows)
            shift = [(i + 1) % n for i in range(n)]
            back = [(i - 1) % n for i in range(n)]
            self.assertEqual(wl.relabel(wl.relabel(rows, shift), back), rows)

    def test_seeds_differ_but_verdicts_agree(self):
        text1, sig1 = wl.generate_check_input(self.catalog, 1, 2)
        text2, sig2 = wl.generate_check_input(self.catalog, 2, 2)
        self.assertNotEqual(text1, text2)
        self.assertEqual(wl.generate_check_input(self.catalog, 1, 2)[0], text1)
        step = wl.Step("check", ("check", "input.txt"), False)
        reference = wl.load_reference()
        work = HERE / ".work" / f"test-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            verdicts = []
            for text, sigmas in ((text1, sig1), (text2, sig2)):
                path = work / "input.txt"
                path.write_text(text)
                proc = subprocess.run(
                    [sys.executable, "-m", "hypercartan.cli", "check", str(path)],
                    capture_output=True, text=True, check=False,
                    env=dict(os.environ, PYTHONPATH="src"))
                self.assertEqual(wl.gate(step, reference, proc.returncode,
                                         proc.stdout, proc.stderr, sigmas), [])
                verdicts.append([line.split(": ")[-1] for line in proc.stdout.splitlines()
                                 if line.startswith("block ")]
                                + [line for line in proc.stdout.splitlines()
                                   if line.startswith("  type=")])
            self.assertEqual(verdicts[0], verdicts[1])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Tracing(unittest.TestCase):
    def test_missing_wrap_point_is_reported_absent(self):
        sys.path.insert(0, "src")
        points = dict(tracer.WRAP_POINTS)
        points["engine"] = points["engine"] + ("_no_such_function",)
        t = tracer.Tracer()
        saved = tracer.WRAP_POINTS
        tracer.WRAP_POINTS = points
        try:
            import hypercartan.cli  # noqa: F401
            t.install()
        finally:
            tracer.WRAP_POINTS = saved
        self.assertIn("engine._no_such_function", t.absent)


class EmptyCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = HERE / ".work" / f"bare-{os.getpid()}"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "golden-check",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60, check=False)
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                with self.assertRaises(ValueError):
                    json.loads(line)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
