"""Benchmark of the hypercartan CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload elliptic-l16 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

``--trace 0`` times the workload's commands end to end, each in a fresh
interpreter importing ``hypercartan`` from ``src/``.  Runs with ``--jobs 1``
and ``--jobs 2`` alternate in the order A B B A A B ... while the next run
is expected to end within ``--seconds``.  A timing is the sum over the
workload's commands of each command's median; a command without --jobs
pools its samples from runs of both job counts.  Before the first command and after every command, a set-up sample
(interpreter start plus ``import hypercartan.cli``) and a fixed
calibration program are timed.  On a shared host with 2 x86_64 vCPUs,
Python was measured to run up to 1.6 times slower for seconds to minutes
at a time, so each command's time in ``wall_s``, ``wall_j2_s`` and ``cpu_s``
is scaled by ``CAL_REF_S`` over the mean calibration time on either side
of it (CPU time by the calibration's CPU time), and each set-up sample by
the calibration time next to it: they
read as seconds on a host where the calibration takes ``CAL_REF_S``.  The
unscaled medians are in the details line.  The seed picks which job count
goes first and, for golden-check, the relabelling of the generated input.
``--trace 1`` runs the same commands in-process through ``tracer.py``,
untraced and traced in alternation, and reports per-layer time and counts
from the traced runs.

BENCHMARK.json lists elliptic-l16 and golden-check.  parabolic-l24 runs
with ``--workload parabolic-l24`` or ``all``; it is left out of the list so
that each listed workload gets longer runs within the benchmark's time
budget.  The elliptic search is timed at lambda <= 16 rather than 24 so
that a run holds many short commands, each close in time to its
calibration samples.

Every command's output is checked (see ``workloads.gate``); a command that
fails its check counts in ``failed``.  The last line printed is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds machine facts, sample counts and any problems found.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

TRACE_SCRIPT = Path(__file__).resolve().parent / "tracer.py"
# Fixed pure-Python work of the kind the CLI does (fractions, tuples,
# dicts), independent of hypercartan.  Its run time measures how fast the
# shared host runs Python at the moment; each timing is scaled by
# CAL_REF_S over the calibration time measured next to it, so that it reads
# as on a host where the calibration takes CAL_REF_S seconds.
CALIBRATION = """
from fractions import Fraction
acc = Fraction(0); d = {}
for i in range(1, 12000):
    x = Fraction(i % 97 - 48, i % 13 + 1)
    acc += x * x
    d[(i % 1000, i % 7)] = acc.numerator % 1000
    t = tuple(sorted((i % 5, i % 11, i % 3)))
    d[t] = d.get(t, 0) + 1
"""
CAL_REF_S = 0.125
COMMAND_TIMEOUT_S = 90.0
# argv: stdout file, stderr file, program, arguments...  Prints
# "exit wall_s cpu_s peak_rss_kb" for the program.
LAUNCHER = """
import os, sys, time
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
files = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
         (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(os.waitstatus_to_exitcode(status), wall,
      usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Exact counts from the traced runs.  engine.records only feeds
# dedup_ratio; engine.periodic is non-zero on parabolic-l24 alone, which
# is not listed, so both go to the details line only.
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit == "count"]
COUNTS += ["engine.records", "engine.periodic"]


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Bench:
    """One workload run: the checkout, its scratch directory and the samples."""

    def __init__(self, workload: str, seed: int, size: str, reference: dict):
        self.root = Path.cwd()
        self.src = self.root / "src"
        if not (self.src / "hypercartan" / "cli.py").is_file():
            raise SetupError(f"no hypercartan sources under {self.src}")
        self.workload, self.seed, self.size = workload, seed, size
        self.reference = reference
        self.work = self.root / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
        # Compiled bytecode is cached for the run, as an installed package's
        # would be; the probe in setup() fills the cache before any timing.
        self.env = dict(os.environ, PYTHONPATH=str(self.src),
                        PYTHONPYCACHEPREFIX=str(self.work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.sigmas: list[list[int]] | None = None
        self.input_path: Path | None = None

    # -- processes ---------------------------------------------------------

    def spawn(self, args: list[str], tag: str) -> tuple[int, float, float, float]:
        """Run python3 with args to completion: (exit, wall s, cpu s, peak RSS MB).

        The command is started by a small launcher process, which times it
        and reads its resource usage.  Linux carries a process's peak RSS
        across exec from the process that spawned it, so spawning from this
        (larger) process would report this process's peak instead.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        report = str(self.work / f"{tag}.launch")
        argv = [sys.executable, "-S", "-c", LAUNCHER,
                str(self.work / f"{tag}.out"), str(self.work / f"{tag}.err"),
                sys.executable] + args
        pid = os.posix_spawn(sys.executable, argv, self.env, setpgroup=0,
                             file_actions=[(os.POSIX_SPAWN_OPEN, 1, report, flags, 0o644)])
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (pid,))
        timer.start()
        try:
            _, status = os.waitpid(pid, 0)
        finally:
            timer.cancel()
        fields = Path(report).read_text().split()
        if os.waitstatus_to_exitcode(status) != 0 or len(fields) != 4:
            return -1, COMMAND_TIMEOUT_S, 0.0, 0.0
        code, wall, cpu, rss_kb = fields
        return int(code), float(wall), float(cpu), int(rss_kb) / 1024.0

    def outputs(self, tag: str) -> tuple[str, str]:
        """A command's stdout and stderr; empty if it was killed before starting."""
        paths = (self.work / f"{tag}.out", self.work / f"{tag}.err")
        return tuple(p.read_text() if p.exists() else "" for p in paths)

    def record(self, step: wl.Step, code: int, tag: str, label: str) -> None:
        self.attempted += 1
        stdout, stderr = self.outputs(tag)
        problems = wl.gate(step, self.reference, code, stdout, stderr, self.sigmas)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label} {step.key()}: {p}" for p in problems)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Prepare the scratch directory and inputs; compile the sources once."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        probe = "import hypercartan.cli as c; print(c.__file__)"
        code, *_ = self.spawn(["-c", probe], "probe")
        where = self.outputs("probe")[0].strip()
        if code != 0 or not Path(where).resolve().is_relative_to(self.src.resolve()):
            raise SetupError(f"hypercartan.cli does not import from {self.src}: "
                             f"{where or self.outputs('probe')[1].strip()[-300:]}")
        if self.workload == "golden-check":
            catalog = self.root / wl.CATALOG
            if not catalog.is_file():
                raise SetupError(f"missing {wl.CATALOG}")
            text, self.sigmas = wl.generate_check_input(
                catalog.read_text(), self.seed, wl.COPIES[self.size])
            self.input_path = self.work / "check-input.txt"
            self.input_path.write_text(text)

    def steps(self) -> list[wl.Step]:
        return wl.steps_for(self.workload, self.size, self.input_path)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- end-to-end --------------------------------------------------------

    def measure_e2e(self, seconds: float) -> tuple[dict, dict]:
        """Metrics scaled to the host's speed, and details of the samples.

        A workload's time is the sum over its commands of each command's
        median.  A command without --jobs is the same in runs of either job
        count, so its samples from both are pooled.
        """
        job_counts = [1, 2] if nproc() >= 2 else [1]
        if random.Random(self.seed).random() < 0.5:
            job_counts.reverse()
        cli = "import sys; from hypercartan.cli import main; sys.exit(main())"
        steps = self.steps()
        # (step index, job count or 0 for a step without --jobs) -> samples
        # of (wall, cpu) scaled, (wall, cpu) unscaled and peak RSS.
        runs: dict[tuple[int, int], list[tuple[float, ...]]] = {
            (i, jobs if step.takes_jobs else 0): []
            for i, step in enumerate(steps) for jobs in job_counts}
        setup: list[float] = []
        unscaled: dict[str, list[float]] = {"setup_s": [], "calibration_s": []}

        def probe() -> tuple[float, float]:
            # A set-up sample and the calibration's wall and CPU time, taken
            # between every two commands so that they see the host as it
            # runs them.
            setup_s = self.spawn(["-c", "import hypercartan.cli"], "setup")[1]
            _, cal_wall, cal_cpu, _ = self.spawn(["-c", CALIBRATION], "calibration")
            setup.append(setup_s * CAL_REF_S / cal_wall)
            unscaled["setup_s"].append(setup_s)
            unscaled["calibration_s"].append(cal_wall)
            return cal_wall, cal_cpu

        last = [probe()]

        def run_commands(jobs: int) -> None:
            # Each command is scaled by the mean of the probes on either side:
            # wall time by the calibration's wall time, CPU time by its CPU
            # time, which leaves out time the host gave to other guests.
            for i, step in enumerate(steps):
                tag = f"j{jobs}-{i}"
                code, w, c, r = self.spawn(["-c", cli] + step.argv(jobs), tag)
                self.record(step, code, tag, f"--jobs {jobs}")
                before, last[0] = last[0], probe()
                wall_scale = 2 * CAL_REF_S / (before[0] + last[0][0])
                cpu_scale = 2 * CAL_REF_S / (before[1] + last[0][1])
                runs[i, jobs if step.takes_jobs else 0].append(
                    (w * wall_scale, c * cpu_scale, w, c, r))

        _alternate(job_counts, seconds, run_commands)

        med = statistics.median
        metrics = {"setup_s": med(setup)}
        medians = {k: med(v) for k, v in unscaled.items()}
        counts = {"setup_s": len(setup)}
        for jobs, wall in ((1, "wall_s"), (2, "wall_j2_s")):
            keys = [(i, jobs if step.takes_jobs else 0) for i, step in enumerate(steps)]
            if not all(runs.get(k) for k in keys):
                continue
            cols = [list(zip(*runs[k])) for k in keys]
            metrics[wall] = sum(med(c[0]) for c in cols)
            medians[wall] = sum(med(c[2]) for c in cols)
            counts[wall] = min(len(runs[k]) for k in keys)
            if jobs == 1:
                metrics["cpu_s"] = sum(med(c[1]) for c in cols)
                medians["cpu_s"] = sum(med(c[3]) for c in cols)
                metrics["peak_rss_mb"] = max(med(c[4]) for c in cols)
                counts["cpu_s"] = counts["peak_rss_mb"] = counts[wall]
        details = {
            "samples": counts,
            "unscaled_medians": medians,
            "not_measured": [k for k in E2E_UNITS if k not in metrics],
            "command_wall_quartiles": {
                f"{steps[i].key()} jobs {jobs}": statistics.quantiles(
                    [sample[0] for sample in v], n=4)
                for (i, jobs), v in runs.items() if len(v) >= 2},
        }
        return metrics, details

    # -- traced ------------------------------------------------------------

    def run_inprocess(self, traced: bool, tag: str) -> dict:
        steps = self.steps()
        spec = {
            "src": str(self.src),
            "traced": traced,
            "steps": [{"argv": s.argv(1),
                       "stdout": str(self.work / f"{tag}-{i}.out"),
                       "stderr": str(self.work / f"{tag}-{i}.err")}
                      for i, s in enumerate(steps)],
        }
        spec_path = self.work / f"{tag}.json"
        spec_path.write_text(json.dumps(spec))
        code, *_ = self.spawn([str(TRACE_SCRIPT), str(spec_path)], tag)
        out, err = self.outputs(tag)
        if code != 0:
            raise RuntimeError(f"tracer.py exited {code}: {err.strip()[-500:]}")
        result = json.loads(out.splitlines()[-1])
        for i, (step, res) in enumerate(zip(steps, result["steps"])):
            self.record(step, res["exit"], f"{tag}-{i}",
                        "traced" if traced else "in-process")
        return result

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        walls: dict[bool, list[float]] = {False: [], True: []}
        layer_runs: list[dict] = []
        absent: list[str] = []
        per_step: list[dict] = []

        def run_once(traced: bool) -> None:
            nonlocal absent, per_step
            res = self.run_inprocess(traced, "traced" if traced else "plain")
            walls[traced].append(sum(s["wall"] for s in res["steps"]))
            if traced:
                absent = res["absent"]
                per_step = [s["layers"] for s in res["steps"]]
                layer_runs.append(_sum_layers(per_step))

        _alternate([False, True], seconds, run_once)

        counts = [{k: run.get(k, 0) for k in COUNTS} for run in layer_runs]
        if any(c != counts[0] for c in counts):
            self.failed += 1
            self.problems.append(f"traced counts differ between runs: {counts}")
        if self.workload == "golden-check":
            blocks = per_step[-1].get("goldens.blocks", 0)
            want = wl.CATALOG_SIZE * wl.COPIES[self.size]
            if blocks != want:
                self.failed += 1
                self.problems.append(f"check step parsed {blocks} blocks, expected {want}")

        c = counts[0]
        metrics = {name: c[name] if name in c else
                   statistics.median(run.get(name, 0.0) for run in layer_runs)
                   for name in LAYER_UNITS}
        metrics["engine.glue_yield"] = (
            c["engine.glue_out"] / c["engine.glue_pairs"] if c["engine.glue_pairs"] else 0.0)
        metrics["canonical.dedup_ratio"] = (
            c["engine.records"] / c["engine.closed"] if c["engine.closed"] else 0.0)
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]))
        details = {
            "samples": len(layer_runs),
            "traced_wall_s": walls[True],
            "untraced_wall_s": walls[False],
            "absent": absent,
            "records": c["engine.records"],
            "per_step_counts": [{k: s.get(k, 0) for k in COUNTS} for s in per_step],
        }
        return metrics, details


def _alternate(variants: list, seconds: float, run_one) -> None:
    """Call run_one on the variants in the order A B B A A B ...

    Every variant runs at least once; after that a call is made only when
    it is expected, from that variant's mean so far, to end within
    ``seconds`` of the start.
    """
    start = time.perf_counter()
    took: dict = {v: [] for v in variants}
    for k in itertools.count():
        v = variants[((k + 1) // 2) % len(variants)]
        elapsed = time.perf_counter() - start
        if all(took.values()) and elapsed + statistics.mean(took[v]) > seconds:
            return
        t0 = time.perf_counter()
        run_one(v)
        took[v].append(time.perf_counter() - t0)


def _sum_layers(per_step: list[dict]) -> dict:
    total: dict[str, float] = {}
    for layers in per_step:
        for name, value in layers.items():
            if name == "engine.max_len":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reference: dict | None = None) -> dict:
    """Run one workload; return the result object and its details."""
    bench = Bench(workload, seed, size,
                  reference if reference is not None else wl.load_reference())
    try:
        bench.setup()
        details: dict = {"workload": workload, "seed": seed, "size": size,
                         "machine": machine_facts()}
        if trace:
            metrics, extra = bench.measure_traced(seconds)
            units = LAYER_UNITS
            details.update(extra)
        else:
            metrics, extra = bench.measure_e2e(seconds)
            units = E2E_UNITS
            details.update(extra)
    finally:
        bench.close()
    details["fail_rate"] = bench.failed / max(bench.attempted, 1)
    details["problems"] = bench.problems[:20]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    return {"result": result, "details": details}


def _print_table(workload: str, out: dict) -> None:
    res, det = out["result"], out["details"]
    samples = det["samples"]
    print(f"# {workload}: correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} fail_rate={det['fail_rate']:.4f}")
    for name, m in res["metrics"].items():
        n = samples.get(name, "") if isinstance(samples, dict) else samples
        print(f"  {name:24s} {m['value']:14.6f} {m['unit']:6s} n={n}")
    for problem in det["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                for name in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, out in outs.items():
        _print_table(name, out)
    if len(outs) == 1:
        (out,) = outs.values()
        print(json.dumps(out["details"]))
        print(json.dumps(out["result"]))
    else:
        print(json.dumps({name: out["details"] for name, out in outs.items()}))
        print(json.dumps({
            "correct": all(o["result"]["correct"] for o in outs.values()),
            "attempted": sum(o["result"]["attempted"] for o in outs.values()),
            "failed": sum(o["result"]["failed"] for o in outs.values()),
            "metrics": {f"{name}.{k}": v for name, o in outs.items()
                        for k, v in o["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
