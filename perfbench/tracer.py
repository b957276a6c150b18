"""Run hypercartan CLI commands in this process, optionally traced.

Usage: python3 tracer.py SPEC.json

SPEC holds ``src`` (the directory to import hypercartan from), ``traced``
and ``steps``, a list of {"argv", "stdout", "stderr"}.  Each step calls
``hypercartan.cli.main(argv)`` with its output sent to the named files.
The last line printed is a JSON object with the exit code and wall time
of each step and, when traced, its per-layer metrics.

Tracing replaces each function named in WRAP_POINTS by a wrapper that
records a span (function, parent span, start, end) in memory.  Every
binding of the function in every ``hypercartan.*`` namespace is replaced,
because modules import names from each other directly; so a ``linalg``
call made from ``engine`` nests under the ``engine`` span.  A wrap point
that no longer exists is reported as absent.  Functions not listed count
towards the span that calls them: helpers called many times per caller
(window arithmetic, index packing, the dihedral moves behind
``canonical_form`` and ``symmetry_group``) are left out to keep the
overhead low and their time with the caller.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

WRAP_POINTS = {
    "cli": ("main",),
    "engine": (
        "run_elliptic", "run_parabolic", "_run_radius", "collect_radii",
        "_seed_map", "seed_triples", "partition_closed", "extend_step", "_glue",
        "_dedup_records", "_record_from_canonical",
    ),
    "canonical": ("canonical_form", "canonical_polygon"),
    "core": (
        "verify_realization", "symmetry_group", "classify_flags",
        "polygon_table", "cartan_matrix", "symmetrized_cartan",
        "table_to_datum",
    ),
    "linalg": ("det", "rank", "solve", "solve_consistent", "det_int_rows"),
    "goldens": (
        "parse_golden_text", "format_golden_block", "format_rational",
        "golden_catalog", "lattice_fixtures", "verify_fixture",
        "self_check_catalog", "cross_check",
    ),
}

# A span's self time goes to the nearest enclosing stage (itself included).
STAGES = {
    "engine.collect_radii": "engine.radii_s",
    "engine._seed_map": "engine.seed_s",
    "engine.seed_triples": "engine.seed_s",
    "engine.extend_step": "engine.glue_s",
    "engine._glue": "engine.glue_s",
    "engine.partition_closed": "engine.closure_s",
    "core.verify_realization": "core.verify_s",
    "core.symmetry_group": "core.symmetry_s",
    "core.classify_flags": "core.decorate_s",
    "core.polygon_table": "core.decorate_s",
    "core.cartan_matrix": "core.decorate_s",
    "core.symmetrized_cartan": "core.decorate_s",
}

# Counts taken from arguments and results: function -> (names, values).
# A count is added only when no enclosing call adds to the same name, so a
# stage function that calls another of its stage is not counted twice.
COUNTS = {
    "engine.collect_radii": (("engine.radii",), lambda a, r: (len(r),)),
    "engine._seed_map": (("engine.seeds",), lambda a, r: (sum(map(len, r.values())),)),
    "engine.seed_triples": (("engine.seeds",), lambda a, r: (len(r),)),
    "engine.extend_step": (("engine.glue_in",), lambda a, r: (len(a[0]),)),
    "engine._glue": (("engine.glue_pairs", "engine.glue_out"), lambda a, r: (1, len(r))),
    "engine.partition_closed": (
        ("engine.closed", "engine.max_len"),
        lambda a, r: (len(r[0]), max((c.length for c in a[0]), default=0)),
    ),
    "engine.run_elliptic": (("engine.records",), lambda a, r: (len(r.records),)),
    "engine.run_parabolic": (
        ("engine.records", "engine.periodic"),
        lambda a, r: (len(r.records), len(r.periodic)),
    ),
    "goldens.parse_golden_text": (("goldens.blocks",), lambda a, r: (len(r),)),
}
MAX_COUNTS = {"engine.max_len"}
CALL_COUNTS = {"canonical.canonical_form": "canonical.calls",
               "core.verify_realization": "core.verify_calls"}


class Tracer:
    def __init__(self) -> None:
        self.keys: list[str] = []
        self.spans: list[list] = []  # [key index, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.depth: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, key: str, fn):
        kid = len(self.keys)
        self.keys.append(key)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        names, counter = COUNTS.get(key, ((), None))

        def traced(*args, **kwargs):
            rec = [kid, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            for name in names:
                self.depth[name] += 1
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                for name in names:
                    self.depth[name] -= 1
            if counter is not None:
                self._count(key, names, counter, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, names, counter, args, result) -> None:
        try:
            values = counter(args, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            if f"{key}:count" not in self.absent:
                self.absent.append(f"{key}:count")
            return
        for name, value in zip(names, values):
            if self.depth[name]:
                continue
            if name in MAX_COUNTS:
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    def install(self) -> None:
        spaces = [m for name, m in sys.modules.items()
                  if name == "hypercartan" or name.startswith("hypercartan.")]
        for module, names in WRAP_POINTS.items():
            mod = sys.modules.get(f"hypercartan.{module}")
            for name in names:
                original = getattr(mod, name, None) if mod else None
                if not callable(original):
                    self.absent.append(f"{module}.{name}")
                    continue
                wrapper = self.wrap(f"{module}.{name}", original)
                for space in spaces:
                    for attr, value in list(vars(space).items()):
                        if value is original:
                            setattr(space, attr, wrapper)

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans, keys = self.spans, self.keys
        n = len(spans)
        child = [0.0] * n
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        stage: list[str | None] = [None] * n
        host: list[str] = [""] * n  # nearest enclosing module other than linalg
        out: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (kid, parent, t0, t1) in enumerate(spans):
            key = keys[kid]
            module = key.split(".", 1)[0]
            stage[i] = STAGES.get(key) or (stage[parent] if parent >= 0 else None)
            host[i] = module if module != "linalg" else (host[parent] if parent >= 0 else "")
            own = (t1 - t0) - child[i]
            out[f"{module}.self_s"] += own
            if stage[i]:
                out[stage[i]] += own
            if module == "linalg":
                calls["linalg.calls"] += 1
                if host[i] in ("engine", "core"):
                    out[f"linalg.{host[i]}_s"] += own
            if key in CALL_COUNTS:
                calls[CALL_COUNTS[key]] += 1
        out.update(calls)
        out.update(self.counts)
        return dict(out)


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    for module in WRAP_POINTS:
        with contextlib.suppress(ImportError):
            importlib.import_module(f"hypercartan.{module}")
    tracer = Tracer()
    if spec["traced"]:
        tracer.install()
    cli = sys.modules["hypercartan.cli"]
    results = []
    for step in spec["steps"]:
        tracer.reset()
        with open(step["stdout"], "w") as out, open(step["stderr"], "w") as err:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(step["argv"])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 2
                wall = time.perf_counter() - t0
        results.append({
            "exit": code,
            "wall": wall,
            "layers": tracer.layers() if spec["traced"] else None,
        })
    print(json.dumps({"steps": results, "absent": tracer.absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
