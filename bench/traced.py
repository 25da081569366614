"""Traced in-process run of the benchmark, for the per-layer metrics.

    python3 bench/traced.py --workload de_20k --seed 7 --seconds 20 --work DIR \
        --trace-file .bench_work/trace.jsonl.gz

Every per-layer metric is printed on every call, so one pass runs the CLI
invocations of all three workloads (``--workload`` only goes first), each
through ``chardir.cli.main`` in this process. The package's public
functions are wrapped from outside ``src``: every module attribute bound to
one of them is replaced by a wrapper that records a span (id, name, start,
end, parent id). Spans stay in memory and are written to ``--trace-file``
(gzipped JSON lines) when the run ends. Whole passes repeat until
``--seconds`` have passed and each metric is the median over passes.
Timings are totals over a pass: ``_s`` is summed wall time, ``_calls`` a
call count.

``--plain`` runs the same passes without the wrappers and prints only the
``cli.*`` times, so the tracing overhead is the difference of the two.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from run import SRC, WORKLOADS, chardir_env, workload_ops

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402

# (module, function) pairs whose every call is a span.
TRACED = (
    ("data", "parse_expression_tsv"),
    ("data", "parse_gmt"),
    ("direction", "lr1_direction"),
    ("direction", "np1_direction"),
    ("direction", "call_significant"),
    ("direction", "write_ranked_tsv"),
    ("linalg", "pca_reduce"),
    ("welch", "ttest_screen"),
    ("welch", "welch_test"),
    ("enrichment", "hypergeom_enrich"),
    ("enrichment", "angle_enrich"),
    ("enrichment", "angle_null_pvalue"),
    ("enrichment", "sliding_window_profile"),
    ("enrichment", "hypergeom_tail"),
    ("projection", "project_hierarchy"),
    ("simulate", "generate"),
    ("simulate", "score_recovery"),
)

NP1 = "direction.np1_direction"
# The argument key of each call behind a distinct-call ratio.
CALL_KEYS = {
    "enrichment.hypergeom_tail": lambda *args: args,
    "simulate.generate": lambda spec: (spec.samples_per_class, spec.seed),
}

IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import chardir.cli; print(time.perf_counter() - t)"


class Tracer:
    """Spans and per-call observations, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.cpu: list[float] = []
        self.peak: list[float] = []
        self.keys: dict[str, list[tuple]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span_id, parent = self.next_id, (self.stack[-1] if self.stack else None)
        self.next_id += 1
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span_id, name, start, time.perf_counter(), parent))
            self.stack.pop()

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records a span per call; for np1 also
        process CPU time and peak traced allocation, and for the functions
        in ``CALL_KEYS`` the argument key behind the distinct-call ratio."""
        if name == NP1:
            def traced(*args, **kwargs):
                cpu = time.process_time()
                tracemalloc.start()
                try:
                    return self.call(name, fn, *args, **kwargs)
                finally:
                    self.peak.append(tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                    self.cpu.append(time.process_time() - cpu)
        elif name in CALL_KEYS:
            key, keys = CALL_KEYS[name], self.keys.setdefault(name, [])

            def traced(*args, **kwargs):
                keys.append(key(*args))
                return self.call(name, fn, *args, **kwargs)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function in the package's
    modules, so calls through ``from .x import f`` names are seen too. A
    function the package no longer has is skipped; its metrics read 0."""
    modules = [m for n, m in sys.modules.items() if n == "chardir" or n.startswith("chardir.")]
    for module_name, function_name in TRACED:
        original = getattr(sys.modules[f"chardir.{module_name}"], function_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(f"{module_name}.{function_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def import_times() -> dict[str, float]:
    """Median over fresh interpreters of the ``import chardir.cli`` time and
    of the cumulative ``chardir.enrichment`` entry of ``-X importtime``."""
    probe = [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE]
    subprocess.run(probe, env=chardir_env(), capture_output=True, check=True)
    cli, enrichment = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(probe, env=chardir_env(), capture_output=True, text=True, check=True)
        cli.append(float(done.stdout))
        for line in done.stderr.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if cells[-1] == "chardir.enrichment":
                enrichment.append(int(cells[1]) / 1e6)
    return {"import.chardir_cli_s": statistics.median(cli),
            "import.chardir_enrichment_s": statistics.median(enrichment)}


# Span names whose summed wall time per pass is a ``<name>_s`` metric.
TIMED = (
    "data.parse_expression_tsv", "data.parse_gmt",
    "direction.lr1_direction", "direction.np1_direction", "direction.call_significant",
    "direction.write_ranked_tsv", "linalg.pca_reduce", "welch.ttest_screen", "welch.welch_test",
    "enrichment.hypergeom_enrich", "enrichment.angle_enrich", "enrichment.sliding_window_profile",
    "projection.project_hierarchy", "simulate.generate", "simulate.score_recovery",
)
COUNTED = {
    "linalg.pca_reduce_calls": "linalg.pca_reduce",
    "welch.welch_test_calls": "welch.welch_test",
    "enrichment.angle_null_pvalue_calls": "enrichment.angle_null_pvalue",
    "enrichment.hypergeom_tail_calls": "enrichment.hypergeom_tail",
    "simulate.runs_computed": "simulate.generate",
}


def span_totals(tracer: Tracer, first_span: int) -> tuple[dict[str, float], dict[str, int]]:
    """Summed wall time and call count per span name, from ``first_span`` on."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, name, start, end, _ in tracer.spans:
        if span_id >= first_span:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
    return total, calls


def pass_metrics(tracer: Tracer, first_span: int, cli_names) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one pass, as (value, unit)."""
    total, calls = span_totals(tracer, first_span)

    def distinct_ratio(name: str) -> float:
        keys = tracer.keys.get(name)
        return len(set(keys)) / len(keys) if keys else 1.0

    metrics = {f"{name}_s": (total.get(name, 0.0), "s") for name in TIMED + tuple(cli_names)}
    metrics.update({metric: (calls.get(name, 0), "count") for metric, name in COUNTED.items()})
    metrics.update({
        "enrichment.hypergeom_tail_distinct_ratio": (distinct_ratio("enrichment.hypergeom_tail"), "ratio"),
        "simulate.runs_distinct_ratio": (distinct_ratio("simulate.generate"), "ratio"),
        "direction.np1_direction_cpu_s": (sum(tracer.cpu), "s"),
        "direction.np1_direction_peak_mb": (max(tracer.peak, default=0.0), "MB"),
    })
    return metrics


def run_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--plain", action="store_true", help="no wrappers; print cli.* times only")
    args = parser.parse_args()

    work = Path(args.work)
    order = (args.workload,) + tuple(w for w in WORKLOADS if w != args.workload)
    ops = {}
    for workload in order:
        if workload in inputs.WRITERS:
            inputs.WRITERS[workload](work / workload / "inputs", args.seed)
        ops[workload] = workload_ops(workload, work / workload / "inputs",
                                     work / workload / "out", args.seed)

    imports = {} if args.plain else import_times()
    from chardir import cli

    cli_names = [f"cli.{name}" for workload in order for name, _ in ops[workload]]
    tracer = Tracer()
    if not args.plain:
        install(tracer)
    attempted = failed = 0
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        first_span = tracer.next_id
        with contextlib.redirect_stdout(sys.stderr):
            for workload in order:
                for name, argv in ops[workload]:
                    code = tracer.call(f"cli.{name}", run_main, cli.main, argv)
                    attempted += 1
                    failed += code != 0
        if args.plain:
            total, _ = span_totals(tracer, first_span)
            passes.append({f"{n}_s": (total[n], "s") for n in cli_names})
        else:
            passes.append(pass_metrics(tracer, first_span, cli_names))
        for observations in (*tracer.keys.values(), tracer.cpu, tracer.peak):
            observations.clear()

    correct = failed == 0
    if correct:
        for workload in order:
            try:
                checks.check_workload(workload, work / workload / "inputs", work / workload / "out")
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False

    if args.trace_file:
        Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(args.trace_file, "wt") as handle:
            for span_id, name, t0, t1, parent in tracer.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": t0 - start,
                                         "end": t1 - start, "parent": parent}) + "\n")

    metrics = {name: {"value": statistics.median(p[name][0] for p in passes), "unit": u}
               for name, (_, u) in passes[0].items()}
    metrics.update({name: {"value": v, "unit": "s"} for name, v in imports.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
