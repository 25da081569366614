"""Benchmark of the ``chardir`` command line: one workload per call.

    python3 bench/run.py --workload de_20k --seed 7 --seconds 20 --trace 0

With ``--trace 0`` the workload's inputs are drawn from ``--seed``, then its
CLI invocations run as fresh ``chardir`` processes in whole rounds until
``--seconds`` have passed. Every round's outputs are then checked against
independent computations (``bench/checks.py``). The last line of standard
output is one JSON object with the end-to-end metrics: ``wall_s``,
``cpu_s`` and ``peak_rss_mb`` (medians over rounds) and ``setup_s`` (median
of several ``chardir --version`` calls).

With ``--trace 1`` the per-layer metrics come from ``bench/traced.py``, an
in-process run that wraps the package's public functions.

This file imports only the standard library. Peak RSS is read per child
with ``wait4``, and a child's high-water mark starts from its parent's at
the ``exec``, so the parent that starts the ``chardir`` processes must stay
small: numpy work (inputs, checks, tracing) runs in child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple, NoReturn

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The same entry point as the installed ``chardir`` console script.
LAUNCHER = "import sys; from chardir.cli import main; sys.exit(main())"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 150.0

# CLI parameters of the workloads; the checks read them from here too.
ALPHA = 0.3
FDR = 0.05
DEPTH = 3
WINDOW = 300
UNIVERSE = 20000
SWEEP_ARGS = {"n_genes": 1000, "sizes": (3, 5, 10), "runs": 20,
              "methods": ("LR1", "NP1", "WELCH"), "roc_samples": 5}


def workload_ops(workload: str, inputs: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The (name, argv) CLI invocations of one round of a workload."""
    common = ["--seed", str(seed)]
    if workload == "de_20k":
        data = ["--expression", str(inputs / "expression.tsv"), "--design", str(inputs / "design.tsv")]
        return [
            ("chdir_lr1", ["chdir", *data, "--method", "lr1", "--alpha", str(ALPHA), *common,
                           "--out", str(out / "chdir_lr1")]),
            ("chdir_np1", ["chdir", *data, "--method", "np1", "--alpha", str(ALPHA), *common,
                           "--out", str(out / "chdir_np1")]),
            ("ttest", ["ttest", *data, "--fdr", str(FDR), *common, "--out", str(out / "ttest")]),
            ("project", ["project", *data, "--depth", str(DEPTH), *common,
                         "--out", str(out / "project")]),
        ]
    if workload == "enrich_20k":
        ranked = ["--ranked", str(inputs / "ranked.tsv"), "--gmt", str(inputs / "library.gmt")]
        return [
            ("enrich_hypergeom", ["enrich", *ranked, "--mode", "hypergeom", *common,
                                  "--out", str(out / "enrich_hypergeom")]),
            ("enrich_angle", ["enrich", *ranked, "--mode", "angle", *common,
                              "--out", str(out / "enrich_angle")]),
            ("profile", ["profile", "--associations", str(inputs / "tss.tsv"),
                         "--significant", str(inputs / "bound.txt"), "--window", str(WINDOW),
                         "--universe", str(UNIVERSE), *common, "--out", str(out / "profile")]),
        ]
    if workload == "sweep_1k":
        a = SWEEP_ARGS
        return [
            ("benchmark", ["benchmark", "--n-genes", str(a["n_genes"]),
                           "--sizes", ",".join(map(str, a["sizes"])), "--runs", str(a["runs"]),
                           "--methods", ",".join(m.lower() for m in a["methods"]),
                           "--roc-samples", str(a["roc_samples"]), "--jobs", "1", *common,
                           "--out", str(out / "benchmark")]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("de_20k", "enrich_20k", "sweep_1k")


def chardir_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class OpResult(NamedTuple):
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_chardir(argv: list[str], log: Path) -> OpResult:
    """Run one ``chardir`` process; time it and read its own rusage.

    ``wait4`` reports the CPU time of every thread of that one process
    (BLAS helper threads included) and its peak RSS, never summed over
    other children.
    """
    with open(log, "ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *argv], env=chardir_env(),
                                stdout=sink, stderr=sink, cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_python(script: str, args: list[str]) -> subprocess.CompletedProcess:
    """Run a helper script of the benchmark in its own process."""
    return subprocess.run([sys.executable, str(BENCH_DIR / script), *args], env=chardir_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=OP_TIMEOUT_S)


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure(workload: str, seed: int, seconds: float, work: Path) -> dict:
    inputs, out, log = work / "inputs", work / "out", work / "chardir.log"
    if workload != "sweep_1k":
        done = run_python("inputs.py", ["--workload", workload, "--seed", str(seed),
                                        "--out", str(inputs)])
        if done.returncode != 0:
            fail(f"input generation failed:\n{done.stderr}")

    attempted = failed = 0
    # One untimed call writes the bytecode caches and warms the file cache.
    if run_chardir(["--version"], log).returncode != 0:
        fail(f"chardir --version failed; see {log}")
    setup = []
    for _ in range(SETUP_REPEATS):
        result = run_chardir(["--version"], log)
        attempted += 1
        failed += result.returncode != 0
        setup.append(result.wall_s)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wall = cpu = peak = 0.0
        for _, argv in workload_ops(workload, inputs, out / str(len(rounds)), seed):
            result = run_chardir(argv, log)
            attempted += 1
            failed += result.returncode != 0
            wall += result.wall_s
            cpu += result.cpu_s
            peak = max(peak, result.peak_rss_mb)
        rounds.append((wall, cpu, peak))
        print(f"bench: round {len(rounds)}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
              f"peak {peak:.1f} MB", file=sys.stderr)

    correct = failed == 0
    if correct:
        checked = run_python("checks.py", ["--workload", workload, "--inputs", str(inputs),
                                           "--outputs", *(str(out / str(k)) for k in range(len(rounds)))])
        sys.stderr.write(checked.stdout + checked.stderr)
        correct = checked.returncode == 0
    else:
        print(f"bench: {failed} of {attempted} invocations failed; see {log}", file=sys.stderr)

    def median(i: int) -> float:
        return statistics.median(r[i] for r in rounds)

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": median(0), "unit": "s"},
            "cpu_s": {"value": median(1), "unit": "s"},
            "peak_rss_mb": {"value": median(2), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        },
    }


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    done = run_python("traced.py", ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--work", str(work),
                                    "--trace-file", str(WORK / f"trace-{workload}-{seed}.jsonl.gz")])
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("traced run failed")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description="chardir CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "chardir" / "cli.py").is_file():
        fail(f"no chardir sources under {SRC}; run from a checkout of the repository")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
