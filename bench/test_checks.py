"""Tests of the benchmark's output checks.

Each workload's CLI invocations run on reduced inputs for two seeds. The
checks must pass on both, and must reject every output file after each
corruption: a flipped sign, two swapped rows, a value (the p-value where
the file has one) moved by 1e-6, and a dropped row.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import checks
import inputs
from run import run_chardir, workload_ops

SEEDS = (7, 11)

REDUCED = {
    "de_20k": lambda out, seed: inputs.write_de_inputs(out, seed, n_genes=2000, n_block=200, n_de=60),
    "enrich_20k": lambda out, seed: inputs.write_enrich_inputs(
        out, seed, n_genes=4000, n_sets=200, n_planted=10, n_signal=200, n_bound=200, max_set=300),
    "sweep_1k": lambda out, seed: None,
}

# (workload, output file, column to corrupt, whether a 1e-6 move must be caught).
# Sweep, ROC and density values have no independent reference to 1e-6.
CASES = [
    ("de_20k", "chdir_lr1/ranked_genes.tsv", 1, True),
    ("de_20k", "chdir_np1/ranked_genes.tsv", 1, True),
    ("de_20k", "ttest/welch_results.tsv", 3, True),
    ("de_20k", "project/projection.tsv", 3, True),
    ("de_20k", "project/pca.tsv", 2, True),
    ("de_20k", "project/density.tsv", 1, False),
    ("enrich_20k", "enrich_hypergeom/enrichment.tsv", 3, True),
    ("enrich_20k", "enrich_angle/enrichment.tsv", 2, True),
    ("enrich_20k", "profile/profile.tsv", 1, True),
    ("sweep_1k", "benchmark/sweep.tsv", 2, False),
    ("sweep_1k", "benchmark/roc.tsv", 2, False),
]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(inputs, outputs) per (workload, seed), made on first use."""
    made = {}

    def get(workload: str, seed: int) -> tuple[Path, Path]:
        if (workload, seed) not in made:
            root = tmp_path_factory.mktemp(f"{workload}-{seed}")
            REDUCED[workload](root / "inputs", seed)
            for _, argv in workload_ops(workload, root / "inputs", root / "out", seed):
                assert run_chardir(argv, root / "chardir.log").returncode == 0, argv
            made[workload, seed] = root / "inputs", root / "out"
        return made[workload, seed]

    return get


def corrupt(path: Path, kind: str, col: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = [lines[i].rstrip("\n").split("\t") for i in data]
    target = max(range(len(data)), key=lambda k: abs(float(cells[k][col])))
    if kind == "swap":
        lines[data[0]], lines[data[1]] = lines[data[1]], lines[data[0]]
    elif kind == "drop":
        del lines[data[len(data) // 2]]
    else:
        value = float(cells[target][col])
        cells[target][col] = repr(-value if kind == "flip" else value + 1e-6)
        lines[data[target]] = "\t".join(cells[target]) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_checks_pass(runs, workload, seed):
    in_dir, out_dir = runs(workload, seed)
    checks.check_workload(workload, in_dir, out_dir)


@pytest.mark.parametrize("kind", ["flip", "swap", "move", "drop"])
@pytest.mark.parametrize("workload,name,col,moves", CASES, ids=[c[1] for c in CASES])
def test_checks_reject_corruption(runs, tmp_path, workload, name, col, moves, kind):
    if kind == "move" and not moves:
        pytest.skip("no reference value to 1e-6 in this file")
    in_dir, out_dir = runs(workload, SEEDS[0])
    corrupted = tmp_path / "out"
    shutil.copytree(out_dir, corrupted)
    corrupt(corrupted / name, kind, col)
    with pytest.raises(checks.CheckFailed):
        checks.check_workload(workload, in_dir, corrupted)
