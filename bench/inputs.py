"""Seeded input files for the benchmark workloads, drawn with numpy alone.

The program under test receives only the files written here; nothing is
drawn with ``chardir.simulate``. The same seed writes byte-identical files:
every value comes from one ``numpy.random.Generator`` seeded with
``(seed, workload tag)`` and is written with ``repr(float)``.

Run directly to write one workload's inputs::

    python3 bench/inputs.py --workload de_20k --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from run import ALPHA

DE_TAG = 1
ENRICH_TAG = 2


def gene_ids(n: int) -> list[str]:
    return [f"GENE{i + 1:05d}" for i in range(n)]


def write_de_inputs(out: Path, seed: int, n_genes: int = 20000, per_class: int = 10,
                    n_block: int = 2000, n_de: int = 300) -> None:
    """Two-class expression table with a low-rank correlated block and
    planted DE genes, plus its design file.

    Genes have baseline levels near 8 and unit noise. The first
    ``n_block`` genes also load on three shared factors. ``n_de`` genes at
    random positions shift by 2.5 to 4 (random sign) in class 2, enough
    for Welch at FDR 0.05 and lr1 at alpha 0.3 to call non-empty sets.
    Columns are written in a shuffled order, so the design file decides
    which column belongs to which class.
    """
    rng = np.random.default_rng([seed, DE_TAG])
    n = 2 * per_class
    values = 8.0 + rng.normal(0.0, 1.5, size=(n_genes, 1)) + rng.standard_normal((n_genes, n))
    loadings = rng.normal(0.0, 1.5, size=(n_block, 3))
    values[:n_block] += loadings @ rng.standard_normal((3, n))
    de = rng.choice(n_genes, size=n_de, replace=False)
    shift = rng.uniform(2.5, 4.0, size=n_de) * rng.choice([-1.0, 1.0], size=n_de)
    values[de, per_class:] += shift[:, None]

    samples = [f"ctrl_{i + 1:02d}" for i in range(per_class)] + [
        f"trt_{i + 1:02d}" for i in range(per_class)
    ]
    column_order = rng.permutation(n)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "expression.tsv", "w") as handle:
        handle.write("gene_id\t" + "\t".join(samples[j] for j in column_order) + "\n")
        for gene, row in zip(gene_ids(n_genes), values[:, column_order].tolist()):
            handle.write(gene + "\t" + "\t".join(map(repr, row)) + "\n")
    with open(out / "design.tsv", "w") as handle:
        for j, sample in enumerate(samples):
            handle.write(f"{sample}\t{1 if j < per_class else 2}\n")


def write_enrich_inputs(out: Path, seed: int, n_genes: int = 20000, n_sets: int = 1000,
                        n_planted: int = 40, n_signal: int = 1000, n_bound: int = 1000,
                        max_set: int = 500) -> None:
    """A ranked-gene table, a gene-set library and a TSS association file.

    ``ranked.tsv`` has the columns and comment lines the ``chdir`` command
    writes: coefficients with ``n_signal`` genes drawn 1.8 times wider
    than the rest, ranked by squared coefficient with the gene-id
    tie-break, and the shortest prefix reaching alpha = 0.3 flagged.

    ``library.gmt`` holds ``n_sets`` sets of 15 to ``max_set`` genes
    (log-uniform sizes). ``n_planted`` of them draw half their members
    from the top of the ranking; every set also names two genes outside
    the universe.

    ``tss.tsv`` gives every gene a distance to its nearest TSS (plus a
    few hundred duplicate, more distal entries that deduplication must
    drop), and ``bound.txt`` lists ``n_bound`` genes drawn with weight
    falling off with distance, as ChIP-seq targets near promoters are.
    """
    rng = np.random.default_rng([seed, ENRICH_TAG])
    genes = np.array(gene_ids(n_genes))
    width = np.ones(n_genes)
    width[rng.choice(n_genes, size=n_signal, replace=False)] = 1.8
    coefficients = rng.standard_normal(n_genes) * width
    coefficients /= np.linalg.norm(coefficients)
    order = np.lexsort((genes, -(coefficients**2)))
    ranked_genes = genes[order]
    ranked = coefficients[order]
    squared = ranked**2
    cumulative = np.cumsum(squared)
    selected = min(int(np.searchsorted(cumulative, ALPHA)) + 1, n_genes)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ranked.tsv", "w") as handle:
        handle.write(f"# method: LR1\n# alpha: {ALPHA!r}\n")
        handle.write("gene_id\tcoefficient\tsquared_coefficient\tcumulative_fraction"
                     "\trank\tdiscriminant_sign\tsignificant\n")
        rows = zip(ranked_genes.tolist(), ranked.tolist(), squared.tolist(), cumulative.tolist())
        for rank, (gene, c, sq, cum) in enumerate(rows, start=1):
            sign = "+" if c >= 0 else "-"
            flag = "true" if rank <= selected else "false"
            handle.write(f"{gene}\t{c!r}\t{sq!r}\t{cum!r}\t{rank}\t{sign}\t{flag}\n")

    sizes = np.exp(rng.uniform(np.log(15), np.log(max_set), size=n_sets)).astype(int)
    planted = set(rng.choice(n_sets, size=n_planted, replace=False).tolist())
    top = ranked_genes[: 2 * selected]
    with open(out / "library.gmt", "w") as handle:
        for s, size in enumerate(sizes.tolist()):
            if s in planted:
                half = size // 2
                members = np.concatenate([
                    rng.choice(top, size=half, replace=False),
                    rng.choice(genes, size=size - half, replace=False),
                ])
                kind = "planted"
            else:
                members = rng.choice(genes, size=size, replace=False)
                kind = "random"
            outside = [f"NOVEL{s + 1:04d}A", f"NOVEL{s + 1:04d}B"]
            handle.write(f"SET_{s + 1:04d}\t{kind}\t" + "\t".join(list(members) + outside) + "\n")

    distances = np.round(rng.exponential(50000.0, size=n_genes), 1)
    weight = np.exp(-distances / 20000.0)
    bound = rng.choice(n_genes, size=n_bound, replace=False, p=weight / weight.sum())
    duplicated = rng.choice(n_genes, size=n_genes // 50, replace=False)
    extra = distances[duplicated] + np.round(rng.uniform(1.0, 1e5, size=len(duplicated)), 1)
    rows = list(zip(genes.tolist(), distances.tolist())) + list(
        zip(genes[duplicated].tolist(), extra.tolist())
    )
    with open(out / "tss.tsv", "w") as handle:
        handle.write("gene_id\tdistance\n")
        for i in rng.permutation(len(rows)).tolist():
            handle.write(f"{rows[i][0]}\t{rows[i][1]!r}\n")
    with open(out / "bound.txt", "w") as handle:
        handle.write("".join(f"{g}\n" for g in genes[np.sort(bound)].tolist()))


WRITERS = {"de_20k": write_de_inputs, "enrich_20k": write_enrich_inputs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    WRITERS[args.workload](Path(args.out), args.seed)


if __name__ == "__main__":
    main()
