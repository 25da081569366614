"""Checks of the benchmark's ``chardir`` outputs against computations made
here, apart from the package: its own parse of the inputs, sample-space
least squares, ``scipy.stats`` Welch tests, exact big-integer
hypergeometric tails, the closed-form angle null and a plain BH step-up.
Nothing is compared with a stored copy of an output.

Each ``check_*`` function raises :class:`CheckFailed` naming the file and
the first violation, and returns a dict of observations (residuals, gaps)
that the benchmark prints on standard error.

    python3 bench/checks.py --workload de_20k --inputs DIR --outputs DIR
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

from run import ALPHA, DEPTH, FDR, SWEEP_ARGS, UNIVERSE, WINDOW

# PCA settings of the CLI defaults; lr1 equals the full least-squares normal
# only when they keep all n - 1 components.
PCA_EPSILON = 1e-3
PCA_MAX_COMPONENTS = 20

LR1_TOL = 1e-9
# np1 leaves the sample span by about 3.4e-4 on this fixture, because it
# clamps the null's zero-spread axes instead of dropping them.
NP1_SPAN_TOL = 2e-3
ANGLE_P_TOL = 1e-9
P_RTOL = 1e-9
# Absolute slack on Welch t and p. For |t| near 0 the mean difference
# cancels (t differs by ~1e-15), and chardir rounds x = df / (df + t^2)
# before the incomplete beta, which moves p near 1 by up to ~3e-8.
WELCH_T_ATOL = 1e-12
WELCH_P_ATOL = 1e-7
ROC_GINI_TOL = 0.01

RANKED_HEADER = ["gene_id", "coefficient", "squared_coefficient", "cumulative_fraction",
                 "rank", "discriminant_sign", "significant"]


class CheckFailed(AssertionError):
    """An output violates a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header cells, data rows) of a TSV output."""
    comments, header, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                cells = line.split("\t")
                if header is None:
                    header = cells
                else:
                    require(len(cells) == len(header), f"{path}: ragged row {cells[0]!r}")
                    rows.append(cells)
    require(header is not None, f"{path}: no header")
    return comments, header, rows


def column(rows, index: int) -> np.ndarray:
    return np.array([float(r[index]) for r in rows])


# ---------------------------------------------------------------------------
# Independent references


@functools.cache
def read_expression(in_dir: Path) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """(genes, x1, x2, samples in design order) from the input files."""
    with open(in_dir / "expression.tsv") as handle:
        header = handle.readline().rstrip("\n").split("\t")[1:]
        cells = [line.rstrip("\n").split("\t") for line in handle]
    genes = [c[0] for c in cells]
    values = np.array([c[1:] for c in cells], dtype=np.float64)
    class1, class2 = [], []
    for line in (in_dir / "design.tsv").read_text().splitlines():
        sample, label = line.split("\t")
        (class1 if label == "1" else class2).append(sample)
    col = {s: j for j, s in enumerate(header)}
    x1 = values[:, [col[s] for s in class1]]
    x2 = values[:, [col[s] for s in class2]]
    return genes, x1, x2, class1 + class2


def sample_space(x1: np.ndarray, x2: np.ndarray):
    """Centred pooled data and the eigen-decomposition of its n x n Gram
    matrix, eigenvalues descending."""
    pooled = np.hstack([x1, x2])
    centred = pooled - pooled.mean(axis=1, keepdims=True)
    w, v = np.linalg.eigh(centred.T @ centred)
    return centred, w[::-1], v[:, ::-1]


def lstsq_normal(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Unit minimum-norm least-squares normal of the -1/+1 contrast on the
    centred samples, solved in sample space: beta = Xc (Xc'Xc)^+ y."""
    centred, w, v = sample_space(x1, x2)
    keep = w > 1e-10 * w[0]
    y = np.concatenate([-np.ones(x1.shape[1]), np.ones(x2.shape[1])])
    beta = centred @ (v[:, keep] @ ((v[:, keep].T @ y) / w[keep]))
    beta /= np.linalg.norm(beta)
    if beta @ (x2.mean(axis=1) - x1.mean(axis=1)) < 0:
        beta = -beta
    return beta


def exact_tail(k: int, marked: int, drawn: int, universe: int) -> float:
    """P(K >= k) for the hypergeometric overlap, in exact integers up to
    one correctly rounded division. Consecutive terms differ by an exact
    integer ratio, so each is derived from the last without rounding."""
    lo, hi = max(0, marked + drawn - universe), min(marked, drawn)
    if k <= lo:
        return 1.0
    if k > hi:
        return 0.0
    term = math.comb(marked, k) * math.comb(universe - marked, drawn - k)
    total = term
    for j in range(k, hi):
        term = term * (marked - j) * (drawn - j) // ((j + 1) * (universe - marked - drawn + j + 1))
        total += term
    return total / math.comb(universe, drawn)


def bh(p: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg q-values by an explicit step-down from the
    largest p."""
    order = sorted(range(len(p)), key=lambda i: p[i])
    q = np.empty(len(p))
    running = 1.0
    for position in range(len(p), 0, -1):
        i = order[position - 1]
        running = min(running, p[i] * len(p) / position)
        q[i] = running
    return q


def read_gmt(path: Path) -> dict[str, set[str]]:
    library = {}
    for line in path.read_text().splitlines():
        cells = line.split("\t")
        library[cells[0].strip()] = {c.strip().upper() for c in cells[2:] if c.strip()}
    return library


def read_ranked_input(path: Path) -> tuple[list[str], set[str], dict[str, float]]:
    """(ranking, significant genes, coefficients) of the ranked input."""
    _, header, rows = read_table(path)
    g, c, s = header.index("gene_id"), header.index("coefficient"), header.index("significant")
    return ([r[g] for r in rows], {r[g] for r in rows if r[s] == "true"},
            {r[g]: float(r[c]) for r in rows})


# ---------------------------------------------------------------------------
# de_20k


def check_ranked_table(path: Path, genes: list[str], method: str):
    """Unit norm, squares and running sum, squared-coefficient order with
    the gene-id tie-break, ranks, signs and the shortest alpha-prefix.
    Returns (prefix length, gene per row, coefficient per row)."""
    comments, header, rows = read_table(path)
    require(f"# method: {method}" in comments, f"{path}: no '# method: {method}' line")
    require(header == RANKED_HEADER, f"{path}: header {header}")
    names = [r[0] for r in rows]
    require(len(names) == len(genes) and set(names) == set(genes),
            f"{path}: {len(names)} rows do not cover the {len(genes)} input genes once each")
    coef, squared, cumulative = column(rows, 1), column(rows, 2), column(rows, 3)
    require(abs(float(coef @ coef) - 1.0) <= 1e-9, f"{path}: coefficients are not unit norm")
    bad = np.flatnonzero(squared != coef**2)
    require(bad.size == 0, f"{path}: squared_coefficient wrong at rank {bad[:1] + 1}")
    bad = np.flatnonzero(np.abs(cumulative - np.cumsum(coef**2)) > 1e-12)
    require(bad.size == 0, f"{path}: cumulative_fraction wrong at rank {bad[:1] + 1}")
    for i in range(len(rows) - 1):
        a, b = (-(coef[i] ** 2), names[i]), (-(coef[i + 1] ** 2), names[i + 1])
        require(a < b, f"{path}: ranks {i + 1} and {i + 2} out of order")
    require([r[4] for r in rows] == [str(i) for i in range(1, len(rows) + 1)],
            f"{path}: rank column is not 1..n")
    signs = ["+" if c >= 0 else "-" for c in coef]
    require([r[5] for r in rows] == signs, f"{path}: discriminant_sign disagrees with coefficient")
    reached = np.flatnonzero(cumulative >= ALPHA)
    selected = int(reached[0]) + 1 if reached.size else len(rows)
    flags = ["true" if i < selected else "false" for i in range(len(rows))]
    require([r[6] for r in rows] == flags, f"{path}: significant is not the shortest alpha-prefix")
    require(selected < len(rows), f"{path}: every gene flagged")
    return selected, names, coef


def check_lr1(path: Path, genes, x1, x2) -> dict:
    selected, names, coef = check_ranked_table(path, genes, "LR1")
    _, w, _ = sample_space(x1, x2)
    n = x1.shape[1] + x2.shape[1]
    retained = np.cumsum(w) / w.sum()
    require(retained[n - 3] < 1 - PCA_EPSILON and n - 1 <= PCA_MAX_COMPONENTS,
            f"{path}: PCA would keep fewer than n - 1 = {n - 1} components")
    index = {g: i for i, g in enumerate(genes)}
    reference = lstsq_normal(x1, x2)
    gap = float(np.max(np.abs(coef - reference[[index[g] for g in names]])))
    require(gap <= LR1_TOL, f"{path}: coefficients differ from the least-squares normal by {gap:.3g}")
    return {"lr1_selected": selected, "lr1_max_abs_diff": gap}


def check_np1(path: Path, genes, x1, x2) -> dict:
    selected, names, coef = check_ranked_table(path, genes, "NP1")
    index = {g: i for i, g in enumerate(genes)}
    b = np.zeros(len(genes))
    b[[index[g] for g in names]] = coef
    require(b @ (x2.mean(axis=1) - x1.mean(axis=1)) > 0,
            f"{path}: not oriented along the centroid difference")
    centred, w, v = sample_space(x1, x2)
    keep = w > 1e-10 * w[0]
    basis = centred @ (v[:, keep] / np.sqrt(w[keep]))
    residual = float(np.linalg.norm(b - basis @ (basis.T @ b)))
    require(residual <= NP1_SPAN_TOL, f"{path}: leaves the sample span by {residual:.3g}")
    return {"np1_selected": selected, "np1_span_residual": residual,
            "np1_max_abs_coefficient": float(np.abs(b).max())}


def check_welch(path: Path, genes, x1, x2) -> dict:
    comments, header, rows = read_table(path)
    require(header == ["gene_id", "t", "df", "p", "q", "significant", "diagnostic"],
            f"{path}: header {header}")
    require("# two-sided p-values" in comments, f"{path}: no '# two-sided p-values' line")
    names = [r[0] for r in rows]
    require(len(names) == len(genes) and set(names) == set(genes),
            f"{path}: {len(names)} rows do not cover the {len(genes)} input genes once each")
    require(all(r[6] == "" for r in rows), f"{path}: unexpected diagnostic")
    t, df, p, q = (column(rows, i) for i in (1, 2, 3, 4))
    for i in range(len(rows) - 1):
        require((p[i], names[i]) < (p[i + 1], names[i + 1]), f"{path}: rows {i + 1}, {i + 2} not sorted by p")
    index = {g: i for i, g in enumerate(genes)}
    rows_of = [index[n] for n in names]
    ref = stats.ttest_ind(x1[rows_of], x2[rows_of], axis=1, equal_var=False)
    for name, got, want, atol in (("t", t, ref.statistic, WELCH_T_ATOL), ("df", df, ref.df, 0.0),
                                  ("p", p, ref.pvalue, WELCH_P_ATOL)):
        bad = np.flatnonzero(~np.isclose(got, want, rtol=P_RTOL, atol=atol))
        require(bad.size == 0, f"{path}: {name} differs from scipy at row {bad[:1] + 1}")
    bad = np.flatnonzero(~np.isclose(q, bh(p), rtol=1e-12, atol=0.0))
    require(bad.size == 0, f"{path}: q differs from BH at row {bad[:1] + 1}")
    flags = ["true" if v <= FDR else "false" for v in q]
    require([r[5] for r in rows] == flags, f"{path}: significant is not q <= {FDR}")
    n_sig = flags.count("true")
    require(n_sig > 0, f"{path}: no gene significant at FDR {FDR}")
    return {"welch_significant": n_sig}


def check_project(out_dir: Path, x1, x2, samples: list[str]) -> dict:
    n1 = x1.shape[1]
    classes = ["1"] * n1 + ["2"] * x2.shape[1]
    path = out_dir / "projection.tsv"
    _, header, rows = read_table(path)
    require(header == ["sample_id", "class"] + [f"cd{i + 1}" for i in range(DEPTH)],
            f"{path}: header {header}")
    require([r[0] for r in rows] == samples and [r[1] for r in rows] == classes,
            f"{path}: samples or classes not in design order")
    coords = np.array([[float(v) for v in r[2:]] for r in rows])
    scale = max(1.0, float(np.abs(coords).max()))
    sums = np.abs(coords.sum(axis=0))
    require(np.all(sums <= 1e-9 * scale), f"{path}: column sums {sums} are not 0")
    centred, w, v = sample_space(x1, x2)
    cd1 = lstsq_normal(x1, x2) @ centred
    gap = float(np.max(np.abs(coords[:, 0] - cd1)))
    require(gap <= 1e-10 * scale, f"{path}: cd1 differs from the projection on the normal by {gap:.3g}")

    path = out_dir / "pca.tsv"
    _, header, rows = read_table(path)
    require(header == ["sample_id", "class", "pc1", "pc2"], f"{path}: header {header}")
    require([r[0] for r in rows] == samples and [r[1] for r in rows] == classes,
            f"{path}: samples or classes not in design order")
    for k in range(2):
        got = column(rows, 2 + k)
        want = np.sqrt(w[k]) * v[:, k]
        gap = min(np.abs(got - want).max(), np.abs(got + want).max())
        require(gap <= 1e-10 * max(1.0, float(np.abs(want).max())),
                f"{path}: pc{k + 1} differs from the SVD scores by {gap:.3g}")

    path = out_dir / "density.tsv"
    _, header, rows = read_table(path)
    require(header == ["grid_x", "density_class1", "density_class2"], f"{path}: header {header}")
    grid, d1, d2 = column(rows, 0), column(rows, 1), column(rows, 2)
    require(len(rows) == 256 and np.all(np.diff(grid) > 0), f"{path}: grid is not 256 rising points")
    require(np.all(np.isfinite(d1) & (d1 >= 0) & np.isfinite(d2) & (d2 >= 0)),
            f"{path}: densities not finite and nonnegative")
    return {"density_integrals": [float(np.trapezoid(d1, grid)), float(np.trapezoid(d2, grid))]}


def check_de(in_dir: Path, out_dir: Path) -> dict:
    genes, x1, x2, samples = read_expression(in_dir)
    return {
        **check_lr1(out_dir / "chdir_lr1" / "ranked_genes.tsv", genes, x1, x2),
        **check_np1(out_dir / "chdir_np1" / "ranked_genes.tsv", genes, x1, x2),
        **check_welch(out_dir / "ttest" / "welch_results.tsv", genes, x1, x2),
        **check_project(out_dir / "project", x1, x2, samples),
    }


# ---------------------------------------------------------------------------
# enrich_20k


def check_sorted_by_p(path: Path, p: np.ndarray, names: list[str]) -> None:
    for i in range(len(names) - 1):
        require((p[i], names[i]) < (p[i + 1], names[i + 1]), f"{path}: rows {i + 1}, {i + 2} not sorted by p")


def check_hypergeom(path: Path, ranked: Path, gmt: Path) -> dict:
    # Without --universe the CLI takes the ranked genes as the universe.
    ranking, significant, _ = read_ranked_input(ranked)
    rank_of = {g: i for i, g in enumerate(ranking, start=1)}
    library = read_gmt(gmt)
    _, header, rows = read_table(path)
    require(header == ["set_name", "overlap", "set_size", "p", "q", "mean_rank", "diagnostic"],
            f"{path}: header {header}")
    names = [r[0] for r in rows]
    require(sorted(names) == sorted(library), f"{path}: sets do not match the library")
    p = column(rows, 3)
    check_sorted_by_p(path, p, names)
    for i, r in enumerate(rows):
        members = library[r[0]] & rank_of.keys()
        overlap = len(members & significant)
        require((r[1], r[2], r[6]) == (str(overlap), str(len(members)), ""),
                f"{path}: {r[0]} overlap/size/diagnostic {r[1:3]}, want {overlap}, {len(members)}")
        want = exact_tail(overlap, len(significant), len(members), len(ranking))
        require(math.isclose(p[i], want, rel_tol=P_RTOL), f"{path}: {r[0]} p {p[i]!r}, exact {want!r}")
        mean_rank = float(np.mean([rank_of[g] for g in members]))
        require(math.isclose(float(r[5]), mean_rank, rel_tol=1e-12), f"{path}: {r[0]} mean_rank")
    bad = np.flatnonzero(~np.isclose(column(rows, 4), bh(p), rtol=1e-12, atol=0.0))
    require(bad.size == 0, f"{path}: q differs from BH at row {bad[:1] + 1}")
    return {"hypergeom_min_p": float(p.min())}


def check_angle(path: Path, ranked: Path, gmt: Path) -> dict:
    ranking, _, coefficients = read_ranked_input(ranked)
    n = len(ranking)
    library = read_gmt(gmt)
    _, header, rows = read_table(path)
    require(header == ["set_name", "theta", "p", "q", "diagnostic"], f"{path}: header {header}")
    names = [r[0] for r in rows]
    require(sorted(names) == sorted(library), f"{path}: sets do not match the library")
    theta, p = column(rows, 1), column(rows, 2)
    check_sorted_by_p(path, p, names)
    surprise = []
    for i, r in enumerate(rows):
        mass = math.fsum(coefficients[g] ** 2 for g in library[r[0]] if g in coefficients)
        want = math.acos(math.sqrt(min(1.0, mass)))
        require(abs(theta[i] - want) <= 1e-12 and r[4] == "", f"{path}: {r[0]} theta {theta[i]!r}, want {want!r}")
        closed = float(special.betainc(0.5, (n - 1) / 2, math.cos(want) ** 2))
        require(abs(p[i] - closed) <= ANGLE_P_TOL, f"{path}: {r[0]} p {p[i]!r}, closed form {closed!r}")
        surprise.append(float(special.betainc((n - 1) / 2, 0.5, math.sin(want) ** 2)))
    bad = np.flatnonzero(~np.isclose(column(rows, 3), bh(p), rtol=1e-12, atol=0.0))
    require(bad.size == 0, f"{path}: q differs from BH at row {bad[:1] + 1}")
    # Where the closed-form 1 - p is below 1e-12, the quadrature's 1 - p
    # shows its absolute error instead.
    surprise = np.array(surprise)
    tiny = surprise < 1e-12
    notes = {"angle_sets_with_1_minus_p_below_1e-12": int(tiny.sum())}
    if tiny.any():
        notes["angle_1_minus_p_there"] = [float((1.0 - p[tiny]).min()), float((1.0 - p[tiny]).max())]
        notes["angle_closed_form_1_minus_p_there"] = [float(surprise[tiny].min()),
                                                      float(surprise[tiny].max())]
    return notes


def check_profile(path: Path, tss: Path, bound: Path) -> dict:
    nearest: dict[str, float] = {}
    for line in tss.read_text().splitlines()[1:]:
        gene, distance = line.split("\t")
        nearest[gene] = min(float(distance), nearest.get(gene, math.inf))
    ordered = sorted(nearest.items(), key=lambda item: (item[1], item[0]))
    significant = set(bound.read_text().split())
    distances = np.array([d for _, d in ordered])
    hits = np.array([g in significant for g, _ in ordered], dtype=np.int64)
    windows = len(ordered) - WINDOW + 1
    _, header, rows = read_table(path)
    require(header == ["mean_distance", "minus_log10_p"], f"{path}: header {header}")
    require(len(rows) == windows, f"{path}: {len(rows)} windows, want {windows}")
    means = np.lib.stride_tricks.sliding_window_view(distances, WINDOW).mean(axis=1)
    bad = np.flatnonzero(~np.isclose(column(rows, 0), means, rtol=1e-9, atol=0.0))
    require(bad.size == 0, f"{path}: mean_distance differs from numpy at window {bad[:1] + 1}")
    overlaps = np.convolve(hits, np.ones(WINDOW, dtype=np.int64), mode="valid")
    tails = {k: exact_tail(k, len(significant), WINDOW, UNIVERSE)
             for k in set(overlaps.tolist())}
    want = np.array([-math.log10(tails[k]) for k in overlaps.tolist()])
    bad = np.flatnonzero(np.abs(column(rows, 1) - want) > 1e-9)
    require(bad.size == 0, f"{path}: minus_log10_p differs from the exact tail at window {bad[:1] + 1}")
    return {"profile_windows": windows, "profile_distinct_overlaps": len(tails)}


def check_enrich(in_dir: Path, out_dir: Path) -> dict:
    ranked, gmt = in_dir / "ranked.tsv", in_dir / "library.gmt"
    return {
        **check_hypergeom(out_dir / "enrich_hypergeom" / "enrichment.tsv", ranked, gmt),
        **check_angle(out_dir / "enrich_angle" / "enrichment.tsv", ranked, gmt),
        **check_profile(out_dir / "profile" / "profile.tsv", in_dir / "tss.tsv", in_dir / "bound.txt"),
    }


# ---------------------------------------------------------------------------
# sweep_1k


def check_sweep(out_dir: Path) -> dict:
    sizes, runs, methods = SWEEP_ARGS["sizes"], SWEEP_ARGS["runs"], SWEEP_ARGS["methods"]
    path = out_dir / "sweep.tsv"
    _, header, rows = read_table(path)
    require(header == ["method", "samples_per_class", "mean_gini", "stderr", "n_runs", "n_excluded"],
            f"{path}: header {header}")
    cells = [(m, str(s)) for s in sizes for m in methods]
    require([(r[0], r[1]) for r in rows] == cells, f"{path}: cells not in (size, method) order")
    gini = {}
    for r in rows:
        require(int(r[4]) + int(r[5]) == runs and int(r[4]) >= 2,
                f"{path}: {r[0]} at {r[1]}: n_runs + n_excluded != {runs}")
        g, se = float(r[2]), float(r[3])
        require(0 < g <= 1 and 0 <= se < 1, f"{path}: {r[0]} at {r[1]}: gini {g}, stderr {se}")
        gini[r[0], int(r[1])] = g
    for s in sizes:
        for m in ("LR1", "NP1"):
            require(gini[m, s] > gini["WELCH", s], f"{path}: {m} Gini does not exceed WELCH at {s}")

    path = out_dir / "roc.tsv"
    _, header, rows = read_table(path)
    require(header == ["method", "fpr", "tpr"], f"{path}: header {header}")
    grid = np.linspace(0.0, 1.0, 101)
    require([r[0] for r in rows] == [m for m in methods for _ in grid], f"{path}: rows per method")
    gaps = {}
    for k, m in enumerate(methods):
        fpr, tpr = column(rows[101 * k: 101 * (k + 1)], 1), column(rows[101 * k: 101 * (k + 1)], 2)
        require(np.all(fpr == grid), f"{path}: {m} fpr is not the 101-point grid")
        require(np.all(np.diff(tpr) >= 0) and tpr[0] >= 0 and tpr[-1] == 1.0,
                f"{path}: {m} mean ROC does not rise monotonically to 1")
        gaps[m] = abs(2 * float(np.trapezoid(tpr, fpr)) - 1 - gini[m, SWEEP_ARGS["roc_samples"]])
        require(gaps[m] <= ROC_GINI_TOL, f"{path}: {m} 2*area-1 is {gaps[m]:.3g} from its Gini")
    return {"roc_gini_gap_max": max(gaps.values()),
            "gini": {f"{m}@{s}": g for (m, s), g in gini.items()}}


def check_workload(workload: str, in_dir: Path, out_dir: Path) -> dict:
    if workload == "de_20k":
        return check_de(in_dir, out_dir)
    if workload == "enrich_20k":
        return check_enrich(in_dir, out_dir)
    return check_sweep(out_dir / "benchmark")


def main() -> int:
    parser = argparse.ArgumentParser(description="check a workload's chardir outputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--outputs", required=True, nargs="+", help="one directory per round")
    args = parser.parse_args()
    try:
        for outputs in args.outputs:
            notes = check_workload(args.workload, Path(args.inputs), Path(outputs))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print("checks passed: " + json.dumps(notes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
