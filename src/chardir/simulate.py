"""Synthetic two-class expression data with known ground truth, plus
ROC/Gini recovery scoring and the estimator-vs-t-test benchmark sweep.

The generator draws both classes from a shared multivariate Gaussian
whose covariance concentrates most variance in a low-dimensional,
randomly rotated subspace of a correlating gene block; differential
expression enters only through the mean difference, an isotropic vector
planted in a sub-block of known genes.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .direction import NoDifferentialSignalError, _fit, _pooled, _two_class_samples
from .linalg import ZeroVarianceError, random_rotation
from .welch import welch_arrays

__all__ = [
    "SyntheticSpec",
    "SimulationOutcome",
    "RecoveryScore",
    "SweepCell",
    "MeanRocCurve",
    "METHODS",
    "generate",
    "synthetic_gene_ids",
    "method_scores",
    "score_recovery",
    "benchmark_sweep_roc",
]

METHODS = ("LR1", "NP1", "WELCH")
# The common false-positive-rate grid every run's ROC is sampled on.
ROC_GRID = np.linspace(0.0, 1.0, 101)
ROC_GRID.flags.writeable = False
# The errors of an estimator that degenerates on a run's data.
_DEGENERATE = (NoDifferentialSignalError, ZeroVarianceError)


def _round_count(x: float) -> int:
    """Half-up rounding, so 2.5 of 25 genes means 3 and not banker's 2."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic-data model.

    Defaults follow the benchmark setup: intrinsic dimension 2, variance
    scale 40, a tenth of the genes correlating and differentially
    expressed, and a total expression shift of magnitude 5.
    """

    n_genes: int
    samples_per_class: int
    seed: int
    intrinsic_dim: int = 2
    variance_scale: float = 40.0
    frac_correlating: float = 0.1
    frac_de: float = 0.1
    de_magnitude: float = 5.0

    @property
    def n_correlating(self) -> int:
        return _round_count(self.frac_correlating * self.n_genes)

    @property
    def n_de(self) -> int:
        return _round_count(self.frac_de * self.n_genes)

    def __post_init__(self) -> None:
        if self.n_genes < 1:
            raise ValueError("n_genes must be >= 1")
        if self.samples_per_class < 2:
            raise ValueError("samples_per_class must be >= 2")
        if not 0 < self.frac_correlating <= 1 or not 0 < self.frac_de <= 1:
            raise ValueError("gene fractions must lie in (0, 1]")
        if not 1 < self.variance_scale < math.inf:
            raise ValueError("variance_scale must be a finite number above 1")
        if not 0 <= self.de_magnitude < math.inf:
            raise ValueError("de_magnitude must be a finite nonnegative number")
        if self.intrinsic_dim < 1:
            raise ValueError("intrinsic_dim must be >= 1")
        if self.intrinsic_dim > self.n_correlating:
            raise ValueError(
                "intrinsic_dim cannot exceed the correlating gene count "
                f"({self.n_correlating})"
            )
        if self.n_de < 1:
            raise ValueError("frac_de rounds to zero differential genes")
        if self.n_de > self.n_correlating:
            raise ValueError(
                "differentially expressed genes must fit inside the "
                f"correlating block ({self.n_correlating})"
            )


@dataclass(frozen=True)
class SimulationOutcome:
    """Synthetic data with its ground truth.

    ``rotation`` is the random rotation applied to the correlating block,
    kept so the realized covariance can be reconstructed exactly.
    """

    spec: SyntheticSpec
    x_control: np.ndarray
    x_perturbed: np.ndarray
    de_mask: np.ndarray
    de_vector: np.ndarray
    rotation: np.ndarray


def generate(spec: SyntheticSpec) -> SimulationOutcome:
    """Draw one synthetic control/perturbed dataset from the spec.

    The correlating block's covariance is ``R diag(s..s, 1..1) R^T`` with
    ``intrinsic_dim`` inflated variances and a Haar-random rotation R;
    the remaining genes carry independent unit-variance noise. The
    perturbed class adds a mean shift of norm ``de_magnitude`` supported
    on the first ``n_de`` genes (an isotropic direction within that
    sub-block). Identical specs, including the seed, reproduce the
    outcome bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    p, n = spec.n_genes, spec.samples_per_class
    c, n_de = spec.n_correlating, spec.n_de

    rotation = random_rotation(c, rng)
    raw_direction = rng.standard_normal(n_de)
    norm = float(np.linalg.norm(raw_direction))
    if norm == 0.0:
        raise RuntimeError("degenerate zero draw for the expression shift")
    de_vector = np.zeros(p)
    de_vector[:n_de] = raw_direction / norm * spec.de_magnitude

    sqrt_scales = np.ones(c)
    sqrt_scales[: spec.intrinsic_dim] = math.sqrt(spec.variance_scale)

    def draw_class() -> np.ndarray:
        block = rotation @ (sqrt_scales[:, None] * rng.standard_normal((c, n)))
        rest = rng.standard_normal((p - c, n))
        return np.vstack([block, rest])

    x_control = draw_class()
    x_perturbed = draw_class() + de_vector[:, None]
    return SimulationOutcome(
        spec=spec,
        x_control=x_control,
        x_perturbed=x_perturbed,
        de_mask=np.arange(p) < n_de,
        de_vector=de_vector,
        rotation=rotation,
    )


# Every run of a sweep shares one gene count, so only the last is kept.
@functools.lru_cache(maxsize=1)
def synthetic_gene_ids(n_genes: int) -> tuple[str, ...]:
    return tuple(f"G{i + 1:05d}" for i in range(n_genes))


@dataclass(frozen=True)
class RecoveryScore:
    """Ranking efficiency of per-gene scores against the truth mask, with
    the ROC's vertices as ``fpr``/``tpr`` arrays from (0, 0) to (1, 1)."""

    auc: float
    gini: float
    fpr: np.ndarray
    tpr: np.ndarray


def score_recovery(per_gene_scores, de_mask) -> RecoveryScore:
    """ROC of the score ranking against the planted mask.

    Genes are ranked by score descending; tied scores contribute half
    credit (diagonal ROC segments), so the trapezoid AUC matches the
    Mann-Whitney convention. ``gini = 2 * auc - 1`` exactly.
    """
    scores = np.asarray(per_gene_scores, dtype=np.float64)
    mask = np.asarray(de_mask, dtype=bool)
    if scores.shape != mask.shape or scores.ndim != 1:
        raise ValueError("scores and mask must be 1-D and equally long")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    n_pos = int(mask.sum())
    n_neg = int(mask.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("mask needs at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_mask = mask[order]
    # Close a tie group at every index where the next score differs.
    boundaries = np.nonzero(np.diff(sorted_scores))[0]
    ends = np.concatenate([boundaries + 1, [scores.size]])
    tp = np.concatenate([[0], np.cumsum(sorted_mask)[ends - 1]])
    fp = np.concatenate([[0], ends - np.cumsum(sorted_mask)[ends - 1]])

    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(np.trapezoid(tpr, fpr))
    return RecoveryScore(auc=auc, gini=2.0 * auc - 1.0, fpr=fpr, tpr=tpr)


def method_scores(outcome: SimulationOutcome, methods=METHODS) -> dict[str, np.ndarray | None]:
    """Per-gene ranking scores of each method on a simulated dataset, None
    for an estimator that degenerates on it.

    Characteristic-direction methods score genes by squared coefficient,
    all from one factorisation of the pooled samples; the Welch baseline
    scores by -log p (genes with an undefined statistic score 0).
    """
    methods = _validated_methods(methods)
    x1, x2 = outcome.x_control, outcome.x_perturbed
    samples = None
    if set(methods) - {"WELCH"}:
        gene_ids = synthetic_gene_ids(outcome.spec.n_genes)
        with contextlib.suppress(*_DEGENERATE):
            samples = _two_class_samples(gene_ids, *_pooled(x1, x2))
    scores: dict[str, np.ndarray | None] = dict.fromkeys(methods)
    for method in methods:
        if method == "WELCH":
            _, _, p, _ = welch_arrays(x1, x2)
            with np.errstate(divide="ignore"):
                scores[method] = -np.log(p)
        elif samples is not None:
            with contextlib.suppress(*_DEGENERATE):
                scores[method] = _fit(samples, method).coefficients ** 2
    return scores


@dataclass(frozen=True)
class SweepCell:
    """Mean Gini of one method at one sample size across a sweep."""

    method: str
    samples_per_class: int
    mean_gini: float
    stderr: float
    n_runs: int
    n_excluded: int


@dataclass(frozen=True)
class MeanRocCurve:
    """Run-averaged ROC of one method on a fixed false-positive-rate grid."""

    method: str
    fpr: np.ndarray
    tpr: np.ndarray


def _derived_seed(master_seed: int, *key: int) -> int:
    seq = np.random.SeedSequence([int(master_seed), *map(int, key)])
    return int(seq.generate_state(1, np.uint64)[0])


def _run_single(
    spec_template: SyntheticSpec, size: int, run_index: int, methods: tuple[str, ...]
) -> dict[str, tuple[float, np.ndarray] | None]:
    """One simulation run: generate data and score every method, as its
    Gini and its ROC's true-positive rates on ``ROC_GRID`` (None where the
    estimator degenerates).

    The data seed is derived from (master seed, sample size, run index),
    so a sweep's runs reproduce identically whether executed sequentially
    or across workers.
    """
    spec = replace(
        spec_template,
        samples_per_class=size,
        seed=_derived_seed(spec_template.seed, size, run_index, 0),
    )
    outcome = generate(spec)
    records = dict.fromkeys(methods)
    for method, scores in method_scores(outcome, methods).items():
        if scores is not None:
            score = score_recovery(scores, outcome.de_mask)
            records[method] = (score.gini, np.interp(ROC_GRID, score.fpr, score.tpr))
    return records


def _validated_methods(methods) -> tuple[str, ...]:
    methods = tuple(dict.fromkeys(m.upper() for m in methods))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected subset of {METHODS}")
    if not methods:
        raise ValueError("need at least one method")
    return methods


def benchmark_sweep_roc(
    spec_template: SyntheticSpec,
    sample_sizes,
    roc_samples: int | None,
    n_runs: int,
    methods=METHODS,
    n_jobs: int = 1,
) -> tuple[list[SweepCell], list[MeanRocCurve]]:
    """Mean Gini per method at each of ``sample_sizes``, and the mean ROC
    per method at ``roc_samples`` (none when None), over ``n_runs`` runs.

    ``spec_template.seed`` is the master seed: each run draws its data from
    a seed derived from (master seed, size, run index), every method scores
    the same data, and a (size, run) pair both tables need runs once. Each
    run, in this process or one of ``n_jobs`` workers, returns per method
    its Gini and its ROC interpolated onto a common false-positive-rate
    grid, and this function averages them: runs where an estimator
    degenerates are counted and excluded, and Ginis are averaged by
    compensated summation in run order, so results do not depend on
    ``n_jobs``. A size or method listed twice counts once, at its first
    position.
    """
    methods = _validated_methods(methods)
    sample_sizes = list(dict.fromkeys(sample_sizes))
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    sizes = list(dict.fromkeys(sample_sizes + ([] if roc_samples is None else [roc_samples])))
    one_run = functools.partial(_run_single, spec_template, methods=methods)
    task_sizes = [size for size in sizes for _ in range(n_runs)]
    task_runs = [*range(n_runs)] * len(sizes)
    if n_jobs == 1:
        records = list(map(one_run, task_sizes, task_runs))
    else:
        # Imported here: it loads multiprocessing, which no other path needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(one_run, task_sizes, task_runs))
    runs = {size: records[i * n_runs : (i + 1) * n_runs] for i, size in enumerate(sizes)}

    cells = []
    for size in sample_sizes:
        per_run = runs[size]
        for method in methods:
            ginis = [run[method][0] for run in per_run if run[method] is not None]
            mean = math.fsum(ginis) / len(ginis) if ginis else float("nan")
            if len(ginis) >= 2:
                var = math.fsum((g - mean) ** 2 for g in ginis) / (len(ginis) - 1)
                stderr = math.sqrt(var / len(ginis))
            else:
                stderr = float("nan")
            cells.append(SweepCell(method, size, mean, stderr, len(ginis), len(per_run) - len(ginis)))

    if roc_samples is None:
        return cells, []
    curves = []
    for method in methods:
        rows = [run[method][1] for run in runs[roc_samples] if run[method] is not None]
        if not rows:
            raise RuntimeError(f"all runs failed for method {method}")
        curves.append(MeanRocCurve(method, ROC_GRID, np.vstack(rows).mean(axis=0)))
    return cells, curves
