"""Enrichment statistics: hypergeometric over-representation, the
principal-angle p-value against an isotropic null, top-n overlap-ratio
curves, and the sliding-window TSS-distance profile."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import GeneSet, GeneSetLibrary
from .direction import CharacteristicDirection
from .welch import _betainc, bh_fdr

__all__ = [
    "EnrichmentResult",
    "AngleEnrichmentResult",
    "OverlapCurve",
    "OverlapCurveSummary",
    "hypergeom_tail",
    "hypergeom_enrich",
    "principal_angle",
    "angle_null_pvalue",
    "angle_enrich",
    "overlap_curve",
    "aggregate_overlap_curves",
    "dedupe_tss_associations",
    "sliding_window_profile",
]


@dataclass(frozen=True)
class EnrichmentResult:
    """Hypergeometric over-representation of one gene set.

    ``mean_rank`` is the mean 1-based rank of the set's members in the
    supplied gene ranking (NaN when no ranking was given); smaller values
    mean the set leans toward the top of the ranking.
    """

    set_name: str
    overlap: int
    set_size_in_universe: int
    p: float
    q: float
    mean_rank: float
    diagnostic: str = ""


@dataclass(frozen=True)
class AngleEnrichmentResult:
    """Principal-angle enrichment of one gene set.

    ``theta`` is the angle between the characteristic direction and the
    coordinate subspace spanned by the set's genes; 0 means the direction
    lies entirely inside the subspace.
    """

    set_name: str
    theta: float
    p: float
    q: float
    diagnostic: str = ""


def hypergeom_tail(k: int, n_significant: int, set_size: int, universe: int) -> float:
    """Upper-tail probability P(K >= k) of the hypergeometric overlap.

    K is the overlap when ``set_size`` genes are drawn without replacement
    from a universe of ``universe`` genes of which ``n_significant`` are
    marked. The sum is anchored at the largest tail term, computed exactly
    with integer binomials, and extended by exact term ratios, keeping the
    relative error near machine precision (<= 1e-12 for universe <= 1e5)
    without overflow.
    """
    for name, value in (
        ("k", k),
        ("n_significant", n_significant),
        ("set_size", set_size),
        ("universe", universe),
    ):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    if n_significant > universe or set_size > universe:
        raise ValueError("marked and drawn counts cannot exceed the universe")
    if k > min(n_significant, set_size):
        raise ValueError("k cannot exceed min(n_significant, set_size)")

    lo = max(0, n_significant + set_size - universe)
    hi = min(n_significant, set_size)
    if k <= lo:
        return 1.0

    # Anchor at the largest term in the tail: the distribution mode, or k
    # itself when the whole tail is past the mode.
    mode = (n_significant + 1) * (set_size + 1) // (universe + 2)
    anchor = min(max(k, mode), hi)
    anchor_pmf = (
        math.comb(n_significant, anchor) * math.comb(universe - n_significant, set_size - anchor)
    ) / math.comb(universe, set_size)

    def ratio(j: int) -> float:
        # pmf(j + 1) / pmf(j)
        return ((n_significant - j) * (set_size - j)) / (
            (j + 1) * (universe - n_significant - set_size + j + 1)
        )

    terms = [anchor_pmf]
    value = anchor_pmf
    for j in range(anchor, hi):  # upward from the anchor
        value *= ratio(j)
        if value == 0.0:
            break
        terms.append(value)
    value = anchor_pmf
    for j in range(anchor - 1, k - 1, -1):  # downward to k
        value /= ratio(j)
        if value == 0.0:
            break
        terms.append(value)

    return min(1.0, math.fsum(terms))


def hypergeom_enrich(
    significant,
    library: GeneSetLibrary,
    universe,
    ranking=None,
) -> list[EnrichmentResult]:
    """Score every library set for over-representation among the
    significant genes, BH-correct across the library, and sort by p.

    Genes outside the universe are ignored everywhere. Sets with no member
    in the universe are reported with p = q = 1 and a diagnostic, and are
    left out of the BH correction.
    """
    universe_list = list(universe)
    universe_set = set(universe_list)
    if len(universe_set) != len(universe_list):
        raise ValueError("universe contains duplicate gene ids")
    if not universe_set:
        raise ValueError("universe is empty")
    sig = set(significant) & universe_set
    ranks = (
        {g: i for i, g in enumerate(ranking, start=1) if g in universe_set}
        if ranking is not None
        else None
    )

    names, overlaps, sizes, pvals, mean_ranks, diagnostics = [], [], [], [], [], []
    for gene_set in library:
        members = gene_set.members & universe_set
        names.append(gene_set.name)
        sizes.append(len(members))
        if not members:
            overlaps.append(0)
            pvals.append(1.0)
            mean_ranks.append(float("nan"))
            diagnostics.append("no overlap with gene universe")
            continue
        overlap = len(members & sig)
        overlaps.append(overlap)
        pvals.append(hypergeom_tail(overlap, len(sig), len(members), len(universe_set)))
        if ranks is None:
            mean_ranks.append(float("nan"))
        else:
            member_ranks = [ranks[g] for g in members if g in ranks]
            mean_ranks.append(
                float(np.mean(member_ranks)) if member_ranks else float("nan")
            )
        diagnostics.append("")

    qvals = _bh_skipping_diagnostics(pvals, diagnostics)
    results = [
        EnrichmentResult(n, o, s, float(p), float(q), mr, d)
        for n, o, s, p, q, mr, d in zip(
            names, overlaps, sizes, pvals, qvals, mean_ranks, diagnostics
        )
    ]
    return sorted(results, key=lambda r: (r.p, r.set_name))


def _bh_skipping_diagnostics(pvals, diagnostics) -> np.ndarray:
    """BH over the non-diagnostic entries only; diagnostic rows get q = 1."""
    qvals = np.ones(len(pvals))
    tested = [i for i, d in enumerate(diagnostics) if not d]
    if tested:
        qvals[tested] = bh_fdr([pvals[i] for i in tested])
    return qvals


def _set_angles(direction: CharacteristicDirection, gene_sets) -> tuple[np.ndarray, np.ndarray]:
    """First principal angle of each set, and how many of its members are
    in the direction's universe (the angle of a set with none is pi/2).

    Squared coefficients are summed in ascending gene-index order, so the
    result does not depend on the iteration order of the member sets
    (which follows the per-process string-hash seed).
    """
    index = {g: i for i, g in enumerate(direction.gene_ids)}
    members = [sorted(index[g] for g in s.members if g in index) for s in gene_sets]
    counts = np.array([len(m) for m in members], dtype=np.int64)
    flat = np.fromiter(
        itertools.chain.from_iterable(members), dtype=np.intp, count=int(counts.sum())
    )
    mass = np.bincount(
        np.repeat(np.arange(len(members)), counts),
        weights=direction.coefficients[flat] ** 2,
        minlength=len(members),
    )
    return np.arccos(np.sqrt(np.minimum(mass, 1.0))), counts


def principal_angle(
    direction: CharacteristicDirection, gene_set: GeneSet
) -> tuple[float, int]:
    """First principal angle between the direction and the coordinate
    subspace spanned by the set's genes.

    ``theta = arccos(sqrt(sum of squared coefficients over the set))``.
    Members absent from the direction's gene universe are dropped.

    Returns:
        (theta, n_dropped) with theta in [0, pi/2].

    Raises:
        ValueError: no set member occurs in the direction's universe.
    """
    theta, present = _set_angles(direction, [gene_set])
    if not present[0]:
        raise ValueError(
            f"gene set {gene_set.name!r} has no member in the gene universe"
        )
    return float(theta[0]), len(gene_set.members) - int(present[0])


def angle_null_pvalue(theta, n: int):
    """P-value of a principal angle under the isotropic null, elementwise
    over an array of angles.

    The angle between isotropic directions in n dimensions has density
    proportional to ``sin(phi)^(n-2)``; its mass between ``theta`` and
    pi/2 is the regularized incomplete beta ``I_{cos^2 theta}(1/2, (n-1)/2)``,
    evaluated with ``sin^2 theta`` as its complement. The value at pi/2 is
    exactly 0.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all((theta >= 0) & (theta <= math.pi / 2 + 1e-12)):
        raise ValueError("theta must lie in [0, pi/2]")
    theta = np.minimum(theta, math.pi / 2)
    p = _betainc(0.5, (n - 1) / 2.0, np.cos(theta) ** 2, np.sin(theta) ** 2)
    return np.where(theta == math.pi / 2, 0.0, p)[()]


def angle_enrich(
    direction: CharacteristicDirection, library: GeneSetLibrary
) -> list[AngleEnrichmentResult]:
    """Principal-angle p-value for every library set, BH-corrected across
    the library and sorted by p ascending.

    Sets with no member in the direction's universe get theta = pi/2,
    p = q = 1 and a diagnostic flag, and are left out of the correction.
    """
    if len(library) == 0:
        raise ValueError("gene set library is empty")
    thetas, present = _set_angles(direction, library)
    defined = present > 0
    pvals = np.where(defined, angle_null_pvalue(thetas, len(direction.gene_ids)), 1.0)
    diagnostics = ["" if d else "no overlap with gene universe" for d in defined]

    qvals = _bh_skipping_diagnostics(pvals, diagnostics)
    results = [
        AngleEnrichmentResult(s.name, th, p, q, d)
        for s, th, p, q, d in zip(
            library, thetas.tolist(), pvals.tolist(), qvals.tolist(), diagnostics
        )
    ]
    return sorted(results, key=lambda r: (r.p, r.set_name))


@dataclass(frozen=True)
class OverlapCurve:
    """Per-n overlap of two rankings with a target set.

    ``ratios[i] = counts_a[i] / counts_b[i]``; 0/0 points are NaN and
    positive/0 points are +inf, so callers can tell the two undefined
    cases apart.
    """

    ns: np.ndarray
    counts_a: np.ndarray
    counts_b: np.ndarray
    ratios: np.ndarray


@dataclass(frozen=True)
class OverlapCurveSummary:
    """Mean overlap ratio across experiments with its standard error.

    Undefined (zero-denominator) points are excluded from the means;
    ``n_undefined`` counts them per n.
    """

    ns: np.ndarray
    mean_ratio: np.ndarray
    stderr: np.ndarray
    n_defined: np.ndarray
    n_undefined: np.ndarray


def overlap_curve(
    ranking_a,
    ranking_b,
    target: GeneSet,
    n_max: int,
) -> OverlapCurve:
    """Count target genes among the top n of each ranking for n = 1..n_max."""
    ranking_a = list(ranking_a)
    ranking_b = list(ranking_b)
    if set(ranking_a) != set(ranking_b):
        raise ValueError("rankings cover different gene universes")
    if len(set(ranking_a)) != len(ranking_a):
        raise ValueError("ranking contains duplicate gene ids")
    if not 1 <= n_max <= len(ranking_a):
        raise ValueError("n_max must lie in [1, universe size]")

    in_target_a = np.fromiter((g in target.members for g in ranking_a), dtype=bool)
    in_target_b = np.fromiter((g in target.members for g in ranking_b), dtype=bool)
    counts_a = np.cumsum(in_target_a)[:n_max].astype(np.int64)
    counts_b = np.cumsum(in_target_b)[:n_max].astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = counts_a / counts_b
    return OverlapCurve(np.arange(1, n_max + 1), counts_a, counts_b, ratios)


def aggregate_overlap_curves(curves) -> OverlapCurveSummary:
    """Aggregate overlap curves from repeated experiments per n."""
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to aggregate")
    ns = curves[0].ns
    for c in curves[1:]:
        if not np.array_equal(c.ns, ns):
            raise ValueError("curves disagree on the n grid")

    ratios = np.vstack([c.ratios for c in curves])
    defined = np.isfinite(ratios)
    n_defined = defined.sum(axis=0)
    mean = np.full(len(ns), np.nan)
    stderr = np.full(len(ns), np.nan)
    for i in range(len(ns)):
        vals = ratios[defined[:, i], i]
        if vals.size:
            mean[i] = vals.mean()
        if vals.size >= 2:
            stderr[i] = vals.std(ddof=1) / math.sqrt(vals.size)
    return OverlapCurveSummary(
        ns=ns,
        mean_ratio=mean,
        stderr=stderr,
        n_defined=n_defined,
        n_undefined=len(curves) - n_defined,
    )


def dedupe_tss_associations(pairs) -> list[tuple[str, float]]:
    """Sort gene-to-TSS-distance pairs ascending and keep, per gene, only
    the most proximal association."""
    best: dict[str, float] = {}
    for gene, distance in pairs:
        distance = float(distance)
        if distance < 0 or not math.isfinite(distance):
            raise ValueError(f"invalid distance {distance!r} for gene {gene!r}")
        if gene not in best or distance < best[gene]:
            best[gene] = distance
    return sorted(best.items(), key=lambda item: (item[1], item[0]))


def sliding_window_profile(
    ordered_assoc,
    significant,
    window: int,
    universe: int,
) -> list[tuple[float, float]]:
    """Enrichment profile along a distance-ordered gene list.

    For every stride-1 window of ``window`` genes, pairs the window's mean
    distance with the hypergeometric upper-tail p-value of its overlap
    with the significant set. The input must be sorted by distance
    ascending with each gene appearing once.
    """
    ordered_assoc = list(ordered_assoc)
    genes = [g for g, _ in ordered_assoc]
    distances = np.array([d for _, d in ordered_assoc], dtype=np.float64)
    if len(set(genes)) != len(genes):
        raise ValueError("ordered_assoc contains duplicate genes; dedupe first")
    if np.any(np.diff(distances) < 0):
        raise ValueError("ordered_assoc must be sorted by distance ascending")
    if not 1 <= window <= len(genes):
        raise ValueError("window must lie in [1, list length]")
    if universe < len(genes):
        raise ValueError("universe smaller than the association list")

    significant = set(significant)
    n_sig = len(significant)
    hits = np.fromiter((g in significant for g in genes), dtype=np.int64)
    hit_prefix = np.concatenate([[0], np.cumsum(hits)])
    dist_prefix = np.concatenate([[0.0], np.cumsum(distances)])

    overlaps = hit_prefix[window:] - hit_prefix[:-window]
    mean_distances = (dist_prefix[window:] - dist_prefix[:-window]) / window
    # Only the overlap varies between windows, over a few distinct values.
    distinct, which = np.unique(overlaps, return_inverse=True)
    tails = np.array([hypergeom_tail(int(k), n_sig, window, universe) for k in distinct])
    return list(zip(mean_distances.tolist(), tails[which].tolist()))
