"""Enrichment statistics: hypergeometric over-representation, the
principal-angle p-value against an isotropic null, top-n overlap-ratio
curves, and the sliding-window TSS-distance profile."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

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
    """Hypergeometric over-representation of every library set: one array
    per column, rows sorted by p and then set name. ``set_size`` counts the
    set's members in the universe, and ``mean_rank`` is their mean 1-based
    rank in the supplied ranking (NaN without a ranking or a ranked member);
    smaller values mean the set leans toward the top of the ranking."""

    set_name: np.ndarray
    overlap: np.ndarray
    set_size: np.ndarray
    p: np.ndarray
    q: np.ndarray
    mean_rank: np.ndarray
    diagnostic: np.ndarray


@dataclass(frozen=True)
class AngleEnrichmentResult:
    """Principal-angle enrichment of every library set: one array per
    column, rows sorted by p and then set name. ``theta`` is the angle
    between the characteristic direction and the coordinate subspace
    spanned by the set's genes; 0 means the direction lies inside it."""

    set_name: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    q: np.ndarray
    diagnostic: np.ndarray


def _member_index(index: dict[str, int], gene_sets) -> tuple[np.ndarray, np.ndarray]:
    """``(which, where)``: the set number and gene position of every member
    of ``gene_sets`` found in ``index`` (gene id -> position), set by set
    with positions ascending inside a set, so the order does not follow the
    string-hash seed. Members outside the index are dropped."""
    sizes = np.fromiter(map(len, (s.members for s in gene_sets)), np.int64, len(gene_sets))
    members = chain.from_iterable(s.members for s in gene_sets)
    where = np.fromiter(map(index.get, members, repeat(-1)), np.int64, int(sizes.sum()))
    key = np.repeat(np.arange(len(sizes)) * len(index), sizes)
    key += where
    key = key[where >= 0]
    key.sort()
    return np.divmod(key, len(index))


def _tabulate(result_type, gene_sets, present: np.ndarray, **columns):
    """``result_type`` from the per-set ``columns`` plus ``set_name``, the BH
    ``q`` over the sets with a member present (the others get q = 1 and a
    diagnostic), with rows sorted by p and then set name."""
    tested = present > 0
    q = np.ones(len(tested))
    q[tested] = bh_fdr(columns["p"][tested])
    diagnostic = np.full(len(tested), "", dtype=object)
    diagnostic[~tested] = "no overlap with gene universe"
    names = np.array([s.name for s in gene_sets], dtype=str)
    columns.update(set_name=names, q=q, diagnostic=diagnostic)
    order = np.lexsort((names, columns["p"]))
    return result_type(**{k: v[order] for k, v in columns.items()})


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
) -> EnrichmentResult:
    """Score every library set for over-representation among the
    significant genes, BH-correct across the library, and sort by p.

    Genes outside the universe are ignored everywhere; a gene's rank is
    its 1-based position in ``ranking``. Sets with no member in the
    universe are reported with p = q = 1 and a diagnostic, and are left
    out of the BH correction.
    """
    universe = list(universe)
    index = dict(zip(universe, range(len(universe))))
    if len(index) != len(universe):
        raise ValueError("universe contains duplicate gene ids")
    if not index:
        raise ValueError("universe is empty")
    n, n_sets = len(index), len(library)
    which, where = _member_index(index, library)

    marked = np.zeros(n, dtype=bool)
    found = np.fromiter(map(index.get, significant, repeat(-1)), np.int64)
    marked[found[found >= 0]] = True
    size = np.bincount(which, minlength=n_sets)
    overlap = np.bincount(which[marked[where]], minlength=n_sets)
    # The tail depends only on (overlap, size): one call per distinct pair.
    pairs, inverse = np.unique(overlap * (n + 1) + size, return_inverse=True)
    n_marked = int(marked.sum())
    tails = [hypergeom_tail(int(k), n_marked, int(m), n) for k, m in zip(*np.divmod(pairs, n + 1))]

    rank = np.zeros(n)
    if ranking is not None:
        found = np.fromiter(map(index.get, ranking, repeat(-1)), np.int64)
        rank[found[found >= 0]] = np.flatnonzero(found >= 0) + 1
    member_rank = rank[where]
    with np.errstate(invalid="ignore"):
        mean_rank = np.bincount(which, member_rank, n_sets) / np.bincount(
            which[member_rank > 0], minlength=n_sets
        )
    return _tabulate(EnrichmentResult, library, size, overlap=overlap, set_size=size,
                     p=np.array(tails)[inverse], mean_rank=mean_rank)


def _set_angles(direction: CharacteristicDirection, gene_sets) -> tuple[np.ndarray, np.ndarray]:
    """First principal angle of each set, and how many of its members are
    in the direction's universe (the angle of a set with none is pi/2).
    Squared coefficients are summed in ascending gene-index order."""
    index = dict(zip(direction.gene_ids, range(len(direction.gene_ids))))
    which, where = _member_index(index, gene_sets)
    mass = np.bincount(which, direction.coefficients[where] ** 2, len(gene_sets))
    return np.arccos(np.sqrt(np.minimum(mass, 1.0))), np.bincount(which, minlength=len(gene_sets))


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
) -> AngleEnrichmentResult:
    """Principal-angle p-value for every library set, BH-corrected across
    the library and sorted by p ascending.

    Sets with no member in the direction's universe get theta = pi/2,
    p = q = 1 and a diagnostic flag, and are left out of the correction.
    """
    if len(library) == 0:
        raise ValueError("gene set library is empty")
    thetas, present = _set_angles(direction, library)
    pvals = np.where(present > 0, angle_null_pvalue(thetas, len(direction.gene_ids)), 1.0)
    return _tabulate(AngleEnrichmentResult, library, present, theta=thetas, p=pvals)


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
