"""Enrichment statistics: hypergeometric over-representation, the
principal-angle p-value against an isotropic null, top-n overlap counts
and their ratio curves, and the sliding-window TSS-distance profile.

Every hypergeometric p-value, per set or per window, is the exponential of
one log-space tail kernel over arrays of counts; a set's principal angle is
``arccos(sqrt(sum of its members' squared coefficients))``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .data import GeneSetLibrary
from .special import _betainc, _log_hypergeom_tail
from .welch import bh_fdr

__all__ = [
    "EnrichmentResult",
    "AngleEnrichmentResult",
    "OverlapCurveSummary",
    "hypergeom_enrich",
    "angle_null_pvalue",
    "angle_enrich",
    "overlap_counts",
    "aggregate_overlap_curves",
    "dedupe_tss_associations",
    "sliding_window_profile",
]

# Members a set statistic gathers at a time (``_member_spans``).
_MEMBER_BLOCK = 1 << 15


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


def _member_spans(index: dict[str, int], library: GeneSetLibrary):
    """Walk ``library`` in spans of whole sets holding at most
    ``_MEMBER_BLOCK`` members, a larger set being a span of its own. Yields
    per span ``(sets, starts, where)``: the slice of its set numbers, where
    each of its sets starts in the span, and each member's gene position in
    ``index`` (gene id -> position), ``len(index)`` for a member outside it.
    Each distinct id is looked up once. Every set statistic rejects an
    empty library here."""
    if len(library) == 0:
        raise ValueError("gene set library is empty")
    position = np.fromiter(map(index.get, library.ids, repeat(len(index))), np.intp,
                           len(library.ids))
    offsets, first = library.offsets, 0
    while first < len(library):
        end = int(np.searchsorted(offsets, offsets[first] + _MEMBER_BLOCK, "right")) - 1
        end = max(end, first + 1)
        begin, stop = offsets[first], offsets[end]
        yield slice(first, end), offsets[first:end] - begin, position[library.code[begin:stop]]
        first = end


def _tabulate(result_type, library: GeneSetLibrary, present: np.ndarray, **columns):
    """``result_type`` from the per-set ``columns`` plus ``set_name``, the BH
    ``q`` over the sets with a member present (the others get q = 1 and a
    diagnostic), with rows sorted by p and then set name."""
    tested = present > 0
    q = np.ones(len(tested))
    q[tested] = bh_fdr(columns["p"][tested])
    diagnostic = np.full(len(tested), "", dtype=object)
    diagnostic[~tested] = "no overlap with gene universe"
    names = np.array(library.names, dtype=str)
    columns.update(set_name=names, q=q, diagnostic=diagnostic)
    order = np.lexsort((names, columns["p"]))
    return result_type(**{k: v[order] for k, v in columns.items()})


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
    marked = np.zeros(n + 1, dtype=bool)  # slot n: outside the universe
    found = np.fromiter(map(index.get, significant, repeat(-1)), np.int64)
    marked[found[found >= 0]] = True
    rank = np.zeros(n + 1)
    if ranking is not None:
        found = np.fromiter(map(index.get, ranking, repeat(-1)), np.int64)
        rank[found[found >= 0]] = np.flatnonzero(found >= 0) + 1
    size, overlap, ranked = (np.zeros(n_sets, np.int64) for _ in range(3))
    rank_sum = np.zeros(n_sets)  # sums of integers below 2**53: exact in any order
    for sets, starts, where in _member_spans(index, library):
        size[sets] = np.add.reduceat(where < n, starts, dtype=np.int64)
        overlap[sets] = np.add.reduceat(marked[where], starts, dtype=np.int64)
        member_rank = rank[where]
        rank_sum[sets] = np.add.reduceat(member_rank, starts)
        ranked[sets] = np.add.reduceat(member_rank > 0, starts, dtype=np.int64)

    # The tail depends only on (overlap, size): one kernel element per distinct pair.
    pairs, inverse = np.unique(overlap * (n + 1) + size, return_inverse=True)
    k, m = np.divmod(pairs, n + 1)
    p = np.exp(_log_hypergeom_tail(k, np.count_nonzero(marked), m, n))[inverse]
    with np.errstate(invalid="ignore"):
        mean_rank = rank_sum / ranked
    return _tabulate(EnrichmentResult, library, size, overlap=overlap, set_size=size,
                     p=p, mean_rank=mean_rank)


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


def angle_enrich(gene_ids, coefficients, library: GeneSetLibrary) -> AngleEnrichmentResult:
    """Principal-angle p-value for every library set against the unit
    direction with ``coefficients`` on ``gene_ids``, BH-corrected across the
    library and sorted by p ascending. A set's squared coefficients are
    summed in ascending gene-index order.

    Sets with no member in ``gene_ids`` get theta = pi/2, p = q = 1 and a
    diagnostic flag, and are left out of the correction.
    """
    gene_ids, coefficients = list(gene_ids), np.asarray(coefficients, dtype=np.float64)
    index = dict(zip(gene_ids, range(len(gene_ids))))
    if len(index) != len(gene_ids):
        raise ValueError("gene_ids contain duplicates")
    if coefficients.shape != (len(gene_ids),):
        raise ValueError("coefficients and gene_ids lengths differ")
    n = len(gene_ids)
    squares = np.zeros(n + 1)  # slot n: outside gene_ids
    squares[:n] = coefficients**2
    mass, present = np.zeros(len(library)), np.zeros(len(library), np.int64)
    for sets, starts, where in _member_spans(index, library):
        # Sorted (set, position) keys, so each set's squares are added in
        # ascending gene order; members outside add 0.0 after the rest.
        key = np.repeat(np.arange(len(starts), dtype=np.int64) << 32,
                        np.diff(starts, append=len(where)))
        key |= where
        key.sort()
        mass[sets] = np.bincount(key >> 32, squares[key & 0xFFFFFFFF], len(starts))
        present[sets] = np.add.reduceat(where < n, starts, dtype=np.int64)
    thetas = np.arccos(np.sqrt(np.minimum(mass, 1.0)))
    pvals = np.where(present > 0, angle_null_pvalue(thetas, len(gene_ids)), 1.0)
    return _tabulate(AngleEnrichmentResult, library, present, theta=thetas, p=pvals)


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


def overlap_counts(ranking_a, ranking_b, library: GeneSetLibrary, n_max: int):
    """``(counts_a, counts_b)``: sets x ``n_max`` arrays whose column n - 1
    counts each library set's members among that ranking's top n genes. The
    rankings must order the same genes, each once."""
    ranking_a, ranking_b = list(ranking_a), list(ranking_b)
    if set(ranking_a) != set(ranking_b):
        raise ValueError("rankings cover different gene universes")
    if len(set(ranking_a)) != len(ranking_a) or len(ranking_b) != len(ranking_a):
        raise ValueError("ranking contains duplicate gene ids")
    if not 1 <= n_max <= len(ranking_a):
        raise ValueError("n_max must lie in [1, universe size]")
    counts = []
    for ranking in (ranking_a, ranking_b):
        hits = np.zeros((len(library), n_max + 1), np.int64)  # column n_max: outside the top
        for sets, starts, where in _member_spans(dict(zip(ranking[:n_max], range(n_max))), library):
            owner = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(where)))
            hits[sets] = np.bincount(owner * (n_max + 1) + where,
                                     minlength=len(starts) * (n_max + 1)).reshape(-1, n_max + 1)
        counts.append(hits[:, :n_max].cumsum(axis=1))
    return tuple(counts)


def aggregate_overlap_curves(counts_a, counts_b) -> OverlapCurveSummary:
    """Aggregate per n the ratios ``counts_a / counts_b`` of experiments
    stacked as rows (as :func:`overlap_counts` returns them). A 0/0 ratio
    is NaN and a positive/0 one +inf; both count as undefined."""
    counts_a, counts_b = np.asarray(counts_a), np.asarray(counts_b)
    if counts_a.ndim != 2 or counts_a.shape != counts_b.shape or not counts_a.size:
        raise ValueError("need two non-empty count arrays of one experiments x n shape")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = counts_a / counts_b
        defined = np.isfinite(ratios)
        n_defined = defined.sum(axis=0)
        mean = np.where(defined, ratios, 0.0).sum(axis=0) / n_defined
        squares = (np.where(defined, ratios - mean, 0.0) ** 2).sum(axis=0)
        stderr = np.sqrt(squares / (n_defined - 1)) / np.sqrt(n_defined)
    return OverlapCurveSummary(
        ns=np.arange(1, ratios.shape[1] + 1),
        mean_ratio=mean,
        stderr=np.where(n_defined >= 2, stderr, np.nan),
        n_defined=n_defined,
        n_undefined=len(ratios) - n_defined,
    )


def dedupe_tss_associations(genes, distances) -> tuple[np.ndarray, np.ndarray]:
    """Gene-to-TSS-distance associations sorted by (distance, gene), each
    gene kept once at its most proximal distance; ``(genes, distances)``."""
    genes, distances = np.asarray(genes, dtype=str), np.asarray(distances, dtype=np.float64)
    order = np.lexsort((genes, distances))
    _, first = np.unique(genes[order], return_index=True)
    keep = order[np.sort(first)]
    return genes[keep], distances[keep]


def sliding_window_profile(
    genes,
    distances,
    significant,
    window: int,
    universe: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Enrichment profile along a distance-ordered gene list.

    For every stride-1 window of ``window`` genes, returns the window's mean
    distance and the log of the hypergeometric upper-tail p-value of its
    overlap with the significant set, finite however small the p-value.
    The genes must be sorted by distance ascending, each appearing once,
    and ``universe`` must count at least the genes listed and the distinct
    significant genes.
    """
    genes = list(genes)
    distances = np.asarray(distances, dtype=np.float64)
    if len(set(genes)) != len(genes):
        raise ValueError("genes contain duplicates; dedupe first")
    if np.any(np.diff(distances) < 0):
        raise ValueError("genes must be sorted by distance ascending")
    if not 1 <= window <= len(genes):
        raise ValueError("window must lie in [1, list length]")
    if universe < len(genes):
        raise ValueError("universe smaller than the association list")

    significant = set(significant)
    if len(significant) > universe:
        raise ValueError("more distinct significant genes than the universe")
    hits = np.fromiter(map(significant.__contains__, genes), dtype=np.int64, count=len(genes))
    hit_prefix = np.concatenate([[0], np.cumsum(hits)])
    dist_prefix = np.concatenate([[0.0], np.cumsum(distances)])

    overlaps = hit_prefix[window:] - hit_prefix[:-window]
    mean_distances = (dist_prefix[window:] - dist_prefix[:-window]) / window
    # Only the overlap varies between windows, over a few distinct values.
    distinct, which = np.unique(overlaps, return_inverse=True)
    log_p = _log_hypergeom_tail(distinct, len(significant), window, universe)[which]
    return mean_distances, log_p
