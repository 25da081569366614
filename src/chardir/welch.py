"""Welch t-test baseline with Benjamini-Hochberg FDR correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import _betainc

__all__ = [
    "WelchScreen",
    "welch_arrays",
    "student_t_two_sided",
    "bh_fdr",
    "ttest_screen",
]


@dataclass(frozen=True)
class WelchScreen:
    """Welch test outcomes with their BH q-values, one array entry per gene
    in input gene order.

    ``diagnostic`` is non-empty for degenerate rows (zero variance); those
    rows are never flagged significant unless the means actually differ.
    """

    gene_ids: np.ndarray
    t: np.ndarray
    df: np.ndarray
    p: np.ndarray
    q: np.ndarray
    significant: np.ndarray
    diagnostic: np.ndarray


def student_t_two_sided(t, df):
    """Two-sided Student-t tail probability, elementwise over arrays of
    ``t`` and ``df``: ``I_{df/(df+t^2)}(df/2, 1/2)``, with
    ``1 - df/(df+t^2) = t^2/(df+t^2)`` formed directly.

    Exactly 1 at t = 0 and 0 at t = +-inf; NaN df gives NaN.
    """
    df = np.asarray(df, dtype=np.float64)
    if np.any(df <= 0):
        raise ValueError("df must be positive")
    t2 = np.square(t, dtype=np.float64)
    with np.errstate(divide="ignore"):
        x, y = 1.0 / (1.0 + t2 / df), 1.0 / (1.0 + df / t2)
    return _betainc(df / 2.0, 0.5, x, y)


# Rows tested at a time: the Welch temporaries and the incomplete-beta
# iteration then stay a bounded size however many genes are screened.
_BLOCK_ROWS = 4096


def welch_arrays(x1, x2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Welch's unequal-variance t-test on every row of two genes x samples
    matrices.

    Uses unbiased sample variances; the statistic is
    ``(mean(x1) - mean(x2)) / sqrt(v1/n1 + v2/n2)`` with
    Welch-Satterthwaite degrees of freedom, and the p-value is the
    two-sided Student-t tail. Rows where both samples have zero variance
    but different means get ``(+-inf, n1 + n2 - 2, 0.0)`` by convention.
    Rows are tested 4,096 at a time; each row's result does not depend on
    the block it falls in.

    Returns:
        (t, df, p, undefined). ``undefined`` marks the rows where both
        variances and the mean difference are zero; those rows read
        t = 0, df = NaN and p = 1.

    Raises:
        ValueError: the matrices disagree on row count, a sample has fewer
            than 2 values, or the data are non-finite.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[0] != x2.shape[0]:
        raise ValueError("samples must be 2-D with the same number of rows")
    if x1.shape[1] < 2 or x2.shape[1] < 2:
        raise ValueError("each sample needs at least 2 values")
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("samples contain non-finite values")

    # Row-contiguous blocks, so each row is reduced in the same order as a 1-D sample.
    blocks = [
        _welch_rows(np.ascontiguousarray(x1[i : i + _BLOCK_ROWS]),
                    np.ascontiguousarray(x2[i : i + _BLOCK_ROWS]))
        for i in range(0, max(len(x1), 1), _BLOCK_ROWS)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _welch_rows(x1: np.ndarray, x2: np.ndarray):
    """:func:`welch_arrays` on one block of validated, row-contiguous rows."""
    n1, n2 = x1.shape[1], x2.shape[1]
    diff = x1.mean(axis=1) - x2.mean(axis=1)
    v1 = x1.var(axis=1, ddof=1)
    v2 = x2.var(axis=1, ddof=1)
    se2 = v1 / n1 + v2 / n2
    degenerate = se2 == 0.0
    undefined = degenerate & (diff == 0.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se2)
        df = se2**2 / (v1**2 / (n1**2 * (n1 - 1)) + v2**2 / (n2**2 * (n2 - 1)))
    df[degenerate] = n1 + n2 - 2
    t[undefined] = 0.0
    df[undefined] = np.nan
    p = student_t_two_sided(t, df)
    p[undefined] = 1.0
    return t, df, p, undefined


def bh_fdr(pvals) -> np.ndarray:
    """Benjamini-Hochberg step-up q-values, returned in input order.

    ``q_k = min_{j >= k} p_(j) * m / j``, capped at 1.
    """
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("pvals must be 1-D")
    if p.size == 0:
        return p.copy()
    if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise ValueError("p-values must lie in [0, 1]")

    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    q_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    q = np.empty_like(q_sorted)
    q[order] = q_sorted
    return q


def ttest_screen(
    gene_ids,
    x1: np.ndarray,
    x2: np.ndarray,
    fdr_threshold: float = 0.05,
) -> WelchScreen:
    """Welch-test every gene row and correct across genes with BH.

    A gene is significant iff its q-value is at or below ``fdr_threshold``.
    Rows where the statistic is undefined (zero variance, equal means) are
    reported with p = q = 1, never significant, and a diagnostic instead
    of aborting the screen; they are excluded from the BH correction so a
    degenerate probe cannot inflate the other genes' q-values.
    """
    if not 0 < fdr_threshold <= 1:
        raise ValueError("fdr_threshold must lie in (0, 1]")
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    gene_ids = np.array(list(gene_ids), dtype=str)
    if x1.shape[0] != len(gene_ids) or x2.shape[0] != len(gene_ids):
        raise ValueError("gene_ids and matrices disagree on gene count")

    t, df, p, undefined = welch_arrays(x1, x2)
    q = np.ones(len(gene_ids))
    q[~undefined] = bh_fdr(p[~undefined])
    diagnostic = np.full(len(gene_ids), "", dtype=object)
    diagnostic[np.isinf(t)] = "zero variance, unequal means"
    diagnostic[undefined] = "zero variance, equal means"
    significant = (q <= fdr_threshold) & ~undefined
    return WelchScreen(gene_ids, t, df, p, q, significant, diagnostic)
