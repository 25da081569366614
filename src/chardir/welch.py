"""Welch t-test baseline with Benjamini-Hochberg FDR correction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WelchResult",
    "UndefinedStatisticError",
    "welch_arrays",
    "welch_test",
    "student_t_two_sided",
    "bh_fdr",
    "ttest_screen",
]


class UndefinedStatisticError(ValueError):
    """Test statistic is undefined (zero variance, equal means)."""


@dataclass(frozen=True)
class WelchResult:
    """Per-gene Welch test outcome with its BH q-value.

    ``diagnostic`` is non-empty for degenerate rows (zero variance); those
    rows are never flagged significant unless the means actually differ.
    """

    gene_id: str
    t: float
    df: float
    p: float
    q: float
    significant: bool
    diagnostic: str = ""


def student_t_two_sided(t, df):
    """Two-sided Student-t tail probability ``2 * stdtr(df, -|t|)``,
    elementwise over arrays of ``t`` and ``df``.

    At df = 1 exactly, ``stdtr`` is off by about 3e-9 at |t| = 1e-8,
    so that case takes the Cauchy closed form ``(2/pi) atan(1/|t|)``.
    """
    df = np.asarray(df, dtype=np.float64)
    if np.any(df <= 0):
        raise ValueError("df must be positive")
    from scipy import special  # imported here: it is slow to load
    t = np.abs(t)
    cauchy = np.arctan2(1.0, t) * (2.0 / math.pi)
    return np.where(df == 1.0, cauchy, 2.0 * special.stdtr(df, -t))[()]


def welch_arrays(x1, x2) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Welch's unequal-variance t-test on every row of two genes x samples
    matrices.

    Uses unbiased sample variances; the statistic is
    ``(mean(x1) - mean(x2)) / sqrt(v1/n1 + v2/n2)`` with
    Welch-Satterthwaite degrees of freedom, and the p-value is the
    two-sided Student-t tail. Rows where both samples have zero variance
    but different means get ``(+-inf, n1 + n2 - 2, 0.0)`` by convention.

    Returns:
        (t, df, p, undefined). ``undefined`` marks the rows where both
        variances and the mean difference are zero; those rows read
        t = 0, df = NaN and p = 1.

    Raises:
        ValueError: the matrices disagree on row count, a sample has fewer
            than 2 values, or the data are non-finite.
    """
    # Row-contiguous, so each row is reduced in the same order as a 1-D sample.
    x1 = np.ascontiguousarray(x1, dtype=np.float64)
    x2 = np.ascontiguousarray(x2, dtype=np.float64)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[0] != x2.shape[0]:
        raise ValueError("samples must be 2-D with the same number of rows")
    if x1.shape[1] < 2 or x2.shape[1] < 2:
        raise ValueError("each sample needs at least 2 values")
    if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
        raise ValueError("samples contain non-finite values")

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


def welch_test(x1, x2) -> tuple[float, float, float]:
    """Welch's t-test between two samples: ``(t, df, p)`` of the single row
    of :func:`welch_arrays`.

    Raises:
        UndefinedStatisticError: both variances and the mean difference
            are zero.
        ValueError: a sample has fewer than 2 values or non-finite data.
    """
    t, df, p, undefined = welch_arrays(np.reshape(x1, (1, -1)), np.reshape(x2, (1, -1)))
    if undefined[0]:
        raise UndefinedStatisticError("zero variance in both samples with equal means")
    return float(t[0]), float(df[0]), float(p[0])


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
) -> list[WelchResult]:
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
    gene_ids = list(gene_ids)
    if x1.shape[0] != len(gene_ids) or x2.shape[0] != len(gene_ids):
        raise ValueError("gene_ids and matrices disagree on gene count")

    t, df, p, undefined = welch_arrays(x1, x2)
    q = np.ones(len(gene_ids))
    q[~undefined] = bh_fdr(p[~undefined])

    results = []
    columns = (t.tolist(), df.tolist(), p.tolist(), q.tolist(), undefined.tolist())
    for gid, t_i, df_i, p_i, q_i, undefined_i in zip(gene_ids, *columns):
        if undefined_i:
            diag = "zero variance, equal means"
        elif math.isinf(t_i):
            diag = "zero variance, unequal means"
        else:
            diag = ""
        significant = q_i <= fdr_threshold and not undefined_i
        results.append(WelchResult(gid, t_i, df_i, p_i, q_i, significant, diag))
    return results
