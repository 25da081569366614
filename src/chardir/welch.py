"""Welch t-test baseline with Benjamini-Hochberg FDR correction, and the
regularized incomplete beta behind its p-values and the principal-angle null."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k - 1)), the Stirling-series coefficients of log Gamma,
# highest order first; seven terms are exact to double precision at z >= 10.
_STIRLING_SERIES = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_TINY = 1e-300  # Lentz's guard against a zero denominator
_CF_TOL = 1e-15
_CF_MAX_STEPS = 100_000


def _stirling_error(z: np.ndarray) -> np.ndarray:
    """``log Gamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi))`` for z > 0.

    The asymptotic series is used at z >= 10; smaller z are shifted up by 10
    with the recurrence ``err(z) = err(z + 1) + (z + 1/2) log1p(1/z) - 1``,
    whose terms are all small.
    """
    small = z < 10.0
    w = np.where(small, z + 10.0, z)
    s = 1.0 / (w * w)
    err = np.zeros_like(w)
    for coef in _STIRLING_SERIES:
        err = err * s + coef
    err /= w
    if small.any():
        zs = z[small]
        shift = np.zeros_like(zs)
        for k in range(10):
            shift += (zs + (k + 0.5)) * np.log1p(1.0 / (zs + k)) - 1.0
        err[small] += shift
    return err


def _log_ratio(w: np.ndarray, r: np.ndarray, other: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``log(w (r + other) / r)``, given ``d = w (r + other) - r``: through
    ``log1p(d / r)`` when the ratio is near 1, where ``r`` times the
    logarithm would magnify any rounding in the ratio."""
    with np.errstate(divide="ignore"):
        return np.where(
            np.abs(d) < 0.5 * r, np.log1p(d / r), np.log(w) + np.log1p(other / r)
        )


def _power_terms(a, b, x, y, d) -> np.ndarray:
    """``x^a y^b / (a B(a, b))`` in Stirling-difference form, given
    ``d = b x - a y``.

    With Stirling's formula for the three Gamma functions of ``B(a, b)``,
    the large terms combine into ``a log(x (a + b) / a) + b log(y (a + b) / b)``,
    whose ratios are ``1 + d/a`` and ``1 - d/b``; ``log Gamma`` itself, which
    grows like ``a log a``, is never subtracted.
    """
    err = _stirling_error(np.stack([a + b, a, b]))
    expo = a * _log_ratio(x, a, b, d) + b * _log_ratio(y, b, a, -d) + err[0] - err[1] - err[2]
    return np.sqrt(b / (a * (a + b))) * np.exp(expo - _LOG_SQRT_2PI)


def _beta_fraction(a, b, x, y, d) -> np.ndarray:
    """The continued fraction of ``I_x(a, b) / (x^a y^b / (a B(a, b)))`` in
    its even contraction, by the modified Lentz method; converges fast for
    ``x < (a + 1) / (a + b + 2)``.

    Written with ``1 - d = 1 + a y - b x`` and ``1 + y``, no partial
    denominator subtracts nearly equal terms. Only the entries that have
    not converged are iterated.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    one_minus_d = 1.0 - d
    f = one_minus_d / (a + 1.0)
    c, dd = f.copy(), np.zeros_like(x)  # Lentz's C and D
    for m in range(1, _CF_MAX_STEPS):
        k = a + 2 * m
        num = ((a + (m - 1)) * (a + b + (m - 1)) * (b - m) * (m * x * x)
               / ((k - 2) * (k - 1) ** 2 * k))
        den = ((2 * m) * (a + m) * (1.0 + y) + (a - 1.0) * one_minus_d) / ((k - 1) * (k + 1))
        dd = den + num * dd
        dd = 1.0 / np.where(np.abs(dd) < _TINY, _TINY, dd)
        c = den + num / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        step = c * dd
        f *= step
        done = np.abs(step - 1.0) <= _CF_TOL
        if done.any():
            out[idx[done]] = 1.0 / f[done]
            keep = ~done
            idx, a, b, x, y, one_minus_d, f, c, dd = (
                v[keep] for v in (idx, a, b, x, y, one_minus_d, f, c, dd)
            )
        if not idx.size:
            return out
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc(a, b, x, y):
    """Regularized incomplete beta ``I_x(a, b)``, elementwise, with
    ``y = 1 - x`` passed separately so that neither tail cancels.

    Where ``x > (a + 1) / (a + b + 2)`` it is ``1 - I_y(b, a)``. Exactly 0 at
    x = 0 and 1 at y = 0; NaN where a parameter is not a positive finite
    number or x or y is negative or NaN.
    """
    a, b, x, y = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, x, y)))
    out = np.where(x == 0.0, 0.0, np.where(y == 0.0, 1.0, np.nan))
    inner = (x > 0.0) & (y > 0.0) & (a > 0.0) & (b > 0.0) & (a < np.inf) & (b < np.inf)
    a, b, x, y = a[inner], b[inner], x[inner], y[inner]
    flip = x > (a + 1.0) / (a + b + 2.0)
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    x, y = np.where(flip, y, x), np.where(flip, x, y)
    d = b * x - a * y
    v = _power_terms(a, b, x, y, d) * _beta_fraction(a, b, x, y, d)
    out[inner] = np.where(flip, 1.0 - v, v)
    return out[()]


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
