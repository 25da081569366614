"""Log-space special functions behind every p-value: Loader's binomial
density ("Fast and accurate computation of binomial probabilities", 2000)
anchors the regularized incomplete beta and the hypergeometric upper tail."""

from __future__ import annotations

import math

import numpy as np

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
    whose terms are all small."""
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


def _deviance(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Loader's ``bd0(x, m) = x log(x / m) + m - x`` for x >= 0 and m > 0 of
    one shape. Where ``v = (x - m) / (x + m)`` is below 1/3 in size, and only
    there, it is summed as ``(x - m) v + 2 x (v^3 / 3 + v^5 / 5 + ...)``
    (to v^37 / 37), so no two large terms cancel."""
    d = x - m
    v = d / (x + m)
    near = np.abs(v) < 1 / 3
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, x * np.log(x / m), 0.0)
    out -= d
    x, d, v = x[near], d[near], v[near]
    out[near] = d * v + 2 * x * v**3 * np.polyval(1.0 / np.arange(37, 1, -2), v * v)
    return out


def _log_dbinom(x, size, p, q) -> np.ndarray:
    """Log binomial density ``log(C(size, x) p^x q^(size - x))``, C by Gamma
    functions, elementwise over real ``0 <= x <= size``, with ``q = 1 - p``
    passed separately: Stirling errors of ``size``, ``x`` and ``size - x``,
    less half the log of ``2 pi x (size - x) / size`` and the deviances
    ``bd0(x, size p)`` and ``bd0(size - x, size q)``. At x = 0 or x = size
    only the deviances remain; they sum to ``size log q`` or ``size log p``."""
    x, size, p, q = np.broadcast_arrays(*(np.asarray(v, np.float64) for v in (x, size, p, q)))
    y = size - x
    inner = (x > 0) & (y > 0)
    xs, ys = np.where(inner, x, 1.0), np.where(inner, y, 1.0)
    err = _stirling_error(np.stack([size, xs, ys]))
    scale = 0.5 * np.log(2 * math.pi * xs * ys / size)
    part = np.where(inner, err[0] - err[1] - err[2] - scale, 0.0)
    return part - (_deviance(x, size * p) + _deviance(y, size * q))


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
    ``y = 1 - x`` passed separately so that neither tail cancels. Where
    ``x > (a + 1) / (a + b + 2)`` it is ``1 - I_y(b, a)``. The fraction's
    prefactor ``x^a y^b / (a B(a, b))`` is ``b / (a + b)`` times the binomial
    density of ``a`` in ``a + b`` trials at ``x``. Exactly 0 at x = 0 and 1
    at y = 0; NaN where a parameter is not a positive finite number or x or
    y is negative or NaN."""
    a, b, x, y = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, x, y)))
    out = np.where(x == 0.0, 0.0, np.where(y == 0.0, 1.0, np.nan))
    inner = (x > 0.0) & (y > 0.0) & (a > 0.0) & (b > 0.0) & (a < np.inf) & (b < np.inf)
    a, b, x, y = a[inner], b[inner], x[inner], y[inner]
    flip = x > (a + 1.0) / (a + b + 2.0)
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    x, y = np.where(flip, y, x), np.where(flip, x, y)
    prefactor = b / (a + b) * np.exp(_log_dbinom(a, a + b, x, y))
    v = prefactor * _beta_fraction(a, b, x, y, b * x - a * y)
    out[inner] = np.where(flip, 1.0 - v, v)
    return out[()]


def _log_hypergeom_tail(k, marked, drawn, universe) -> np.ndarray:
    """``log P(K >= k)`` elementwise over broadcast integer arrays, K the
    overlap of ``drawn`` genes drawn from ``universe`` with ``marked``. The
    sum is anchored at its largest term, ``max(k, mode)``, whose log pmf is
    a ratio of three binomial densities at the common ``p = drawn /
    universe``, and extended by exact term ratios away from it, one vector
    step per series index. Each element stops by its own rule, so its value
    does not depend on the rest of the batch. Within 1e-12 relative of the
    exact tail wherever it is a normal double, and within 1e-12 absolute in
    log space beyond."""
    k, marked, drawn, universe = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.int64) for a in (k, marked, drawn, universe)))
    out = np.zeros(k.shape)
    tail = np.flatnonzero(k > np.maximum(0, marked + drawn - universe))
    k, m, n, big = (a.ravel()[tail] for a in (k, marked, drawn, universe))
    free = big - m - n  # pmf(j + 1) / pmf(j) = (m - j)(n - j) / ((j + 1)(free + j + 1))
    hi = np.minimum(m, n)
    anchor = np.minimum(np.maximum(k, (m + 1) * (n + 1) // (big + 2)), hi)
    # Terms at j >= k and at j < k, relative to pmf(anchor). Below a mode
    # above k the series runs on to give P(K < k), so p near 1 is 1 - P(K < k).
    sums = np.zeros((2, len(tail)))
    sums[0] = 1.0
    for step, stop in ((1, hi), (-1, np.where(anchor > k, np.maximum(0, m + n - big), k))):
        j, term = anchor.copy(), np.ones(len(tail))
        live = np.flatnonzero(j != stop)
        while live.size:
            i = j[live] + (step - 1) // 2  # the ratio pmf(i + 1) / pmf(i) of this step
            ratio = (m[live] - i) * (n[live] - i) / ((i + 1) * (free[live] + i + 1))
            term[live] *= ratio if step > 0 else 1.0 / ratio
            j[live] += step
            side = (j[live] < k[live]).astype(np.intp)
            sums[side, live] += term[live]
            live = live[(j[live] != stop[live]) & (term[live] > 1e-20 * sums[side, live])]
    # pmf(x) = dbinom(x; m, p) dbinom(n - x; big - m, p) / dbinom(n; big, p) for any p.
    p, q = n / big, (big - n) / big
    log_anchor = (_log_dbinom(anchor, m, p, q) + _log_dbinom(n - anchor, big - m, p, q)
                  - _log_dbinom(n, big, p, q))
    lower = np.minimum(np.exp(log_anchor) * sums[1], 0.5)
    out.flat[tail] = np.where((lower > 0) & (lower < 0.5), np.log1p(-lower),
                              np.minimum(0.0, log_anchor + np.log(sums[0])))
    return out
