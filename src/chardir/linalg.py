"""Numerical primitives: the shared sample-space factorisation, the
principal-component rule read off it, random rotations.

All functions are pure; randomness is always drawn from an explicitly
passed generator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "ZeroVarianceError",
    "random_rotation",
]

DEFAULT_EPSILON = 1e-3
DEFAULT_MAX_COMPONENTS = 20


class ZeroVarianceError(ValueError):
    """Raised when the data carry no variance to decompose."""


class _SampleFactors(NamedTuple):
    """``basis @ coords``: the thin SVD of row-centred data truncated at its
    numerical rank r, with orthonormal ``basis`` (genes x r),
    ``coords = diag(singular) @ Vt`` (r x samples) and ``scale``, the
    data's largest magnitude."""

    basis: np.ndarray
    singular: np.ndarray
    coords: np.ndarray
    scale: float


def _factor_samples(data: np.ndarray) -> _SampleFactors:
    """Factor the row-centred samples (genes x samples) once; see
    :class:`_SampleFactors`. ``data`` is centred in place and, when it is
    taller than one block of :data:`_FACTOR_ROWS` rows, overwritten by the
    left singular vectors, so callers pass a float64 array they own. The
    numerical rank counts singular values above LAPACK's tolerance,
    max(shape) * eps * largest."""
    scale = max(float(data.max()), -float(data.min()))
    data -= data.mean(axis=1)[:, None]
    u, s, vt = _thin_svd(data)
    tol = float(s.max(initial=0.0)) * max(data.shape) * np.finfo(np.float64).eps
    r = int(np.count_nonzero(s > tol))
    return _SampleFactors(u[:, :r], s[:r], s[:r, None] * vt[:r], scale)


# Row-block height of the factorisation: taller samples are QR-factored one
# block at a time, so no buffer the size of the samples is made beside them.
_FACTOR_ROWS = 4096


def _thin_svd(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(data, full_matrices=False)`` for m x n ``data``.
    Taller than one block, ``data`` is split into ceil(m / _FACTOR_ROWS)
    near-equal row blocks and factored as a tall-skinny QR (Demmel, Grigori,
    Hoemmen & Langou 2012): each block's Q overwrites the block, the stacked
    n x n R factors are QR-factored again, and the SVD of that final R
    turns the blocks into ``u``, which is ``data`` itself. A matrix of one
    block, or with blocks shorter than n, takes numpy's SVD unchanged."""
    m, n = data.shape
    parts = -(-m // _FACTOR_ROWS)
    if parts == 1 or m // parts < n:
        return np.linalg.svd(data, full_matrices=False)
    blocks = np.array_split(data, parts)
    tops = []
    for block in blocks:
        q, top = np.linalg.qr(block)
        block[...] = q
        tops.append(top)
    q, top = np.linalg.qr(np.vstack(tops))
    u_top, s, vt = np.linalg.svd(top)
    for block, q_block in zip(blocks, np.split(q, parts)):
        block[...] = block @ (q_block @ u_top)
    return data, s, vt


def _component_rule(
    factors: _SampleFactors, epsilon: float, max_components: int
) -> tuple[int, np.ndarray, float, bool]:
    """The principal components to keep, read off a factorisation: the
    leading ones until they capture a fraction 1 - epsilon of the total
    variance, up to ``max_components`` and never more than the numerical
    rank or n_samples - 1. Returns the count k, the k component variances,
    the retained variance fraction and whether ``max_components`` capped k.
    Singular values are squared after division by the power of two at the
    table's magnitude, so no square overflows or underflows.

    Raises:
        ZeroVarianceError: all samples are identical.
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    n_samples = factors.coords.shape[1]
    exponent = np.frexp(factors.scale)[1]
    variances = np.ldexp(factors.singular, -exponent) ** 2 / (n_samples - 1)
    total = float(variances.sum())
    if total <= (1e-12 * np.ldexp(factors.scale, -exponent)) ** 2:
        raise ZeroVarianceError("zero total variance: all samples identical")

    cumulative = np.cumsum(variances) / total
    available = min(n_samples - 1, len(variances))
    k_target = min(int(np.searchsorted(cumulative, 1.0 - epsilon) + 1), available)
    k = min(k_target, max_components)
    capped = k_target > max_components
    with np.errstate(over="ignore"):  # a variance past the float range reads inf
        return k, np.ldexp(variances[:k], 2 * exponent), float(cumulative[k - 1]), capped


def _principal_components(factors: _SampleFactors, count: int) -> np.ndarray:
    """Scores (k x samples) of the first ``count`` principal axes, or of all
    r if fewer, each row's sign fixed so that the largest-magnitude entry of
    its basis column is positive."""
    # One column at a time, so |basis| is never held whole (genes x k).
    flips = [-1.0 if c[np.abs(c).argmax()] < 0 else 1.0 for c in factors.basis[:, :count].T]
    return np.array(flips)[:, None] * factors.coords[: len(flips)]


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a Haar-distributed orthogonal matrix of the given dimension.

    QR decomposition of a standard-Gaussian array, with each factor's sign
    corrected so the triangular part has a positive diagonal; this makes
    the result exactly Haar on the orthogonal group.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))
