"""Numerical primitives: the shared sample-space factorisation, PCA
reduction, random rotations.

All functions are pure; randomness is always drawn from an explicitly
passed generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PcaModel",
    "ZeroVarianceError",
    "pca_reduce",
    "random_rotation",
]

DEFAULT_EPSILON = 1e-3
DEFAULT_MAX_COMPONENTS = 20


class ZeroVarianceError(ValueError):
    """Raised when the data carry no variance to decompose."""


@dataclass(frozen=True)
class PcaModel:
    """Centered principal-component model of a genes x samples array.

    Attributes:
        mean: Per-gene mean, length n_genes.
        basis: Orthonormal component columns, shape (n_genes, k).
        variances: Nonincreasing component variances, length k.
        retained_fraction: Fraction of total variance the k components
            capture. At least 1 - epsilon unless ``capped`` is set.
        capped: True when the component cap truncated the expansion before
            the variance target was met.
    """

    mean: np.ndarray
    basis: np.ndarray
    variances: np.ndarray
    retained_fraction: float
    capped: bool = False

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]


def _require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


class _SampleFactors(NamedTuple):
    """``data - mean[:, None] == basis @ coords``: the thin SVD of row-centred
    data truncated at its numerical rank r, with orthonormal ``basis``
    (genes x r), ``coords = diag(singular) @ Vt`` (r x samples) and
    ``scale``, the data's magnitude (at least 1)."""

    mean: np.ndarray
    basis: np.ndarray
    singular: np.ndarray
    coords: np.ndarray
    scale: float


def _factor_samples(data: np.ndarray) -> _SampleFactors:
    """Factor the row-centred ``data`` once; see :class:`_SampleFactors`.
    The numerical rank counts singular values above LAPACK's tolerance,
    max(shape) * eps * largest."""
    mean = data.mean(axis=1)
    u, s, vt = np.linalg.svd(data - mean[:, None], full_matrices=False)
    tol = float(s.max(initial=0.0)) * max(data.shape) * np.finfo(np.float64).eps
    r = int(np.count_nonzero(s > tol))
    scale = max(1.0, float(np.abs(data).max()))
    return _SampleFactors(mean, u[:, :r], s[:r], s[:r, None] * vt[:r], scale)


def _component_rule(
    factors: _SampleFactors, epsilon: float, max_components: int
) -> tuple[int, np.ndarray, float, bool]:
    """The :func:`pca_reduce` component choice read off a factorisation:
    the count k, the k component variances, the retained variance fraction
    and whether ``max_components`` capped k."""
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must lie in [0, 1)")
    if max_components < 1:
        raise ValueError("max_components must be >= 1")
    n_samples = factors.coords.shape[1]
    variances = factors.singular**2 / (n_samples - 1)
    total = float(variances.sum())
    if total <= (1e-12 * factors.scale) ** 2:
        raise ZeroVarianceError("zero total variance: all samples identical")

    cumulative = np.cumsum(variances) / total
    available = min(n_samples - 1, len(variances))
    k_target = min(int(np.searchsorted(cumulative, 1.0 - epsilon) + 1), available)
    k = min(k_target, max_components)
    return k, variances[:k], float(cumulative[k - 1]), k_target > max_components


def _principal_components(
    factors: _SampleFactors, epsilon: float, max_components: int
) -> tuple[PcaModel, np.ndarray]:
    """The :func:`pca_reduce` model and scores, read off a factorisation."""
    k, variances, retained, capped = _component_rule(factors, epsilon, max_components)
    basis = factors.basis[:, :k]
    flips = np.where(basis[np.abs(basis).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    model = PcaModel(factors.mean, basis * flips, variances.copy(), retained, capped)
    return model, flips[:, None] * factors.coords[:k]


def pca_reduce(
    data: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> tuple[PcaModel, np.ndarray]:
    """Reduce columns of ``data`` to the leading principal components.

    Components are computed by SVD of the column-centered array and kept
    until they capture a fraction 1 - epsilon of the total variance, up to
    ``max_components`` and never more than the numerical rank or
    n_samples - 1. Basis column signs are fixed so each column's
    largest-magnitude entry is positive.

    Args:
        data: Array of shape (n_genes, n_samples) with n_samples >= 2.
        epsilon: Allowed unexplained variance fraction, in [0, 1).
        max_components: Hard cap on the number of components kept.

    Returns:
        (model, scores) where scores has shape (k, n_samples) and the
        centered data reconstruct as ``basis @ scores`` up to the retained
        variance.

    Raises:
        ZeroVarianceError: all columns are identical.
    """
    data = _require_finite("data", data)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("data must be a nonempty 2-D array (genes x samples)")
    if data.shape[1] < 2:
        raise ValueError("need at least 2 samples")
    return _principal_components(_factor_samples(data), epsilon, max_components)


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
