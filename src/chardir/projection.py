"""Projections onto characteristic directions and density curves.

Produces the plot data behind the two-class visualizations: per-sample
coordinates on a hierarchy of mutually orthogonal characteristic
directions, and Gaussian kernel density estimates of the projected
classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import (
    CharacteristicDirection,
    NoDifferentialSignalError,
    _class_difference,
    _pooled,
    _signal_norm,
    _two_class_samples,
    _TwoClassSamples,
    _unit_direction,
)
from .linalg import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_COMPONENTS,
    ZeroVarianceError,
    _factor_samples,
)

__all__ = [
    "ProjectionHierarchy",
    "DensityCurve",
    "project_hierarchy",
    "density_estimate",
    "silverman_bandwidth",
    "FALLBACK_BANDWIDTH",
]

FALLBACK_BANDWIDTH = 1.0
GRID_POINTS = 256
# A bandwidth at or below this fraction of the coordinates' magnitude is
# rounding noise in coordinates that are constant in exact arithmetic.
ROUNDING_SPREAD = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class ProjectionHierarchy:
    """Samples projected onto successive orthogonal directions.

    ``coords[i, j]`` is sample j's coordinate on direction i, measured on
    the data deflated by directions 0..i-1. ``class_of_sample`` holds 1 or
    2 per column. ``truncated_reason`` is non-empty when the requested
    depth exhausted the differential signal early.
    """

    directions: tuple[CharacteristicDirection, ...]
    coords: np.ndarray
    class_of_sample: tuple[int, ...]
    truncated_reason: str = ""

    @property
    def depth(self) -> int:
        return len(self.directions)


def project_hierarchy(
    gene_ids,
    x1: np.ndarray,
    x2: np.ndarray,
    depth: int = 2,
    epsilon: float = DEFAULT_EPSILON,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> ProjectionHierarchy:
    """Fit a hierarchy of mutually orthogonal characteristic directions.

    The pooled data are mean-centered once; each level fits the regression
    estimator on the current data, records every sample's coordinate on
    the fitted direction, and deflates the data by removing that
    direction's component before the next level. If a level finds no
    remaining differential signal the hierarchy is truncated there with a
    diagnostic instead of failing. The centred data are factored once as
    ``basis @ coords``, and the levels fit and deflate the small ``coords``.
    """
    samples = _two_class_samples(gene_ids, *_pooled(x1, x2))
    return _project_samples(samples, depth, epsilon, max_components)


def _project_samples(
    samples: _TwoClassSamples, depth: int, epsilon: float, max_components: int
) -> ProjectionHierarchy:
    factors, n1 = samples.factors, samples.n1
    coords = factors.coords
    n_samples = coords.shape[1]
    if not 1 <= depth <= min(n_samples - 2, len(samples.gene_ids)):
        raise ValueError("depth must lie in [1, min(n_samples - 2, n_genes)]")

    directions: list[CharacteristicDirection] = []
    levels: list[np.ndarray] = []
    truncated_reason = ""
    for _ in range(depth):
        try:
            magnitude = _signal_norm(_class_difference(coords, n1), factors.scale)
            c = _unit_direction(_factor_samples(coords.copy()), n1, "LR1", epsilon, max_components)
        except (NoDifferentialSignalError, ZeroVarianceError) as exc:
            truncated_reason = f"signal exhausted at level {len(directions) + 1}: {exc}"
            break
        directions.append(
            CharacteristicDirection(samples.gene_ids, factors.basis @ c, "LR1", magnitude))
        levels.append(c @ coords)
        coords = coords - np.outer(c, levels[-1])

    if not directions:
        raise NoDifferentialSignalError(truncated_reason)
    return ProjectionHierarchy(
        directions=tuple(directions),
        coords=np.vstack(levels),
        class_of_sample=tuple([1] * n1 + [2] * (n_samples - n1)),
        truncated_reason=truncated_reason,
    )


@dataclass(frozen=True)
class DensityCurve:
    """Gaussian KDEs of several classes sampled on one regular grid:
    ``density[i]``, normalized to unit mass, ``bandwidth[i]`` and
    ``diagnostic[i]`` belong to class i."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: tuple[float, ...]
    diagnostic: tuple[str, ...]


def silverman_bandwidth(coords: np.ndarray) -> float:
    """Silverman's rule of thumb: ``1.06 * std * n^(-1/5)``."""
    return 1.06 * float(np.std(coords, ddof=1)) * len(coords) ** (-1 / 5)


def density_estimate(classes, bandwidth: float | None = None) -> DensityCurve:
    """Gaussian kernel density estimate of every class of ``classes``, each
    a sequence of coordinates, on one shared 256-point grid.

    The grid spans [min - 3h, max + 3h] over the classes, h being each
    class's bandwidth, and each sampled curve is renormalized so its
    trapezoid integral is 1. ``bandwidth=None`` applies Silverman's rule to
    each class; a class with zero spread, or spread at the rounding level of
    its magnitude, falls back to a fixed bandwidth of 1.0 with a diagnostic.
    """
    classes = [np.asarray(x, dtype=np.float64) for x in classes]
    if not classes:
        raise ValueError("need at least one class")
    h, diagnostic = zip(*(_kernel_bandwidth(x, bandwidth) for x in classes))
    grid = np.linspace(min(x.min() - 3 * b for x, b in zip(classes, h)),
                       max(x.max() + 3 * b for x, b in zip(classes, h)), GRID_POINTS)
    density = np.vstack([_unit_density(grid, x, b) for x, b in zip(classes, h)])
    return DensityCurve(grid, density, h, diagnostic)


def _kernel_bandwidth(coords: np.ndarray, bandwidth: float | None) -> tuple[float, str]:
    """The kernel bandwidth of :func:`density_estimate` and its diagnostic."""
    if coords.ndim != 1 or coords.size < 2:
        raise ValueError("need at least 2 one-dimensional points")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords contain non-finite values")
    if bandwidth is not None:
        h = float(bandwidth)
        if not 0 < h < math.inf:
            raise ValueError(f"bandwidth must be a positive finite number, got {h!r}")
        return h, ""
    h = silverman_bandwidth(coords)
    if h <= ROUNDING_SPREAD * float(np.abs(coords).max()):
        return FALLBACK_BANDWIDTH, "zero spread: fell back to fixed bandwidth"
    return h, ""


def _unit_density(grid: np.ndarray, coords: np.ndarray, h: float) -> np.ndarray:
    """The Gaussian kernel sum of ``coords`` on ``grid``, scaled to a unit
    trapezoid integral. Distances are taken relative to the least, so a term
    is 1 even when every point falls between grid points many ``h`` apart."""
    z2 = ((grid[:, None] - coords[None, :]) / h) ** 2
    density = np.exp(-0.5 * (z2 - z2.min())).sum(axis=1)
    return density / float(np.trapezoid(density, grid))
