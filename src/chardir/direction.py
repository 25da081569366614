"""Characteristic-direction estimators and significant-gene calling.

Both estimators return a unit-norm coefficient vector over genes whose
squared components apportion the total expression difference between the
two classes; the sign convention points the vector from class 1 toward
class 2 (nonnegative dot product with the centroid difference).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .data import write_table
from .linalg import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_COMPONENTS,
    _component_rule,
    _factor_samples,
    _SampleFactors,
)

__all__ = [
    "CharacteristicDirection",
    "SignificantGeneCall",
    "NoDifferentialSignalError",
    "lr1_direction",
    "np1_direction",
    "call_significant",
    "write_ranked_tsv",
    "write_ranked_json",
]

# Size, relative to the table's magnitude, at or below which a centroid
# difference on the axes a fit uses counts as no signal (both in data units).
SIGNAL_FLOOR = 1e-12


class NoDifferentialSignalError(ValueError):
    """The two classes are indistinguishable; no direction exists."""


@dataclass(frozen=True)
class CharacteristicDirection:
    """Unit-norm per-gene coefficients characterizing a class difference.

    Attributes:
        gene_ids: Gene identifiers, aligned with ``coefficients``.
        coefficients: Unit vector; squared entries sum to 1.
        method: Estimator label, "LR1" or "NP1".
        magnitude: Euclidean norm of the log-space centroid difference the
            unit vector characterizes.
    """

    gene_ids: tuple[str, ...]
    coefficients: np.ndarray
    method: str
    magnitude: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs.shape != (len(self.gene_ids),):
            raise ValueError("coefficients and gene_ids lengths differ")


@dataclass(frozen=True)
class SignificantGeneCall:
    """Genes ranked by squared coefficient with a cumulative-mass cutoff.

    ``gene_ids``, ``coefficients`` and ``cumulative`` (the running sum of
    the squared coefficients) are arrays in rank order. ``selected_count``
    is the length of the shortest ranking prefix whose squared
    coefficients sum to at least ``alpha``.
    """

    gene_ids: np.ndarray
    coefficients: np.ndarray
    cumulative: np.ndarray
    alpha: float
    selected_count: int


def _signal_norm(vector: np.ndarray, scale: float) -> float:
    """The norm of ``vector``, taken after exact division by the power of two
    at the table's magnitude ``scale``, so it neither overflows nor
    underflows. A norm at most ``SIGNAL_FLOOR * scale`` raises
    NoDifferentialSignalError."""
    exponent = np.frexp(scale)[1]
    norm = float(np.linalg.norm(np.ldexp(vector, -exponent)))
    if norm <= SIGNAL_FLOOR * np.ldexp(scale, -exponent):
        raise NoDifferentialSignalError("no differential signal between the classes")
    return float(np.ldexp(norm, exponent))


class _TwoClassSamples(NamedTuple):
    """Validated input: the factored pooled samples (class 1 first, ``n1``
    of them) and ``magnitude``, the norm of their centroid difference."""

    gene_ids: tuple[str, ...]
    factors: _SampleFactors
    magnitude: float
    n1: int


def _pooled(x1, x2) -> tuple[np.ndarray, int]:
    """The classes side by side in one new array, class 1 first, and the
    class-1 sample count: the input of :func:`_two_class_samples` for a
    caller whose arrays must stay unchanged."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.ndim != 2 or x2.ndim != 2:
        raise ValueError("class matrices must be 2-D (genes x samples)")
    if x1.shape[0] != x2.shape[0]:
        raise ValueError("class matrices disagree on gene count")
    return np.hstack([x1, x2]), x1.shape[1]


def _two_class_samples(gene_ids, pooled: np.ndarray, n1: int) -> _TwoClassSamples:
    """Validate the classes (the first ``n1`` columns of the genes x samples
    ``pooled``, then the rest), factor the samples and check their centroid
    difference, read in principal coordinates. ``pooled`` is overwritten by
    the factorisation (see :func:`_factor_samples`), so callers pass a
    float64 array they own."""
    if n1 < 2 or pooled.shape[1] - n1 < 2:
        raise ValueError("each class needs at least 2 samples")
    if not np.all(np.isfinite(pooled)):
        raise ValueError("class matrices contain non-finite values")
    gene_ids = tuple(gene_ids)
    if len(gene_ids) != pooled.shape[0]:
        raise ValueError("gene_ids and matrices disagree on gene count")

    factors = _factor_samples(pooled)
    magnitude = _signal_norm(_class_difference(factors.coords, n1), factors.scale)
    return _TwoClassSamples(gene_ids, factors, magnitude, n1)


def _class_difference(coords: np.ndarray, n1: int) -> np.ndarray:
    """The mean of the columns of ``coords`` past ``n1`` minus that of the rest."""
    return coords[:, n1:].mean(axis=1) - coords[:, :n1].mean(axis=1)


def _unit_direction(
    factors: _SampleFactors, n1: int, method: str, epsilon: float, max_components: int
) -> np.ndarray:
    """The unit "LR1" or "NP1" direction in the row space of ``factors``:
    ``basis @ w`` normalised, with weights ``w`` on its principal axes.
    ``delta_pc``, the centroid difference (class 2 minus the first ``n1``
    samples) in principal coordinates, is divided by ``singular ** 2`` on
    the components :func:`_component_rule` keeps (LR1: the least-squares
    normal of the class contrast on the orthogonal scores) or by
    ``singular`` on every axis (NP1: whitened by the label-permutation null).
    A ``delta_pc`` on those axes at most ``SIGNAL_FLOOR * factors.scale``
    raises NoDifferentialSignalError; else its dot product with ``w`` is
    positive, so the direction points from class 1 to class 2. Both are
    divided by the power of two at the table's magnitude first, so powers
    and norms stay finite at any scale.
    """
    if method == "LR1":
        k, power = _component_rule(factors, epsilon, max_components)[0], 2
    elif method == "NP1":
        k, power = None, 1
    else:
        raise ValueError(f"unknown method {method!r}; expected LR1 or NP1")
    delta_pc = _class_difference(factors.coords[:k], n1)
    _signal_norm(delta_pc, factors.scale)
    exponent = np.frexp(factors.scale)[1]
    w = np.ldexp(delta_pc, -exponent) / np.ldexp(factors.singular[:k], -exponent) ** power
    raw = factors.basis[:, : len(delta_pc)] @ w
    return raw / np.linalg.norm(raw)


def _fit(
    samples: _TwoClassSamples,
    method: str,
    epsilon: float = DEFAULT_EPSILON,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> CharacteristicDirection:
    """The "LR1" or "NP1" direction of factored samples, so one factorisation
    serves both estimators; ``epsilon`` and ``max_components`` apply to LR1."""
    unit = _unit_direction(samples.factors, samples.n1, method, epsilon, max_components)
    return CharacteristicDirection(samples.gene_ids, unit, method, samples.magnitude)


def lr1_direction(
    gene_ids,
    x1: np.ndarray,
    x2: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    max_components: int = DEFAULT_MAX_COMPONENTS,
) -> CharacteristicDirection:
    """Characteristic direction via indicator regression in PCA space.

    The pooled samples are reduced to their leading principal components,
    kept until they capture a fraction 1 - epsilon of the total variance,
    up to ``max_components`` and never more than the numerical rank or
    n_samples - 1, and a -1/+1 class contrast is regressed on the
    component scores. The scores are orthogonal, so the least-squares
    normal is the centroid difference in component coordinates divided by
    each component's squared singular value, mapped back through the
    orthonormal basis to gene space.

    Raises:
        NoDifferentialSignalError: the classes coincide.
        ZeroVarianceError: all pooled samples are identical.
    """
    return _fit(_two_class_samples(gene_ids, *_pooled(x1, x2)), "LR1", epsilon, max_components)


def np1_direction(gene_ids, x1: np.ndarray, x2: np.ndarray) -> CharacteristicDirection:
    """Characteristic direction via a permutation-null-corrected centroid
    difference.

    Shuffling the sample-to-class labels (class sizes preserved) gives a
    null set of centroid differences; the observed difference is whitened
    by the null's second moment and mapped back to gene space. This is the
    exact limit of infinitely many shuffles: the shuffle weights are
    exchangeable and the centred pooled samples sum to zero, so the null's
    second moment is proportional to ``diag(singular ** 2)`` in the
    principal axes of the pooled samples. The result is the centroid
    difference in those axes divided by each singular value, over every
    axis of the numerical rank; it is deterministic.
    """
    return _fit(_two_class_samples(gene_ids, *_pooled(x1, x2)), "NP1")


def call_significant(
    direction: CharacteristicDirection, alpha: float
) -> SignificantGeneCall:
    """Rank genes by squared coefficient and select the alpha-mass prefix.

    Ties in squared coefficient are broken by gene id, lexicographically.
    ``selected_count`` is the smallest prefix length whose cumulative
    squared-coefficient fraction reaches ``alpha`` (all genes if rounding
    keeps the total a hair below alpha = 1).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    ids = np.array(direction.gene_ids)
    coeffs = direction.coefficients
    order = np.lexsort((ids, -(coeffs**2)))
    cumulative = np.cumsum(coeffs[order] ** 2)
    selected = min(int(np.searchsorted(cumulative, alpha) + 1), len(order))
    return SignificantGeneCall(ids[order], coeffs[order], cumulative, float(alpha), selected)


RANKED_COLUMNS = (
    "gene_id",
    "coefficient",
    "squared_coefficient",
    "cumulative_fraction",
    "rank",
    "discriminant_sign",
    "significant",
)


def _ranked_columns(call: SignificantGeneCall) -> list[np.ndarray]:
    """The ranked-gene table's columns, in ``RANKED_COLUMNS`` order."""
    rank = np.arange(1, len(call.gene_ids) + 1)
    return [
        call.gene_ids,
        call.coefficients,
        call.coefficients**2,
        call.cumulative,
        rank,
        np.where(call.coefficients >= 0, "+", "-"),
        rank <= call.selected_count,
    ]


def write_ranked_tsv(
    call: SignificantGeneCall, out: TextIO, method: str | None = None
) -> None:
    """Write the ranked-gene table as TSV with a fixed column order.

    The estimator label travels in a leading comment line so the column
    schema stays stable.
    """
    if method:
        out.write(f"# method: {method}\n")
    write_table(out, RANKED_COLUMNS, _ranked_columns(call), f"alpha: {call.alpha!r}")


def write_ranked_json(
    call: SignificantGeneCall, out: TextIO, method: str | None = None
) -> None:
    """JSON alternative to the TSV output, identical fields."""
    columns = (column.tolist() for column in _ranked_columns(call))
    payload = {
        "alpha": call.alpha,
        "selected_count": call.selected_count,
        "genes": [dict(zip(RANKED_COLUMNS, row)) for row in zip(*columns)],
    }
    if method:
        payload["method"] = method
    json.dump(payload, out, indent=2)
    out.write("\n")
