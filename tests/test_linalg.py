"""Tests for the PCA, sample-factorisation and random-rotation primitives."""

import math
import subprocess
import sys

import numpy as np
import pytest

import chardir.linalg
from chardir.direction import (
    _fit,
    _pooled,
    _two_class_samples,
    _TwoClassSamples,
    lr1_direction,
    np1_direction,
)
from chardir.linalg import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_COMPONENTS,
    ZeroVarianceError,
    _component_rule,
    _factor_samples,
    _principal_components,
    random_rotation,
)
from chardir.projection import _project_samples, project_hierarchy
from chardir.simulate import SyntheticSpec, generate, method_scores, synthetic_gene_ids
from chardir.welch import ttest_screen

from oracles import covariance_eigendecomposition, single_svd_factors


def pca(data, epsilon=DEFAULT_EPSILON, max_components=DEFAULT_MAX_COMPONENTS):
    """(factors, (k, variances, retained, capped), scores) of ``data``."""
    factors = _factor_samples(np.array(data, dtype=np.float64))
    rule = _component_rule(factors, epsilon, max_components)
    return factors, rule, _principal_components(factors, rule[0])


def signed_basis(centered, scores):
    """The gene-space basis the scores are coordinates in: score rows are
    orthogonal, so column i is ``centered @ scores[i] / |scores[i]|^2``."""
    return centered @ scores.T / np.sum(scores**2, axis=1)


class TestPcaReduce:
    def test_rank_one_data_keeps_single_component(self):
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(50)
        positions = np.array([-2.0, -1.0, 0.5, 3.0])
        data = np.outer(direction, positions)
        _, (k, _, retained, capped), _ = pca(data, epsilon=1e-3, max_components=20)
        assert k == 1
        assert retained == pytest.approx(1.0, abs=1e-12)
        assert not capped

    def test_identical_samples_zero_variance(self):
        data = np.tile(np.arange(5.0)[:, None], (1, 3))
        with pytest.raises(ZeroVarianceError):
            pca(data)

    def test_reconstruction_against_eigendecomposition(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((30, 10))
        _, (k, variances, _, _), scores = pca(data, epsilon=1e-3, max_components=20)

        centered = data - data.mean(axis=1, keepdims=True)
        residual = centered - signed_basis(centered, scores) @ scores
        total_var = centered.var(axis=1, ddof=1).sum()
        assert np.sum(residual**2) / (10 - 1) <= 1e-3 * total_var

        eigvals, _ = covariance_eigendecomposition(data)
        np.testing.assert_allclose(variances, eigvals[:k], rtol=1e-10)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(1)
        factors, (k, _, _, _), _ = pca(rng.standard_normal((40, 8)))
        basis = factors.basis[:, :k]
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-8)

    def test_scores_uncorrelated(self):
        rng = np.random.default_rng(2)
        _, _, scores = pca(rng.standard_normal((25, 12)), epsilon=1e-9)
        cov = scores @ scores.T / (scores.shape[1] - 1)
        np.testing.assert_allclose(cov, np.diag(np.diag(cov)), atol=1e-8)

    def test_full_depth_reconstruction_exact(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((15, 6))
        _, (k, _, retained, _), scores = pca(data, epsilon=0.0, max_components=20)
        assert k == 5  # n_samples - 1
        assert retained == pytest.approx(1.0, abs=1e-12)
        centered = data - data.mean(axis=1)[:, None]
        np.testing.assert_allclose(signed_basis(centered, scores) @ scores, centered, atol=1e-10)

    def test_component_cap_binds_and_is_flagged(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((100, 30))
        _, (k, _, retained, capped), _ = pca(data, epsilon=1e-9, max_components=20)
        assert k == 20
        assert capped
        assert retained < 1.0 - 1e-9

    def test_variances_nonincreasing(self):
        rng = np.random.default_rng(5)
        _, (_, variances, _, _), _ = pca(rng.standard_normal((20, 9)))
        assert np.all(np.diff(variances) <= 0)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((12, 5))
        _, _, scores = pca(data)
        for col in signed_basis(data - data.mean(axis=1)[:, None], scores).T:
            assert col[np.argmax(np.abs(col))] > 0


    def test_sign_rule_takes_first_of_tied_magnitudes(self):
        # Column 0 holds +0.5 before -0.5, column 1 -0.5 before +0.5: the
        # first largest |entry| fixes the sign, so only row 1 of the scores flips.
        basis = np.array([[0.5, -0.5], [-0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        coords = np.array([[2.0, 0.0, -2.0], [0.5, -1.0, 0.5]])
        factors = chardir.linalg._SampleFactors(
            basis, np.array([2.0 * math.sqrt(2), math.sqrt(1.5)]), coords, 1.0
        )
        scores = _principal_components(factors, _component_rule(factors, 1e-3, 20)[0])
        assert scores.tolist() == [coords[0].tolist(), (-coords[1]).tolist()]


class TestRandomRotation:
    def test_dim_one_is_sign(self):
        values = {float(random_rotation(1, np.random.default_rng(s))[0, 0]) for s in range(40)}
        assert values <= {-1.0, 1.0}
        assert len(values) == 2  # both signs occur: Haar on O(1) is a coin flip

    def test_orthogonality(self):
        rotation = random_rotation(5, np.random.default_rng(9))
        np.testing.assert_allclose(rotation.T @ rotation, np.eye(5), atol=1e-10)

    def test_entry_mean_near_zero(self):
        rng = np.random.default_rng(10)
        total = np.zeros((3, 3))
        n_draws = 10_000
        for _ in range(n_draws):
            total += random_rotation(3, rng)
        assert np.all(np.abs(total / n_draws) < 0.05)

    def test_same_seed_bit_identical(self):
        a = random_rotation(6, np.random.default_rng(11))
        b = random_rotation(6, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            random_rotation(0, np.random.default_rng(0))


class TestSampleFactorisation:
    def test_one_gene_space_svd_per_fit(self, monkeypatch):
        # Everything after the one factorisation works on the small factor.
        rng = np.random.default_rng(18)
        gene_ids = [f"g{i}" for i in range(40)]
        x1 = rng.standard_normal((40, 4))
        x2 = rng.standard_normal((40, 5)) + rng.standard_normal(40)[:, None]
        rows = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for fit in (
            lambda: lr1_direction(gene_ids, x1, x2),
            lambda: np1_direction(gene_ids, x1, x2),
            lambda: project_hierarchy(gene_ids, x1, x2, depth=3),
        ):
            rows.clear()
            fit()
            assert rows.count(40) == 1

    def test_blocks_are_left_unchanged_and_factored_as_centred_copy(self):
        # The samples are centred in place, so a caller whose arrays must
        # not move, such as the coordinates a projection level refactors,
        # factors a copy: here the pooled copy of two class blocks.
        rng = np.random.default_rng(19)
        x1 = rng.standard_normal((30, 3)) + 4.0
        x2 = rng.standard_normal((30, 4)) - 2.0
        pooled = np.hstack([x1, x2])
        before = [x1.tobytes(), x2.tobytes(), pooled.tobytes()]
        data, n1 = _pooled(x1, x2)
        blocks = _factor_samples(data)
        whole = _factor_samples(pooled.copy())
        assert [x1.tobytes(), x2.tobytes(), pooled.tobytes()] == before
        centred = pooled - pooled.mean(axis=1)[:, None]
        assert n1 == 3 and data.tobytes() == centred.tobytes()
        u, s, vt = np.linalg.svd(centred, full_matrices=False)
        r = 6  # the centred samples' rank
        for factors in (blocks, whole):
            assert factors.basis.tobytes() == u[:, :r].tobytes()
            assert factors.singular.tobytes() == s[:r].tobytes()
            assert factors.coords.tobytes() == (s[:r, None] * vt[:r]).tobytes()
            assert factors.scale == float(np.abs(pooled).max())

    def test_library_callers_leave_their_inputs_unchanged(self):
        outcome = generate(SyntheticSpec(n_genes=60, samples_per_class=5, seed=4))
        x1, x2 = outcome.x_control, outcome.x_perturbed
        before = [x1.tobytes(), x2.tobytes()]
        gene_ids = synthetic_gene_ids(60)
        for call in (
            lambda: lr1_direction(gene_ids, x1, x2),
            lambda: np1_direction(gene_ids, x1, x2),
            lambda: project_hierarchy(gene_ids, x1, x2, depth=3),
            lambda: ttest_screen(gene_ids, x1, x2),
            lambda: method_scores(outcome),
        ):
            call()
            assert [x1.tobytes(), x2.tobytes()] == before
        samples = _two_class_samples(gene_ids, *_pooled(x1, x2))
        coords = samples.factors.coords.tobytes()
        _project_samples(samples, 3, DEFAULT_EPSILON, DEFAULT_MAX_COMPONENTS)
        assert samples.factors.coords.tobytes() == coords


# Block height the blocked-factorisation tests patch in for _FACTOR_ROWS.
B = 32


def two_class_data(m, n, seed, duplicate=False, flat_rows=0):
    """m genes x n samples with rows of mixed spread and a class-2 shift;
    ``duplicate`` copies sample 0 into sample 1, ``flat_rows`` rows are
    constant."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0, m)[:, None] + 2.0
    data[:, n // 2 :] += rng.standard_normal(m)[:, None]
    if duplicate:
        data[:, 1] = data[:, 0]
    data[rng.choice(m, flat_rows, replace=False)] = 5.0
    return data


class TestBlockedFactorisation:
    @pytest.mark.parametrize(
        "m, n, duplicate, flat_rows",
        [
            (B + 1, 5, False, 0),  # two blocks of 17 and 16 rows
            (B + 1, B // 2, False, 0),  # the shortest block has exactly n rows
            (2 * B, 8, False, 0),
            (2 * B, 8, True, 0),
            (3 * B - 1, 6, False, 0),
            (3 * B - 1, B // 2 - 1, False, 0),
            (3 * B - 1, 6, False, 9),
            (3 * B - 1, 7, True, 9),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_route_within_tolerance_of_one_svd(
        self, monkeypatch, m, n, duplicate, flat_rows, seed
    ):
        monkeypatch.setattr(chardir.linalg, "_FACTOR_ROWS", B)
        data = two_class_data(m, n, seed, duplicate, flat_rows)
        oracle = single_svd_factors(data)
        owned = data.copy()
        samples = _two_class_samples([f"g{i}" for i in range(m)], owned, n // 2)
        factors = samples.factors
        # The blocked route turns the samples themselves into the basis.
        assert np.shares_memory(factors.basis, owned)
        assert factors.scale == oracle.scale

        r = len(oracle.singular)
        assert len(factors.singular) == r
        largest = oracle.singular[0]
        assert np.abs(factors.singular - oracle.singular).max() <= 1e-13 * largest
        centred = data - data.mean(axis=1)[:, None]
        assert np.abs(factors.basis @ factors.coords - centred).max() <= 1e-13 * factors.scale
        assert np.abs(factors.basis.T @ factors.basis - np.eye(r)).max() <= 1e-13

        reference = _TwoClassSamples(samples.gene_ids, oracle, samples.magnitude, n // 2)
        for method in ("LR1", "NP1"):
            blocked = _fit(samples, method).coefficients
            single = _fit(reference, method).coefficients
            assert np.abs(blocked - single).max() <= 1e-12
        levels = [
            _project_samples(fit, 2, DEFAULT_EPSILON, DEFAULT_MAX_COMPONENTS).coords
            for fit in (samples, reference)
        ]
        assert np.abs(levels[0] - levels[1]).max() <= 1e-12 * np.abs(levels[1]).max()

    @pytest.mark.parametrize(
        "m, n",
        [
            (B, 6),  # one block
            (B + 1, B // 2 + 1),  # two blocks, each shorter than n
            (3 * B - 1, B),  # three blocks, each shorter than n
        ],
    )
    def test_one_block_or_short_blocks_match_one_svd_bit_for_bit(self, monkeypatch, m, n):
        monkeypatch.setattr(chardir.linalg, "_FACTOR_ROWS", B)
        data = two_class_data(m, n, 5, flat_rows=3)
        oracle = single_svd_factors(data)
        owned = data.copy()
        factors = _factor_samples(owned)
        assert not np.shares_memory(factors.basis, owned)
        assert owned.tobytes() == (data - data.mean(axis=1)[:, None]).tobytes()
        for got, want in zip(factors, oracle):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status"
    )
    def test_tall_factorisation_makes_no_copy_of_the_samples(self):
        # The peak RSS of a fresh interpreter, after a warm-up fit has loaded
        # LAPACK and its work buffers. VmHWM is the peak of this process
        # image alone: ru_maxrss would also hold the test runner's peak,
        # which a child started by fork and exec inherits. numpy's SVD of
        # the whole matrix holds a copy of it, LAPACK's U and the returned
        # u beside it, about 3 times its bytes.
        code = """
import chardir
import numpy as np
from chardir.linalg import _factor_samples

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

rng = np.random.default_rng(0)
_factor_samples(rng.standard_normal((40, 4)))
data = rng.standard_normal((40_000, 20))
before = peak_kib()
_factor_samples(data)
print((peak_kib() - before) * 1024 / data.nbytes)
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert float(proc.stdout) < 1.5
