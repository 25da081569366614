"""Tests for projection coordinates, the direction hierarchy, and KDE."""

import math

import numpy as np
import pytest

from chardir.data import ExpressionMatrix
from chardir.direction import CharacteristicDirection, lr1_direction
from chardir.projection import density_estimate, project_hierarchy

from oracles import hierarchy_normal_equations, kde_on_grid

TOY_X1 = np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
TOY_X2 = np.array([[5.0, 5.1, 5.0], [0.0, 0.0, 0.1]])


def make_matrix(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"g{i}" for i in range(values.shape[0]))
    samples = tuple(f"s{j}" for j in range(values.shape[1]))
    return ExpressionMatrix(tuple(ids), samples, values)


def make_direction(coefficients, ids=None):
    coefficients = np.asarray(coefficients, dtype=float)
    ids = ids or tuple(f"g{i}" for i in range(len(coefficients)))
    return CharacteristicDirection(tuple(ids), coefficients, "LR1", 1.0)


class TestProject:
    def test_axis_direction_returns_gene_row(self):
        m = make_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        d = make_direction([1.0, 0.0])
        np.testing.assert_array_equal(d.coefficients @ m.values, m.values[0])

    def test_zero_matrix_gives_zero_coordinates(self):
        m = make_matrix(np.zeros((3, 4)))
        d = make_direction([0.6, 0.8, 0.0])
        np.testing.assert_array_equal(d.coefficients @ m.values, np.zeros(4))

    def test_dot_product_by_hand(self):
        m = make_matrix([[1.0], [2.0]])
        d = make_direction([0.6, 0.8])
        assert (d.coefficients @ m.values)[0] == pytest.approx(2.2)


class TestHierarchy:
    def test_depth_one_matches_direct_projection(self):
        gene_ids = ("A", "B")
        h = project_hierarchy(gene_ids, TOY_X1, TOY_X2, depth=1)
        pooled = np.hstack([TOY_X1, TOY_X2])
        centered = pooled - pooled.mean(axis=1, keepdims=True)
        d = lr1_direction(gene_ids, centered[:, :3], centered[:, 3:])
        np.testing.assert_allclose(h.coords[0], d.coefficients @ centered, atol=1e-10)

    def test_deflation_zeroes_projection(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((6, 4))
        x2 = rng.standard_normal((6, 4)) + rng.standard_normal(6)[:, None]
        gene_ids = tuple(f"g{i}" for i in range(6))
        h = project_hierarchy(gene_ids, x1, x2, depth=2)
        pooled = np.hstack([x1, x2])
        centered = pooled - pooled.mean(axis=1, keepdims=True)
        b0 = h.directions[0].coefficients
        deflated = centered - np.outer(b0, b0 @ centered)
        np.testing.assert_allclose(b0 @ deflated, 0.0, atol=1e-8)

    def test_toy_depth_two_spans_plane(self):
        h = project_hierarchy(("A", "B"), TOY_X1, TOY_X2, depth=2)
        assert h.depth == 2
        b0, b1 = (d.coefficients for d in h.directions)
        assert abs(float(b0 @ b1)) < 1e-8
        basis = np.vstack([b0, b1])
        np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-8)

    def test_directions_pairwise_orthogonal(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((10, 5))
        x2 = rng.standard_normal((10, 5)) + rng.standard_normal(10)[:, None]
        gene_ids = tuple(f"g{i}" for i in range(10))
        h = project_hierarchy(gene_ids, x1, x2, depth=3)
        for i in range(h.depth):
            for j in range(i + 1, h.depth):
                dot = float(h.directions[i].coefficients @ h.directions[j].coefficients)
                assert abs(dot) < 1e-8

    # A table multiplied by a constant keeps its directions and scales its
    # coordinates by that constant, also where its square leaves the float range.
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-13, 1e-200, 1e200])
    def test_depth_three_matches_gene_space_oracle(self, scale):
        # All components kept, so each level is the full-space normal of
        # the deflated data; both more genes than samples and the reverse.
        rng = np.random.default_rng(16)
        for n_genes, n1, n2 in [(40, 4, 5), (7, 6, 6), (200, 3, 4)]:
            x1 = rng.standard_normal((n_genes, n1))
            x2 = rng.standard_normal((n_genes, n2)) + rng.standard_normal(n_genes)[:, None]
            gene_ids = tuple(f"g{i}" for i in range(n_genes))
            h = project_hierarchy(gene_ids, scale * x1, scale * x2, depth=3,
                                  epsilon=1e-12, max_components=50)
            directions, coords = hierarchy_normal_equations(x1, x2, 3)
            assert h.depth == 3
            got = np.vstack([d.coefficients for d in h.directions])
            assert np.max(np.abs(got - directions)) <= 1e-10
            assert np.max(np.abs(h.coords / scale - coords)) <= 1e-10

    def test_class_labels(self):
        h = project_hierarchy(("A", "B"), TOY_X1, TOY_X2, depth=1)
        assert h.class_of_sample == (1, 1, 1, 2, 2, 2)

    def test_separable_classes_disjoint_coordinates(self):
        h = project_hierarchy(("A", "B"), TOY_X1, TOY_X2, depth=1)
        class1 = h.coords[0, :3]
        class2 = h.coords[0, 3:]
        assert class1.max() < class2.min()

    def test_exhausted_signal_truncates_with_diagnostic(self):
        # One informative gene + one constant gene: level 2 has nothing
        # left to separate.
        x1 = np.array([[0.0, 0.1, -0.1], [1.0, 1.0, 1.0]])
        x2 = np.array([[5.0, 5.1, 4.9], [1.0, 1.0, 1.0]])
        h = project_hierarchy(("A", "B"), x1, x2, depth=2, epsilon=1e-9)
        assert h.depth == 1
        assert "level 2" in h.truncated_reason

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError):
            project_hierarchy(("A", "B"), TOY_X1, TOY_X2, depth=0)
        with pytest.raises(ValueError):
            project_hierarchy(("A", "B"), TOY_X1, TOY_X2, depth=5)


class TestDensityEstimate:
    def test_two_point_symmetry(self):
        curve = density_estimate([[-1.0, 1.0]], bandwidth=0.5)
        np.testing.assert_allclose(curve.density[0], curve.density[0][::-1], atol=1e-9)

    def test_grid_span_and_size(self):
        curve = density_estimate([[-1.0, 1.0]], bandwidth=0.5)
        assert len(curve.grid) == 256
        assert curve.grid[0] == pytest.approx(-2.5)
        assert curve.grid[-1] == pytest.approx(2.5)

    def test_normalized_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            coords = rng.standard_normal(rng.integers(2, 200)) * rng.uniform(0.1, 10)
            curve = density_estimate([coords])
            assert np.trapezoid(curve.density[0], curve.grid) == pytest.approx(1.0, abs=1e-3)

    def test_matches_standard_normal(self):
        rng = np.random.default_rng(4)
        coords = rng.standard_normal(10_000)
        curve = density_estimate([coords])
        reference = np.exp(-0.5 * curve.grid**2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(curve.density[0] - reference)) < 0.05

    def test_zero_spread_falls_back(self):
        curve = density_estimate([[2.0, 2.0, 2.0]])
        assert curve.bandwidth == (1.0,)
        assert curve.diagnostic[0]

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            density_estimate([[1.0]])
        with pytest.raises(ValueError, match="need at least 2 one-dimensional points"):
            density_estimate([1.0, 2.0])  # two scalars, not one class
        with pytest.raises(ValueError, match="need at least one class"):
            density_estimate([])

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            density_estimate([[1.0, 2.0]], bandwidth=0.0)
        for bandwidth in (math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth must be a positive finite number"):
                density_estimate([[1.0, 2.0]], bandwidth=bandwidth)

    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    def test_classes_share_one_grid_and_match_the_kernel_sum(self, n_classes):
        rng = np.random.default_rng(10 + n_classes)
        classes = [rng.standard_normal(rng.integers(2, 40)) * rng.uniform(0.1, 5) + 4 * i
                   for i in range(n_classes)]
        curve = density_estimate(classes)
        silverman = [1.06 * np.std(x, ddof=1) * len(x) ** -0.2 for x in classes]
        np.testing.assert_allclose(curve.bandwidth, silverman, rtol=1e-15)
        assert curve.diagnostic == ("",) * n_classes
        grid, densities = kde_on_grid(classes, curve.bandwidth)
        assert len(curve.grid) == 256
        assert curve.grid[0] == min(x.min() - 3 * h for x, h in zip(classes, curve.bandwidth))
        assert curve.grid[-1] == max(x.max() + 3 * h for x, h in zip(classes, curve.bandwidth))
        assert curve.density.shape == (n_classes, 256)
        np.testing.assert_allclose(curve.grid, grid, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.density, densities, rtol=0, atol=1e-12)
        for row in curve.density:
            assert abs(np.trapezoid(row, curve.grid) - 1) <= 1e-12

    def test_zero_spread_class_gets_its_own_fallback(self):
        spread = np.array([-0.5, 0.1, 0.3, 0.9])
        curve = density_estimate([spread, [2.0, 2.0, 2.0]])
        h = 1.06 * np.std(spread, ddof=1) * 4 ** -0.2
        assert curve.bandwidth == pytest.approx((h, 1.0), rel=1e-15)
        assert curve.diagnostic == ("", "zero spread: fell back to fixed bandwidth")
        grid, densities = kde_on_grid([spread, [2.0, 2.0, 2.0]], curve.bandwidth)
        assert curve.grid[0] == spread.min() - 3 * curve.bandwidth[0]
        assert curve.grid[-1] == 2.0 + 3.0
        np.testing.assert_allclose(curve.density, densities, rtol=0, atol=1e-12)
        for row in curve.density:
            assert abs(np.trapezoid(row, curve.grid) - 1) <= 1e-12
