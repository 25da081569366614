"""Tests for the characteristic-direction estimators and gene calling."""

import io

import numpy as np
import pytest

from chardir.direction import (
    NoDifferentialSignalError,
    _fit,
    _pooled,
    _two_class_samples,
    call_significant,
    lr1_direction,
    np1_direction,
    write_ranked_json,
    write_ranked_tsv,
)

from oracles import normal_equation_direction, np1_gram_whitening, np1_rank_restricted

TOY_X1 = np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
TOY_X2 = np.array([[5.0, 5.1, 5.0], [0.0, 0.0, 0.1]])
# Table multipliers; from 1e160 on, a squared singular value leaves the
# float range, below 1e-155 it underflows, and at 1e306 so does the largest
# singular value times the table's longer side, the rank tolerance's factor.
SCALE_FACTORS = [
    -1.0, 1e8, -1e8, 1e-8, 1e-13, 1e-100, 1e-160, -1e-200, 1e160, 1e200, -1e200, 1e306,
    -(2.0**1015),
]


def random_two_class(rng, n_genes=None, n1=None, n2=None, shift=None):
    n_genes = n_genes or int(rng.integers(3, 30))
    n1 = n1 or int(rng.integers(2, 8))
    n2 = n2 or int(rng.integers(2, 8))
    x1 = rng.standard_normal((n_genes, n1))
    x2 = rng.standard_normal((n_genes, n2))
    if shift is None:
        shift = rng.standard_normal(n_genes)
    x2 = x2 + np.asarray(shift)[:, None]
    gene_ids = [f"g{i:03d}" for i in range(n_genes)]
    return gene_ids, x1, x2


class TestLr1:
    def test_toy_concentrates_on_shifted_gene(self):
        d = lr1_direction(["A", "B"], TOY_X1, TOY_X2)
        assert d.coefficients[0] ** 2 > 0.99
        assert d.coefficients[0] > 0

    def test_toy_magnitude_is_centroid_distance(self):
        d = lr1_direction(["A", "B"], TOY_X1, TOY_X2)
        diff = TOY_X2.mean(axis=1) - TOY_X1.mean(axis=1)
        assert d.magnitude == pytest.approx(float(np.linalg.norm(diff)))

    def test_identical_classes_raise(self):
        x = np.array([[0.0, 1.0, 2.0], [3.0, 1.0, 0.5]])
        with pytest.raises(NoDifferentialSignalError):
            lr1_direction(["A", "B"], x, x.copy())

    def test_unit_norm_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            gene_ids, x1, x2 = random_two_class(rng)
            d = lr1_direction(gene_ids, x1, x2)
            assert abs(float(np.sum(d.coefficients**2)) - 1.0) <= 1e-10

    def test_sign_convention_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gene_ids, x1, x2 = random_two_class(rng)
            d = lr1_direction(gene_ids, x1, x2)
            assert float(d.coefficients @ (x2.mean(axis=1) - x1.mean(axis=1))) >= 0

    def test_matches_normal_equation_oracle_without_truncation(self):
        # Small instances, epsilon tiny so no component is dropped.
        rng = np.random.default_rng(2)
        for _ in range(100):
            gene_ids, x1, x2 = random_two_class(rng, n_genes=int(rng.integers(2, 6)))
            d = lr1_direction(gene_ids, x1, x2, epsilon=1e-12, max_components=50)
            oracle = normal_equation_direction(x1, x2)
            assert float(d.coefficients @ oracle) > 1 - 1e-8

    # A table multiplied by a constant keeps its direction, up to the sign,
    # and scales its magnitude, even where the squared table leaves the
    # float range.
    @pytest.mark.parametrize("factor", SCALE_FACTORS)
    def test_global_sign_flip_negates_coefficients(self, factor):
        rng = np.random.default_rng(3)
        gene_ids, x1, x2 = random_two_class(rng)
        d = lr1_direction(gene_ids, x1, x2)
        d_scaled = lr1_direction(gene_ids, factor * x1, factor * x2)
        np.testing.assert_allclose(
            d_scaled.coefficients, np.sign(factor) * d.coefficients, atol=1e-10
        )
        assert d_scaled.magnitude == pytest.approx(abs(factor) * d.magnitude, rel=1e-12)

    def test_sample_order_invariance_within_class(self):
        rng = np.random.default_rng(4)
        gene_ids, x1, x2 = random_two_class(rng, n_genes=12, n1=5, n2=6)
        d = lr1_direction(gene_ids, x1, x2)
        perm1 = rng.permutation(5)
        perm2 = rng.permutation(6)
        d_perm = lr1_direction(gene_ids, x1[:, perm1], x2[:, perm2])
        np.testing.assert_allclose(d_perm.coefficients, d.coefficients, atol=1e-10)

    def test_gene_order_equivariance(self):
        rng = np.random.default_rng(5)
        gene_ids, x1, x2 = random_two_class(rng, n_genes=9)
        d = lr1_direction(gene_ids, x1, x2)
        perm = rng.permutation(9)
        d_perm = lr1_direction(
            [gene_ids[i] for i in perm], x1[perm], x2[perm]
        )
        np.testing.assert_allclose(d_perm.coefficients, d.coefficients[perm], atol=1e-10)

    def test_single_gene_scaling_keeps_invariants(self):
        rng = np.random.default_rng(6)
        gene_ids, x1, x2 = random_two_class(rng, n_genes=8)
        x1s, x2s = x1.copy(), x2.copy()
        x1s[3] *= 7.0
        x2s[3] *= 7.0
        d = lr1_direction(gene_ids, x1s, x2s)
        assert abs(float(np.sum(d.coefficients**2)) - 1.0) <= 1e-10
        assert float(d.coefficients @ (x2s.mean(axis=1) - x1s.mean(axis=1))) >= 0


class TestNp1:
    def test_unit_norm_and_sign(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gene_ids, x1, x2 = random_two_class(rng)
            d = np1_direction(gene_ids, x1, x2)
            assert abs(float(np.sum(d.coefficients**2)) - 1.0) <= 1e-10
            assert float(d.coefficients @ (x2.mean(axis=1) - x1.mean(axis=1))) >= 0

    def test_isotropic_noise_stays_near_centroid_difference(self):
        # Without gene correlations the null scaling is near-uniform, so
        # the corrected direction stays close to the raw difference. The
        # planted shift does inflate its own axis's null spread, which
        # costs 10-15 degrees for typical seeds; this seed is mid-range.
        rng = np.random.default_rng(1002)
        x1 = rng.standard_normal((20, 6))
        x2 = rng.standard_normal((20, 6))
        x2[0] += 5.0
        gene_ids = [f"g{i}" for i in range(20)]
        d = np1_direction(gene_ids, x1, x2)
        diff = x2.mean(axis=1) - x1.mean(axis=1)
        cosine = float(d.coefficients @ (diff / np.linalg.norm(diff)))
        assert np.degrees(np.arccos(min(1.0, cosine))) < 15.0

    def test_same_seed_bit_identical(self):
        # np1 draws nothing at random: two fits of the same data agree bit
        # for bit.
        rng = np.random.default_rng(8)
        gene_ids, x1, x2 = random_two_class(rng)
        a = np1_direction(gene_ids, x1, x2)
        b = np1_direction(gene_ids, x1, x2)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_sample_order_invariance_within_class(self):
        rng = np.random.default_rng(9)
        gene_ids, x1, x2 = random_two_class(rng, n_genes=40, n1=5, n2=7)
        d = np1_direction(gene_ids, x1, x2)
        d_perm = np1_direction(gene_ids, x1[:, rng.permutation(5)], x2[:, rng.permutation(7)])
        np.testing.assert_allclose(d_perm.coefficients, d.coefficients, rtol=0, atol=1e-12)

    def test_identical_classes_raise(self):
        x = np.arange(12.0).reshape(3, 4)
        with pytest.raises(NoDifferentialSignalError):
            np1_direction(["a", "b", "c"], x, x.copy())

    @pytest.mark.parametrize("factor", SCALE_FACTORS)
    def test_global_sign_flip_negates_coefficients(self, factor):
        rng = np.random.default_rng(10)
        gene_ids, x1, x2 = random_two_class(rng)
        a = np1_direction(gene_ids, x1, x2)
        b = np1_direction(gene_ids, factor * x1, factor * x2)
        np.testing.assert_allclose(b.coefficients, np.sign(factor) * a.coefficients, atol=1e-10)
        assert b.magnitude == pytest.approx(abs(factor) * a.magnitude, rel=1e-12)

    def test_matches_rank_restricted_gene_space_oracle(self):
        # np1 is the infinite-shuffle limit of the Monte Carlo oracle: the
        # oracle's mean 1 - cos to np1 over three generator seeds falls at
        # least 4x per tenfold increase in shuffles (about 10x expected).
        rng = np.random.default_rng(14)
        gene_ids, x1, x2 = random_two_class(rng, 20, 6, 6, shift=0.3 * rng.standard_normal(20))
        limit = np1_direction(gene_ids, x1, x2).coefficients
        gaps = [
            np.mean([
                1.0 - float(limit @ np1_rank_restricted(x1, x2, n, np.random.default_rng(seed)))
                for seed in range(3)
            ])
            for n in (200, 2_000, 20_000)
        ]
        assert gaps[0] >= 4 * gaps[1] and gaps[1] >= 4 * gaps[2], gaps

    def test_matches_gram_whitening_oracle(self):
        # More genes than samples, more samples than genes, unequal
        # classes, and a centred matrix of lower rank than both.
        rng = np.random.default_rng(16)
        cases = [random_two_class(rng, *shape)
                 for shape in [(40, 5, 5), (300, 4, 7), (6, 8, 6), (3, 2, 2), (25, 10, 3)]]
        # Rank 4 of 11: three shared factors plus the class shift.
        low_rank = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12))
        cases.append(([f"g{i}" for i in range(30)], low_rank[:, :6],
                      low_rank[:, 6:] + rng.standard_normal(30)[:, None]))
        for gene_ids, x1, x2 in cases:
            got = np1_direction(gene_ids, x1, x2).coefficients
            assert np.max(np.abs(got - np1_gram_whitening(x1, x2))) <= 1e-12

    def test_stays_in_sample_span(self):
        rng = np.random.default_rng(15)
        gene_ids, x1, x2 = random_two_class(rng, n_genes=2000, n1=6, n2=6)
        d = np1_direction(gene_ids, x1, x2)
        pooled = np.hstack([x1, x2])
        centred = pooled - pooled.mean(axis=1, keepdims=True)
        w, v = np.linalg.eigh(centred.T @ centred)
        keep = w > 1e-10 * w.max()
        span = centred @ (v[:, keep] / np.sqrt(w[keep]))
        b = d.coefficients
        assert np.linalg.norm(b - span @ (span.T @ b)) <= 1e-12


class TestFit:
    def test_one_factorisation_serves_both_estimators(self):
        gene_ids, x1, x2 = random_two_class(np.random.default_rng(8), n_genes=40, n1=4, n2=5)
        samples = _two_class_samples(gene_ids, *_pooled(x1, x2))
        for method, public in (("LR1", lr1_direction), ("NP1", np1_direction)):
            fitted, direct = _fit(samples, method), public(gene_ids, x1, x2)
            assert fitted.method == direct.method == method
            assert np.array_equal(fitted.coefficients, direct.coefficients)

    def test_unknown_method_rejected(self):
        samples = _two_class_samples(["A", "B"], *_pooled(TOY_X1, TOY_X2))
        with pytest.raises(ValueError, match="unknown method 'WELCH'"):
            _fit(samples, "WELCH")


class TestCallSignificant:
    def make_direction(self, coefficients, ids=None):
        coefficients = np.asarray(coefficients, dtype=float)
        ids = ids or [f"g{i}" for i in range(len(coefficients))]
        from chardir.direction import CharacteristicDirection

        return CharacteristicDirection(tuple(ids), coefficients, "LR1", 1.0)

    def test_alpha_one_selects_everything(self):
        d = self.make_direction(np.sqrt([0.5, 0.3, 0.2]))
        assert call_significant(d, 1.0).selected_count == 3

    def test_half_alpha_selects_top_gene(self):
        d = self.make_direction(np.sqrt([0.5, 0.3, 0.2]))
        assert call_significant(d, 0.5).selected_count == 1

    def test_point79_selects_two(self):
        d = self.make_direction(np.sqrt([0.5, 0.3, 0.2]))
        assert call_significant(d, 0.79).selected_count == 2

    def test_ranking_sorted_with_lexicographic_ties(self):
        d = self.make_direction([0.5, -0.5, 0.5, -0.5], ids=["d", "b", "a", "c"])
        call = call_significant(d, 1.0)
        assert call.gene_ids.tolist() == ["a", "b", "c", "d"]
        squared = (call.coefficients**2).tolist()
        assert squared == sorted(squared, reverse=True)

    def test_cumulative_fraction_runs_to_one(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal(10)
        b /= np.linalg.norm(b)
        call = call_significant(self.make_direction(b), 0.3)
        assert call.cumulative[-1] == pytest.approx(1.0)

    def test_alpha_out_of_range(self):
        d = self.make_direction([1.0])
        with pytest.raises(ValueError):
            call_significant(d, 0.0)
        with pytest.raises(ValueError):
            call_significant(d, 1.2)

    def test_rankings_unchanged_by_global_flip(self):
        rng = np.random.default_rng(12)
        gene_ids, x1, x2 = [f"g{i}" for i in range(6)], *random_two_class(
            rng, n_genes=6
        )[1:]
        a = call_significant(lr1_direction(gene_ids, x1, x2), 0.6)
        b = call_significant(lr1_direction(gene_ids, -x1, -x2), 0.6)
        assert a.gene_ids.tolist() == b.gene_ids.tolist()
        assert a.selected_count == b.selected_count


class TestWriters:
    def test_tsv_schema_and_flags(self):
        d = TestCallSignificant().make_direction(np.sqrt([0.5, 0.3, 0.2]))
        call = call_significant(d, 0.79)
        buf = io.StringIO()
        write_ranked_tsv(call, buf, method="LR1")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# method: LR1"
        header = lines[2].split("\t")
        assert header == [
            "gene_id",
            "coefficient",
            "squared_coefficient",
            "cumulative_fraction",
            "rank",
            "discriminant_sign",
            "significant",
        ]
        flags = [line.split("\t")[-1] for line in lines[3:]]
        assert flags == ["true", "true", "false"]

    def test_json_fields_match_tsv(self):
        import json

        d = TestCallSignificant().make_direction(np.sqrt([0.6, 0.4]))
        call = call_significant(d, 0.5)
        buf = io.StringIO()
        write_ranked_json(call, buf, method="NP1")
        payload = json.loads(buf.getvalue())
        assert payload["method"] == "NP1"
        assert payload["selected_count"] == 1
        assert [g["rank"] for g in payload["genes"]] == [1, 2]
        assert set(payload["genes"][0]) == {
            "gene_id",
            "coefficient",
            "squared_coefficient",
            "cumulative_fraction",
            "rank",
            "discriminant_sign",
            "significant",
        }
