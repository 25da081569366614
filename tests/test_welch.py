"""Tests for the Welch t-test, Student-t tail and BH correction."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chardir.welch import (
    bh_fdr,
    student_t_two_sided,
    ttest_screen,
    welch_arrays,
)

from oracles import betainc_mpmath, student_t_two_sided_quad

# Below the smallest normal double a relative error is not defined; there
# the value must be negligible instead.
NORMAL_FLOOR = 1e-300


def welch_row(x1, x2):
    """``(t, df, p, undefined)`` of two samples, the one row of
    :func:`welch_arrays`."""
    t, df, p, undefined = welch_arrays(np.reshape(x1, (1, -1)), np.reshape(x2, (1, -1)))
    return float(t[0]), float(df[0]), float(p[0]), bool(undefined[0])


def assert_relative(got: float, want: float, rel: float = 2e-12) -> None:
    if want < NORMAL_FLOOR:
        assert got < 10 * NORMAL_FLOOR, (got, want)
    else:
        assert abs(got - want) <= rel * want, (got, want, abs(got - want) / want)


class TestWelchTest:
    def test_identical_samples(self):
        t, df, p, _ = welch_row([1, 2, 3], [1, 2, 3])
        assert t == 0.0
        assert p == 1.0

    def test_hand_computed_example(self):
        # means 2 and 3, both variances 1: t = -1/sqrt(2/3), df = (2/3)^2 / (1/9) = 4
        t, df, p, _ = welch_row([1, 2, 3], [2, 3, 4])
        assert t == pytest.approx(-1.224744871391589, abs=1e-12)
        assert df == pytest.approx(4.0, abs=1e-12)
        assert p == pytest.approx(0.2878641347266907, abs=1e-15)

    def test_degenerate_equal_means(self):
        t, df, p, undefined = welch_row([0, 0], [0, 0])
        assert undefined
        assert t == 0.0 and math.isnan(df) and p == 1.0

    def test_degenerate_unequal_means_p_zero(self):
        t, df, p, _ = welch_row([1, 1], [2, 2])
        assert math.isinf(t) and t < 0
        assert p == 0.0

    def test_short_sample_rejected(self):
        with pytest.raises(ValueError):
            welch_row([1], [1, 2])

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1 = rng.standard_normal(rng.integers(2, 9))
            x2 = rng.standard_normal(rng.integers(2, 9)) + rng.normal()
            t_ab, df_ab, p_ab, _ = welch_row(x1, x2)
            t_ba, df_ba, p_ba, _ = welch_row(x2, x1)
            assert t_ab == -t_ba
            assert df_ab == df_ba
            assert p_ab == p_ba

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(5)
        x2 = rng.standard_normal(7) + 0.4
        t, df, p, _ = welch_row(x1, x2)
        t2, df2, p2, _ = welch_row(x1 + 13.5, x2 + 13.5)
        assert t2 == pytest.approx(t, rel=1e-9)
        assert df2 == pytest.approx(df, rel=1e-9)
        assert p2 == pytest.approx(p, rel=1e-9)


class TestWelchArrays:
    def test_rows_match_scipy_stats(self):
        from scipy import stats

        rng = np.random.default_rng(10)
        # Column-major, as align_design returns it.
        x1 = np.asfortranarray(rng.standard_normal((40, 3)) * rng.uniform(0.1, 5, (40, 1)))
        x2 = np.asfortranarray(rng.standard_normal((40, 7)) + rng.normal(0, 2, (40, 1)))
        t, df, p, undefined = welch_arrays(x1, x2)
        assert not undefined.any()
        for i in range(40):
            ref = stats.ttest_ind(x1[i], x2[i], equal_var=False)
            assert t[i] == pytest.approx(ref.statistic, rel=1e-12)
            assert df[i] == pytest.approx(ref.df, rel=1e-12)
            assert p[i] == pytest.approx(ref.pvalue, rel=1e-12, abs=1e-15)

    def test_degenerate_rows(self):
        x1 = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1.0]])
        x2 = np.array([[2.0, 2.0], [0.0, 0.0], [3.0, 5.0]])
        t, df, p, undefined = welch_arrays(x1, x2)
        assert undefined.tolist() == [False, True, False]
        assert t[0] == -math.inf and df[0] == 2.0 and p[0] == 0.0
        assert t[1] == 0.0 and math.isnan(df[1]) and p[1] == 1.0
        assert (t[2], df[2], p[2], False) == welch_row(x1[2], x2[2])

    @pytest.mark.parametrize("n_rows", [0, 1, 23])
    def test_same_result_whatever_the_block_size(self, monkeypatch, n_rows):
        import chardir.welch

        rng = np.random.default_rng(n_rows)
        # Column-major class views of one pooled array, as the ttest command
        # passes them.
        scale = rng.uniform(0.1, 5, (n_rows, 1))
        pooled = np.asfortranarray(rng.standard_normal((n_rows, 9)) * scale)
        pooled[:, 4:] += rng.normal(0, 2, (n_rows, 1))
        # Degenerate rows on both sides of the boundaries of 7-row blocks:
        # equal means at rows 6 and 14, unequal means at rows 7 and 13.
        for row, (a, b) in {6: (1.5, 1.5), 7: (0.0, 2.0), 13: (-1.0, 3.0), 14: (0.0, 0.0)}.items():
            if row < n_rows:
                pooled[row, :4], pooled[row, 4:] = a, b
        x1, x2 = pooled[:, :4], pooled[:, 4:]
        whole = welch_arrays(x1, x2)
        monkeypatch.setattr(chardir.welch, "_BLOCK_ROWS", 7)
        blocked = welch_arrays(x1, x2)
        assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]
        assert [a.shape for a in blocked] == [(n_rows,)] * 4
        if n_rows == 23:
            assert np.flatnonzero(whole[3]).tolist() == [6, 14]
            assert np.flatnonzero(np.isinf(whole[0])).tolist() == [7, 13]
        for i in range(n_rows):
            row = welch_arrays(x1[i : i + 1], x2[i : i + 1])
            assert [a[i : i + 1].tobytes() for a in blocked] == [a.tobytes() for a in row]


class TestStudentTail:
    def test_matches_quadrature_oracle_on_grid(self):
        for df in (1.0, 2.0, 4.0, 10.0, 17.3, 18.0, 100.0):
            for t in np.linspace(-10, 10, 41):
                assert student_t_two_sided(float(t), df) == pytest.approx(
                    student_t_two_sided_quad(float(t), df), abs=1e-12
                )
            # Near t = 0, where p is within 1e-6 of 1.
            for t in (1e-8, -1e-8, 4.9e-7, -4.9e-7):
                assert student_t_two_sided(t, df) == pytest.approx(
                    student_t_two_sided_quad(t, df), abs=1e-12
                )

    def test_matches_mpmath_on_grid(self):
        dfs = (1, 1.5, 2, 3.7, 8, 17.3, 18, 50, 400, 1e4)
        ts = (1e-8, 4.9e-7, 1e-4, 0.3, 1, 2, 5, 10, 40, 300, 1e4)
        df, t = (np.array(v, dtype=float).ravel() for v in np.meshgrid(dfs, ts))
        p = student_t_two_sided(np.concatenate([t, -t]), np.concatenate([df, df]))
        for k, (df_k, t_k) in enumerate(zip(df.tolist(), t.tolist())):
            x = Fraction(df_k) / (Fraction(df_k) + Fraction(t_k) ** 2)
            assert_relative(p[k], betainc_mpmath(df_k / 2, 0.5, x))
            assert p[k + len(t)] == p[k]

    def test_exact_ends(self):
        df = np.array([1.0, 3.7, 18.0, 1e4])
        assert student_t_two_sided(np.full(4, math.inf), df).tolist() == [0.0] * 4
        assert student_t_two_sided(np.full(4, -math.inf), df).tolist() == [0.0] * 4
        assert student_t_two_sided(np.zeros(4), df).tolist() == [1.0] * 4

    def test_nan_df_passes_through_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = student_t_two_sided([0.0, 1.0, math.inf], [math.nan, math.nan, 3.0])
            assert math.isnan(p[0]) and math.isnan(p[1]) and p[2] == 0.0
            # The undefined row of welch_arrays reads df = NaN.
            _, df, p, undefined = welch_arrays([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [2.0, 3.0]])
            assert undefined.tolist() == [True, False]
            assert math.isnan(df[0]) and p[0] == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = float(rng.normal() * 5)
            df = float(rng.uniform(1, 50))
            p = student_t_two_sided(t, df)
            assert 0.0 <= p <= 1.0
            assert p == student_t_two_sided(-t, df)


class TestBhFdr:
    def test_all_equal(self):
        np.testing.assert_allclose(bh_fdr([0.2] * 5), [0.2] * 5)

    def test_hand_stepup_four_values(self):
        np.testing.assert_allclose(
            bh_fdr([0.01, 0.02, 0.03, 0.04]), [0.04, 0.04, 0.04, 0.04]
        )

    def test_hand_two_values(self):
        np.testing.assert_allclose(bh_fdr([0.005, 0.9]), [0.01, 0.9])

    def test_returned_in_input_order(self):
        p = [0.9, 0.005]
        np.testing.assert_allclose(bh_fdr(p), [0.9, 0.01])

    def test_q_never_below_p(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(size=rng.integers(1, 40))
            assert np.all(bh_fdr(p) >= p - 1e-15)

    def test_monotone_in_order_statistics(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = np.sort(rng.uniform(size=30))
            q = bh_fdr(p)
            assert np.all(np.diff(q) >= -1e-15)

    def test_capped_at_one(self):
        assert np.all(bh_fdr([1.0, 0.99, 0.5]) <= 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.5])


class TestScreen:
    def test_degenerate_gene_not_significant(self):
        screen = ttest_screen(["G1"], np.ones((1, 3)), np.ones((1, 3)), 0.05)
        assert screen.q[0] == 1.0
        assert not screen.significant[0]
        assert "zero variance" in screen.diagnostic[0]

    def test_null_genes_rarely_flagged(self):
        # BH controls the FDR under the null; pooled over 20 seeded runs of
        # 100 pure-noise genes we allow at most 5 stray calls.
        flagged = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x1 = rng.standard_normal((100, 4))
            x2 = rng.standard_normal((100, 4))
            screen = ttest_screen([f"g{i}" for i in range(100)], x1, x2, 0.05)
            flagged += int(screen.significant.sum())
        assert flagged <= 5

    def test_shifted_gene_detected(self):
        rng = np.random.default_rng(7)
        x1 = rng.standard_normal((51, 5))
        x2 = rng.standard_normal((51, 5))
        x2[0] += 10.0  # ten-sigma shift
        screen = ttest_screen([f"g{i}" for i in range(51)], x1, x2, 0.05)
        assert screen.significant[0]
        assert int(screen.significant[1:].sum()) == 0

    def test_screen_matches_welch_test_per_gene(self):
        rng = np.random.default_rng(8)
        x1 = rng.standard_normal((10, 4))
        x2 = rng.standard_normal((10, 6))
        screen = ttest_screen([f"g{i}" for i in range(10)], x1, x2, 0.1)
        for i in range(10):
            t, df, p, _ = welch_row(x1[i], x2[i])
            assert screen.t[i] == t and screen.df[i] == df and screen.p[i] == p

    def test_q_at_least_p(self):
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal((30, 4))
        x2 = rng.standard_normal((30, 4))
        screen = ttest_screen([f"g{i}" for i in range(30)], x1, x2, 0.05)
        assert np.all(screen.q >= screen.p)
