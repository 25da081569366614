"""Tests for the synthetic-data generator, scoring, and benchmark sweep."""

from dataclasses import replace

import numpy as np
import pytest

from chardir.direction import lr1_direction, np1_direction
from chardir.simulate import (
    METHODS,
    ROC_GRID,
    SyntheticSpec,
    _derived_seed,
    _run_single,
    benchmark_sweep_roc,
    generate,
    method_scores,
    score_recovery,
    synthetic_gene_ids,
)
from chardir.welch import welch_arrays

from oracles import mann_whitney_auc


def spec(p=50, n=5, seed=0, **kwargs):
    return SyntheticSpec(n_genes=p, samples_per_class=n, seed=seed, **kwargs)


class TestGenerate:
    def test_zero_magnitude_keeps_means_equal(self):
        outcome = generate(spec(de_magnitude=0.0))
        assert np.all(outcome.de_vector == 0.0)
        assert outcome.de_mask.sum() == 5  # mask itself is unchanged

    def test_mask_size_is_rounded_fraction(self):
        outcome = generate(spec(p=100))
        assert outcome.de_mask.sum() == 10

    def test_covariance_spectrum(self):
        s = spec(p=60, seed=3)
        outcome = generate(s)
        c = s.n_correlating
        block_cov = outcome.rotation @ np.diag(
            [s.variance_scale] * s.intrinsic_dim + [1.0] * (c - s.intrinsic_dim)
        ) @ outcome.rotation.T
        sigma = np.eye(s.n_genes)
        sigma[:c, :c] = block_cov
        eigvals = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        expected = np.array(
            [s.variance_scale] * s.intrinsic_dim + [1.0] * (s.n_genes - s.intrinsic_dim)
        )
        np.testing.assert_allclose(eigvals, expected, atol=1e-8)

    def test_reproducible_bit_for_bit(self):
        a = generate(spec(seed=11))
        b = generate(spec(seed=11))
        assert np.array_equal(a.x_control, b.x_control)
        assert np.array_equal(a.x_perturbed, b.x_perturbed)
        assert np.array_equal(a.de_vector, b.de_vector)

    def test_de_vector_norm_and_support(self):
        s = spec(p=80, seed=5)
        outcome = generate(s)
        assert np.linalg.norm(outcome.de_vector) == pytest.approx(s.de_magnitude)
        assert np.all(outcome.de_vector[~outcome.de_mask] == 0.0)
        # Support sits inside the correlating block.
        assert s.n_de <= s.n_correlating
        assert np.all(np.nonzero(outcome.de_vector)[0] < s.n_correlating)

    def test_sampling_matches_planted_shift(self):
        s = spec(p=40, n=4000, seed=7)
        outcome = generate(s)
        observed = outcome.x_perturbed.mean(axis=1) - outcome.x_control.mean(axis=1)
        # Mean difference concentrates around the planted vector.
        assert np.linalg.norm(observed - outcome.de_vector) < 1.0

    def test_shapes(self):
        outcome = generate(spec(p=30, n=4))
        assert outcome.x_control.shape == (30, 4)
        assert outcome.x_perturbed.shape == (30, 4)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            spec(p=50, intrinsic_dim=6)  # d > c = 5
        with pytest.raises(ValueError):
            spec(p=4)  # frac_de rounds to zero
        with pytest.raises(ValueError):
            spec(n=1)
        with pytest.raises(ValueError):
            SyntheticSpec(n_genes=50, samples_per_class=5, seed=0, variance_scale=1.0)
        for field in ("variance_scale", "de_magnitude"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{field} must be a finite"):
                    spec(**{field: value})


class TestScoreRecovery:
    def test_perfect_ranking(self):
        score = score_recovery([3.0, 2.0, 1.0], [True, True, False])
        assert score.auc == 1.0
        assert score.gini == 1.0

    def test_inverted_ranking(self):
        score = score_recovery([1.0, 2.0, 3.0], [True, True, False])
        assert score.auc == 0.0
        assert score.gini == -1.0

    def test_half_right(self):
        score = score_recovery([2.0, 1.0, 3.0], [True, False, False])
        assert score.auc == pytest.approx(0.5)
        assert score.gini == pytest.approx(0.0)

    def test_gini_identity_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            scores = rng.standard_normal(n)
            mask = rng.random(n) < 0.4
            if mask.all() or not mask.any():
                continue
            result = score_recovery(scores, mask)
            assert result.gini == 2.0 * result.auc - 1.0

    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(5, 40))
            scores = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            mask = rng.random(n) < 0.5
            if mask.all() or not mask.any():
                continue
            result = score_recovery(scores, mask)
            assert result.auc == pytest.approx(mann_whitney_auc(scores, mask), abs=1e-12)

    def test_roc_endpoints(self):
        result = score_recovery([0.3, 0.1, 0.9, 0.5], [True, False, True, False])
        assert (result.fpr[0], result.tpr[0]) == (0.0, 0.0)
        assert (result.fpr[-1], result.tpr[-1]) == (1.0, 1.0)

    def test_null_scores_average_to_zero_gini(self):
        rng = np.random.default_rng(2)
        mask = np.arange(100) < 10
        ginis = [
            score_recovery(rng.standard_normal(100), mask).gini for _ in range(200)
        ]
        assert abs(float(np.mean(ginis))) < 0.05

    def test_degenerate_masks_rejected(self):
        with pytest.raises(ValueError):
            score_recovery([1.0, 2.0], [True, True])
        with pytest.raises(ValueError):
            score_recovery([1.0, 2.0], [False, False])


class TestMethodScores:
    def test_lr1_ranks_planted_genes_high(self):
        # Per-run Gini is noisy; the average over seeds is solidly positive.
        ginis = []
        for seed in range(10):
            outcome = generate(spec(p=50, n=6, seed=seed))
            scores = method_scores(outcome, ("LR1",))["LR1"]
            ginis.append(score_recovery(scores, outcome.de_mask).gini)
        assert float(np.mean(ginis)) > 0.4

    def test_welch_scores_finite_or_inf(self):
        outcome = generate(spec(p=30, n=4, seed=10))
        scores = method_scores(outcome, ("WELCH",))["WELCH"]
        assert np.all(scores >= 0.0)

    def test_degenerate_estimators_score_none(self):
        outcome = generate(spec(p=30, n=4, seed=2))
        scores = method_scores(replace(outcome, x_perturbed=outcome.x_control.copy()))
        assert list(scores) == list(METHODS)
        assert scores["LR1"] is None and scores["NP1"] is None
        assert scores["WELCH"].shape == (30,)

    def test_unknown_method_rejected(self):
        outcome = generate(spec())
        with pytest.raises(ValueError):
            method_scores(outcome, ("LDA",))


class TestBenchmark:
    def test_single_run_matches_direct_call(self):
        template = spec(p=50, n=5, seed=42)
        cells, curves = benchmark_sweep_roc(template, [5], 5, 1, methods=METHODS)
        assert [c.method for c in cells] == [c.method for c in curves] == list(METHODS)

        run_spec = replace(template, samples_per_class=5, seed=_derived_seed(42, 5, 0, 0))
        outcome = generate(run_spec)
        gene_ids = synthetic_gene_ids(50)
        x1, x2 = outcome.x_control, outcome.x_perturbed
        direct_scores = {
            "LR1": lr1_direction(gene_ids, x1, x2).coefficients ** 2,
            "NP1": np1_direction(gene_ids, x1, x2).coefficients ** 2,
            "WELCH": -np.log(welch_arrays(x1, x2)[2]),
        }
        for cell, curve in zip(cells, curves):
            direct = score_recovery(direct_scores[cell.method], outcome.de_mask)
            assert cell.mean_gini == direct.gini
            assert cell.n_runs == 1 and cell.n_excluded == 0
            assert np.array_equal(curve.tpr, np.interp(curve.fpr, direct.fpr, direct.tpr))

    def test_one_factorisation_per_run(self, monkeypatch):
        import chardir.direction

        calls = []
        original = chardir.direction._factor_samples
        monkeypatch.setattr(
            chardir.direction, "_factor_samples", lambda *b: calls.append(1) or original(*b)
        )
        record = _run_single(spec(p=50, n=5, seed=3), 5, 0, METHODS)
        assert len(calls) == 1
        assert list(record) == list(METHODS)

    def test_every_run_carries_a_roc_row(self):
        template = spec(p=50, n=5, seed=3)
        for size in (4, 5):
            record = _run_single(template, size, 0, METHODS)
            for method in METHODS:
                gini, roc = record[method]
                assert roc.shape == ROC_GRID.shape and -1.0 <= gini <= 1.0
                assert roc[-1] == 1.0 and np.all(np.diff(roc) >= 0)
        # The ROC size picks the runs the curves average, never a Gini.
        cells = [benchmark_sweep_roc(template, [4, 5], roc, 2)[0] for roc in (None, 4, 5, 6)]
        assert all(c == cells[0] for c in cells[1:])

    def test_degenerate_runs_are_counted_and_excluded(self, monkeypatch):
        import chardir.simulate

        calls = []
        original = chardir.simulate.generate

        def first_run_without_signal(run_spec):
            calls.append(run_spec)
            outcome = original(run_spec)
            if len(calls) > 1:
                return outcome
            return replace(outcome, x_perturbed=outcome.x_control.copy())

        monkeypatch.setattr(chardir.simulate, "generate", first_run_without_signal)
        cells, curves = benchmark_sweep_roc(spec(p=30, n=4, seed=5), [4], 4, 3, methods=METHODS)
        assert len(calls) == 3
        counts = {c.method: (c.n_runs, c.n_excluded) for c in cells}
        assert counts == {"LR1": (2, 1), "NP1": (2, 1), "WELCH": (3, 0)}
        assert [c.method for c in curves] == list(METHODS)

    def test_null_welch_gini_within_three_stderr(self):
        template = spec(p=50, n=5, seed=7, de_magnitude=0.0)
        (cell,), _ = benchmark_sweep_roc(template, [5], None, 60, methods=("WELCH",))
        assert abs(cell.mean_gini) <= 3.0 * cell.stderr

    def test_deterministic_across_worker_counts(self):
        template = spec(p=30, n=4, seed=13)
        sequential = benchmark_sweep_roc(template, [3, 4], None, 6, methods=("LR1", "WELCH"))
        parallel = benchmark_sweep_roc(
            template, [3, 4], None, 6, methods=("LR1", "WELCH"), n_jobs=2
        )
        assert sequential == parallel

    def test_roc_grid_and_determinism(self):
        template = spec(p=30, n=4, seed=14)
        _, curves_a = benchmark_sweep_roc(template, [], 4, 5, methods=("LR1",))
        _, curves_b = benchmark_sweep_roc(template, [], 4, 5, methods=("LR1",), n_jobs=2)
        assert np.array_equal(curves_a[0].tpr, curves_b[0].tpr)
        assert curves_a[0].fpr[0] == 0.0 and curves_a[0].fpr[-1] == 1.0
        assert len(curves_a[0].fpr) == 101
        assert np.all(np.diff(curves_a[0].tpr) >= -1e-12)

    def test_shared_runs_match_separate_benchmarks(self):
        template = spec(p=30, n=4, seed=15)
        methods = ("LR1", "WELCH")
        cells, curves = benchmark_sweep_roc(template, [3, 4, 3], 4, 3, methods)
        assert cells == benchmark_sweep_roc(template, [3, 4, 3], None, 3, methods)[0]
        _, separate = benchmark_sweep_roc(template, [], 4, 3, methods)
        assert [c.method for c in curves] == [c.method for c in separate]
        for shared, alone in zip(curves, separate):
            assert shared.tpr.tobytes() == alone.tpr.tobytes()
            assert shared.fpr.tobytes() == alone.fpr.tobytes()

    def test_method_validation(self):
        with pytest.raises(ValueError):
            benchmark_sweep_roc(spec(), [3], None, 1, methods=("BOGUS",))
        with pytest.raises(ValueError):
            benchmark_sweep_roc(spec(), [3], None, 0)
