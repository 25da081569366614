"""Tests for the log-space special functions: Loader's binomial density,
the regularized incomplete beta and the hypergeometric upper tail."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chardir.data import GeneSet, GeneSetLibrary
from chardir.enrichment import hypergeom_enrich
from chardir.special import _betainc, _log_dbinom, _log_hypergeom_tail

from oracles import (
    anchored_hypergeom_tail,
    betainc_mpmath,
    exact_hypergeom_tail,
    exact_log_dbinom,
    exact_log_hypergeom_tail,
    log_dbinom_mpmath,
)

# Below the smallest normal double a relative error is not defined; there
# the value must be negligible instead.
NORMAL_FLOOR = 1e-300

# Success probabilities whose complements are exact doubles, so the density
# the kernel sees is the one the oracles compute.
PROBABILITIES = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 8),
                 Fraction(15, 16), Fraction(1, 1024)]


def assert_relative(got: float, want: float, rel: float = 2e-12) -> None:
    if want < NORMAL_FLOOR:
        assert got < 10 * NORMAL_FLOOR, (got, want)
    else:
        assert abs(got - want) <= rel * want, (got, want, abs(got - want) / want)


def assert_log_density(got: float, want: float) -> None:
    """Within 1e-13 relative: of the density where its log is at most 1 in
    size, and of the log beyond, where the log itself holds no more digits."""
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)


class TestLogDbinom:
    @pytest.mark.parametrize("size", [1, 2, 7, 60, 1_000, 20_000])
    def test_integer_x_matches_exact_density(self, size):
        for x in sorted({0, 1, size // 3, size // 2, size - 1, size}):
            for p in PROBABILITIES:
                got = float(_log_dbinom(x, size, float(p), float(1 - p)))
                assert_log_density(got, exact_log_dbinom(x, size, p))

    @pytest.mark.parametrize("x", [0.5, 1.25, 7.5, 100.25, 9999.5])
    def test_real_x_matches_mpmath(self, x):
        for rest in (0.0, 0.5, 2.75, 40.5, 12345.25):
            for p in PROBABILITIES:
                got = float(_log_dbinom(x, x + rest, float(p), float(1 - p)))
                assert_log_density(got, log_dbinom_mpmath(x, x + rest, float(p)))

    def test_broadcasts_over_arrays(self):
        x = np.array([[0.0, 1.5], [3.0, 4.0]])
        got = _log_dbinom(x, 4.0, 0.5, 0.5)
        assert got.shape == (2, 2)
        alone = [float(_log_dbinom(v, 4.0, 0.5, 0.5)) for v in x.ravel()]
        assert got.ravel().tolist() == alone


class TestIncompleteBeta:
    def test_angle_null_grid(self):
        # I_{cos^2 theta}(1/2, (n-1)/2), the principal-angle null.
        for n in (3, 10, 100, 2000, 20000):
            for c2 in (1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
                assert_relative(
                    _betainc(0.5, (n - 1) / 2, c2, 1.0 - c2),
                    betainc_mpmath(0.5, (n - 1) / 2, c2),
                )

    def test_both_parameters_large_grid(self):
        # I_{sin^2 theta}((n-m)/2, m/2), the null of an m-gene set.
        n = 20000
        for m in (5, 15, 495):
            for s2 in (0.5, 0.7, 0.9, 0.95, 0.97, 0.975, 0.98, 0.99, 0.995, 0.999):
                assert_relative(
                    _betainc((n - m) / 2, m / 2, s2, 1.0 - s2),
                    betainc_mpmath((n - m) / 2, m / 2, s2),
                )

    def test_complement_and_ends(self):
        a = np.array([0.5, 3.0, 40.0, 9997.5])
        b = np.array([7.0, 0.5, 40.0, 2.5])
        x = np.array([0.2, 0.9, 0.5, 0.9996])
        total = _betainc(a, b, x, 1.0 - x) + _betainc(b, a, 1.0 - x, x)
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)
        assert _betainc(a, b, 0.0, 1.0).tolist() == [0.0] * 4
        assert _betainc(a, b, 1.0, 0.0).tolist() == [1.0] * 4
        assert np.isnan(_betainc([math.nan, 0.0, math.inf], 1.0, 0.5, 0.5)).all()
        assert _betainc(np.empty(0), 1.0, 0.5, 0.5).shape == (0,)


class TestLogHypergeomTail:
    @pytest.mark.parametrize(
        "case",
        [(290, 1000, 300, 20_000), (400, 400, 495, 20_000), (300, 2000, 300, 20_000)],
    )
    def test_far_tail_log_p(self, case):
        # p underflows to 0 in the first two cases and is subnormal in the third.
        assert abs(_log_hypergeom_tail(*case) - exact_log_hypergeom_tail(*case)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5, 14])
    def test_log_p_near_one_keeps_relative_accuracy(self, k):
        # The mode (15) lies in the tail, so p = 1 - P(K < k) with P(K < k)
        # down to 1.8e-7 at k = 1.
        exact = exact_log_hypergeom_tail(k, 1000, 300, 20_000)
        assert abs(_log_hypergeom_tail(k, 1000, 300, 20_000) - exact) <= 1e-12 * abs(exact)

    def test_grid_relative_accuracy_where_p_is_normal(self):
        checked = 0
        for universe in (7, 60, 1_000, 20_000):
            for marked in sorted({1, universe // 50 + 1, universe // 7, universe // 2, universe - 1}):
                for drawn in sorted({1, 15, 300, universe // 3, universe - 2} - {0}):
                    if drawn > min(universe, 2_000):
                        continue
                    lo, hi = max(0, marked + drawn - universe), min(marked, drawn)
                    for k in sorted(set(np.linspace(lo, hi, 13).astype(int).tolist())):
                        exact = exact_hypergeom_tail(k, marked, drawn, universe)
                        if exact < np.finfo(float).tiny:
                            continue
                        got = math.exp(_log_hypergeom_tail(k, marked, drawn, universe))
                        assert got == pytest.approx(exact, rel=1e-12, abs=0.0), (k, marked, drawn, universe)
                        assert got == pytest.approx(
                            anchored_hypergeom_tail(k, marked, drawn, universe), rel=1e-12, abs=0.0
                        )
                        checked += 1
        assert checked > 300

    def test_batch_values_equal_values_alone(self):
        rng = np.random.default_rng(14)
        sizes = np.exp(rng.uniform(np.log(15), np.log(500), 300)).astype(int)
        enrich = (rng.binomial(sizes, 0.05 + 0.5 * (rng.random(300) < 0.1)), 950, sizes, 20_000)
        overlaps = rng.integers(0, 60, 100)
        profile = (overlaps, 400, 300, 20_000)
        for case in (enrich, profile):
            batch = _log_hypergeom_tail(*case)
            alone = [_log_hypergeom_tail(*point) for point in zip(*np.broadcast_arrays(*case))]
            assert batch.tobytes() == np.array(alone).tobytes()
            assert np.all(np.isfinite(batch)) and np.all(batch <= 0.0)

    def test_scalar_tail_is_one_point_of_the_kernel(self):
        universe = [f"g{i}" for i in range(20_000)]
        library = GeneSetLibrary.from_sets([GeneSet("S", "", frozenset(universe[:300]))])
        result = hypergeom_enrich(universe[:2000], library, universe)
        assert result.p[0] == math.exp(_log_hypergeom_tail(300, 2000, 300, 20_000))
