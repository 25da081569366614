"""Tests for enrichment statistics: hypergeometric tail, principal-angle
p-values, overlap curves, and the sliding-window profile."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

import chardir.data
import chardir.enrichment
from chardir.data import GeneSet, GeneSetLibrary, parse_gmt
from chardir.enrichment import (
    aggregate_overlap_curves,
    angle_enrich,
    angle_null_pvalue,
    dedupe_tss_associations,
    hypergeom_enrich,
    overlap_counts,
    sliding_window_profile,
)
from chardir.special import _log_hypergeom_tail

from oracles import (
    aggregate_ratios_by_n,
    angle_enrich_keysort,
    angle_pdf,
    angle_pvalue_betainc,
    angle_pvalue_quad,
    enumerated_hypergeom_tail,
    exact_hypergeom_tail,
    hypergeom_enrich_keysort,
    hypergeom_enrich_rows,
    keysort_library,
    overlap_counts_keysort,
    overlap_counts_loop,
)


def make_direction(coefficients, ids=None):
    """``(gene_ids, coefficients)`` of a direction, ids ``g0, g1, ...`` by default."""
    coefficients = np.asarray(coefficients, dtype=float)
    return ids or [f"g{i}" for i in range(len(coefficients))], coefficients


class TestHypergeomTail:
    def test_k_zero_is_one(self):
        assert np.exp(_log_hypergeom_tail(0, 5, 2, 10)) == 1.0

    def test_small_case_vs_full_enumeration(self):
        # C(10, 2) draws enumerated one by one: only draws of two marked
        # genes count, 10 of 45.
        expected = enumerated_hypergeom_tail(2, 5, 2, 10)
        assert expected == pytest.approx(10 / 45)
        assert np.exp(_log_hypergeom_tail(2, 5, 2, 10)) == pytest.approx(expected, rel=1e-14)

    def test_everything_significant_gives_one(self):
        for k in range(0, 4):
            assert np.exp(_log_hypergeom_tail(k, 10, 3, 10)) == 1.0

    def test_matches_exact_oracle_on_medium_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            universe = int(rng.integers(1, 400))
            n_marked = int(rng.integers(0, universe + 1))
            n_drawn = int(rng.integers(0, universe + 1))
            k = int(rng.integers(0, min(n_marked, n_drawn) + 1))
            expected = exact_hypergeom_tail(k, n_marked, n_drawn, universe)
            assert np.exp(_log_hypergeom_tail(k, n_marked, n_drawn, universe)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_large_universe_accuracy(self):
        cases = [
            (30, 500, 1000, 100_000),
            (3, 10, 300, 60_000),
            (250, 10_000, 2_000, 100_000),
            (950, 1_000, 50_000, 100_000),
        ]
        for k, n_marked, n_drawn, universe in cases:
            expected = exact_hypergeom_tail(k, n_marked, n_drawn, universe)
            assert np.exp(_log_hypergeom_tail(k, n_marked, n_drawn, universe)) == pytest.approx(
                expected, rel=1e-12
            )

    def test_forced_overlap_support_bound(self):
        # Drawing 8 of 10 with 9 marked forces at least 7 overlaps.
        assert np.exp(_log_hypergeom_tail(7, 9, 8, 10)) == 1.0

    def test_inconsistent_counts_rejected(self):
        # The callers reject counts the kernel cannot take: more marked or
        # drawn genes than the universe, and an empty draw.
        genes, distances = ["a", "b", "c"], [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="more distinct significant genes"):
            sliding_window_profile(genes, distances, ["a", "b", "c", "d", "e"], 2, 4)
        with pytest.raises(ValueError):
            sliding_window_profile(genes, distances, ["a"], 3, 2)
        with pytest.raises(ValueError):
            sliding_window_profile(genes, distances, ["a"], 0, 10)


class TestPrincipalAngle:
    @staticmethod
    def angle(direction, *members):
        """``(theta, p, diagnostic)`` of one set through ``angle_enrich``."""
        library = GeneSetLibrary.from_sets([GeneSet("S", "", frozenset(members))])
        result = angle_enrich(*direction, library)
        return float(result.theta[0]), float(result.p[0]), str(result.diagnostic[0])

    def test_full_set_gives_zero(self):
        d = make_direction(np.array([0.6, 0.8, 0.0]))
        theta, _, diagnostic = self.angle(d, *d[0])
        assert theta == pytest.approx(0.0)
        assert diagnostic == ""

    def test_partial_projection(self):
        d = make_direction(np.array([0.6, 0.8, 0.0]), ids=["A", "B", "C"])
        theta, _, _ = self.angle(d, "A")
        assert theta == pytest.approx(math.acos(0.6), abs=1e-12)

    def test_unsupported_set_is_orthogonal(self):
        d = make_direction(np.array([1.0, 0.0, 0.0]), ids=["A", "B", "C"])
        theta, _, _ = self.angle(d, "B", "C")
        assert theta == pytest.approx(math.pi / 2)

    def test_absent_members_counted(self):
        # Members outside the direction's genes add nothing to the angle: the
        # set scores as its one present member, and a set of absent ones is
        # flagged.
        d = make_direction(np.array([0.6, 0.8, 0.0]), ids=["A", "B", "C"])
        assert self.angle(d, "A", "Z1", "Z2") == self.angle(d, "A")
        assert self.angle(d, "A")[2] == ""
        assert self.angle(d, "Z1", "Z2") == (math.pi / 2, 1.0, "no overlap with gene universe")

    def test_coefficients_must_match_gene_ids(self):
        library = GeneSetLibrary.from_sets([GeneSet("S", "", frozenset({"A"}))])
        with pytest.raises(ValueError, match="coefficients and gene_ids lengths differ"):
            angle_enrich(["A", "B", "C"], [0.6, 0.8], library)
        with pytest.raises(ValueError, match="gene_ids contain duplicates"):
            angle_enrich(["A", "A", "B"], [0.6, 0.0, 0.8], library)


class TestAngleNull:
    def test_boundary_values(self):
        assert angle_null_pvalue(0.0, 10) == 1.0
        assert angle_null_pvalue(math.pi / 2, 10) == 0.0

    def test_n3_closed_form_is_cosine(self):
        for theta in np.linspace(0, math.pi / 2, 50):
            assert angle_null_pvalue(float(theta), 3) == pytest.approx(
                math.cos(theta), abs=1e-15
            )

    def test_matches_incomplete_beta_oracle(self):
        for n in (3, 5, 20, 100, 1000):
            for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
                assert angle_null_pvalue(float(theta), n) == pytest.approx(
                    angle_pvalue_betainc(float(theta), n), rel=1e-13
                )

    def test_matches_quadrature_oracle(self):
        for n in (3, 10, 100, 1000, 20000):
            for theta in np.linspace(0.0, math.pi / 2, 41):
                assert angle_null_pvalue(float(theta), n) == pytest.approx(
                    angle_pvalue_quad(float(theta), n), abs=1e-11
                )

    def test_vectorised_over_angles(self):
        thetas = np.linspace(0.0, math.pi / 2, 9)
        p = angle_null_pvalue(thetas, 50)
        assert p.shape == thetas.shape
        assert p.tolist() == [angle_null_pvalue(float(t), 50) for t in thetas]

    def test_density_normalized(self):
        for n in (3, 10, 100, 1000):
            mass, _ = integrate.quad(
                lambda phi: float(angle_pdf(phi, n)), 0, math.pi / 2, limit=200
            )
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_strictly_decreasing_in_theta(self):
        # Strict decrease is checked where the value is resolvable above
        # the 1e-9 quadrature tolerance (the closed-form oracle locates
        # that band); over the full range the tail is still nonincreasing.
        thetas = np.linspace(0.0, math.pi / 2, 60)
        for n in (3, 20, 200):
            kept = [
                float(t)
                for t in thetas
                if 1e-6 < angle_pvalue_betainc(float(t), n) < 1 - 1e-6
            ]
            assert len(kept) >= 5
            p = [angle_null_pvalue(t, n) for t in kept]
            assert all(a > b for a, b in zip(p, p[1:]))
            p_full = [angle_null_pvalue(float(t), n) for t in thetas]
            assert all(a >= b - 1e-9 for a, b in zip(p_full, p_full[1:]))

    def test_dimension_pushes_mass_toward_right_angle(self):
        # Higher dimension concentrates the null near pi/2: the upper
        # tail at a fixed angle grows with n, equivalently the aligned
        # (small-angle) tail 1 - p shrinks, making alignment more
        # surprising in higher dimension.
        theta = 1.4
        p = [angle_null_pvalue(theta, n) for n in (3, 10, 30, 100)]
        assert all(a < b for a, b in zip(p, p[1:]))

    def test_empirical_null_matches_for_m1(self):
        # 1e5 isotropic directions in 20 dims against a single axis: the
        # empirical angle law must match the analytic tail (KS < 0.01).
        rng = np.random.default_rng(77)
        draws = rng.standard_normal((100_000, 20))
        cosines = np.abs(draws[:, 0]) / np.linalg.norm(draws, axis=1)
        thetas = np.sort(np.arccos(cosines))
        grid = np.linspace(0.02, math.pi / 2 - 0.02, 200)
        empirical_cdf = np.searchsorted(thetas, grid, side="right") / len(thetas)
        analytic_cdf = np.array([1.0 - angle_null_pvalue(float(t), 20) for t in grid])
        assert np.max(np.abs(empirical_cdf - analytic_cdf)) < 0.01

    def test_m_greater_one_monotone_ordering_only(self):
        # For multi-gene sets the m=1 law is not exact; check only that
        # larger observed angles map to smaller p-values.
        rng = np.random.default_rng(78)
        draws = rng.standard_normal((2_000, 20))
        mass = (draws[:, :5] ** 2).sum(axis=1) / (draws**2).sum(axis=1)
        thetas = np.arccos(np.sqrt(mass))
        p = np.array([angle_null_pvalue(float(t), 20) for t in thetas])
        order = np.argsort(thetas)
        assert np.all(np.diff(p[order]) <= 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            angle_null_pvalue(-0.1, 10)
        with pytest.raises(ValueError):
            angle_null_pvalue(2.0, 10)
        with pytest.raises(ValueError):
            angle_null_pvalue(0.5, 2)


class TestAngleEnrich:
    def test_full_span_set_is_least_surprising(self):
        d = make_direction(np.full(4, 0.5))
        lib = GeneSetLibrary.from_sets((GeneSet("ALL", "", frozenset(d[0])),))
        result = angle_enrich(*d, lib)
        assert result.theta[0] == pytest.approx(0.0)
        assert result.p[0] == pytest.approx(1.0, abs=1e-9)

    def test_identical_sets_identical_stats(self):
        d = make_direction(np.array([0.8, 0.36, 0.48]))
        members = frozenset({"g0", "g1"})
        lib = GeneSetLibrary.from_sets(
            (GeneSet("A", "", members), GeneSet("B", "", members))
        )
        result = angle_enrich(*d, lib)
        assert result.p[0] == result.p[1] and result.q[0] == result.q[1]

    def test_concentrated_direction_extreme_alignment(self):
        # b^2 = 0.99 on one gene in a 100-gene universe. The aligned-side
        # tail P(angle <= observed) = 1 - p is below 1e-15 analytically,
        # so the upper-tail p saturates to 1 within the quadrature
        # tolerance, and a 1e6-draw Monte Carlo of isotropic directions
        # never produces an angle that small.
        coeffs = np.full(100, math.sqrt(0.01 / 99))
        coeffs[0] = math.sqrt(0.99)
        d = make_direction(coeffs)
        lib = GeneSetLibrary.from_sets((GeneSet("TOP", "", frozenset({"g0"})),))
        result = angle_enrich(*d, lib)
        observed_theta = math.acos(math.sqrt(0.99))
        assert result.theta[0] == pytest.approx(observed_theta, abs=1e-12)
        assert result.p[0] == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - angle_pvalue_betainc(observed_theta, 100) < 1e-15

        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(10):
            draws = rng.standard_normal((100_000, 100))
            cosines = np.abs(draws[:, 0]) / np.linalg.norm(draws, axis=1)
            hits += int(np.sum(np.arccos(cosines) <= observed_theta))
        assert hits == 0

    def test_no_overlap_flagged(self):
        d = make_direction(np.array([1.0, 0.0, 0.0]), ids=["A", "B", "C"])
        lib = GeneSetLibrary.from_sets(
            (GeneSet("IN", "", frozenset({"B"})), GeneSet("OUT", "", frozenset({"Z"})))
        )
        result = angle_enrich(*d, lib)
        flagged = np.flatnonzero(result.diagnostic != "")
        assert len(flagged) == 1
        assert result.set_name[flagged[0]] == "OUT"
        assert result.p[flagged[0]] == 1.0 and result.q[flagged[0]] == 1.0

    def test_sorted_by_p(self):
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(30)
        coeffs /= np.linalg.norm(coeffs)
        d = make_direction(coeffs)
        sets = tuple(
            GeneSet(f"S{i}", "", frozenset(rng.choice(d[0], 5, replace=False)))
            for i in range(8)
        )
        result = angle_enrich(*d, GeneSetLibrary.from_sets(sets))
        assert result.p.tolist() == sorted(result.p.tolist())


class TestHypergeomEnrich:
    @pytest.mark.parametrize("mode", ["hypergeom", "angle"])
    def test_empty_library_is_rejected_in_both_modes(self, mode):
        library = parse_gmt("\n\n")
        with pytest.raises(ValueError, match="gene set library is empty"):
            if mode == "hypergeom":
                hypergeom_enrich(["g0"], library, ["g0", "g1"])
            else:
                angle_enrich(*make_direction([0.6, 0.8]), library)

    def test_significant_set_is_top_hit(self):
        universe = [f"g{i}" for i in range(20)]
        significant = universe[:5]
        lib = GeneSetLibrary.from_sets(
            (
                GeneSet("HIT", "", frozenset(significant)),
                GeneSet("MISS", "", frozenset(universe[10:15])),
            )
        )
        result = hypergeom_enrich(significant, lib, universe, ranking=universe)
        assert result.set_name[0] == "HIT"
        assert result.overlap[0] == 5
        assert result.p[0] == pytest.approx(
            exact_hypergeom_tail(5, 5, 5, 20), rel=1e-12
        )
        assert result.mean_rank[0] == pytest.approx(3.0)

    def test_no_overlap_set_diagnostic(self):
        universe = ["g0", "g1"]
        lib = GeneSetLibrary.from_sets((GeneSet("OUT", "", frozenset({"zz"})),))
        result = hypergeom_enrich(["g0"], lib, universe)
        assert result.p[0] == 1.0 and result.q[0] == 1.0
        assert result.diagnostic[0]

    @pytest.mark.parametrize("ranked", [True, False])
    def test_matches_per_set_oracle_exactly(self, ranked):
        # Sets reach outside the universe (one lies wholly outside), some
        # significant genes are outside it, and the ranking is longer than
        # the universe, so ranks count positions of genes the universe lacks.
        rng = np.random.default_rng(31)
        universe = [f"G{i}" for i in range(300)]
        pool = universe + [f"X{i}" for i in range(100)]
        sets = [
            GeneSet(f"S{k}", "", frozenset(rng.choice(pool, rng.integers(1, 60), replace=False)))
            for k in range(60)
        ]
        sets.append(GeneSet("ABSENT", "", frozenset({"X0", "X1", "Y"})))
        library = GeneSetLibrary.from_sets(tuple(rng.permutation(np.array(sets, dtype=object))))
        significant = list(rng.choice(pool, 50, replace=False))
        ranking = list(rng.permutation(pool)) if ranked else None

        result = hypergeom_enrich(significant, library, universe, ranking)
        rows = list(zip(*(column.tolist() for column in vars(result).values())))
        expected = hypergeom_enrich_rows(significant, library, universe, ranking)
        assert repr(rows) == repr(expected)
        assert any(row[0] == "ABSENT" and row[6] for row in rows)
        assert any(not math.isnan(row[5]) for row in rows) == ranked


def one_set(*members):
    return GeneSetLibrary.from_sets([GeneSet("T", "", frozenset(members))])


def ratios(counts_a, counts_b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return counts_a / counts_b


class TestOverlapCurve:
    def test_equal_rankings_unit_ratio(self):
        ranking = [f"g{i}" for i in range(10)]
        counts_a, counts_b = overlap_counts(ranking, list(ranking), one_set(*ranking[:4]), 10)
        curve = ratios(counts_a, counts_b)[0]
        defined = np.isfinite(curve)
        assert np.all(curve[defined] == 1.0)

    def test_zero_denominator_flagged_infinite(self):
        ranking_a = ["a", "b", "c", "d", "e", "f"]
        ranking_b = ["f", "e", "d", "c", "b", "a"]
        counts_a, counts_b = overlap_counts(ranking_a, ranking_b, one_set(*"abcde"), 5)
        assert counts_a[0, 4] == 5 and counts_b[0, 4] == 4
        small = ratios(*overlap_counts(ranking_a, ranking_b, one_set("a"), 3))
        assert math.isinf(small[0, 0])  # 1 vs 0

    def test_hand_counts(self):
        a = ["g1", "g2", "g3"]
        b = ["g3", "g2", "g1"]
        counts_a, counts_b = overlap_counts(a, b, one_set("g1"), 3)
        assert counts_a.tolist() == [[1, 1, 1]]
        assert counts_b.tolist() == [[0, 0, 1]]
        curve = ratios(counts_a, counts_b)[0]
        assert math.isinf(curve[0])
        assert curve[2] == 1.0

    # Sets with members repeated on their GMT line, shared between sets and
    # outside the universe, an empty overlap, and n_max at both ends.
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_the_per_gene_loop(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 60))
        universe = [f"G{i}" for i in range(size)]
        pool = universe + ["OUT1", "OUT2"]
        lines = [f"S{j}\t\t" + "\t".join(rng.choice(pool, int(rng.integers(1, 12))))
                 for j in range(int(rng.integers(1, 8)))]
        lines.append("NONE\t\tOUT1\tOUT2\tOUT1")
        library = parse_gmt("\n".join(lines))
        a, b = list(rng.permutation(universe)), list(rng.permutation(universe))
        for n_max in {1, size, int(rng.integers(1, size + 1))}:
            got = overlap_counts(a, b, library, n_max)
            want = overlap_counts_loop(a, b, library, n_max)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and g.shape == (len(library), n_max)
                assert g.tolist() == w.tolist()

    @pytest.mark.parametrize("a,b,library,n_max,message", [
        (["a", "b"], ["a", "c"], one_set("a"), 2, "different gene universes"),
        (["a", "b", "a"], ["a", "b", "b"], one_set("a"), 2, "duplicate gene ids"),
        (["a", "b"], ["a", "b", "b"], one_set("a"), 2, "duplicate gene ids"),
        (["a", "b"], ["b", "a"], one_set("a"), 0, "n_max must lie"),
        (["a", "b"], ["b", "a"], one_set("a"), 3, "n_max must lie"),
        (["a", "b"], ["b", "a"], GeneSetLibrary.from_sets([]), 2, "library is empty"),
    ])
    def test_bad_input_rejected(self, a, b, library, n_max, message):
        with pytest.raises(ValueError, match=message):
            overlap_counts(a, b, library, n_max)

    def test_aggregation_excludes_undefined(self):
        a = ["x", "y", "z"]
        b = ["z", "y", "x"]
        counts_a, counts_b = overlap_counts(a, b, one_set("x"), 3)
        summary = aggregate_overlap_curves(np.repeat(counts_a, 3, 0), np.repeat(counts_b, 3, 0))
        assert summary.ns.tolist() == [1, 2, 3]
        assert summary.n_undefined[0] == 3  # 1/0 at n=1 in every run
        assert math.isnan(summary.mean_ratio[0])
        assert summary.mean_ratio[2] == pytest.approx(1.0)

    def test_aggregation_matches_loop_over_n(self):
        rng = np.random.default_rng(8)
        counts_a = rng.integers(0, 6, (6, 40))
        counts_b = rng.integers(0, 6, (6, 40))
        counts_b[:, 3] = 0  # no finite value
        counts_b[1:, 4] = 0  # a single finite value
        counts_b[0, 4] = 2
        summary = aggregate_overlap_curves(counts_a, counts_b)
        mean, stderr = aggregate_ratios_by_n(ratios(counts_a, counts_b))
        np.testing.assert_allclose(summary.mean_ratio, mean, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(summary.stderr, stderr, rtol=1e-14, atol=0.0)
        assert np.isnan(summary.mean_ratio[3]) and np.isnan(summary.stderr[4])
        assert not np.isnan(summary.mean_ratio[4])

    @pytest.mark.parametrize("shapes", [((0, 3), (0, 3)), ((2, 3), (2, 4)), ((3,), (3,))])
    def test_aggregation_rejects_mismatched_or_empty_counts(self, shapes):
        with pytest.raises(ValueError):
            aggregate_overlap_curves(*(np.ones(shape) for shape in shapes))


def windows(assoc, significant, window, universe):
    """``(mean distance, p)`` per window of ``sliding_window_profile`` over
    ``(gene, distance)`` pairs."""
    genes, distances = zip(*assoc)
    mean, log_p = sliding_window_profile(genes, distances, significant, window, universe)
    return list(zip(mean.tolist(), np.exp(log_p).tolist()))


def block_edge_gmt(seed: int, universe: list[str]) -> str:
    """A GMT library for the member-block tests: a set of 10 members (more
    than a block of 1, 2 or 7), sets drawn with repeats from the universe
    and two ids outside it, a set repeating one id in three spellings, and
    a set wholly outside the universe."""
    rng = np.random.default_rng(seed)
    pool = universe + ["OUT1", "OUT2"]
    lines = [f"S{j}\t\t" + "\t".join(rng.choice(pool, int(rng.integers(1, 9))))
             for j in range(12)]
    lines.insert(int(rng.integers(0, 12)), "BIG\t\t" + "\t".join(rng.permutation(universe)[:10]))
    lines.insert(int(rng.integers(0, 13)), f"REP\t\t{universe[3]}\t{universe[3].lower()}"
                                           f"\t {universe[3]} \t{universe[1]}")
    lines.append("NONE\t\tOUT2\tOUT1\tout2")
    return "\n".join(lines) + "\n"


def assert_same_columns(got, want):
    for name, column in vars(want).items():
        mine = getattr(got, name)
        assert mine.dtype == column.dtype, name
        assert np.array_equal(mine, column, equal_nan=column.dtype.kind == "f"), name


# The default blocks hold a whole test library; 1, 2 and 7 split it at
# every set, inside sets and in between.
BLOCKS = [1, 2, 7, None]


class TestMemberBlocks:
    """Every set statistic walks the library in bounded member spans and
    the reader codes it in blocks of rows; both must give what one global
    key sort over every member gives (``tests/oracles.py``)."""

    @pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b or 'default'}")
    def block(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(chardir.enrichment, "_MEMBER_BLOCK", request.param)
            monkeypatch.setattr(chardir.data, "_GMT_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("seed", range(3))
    def test_library_columns_match_the_global_key_sort(self, block, seed):
        text = block_edge_gmt(seed, [f"G{i}" for i in range(30)])
        library, want = parse_gmt(text), keysort_library(text)
        assert library.ids == want.ids and library.names == want.names
        assert library.code.dtype == np.int32 and library.offsets.dtype == np.int64
        assert np.array_equal(library.code, want.code)
        sizes = np.diff(library.offsets)
        assert np.array_equal(np.repeat(np.arange(len(library)), sizes), want.which)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ranked", [True, False])
    def test_hypergeom_matches_the_global_key_sort(self, block, seed, ranked):
        rng = np.random.default_rng(seed + 100)
        universe = [f"G{i}" for i in range(30)]
        text = block_edge_gmt(seed, universe)
        significant = list(rng.choice(universe + ["OUT1"], 8, replace=False))
        ranking = list(rng.permutation(universe + ["OUT2"])) if ranked else None
        got = hypergeom_enrich(significant, parse_gmt(text), universe, ranking)
        want = hypergeom_enrich_keysort(significant, keysort_library(text), universe, ranking)
        assert_same_columns(got, want)
        assert "NONE" in got.set_name[got.diagnostic != ""]

    @pytest.mark.parametrize("seed", range(3))
    def test_angle_matches_the_global_key_sort(self, block, seed):
        gene_ids = [f"G{i}" for i in range(30)]
        coefficients = np.random.default_rng(seed + 200).standard_normal(30)
        coefficients /= np.linalg.norm(coefficients)
        text = block_edge_gmt(seed, gene_ids)
        got = angle_enrich(gene_ids, coefficients, parse_gmt(text))
        want = angle_enrich_keysort(gene_ids, coefficients, keysort_library(text))
        assert_same_columns(got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_overlap_counts_match_the_global_key_sort(self, block, seed):
        rng = np.random.default_rng(seed + 300)
        universe = [f"G{i}" for i in range(30)]
        text = block_edge_gmt(seed, universe)
        a, b = list(rng.permutation(universe)), list(rng.permutation(universe))
        for n_max in (1, 13, 30):
            got = overlap_counts(a, b, parse_gmt(text), n_max)
            want = overlap_counts_keysort(a, b, keysort_library(text), n_max)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_empty_library_is_rejected(self, block):
        library = parse_gmt("")
        with pytest.raises(ValueError, match="gene set library is empty"):
            hypergeom_enrich(["G1"], library, ["G1", "G2"])
        with pytest.raises(ValueError, match="gene set library is empty"):
            angle_enrich(*make_direction([0.6, 0.8, 0.0]), library)
        with pytest.raises(ValueError, match="gene set library is empty"):
            overlap_counts(["G1", "G2"], ["G2", "G1"], library, 2)

    def test_spans_hold_whole_sets_within_the_block(self, block):
        library = parse_gmt(block_edge_gmt(0, [f"G{i}" for i in range(30)]))
        spans = list(chardir.enrichment._member_spans({"G1": 0}, library))
        assert [s.start for s, _, _ in spans] == [0] + [s.stop for s, _, _ in spans[:-1]]
        assert spans[-1][0].stop == len(library)
        for sets, starts, where in spans:
            assert np.array_equal(starts, library.offsets[sets] - library.offsets[sets.start])
            assert sets.stop - sets.start == 1 or len(where) <= chardir.enrichment._MEMBER_BLOCK


# Parses a library file, then scores it in both modes; prints the rise of
# the peak resident set over what the imports and the universe left, per
# library member. The peak is the process's own VmHWM: ru_maxrss would
# carry the test runner's peak across the exec.
MEMORY_SCRIPT = """
import sys
import numpy as np
from chardir.data import parse_gmt
from chardir.enrichment import angle_enrich, hypergeom_enrich
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
universe = [f"G{i:05d}" for i in range(20000)]
coefficients = np.full(20000, 20000 ** -0.5)
before = peak_kib()
with open(sys.argv[1]) as handle:
    library = parse_gmt(handle)
hypergeom_enrich(universe[:500], library, universe, universe)
angle_enrich(universe, coefficients, library)
print((peak_kib() - before) * 1024 / len(library.code))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_enrichment_memory_grows_by_under_32_bytes_per_member(tmp_path):
    # 10,000 sets of 100 to 180 members over 20,000 ids: about 1.4 M members.
    rng = np.random.default_rng(5)
    ids = np.array([f"G{i:05d}" for i in range(20000)])
    with open(tmp_path / "library.gmt", "w") as handle:
        for j, size in enumerate(rng.integers(100, 181, 10000).tolist()):
            handle.write(f"SET{j}\t\t" + "\t".join(ids[rng.integers(0, 20000, size)]) + "\n")
    proc = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT, str(tmp_path / "library.gmt")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 32


class TestSlidingWindow:
    def test_no_significant_genes(self):
        assoc = [(f"g{i}", float(i)) for i in range(10)]
        profile = windows(assoc, set(), 3, 100)
        assert all(p == 1.0 for _, p in profile)

    def test_fully_significant_window(self):
        assoc = [(f"g{i}", float(i)) for i in range(3)]
        significant = {f"g{i}" for i in range(10)}
        profile = windows(assoc, significant, 3, 100)
        expected = exact_hypergeom_tail(3, 10, 3, 100)
        assert expected == pytest.approx(7.42115e-4, rel=1e-4)
        assert profile[0][1] == pytest.approx(expected, rel=1e-12)

    def test_window_count(self):
        assoc = [(f"g{i}", float(i)) for i in range(25)]
        profile = windows(assoc, {"g1"}, 7, 30)
        assert len(profile) == 25 - 7 + 1

    def test_mean_distance_per_window(self):
        assoc = [("a", 0.0), ("b", 10.0), ("c", 50.0)]
        profile = windows(assoc, set(), 2, 10)
        assert profile[0][0] == pytest.approx(5.0)
        assert profile[1][0] == pytest.approx(30.0)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            windows([("a", 5.0), ("b", 1.0)], set(), 1, 10)

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError):
            windows([("a", 1.0)], set(), 2, 10)

    def test_dedupe_keeps_most_proximal(self):
        pairs = [("g1", 500.0), ("g2", 30.0), ("g1", 100.0)]
        genes, distances = dedupe_tss_associations(*zip(*pairs))
        assert list(zip(genes.tolist(), distances.tolist())) == [("g2", 30.0), ("g1", 100.0)]
