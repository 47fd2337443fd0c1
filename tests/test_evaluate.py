"""MAE evaluation harness across recommendation variants."""

from pathlib import Path

import numpy as np
import pytest

from cinefuse.catalog import Rating, train_test_split
from cinefuse.cf import DEFAULT_K, augment_implicit, build_rating_matrix, predict_rating, similarity_matrix
from cinefuse.errors import CinefuseError
from cinefuse.evaluate import (
    MIN_EVAL_RATINGS,
    VARIANTS,
    EvalReport,
    SplitConfig,
    _score,
    evaluate_variants,
    mae,
    precision_at_k,
)
from cinefuse.optimize import build_fuzzy_profiles, fuzzy_similarity_matrix

from conftest import tiny_catalog


class TestMae:
    def test_hand_example(self):
        assert mae([(3.0, 4.0), (5.0, 3.0)]) == pytest.approx(1.5)

    def test_zero_for_perfect_predictions(self):
        assert mae([(2.5, 2.5), (4.0, 4.0)]) == 0.0

    def test_symmetric_in_sign(self):
        assert mae([(1.0, 3.0)]) == mae([(3.0, 1.0)]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(CinefuseError):
            mae([])

    def test_matches_numpy(self):
        rng = np.random.default_rng(8)
        pred = rng.uniform(0.5, 5.0, size=40)
        truth = rng.uniform(0.5, 5.0, size=40)
        pairs = list(zip(pred, truth))
        assert mae(pairs) == pytest.approx(float(np.abs(pred - truth).mean()), abs=1e-12)


class TestPrecisionAtK:
    def test_on_fixture_split(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        sim = similarity_matrix(matrix, "user", "pearson", min_overlap=2)
        p = precision_at_k(matrix, sim, test, k=10, like_threshold=3.5)
        assert 0.0 <= p <= 1.0

    def test_non_positive_k_rejected(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        sim = similarity_matrix(matrix, "user", "pearson", min_overlap=2)
        with pytest.raises(CinefuseError, match="k must be >= 1, got 0"):
            precision_at_k(matrix, sim, test, k=0)

    def test_single_user_hand_check(self, fixture_catalog):
        # the oracle predicts as precision_at_k does, with DEFAULT_K
        # neighbors (its k is only the cut-off), and averages the users in
        # ascending id order, so the two agree bit for bit
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        sim = similarity_matrix(matrix, "user", "pearson", min_overlap=2)

        by_user = {}
        for r in test:
            by_user.setdefault(r.user_id, []).append(r)
        per_user = []
        for user_id, held in sorted(by_user.items()):
            scored = sorted(
                held,
                key=lambda r: (-predict_rating(matrix, sim, user_id, r.movie_id, DEFAULT_K).value, r.movie_id),
            )
            top = scored[: min(10, len(scored))]
            hits = sum(1 for r in top if r.value >= 3.5)
            per_user.append(hits / min(10, len(held)))
        assert precision_at_k(matrix, sim, test, k=10, like_threshold=3.5) == sum(per_user) / len(per_user)


def loop_score(matrix, sim, test, k):
    """_score as it was before predict_many: one predict_rating per held-out
    rating. _score must give the same MAE and coverage bit for bit."""
    pairs = []
    covered = 0
    for r in test:
        pred = predict_rating(matrix, sim, r.user_id, r.movie_id, k)
        pairs.append((pred.value, r.value))
        covered += 0 if pred.fallback else 1
    return mae(pairs), covered / len(test)


def loop_precision_at_k(matrix, sim, test_ratings, k=10, like_threshold=3.5):
    """precision_at_k as it was before predict_many, one predict_rating per
    held-out rating."""
    by_user = {}
    for r in test_ratings:
        if r.user_id in matrix.user_index and r.movie_id in matrix.item_index:
            by_user.setdefault(r.user_id, []).append(r)
    per_user = []
    for uid in sorted(by_user):
        scored = [(predict_rating(matrix, sim, uid, r.movie_id).value, r) for r in by_user[uid]]
        scored.sort(key=lambda t: (-t[0], t[1].movie_id))
        top = scored[: min(k, len(scored))]
        per_user.append(sum(1 for _, r in top if r.value >= like_threshold) / len(top))
    return sum(per_user) / len(per_user)


def scored_splits(catalog):
    """(matrix, similarity, held-out ratings) over several splits, for the
    similarities the variants score with."""
    for seed in range(4):
        train, test = train_test_split(catalog, 0.3, seed=seed)
        matrix = build_rating_matrix(train)
        yield matrix, similarity_matrix(matrix, "user", "pearson"), test
        yield matrix, similarity_matrix(matrix, "item", "cosine", min_overlap=1), test
        profiles = build_fuzzy_profiles(train)
        yield matrix, fuzzy_similarity_matrix(profiles, np.ones(len(train.genre_universe()))), test
        aug = augment_implicit(matrix, train.implicit)
        yield aug, similarity_matrix(aug, "user", "pearson"), test


class TestBatchedScoringBitwise:
    def test_score_equals_per_pair_loop(self, fixture_catalog):
        for matrix, sim, test in scored_splits(fixture_catalog):
            for k in (1, 3, 20):
                assert _score(matrix, sim, test, k) == loop_score(matrix, sim, test, k)

    def test_precision_equals_per_pair_loop(self, fixture_catalog):
        for matrix, sim, test in scored_splits(fixture_catalog):
            for k, threshold in ((1, 3.5), (3, 4.0), (10, 3.5)):
                got = precision_at_k(matrix, sim, test, k=k, like_threshold=threshold)
                assert got == loop_precision_at_k(matrix, sim, test, k, threshold)

    def test_precision_skips_ratings_outside_the_matrix(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=0)
        matrix = build_rating_matrix(train)
        sim = similarity_matrix(matrix, "user", "pearson")
        stranger = Rating(user_id=10_000, movie_id=test[0].movie_id, value=4.0)
        got = precision_at_k(matrix, sim, [stranger, *test])
        assert got == loop_precision_at_k(matrix, sim, test) == precision_at_k(matrix, sim, test)


class TestEvaluateVariants:
    def test_all_variants_produce_reports(self, fixture_catalog):
        reports = evaluate_variants(fixture_catalog, list(VARIANTS), SplitConfig(0.2, 42))
        assert [r.variant for r in reports] == list(VARIANTS)
        for r in reports:
            assert isinstance(r, EvalReport)
            assert r.mae >= 0.0
            assert 0.0 <= r.coverage <= 1.0
            assert r.runtime_seconds >= 0.0
            assert r.seed == 42

    def test_matches_golden_file(self, fixture_catalog):
        # one "variant mae coverage" line per variant, floats as repr, so
        # every variant is pinned bit for bit
        lines = (Path(__file__).parent / "data" / "golden_evaluate.txt").read_text().splitlines()
        golden = [(v, float(m), float(c)) for v, m, c in (line.split() for line in lines)]
        reports = evaluate_variants(fixture_catalog, VARIANTS)
        assert [r.variant for r in reports] == [v for v, _, _ in golden] == list(VARIANTS)
        for r, (_, m, c) in zip(reports, golden):
            assert r.mae == m and r.coverage == c, r.variant

    def test_deterministic_across_runs(self, fixture_catalog):
        a = evaluate_variants(fixture_catalog, ["plain", "ga_weighted"], SplitConfig(0.2, 42))
        b = evaluate_variants(fixture_catalog, ["plain", "ga_weighted"], SplitConfig(0.2, 42))
        assert [(r.variant, r.mae, r.coverage) for r in a] == [
            (r.variant, r.mae, r.coverage) for r in b
        ]

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, fixture_catalog, k):
        # a negative k used to slice neighbors from the end and report
        # a coverage of 0.1666667 on the fixture
        with pytest.raises(CinefuseError, match=f"k must be >= 1, got {k}"):
            evaluate_variants(fixture_catalog, ["plain"], SplitConfig(0.2, 42), k=k)

    def test_empty_variant_list(self, fixture_catalog):
        assert evaluate_variants(fixture_catalog, [], SplitConfig(0.2, 42)) == []

    def test_unknown_variant_rejected(self, fixture_catalog):
        with pytest.raises(CinefuseError, match="variant"):
            evaluate_variants(fixture_catalog, ["plain", "magic"], SplitConfig(0.2, 42))

    def test_too_few_ratings_rejected(self):
        cat = tiny_catalog()
        assert len(cat.ratings) < MIN_EVAL_RATINGS
        with pytest.raises(CinefuseError, match="ratings"):
            evaluate_variants(cat, ["plain"], SplitConfig(0.2, 42))

    def test_optimized_variants_never_beat_plain_backwards(self, fixture_catalog):
        reports = evaluate_variants(
            fixture_catalog, ["plain", "ga_weighted"], SplitConfig(0.2, 42)
        )
        by_name = {r.variant: r for r in reports}
        assert by_name["ga_weighted"].mae <= by_name["plain"].mae + 1e-9

    def test_implicit_variant_coverage_not_lower(self, fixture_catalog):
        reports = evaluate_variants(
            fixture_catalog, ["plain", "implicit_augmented"], SplitConfig(0.2, 42)
        )
        by_name = {r.variant: r for r in reports}
        assert by_name["implicit_augmented"].coverage >= by_name["plain"].coverage
