"""Critic review normalization and consensus aggregation."""

import numpy as np
import pytest

from cinefuse.catalog import CriticReview
from cinefuse.critic import CriticConsensus, aggregate_reviews, consensus_map, normalize
from cinefuse.errors import CinefuseError


def rv(movie_id, score):
    return CriticReview(movie_id, "outlet", "text", score)


class TestNormalize:
    def test_endpoints(self):
        assert normalize(0.0) == 0.0
        assert normalize(5.0) == 0.2
        assert normalize(2.5) == 0.1

    def test_linear_everywhere(self):
        rng = np.random.default_rng(17)
        for raw in rng.uniform(0.0, 5.0, size=500):
            assert normalize(float(raw)) == pytest.approx(raw / 25.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(0.0, 5.0, 101)
        ys = [normalize(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_domain_enforced(self):
        for bad in (-0.1, 5.01, float("nan")):
            with pytest.raises(CinefuseError):
                normalize(bad)


class TestAggregate:
    def test_mean(self):
        c = aggregate_reviews(7, [rv(7, 1.0), rv(7, 2.0), rv(7, 4.5)])
        assert isinstance(c, CriticConsensus)
        assert c.movie_id == 7
        assert c.review_count == 3
        assert c.raw_mean == pytest.approx(7.5 / 3)
        assert c.normalized == pytest.approx(7.5 / 3 / 25.0)

    def test_zero_reviews_fall_back_to_neutral(self):
        c = aggregate_reviews(9, [])
        assert c.review_count == 0
        assert c.raw_mean == 2.5
        assert c.normalized == pytest.approx(0.1)

    def test_order_invariant(self):
        rng = np.random.default_rng(3)
        scores = [rv(1, float(x)) for x in rng.uniform(0, 5, size=9)]
        shuffled = list(scores)
        rng.shuffle(shuffled)
        assert aggregate_reviews(1, scores).normalized == pytest.approx(
            aggregate_reviews(1, shuffled).normalized, abs=1e-12
        )

    def test_out_of_range_review_rejected(self):
        with pytest.raises(CinefuseError):
            aggregate_reviews(1, [rv(1, 2.0), rv(1, 5.5)])


class TestConsensusMap:
    def test_covers_every_movie(self, fixture_catalog):
        cmap = consensus_map(fixture_catalog)
        assert set(cmap) == set(fixture_catalog.movies)

    def test_unreviewed_movies_get_neutral(self, fixture_catalog):
        cmap = consensus_map(fixture_catalog)
        reviewed = {r.movie_id for r in fixture_catalog.reviews}
        for movie_id, c in cmap.items():
            if movie_id not in reviewed:
                assert c.review_count == 0
                assert c.normalized == pytest.approx(0.1)

    def test_matches_per_movie_aggregation(self, fixture_catalog):
        cmap = consensus_map(fixture_catalog)
        by_movie = {}
        for r in fixture_catalog.reviews:
            by_movie.setdefault(r.movie_id, []).append(r)
        for movie_id, scores in by_movie.items():
            expect = aggregate_reviews(movie_id, scores)
            assert cmap[movie_id].normalized == pytest.approx(expect.normalized, abs=1e-12)
            assert cmap[movie_id].review_count == expect.review_count

    def test_bonus_range(self, fixture_catalog):
        for c in consensus_map(fixture_catalog).values():
            assert 0.0 <= c.normalized <= 0.2
