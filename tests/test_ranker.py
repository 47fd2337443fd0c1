"""Hybrid recommendation assembly, fusion arithmetic, and cold-start paths."""

import numpy as np
import pytest

from cinefuse.cf import build_rating_matrix, similarity_matrix
from cinefuse.critic import consensus_map
from cinefuse.errors import CinefuseError, UnknownEntityError
from cinefuse.ranker import (
    PipelineConfig,
    cold_start_item,
    cold_start_user,
    recommend_hybrid,
)
from cinefuse.textpipe import fit_tfidf

from conftest import tiny_catalog


@pytest.fixture(scope="module")
def pipeline(fixture_catalog):
    cat = fixture_catalog
    provider = fit_tfidf([m.summary or m.title for m in cat.movies.values()])
    matrix = build_rating_matrix(cat)
    sim_item = similarity_matrix(matrix, "item", "pearson", min_overlap=2)
    consensus = consensus_map(cat)
    return cat, provider, matrix, sim_item, consensus


def run(pipeline, seed_title, **overrides):
    cat, provider, matrix, sim_item, consensus = pipeline
    config = PipelineConfig(**overrides)
    return recommend_hybrid(
        cat, seed_title, config,
        provider=provider, matrix=matrix, sim_item=sim_item, consensus=consensus,
    )


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.candidate_pool == 100 and cfg.n == 15 and cfg.critic_enabled

    def test_validation(self):
        with pytest.raises(CinefuseError):
            PipelineConfig(n=50, candidate_pool=10)


class TestHybrid:
    def test_fusion_is_cosine_plus_weighted_bonus(self, pipeline):
        result = run(pipeline, "Northern Lights")
        for rec in result.items:
            assert rec.fused_score == pytest.approx(
                rec.content_cosine + rec.critic_bonus, abs=1e-12
            )

    def test_disabling_critic_zeroes_bonus(self, pipeline):
        result = run(pipeline, "Northern Lights", critic_enabled=False)
        for rec in result.items:
            assert rec.critic_bonus == 0.0
            assert rec.fused_score == pytest.approx(rec.content_cosine, abs=1e-12)

    def test_sorted_by_fused_then_title(self, pipeline):
        result = run(pipeline, "Northern Lights", n=18, candidate_pool=100)
        keys = [(-r.fused_score, r.title) for r in result.items]
        assert keys == sorted(keys)

    def test_seed_excluded_by_default(self, pipeline):
        result = run(pipeline, "Northern Lights")
        assert all(r.title != "Northern Lights" for r in result.items)

    def test_include_seed_appends_seed_to_pool(self, pipeline):
        result = run(pipeline, "Northern Lights", include_seed=True, n=19)
        assert any(r.title == "Northern Lights" for r in result.items)
        assert result.pool_size == run(pipeline, "Northern Lights", n=19).pool_size + 1

    def test_n_truncates(self, pipeline):
        assert len(run(pipeline, "Northern Lights", n=5).items) == 5

    def test_pool_comes_from_item_neighbors(self, pipeline):
        cat, provider, matrix, sim_item, consensus = pipeline
        result = run(pipeline, "Northern Lights", n=18, candidate_pool=100)
        seed_idx = matrix.item_ids.index(1)
        eligible = {
            matrix.item_ids[j]
            for j in range(len(matrix.item_ids))
            if j != seed_idx and sim_item.co_counts[seed_idx, j] > 0
        }
        assert {r.movie_id for r in result.items} <= eligible

    def test_unknown_seed_suggests_closest_titles(self, pipeline):
        with pytest.raises(UnknownEntityError, match="Northern Lights"):
            run(pipeline, "Northen Lights")

    def test_unrated_seed_returns_empty_with_reason(self, pipeline):
        result = run(pipeline, "Glass Harbor")
        assert list(result.items) == []
        assert result.pool_size == 0
        assert result.reason != ""


class TestColdStartUser:
    def test_top_rated_ordering_and_floor(self, fixture_catalog):
        recs = cold_start_user(fixture_catalog, n=20, strategy="top_rated", min_count=3)
        counts = {}
        sums = {}
        for r in fixture_catalog.ratings:
            counts[r.movie_id] = counts.get(r.movie_id, 0) + 1
            sums[r.movie_id] = sums.get(r.movie_id, 0.0) + r.value
        eligible = {m for m, c in counts.items() if c >= 3}
        assert {r.movie_id for r in recs} == eligible
        keys = [(-(sums[r.movie_id] / counts[r.movie_id]), r.title) for r in recs]
        assert keys == sorted(keys)

    def test_min_count_excludes_sparse_movies(self, fixture_catalog):
        recs = cold_start_user(fixture_catalog, n=20, strategy="top_rated", min_count=3)
        titles = [r.title for r in recs]
        # rated once at 5.0, still shut out by the count floor
        assert "Hollow Signal" not in titles

    def test_recent_ordering_excludes_yearless(self, fixture_catalog):
        recs = cold_start_user(fixture_catalog, n=20, strategy="recent")
        years = [fixture_catalog.movies[r.movie_id].release_year for r in recs]
        assert None not in years
        keys = [(-y, fixture_catalog.movies[r.movie_id].title) for r, y in zip(recs, years)]
        assert keys == sorted(keys)
        assert "Iron Orchard" not in [r.title for r in recs]

    def test_blend_interleaves_and_dedupes(self, fixture_catalog):
        top = cold_start_user(fixture_catalog, n=20, strategy="top_rated")
        recent = cold_start_user(fixture_catalog, n=20, strategy="recent")
        blend = cold_start_user(fixture_catalog, n=20, strategy="blend")
        ids = [r.movie_id for r in blend]
        assert len(ids) == len(set(ids))
        assert blend[0].movie_id == top[0].movie_id
        assert blend[1].movie_id == recent[0].movie_id or blend[1].movie_id == top[1].movie_id

    def test_n_truncates(self, fixture_catalog):
        assert len(cold_start_user(fixture_catalog, n=4)) == 4

    def test_unknown_strategy_rejected(self, fixture_catalog):
        with pytest.raises(CinefuseError):
            cold_start_user(fixture_catalog, strategy="random")


class TestColdStartItem:
    def test_matches_brute_force(self, fixture_catalog):
        new_movie = fixture_catalog.movies[20]
        recs = cold_start_item(fixture_catalog, new_movie, n=50)
        rated = {r.movie_id for r in fixture_catalog.ratings}
        means = {}
        for r in fixture_catalog.ratings:
            means.setdefault(r.movie_id, []).append(r.value)
        expect = [
            m for m in fixture_catalog.movies.values()
            if m.movie_id in rated
            and m.movie_id != new_movie.movie_id
            and m.genres & new_movie.genres
        ]
        expect.sort(key=lambda m: (-(sum(means[m.movie_id]) / len(means[m.movie_id])), m.title))
        assert [r.movie_id for r in recs] == [m.movie_id for m in expect]

    def test_no_genres_rejected(self, fixture_catalog):
        from cinefuse.catalog import Movie

        bare = Movie(movie_id=999, title="Bare", genres=frozenset(), summary="", release_year=2020)
        with pytest.raises(CinefuseError, match="genre"):
            cold_start_item(fixture_catalog, bare)

    def test_no_overlap_gives_empty(self):
        from cinefuse.catalog import Movie

        cat = tiny_catalog()
        loner = Movie(movie_id=999, title="Loner", genres=frozenset({"Western"}), summary="", release_year=2020)
        assert cold_start_item(cat, loner) == []

    def test_n_truncates(self, fixture_catalog):
        recs = cold_start_item(fixture_catalog, fixture_catalog.movies[20], n=2)
        assert len(recs) == 2
