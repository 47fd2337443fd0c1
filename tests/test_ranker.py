"""Hybrid recommendation assembly, fusion arithmetic, and cold-start paths."""

from dataclasses import replace

import numpy as np
import pytest

from cinefuse import cf, ranker, textpipe
from cinefuse.catalog import Rating, resolve_title, train_test_split
from cinefuse.cf import build_rating_matrix, similarity_matrix
from cinefuse.errors import CinefuseError, UnknownEntityError
from cinefuse.optimize import build_fuzzy_profiles
from cinefuse.ranker import (
    PipelineConfig,
    cold_start_item,
    cold_start_user,
    fit_hybrid,
    recommend_hybrid,
)

from conftest import load_fixture_catalog, tiny_catalog


@pytest.fixture(scope="module")
def pipeline(fixture_catalog):
    return fixture_catalog, fit_hybrid(fixture_catalog, PipelineConfig())


def run(pipeline, seed_title, **overrides):
    cat, model = pipeline
    return recommend_hybrid(cat, seed_title, PipelineConfig(**overrides), model)


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.candidate_pool == 100 and cfg.n == 15 and cfg.critic_enabled

    def test_validation(self):
        with pytest.raises(CinefuseError):
            PipelineConfig(n=50, candidate_pool=10)

    @pytest.mark.parametrize("fields, message", [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"n": -1}, "n must be >= 1, got -1"),
        ({"candidate_pool": 0}, "candidate_pool must be >= 1, got 0"),
        ({"candidate_pool": -3}, "candidate_pool must be >= 1, got -3"),
    ])
    def test_non_positive_counts_rejected(self, fields, message):
        with pytest.raises(CinefuseError, match=message):
            PipelineConfig(**fields)


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
        matrix = build_rating_matrix(pipeline[0])
        sim_item = similarity_matrix(matrix, "item", "pearson", min_overlap=2)
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


# configs whose results the memoised model must reproduce exactly
MEMO_CONFIGS = [
    PipelineConfig(),
    PipelineConfig(include_seed=True),
    PipelineConfig(critic_enabled=False),
    PipelineConfig(n=5),
    PipelineConfig(metric="cosine"),
    PipelineConfig(metric="jaccard"),
]


class TestModelMemo:
    @pytest.mark.parametrize("config", MEMO_CONFIGS, ids=repr)
    def test_memoised_equals_fresh_fit_for_every_title(self, config):
        memo_cat = load_fixture_catalog()
        for movie in memo_cat.movies.values():
            fresh = load_fixture_catalog()
            expected = recommend_hybrid(fresh, movie.title, config, fit_hybrid(fresh, config))
            assert recommend_hybrid(memo_cat, movie.title, config) == expected

    def test_second_call_fits_nothing(self, monkeypatch):
        calls = {"_similarity_row": 0, "fit_tfidf": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(ranker, "_similarity_row")
        counting(textpipe, "fit_tfidf")
        cat = load_fixture_catalog()
        recommend_hybrid(cat, "Northern Lights")
        assert calls == {"_similarity_row": 1, "fit_tfidf": 1}
        recommend_hybrid(cat, "Northern Lights")
        # configs that differ only in fields the fit does not read share the
        # model; a new seed computes its own row
        recommend_hybrid(cat, "Meridian Beta", PipelineConfig(n=5, critic_enabled=False, include_seed=True))
        assert calls == {"_similarity_row": 2, "fit_tfidf": 1}
        recommend_hybrid(cat, "Northern Lights", PipelineConfig(candidate_pool=50))
        assert calls == {"_similarity_row": 3, "fit_tfidf": 2}

    def test_ranks_from_seed_rows_only(self, monkeypatch):
        # neither the fit nor a request builds a full similarity or its
        # n x n co-counts; each distinct rated seed computes one row, once
        def refuse(*args, **kwargs):
            raise AssertionError("full similarity computed")

        monkeypatch.setattr(cf, "similarity_matrix", refuse)
        monkeypatch.setattr(cf, "_co_counts", refuse)
        monkeypatch.setattr(ranker, "similarity_matrix", refuse)
        rows = []
        original = ranker._similarity_row
        monkeypatch.setattr(ranker, "_similarity_row", lambda a, metric, w, s, m: rows.append(s) or original(a, metric, w, s, m))
        cat = load_fixture_catalog()
        model = fit_hybrid(cat, PipelineConfig())
        assert rows == []
        titles = ["Northern Lights", "Ashfall", "Northern Lights", "Glass Harbor", "Ashfall", "Meridian Beta"]
        for title in titles:
            recommend_hybrid(cat, title, model=model)
        # Glass Harbor has no ratings, so no row
        assert len(rows) == len(set(rows)) == 3
        assert set(model._pools) == {resolve_title(cat, t) for t in ("Northern Lights", "Ashfall", "Meridian Beta")}

    def test_split_catalog_does_not_see_parent_model(self):
        # a pool of 3 is cut from the neighbor order, so it follows the ratings
        config = PipelineConfig(candidate_pool=3, n=3)
        cat = load_fixture_catalog()
        parent = recommend_hybrid(cat, "Northern Lights", config)
        train, _ = train_test_split(cat, 0.2, seed=3)
        assert train._models == {}
        result = recommend_hybrid(train, "Northern Lights", config)
        (key,) = train._models
        assert train._models[key] is not cat._models[key]
        assert result == recommend_hybrid(train, "Northern Lights", config, fit_hybrid(train, config))
        assert result != parent

    def test_model_for_other_fit_fields_rejected(self, pipeline):
        with pytest.raises(CinefuseError, match="candidate_pool"):
            run(pipeline, "Northern Lights", candidate_pool=50)

    def test_vectors_embedded_only_for_ranked_movies(self, fixture_catalog):
        model = fit_hybrid(fixture_catalog, PipelineConfig())
        assert model._vectors == {}
        recommend_hybrid(fixture_catalog, "Northern Lights", model=model)
        assert set(model._vectors) == set(model.pool(1)) | {1}
        assert set(model._pools) == {1}
        assert len(model._vectors) < len(fixture_catalog.movies)


def loop_mean_ratings(catalog):
    """ranker._mean_ratings as it was before the column view: one list of
    values per movie, summed by Python's sum."""
    sums = {}
    for r in catalog.ratings:
        sums.setdefault(r.movie_id, []).append(r.value)
    return {mid: (sum(v) / len(v), len(v)) for mid, v in sums.items()}


class TestMeanRatings:
    @pytest.fixture(scope="class")
    def catalogs(self, fixture_catalog):
        # off-grid values make every sum depend on the order it adds in
        rng = np.random.default_rng(31)
        movie_ids = sorted(fixture_catalog.movies)
        out = [fixture_catalog, tiny_catalog(), replace(fixture_catalog, ratings=[])]
        for n_users, n in ((3, 20), (12, 150), (40, 400)):
            cells = list({(int(u), int(m)) for u, m in zip(rng.integers(1, n_users + 1, n), rng.choice(movie_ids, n))})
            on_grid = [float(v) for v in rng.integers(1, 11, len(cells)) / 2.0]
            anywhere = [float(v) for v in rng.uniform(0.5, 5.0, len(cells))]
            for values in (on_grid, anywhere):
                ratings = [Rating(u, m, v) for (u, m), v in zip(cells, values)]
                out.append(replace(fixture_catalog, ratings=[ratings[i] for i in rng.permutation(len(ratings))]))
        return out

    def test_equal_per_record_loop_in_order(self, catalogs):
        for catalog in catalogs:
            assert list(ranker._mean_ratings(catalog).items()) == list(loop_mean_ratings(catalog).items())

    def test_cold_start_lists_unchanged(self, catalogs, monkeypatch):
        def lists(catalog):
            out = [cold_start_user(catalog, n=50, strategy=s, min_count=c) for s in ("top_rated", "blend") for c in (1, 3)]
            return out + [cold_start_item(catalog, movie, n=50) for movie in list(catalog.movies.values())[:6]]

        for catalog in catalogs:
            got = lists(catalog)
            with monkeypatch.context() as patched:
                patched.setattr(ranker, "_mean_ratings", loop_mean_ratings)
                assert got == lists(catalog)


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

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_n_rejected(self, fixture_catalog, n):
        with pytest.raises(CinefuseError, match=f"n must be >= 1, got {n}"):
            cold_start_user(fixture_catalog, n=n)


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

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_n_rejected(self, fixture_catalog, n):
        with pytest.raises(CinefuseError, match=f"n must be >= 1, got {n}"):
            cold_start_item(fixture_catalog, fixture_catalog.movies[20], n=n)


FITS = {
    "RatingMatrix": build_rating_matrix,
    "SimilarityMatrix": lambda cat: similarity_matrix(build_rating_matrix(cat), "user"),
    "HybridModel": lambda cat: fit_hybrid(cat, PipelineConfig()),
    "TfidfProvider": lambda cat: textpipe.fit_tfidf(m.summary for m in cat.movies.values()),
    "PrecomputedProvider": lambda cat: textpipe.PrecomputedProvider({m: np.full(3, 0.5) for m in cat.movies}),
    "FuzzyProfiles": build_fuzzy_profiles,
}


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS.keys())
def test_fitted_objects_compare_by_identity(fit, fixture_catalog):
    # they hold arrays, whose == is elementwise: two equal fits compare
    # unequal instead of raising on an ambiguous truth value
    a, b = fit(fixture_catalog), fit(fixture_catalog)
    assert a == a
    assert (a == b) is False
    assert (a != b) is True
