"""Catalog loading, validation, title resolution, stats, and splitting."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from cinefuse.catalog import (
    Rating,
    RatingScale,
    closest_titles,
    load_catalog,
    normalize_title,
    resolve_title,
    summary_stats,
    train_test_split,
)
from cinefuse.cli import FIXTURE_DIR
from cinefuse.errors import CinefuseError, DataFormatError, UnknownEntityError

from conftest import tiny_catalog


class TestRatingScale:
    def test_half_step_membership(self):
        scale = RatingScale()
        assert scale.contains(0.5)
        assert scale.contains(5.0)
        assert scale.contains(3.5)
        assert not scale.contains(0.0)
        assert not scale.contains(5.5)
        assert not scale.contains(3.25)

    def test_clamp_bounds_only(self):
        scale = RatingScale()
        assert scale.clamp(-2.0) == 0.5
        assert scale.clamp(9.0) == 5.0
        assert scale.clamp(3.6) == 3.6

    def test_values_enumeration(self):
        assert RatingScale().values()[0] == 0.5
        assert RatingScale().values()[-1] == 5.0
        assert len(RatingScale().values()) == 10


class TestLoadCatalog:
    def test_fixture_counts(self, fixture_catalog):
        assert len(fixture_catalog.movies) == 20
        assert len(fixture_catalog.ratings) == 60
        assert len(fixture_catalog.reviews) == 23
        assert len(fixture_catalog.implicit) == 15
        assert fixture_catalog.dropped_reviews == 2

    def test_fields_cannot_be_reassigned(self, fixture_catalog):
        with pytest.raises(FrozenInstanceError):
            fixture_catalog.ratings = []

    def test_referential_integrity(self, fixture_catalog):
        for r in fixture_catalog.ratings:
            assert r.movie_id in fixture_catalog.movies
        for rv in fixture_catalog.reviews:
            assert rv.movie_id in fixture_catalog.movies
        for ev in fixture_catalog.implicit:
            assert ev.movie_id in fixture_catalog.movies

    def test_load_is_idempotent(self, fixture_catalog):
        again = load_catalog(
            FIXTURE_DIR / "movies.csv",
            FIXTURE_DIR / "ratings.csv",
            FIXTURE_DIR / "reviews.csv",
            implicit_path=FIXTURE_DIR / "implicit.csv",
        )
        assert again.movies == fixture_catalog.movies
        assert again.ratings == fixture_catalog.ratings
        assert again.reviews == fixture_catalog.reviews
        assert again.implicit == fixture_catalog.implicit

    def test_implicit_optional(self):
        cat = load_catalog(
            FIXTURE_DIR / "movies.csv",
            FIXTURE_DIR / "ratings.csv",
            FIXTURE_DIR / "reviews.csv",
        )
        assert cat.implicit == []

    def test_out_of_scale_rating_names_line(self, tmp_path):
        movies = tmp_path / "m.csv"
        ratings = tmp_path / "r.csv"
        reviews = tmp_path / "v.csv"
        movies.write_text("movieId,title,genres,year,summary\n1,One,Drama,2000,x\n")
        ratings.write_text("userId,movieId,rating,timestamp\n1,1,7.0,5\n")
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        with pytest.raises(DataFormatError, match="out of scale") as err:
            load_catalog(movies, ratings, reviews)
        assert "line 2" in str(err.value)

    def test_duplicate_rating_rejected(self, tmp_path):
        movies = tmp_path / "m.csv"
        ratings = tmp_path / "r.csv"
        reviews = tmp_path / "v.csv"
        movies.write_text("movieId,title,genres,year,summary\n1,One,Drama,2000,x\n")
        ratings.write_text(
            "userId,movieId,rating,timestamp\n1,1,4.0,5\n1,1,3.0,6\n"
        )
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            load_catalog(movies, ratings, reviews)

    def test_unknown_movie_in_ratings_rejected(self, tmp_path):
        movies = tmp_path / "m.csv"
        ratings = tmp_path / "r.csv"
        reviews = tmp_path / "v.csv"
        movies.write_text("movieId,title,genres,year,summary\n1,One,Drama,2000,x\n")
        ratings.write_text("userId,movieId,rating,timestamp\n1,9,4.0,5\n")
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        with pytest.raises(DataFormatError, match="unknown movie"):
            load_catalog(movies, ratings, reviews)

    def test_malformed_row_names_file_and_line(self, tmp_path):
        movies = tmp_path / "m.csv"
        movies.write_text("movieId,title,genres,year,summary\n1,One,Drama\n")
        ratings = tmp_path / "r.csv"
        ratings.write_text("userId,movieId,rating,timestamp\n")
        reviews = tmp_path / "v.csv"
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        with pytest.raises(DataFormatError) as err:
            load_catalog(movies, ratings, reviews)
        msg = str(err.value)
        assert "m.csv" in msg and "line 2" in msg

    def test_implicit_invariant_enforced(self, tmp_path):
        movies = tmp_path / "m.csv"
        ratings = tmp_path / "r.csv"
        reviews = tmp_path / "v.csv"
        implicit = tmp_path / "i.csv"
        movies.write_text("movieId,title,genres,year,summary\n1,One,Drama,2000,x\n")
        ratings.write_text("userId,movieId,rating,timestamp\n1,1,4.0,5\n")
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        implicit.write_text(
            "userId,movieId,watched,watchFraction,watchCount\n1,1,false,0.4,1\n"
        )
        with pytest.raises(DataFormatError, match="watched"):
            load_catalog(movies, ratings, reviews, implicit_path=implicit)

    def test_review_title_mismatch_dropped_not_fatal(self, fixture_catalog):
        reviewed = {r.movie_id for r in fixture_catalog.reviews}
        assert 999 not in reviewed
        texts = [r.review_text for r in fixture_catalog.reviews]
        assert all("should be dropped" not in t for t in texts)


class TestTitles:
    def test_normalization_strips_case_and_punctuation(self):
        assert normalize_title("The Last Reel!") == normalize_title("the last REEL")
        assert normalize_title("Salt & Smoke") == normalize_title("salt smoke")

    def test_resolve_plain_title(self, fixture_catalog):
        assert resolve_title(fixture_catalog, "northern lights") == 1
        assert resolve_title(fixture_catalog, "The Cartographer") == 13

    def test_resolve_with_year_hint(self, fixture_catalog):
        assert resolve_title(fixture_catalog, "Meridian Beta (2003)") == 5

    def test_unknown_title_raises(self, fixture_catalog):
        with pytest.raises(UnknownEntityError):
            resolve_title(fixture_catalog, "No Such Film")

    def test_closest_titles_finds_near_miss(self, fixture_catalog):
        near = closest_titles(fixture_catalog, "Nothern Lights")
        assert "Northern Lights" in near

    # recorded from closest_titles as it was when it normalized every catalog
    # title per call instead of reading catalog.title_groups
    @pytest.mark.parametrize("query, n, want", [
        ("Nothern Lights", 5, ["Northern Lights", "The Last Reel", "Violet Morning", "Paper Lanterns", "Meridian Alpha"]),
        ("ash fall", 5, ["Ashfall", "Glass Harbor", "The Last Reel", "Meridian Alpha"]),
        ("CLOCKWORK", 2, ["Clockwork Harvest", "Second Orbit"]),
        ("the cartographer (1999)", 5, ["The Cartographer", "The Last Reel", "The Tide Office", "Glass Harbor"]),
        ("Meridian", 5, ["Red Meridian", "Meridian Beta", "Meridian Gamma", "Meridian Alpha", "Paper Lanterns"]),
        ("salt and smoke", 2, ["Salt and Smoke", "Silent Canyon"]),
        ("zzz", 5, []),
        ("", 5, []),
    ])
    def test_closest_titles_unchanged(self, fixture_catalog, query, n, want):
        assert closest_titles(fixture_catalog, query, n=n) == want

    def test_closest_titles_name_the_lowest_id_of_a_shared_title(self, tmp_path):
        movies = tmp_path / "m.csv"
        ratings = tmp_path / "r.csv"
        reviews = tmp_path / "v.csv"
        movies.write_text(
            "movieId,title,genres,year,summary\n3,The Last Reel!,Drama,2000,x\n"
            "1,the last reel,Drama,1990,x\n2,Other Film,Drama,,x\n"
        )
        ratings.write_text("userId,movieId,rating,timestamp\n")
        reviews.write_text("movieId,title,source,rawScore,reviewText\n")
        catalog = load_catalog(movies, ratings, reviews)
        # movie 1's title stands for both, as before
        assert closest_titles(catalog, "last reels") == ["the last reel", "Other Film"]
        assert closest_titles(catalog, "reel") == ["the last reel"]


class TestSummaryStats:
    def test_fixture_tallies(self, fixture_catalog):
        stats = summary_stats(fixture_catalog)
        assert sum(stats.per_year.values()) == 19
        assert stats.unknown_year == 1
        assert stats.per_year[1994] == 1
        assert sum(stats.rating_histogram.values()) == 60
        assert stats.rating_histogram[3.5] == 13
        assert set(stats.rating_histogram) == set(RatingScale().values())

    def test_hand_count_histogram(self, fixture_catalog):
        by_value = {}
        for r in fixture_catalog.ratings:
            by_value[r.value] = by_value.get(r.value, 0) + 1
        stats = summary_stats(fixture_catalog)
        for value, count in by_value.items():
            assert stats.rating_histogram[value] == count

    def test_values_within_tolerance_count_on_the_grid(self):
        # RatingScale.contains accepts a value within 1e-9 of a grid point,
        # at either end of the scale too
        cat = tiny_catalog()
        values = [0.5 - 4e-10, 0.5 + 1e-10, 2.0 - 1e-10, 4.0000000001, 5.0 + 4e-10]
        assert all(cat.scale.contains(v) for v in values)
        ratings = [Rating(1, 1, v, 100 + t) for t, v in enumerate(values)]
        histogram = summary_stats(replace(cat, ratings=ratings)).rating_histogram
        assert list(histogram) == RatingScale().values()
        assert {v: c for v, c in histogram.items() if c} == {0.5: 2, 2.0: 1, 4.0: 1, 5.0: 1}


def loop_train_test_split(catalog, holdout_fraction, seed):
    """train_test_split as it was before index arrays: per-id count dicts
    and a membership pass. The split must equal it exactly."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(catalog.ratings))
    target = int(holdout_fraction * len(catalog.ratings))
    user_counts, movie_counts = {}, {}
    for r in catalog.ratings:
        user_counts[r.user_id] = user_counts.get(r.user_id, 0) + 1
        movie_counts[r.movie_id] = movie_counts.get(r.movie_id, 0) + 1
    test_idx = set()
    for i in order:
        if len(test_idx) >= target:
            break
        r = catalog.ratings[int(i)]
        if user_counts[r.user_id] >= 2 and movie_counts[r.movie_id] >= 2:
            test_idx.add(int(i))
            user_counts[r.user_id] -= 1
            movie_counts[r.movie_id] -= 1
    train = [r for i, r in enumerate(catalog.ratings) if i not in test_idx]
    return train, [catalog.ratings[i] for i in sorted(test_idx)]


class TestTrainTestSplit:
    def test_equals_count_dict_loop(self, fixture_catalog):
        # the fixture, and denser random catalogs over its movies in which
        # many users and movies have a single rating, ratings in no order
        rng = np.random.default_rng(19)
        movie_ids = sorted(fixture_catalog.movies)
        catalogs = [fixture_catalog, tiny_catalog()]
        for n_users in (3, 12, 40):
            cells = {(int(u), int(m)) for u, m in zip(rng.integers(1, n_users + 1, 150), rng.choice(movie_ids, 150))}
            ratings = [Rating(u, m, float(rng.integers(1, 11)) / 2.0) for u, m in cells]
            catalogs.append(replace(fixture_catalog, ratings=[ratings[i] for i in rng.permutation(len(ratings))]))
        for catalog in catalogs:
            for fraction in (0.05, 0.2, 0.5, 0.9):
                for seed in range(6):
                    train, test = train_test_split(catalog, fraction, seed)
                    assert (train.ratings, test) == loop_train_test_split(catalog, fraction, seed)

    def test_deterministic(self, fixture_catalog):
        a_train, a_test = train_test_split(fixture_catalog, 0.2, seed=42)
        b_train, b_test = train_test_split(fixture_catalog, 0.2, seed=42)
        assert a_test == b_test
        assert a_train.ratings == b_train.ratings

    def test_partition_property(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=7)
        key = lambda r: (r.user_id, r.movie_id)
        combined = sorted(train.ratings + test, key=key)
        assert combined == sorted(fixture_catalog.ratings, key=key)
        train_keys = {key(r) for r in train.ratings}
        assert all(key(r) not in train_keys for r in test)

    def test_no_orphans_across_seeds(self, fixture_catalog):
        for seed in range(10):
            train, test = train_test_split(fixture_catalog, 0.4, seed=seed)
            train_users = {r.user_id for r in train.ratings}
            train_movies = {r.movie_id for r in train.ratings}
            for r in test:
                assert r.user_id in train_users
                assert r.movie_id in train_movies

    def test_target_size_respected(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.5, seed=3)
        assert len(test) <= 30

    def test_bad_fraction_rejected(self, fixture_catalog):
        with pytest.raises(CinefuseError):
            train_test_split(fixture_catalog, 0.0, seed=1)
        with pytest.raises(CinefuseError):
            train_test_split(fixture_catalog, 1.0, seed=1)

    def test_tiny_catalog_split_keeps_singletons_in_train(self):
        cat = tiny_catalog()
        train, test = train_test_split(cat, 0.5, seed=11)
        train_users = {r.user_id for r in train.ratings}
        train_movies = {r.movie_id for r in train.ratings}
        for r in test:
            assert r.user_id in train_users and r.movie_id in train_movies
