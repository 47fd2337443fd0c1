"""Catalog loading, validation, title resolution, stats, and splitting."""

import gc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from cinefuse import catalog as catalog_module
from cinefuse import cli
from cinefuse.catalog import (
    Catalog,
    ImplicitEvent,
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
from cinefuse.evaluate import VARIANTS, evaluate_variants
from cinefuse.ranker import PipelineConfig, recommend_hybrid

from conftest import load_fixture_catalog, tiny_catalog


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


class TestRecords:
    # the fuzz oracle builds its records from these same classes, so only
    # these pins see a change of record type or layout
    def test_fields_and_defaults(self):
        assert Rating._fields == ("user_id", "movie_id", "value", "timestamp")
        assert ImplicitEvent._fields == ("user_id", "movie_id", "watched", "watch_fraction", "watch_count")
        assert Rating(1, 2, 3.5).timestamp is None
        assert Rating._field_defaults == {"timestamp": None}
        assert ImplicitEvent._field_defaults == {}

    def test_repr(self):
        assert repr(Rating(1, 2, 3.5)) == "Rating(user_id=1, movie_id=2, value=3.5, timestamp=None)"
        assert repr(Rating(7, 8, 4.0, 100)) == "Rating(user_id=7, movie_id=8, value=4.0, timestamp=100)"
        assert (
            repr(ImplicitEvent(1, 2, True, 0.5, 3))
            == "ImplicitEvent(user_id=1, movie_id=2, watched=True, watch_fraction=0.5, watch_count=3)"
        )

    @pytest.mark.parametrize(
        "record", [Rating(1, 2, 3.5, 9), ImplicitEvent(1, 2, True, 0.5, 3)], ids=["Rating", "ImplicitEvent"]
    )
    def test_fields_cannot_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0


def fixture_paths():
    return FIXTURE_DIR / "movies.csv", FIXTURE_DIR / "ratings.csv", FIXTURE_DIR / "reviews.csv"


@pytest.fixture
def collector_state():
    """Gives the collector back the setting it had before the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestLoadPausesCollector:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored(self, collector_state, enabled):
        gc.enable() if enabled else gc.disable()
        load_catalog(*fixture_paths(), implicit_path=FIXTURE_DIR / "implicit.csv")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored_after_error_mid_file(self, collector_state, tmp_path, enabled):
        movies, ratings, reviews = fixture_paths()
        lines = ratings.read_text().splitlines(keepends=True)
        lines[30] = "1,1,7.0,5\n"
        bad = tmp_path / "ratings.csv"
        bad.write_text("".join(lines))
        gc.enable() if enabled else gc.disable()
        with pytest.raises(DataFormatError, match="out of scale") as err:
            load_catalog(movies, bad, reviews)
        assert "line 31" in str(err.value)
        assert gc.isenabled() is enabled

    def test_collector_paused_while_reading(self, collector_state, monkeypatch):
        # the fixture's ratings file is in the strict form, so the column
        # parse reads it and the row reader the other three files
        seen = []
        for name in ("_read_rows", "_read_strict_ratings"):
            read = getattr(catalog_module, name)

            def spy(*args, read=read, name=name):
                seen.append((name, gc.isenabled()))
                return read(*args)

            monkeypatch.setattr(catalog_module, name, spy)
        gc.enable()
        load_catalog(*fixture_paths(), implicit_path=FIXTURE_DIR / "implicit.csv")
        assert seen == [(name, False) for name in ("_read_rows", "_read_strict_ratings", "_read_rows", "_read_rows")]
        assert gc.isenabled()


def record_columns(ratings):
    """The column view built field by field from the records."""
    return (
        np.array([r.user_id for r in ratings], dtype=np.int64),
        np.array([r.movie_id for r in ratings], dtype=np.int64),
        np.array([r.value for r in ratings], dtype=np.float64),
    )


def assert_columns_match(catalog):
    columns = catalog.columns
    assert columns._fields == ("user", "movie", "value")
    for got, want in zip(columns, record_columns(catalog.ratings), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestColumns:
    def test_equal_record_arrays(self, fixture_catalog):
        empty = Catalog(movies={}, ratings=[], reviews=[], implicit=[])
        for catalog in (fixture_catalog, tiny_catalog(), empty):
            assert_columns_match(catalog)
        assert len(empty.columns.user) == 0

    def test_built_once_and_read_only(self):
        catalog = tiny_catalog()
        columns = catalog.columns
        assert catalog.columns is columns
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_not_part_of_equality_or_repr(self):
        a, b = tiny_catalog(), tiny_catalog()
        text = repr(b)
        a.columns  # builds and holds the view
        assert a == b and repr(a) == text

    def test_replace_copy_never_returns_parent_columns(self):
        parent = tiny_catalog()
        parent_columns = parent.columns
        for ratings in (parent.ratings, parent.ratings[::2], parent.ratings[::-1], []):
            copy = replace(parent, ratings=ratings)
            assert copy.columns is not parent_columns
            assert_columns_match(copy)
        assert replace(parent).columns is not parent_columns

    def test_split_train_columns_equal_its_own_ratings(self, fixture_catalog):
        rng = np.random.default_rng(23)
        movie_ids = sorted(fixture_catalog.movies)
        cells = {(int(u), int(m)) for u, m in zip(rng.integers(1, 30, 200), rng.choice(movie_ids, 200))}
        ratings = [Rating(u, m, float(rng.integers(1, 11)) / 2.0) for u, m in cells]
        for catalog in (fixture_catalog, tiny_catalog(), replace(fixture_catalog, ratings=ratings)):
            catalog.columns  # the parent's view is built before the split reads it
            for fraction in (0.1, 0.5, 0.9):
                for seed in range(4):
                    train, _ = train_test_split(catalog, fraction, seed)
                    assert_columns_match(train)
                    assert_columns_match(catalog)


STRICT_MOVIES = "movieId,title,genres,year,summary\n1,One,Drama,2000,x\n2,Two,Action,,y\n"
# movie ids of 18 and 19 digits, both within int64
LONG_IDS = (123456789012345678, 1234567890123456789)


def load_ratings(tmp_path, text, rows_only=False):
    """("columns" or "rows", catalog) from loading `text` as the ratings
    file, or ("error", message, line, field). With `rows_only` the column
    parse is switched off, so the row loop reads every file."""
    movies, ratings, reviews = (tmp_path / f"{name}.csv" for name in ("movies", "ratings", "reviews"))
    movies.write_text(STRICT_MOVIES + "".join(f"{mid},Long {mid},Drama,2000,z\n" for mid in LONG_IDS))
    ratings.write_bytes(text.encode("utf-8"))
    reviews.write_text("movieId,title,source,rawScore,reviewText\n")
    read, took = catalog_module._read_strict_ratings, []

    def spy(*args):
        held = None if rows_only else read(*args)
        took.append(held is not None)
        return held

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(catalog_module, "_read_strict_ratings", spy)
        try:
            catalog = load_catalog(movies, ratings, reviews)
        except DataFormatError as exc:
            return "error", str(exc), exc.line, exc.field
    return "columns" if any(took) else "rows", catalog


def assert_same_catalog(got, want):
    """The same records, columns, timestamps, `==` and repr."""
    assert got.ratings == want.ratings
    assert got == want and repr(got) == repr(want)
    for a, b in zip(got.columns, want.columns, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got._timestamp_column().tolist() == want._timestamp_column().tolist()


HEADER = "userId,movieId,rating,timestamp"


class TestStrictRatings:
    """The column parse against the row loop: the same catalog, or the same
    first error with file and line, whichever path the file takes."""

    @pytest.mark.parametrize(
        "text, path",
        [
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.5,7\n2,1,5,9\n", "columns"),
            (f"{HEADER}\r\n1,1,4.0,5\r\n1,2,3.5,7\r\n", "columns"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.5,7", "columns"),
            (f"{HEADER}\r\n1,1,4.0,5\r\n1,2,3.5,7", "columns"),
            (f"{HEADER}\n", "columns"),
            (HEADER, "columns"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.5,\n", "rows"),
            (f"{HEADER}\n{10**17},{LONG_IDS[0]},4.0,{10**17}\n", "columns"),
            (f"{HEADER}\n{10**18},{LONG_IDS[1]},4.0,{10**18}\n", "rows"),
            (f"{HEADER}\n1,1,4.0,{2**70}\n", "rows"),
            (f"{HEADER}\n+1,1,+4.0,+5\n", "rows"),
            (f"{HEADER}\n 1,1, 4.0 ,5\n1,2,3.5\t,7\n", "rows"),
            (f"{HEADER}\n1_0,1,4.0,1_000\n", "rows"),
            (f"{HEADER}\n\u0663,2,\u0663.\u0665,\u0667\n", "rows"),
            (f"{HEADER}\n1,1,4.0,5\n\n1,2,3.5,7\n", "rows"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.5,7\n\n", "rows"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.5,7\r", "rows"),
            (f"{HEADER}\n1,1,4.0,5\r1,2,3.5,7\n", "rows"),
            (f"{HEADER}\r\n1,1,4.0,5\n1,2,3.5,7\r\n", "columns"),
            (f"{HEADER}\n1,1,4e0,5\n", "rows"),
            (f"{HEADER}\n1,1,4.0000000001,5\n1,2,3.4999999999,7\n", "columns"),
            (f"{HEADER}\n1,1,3.4999999999999999,5\n1,2,0.50000000000000001,7\n", "columns"),
            (f"{HEADER}\n1,1,4.000000000000000000000000000001,5\n", "columns"),
            (f"userId, movieId,rating,timestamp\n1,1,4.0,5\n", "rows"),
        ],
    )
    def test_same_catalog(self, tmp_path, text, path):
        got = load_ratings(tmp_path, text)
        assert got[0] == path
        if path == "columns":  # held as columns, records not built yet
            assert got[1]._ratings is None and got[1]._timestamp_column().dtype == np.int64
        want = load_ratings(tmp_path, text, rows_only=True)
        assert want[0] == "rows"
        assert_same_catalog(got[1], want[1])

    @pytest.mark.parametrize(
        "text, line, fld, message",
        [
            (f"{HEADER}\n1,1,nan,5\n", 2, "rating", "out of scale"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,inf,5\n", 3, "rating", "out of scale"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,4.00000001,5\n", 3, "rating", "out of scale"),
            (f"{HEADER}\n1,1,4.0,5\n2,9,4.0,5\n", 3, "movieId", "unknown movieId 9"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,4.3,5\n1,1,3.0,6\n", 3, "rating", "out of scale"),
            (f"{HEADER}\n1,1,4.0,5\n1,2,3.0,5\n1,1,3.0,6\n1,2,9.0,5\n", 4, None, "duplicate rating"),
            (f"{HEADER}\n9999999999999999999,1,4.0,5\n", 2, "userId", "64-bit"),
            (f"{HEADER}\n1,1,4.0,5\n1,2\n", 3, None, "expected 4 fields"),
        ],
    )
    def test_same_first_error(self, tmp_path, text, line, fld, message):
        got = load_ratings(tmp_path, text)
        assert got == load_ratings(tmp_path, text, rows_only=True)
        assert got[0] == "error" and message in got[1] and "ratings.csv" in got[1]
        assert got[2:] == (line, fld)

    def test_split_of_columns_equals_split_of_records(self, fixture_catalog):
        records = replace(fixture_catalog, ratings=list(fixture_catalog.ratings))
        huge = replace(records, ratings=[r._replace(timestamp=[None, 2**70][i % 2]) for i, r in enumerate(records.ratings)])
        for catalog, other in ((load_fixture_catalog(), records), (huge, huge)):
            for seed in range(3):
                (train, test), (want_train, want_test) = (train_test_split(c, 0.3, seed) for c in (catalog, other))
                assert test == want_test and repr(test) == repr(want_test)
                assert_same_catalog(train, want_train)
                assert train.implicit_columns is catalog.implicit_columns


class TestImplicitColumns:
    def test_equal_record_arrays_built_once_read_only(self, fixture_catalog):
        catalog = load_fixture_catalog()
        columns = catalog.implicit_columns
        assert catalog.implicit_columns is columns
        events = catalog.implicit
        want = (
            np.array([e.user_id for e in events], dtype=np.int64),
            np.array([e.movie_id for e in events], dtype=np.int64),
            np.array([1.0 if e.watched else 0.0 for e in events]),
            np.array([e.watch_fraction for e in events]),
            np.array([e.watch_count for e in events], dtype=np.int64),
        )
        for got, expected in zip(columns, want, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0

    def test_not_part_of_equality_or_repr(self):
        a, b = load_fixture_catalog(), load_fixture_catalog()
        a.implicit_columns
        assert a == b and repr(a) == repr(b)


def recorded_builds(monkeypatch):
    """The size of each list of Rating records built from columns."""
    build, sizes = catalog_module._records, []

    def spy(*args):
        sizes.append(len(build(*args)))
        return build(*args)

    monkeypatch.setattr(catalog_module, "_records", spy)
    return sizes


class TestRecordsOnlyWhereRead:
    def test_recommend_builds_none(self, monkeypatch):
        catalog = load_fixture_catalog()
        sizes = recorded_builds(monkeypatch)
        recommend_hybrid(catalog, next(iter(catalog.movies.values())).title, PipelineConfig())
        assert sizes == [] and catalog._ratings is None

    def test_evaluate_builds_none(self, monkeypatch):
        catalog = load_fixture_catalog()
        sizes = recorded_builds(monkeypatch)
        evaluate_variants(catalog, VARIANTS)
        assert sizes == [] and catalog._ratings is None

    @pytest.mark.parametrize("budget", [("ga", "--population", "3", "--generations", "1"),
                                        ("pso", "--particles", "2", "--iterations", "1")])
    def test_optimize_weights_builds_the_test_ratings_only(self, monkeypatch, tmp_path, capsys, budget):
        _, test = train_test_split(load_fixture_catalog(), 0.2, 0)
        sizes = recorded_builds(monkeypatch)
        assert cli.main(["optimize-weights", "--method", *budget, "--out", str(tmp_path / "w.txt")]) == 0
        assert sizes == [len(test)]

    def test_stats_build_none(self, monkeypatch, capsys):
        catalog = load_fixture_catalog()
        sizes = recorded_builds(monkeypatch)
        summary_stats(catalog)
        assert cli.main(["stats"]) == 0 and cli.main(["load-check"]) == 0
        assert "ratings=60" in capsys.readouterr().out
        assert sizes == [] and catalog._ratings is None

    def test_first_read_builds_every_record_once(self, monkeypatch):
        catalog = load_fixture_catalog()
        sizes = recorded_builds(monkeypatch)
        assert catalog.ratings is catalog.ratings
        assert sizes == [60]


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

    @pytest.mark.parametrize(
        "name, row, fld",
        [
            ("movies", "{},One,Drama,2000,x", "movieId"),
            ("ratings", "{},1,4.0,5", "userId"),
            ("implicit", "{},1,true,0.5,1", "userId"),
            ("implicit", "1,1,true,0.5,{}", "watchCount"),
        ],
    )
    def test_ids_and_counts_fit_in_int64(self, tmp_path, name, row, fld):
        # rating matrices and implicit events hold them as int64
        rows = {
            "movies": "movieId,title,genres,year,summary\n1,One,Drama,2000,x\n",
            "ratings": "userId,movieId,rating,timestamp\n1,1,4.0,5\n",
            "reviews": "movieId,title,source,rawScore,reviewText\n",
            "implicit": "userId,movieId,watched,watchFraction,watchCount\n1,1,true,0.5,1\n",
        }
        paths = {n: tmp_path / f"{n}.csv" for n in rows}
        for value in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1):
            fits = -(2**63) <= value < 2**63
            if fld == "watchCount" and value < 0:
                continue  # the negative-count check comes first
            for n, text in rows.items():
                paths[n].write_text(text + (row.format(value) + "\n" if n == name else ""))
            args = paths["movies"], paths["ratings"], paths["reviews"], paths["implicit"]
            if fits:
                catalog = load_catalog(*args)
                assert len(catalog.movies) == 1 + (name == "movies")
                assert catalog.columns.user.tolist()[-1] == (value if name == "ratings" else 1)
            else:
                with pytest.raises(DataFormatError, match="does not fit in a 64-bit integer") as err:
                    load_catalog(*args)
                assert (err.value.line, err.value.field) == (3, fld)
                assert f"{name}.csv" in str(err.value)

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

    def test_equals_per_record_loop(self, fixture_catalog):
        # the histogram as it was counted before the column view
        def loop_histogram(catalog):
            scale, grid = catalog.scale, catalog.scale.values()
            counts = [0] * len(grid)
            for r in catalog.ratings:
                counts[round((r.value - scale.min) / scale.step)] += 1
            return dict(zip(grid, counts))

        rng = np.random.default_rng(29)
        off = [0.0, 0.0, 1e-10, -1e-10, 4e-10, -4e-10]
        for n in (0, 1, 40, 300):
            values = rng.integers(1, 11, n) / 2.0 + rng.choice(off, n)
            ratings = [Rating(1, t, float(v)) for t, v in enumerate(values)]
            catalog = replace(fixture_catalog, ratings=ratings)
            assert all(catalog.scale.contains(r.value) for r in ratings)
            histogram = summary_stats(catalog).rating_histogram
            assert list(histogram.items()) == list(loop_histogram(catalog).items())
            assert all(type(c) is int for c in histogram.values())

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
