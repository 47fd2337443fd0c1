"""Catalog ingestion: load, validate, and merge the four input datasets.

The merged store is keyed by movie id. Critic reviews join on id + normalized
title (lossy: unmatched rows are dropped and counted); ratings and implicit
events must resolve or the load fails.
"""

from __future__ import annotations

import csv
import gc
import re
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CinefuseError, DataFormatError, UnknownEntityError


@dataclass(frozen=True)
class RatingScale:
    """Fixed rating scale; values must land on `step` increments."""

    min: float = 0.5
    max: float = 5.0
    step: float = 0.5

    def contains(self, value: float) -> bool:
        if not (self.min - 1e-9 <= value <= self.max + 1e-9):
            return False
        steps = (value - self.min) / self.step
        return abs(steps - round(steps)) < 1e-9

    def values(self) -> list[float]:
        n = int(round((self.max - self.min) / self.step)) + 1
        return [round(self.min + i * self.step, 10) for i in range(n)]

    def clamp(self, value: float) -> float:
        return min(self.max, max(self.min, value))


@dataclass(frozen=True)
class Movie:
    movie_id: int
    title: str
    genres: frozenset[str]
    summary: str = ""
    release_year: int | None = None


class Rating(NamedTuple):
    user_id: int
    movie_id: int
    value: float
    timestamp: int | None = None


@dataclass(frozen=True)
class CriticReview:
    movie_id: int
    source: str
    review_text: str
    raw_score: float


class ImplicitEvent(NamedTuple):
    user_id: int
    movie_id: int
    watched: bool
    watch_fraction: float
    watch_count: int


class RatingColumns(NamedTuple):
    """Ratings as read-only arrays, one entry per rating, in list order."""

    user: np.ndarray  # int64
    movie: np.ndarray  # int64
    value: np.ndarray  # float64

    @classmethod
    def of(cls, ratings: list[Rating]) -> RatingColumns:
        n = len(ratings)
        return cls._read_only(
            np.fromiter(map(itemgetter(0), ratings), np.int64, n),
            np.fromiter(map(itemgetter(1), ratings), np.int64, n),
            np.fromiter(map(itemgetter(2), ratings), np.float64, n),
        )

    def where(self, keep: np.ndarray) -> RatingColumns:
        """The columns of the ratings where the boolean mask `keep` is true."""
        return self._read_only(*(column[keep] for column in self))

    @classmethod
    def _read_only(cls, *columns: np.ndarray) -> RatingColumns:
        for column in columns:
            column.flags.writeable = False
        return cls(*columns)


@dataclass(frozen=True)
class Catalog:
    """Merged, validated store. Treat as immutable after load: the fields
    cannot be reassigned, and the lists and dicts must not be mutated, since
    a fitted ranking model or the column view memoised on the catalog would
    go stale. The column view's arrays are read-only."""

    movies: dict[int, Movie]
    ratings: list[Rating]
    reviews: list[CriticReview]
    implicit: list[ImplicitEvent]
    scale: RatingScale = field(default_factory=RatingScale)
    dropped_reviews: int = 0
    # all movie ids per normalized title, for year-hint disambiguation
    title_groups: dict[str, tuple[int, ...]] = field(default_factory=dict)
    # ranking models fitted on this catalog, keyed by the config fields the
    # fit reads (see ranker.recommend_hybrid); a `replace` copy starts empty
    _models: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # `ratings` as columns, built on the first read of `columns`; a `replace`
    # copy starts empty
    _columns: RatingColumns | None = field(init=False, repr=False, compare=False, default=None)

    @property
    def columns(self) -> RatingColumns:
        """The ratings' user and movie ids and values as arrays, built once."""
        if self._columns is None:
            object.__setattr__(self, "_columns", RatingColumns.of(self.ratings))
        return self._columns

    def genre_universe(self) -> list[str]:
        genres = set()
        for m in self.movies.values():
            genres.update(m.genres)
        return sorted(genres)


_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def normalize_title(title: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _NON_ALNUM.sub(" ", title.lower()).strip()


_YEAR_SUFFIX = re.compile(r"^(?P<base>.*?)\s*\((?P<year>\d{4})\)\s*$")


def resolve_title(catalog: Catalog, query: str) -> int:
    """Resolve a title (optionally '<title> (YYYY)') to a movie id.

    Ambiguous titles prefer an exact year match when the query carries one,
    otherwise the lowest movie id wins.
    """
    year = None
    m = _YEAR_SUFFIX.match(query)
    if m:
        base, year = m.group("base"), int(m.group("year"))
        norm = normalize_title(base)
        if norm not in catalog.title_groups:
            norm = normalize_title(query)  # year may be part of the real title
            year = None
    else:
        norm = normalize_title(query)
    ids = catalog.title_groups.get(norm)
    if not ids:
        raise UnknownEntityError(f"no movie titled '{query}' in catalog")
    if year is not None:
        for mid in ids:
            if catalog.movies[mid].release_year == year:
                return mid
    return ids[0]


def closest_titles(catalog: Catalog, query: str, n: int = 5) -> list[str]:
    """Closest catalog titles to a query, for error messages."""
    import difflib

    # each normalized title stands for its lowest-id movie's title
    by_norm = {norm: catalog.movies[ids[0]].title for norm, ids in catalog.title_groups.items()}
    matches = difflib.get_close_matches(normalize_title(query), list(by_norm), n=n, cutoff=0.3)
    return [by_norm[m] for m in matches]


def _read_rows(path, expected_header):
    path = Path(path)
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot open: {exc}", path=path) from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file, expected header", path=path, line=1) from None
        if [h.strip() for h in header] != expected_header:
            raise DataFormatError(
                f"bad header {header!r}, expected {expected_header!r}", path=path, line=1
            )
        rows = []
        for row in reader:
            if len(row) != len(expected_header):
                if not row:
                    continue
                raise DataFormatError(
                    f"expected {len(expected_header)} fields, got {len(row)}",
                    path=path,
                    line=reader.line_num,
                )
            rows.append((reader.line_num, row))
    return rows


def _parse_int(value, path, line, fld, optional=False):
    value = value.strip()
    if value == "":
        if optional:
            return None
        raise DataFormatError("missing required integer", path=path, line=line, field=fld)
    try:
        return int(value)
    except ValueError:
        raise DataFormatError(f"not an integer: {value!r}", path=path, line=line, field=fld) from None


def _parse_float(value, path, line, fld):
    try:
        return float(value.strip())
    except ValueError:
        raise DataFormatError(f"not a number: {value!r}", path=path, line=line, field=fld) from None


# the range of the ids and counts that numpy later holds as int64
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _outside_int64(value, path, line, fld):
    raise DataFormatError(f"{fld} {value} does not fit in a 64-bit integer", path=path, line=line, field=fld)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(value, path, line, fld):
    v = _BOOLS.get(value.strip().lower())
    if v is None:
        raise DataFormatError(f"not a boolean: {value!r}", path=path, line=line, field=fld)
    return v


def load_catalog(
    movies_path,
    ratings_path,
    reviews_path,
    implicit_path=None,
    scale: RatingScale | None = None,
) -> Catalog:
    """Load and merge the movie, rating, review, and implicit-event files.

    Reviews whose (movie id, normalized title) pair fails to match a catalog
    movie are dropped; the count lands in `Catalog.dropped_reviews`. Any other
    referential or schema problem raises DataFormatError.

    Each row's fields are converted inline with int()/float() and the exact
    boolean words. A row where that fails goes through the _parse_*
    functions in field order instead: they also accept padding that strip()
    removes and int()/float() reject (U+001C-U+001F, or any case of a
    boolean word), and raise the error naming the field.

    The cyclic garbage collector is paused for the load: the records hold
    no reference cycles, and each collection the allocations would trigger
    rescans every record built so far. This is process-wide state, so other
    threads collect nothing meanwhile either. The caller's setting (enabled
    or disabled) is restored when the load returns or raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(movies_path, ratings_path, reviews_path, implicit_path, scale or RatingScale())
    finally:
        if enabled:
            gc.enable()


def _load(movies_path, ratings_path, reviews_path, implicit_path, scale: RatingScale) -> Catalog:
    movies: dict[int, Movie] = {}
    norms: dict[int, str] = {}  # normalized title per movie id
    for line, row in _read_rows(movies_path, ["movieId", "title", "genres", "year", "summary"]):
        try:
            mid = int(row[0])
        except ValueError:
            mid = _parse_int(row[0], movies_path, line, "movieId")
        if not _INT64_MIN <= mid <= _INT64_MAX:
            _outside_int64(mid, movies_path, line, "movieId")
        title = row[1].strip()
        if not title:
            raise DataFormatError("empty title", path=movies_path, line=line, field="title")
        if mid in movies:
            raise DataFormatError(f"duplicate movieId {mid}", path=movies_path, line=line, field="movieId")
        genres = frozenset(filter(None, map(str.strip, row[2].split("|"))))
        try:
            year = int(row[3]) if row[3] else None
        except ValueError:
            year = _parse_int(row[3], movies_path, line, "year", optional=True)
        movies[mid] = Movie(mid, title, genres, summary=row[4], release_year=year)
        norms[mid] = normalize_title(title)

    # the grid values contains() accepts; any other value (off the grid by
    # under its tolerance, out of range, NaN) is left to contains()
    on_grid = {v for v in scale.values() if scale.contains(v)}
    ratings: list[Rating] = []
    seen_pairs = set()
    for line, row in _read_rows(ratings_path, ["userId", "movieId", "rating", "timestamp"]):
        try:
            uid, mid, value = int(row[0]), int(row[1]), float(row[2])
            ts = int(row[3]) if row[3] else None
        except ValueError:
            uid = _parse_int(row[0], ratings_path, line, "userId")
            mid = _parse_int(row[1], ratings_path, line, "movieId")
            value = _parse_float(row[2], ratings_path, line, "rating")
            ts = _parse_int(row[3], ratings_path, line, "timestamp", optional=True)
        if not _INT64_MIN <= uid <= _INT64_MAX:
            _outside_int64(uid, ratings_path, line, "userId")
        if mid not in movies:
            raise DataFormatError(f"unknown movieId {mid}", path=ratings_path, line=line, field="movieId")
        if value not in on_grid and not scale.contains(value):
            raise DataFormatError(
                f"value out of scale at line {line}: {value}", path=ratings_path, line=line, field="rating"
            )
        pair = (uid, mid)
        if pair in seen_pairs:
            raise DataFormatError(
                f"duplicate rating for user {uid}, movie {mid}", path=ratings_path, line=line
            )
        seen_pairs.add(pair)
        ratings.append(Rating(uid, mid, value, ts))

    reviews: list[CriticReview] = []
    dropped = 0
    for line, row in _read_rows(reviews_path, ["movieId", "title", "source", "rawScore", "reviewText"]):
        try:
            mid, raw = int(row[0]), float(row[3])
        except ValueError:
            mid = _parse_int(row[0], reviews_path, line, "movieId")
            raw = _parse_float(row[3], reviews_path, line, "rawScore")
        if not (0.0 <= raw <= 5.0):
            raise DataFormatError(
                f"rawScore {raw} outside [0, 5]", path=reviews_path, line=line, field="rawScore"
            )
        movie = movies.get(mid)
        # a title equal to the movie's needs no normalizing to match it
        if movie is None or (row[1] != movie.title and normalize_title(row[1]) != norms[mid]):
            dropped += 1
            continue
        reviews.append(CriticReview(mid, source=row[2], review_text=row[4], raw_score=raw))

    implicit: list[ImplicitEvent] = []
    if implicit_path is not None:
        header = ["userId", "movieId", "watched", "watchFraction", "watchCount"]
        for line, row in _read_rows(implicit_path, header):
            try:
                uid, mid, watched = int(row[0]), int(row[1]), _BOOLS[row[2]]
                frac, count = float(row[3]), int(row[4])
            except (KeyError, ValueError):
                uid = _parse_int(row[0], implicit_path, line, "userId")
                mid = _parse_int(row[1], implicit_path, line, "movieId")
                watched = _parse_bool(row[2], implicit_path, line, "watched")
                frac = _parse_float(row[3], implicit_path, line, "watchFraction")
                count = _parse_int(row[4], implicit_path, line, "watchCount")
            if not _INT64_MIN <= uid <= _INT64_MAX:
                _outside_int64(uid, implicit_path, line, "userId")
            if mid not in movies:
                raise DataFormatError(f"unknown movieId {mid}", path=implicit_path, line=line, field="movieId")
            if not (0.0 <= frac <= 1.0):
                raise DataFormatError(
                    f"watchFraction {frac} outside [0, 1]", path=implicit_path, line=line, field="watchFraction"
                )
            if count < 0:
                raise DataFormatError("negative watchCount", path=implicit_path, line=line, field="watchCount")
            if not _INT64_MIN <= count <= _INT64_MAX:
                _outside_int64(count, implicit_path, line, "watchCount")
            if not watched and frac != 0.0:
                raise DataFormatError(
                    "watchFraction must be 0 when watched is false",
                    path=implicit_path,
                    line=line,
                    field="watchFraction",
                )
            implicit.append(ImplicitEvent(uid, mid, watched, frac, count))

    groups: dict[str, list[int]] = {}
    for mid in sorted(movies):
        groups.setdefault(norms[mid], []).append(mid)

    return Catalog(
        movies=movies,
        ratings=ratings,
        reviews=reviews,
        implicit=implicit,
        scale=scale,
        dropped_reviews=dropped,
        title_groups={norm: tuple(ids) for norm, ids in groups.items()},
    )


@dataclass
class CatalogStats:
    per_year: dict[int, int]
    unknown_year: int
    rating_histogram: dict[float, int]


def summary_stats(catalog: Catalog) -> CatalogStats:
    """Per-year movie counts plus a rating histogram.

    The movies schema carries release year only, so there are no month
    counts.
    """
    per_year: dict[int, int] = {}
    unknown_year = 0
    for movie in catalog.movies.values():
        if movie.release_year is None:
            unknown_year += 1
        else:
            per_year[movie.release_year] = per_year.get(movie.release_year, 0) + 1
    # by grid index: the loader accepts a value within 1e-9 of the grid
    scale, grid = catalog.scale, catalog.scale.values()
    index = np.rint((catalog.columns.value - scale.min) / scale.step).astype(np.intp)
    histogram = dict(zip(grid, np.bincount(index, minlength=len(grid)).tolist()))
    return CatalogStats(
        per_year=dict(sorted(per_year.items())),
        unknown_year=unknown_year,
        rating_histogram=histogram,
    )


def train_test_split(
    catalog: Catalog, holdout_fraction: float, seed: int
) -> tuple[Catalog, list[Rating]]:
    """Deterministic holdout split that never orphans a user or movie.

    A rating moves to the test set only while its user and movie keep at
    least one other rating in train, so every test rating's entities stay
    predictable. Train + test partition the original ratings exactly.
    """
    if not (0.0 < holdout_fraction < 1.0):
        raise CinefuseError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(catalog.ratings))
    target = int(holdout_fraction * len(catalog.ratings))

    # each rating's user and movie as an index into their counts
    ratings, columns = catalog.ratings, catalog.columns
    _, user = np.unique(columns.user, return_inverse=True)
    _, movie = np.unique(columns.movie, return_inverse=True)
    user_counts, movie_counts = np.bincount(user).tolist(), np.bincount(movie).tolist()
    user, movie = user.tolist(), movie.tolist()

    picked = []
    for i in order.tolist():
        if len(picked) >= target:
            break
        u, m = user[i], movie[i]
        if user_counts[u] >= 2 and movie_counts[m] >= 2:
            picked.append(i)
            user_counts[u] -= 1
            movie_counts[m] -= 1

    in_train = np.ones(len(ratings), dtype=bool)
    in_train[picked] = False
    train_ratings = list(compress(ratings, in_train.tolist()))
    test_ratings = list(compress(ratings, (~in_train).tolist()))
    train = replace(catalog, ratings=train_ratings)
    object.__setattr__(train, "_columns", columns.where(in_train))
    return train, test_ratings
