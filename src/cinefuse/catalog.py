"""Catalog ingestion: load, validate, and merge the four input datasets.

The merged store is keyed by movie id. Critic reviews join on id + normalized
title (lossy: unmatched rows are dropped and counted); ratings and implicit
events must resolve or the load fails.
"""

from __future__ import annotations

import csv
import gc
import io
import re
from dataclasses import dataclass, field, replace
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
        return _columns_of(cls, ratings, (np.int64, np.int64, np.float64))

    def where(self, keep: np.ndarray) -> RatingColumns:
        """The columns of the ratings where the boolean mask `keep` is true."""
        return self._make(_read_only(column[keep]) for column in self)


class ImplicitColumns(NamedTuple):
    """Implicit events as read-only arrays, one entry per event, in list order."""

    user: np.ndarray  # int64
    movie: np.ndarray  # int64
    watched: np.ndarray  # float64, 1.0 or 0.0
    fraction: np.ndarray  # float64
    count: np.ndarray  # int64

    @classmethod
    def of(cls, events: list[ImplicitEvent]) -> ImplicitColumns:
        return _columns_of(cls, events, (np.int64, np.int64, np.float64, np.float64, np.int64))


def _columns_of(cls, records, dtypes):
    """A `cls` of read-only arrays, one per record field, of `dtypes`."""
    n = len(records)
    return cls._make(_read_only(np.fromiter(map(itemgetter(i), records), dtype, n)) for i, dtype in enumerate(dtypes))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _records(columns: RatingColumns, timestamps: np.ndarray) -> list[Rating]:
    """Rating records from columns and their timestamps."""
    return list(map(Rating, *(column.tolist() for column in (*columns, timestamps))))


class _Ratings:
    """The `ratings` field of a Catalog: the records it was built with, or,
    for a catalog that holds its ratings as columns, records built from the
    columns on the first read and then held."""

    def __get__(self, catalog, owner=None):
        if catalog is None:
            raise AttributeError("ratings")  # so the field has no default
        if catalog._ratings is None:
            object.__setattr__(catalog, "_ratings", _records(catalog._columns, catalog._timestamps))
        return catalog._ratings

    def __set__(self, catalog, ratings):
        object.__setattr__(catalog, "_ratings", ratings)


@dataclass(frozen=True)
class Catalog:
    """Merged, validated store. Treat as immutable after load: the fields
    cannot be reassigned, and the lists and dicts must not be mutated, since
    a fitted ranking model or the column views memoised on the catalog would
    go stale. The column views' arrays are read-only.

    A catalog loaded from a ratings file in the strict form (README, "Data
    formats"), and the train catalog of a split, hold their ratings as
    columns only: `ratings` builds its records on the first read and holds
    them. Its records, `==` and repr are those of a catalog built from the
    same records."""

    movies: dict[int, Movie]
    ratings: list[Rating] = _Ratings()
    reviews: list[CriticReview]
    implicit: list[ImplicitEvent]
    scale: RatingScale = field(default_factory=RatingScale)
    dropped_reviews: int = 0
    # all movie ids per normalized title, for year-hint disambiguation
    title_groups: dict[str, tuple[int, ...]] = field(default_factory=dict)
    # ranking models fitted on this catalog, keyed by the config fields the
    # fit reads (see ranker.recommend_hybrid); a `replace` copy starts empty
    _models: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    # `ratings` as columns, and their timestamps as one more column, given
    # at load or built on the first read of `columns` and `_timestamp_column`;
    # a `replace` copy starts empty
    _columns: RatingColumns | None = field(init=False, repr=False, compare=False, default=None)
    _timestamps: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    # `implicit` as columns, built on the first read of `implicit_columns`
    _implicit_columns: ImplicitColumns | None = field(init=False, repr=False, compare=False, default=None)

    @property
    def columns(self) -> RatingColumns:
        """The ratings' user and movie ids and values as arrays, built once."""
        if self._columns is None:
            object.__setattr__(self, "_columns", RatingColumns.of(self.ratings))
        return self._columns

    @property
    def implicit_columns(self) -> ImplicitColumns:
        """The implicit events' fields as arrays, built once."""
        if self._implicit_columns is None:
            object.__setattr__(self, "_implicit_columns", ImplicitColumns.of(self.implicit))
        return self._implicit_columns

    def _timestamp_column(self) -> np.ndarray:
        """The ratings' timestamps: int64 when loaded as columns, else the
        records' own values (None, or an int of any size) as objects."""
        if self._timestamps is None:
            stamps = np.array([r.timestamp for r in self.ratings], dtype=object)
            object.__setattr__(self, "_timestamps", _read_only(stamps))
        return self._timestamps

    def _hold(self, columns: RatingColumns, timestamps: np.ndarray) -> None:
        """Hold the ratings as columns, in place of records."""
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_timestamps", timestamps)

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

    A ratings file in the strict form (an exact header, then lines of
    unsigned ASCII `int,int,decimal,int`, ids and timestamps of at most 18
    digits) is parsed as columns in one numpy call and checked with array
    operations; the catalog then builds its Rating records only when
    `ratings` is read. Any other file, or one that fails a check, is read a
    row at a time as below, which gives an equal catalog or the first error.

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
    held = _read_strict_ratings(ratings_path, movies, scale, on_grid)
    ratings = None if held else _read_rating_rows(ratings_path, movies, scale, on_grid)

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

    catalog = Catalog(
        movies=movies,
        ratings=ratings,
        reviews=reviews,
        implicit=implicit,
        scale=scale,
        dropped_reviews=dropped,
        title_groups={norm: tuple(ids) for norm, ids in groups.items()},
    )
    if held:
        catalog._hold(*held)
    return catalog


def _read_rating_rows(
    ratings_path, movies: dict[int, Movie], scale: RatingScale, on_grid: set[float]
) -> list[Rating]:
    """The ratings file as records, a row at a time; raises the first error
    with file and line."""
    ratings: list[Rating] = []
    seen_pairs = set()
    for line, row in _read_rows(ratings_path, _RATINGS_HEADER):
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
    return ratings


_RATINGS_HEADER = ["userId", "movieId", "rating", "timestamp"]
# A ratings line whose fields np.loadtxt reads as int() and float() read
# them: unsigned ASCII ids and timestamp of at most 18 digits, so within
# int64, and an unsigned decimal; no padding, sign, exponent, `_`, `#` or
# quote. _NOT_STRICT finds a newline followed neither by the end of the file
# nor by such a line ending in LF, CRLF or the end of the file: searched from
# the header's newline, it finds none exactly when every line is strict. Each
# match attempt reads one line, so its memory does not grow with the file, as
# that of one repeated group over the whole body would (without 3.11's `*+`).
_NOT_STRICT = re.compile(rb"\n(?!\Z|\d{1,18},\d{1,18},\d+(?:\.\d+)?,\d{1,18}(?:\r?\n|\Z))")
_STRICT_ROW = np.dtype([("user", np.int64), ("movie", np.int64), ("value", np.float64), ("timestamp", np.int64)])


def _read_strict_ratings(
    path, movies: dict[int, Movie], scale: RatingScale, on_grid: set[float]
) -> tuple[RatingColumns, np.ndarray] | None:
    """The ratings file as (RatingColumns, int64 timestamps), parsed in one
    numpy call, when its header is exact, every line is in the strict form
    and every rating passes the row loop's checks; else None, and the row
    loop reads the file and raises its first error with file and line."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    body = data.find(b"\n") + 1 or len(data)
    header = data[:body].removesuffix(b"\n").removesuffix(b"\r")
    if header != ",".join(_RATINGS_HEADER).encode() or _NOT_STRICT.search(data, body - 1):
        return None
    if body < len(data):
        table = np.loadtxt(io.BytesIO(data), _STRICT_ROW, delimiter=",", comments=None, skiprows=1, ndmin=1)
    else:
        table = np.empty(0, _STRICT_ROW)  # np.loadtxt warns on an empty input
    user, movie, value, timestamps = (np.ascontiguousarray(table[name]) for name in _STRICT_ROW.names)
    order = np.lexsort((movie, user))
    user_sorted, movie_sorted = user.take(order), movie.take(order)
    repeated = (user_sorted[1:] == user_sorted[:-1]) & (movie_sorted[1:] == movie_sorted[:-1])
    off_grid = value[~np.isin(value, list(on_grid))].tolist()
    if repeated.any() or not np.isin(movie, list(movies)).all() or not all(map(scale.contains, off_grid)):
        return None
    return RatingColumns(*map(_read_only, (user, movie, value))), _read_only(timestamps)


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
    predictable. Train + test partition the original ratings exactly. The
    train catalog holds its ratings as columns and shares the parent's
    implicit columns. The test records, in catalog order, are built from
    the test columns of _split, which evaluation and tuning read instead.
    """
    train, test, timestamps = _split(catalog, holdout_fraction, seed)
    return train, _records(test, timestamps)


def _split(catalog: Catalog, holdout_fraction: float, seed: int) -> tuple[Catalog, RatingColumns, np.ndarray]:
    """train_test_split with its test ratings as columns: (train, test, their timestamps)."""
    if not (0.0 < holdout_fraction < 1.0):
        raise CinefuseError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    columns = catalog.columns
    n = len(columns.user)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    target = int(holdout_fraction * n)

    # each rating's user and movie as an index into their counts
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

    in_train = np.ones(n, dtype=bool)
    in_train[picked] = False
    timestamps = catalog._timestamp_column()
    train = replace(catalog, ratings=None)
    train._hold(columns.where(in_train), _read_only(timestamps[in_train]))
    object.__setattr__(train, "_implicit_columns", catalog.implicit_columns)
    return train, columns.where(~in_train), timestamps[~in_train]
