"""Differential fuzzing of load_catalog against the loader it replaced.

`reference_load_catalog` is load_catalog as it was before its loops
converted fields inline: every field goes through the strict parsers, every
rating through RatingScale.contains, and every title is normalized where it
is used. Each seeded mutation of a small valid catalog must give an equal
Catalog from both loaders, or the same DataFormatError with the same
message. The pinned cases at the end hold what README "Data formats" says
the loader accepts and rejects.
"""

import csv
import io
import random
import re
from pathlib import Path

import pytest

from cinefuse.catalog import (
    _BOOLS,
    Catalog,
    CriticReview,
    ImplicitEvent,
    Movie,
    Rating,
    RatingScale,
    _parse_bool,
    _parse_float,
    _parse_int,
    load_catalog,
)
from cinefuse.cli import FIXTURE_DIR
from cinefuse.errors import DataFormatError


# -- the reference loader ---------------------------------------------------


def ref_normalize_title(title):
    return re.sub(r"[^0-9a-z]+", " ", title.lower()).strip()


def ref_read_rows(path, expected_header):
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
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            if not row:
                continue
            if len(row) != len(expected_header):
                raise DataFormatError(
                    f"expected {len(expected_header)} fields, got {len(row)}",
                    path=path,
                    line=reader.line_num,
                )
            rows.append((reader.line_num, row))
    return rows


def ref_parse_int(value, path, line, fld, optional=False):
    value = value.strip()
    if value == "":
        if optional:
            return None
        raise DataFormatError("missing required integer", path=path, line=line, field=fld)
    try:
        return int(value)
    except ValueError:
        raise DataFormatError(f"not an integer: {value!r}", path=path, line=line, field=fld) from None


def ref_parse_float(value, path, line, fld):
    try:
        return float(value.strip())
    except ValueError:
        raise DataFormatError(f"not a number: {value!r}", path=path, line=line, field=fld) from None


def ref_parse_bool(value, path, line, fld):
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise DataFormatError(f"not a boolean: {value!r}", path=path, line=line, field=fld)


def reference_load_catalog(movies_path, ratings_path, reviews_path, implicit_path=None, scale=None):
    """load_catalog as it was before its loops converted fields inline. The
    new loader must give an equal Catalog or the same first error."""
    scale = scale or RatingScale()

    movies = {}
    for line, row in ref_read_rows(movies_path, ["movieId", "title", "genres", "year", "summary"]):
        mid = ref_parse_int(row[0], movies_path, line, "movieId")
        title = row[1].strip()
        if not title:
            raise DataFormatError("empty title", path=movies_path, line=line, field="title")
        if mid in movies:
            raise DataFormatError(f"duplicate movieId {mid}", path=movies_path, line=line, field="movieId")
        genres = frozenset(g.strip() for g in row[2].split("|") if g.strip())
        year = ref_parse_int(row[3], movies_path, line, "year", optional=True)
        movies[mid] = Movie(mid, title, genres, summary=row[4], release_year=year)

    ratings = []
    seen_pairs = set()
    for line, row in ref_read_rows(ratings_path, ["userId", "movieId", "rating", "timestamp"]):
        uid = ref_parse_int(row[0], ratings_path, line, "userId")
        mid = ref_parse_int(row[1], ratings_path, line, "movieId")
        value = ref_parse_float(row[2], ratings_path, line, "rating")
        ts = ref_parse_int(row[3], ratings_path, line, "timestamp", optional=True)
        if mid not in movies:
            raise DataFormatError(f"unknown movieId {mid}", path=ratings_path, line=line, field="movieId")
        if not scale.contains(value):
            raise DataFormatError(
                f"value out of scale at line {line}: {value}", path=ratings_path, line=line, field="rating"
            )
        if (uid, mid) in seen_pairs:
            raise DataFormatError(
                f"duplicate rating for user {uid}, movie {mid}", path=ratings_path, line=line
            )
        seen_pairs.add((uid, mid))
        ratings.append(Rating(uid, mid, value, ts))

    reviews = []
    dropped = 0
    for line, row in ref_read_rows(reviews_path, ["movieId", "title", "source", "rawScore", "reviewText"]):
        mid = ref_parse_int(row[0], reviews_path, line, "movieId")
        raw = ref_parse_float(row[3], reviews_path, line, "rawScore")
        if not (0.0 <= raw <= 5.0):
            raise DataFormatError(
                f"rawScore {raw} outside [0, 5]", path=reviews_path, line=line, field="rawScore"
            )
        movie = movies.get(mid)
        if movie is None or ref_normalize_title(row[1]) != ref_normalize_title(movie.title):
            dropped += 1
            continue
        reviews.append(CriticReview(mid, source=row[2], review_text=row[4], raw_score=raw))

    implicit = []
    if implicit_path is not None:
        header = ["userId", "movieId", "watched", "watchFraction", "watchCount"]
        for line, row in ref_read_rows(implicit_path, header):
            uid = ref_parse_int(row[0], implicit_path, line, "userId")
            mid = ref_parse_int(row[1], implicit_path, line, "movieId")
            watched = ref_parse_bool(row[2], implicit_path, line, "watched")
            frac = ref_parse_float(row[3], implicit_path, line, "watchFraction")
            count = ref_parse_int(row[4], implicit_path, line, "watchCount")
            if mid not in movies:
                raise DataFormatError(f"unknown movieId {mid}", path=implicit_path, line=line, field="movieId")
            if not (0.0 <= frac <= 1.0):
                raise DataFormatError(
                    f"watchFraction {frac} outside [0, 1]", path=implicit_path, line=line, field="watchFraction"
                )
            if count < 0:
                raise DataFormatError("negative watchCount", path=implicit_path, line=line, field="watchCount")
            if not watched and frac != 0.0:
                raise DataFormatError(
                    "watchFraction must be 0 when watched is false",
                    path=implicit_path,
                    line=line,
                    field="watchFraction",
                )
            implicit.append(ImplicitEvent(uid, mid, watched, frac, count))

    groups = {}
    for mid in sorted(movies):
        groups.setdefault(ref_normalize_title(movies[mid].title), []).append(mid)

    return Catalog(
        movies=movies,
        ratings=ratings,
        reviews=reviews,
        implicit=implicit,
        scale=scale,
        dropped_reviews=dropped,
        title_groups={norm: tuple(ids) for norm, ids in groups.items()},
    )


# -- catalogs and mutations -------------------------------------------------

HEADERS = {
    "movies": ["movieId", "title", "genres", "year", "summary"],
    "ratings": ["userId", "movieId", "rating", "timestamp"],
    "reviews": ["movieId", "title", "source", "rawScore", "reviewText"],
    "implicit": ["userId", "movieId", "watched", "watchFraction", "watchCount"],
}
# numeric fields per file, by index
NUMERIC = {"movies": (0, 3), "ratings": (0, 1, 2, 3), "reviews": (0, 3), "implicit": (0, 1, 3, 4)}
TITLES = (
    "Northern Lights", "Ashfall", "Salt & Smoke", "The Last Reel!", "the last reel",
    "Meridian (2003)", "Café Noir", "Zero", "  Padded  Title ",
)
GENRES = ("Drama", "Action", "Sci-Fi", "Romance", " Comedy ", "")
WHITESPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003", "\u3000", "\n", "\r")
DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "०१२३४५६७८९")
GRID = RatingScale().values()


def base_files(rng):
    """A small valid catalog: file name -> rows of field strings."""
    ids = rng.sample(range(1, 40), rng.randint(3, 7))
    titles = {mid: rng.choice(TITLES) for mid in ids}
    movies = [
        [str(mid), titles[mid], "|".join(rng.sample(GENRES, rng.randint(0, 3))),
         rng.choice(["", str(rng.randint(1950, 2024))]), "a quiet story"]
        for mid in ids
    ]
    pairs = rng.sample([(u, m) for u in range(1, 7) for m in ids], rng.randint(1, 12))
    ratings = [
        [str(u), str(m), rng.choice(["{}", "{:.1f}", "{:.3f}"]).format(rng.choice(GRID)),
         rng.choice(["", str(rng.randint(0, 2_000_000_000))])]
        for u, m in pairs
    ]
    reviews = []
    for _ in range(rng.randint(0, 6)):
        mid = rng.choice(ids + [99])
        title = titles.get(mid, "Unknown")
        title = rng.choice([title, title.upper(), title + "!", rng.choice(TITLES)])
        reviews.append([str(mid), title, "Variety", f"{rng.uniform(0.0, 5.0):.1f}", "sharp, loud"])
    implicit = []
    for _ in range(rng.randint(0, 5)):
        watched = rng.random() < 0.7
        implicit.append([
            str(rng.randint(1, 9)), str(rng.choice(ids)),
            rng.choice(["true", "1", "yes"] if watched else ["false", "0", "no"]),
            f"{rng.uniform(0.0, 1.0):.2f}" if watched else rng.choice(["0.0", "0"]),
            str(rng.randint(0, 12)),
        ])
    return {"movies": movies, "ratings": ratings, "reviews": reviews, "implicit": implicit}


def _pick(rng, files, names=tuple(HEADERS)):
    """A random (file name, row) among the named files' complete rows (not
    blank or ragged), or (None, None)."""
    whole = {n: [r for r in files[n] if len(r) == len(HEADERS[n])] for n in names}
    names = [n for n in names if whole[n]]
    if not names:
        return None, None
    name = rng.choice(names)
    return name, rng.choice(whole[name])


def _numeric(rng, files):
    """A random complete row and the index of one of its numeric fields."""
    name, row = _pick(rng, files)
    if row is None:
        return None, None
    return row, rng.choice(NUMERIC[name])


def pad(rng, files, styles):
    row, i = _numeric(rng, files)
    if row is not None:
        ws = lambda: "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(0, 2)))
        row[i] = ws() + row[i] + ws()


def special_number(rng, files, styles):
    row, i = _numeric(rng, files)
    if row is not None:
        row[i] = rng.choice(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
                             "-0", "-0.0", "+0", "+4", "1e-400", "0e0", "4e0"])


def underscore(rng, files, styles):
    row, i = _numeric(rng, files)
    if row is not None and row[i]:
        at = rng.randint(0, len(row[i]))
        row[i] = row[i][:at] + rng.choice(["_", "__"]) + row[i][at:]


def foreign_digits(rng, files, styles):
    row, i = _numeric(rng, files)
    if row is not None:
        row[i] = row[i].translate(str.maketrans("0123456789", rng.choice(DIGITS)))


def garbage(rng, files, styles):
    row, i = _numeric(rng, files)
    if row is not None:
        row[i] = rng.choice(["", " ", "abc", "4.0.1", "0x1F", "1e", "--1", "½", "4,0", "١٫٥", "\x00"])


def off_grid(rng, files, styles):
    _, row = _pick(rng, files, ("ratings",))
    if row is not None:
        row[2] = repr(rng.choice(GRID) + rng.choice([1e-10, -1e-10, 1e-8, -1e-8, 5e-10, 0.25, 0.5]))


def out_of_range(rng, files, styles):
    name, row = _pick(rng, files, ("ratings", "reviews", "implicit"))
    if name == "ratings":
        row[2] = rng.choice(["0", "0.0", "5.5", "-0.5", "100"])
    elif name == "reviews":
        row[3] = rng.choice(["-0.1", "5.1", "5.0000001", "-0", "5", "0"])
    elif name == "implicit":
        i = rng.choice([3, 4])
        row[i] = rng.choice(["-0.01", "1.01", "1", "0"]) if i == 3 else rng.choice(["-1", "-0", "0"])


def unwatched_fraction(rng, files, styles):
    _, row = _pick(rng, files, ("implicit",))
    if row is not None:
        row[2], row[3] = rng.choice(["false", "0", "no"]), rng.choice(["0.3", "-0.0", "0.0"])


def bad_boolean(rng, files, styles):
    _, row = _pick(rng, files, ("implicit",))
    if row is not None:
        row[2] = rng.choice(["True", " yes", "NO", "Y", "2", "", "t", "false\x1f"])


def ragged(rng, files, styles):
    name, row = _pick(rng, files)
    if row is not None:
        if rng.random() < 0.5:
            row.append("extra")
        else:
            row.pop()


def duplicate(rng, files, styles):
    name, row = _pick(rng, files, ("movies", "ratings"))
    if row is not None:
        rows = files[name]
        rows.insert(rng.randint(0, len(rows)), list(row))


def unknown_id(rng, files, styles):
    name, row = _pick(rng, files, ("ratings", "reviews", "implicit"))
    if row is not None:
        row[0 if name == "reviews" else 1] = rng.choice(["99", "0", "-3"])


def empty_optional(rng, files, styles):
    name, row = _pick(rng, files, ("movies", "ratings"))
    if row is not None:
        row[3] = rng.choice(["", " ", "\x1c"])


def empty_title(rng, files, styles):
    _, row = _pick(rng, files, ("movies",))
    if row is not None:
        row[1] = rng.choice(["", "  ", "\x1e"])


def review_title(rng, files, styles):
    _, row = _pick(rng, files, ("reviews",))
    if row is not None:
        row[1] = rng.choice([row[1].lower(), f" {row[1]}?!", row[1].replace(" ", "  "), rng.choice(TITLES), ""])


def quoted(rng, files, styles):
    name, row = _pick(rng, files)
    if row is not None:
        text = {"movies": (2, 4), "ratings": (), "reviews": (2, 4), "implicit": ()}[name]
        i = rng.choice(text or NUMERIC[name])
        row[i] = row[i] + rng.choice([", with a comma", "\nover two lines", ',\n"quoted"\r\nthree'])


def blank_lines(rng, files, styles):
    name = rng.choice(list(HEADERS))
    rows = files[name]
    for _ in range(rng.randint(1, 3)):
        rows.insert(rng.randint(0, len(rows)), rng.choice([[], [""]]))


def header(rng, files, styles):
    name = rng.choice(list(HEADERS))
    head = list(HEADERS[name])
    i = rng.randrange(len(head))
    head[i] = rng.choice([f" {head[i]} ", head[i].lower(), head[i] + "\x1f", "x"])
    styles[name]["header"] = head


def line_endings(rng, files, styles):
    styles[rng.choice(list(HEADERS))]["end"] = rng.choice(["\r\n", "\r"])


def bom(rng, files, styles):
    styles[rng.choice(list(HEADERS))]["bom"] = True


def truncate(rng, files, styles):
    name = rng.choice(list(HEADERS))
    styles[name]["text"] = rng.choice(["", "\n", '1,"unclosed'])


MUTATIONS = (
    pad, special_number, underscore, foreign_digits, garbage, off_grid, out_of_range,
    unwatched_fraction, bad_boolean, ragged, duplicate, unknown_id, empty_optional,
    empty_title, review_title, quoted, blank_lines, header, line_endings, bom, truncate,
)


def write_files(directory, files, styles):
    paths = {}
    for name, rows in files.items():
        style = styles[name]
        out = io.StringIO()
        writer = csv.writer(out, lineterminator=style.get("end", "\n"))
        writer.writerow(style.get("header", HEADERS[name]))
        writer.writerows(rows)
        text = style.get("text", out.getvalue())
        if style.get("bom"):
            text = "\ufeff" + text
        paths[name] = directory / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8", newline="")
    return paths


def outcome(load, paths, with_implicit=True):
    """An equal Catalog, or the same error, is what both loaders must give."""
    try:
        catalog = load(paths["movies"], paths["ratings"], paths["reviews"],
                       implicit_path=paths["implicit"] if with_implicit else None)
    except DataFormatError as exc:
        return "DataFormatError", str(exc), exc.line, exc.field
    except csv.Error as exc:
        return "csv.Error", str(exc)
    return "Catalog", catalog, repr(catalog)


def fuzz_case(seed):
    """(mutation names, files, styles) of seeded case `seed`: a base catalog
    with one to three mutations."""
    rng = random.Random(seed)
    files = base_files(rng)
    styles = {name: {} for name in HEADERS}
    applied = rng.choices(MUTATIONS, k=rng.randint(1, 3))
    for mutate in applied:
        mutate(rng, files, styles)
    return [m.__name__ for m in applied], files, styles


CASES = 600
CHUNKS = 6


# -- tests ------------------------------------------------------------------


class TestDifferentialFuzz:
    @pytest.mark.parametrize("chunk", range(CHUNKS))
    def test_loaders_agree(self, tmp_path, chunk):
        kinds = set()
        for seed in range(chunk, CASES, CHUNKS):
            applied, files, styles = fuzz_case(seed)
            paths = write_files(tmp_path, files, styles)
            with_implicit = seed % 5 != 0
            want = outcome(reference_load_catalog, paths, with_implicit)
            got = outcome(load_catalog, paths, with_implicit)
            assert got == want, f"seed {seed}, mutations {applied}"
            kinds.add(want[0])
            if want[0] == "DataFormatError":
                # every rejection names the file and the line
                assert str(tmp_path) in want[1] and want[2] is not None, want
        assert kinds >= {"Catalog", "DataFormatError"}

    def test_cases_reach_every_outcome(self, tmp_path):
        """The fuzzer is not vacuous: across the cases, each file fails on
        some and whole catalogs load on others, off-grid ratings and
        dropped reviews included."""
        failed_files, loaded, off_grid_loaded, dropped = set(), 0, 0, 0
        for seed in range(0, CASES, 3):
            _, files, styles = fuzz_case(seed)
            result = outcome(reference_load_catalog, write_files(tmp_path, files, styles))
            if result[0] == "DataFormatError":
                failed_files.add(result[1].split(".csv")[0].rsplit("/", 1)[-1])
            elif result[0] == "Catalog":
                loaded += 1
                catalog = result[1]
                off_grid_loaded += any(r.value not in GRID for r in catalog.ratings)
                dropped += catalog.dropped_reviews > 0
        assert failed_files == set(HEADERS)
        assert loaded >= 30 and off_grid_loaded >= 2 and dropped >= 10

    def test_fixture_catalog(self):
        paths = {name: FIXTURE_DIR / f"{name}.csv" for name in HEADERS}
        got, want = outcome(load_catalog, paths), outcome(reference_load_catalog, paths)
        assert got[0] == "Catalog" and got == want
        assert list(got[1].movies) == list(want[1].movies)
        assert list(got[1].title_groups) == list(want[1].title_groups)

    def test_inline_conversion_agrees_with_the_parsers(self):
        """Where int()/float()/the exact boolean words accept a field, the
        strict parsers give the same value, so only a row they reject needs
        the parsers. Some fields only the parsers accept (U+001C-U+001F
        padding, a boolean word in another case), never the other way."""
        rng = random.Random(7)
        alphabet = "0123456789" * 3 + "+-._eE" + "".join(WHITESPACE) + "٣५"
        fields = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))) for _ in range(20_000)]
        words = ["true", "FALSE", " no", "1", "0 ", "Yes", "yes\x1f", "t", ""]
        for inline, strict, values in (
            (int, _parse_int, fields),
            (float, _parse_float, fields),
            (_BOOLS.__getitem__, _parse_bool, words),
        ):
            parsed_only = 0
            for value in values:
                try:
                    fast = inline(value)
                except (KeyError, ValueError):
                    fast = None
                try:
                    slow = strict(value, "f.csv", 2, "x")
                except DataFormatError:
                    slow = None
                if fast is None:
                    parsed_only += slow is not None
                else:
                    assert repr(fast) == repr(slow), value
            assert parsed_only > 0, strict.__name__


def write_catalog(directory, **texts):
    """The four files, each from `texts` or a one-movie valid default."""
    defaults = {
        "movies": "movieId,title,genres,year,summary\n1,One,Drama,2000,x\n2,Two,Action,,y\n",
        "ratings": "userId,movieId,rating,timestamp\n1,1,4.0,5\n1,2,3.5,\n",
        "reviews": "movieId,title,source,rawScore,reviewText\n1,ONE!,Variety,3.5,fine\n",
        "implicit": "userId,movieId,watched,watchFraction,watchCount\n1,2,true,0.5,3\n",
    }
    paths = {}
    for name, text in {**defaults, **texts}.items():
        paths[name] = directory / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8", newline="")
    return paths


def both(paths):
    """The outcome both loaders agree on."""
    got = outcome(load_catalog, paths)
    assert got == outcome(reference_load_catalog, paths)
    return got


class TestDocumentedFormats:
    """Each README "Data formats" statement, on both loaders."""

    def test_blank_lines_are_skipped(self, tmp_path):
        plain = both(write_catalog(tmp_path))
        blank = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\n\n1,1,4.0,5\n\n\n1,2,3.5,\n\n"))
        assert blank[0] == "Catalog" and blank[1] == plain[1]
        # a blank line still counts toward the line numbers
        bad = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\n\n1,1,4.0,5\n\n1,2,x,\n"))
        assert bad[2:] == (5, "rating")

    def test_numeric_fields_may_carry_whitespace(self, tmp_path):
        plain = both(write_catalog(tmp_path))
        padded = both(write_catalog(
            tmp_path, ratings="userId,movieId,rating,timestamp\n 1,\t1,4.0\xa0,5\x1f\n\x1c1 , 2,3.5 ,  \n",
        ))
        assert padded[0] == "Catalog" and padded[1] == plain[1]

    def test_crlf_line_endings_load_the_same(self, tmp_path):
        plain = both(write_catalog(tmp_path))
        crlf = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\r\n1,1,4.0,5\r\n1,2,3.5,\r\n"))
        assert crlf[0] == "Catalog" and crlf[1] == plain[1]

    def test_numbers_read_as_python_reads_them(self, tmp_path):
        # underscores between digits and non-ASCII decimal digits, as int()
        # and float() accept them
        got = both(write_catalog(
            tmp_path, ratings="userId,movieId,rating,timestamp\n1_0,1,4.0,1_000\n\u0663,2,\u0663.\u0665,\n",
        ))
        assert got[0] == "Catalog"
        assert got[1].ratings == [Rating(10, 1, 4.0, 1000), Rating(3, 2, 3.5, None)]
        bad = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\n1__0,1,4.0,5\n"))
        assert bad[0] == "DataFormatError" and bad[2:] == (2, "userId")

    def test_ratings_may_sit_within_1e9_of_the_grid(self, tmp_path):
        near = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\n1,1,4.0000000001,5\n"))
        assert near[0] == "Catalog" and near[1].ratings[0].value == 4.0000000001
        far = both(write_catalog(tmp_path, ratings="userId,movieId,rating,timestamp\n1,1,4.00000001,5\n"))
        assert far[0] == "DataFormatError" and "out of scale" in far[1] and far[2:] == (2, "rating")

    @pytest.mark.parametrize("name, text, field", [
        ("ratings", "userId,movieId,rating,timestamp\n1,1,nan,5\n", "rating"),
        ("ratings", "userId,movieId,rating,timestamp\n1,1,inf,5\n", "rating"),
        ("reviews", "movieId,title,source,rawScore,reviewText\n1,One,Variety,nan,x\n", "rawScore"),
        ("reviews", "movieId,title,source,rawScore,reviewText\n1,One,Variety,1e400,x\n", "rawScore"),
        ("implicit", "userId,movieId,watched,watchFraction,watchCount\n1,1,true,NaN,1\n", "watchFraction"),
        ("implicit", "userId,movieId,watched,watchFraction,watchCount\n1,1,true,-inf,1\n", "watchFraction"),
    ])
    def test_nan_and_inf_fail_the_range_checks(self, tmp_path, name, text, field):
        got = both(write_catalog(tmp_path, **{name: text}))
        assert got[0] == "DataFormatError" and got[2:] == (2, field)
        assert "out of scale" in got[1] or "outside" in got[1]

    def test_bom_fails_as_a_bad_header_on_line_1(self, tmp_path):
        got = both(write_catalog(tmp_path, movies="\ufeffmovieId,title,genres,year,summary\n1,One,Drama,2000,x\n"))
        assert got[0] == "DataFormatError" and "bad header" in got[1] and got[2] == 1
        assert "movies.csv" in got[1]

    def test_fields_follow_csv_quoting(self, tmp_path):
        movies = 'movieId,title,genres,year,summary\n1,"One, Again",Drama,2000,"two\nlines, one comma"\n2,Two,,x,y\n'
        got = both(write_catalog(tmp_path, movies=movies))
        # the quoted summary spans lines 2-3, so the bad year is on line 4
        assert got[0] == "DataFormatError" and got[2:] == (4, "year")
        fixed = both(write_catalog(tmp_path, movies=movies.replace(",x,", ",,")))
        assert fixed[1].movies[1].title == "One, Again"
        assert fixed[1].movies[1].summary == "two\nlines, one comma"

    @pytest.mark.parametrize("name, text, line, field", [
        ("movies", "movieId,title,genres,year,summary\n1,One,Drama,2000,x\n1,Again,Drama,2001,x\n", 3, "movieId"),
        ("ratings", "userId,movieId,rating,timestamp\n1,1,4.0,5\n2,9,4.0,5\n", 3, "movieId"),
        ("ratings", "userId,movieId,rating,timestamp\n1,1,4.0,5\n1,1,3.0,6\n", 3, None),
        # all rows are read before any field is checked
        ("ratings", "userId,movieId,rating,timestamp\n1,1,x,5\n1,2,4.0\n", 3, None),
        ("reviews", "movieId,title,source,rawScore,reviewText\n1,One,V,4,x\n1,One,V,4,x,extra\n", 3, None),
        ("implicit", "userId,movieId,watched,watchFraction,watchCount\n1,1,maybe,0.5,1\n", 2, "watched"),
        ("implicit", "userId,movieId,watched,watchFraction,watchCount\n1,1,false,0.5,1\n", 2, "watchFraction"),
    ])
    def test_every_rejection_names_the_file_and_line(self, tmp_path, name, text, line, field):
        got = both(write_catalog(tmp_path, **{name: text}))
        assert got[0] == "DataFormatError" and got[2:] == (line, field)
        assert got[1].startswith(str(tmp_path / f"{name}.csv") + f", line {line}")

    def test_a_bad_watched_is_reported_before_a_bad_fraction(self, tmp_path):
        got = both(write_catalog(tmp_path, implicit="userId,movieId,watched,watchFraction,watchCount\n1,1,Y,x,1\n"))
        assert got[2:] == (2, "watched")

