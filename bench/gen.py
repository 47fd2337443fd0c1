"""Seeded synthetic catalogs in exactly the formats `load_catalog` reads.

Users and movies follow Zipf popularity, so a few are rated often and the
tail shares few raters (pairs below `min_overlap` occur). Every user and
every movie gets at least one rating, so the matrix shape is fixed by the
workload and only the content varies with the seed. Ratings come from a
small latent-factor model whose item factors depend on the genres, so
similarities carry signal. Plot summaries mix stopwords, inflected and
irregular forms, punctuation and emoji, so every step of the text pipeline
has work to do.

The generator imports nothing from the program: the program only ever
sees the CSV files written here.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENRES = (
    "Action", "Adventure", "Animation", "Comedy", "Crime", "Documentary",
    "Drama", "Fantasy", "Horror", "Mystery", "Romance", "Sci-Fi", "Thriller", "Western",
)
TITLE_A = (
    "Amber", "Broken", "Crimson", "Distant", "Electric", "Frozen", "Golden", "Hidden",
    "Iron", "Jade", "Last", "Midnight", "Northern", "Obsidian", "Pale", "Quiet",
    "Restless", "Silver", "Twisted", "Velvet", "Wandering", "Wild", "Hollow", "Burning",
)
TITLE_B = (
    "Harbor", "Signal", "Orchard", "Engine", "Kingdom", "Witness", "Horizon", "Lantern",
    "Meridian", "Garden", "Circuit", "Frontier", "Canyon", "Mirror", "Voyage", "Tide",
    "Empire", "Station", "Archive", "Cathedral", "Compass", "Harvest", "Tower", "River",
)
TITLE_C = ("", "", "", " Rising", " Returns", " of the North", ": Part Two", " Redux", " at Dawn")
STOPWORDS = (
    "the", "a", "an", "and", "of", "to", "in", "on", "before", "after", "while", "with",
    "his", "her", "their", "who", "that", "is", "was", "are", "been", "from", "into", "all",
)
# inflected and irregular forms (stemmer and lemma table), plain nouns and verbs
WORDS = (
    "running", "runs", "ran", "stolen", "stole", "thieves", "wolves", "children", "women",
    "men", "mice", "knives", "wives", "teeth", "feet", "geese", "found", "lost", "kept",
    "spoken", "written", "woke", "flew", "swam", "sang", "driven", "chosen", "fallen",
    "hunting", "hunted", "hunts", "journeys", "journeyed", "crossing", "crossed", "signals",
    "engineer", "engineers", "pilot", "pilots", "detective", "detectives", "family",
    "families", "city", "cities", "village", "villages", "kingdom", "machines", "machine",
    "secret", "secrets", "memory", "memories", "storm", "storms", "ocean", "desert",
    "forest", "mountain", "island", "train", "trains", "letter", "letters", "murder",
    "murders", "heist", "treasure", "rebellion", "prophecy", "spaceship", "planet",
    "planets", "ghost", "ghosts", "vampire", "zombie", "dragon", "dragons", "sheriff",
    "outlaw", "outlaws", "wedding", "weddings", "lovers", "betrayal", "revenge", "escape",
    "escaping", "escaped", "discovers", "discovered", "uncovers", "uncovering", "races",
    "racing", "raced", "fights", "fighting", "fought", "survives", "surviving", "survived",
    "searches", "searching", "searched", "happily", "quietly", "relentlessly", "faster",
    "fastest", "darker", "darkest", "generational", "generations", "nationalization",
)
EMOJI = (
    "\U0001F3AC", "\U0001F37F", "⭐", "\U0001F494", "\U0001F602", "\U0001F631",
    "\U0001F47B", "\U0001F916", "\U0001F525", "\U0001F680", "\U0001F9DF", "\U0001F409",
    "\U0001F3F0", "⚡", "\U0001F319",
    "\U0001F95D",  # kiwi fruit: not in the emoji table, acts as a separator
)
# made-up proper names widen the vocabulary beyond the word list
NAMES = tuple(a + b for a in ("Ka", "Lor", "Vin", "Dra", "Mel", "Tho", "Ris", "Bel", "Cor", "Fen")
              for b in ("an", "dra", "mir", "os", "eth", "ul", "ara", "ix", "en", "ko"))
_RAW_TOKEN = re.compile(r"[0-9a-z]+")
PUNCT = (",", ".", "!", "?", ";", " -", "...")
OUTLETS = ("Rotten Tomatoes", "Variety", "Sight and Sound", "Empire", "The Guardian", "IndieWire")
# exponent of the Zipf popularity of users, movies and requested seed titles
ZIPF_A = 0.9
REVIEW_WORDS = (
    "sweeping", "patient", "devastating", "loud", "tense", "gorgeous", "muddled", "sharp",
    "overlong", "brisk", "earnest", "clumsy", "haunting", "witty", "hollow", "bold",
)


@dataclass(frozen=True)
class Shape:
    """Size of one generated catalog."""

    users: int
    items: int
    ratings: int
    implicit_events: int = 0


@dataclass(frozen=True)
class CatalogFiles:
    movies: Path
    ratings: Path
    reviews: Path
    implicit: Path | None
    # titles ordered by rating popularity, most popular first
    popular_titles: tuple[str, ...]
    popularity: np.ndarray  # request probability per entry of popular_titles
    shape: dict


def _zipf_weights(n: int, a: float, rng) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** a
    w = w[rng.permutation(n)]
    return w / w.sum()


def _rating_pairs(shape: Shape, pu, pi, rng) -> list[tuple[int, int]]:
    """Distinct (user index, item index) pairs; each user and item at least once."""
    pairs: set[tuple[int, int]] = set()
    for u in range(shape.users):
        pairs.add((u, int(rng.choice(shape.items, p=pi))))
    for i in range(shape.items):
        pairs.add((int(rng.choice(shape.users, p=pu)), i))
    if len(pairs) > shape.ratings:
        raise ValueError(f"{shape.ratings} ratings cannot cover {shape.users} users and {shape.items} items")
    while len(pairs) < shape.ratings:
        need = shape.ratings - len(pairs)
        us = rng.choice(shape.users, size=2 * need, p=pu)
        its = rng.choice(shape.items, size=2 * need, p=pi)
        for u, i in zip(us.tolist(), its.tolist()):
            if len(pairs) == shape.ratings:
                break
            pairs.add((u, i))
    return sorted(pairs)


def _summary(rng, genre_words: list[str]) -> str:
    parts = []
    for _ in range(int(rng.integers(12, 32))):
        r = rng.random()
        if r < 0.35:
            parts.append(STOPWORDS[rng.integers(len(STOPWORDS))])
        elif r < 0.55:
            parts.append(genre_words[rng.integers(len(genre_words))])
        elif r < 0.62:
            parts.append(NAMES[rng.integers(len(NAMES))])
        elif r < 0.92:
            parts.append(WORDS[rng.integers(len(WORDS))])
        elif r < 0.97:
            parts.append(EMOJI[rng.integers(len(EMOJI))])
        else:
            parts[-1:] = [(parts[-1] if parts else "") + PUNCT[rng.integers(len(PUNCT))]]
    text = " ".join(p for p in parts if p)
    return text[:1].upper() + text[1:] + "."


def generate(out_dir, seed: int, shape: Shape) -> CatalogFiles:
    """Write movies/ratings/reviews(/implicit) CSVs for `seed` into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    movie_ids = np.sort(rng.choice(np.arange(1, 3 * shape.items + 1), size=shape.items, replace=False))
    combos = [(a, b, c) for a in TITLE_A for b in TITLE_B for c in TITLE_C]
    picks = rng.choice(len(combos), size=shape.items, replace=len(combos) < shape.items)
    titles, seen = [], set()
    for n, p in enumerate(picks):
        a, b, c = combos[p]
        t = f"{a} {b}{c}"
        if t in seen:
            t = f"{t} {n}"
        seen.add(t)
        titles.append(t)

    genre_vecs = rng.normal(0.0, 0.6, size=(len(GENRES), 3))
    genre_words = {g: [WORDS[j] for j in rng.choice(len(WORDS), size=6, replace=False)] for g in GENRES}
    item_genres = []
    for _ in range(shape.items):
        k = int(rng.integers(1, 4))
        item_genres.append(sorted(rng.choice(len(GENRES), size=k, replace=False).tolist()))

    vocab: set[str] = set()
    with open(out / "movies.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["movieId", "title", "genres", "year", "summary"])
        for mid, title, gs in zip(movie_ids, titles, item_genres):
            year = "" if rng.random() < 0.05 else str(int(rng.integers(1950, 2025)))
            words = [wd for g in gs for wd in genre_words[GENRES[g]]]
            summary = "" if rng.random() < 0.03 else _summary(rng, words)
            vocab.update(_RAW_TOKEN.findall(summary.lower()))
            w.writerow([int(mid), title, "|".join(GENRES[g] for g in gs), year, summary])

    pu = _zipf_weights(shape.users, ZIPF_A, rng)
    pi = _zipf_weights(shape.items, ZIPF_A, rng)
    pairs = _rating_pairs(shape, pu, pi, rng)
    user_bias = rng.normal(0.0, 0.4, shape.users)
    user_vec = rng.normal(0.0, 0.6, size=(shape.users, 3))
    item_bias = rng.normal(0.0, 0.5, shape.items)
    item_vec = np.array([genre_vecs[gs].sum(axis=0) for gs in item_genres])
    item_vec += rng.normal(0.0, 0.3, size=item_vec.shape)
    noise = rng.normal(0.0, 0.5, len(pairs))
    stamps = rng.integers(800_000_000, 1_700_000_000, len(pairs))
    with open(out / "ratings.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["userId", "movieId", "rating", "timestamp"])
        for n, (u, i) in enumerate(pairs):
            raw = 3.5 + user_bias[u] + item_bias[i] + float(user_vec[u] @ item_vec[i]) + noise[n]
            value = min(5.0, max(0.5, round(raw * 2) / 2))
            w.writerow([u + 1, int(movie_ids[i]), f"{value:.1f}", int(stamps[n])])

    n_reviews = 0
    with open(out / "reviews.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["movieId", "title", "source", "rawScore", "reviewText"])
        for mid, title in zip(movie_ids, titles):
            for _ in range(int(rng.integers(0, 4))):
                # a few rows name the wrong title; the loader drops and counts them
                shown = title if rng.random() > 0.03 else titles[rng.integers(len(titles))] + " Again"
                words = rng.choice(REVIEW_WORDS, size=int(rng.integers(3, 9)))
                text = ", ".join(words).capitalize() + ("." if rng.random() < 0.7 else ' - "a must".')
                score = round(float(rng.uniform(0.0, 5.0)), 1)
                w.writerow([int(mid), shown, OUTLETS[rng.integers(len(OUTLETS))], f"{score}", text])
                n_reviews += 1

    implicit_path = None
    if shape.implicit_events:
        implicit_path = out / "implicit.csv"
        # a few users appear only in implicit events and become new matrix rows
        extra_users = max(1, shape.users // 20)
        with open(implicit_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["userId", "movieId", "watched", "watchFraction", "watchCount"])
            for _ in range(shape.implicit_events):
                if rng.random() < 0.05:
                    uid = shape.users + 1 + int(rng.integers(extra_users))
                else:
                    uid = int(rng.choice(shape.users, p=pu)) + 1
                mid = int(movie_ids[rng.choice(shape.items, p=pi)])
                if rng.random() < 0.85:
                    frac = round(float(rng.uniform(0.05, 1.0)), 2)
                    w.writerow([uid, mid, "true", f"{frac}", int(rng.integers(1, 13))])
                else:
                    w.writerow([uid, mid, "false", "0.0", int(rng.integers(0, 2))])

    order = np.argsort(-pi, kind="stable")
    info = {
        "users": shape.users,
        "items": shape.items,
        "ratings": shape.ratings,
        "density": round(shape.ratings / (shape.users * shape.items), 6),
        "vocabulary": len(vocab),
        "reviews": n_reviews,
        "implicit_events": shape.implicit_events,
    }
    return CatalogFiles(
        out / "movies.csv",
        out / "ratings.csv",
        out / "reviews.csv",
        implicit_path,
        tuple(titles[j] for j in order),
        pi[order],
        info,
    )
