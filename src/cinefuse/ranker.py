"""Hybrid recommendation pipeline and cold-start fallbacks.

The pipeline runs in three stages: collaborative filtering proposes a
candidate pool around the seed movie (item-item neighbors), each
candidate's plot summary is embedded and scored by cosine against the
seed, and the movie's normalized critic consensus is added on top. The
fused score is exactly cosine + bonus; the output is sorted by fused
score descending with ties broken by ascending title.

Cold start bypasses the pipeline: users without ratings get top-rated or
recently released movies (or an interleave of both), and a movie without
ratings is surfaced next to the top-rated movies sharing a genre.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import textpipe
from .catalog import Catalog, Movie, closest_titles, resolve_title
from .cf import DEFAULT_MIN_OVERLAP, RatingMatrix, build_rating_matrix, recommend_cf, similarity_matrix
from .critic import consensus_map
from .errors import CinefuseError, UnknownEntityError


@dataclass(frozen=True)
class Recommendation:
    movie_id: int
    title: str
    fused_score: float
    content_cosine: float
    critic_bonus: float


@dataclass(frozen=True)
class PipelineConfig:
    candidate_pool: int = 100
    n: int = 15
    critic_enabled: bool = True
    include_seed: bool = False
    metric: str = "pearson"
    min_overlap: int = DEFAULT_MIN_OVERLAP

    def __post_init__(self):
        if self.n > self.candidate_pool:
            raise CinefuseError(
                f"output size n={self.n} exceeds candidate pool {self.candidate_pool}"
            )


@dataclass(frozen=True)
class HybridResult:
    seed_id: int
    seed_title: str
    items: tuple[Recommendation, ...]
    pool_size: int
    reason: str = ""  # set when items is empty


def _default_provider(catalog: Catalog):
    texts = [
        m.summary if m.summary else m.title
        for _, m in sorted(catalog.movies.items())
    ]
    return textpipe.fit_tfidf(texts)


def recommend_hybrid(
    catalog: Catalog,
    seed_title: str,
    config: PipelineConfig | None = None,
    provider=None,
    weights=None,
    matrix: RatingMatrix | None = None,
    sim_item=None,
    consensus=None,
) -> HybridResult:
    """Rank movies around a seed title by content cosine plus critic bonus.

    `weights`, when given, drives a weighted pearson item similarity (one
    weight per user, the co-rated dimension of the item axis). All heavy
    inputs (provider, matrix, similarity, consensus) can be passed in to
    reuse across calls; anything omitted is built from the catalog.
    """
    config = config or PipelineConfig()
    try:
        seed_id = resolve_title(catalog, seed_title)
    except UnknownEntityError:
        near = closest_titles(catalog, seed_title)
        hint = f"; closest matches: {', '.join(near)}" if near else ""
        raise UnknownEntityError(f"no movie titled '{seed_title}' in catalog{hint}") from None

    seed = catalog.movies[seed_id]
    if matrix is None:
        matrix = build_rating_matrix(catalog)
    if seed_id not in matrix.item_index:
        return HybridResult(seed_id, seed.title, (), 0, "seed movie has no ratings to neighbor on")
    if sim_item is None:
        w = weights.as_array() if hasattr(weights, "as_array") else weights
        sim_item = similarity_matrix(
            matrix, "item", config.metric, weights=w, min_overlap=config.min_overlap
        )
    pool = recommend_cf(sim_item, seed_id, config.candidate_pool)
    candidate_ids = [mid for mid, _ in pool if mid != seed_id]
    if config.include_seed:
        candidate_ids.append(seed_id)
    if not candidate_ids:
        return HybridResult(
            seed_id, seed.title, (), 0, "candidate pool is empty: no movie shares a rater with the seed"
        )

    if provider is None:
        provider = _default_provider(catalog)
    if consensus is None:
        consensus = consensus_map(catalog)

    seed_vec = provider.vector(seed)
    rows = []
    for mid in candidate_ids:
        movie = catalog.movies[mid]
        cos = textpipe.cosine_similarity(seed_vec, provider.vector(movie))
        bonus = consensus[mid].normalized if config.critic_enabled else 0.0
        rows.append(Recommendation(mid, movie.title, cos + bonus, cos, bonus))
    rows.sort(key=lambda r: (-r.fused_score, r.title))
    return HybridResult(seed_id, seed.title, tuple(rows[: config.n]), len(candidate_ids))


def _mean_ratings(catalog: Catalog) -> dict[int, tuple[float, int]]:
    sums: dict[int, list[float]] = {}
    for r in catalog.ratings:
        sums.setdefault(r.movie_id, []).append(r.value)
    return {mid: (sum(v) / len(v), len(v)) for mid, v in sums.items()}


def cold_start_user(
    catalog: Catalog, n: int = 15, strategy: str = "top_rated", min_count: int = 3
) -> list[Movie]:
    """Recommendations for a user with no rating history.

    top_rated ranks by mean rating (descending, ties by title) over movies
    with at least `min_count` ratings; recent ranks by release year
    descending with title tie-break (movies without a year excluded);
    blend interleaves the two, skipping duplicates.
    """
    if strategy not in ("top_rated", "recent", "blend"):
        raise CinefuseError(f"unknown cold-start strategy {strategy!r}")
    means = _mean_ratings(catalog)

    def top_rated() -> list[Movie]:
        eligible = [
            (means[mid][0], catalog.movies[mid])
            for mid in means
            if means[mid][1] >= min_count
        ]
        eligible.sort(key=lambda t: (-t[0], t[1].title))
        return [m for _, m in eligible]

    def recent() -> list[Movie]:
        dated = [m for m in catalog.movies.values() if m.release_year is not None]
        dated.sort(key=lambda m: (-m.release_year, m.title))
        return dated

    if strategy == "top_rated":
        return top_rated()[:n]
    if strategy == "recent":
        return recent()[:n]
    rated, dated = top_rated(), recent()
    seen = set()
    out = []
    for i in range(max(len(rated), len(dated))):
        for movie in rated[i : i + 1] + dated[i : i + 1]:
            if movie.movie_id not in seen:
                seen.add(movie.movie_id)
                out.append(movie)
                if len(out) == n:
                    return out
    return out


def cold_start_item(catalog: Catalog, new_movie: Movie, n: int = 15) -> list[Movie]:
    """Top-rated catalog movies sharing at least one genre with a new movie.

    The new movie is meant to be co-surfaced beside these. Rated movies
    only, ranked by mean rating descending with title tie-break.
    """
    if not new_movie.genres:
        raise CinefuseError(f"movie '{new_movie.title}' carries no genres to match on")
    means = _mean_ratings(catalog)
    matches = [
        (means[mid][0], catalog.movies[mid])
        for mid in means
        if mid != new_movie.movie_id and catalog.movies[mid].genres & new_movie.genres
    ]
    matches.sort(key=lambda t: (-t[0], t[1].title))
    return [m for _, m in matches[:n]]
