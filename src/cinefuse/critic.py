"""Critic consensus: per-movie review aggregation and bonus normalization.

Raw review scores live on a 0-5 scale. The consensus is their arithmetic
mean, linearly mapped into [0, 0.2] by x/25 so it can be added onto
content scores as a small bonus. Movies with
no reviews take a neutral default of 2.5 raw (0.1 normalized) rather than
zero, so being unreviewed neither boosts nor punishes a movie.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Catalog, CriticReview
from .errors import CinefuseError

RAW_MIN = 0.0
RAW_MAX = 5.0
NEUTRAL_RAW = 2.5


@dataclass(frozen=True)
class CriticConsensus:
    movie_id: int
    raw_mean: float
    review_count: int
    normalized: float


def normalize(raw_mean: float) -> float:
    """Map a raw consensus in [0, 5] onto the [0, 0.2] bonus range."""
    if not RAW_MIN <= raw_mean <= RAW_MAX:
        raise CinefuseError(f"consensus {raw_mean} outside [{RAW_MIN}, {RAW_MAX}]")
    return raw_mean / 25.0


def aggregate_reviews(movie_id: int, reviews: list[CriticReview]) -> CriticConsensus:
    """Fold one movie's reviews into a CriticConsensus.

    Zero reviews yield the neutral default with review_count 0.
    """
    for r in reviews:
        if not RAW_MIN <= r.raw_score <= RAW_MAX:
            raise CinefuseError(
                f"review score {r.raw_score} for movie {movie_id} outside [{RAW_MIN}, {RAW_MAX}]"
            )
    if not reviews:
        return CriticConsensus(movie_id, NEUTRAL_RAW, 0, normalize(NEUTRAL_RAW))
    raw = sum(r.raw_score for r in reviews) / len(reviews)
    return CriticConsensus(movie_id, raw, len(reviews), normalize(raw))


def consensus_map(catalog: Catalog) -> dict[int, CriticConsensus]:
    """CriticConsensus for every catalog movie, reviewed or not."""
    grouped: dict[int, list[CriticReview]] = {mid: [] for mid in catalog.movies}
    for review in catalog.reviews:
        grouped[review.movie_id].append(review)
    return {mid: aggregate_reviews(mid, grouped[mid]) for mid in catalog.movies}
