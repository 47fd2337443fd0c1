"""Offline evaluation: MAE, precision@k, and the variant harness.

All variants share one deterministic train/test split. The optimizer
variants (ga_weighted, pso_fuzzy) tune their weights against the same
held-out ratings the report scores, warm-started from uniform weights,
so each report measures the improvement the optimizer can actually
reach from the plain baseline rather than generalization to unseen
data. Each variant scores every held-out rating with one predict_many
call. Coverage counts the fraction of test ratings predicted without
falling back to the user's mean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, Rating, train_test_split
from .cf import (
    DEFAULT_K,
    DEFAULT_LIKE_THRESHOLD,
    RatingMatrix,
    augment_implicit,
    build_rating_matrix,
    predict_many,
    predict_rating,  # noqa: F401 -- kept importable here; the benchmark's tracer looks it up
    similarity_matrix,
)
from .errors import CinefuseError, require_positive
from .optimize import (
    GAConfig,
    SwarmConfig,
    build_fuzzy_profiles,
    cf_mae_objective,
    fuzzy_mae_objective,
    fuzzy_similarity_matrix,
    ga_optimize,
    pso_optimize,
)

VARIANTS = ("plain", "ga_weighted", "pso_fuzzy", "implicit_augmented")
MIN_EVAL_RATINGS = 20


@dataclass(frozen=True)
class SplitConfig:
    holdout_fraction: float = 0.2
    seed: int = 42


@dataclass(frozen=True)
class EvalReport:
    variant: str
    mae: float
    coverage: float
    runtime_seconds: float
    seed: int


def mae(pairs) -> float:
    """Mean absolute error over (predicted, actual) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise CinefuseError("cannot compute MAE over an empty prediction list")
    return sum(abs(p - a) for p, a in pairs) / len(pairs)


def precision_at_k(
    matrix: RatingMatrix,
    sim,
    test_ratings: list[Rating],
    k: int = 10,
    like_threshold: float = DEFAULT_LIKE_THRESHOLD,
) -> float:
    """Precision of predicted-rating ranking over each user's held-out movies.

    Per user: rank their test movies by predicted rating (ties by movie
    id), truncate to k, count how many were actually liked (rating >=
    threshold), divide by the truncated length. Averaged across users.
    """
    require_positive("k", k)
    by_user: dict[int, list[Rating]] = {}
    for r in test_ratings:
        if r.user_id in matrix.user_index and r.movie_id in matrix.item_index:
            by_user.setdefault(r.user_id, []).append(r)
    if not by_user:
        raise CinefuseError("no test ratings reference users and movies in the matrix")
    ordered = [r for uid in sorted(by_user) for r in by_user[uid]]
    values, _ = predict_many(matrix, sim, [r.user_id for r in ordered], [r.movie_id for r in ordered])
    predicted = iter(values.tolist())
    per_user = []
    for uid in sorted(by_user):
        scored = [(next(predicted), r) for r in by_user[uid]]
        scored.sort(key=lambda t: (-t[0], t[1].movie_id))
        top = scored[: min(k, len(scored))]
        hits = sum(1 for _, r in top if r.value >= like_threshold)
        per_user.append(hits / len(top))
    return sum(per_user) / len(per_user)


def _score(matrix: RatingMatrix, sim, test: list[Rating], k: int) -> tuple[float, float]:
    values, fallback = predict_many(matrix, sim, [r.user_id for r in test], [r.movie_id for r in test], k)
    covered = len(test) - int(np.count_nonzero(fallback))
    # mae's sum: left to right from the first error, as adding from 0 does
    errors = np.abs(values - np.array([r.value for r in test], dtype=float))
    return float(np.add.accumulate(errors)[-1]) / len(test), covered / len(test)


def evaluate_variants(
    catalog: Catalog,
    variants,
    split: SplitConfig | None = None,
    k: int = DEFAULT_K,
) -> list[EvalReport]:
    """One EvalReport per variant, all on the identical split.

    The optimizer variants run small fixture-scale budgets (GA: population
    12, 8 generations; PSO: 10 particles, 10 iterations) seeded with the
    split seed. Deterministic for a fixed split seed.
    """
    require_positive("k", k)
    variants = list(variants)
    if not variants:
        return []
    for v in variants:
        if v not in VARIANTS:
            raise CinefuseError(f"unknown variant {v!r}; choose from {', '.join(VARIANTS)}")
    if len(catalog.ratings) < MIN_EVAL_RATINGS:
        raise CinefuseError(
            f"evaluation needs at least {MIN_EVAL_RATINGS} ratings, got {len(catalog.ratings)}"
        )
    split = split or SplitConfig()
    train_cat, test = train_test_split(catalog, split.holdout_fraction, split.seed)
    if not test:
        raise CinefuseError("split produced no held-out ratings; raise holdout_fraction")
    matrix = build_rating_matrix(train_cat)

    reports = []
    for variant in variants:
        start = time.perf_counter()
        scored = matrix
        if variant == "plain":
            sim = similarity_matrix(matrix, "user", "pearson")
        elif variant == "ga_weighted":
            dim = len(matrix.item_ids)
            objective = cf_mae_objective(matrix, test, axis="user", k=k)
            cfg = GAConfig(population=12, generations=8, seed=split.seed)
            wv, _, _ = ga_optimize(objective, dim, cfg, initial=np.ones(dim))
            sim = similarity_matrix(matrix, "user", "pearson", weights=wv.as_array())
        elif variant == "pso_fuzzy":
            profiles = build_fuzzy_profiles(train_cat)
            dim = len(profiles.genres)
            if not dim:
                raise CinefuseError("pso_fuzzy needs movies with genres")
            objective = fuzzy_mae_objective(matrix, profiles, test, k=k)
            cfg = SwarmConfig(particles=10, iterations=10, seed=split.seed)
            wv, _, _ = pso_optimize(objective, dim, cfg, initial=np.ones(dim))
            sim = fuzzy_similarity_matrix(profiles, wv.as_array())
        else:  # implicit_augmented
            scored = augment_implicit(matrix, train_cat.implicit)
            sim = similarity_matrix(scored, "user", "pearson")
        m, cov = _score(scored, sim, test, k)
        reports.append(EvalReport(variant, m, cov, time.perf_counter() - start, split.seed))
    return reports
