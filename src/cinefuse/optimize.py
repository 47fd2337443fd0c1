"""Similarity-weight optimization.

Two population optimizers tune nonnegative feature weights against a
held-out MAE objective: a global-best particle swarm (by default driving
the genre weights of fuzzy user profiles) and a generational genetic
algorithm (by default driving the co-rated-dimension weights of weighted
pearson). Either optimizer can drive either objective.

Both are deterministic for a fixed seed: every random draw for an
iteration/generation is taken from the seeded stream up front, so the
order in which candidates get evaluated cannot change the result. Both
report a best-so-far trace, which is non-increasing by construction, and
both accept an optional warm-start candidate so the final best can never
be worse than a known starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .catalog import Catalog, Rating, RatingColumns
from .cf import (
    DEFAULT_K,
    DEFAULT_MIN_OVERLAP,
    RatingMatrix,
    SimilarityMatrix,
    _co_counts,
    _fill,
    _Plan,
    _plan,
    _predictor,
    _runs,
    _weight_vector,
)
from .errors import CinefuseError, DataFormatError, require_positive, text_lines

# Objectives score at most this many validation ratings, a sample drawn with
# this seed, so one evaluation's cost does not grow with the held-out set.
VALIDATION_CAP = 2000
VALIDATION_CAP_SEED = 0

# PSO inertia and acceleration (c1 = c2) coefficients: the constriction
# values of Clerc & Kennedy (IEEE TEC 2002).
PSO_INERTIA = 0.72
PSO_ACCELERATION = 1.49
# GA: the chance a child is crossed over, the chance each of its genes
# mutates, and the mutation's standard deviation as a share of w_max.
GA_CROSSOVER_RATE = 0.9
GA_MUTATION_RATE = 0.1
GA_MUTATION_SIGMA = 0.1


@dataclass(frozen=True)
class WeightVector:
    values: tuple[float, ...]
    provenance: str  # ga | pso

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise CinefuseError("weights must be finite")
        if any(v < 0 for v in self.values):
            raise CinefuseError("weights must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class SwarmConfig:
    particles: int = 30
    iterations: int = 100
    seed: int = 0
    w_max: float = 2.0

    def __post_init__(self):
        if self.particles < 1 or self.iterations < 1:
            raise CinefuseError("particles and iterations must be >= 1")
        if self.w_max <= 0:
            raise CinefuseError("w_max must be positive")


@dataclass(frozen=True)
class GAConfig:
    population: int = 40
    generations: int = 80
    elitism: int = 2
    seed: int = 0
    w_max: float = 2.0

    def __post_init__(self):
        if self.population < 1 or self.generations < 1:
            raise CinefuseError("population and generations must be >= 1")
        if not (0 <= self.elitism < self.population):
            raise CinefuseError("elitism must be in [0, population)")
        if self.w_max <= 0:
            raise CinefuseError("w_max must be positive")


def _checked(objective, x) -> float:
    v = float(objective(x))
    if not np.isfinite(v):
        raise CinefuseError(f"objective returned non-finite value {v} for weights {np.asarray(x)}")
    return v


def _start(rng, size: int, dimension: int, w_max: float, initial) -> np.ndarray:
    """`size` uniform draws from [0, w_max]^dimension, the first replaced by
    `initial`, clipped into the bounds, when given: a warm start."""
    if dimension < 1:
        raise CinefuseError(f"dimension must be >= 1, got {dimension}")
    x = rng.uniform(0.0, w_max, size=(size, dimension))
    if initial is not None:
        init = np.clip(np.asarray(initial, dtype=float), 0.0, w_max)
        if init.shape != (dimension,):
            raise CinefuseError(f"initial guess of length {init.size}, expected {dimension}")
        x[0] = init
    return x


def pso_optimize(objective, dimension: int, config: SwarmConfig, initial=None):
    """Global-best PSO over [0, w_max]^dimension, minimizing `objective`.

    Velocity update: w*v + c*r1*(pbest - x) + c*r2*(gbest - x), with w
    PSO_INERTIA, c PSO_ACCELERATION and per-dimension uniform r1, r2;
    positions are clamped to the bounds.
    `initial`, when given, replaces particle 0 as a warm start.

    Returns (WeightVector, best value, per-iteration best-so-far trace).
    """
    rng = np.random.default_rng(config.seed)
    x = _start(rng, config.particles, dimension, config.w_max, initial)
    v = np.zeros_like(x)

    fx = np.array([_checked(objective, p) for p in x])
    pbest = x.copy()
    pbest_val = fx.copy()
    g = int(np.argmin(fx))
    gbest, gbest_val = x[g].copy(), float(fx[g])

    trace = []
    for _ in range(config.iterations):
        r1 = rng.uniform(size=(config.particles, dimension))
        r2 = rng.uniform(size=(config.particles, dimension))
        v = PSO_INERTIA * v + PSO_ACCELERATION * r1 * (pbest - x) + PSO_ACCELERATION * r2 * (gbest - x)
        x = np.clip(x + v, 0.0, config.w_max)
        fx = np.array([_checked(objective, p) for p in x])
        improved = fx < pbest_val
        pbest[improved] = x[improved]
        pbest_val[improved] = fx[improved]
        g = int(np.argmin(pbest_val))
        if float(pbest_val[g]) < gbest_val:
            gbest, gbest_val = pbest[g].copy(), float(pbest_val[g])
        trace.append(gbest_val)

    return WeightVector(tuple(float(w) for w in gbest), "pso"), gbest_val, trace


def ga_optimize(objective, dimension: int, config: GAConfig, initial=None):
    """Generational GA: tournament selection (size 2), uniform crossover,
    bound-clamped Gaussian mutation, and elitism, minimizing `objective`;
    the GA_* constants set the crossover and mutation rates and the
    mutation's sigma.

    `initial`, when given, replaces individual 0 as a warm start. Returns
    (WeightVector, best value, per-generation best-so-far trace).
    """
    rng = np.random.default_rng(config.seed)
    pop_n = config.population
    pop = _start(rng, pop_n, dimension, config.w_max, initial)

    fitness = np.array([_checked(objective, p) for p in pop])
    best_i = int(np.argmin(fitness))
    best, best_val = pop[best_i].copy(), float(fitness[best_i])

    n_children = pop_n - config.elitism
    trace = []
    for _ in range(config.generations):
        # all stochastic draws for this generation, in a fixed order
        parent_idx = rng.integers(0, pop_n, size=(n_children, 2, 2))
        do_cx = rng.uniform(size=n_children) < GA_CROSSOVER_RATE
        cx_mask = rng.uniform(size=(n_children, dimension)) < 0.5
        mut_mask = rng.uniform(size=(n_children, dimension)) < GA_MUTATION_RATE
        mut_step = rng.normal(0.0, GA_MUTATION_SIGMA * config.w_max, size=(n_children, dimension))

        order = np.argsort(fitness, kind="stable")
        next_pop = [pop[i].copy() for i in order[: config.elitism]]
        for c in range(n_children):
            a, b = parent_idx[c, 0]
            p1 = pop[a] if fitness[a] <= fitness[b] else pop[b]
            a, b = parent_idx[c, 1]
            p2 = pop[a] if fitness[a] <= fitness[b] else pop[b]
            child = p1.copy()
            if do_cx[c]:
                child[cx_mask[c]] = p2[cx_mask[c]]
            child[mut_mask[c]] += mut_step[c][mut_mask[c]]
            next_pop.append(np.clip(child, 0.0, config.w_max))

        pop = np.array(next_pop)
        fitness = np.array([_checked(objective, p) for p in pop])
        gi = int(np.argmin(fitness))
        if float(fitness[gi]) < best_val:
            best, best_val = pop[gi].copy(), float(fitness[gi])
        trace.append(best_val)

    return WeightVector(tuple(float(w) for w in best), "ga"), best_val, trace


@dataclass(frozen=True, eq=False)
class FuzzyProfiles:
    """Per-genre taste memberships in [0, 1]: degrees[u, g] is user
    user_ids[u]'s membership in genre genres[g]. Users ascend by id and
    genres are sorted."""

    user_ids: tuple[int, ...]
    genres: tuple[str, ...]
    degrees: np.ndarray  # float64, (users, genres)

    def __post_init__(self):
        if self.degrees.shape != (len(self.user_ids), len(self.genres)):
            raise CinefuseError(
                f"degrees of shape {self.degrees.shape} for {len(self.user_ids)} users and {len(self.genres)} genres"
            )
        bad = np.argwhere(~(self.degrees >= 0.0) | ~np.isfinite(self.degrees))
        if bad.size:
            u, g = bad[0].tolist()
            raise CinefuseError(
                f"degree {float(self.degrees[u, g])!r} of user {self.user_ids[u]} in genre {self.genres[g]!r} "
                "is negative or not finite"
            )


def build_fuzzy_profiles(catalog: Catalog) -> FuzzyProfiles:
    """membership(user, genre) = mean rating on that genre / scale max.

    Every profile spans the catalog's whole genre universe (sorted); genres
    a user never rated sit at 0. A (user, genre) sum adds its ratings in
    catalog order, as np.bincount does.
    """
    genres = catalog.genre_universe()
    column = {g: t for t, g in enumerate(genres)}
    row = {mid: t for t, mid in enumerate(catalog.movies)}
    of_movie = np.zeros((len(row), len(genres)), dtype=bool)
    # every (movie, genre) cell at once, by its flat position
    cells = [t * len(genres) + column[g] for t, m in enumerate(catalog.movies.values()) for g in m.genres]
    of_movie.flat[cells] = True
    columns = catalog.columns
    user_ids, user = np.unique(columns.user, return_inverse=True)
    # each rating's movie row, looked up once per distinct movie
    movie_ids, movie = np.unique(columns.movie, return_inverse=True)
    movie = np.array([row[mid] for mid in movie_ids.tolist()], dtype=np.intp)[movie]
    # one (rating, genre) entry per genre of each rated movie, ratings in order
    rating, genre = np.nonzero(of_movie[movie])
    cell = user[rating] * len(genres) + genre
    size = user_ids.size * len(genres)
    sums = np.bincount(cell, weights=columns.value[rating], minlength=size)
    counts = np.bincount(cell, minlength=size)
    with np.errstate(divide="ignore", invalid="ignore"):
        degrees = np.where(counts > 0, sums / counts / catalog.scale.max, 0.0).reshape(user_ids.size, len(genres))
    return FuzzyProfiles(tuple(user_ids.tolist()), tuple(genres), degrees)


def _fuzzy_pairs(degrees: np.ndarray, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The fuzzy similarity of each pair (i, j) of rows of `degrees` under
    genre weights `w`."""
    x, y = degrees[i], degrees[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (w * np.minimum(x, y)).sum(axis=1)
        den = (w * np.maximum(x, y)).sum(axis=1)
        return np.where(den == 0.0, 1.0, np.clip(num / den, 0.0, 1.0))


def _fuzzy_plan(profiles: FuzzyProfiles) -> _Plan:
    """The cf._Plan of `fuzzy_similarity_matrix(profiles, weights)`, every
    pair at min_overlap 0: `weigh` checks the genre weights, and a gather,
    held or not, holds its pairs alone; a call gathers their degrees in
    blocks of about _BLOCK_CELLS pair-by-genre cells."""
    degrees = profiles.degrees

    def gather(i: np.ndarray, j: np.ndarray, counts: np.ndarray, hold: bool):
        blocks = [(i[a:b], j[a:b]) for a, b in _runs(np.full(i.size, degrees.shape[1]))]
        return lambda w: np.concatenate([*(_fuzzy_pairs(degrees, bi, bj, w) for bi, bj in blocks), [0.0]])

    # with degrees >= 0, a genre is shared support where both are positive
    co = _co_counts(degrees > 0)
    return _Plan(partial(_weight_vector, d=degrees.shape[1]), gather, profiles.user_ids, co, 0, True)


def fuzzy_similarity_matrix(profiles: FuzzyProfiles, weights) -> SimilarityMatrix:
    """User-user similarity from fuzzy profiles: the weighted fuzzy Jaccard
    sum(w*min) / sum(w*max) of every pair, clipped into [0, 1], filled a
    block of pairs at a time (cf._fill). Weights align with the profiles'
    genres; a zero denominator (both profiles zero wherever weight is
    positive) counts as identical, i.e. 1.

    Co-counts here are shared-support sizes (genres where both memberships
    are positive), which is what neighbor eligibility keys on.
    """
    return _fill(_fuzzy_plan(profiles), "user", "fuzzy", weights)


def _mae(values: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute error of predicted `values` against `actual` ratings,
    summed left to right from the first error, as a scalar loop from 0.0
    adds them: every error is >= +0.0."""
    return float(np.add.accumulate(np.abs(values - actual))[-1]) / values.size


def _objective(matrix: RatingMatrix, axis: str, plan, validation: RatingColumns, k: int):
    """`weights -> validation MAE` for the similarities on `axis` of the
    plan `plan()` builds (cf._plan or _fuzzy_plan): a call scores
    every held-out rating of the columns `validation` as predict_many
    would, fallback predictions included. What no weight changes is done
    once, here, after the arguments are checked: the plan is built, the
    validation set is subsampled when it exceeds VALIDATION_CAP, and the
    sample's raters and the pairs they read are gathered (cf._predictor)."""
    require_positive("k", k)
    if not len(validation.user):
        raise CinefuseError("empty validation set")
    for u, m in zip(validation.user.tolist(), validation.movie.tolist()):
        if u not in matrix.user_index or m not in matrix.item_index:
            raise CinefuseError(f"validation rating ({u}, {m}) references entities absent from train")
    sample = validation
    if len(validation.user) > VALIDATION_CAP:
        keep = np.zeros(len(validation.user), dtype=bool)
        keep[np.random.default_rng(VALIDATION_CAP_SEED).choice(keep.size, size=VALIDATION_CAP, replace=False)] = True
        sample = validation.where(keep)
    predict = _predictor(matrix, axis, plan(), sample.user, sample.movie, k)
    return lambda weights: _mae(predict(weights)[0], sample.value)


def cf_mae_objective(
    train_matrix: RatingMatrix,
    validation_ratings: list[Rating],
    axis: str = "user",
    k: int = DEFAULT_K,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
):
    """Objective: weights over the co-rated dimension -> validation MAE
    under the weighted pearson similarity on `axis` (_objective, over the
    records as columns). The co-rated cells of the pairs the sample reads
    are gathered once (cf._plan)."""
    validation = RatingColumns.of(validation_ratings)
    return _objective(train_matrix, axis, lambda: _plan(train_matrix, axis, "pearson", min_overlap), validation, k)


def fuzzy_mae_objective(
    train_matrix: RatingMatrix,
    profiles: FuzzyProfiles,
    validation_ratings: list[Rating],
    k: int = DEFAULT_K,
):
    """Objective: genre weights -> validation MAE under fuzzy user
    similarity (_objective, over the records as columns). The pairs the
    sample reads are found once (_fuzzy_plan)."""
    return _objective(train_matrix, "user", lambda: _fuzzy_plan(profiles), RatingColumns.of(validation_ratings), k)


def save_weights(wv: WeightVector, path, seed: int, objective_value: float) -> None:
    """One weight per line under a header naming provenance, seed, objective."""
    lines = [f"# provenance={wv.provenance} seed={seed} objective={objective_value!r}"]
    lines.extend(repr(float(w)) for w in wv.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> tuple[WeightVector, int, float]:
    """The weights, seed and objective value of a save_weights file; a
    weight that is not a number, negative or not finite raises, naming the
    file and line."""
    lines = [(i, ln.strip()) for i, ln in text_lines(path) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise CinefuseError(f"weight file {path} lacks a header line")
    try:
        header = dict(kv.split("=", 1) for kv in lines[0][1].lstrip("#").split())
        provenance, seed, objective = header["provenance"], int(header["seed"]), float(header["objective"])
    except (KeyError, ValueError) as exc:
        raise CinefuseError(f"corrupt weight file {path}: {exc}") from None
    if len(lines) == 1:
        raise CinefuseError(f"weight file {path} holds no weights")
    values = []
    for i, ln in lines[1:]:
        try:
            v = float(ln)
        except ValueError:
            raise DataFormatError(f"not a number: {ln!r}", path=path, line=i) from None
        if not math.isfinite(v):
            raise DataFormatError(f"non-finite weight {ln!r}", path=path, line=i)
        if v < 0:
            raise DataFormatError(f"negative weight {ln!r}", path=path, line=i)
        values.append(v)
    return WeightVector(tuple(values), provenance), seed, objective
