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

import numpy as np

from .catalog import Catalog, Rating
from .cf import (
    DEFAULT_K,
    DEFAULT_MIN_OVERLAP,
    RatingMatrix,
    SimilarityMatrix,
    _axis,
    _pair_blocks,
    _pearson_plan,
    _predict,
    _rank_rows,
    _raters,
    _runs,
    _targets,
    _weight_vector,
)
from .errors import CinefuseError, DataFormatError, require_positive

# Objectives score at most this many validation ratings, a sample drawn with
# this seed, so one evaluation's cost does not grow with the held-out set.
VALIDATION_CAP = 2000
VALIDATION_CAP_SEED = 0


@dataclass(frozen=True)
class WeightVector:
    values: tuple[float, ...]
    provenance: str  # ga | pso | uniform

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise CinefuseError("weights must be finite")
        if any(v < 0 for v in self.values):
            raise CinefuseError("weights must be nonnegative")

    @classmethod
    def uniform(cls, dimension: int) -> "WeightVector":
        return cls(values=(1.0,) * dimension, provenance="uniform")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class SwarmConfig:
    particles: int = 30
    iterations: int = 100
    omega: float = 0.72
    c1: float = 1.49
    c2: float = 1.49
    seed: int = 0
    w_max: float = 2.0

    def __post_init__(self):
        if self.particles < 1 or self.iterations < 1:
            raise CinefuseError("particles and iterations must be >= 1")
        if self.omega < 0 or self.c1 < 0 or self.c2 < 0:
            raise CinefuseError("omega, c1, c2 must be nonnegative")
        if self.w_max <= 0:
            raise CinefuseError("w_max must be positive")


@dataclass(frozen=True)
class GAConfig:
    population: int = 40
    generations: int = 80
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    mutation_sigma: float | None = None  # default: 10% of the bound width
    elitism: int = 2
    seed: int = 0
    w_max: float = 2.0

    def __post_init__(self):
        if self.population < 1 or self.generations < 1:
            raise CinefuseError("population and generations must be >= 1")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise CinefuseError("crossover and mutation rates must be in [0, 1]")
        if not (0 <= self.elitism < self.population):
            raise CinefuseError("elitism must be in [0, population)")
        if self.w_max <= 0:
            raise CinefuseError("w_max must be positive")

    @property
    def sigma(self) -> float:
        return self.mutation_sigma if self.mutation_sigma is not None else 0.1 * self.w_max


def _checked(objective, x) -> float:
    v = float(objective(x))
    if not np.isfinite(v):
        raise CinefuseError(f"objective returned non-finite value {v} for weights {np.asarray(x)}")
    return v


def pso_optimize(objective, dimension: int, config: SwarmConfig, initial=None):
    """Global-best PSO over [0, w_max]^dimension, minimizing `objective`.

    Velocity update: w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) with
    per-dimension uniform r1, r2; positions are clamped to the bounds.
    `initial`, when given, replaces particle 0 as a warm start.

    Returns (WeightVector, best value, per-iteration best-so-far trace).
    """
    if dimension < 1:
        raise CinefuseError(f"dimension must be >= 1, got {dimension}")
    rng = np.random.default_rng(config.seed)
    lo, hi = 0.0, config.w_max

    x = rng.uniform(lo, hi, size=(config.particles, dimension))
    if initial is not None:
        init = np.clip(np.asarray(initial, dtype=float), lo, hi)
        if init.shape != (dimension,):
            raise CinefuseError(f"initial guess of length {init.size}, expected {dimension}")
        x[0] = init
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
        v = config.omega * v + config.c1 * r1 * (pbest - x) + config.c2 * r2 * (gbest - x)
        x = np.clip(x + v, lo, hi)
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
    bound-clamped Gaussian mutation, and elitism, minimizing `objective`.

    `initial`, when given, replaces individual 0 as a warm start. Returns
    (WeightVector, best value, per-generation best-so-far trace).
    """
    if dimension < 1:
        raise CinefuseError(f"dimension must be >= 1, got {dimension}")
    rng = np.random.default_rng(config.seed)
    lo, hi = 0.0, config.w_max
    pop_n = config.population

    pop = rng.uniform(lo, hi, size=(pop_n, dimension))
    if initial is not None:
        init = np.clip(np.asarray(initial, dtype=float), lo, hi)
        if init.shape != (dimension,):
            raise CinefuseError(f"initial guess of length {init.size}, expected {dimension}")
        pop[0] = init

    fitness = np.array([_checked(objective, p) for p in pop])
    best_i = int(np.argmin(fitness))
    best, best_val = pop[best_i].copy(), float(fitness[best_i])

    n_children = pop_n - config.elitism
    trace = []
    for _ in range(config.generations):
        # all stochastic draws for this generation, in a fixed order
        parent_idx = rng.integers(0, pop_n, size=(n_children, 2, 2))
        do_cx = rng.uniform(size=n_children) < config.crossover_rate
        cx_mask = rng.uniform(size=(n_children, dimension)) < 0.5
        mut_mask = rng.uniform(size=(n_children, dimension)) < config.mutation_rate
        mut_step = rng.normal(0.0, config.sigma, size=(n_children, dimension))

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
            next_pop.append(np.clip(child, lo, hi))

        pop = np.array(next_pop)
        fitness = np.array([_checked(objective, p) for p in pop])
        gi = int(np.argmin(fitness))
        if float(fitness[gi]) < best_val:
            best, best_val = pop[gi].copy(), float(fitness[gi])
        trace.append(best_val)

    return WeightVector(tuple(float(w) for w in best), "ga"), best_val, trace


@dataclass(frozen=True)
class FuzzyProfile:
    """Per-genre taste memberships in [0, 1] for one user."""

    user_id: int
    memberships: tuple[tuple[str, float], ...]  # (genre, degree), sorted by genre

    def genres(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.memberships)

    def degrees(self) -> np.ndarray:
        return np.array([d for _, d in self.memberships])


def build_fuzzy_profiles(catalog: Catalog) -> dict[int, FuzzyProfile]:
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
    return {
        uid: FuzzyProfile(uid, tuple(zip(genres, row)))
        for uid, row in zip(user_ids.tolist(), degrees.tolist())
    }


def _fuzzy_degrees(profiles: dict[int, FuzzyProfile]) -> tuple[tuple[int, ...], np.ndarray]:
    """The sorted profile ids and their (profiles, genres) degree matrix."""
    ids = tuple(sorted(profiles))
    universes = {profiles[u].genres() for u in ids}
    if len(universes) > 1:
        raise CinefuseError("profiles do not share a genre universe")
    n_genres = len(universes.pop()) if universes else 0
    return ids, np.array([profiles[u].degrees() for u in ids]).reshape(len(ids), n_genres)


def _fuzzy_plan(degs: np.ndarray) -> tuple[list, np.ndarray]:
    """What no weight changes in the fuzzy kernel over _fuzzy_degrees'
    `degs`: its pair blocks and their shared-support co-counts (genres where
    both memberships are positive, which neighbor eligibility keys on)."""
    n, n_genres = degs.shape
    blocks = [(i[a:b], j[a:b]) for i, j in _pair_blocks(n) for a, b in _runs(np.full(i.size, n_genres))]
    co = np.diag(np.count_nonzero(degs, axis=1))
    for i, j in blocks:
        co[i, j] = co[j, i] = np.count_nonzero(np.minimum(degs[i], degs[j]), axis=1)
    return blocks, co


def _fuzzy_similarity(ids: tuple[int, ...], degs: np.ndarray, blocks, co, weights) -> SimilarityMatrix:
    """fuzzy_similarity_matrix over _fuzzy_degrees and _fuzzy_plan."""
    w = _weight_vector(weights, degs.shape[1])
    values = np.eye(len(ids))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j in blocks:
            a, b = degs[i], degs[j]
            num = (w * np.minimum(a, b)).sum(axis=1)
            den = (w * np.maximum(a, b)).sum(axis=1)
            values[i, j] = values[j, i] = np.where(den == 0.0, 1.0, np.clip(num / den, 0.0, 1.0))
    return SimilarityMatrix("user", "fuzzy", ids, values, co, min_overlap=0)


def fuzzy_similarity_matrix(profiles: dict[int, FuzzyProfile], weights) -> SimilarityMatrix:
    """User-user similarity from fuzzy profiles: the weighted fuzzy Jaccard
    sum(w*min) / sum(w*max) of every pair, clipped into [0, 1], computed a
    block of pairs at a time. Weights align with the sorted genre universe
    the profiles share; a zero denominator (both profiles zero wherever
    weight is positive) counts as identical, i.e. 1.

    Co-counts here are shared-support sizes (genres where both memberships
    are positive), which is what neighbor eligibility keys on.
    """
    ids, degs = _fuzzy_degrees(profiles)
    return _fuzzy_similarity(ids, degs, *_fuzzy_plan(degs), weights)


def _subsample(validation: list[Rating]) -> list[Rating]:
    if len(validation) <= VALIDATION_CAP:
        return list(validation)
    rng = np.random.default_rng(VALIDATION_CAP_SEED)
    idx = sorted(rng.choice(len(validation), size=VALIDATION_CAP, replace=False))
    return [validation[i] for i in idx]


def _sample_scorer(matrix: RatingMatrix, axis: str, ids: tuple[int, ...], co: np.ndarray, sample: list[Rating], k: int):
    """`sim -> MAE of predict_many over sample`, fallback predictions
    included, for similarities on `axis` over `ids` whose co-counts are
    `co`; the sample's positions and the raters of each rating are gathered
    once, here, so a call ranks the targets' neighbors, sorts and sums."""
    targets = _targets(
        matrix, axis, ids, {e: p for p, e in enumerate(ids)}, [r.user_id for r in sample], [r.movie_id for r in sample]
    )
    rows, blocks = targets.rows, [g for _, _, g in _raters(targets, co, k)]
    by_id = np.argsort(ids)
    actual = np.array([r.value for r in sample], dtype=float)

    def score(sim: SimilarityMatrix) -> float:
        ranks = _rank_rows(sim.values, by_id, rows)
        values = np.concatenate([_predict(matrix.scale, sim.values, ranks, g)[0] for g in blocks])
        # left to right from the first error, as a scalar loop from 0.0
        # adds them: every error is >= +0.0
        return float(np.add.accumulate(np.abs(values - actual))[-1]) / len(sample)

    return score


def cf_mae_objective(
    train_matrix: RatingMatrix,
    validation_ratings: list[Rating],
    axis: str = "user",
    k: int = DEFAULT_K,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
):
    """Objective: weights over the co-rated dimension -> validation MAE.

    A call computes the weighted pearson similarity on `axis` and scores
    every held-out rating with predict_many (fallback predictions
    included). What no weight changes is done once, at construction: the
    validation set is subsampled when it exceeds VALIDATION_CAP, the
    co-counts and co-rated cells are gathered (_pearson_plan), and so are
    the sample's positions and, from those co-counts, each rating's
    eligible raters (_sample_scorer).
    """
    require_positive("k", k)
    if not validation_ratings:
        raise CinefuseError("empty validation set")
    for r in validation_ratings:
        if r.user_id not in train_matrix.user_index or r.movie_id not in train_matrix.item_index:
            raise CinefuseError(
                f"validation rating ({r.user_id}, {r.movie_id}) references entities absent from train"
            )
    sample = _subsample(validation_ratings)
    similarity, co = _pearson_plan(train_matrix, axis, min_overlap)
    score = _sample_scorer(train_matrix, axis, _axis(train_matrix, axis).ids, co, sample, k)

    def objective(weights) -> float:
        return score(similarity(weights))

    return objective


def fuzzy_mae_objective(
    train_matrix: RatingMatrix,
    profiles: dict[int, FuzzyProfile],
    validation_ratings: list[Rating],
    k: int = DEFAULT_K,
):
    """Objective: genre weights -> validation MAE under fuzzy user similarity.

    The validation set is subsampled as cf_mae_objective's. The profiles'
    degree matrix, pair blocks and co-counts, the sample's positions and
    each rating's eligible raters are found once, at construction; a call
    runs the weighted kernel and the predictor.
    """
    require_positive("k", k)
    if not validation_ratings:
        raise CinefuseError("empty validation set")
    sample = _subsample(validation_ratings)
    ids, degs = _fuzzy_degrees(profiles)
    blocks, co = _fuzzy_plan(degs)
    score = _sample_scorer(train_matrix, "user", ids, co, sample, k)

    def objective(weights) -> float:
        return score(_fuzzy_similarity(ids, degs, blocks, co, weights))

    return objective


def save_weights(wv: WeightVector, path, seed: int, objective_value: float) -> None:
    """One weight per line under a header naming provenance, seed, objective."""
    lines = [f"# provenance={wv.provenance} seed={seed} objective={objective_value!r}"]
    lines.extend(repr(float(w)) for w in wv.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> tuple[WeightVector, int, float]:
    """The weights, seed and objective value of a save_weights file; a
    weight that is not a finite number raises, naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise CinefuseError(f"weight file {path} lacks a header line")
    try:
        header = dict(kv.split("=", 1) for kv in lines[0][1].lstrip("#").split())
        provenance, seed, objective = header["provenance"], int(header["seed"]), float(header["objective"])
        values = tuple(float(ln) for _, ln in lines[1:])
    except (KeyError, ValueError) as exc:
        raise CinefuseError(f"corrupt weight file {path}: {exc}") from None
    if not values:
        raise CinefuseError(f"weight file {path} holds no weights")
    for (i, ln), v in zip(lines[1:], values):
        if not math.isfinite(v):
            raise DataFormatError(f"non-finite weight {ln!r}", path=path, line=i)
    return WeightVector(values, provenance), seed, objective
