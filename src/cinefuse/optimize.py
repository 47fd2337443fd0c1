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

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, Rating
from .cf import RatingMatrix, SimilarityMatrix, _pair_blocks, predict_many, similarity_matrix
from .errors import CinefuseError, require_positive


@dataclass(frozen=True)
class WeightVector:
    values: tuple[float, ...]
    provenance: str  # ga | pso | uniform

    def __post_init__(self):
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

    def degree(self, genre: str) -> float:
        for g, d in self.memberships:
            if g == genre:
                return d
        return 0.0

    def genres(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.memberships)

    def degrees(self) -> np.ndarray:
        return np.array([d for _, d in self.memberships])


def build_fuzzy_profiles(catalog: Catalog) -> dict[int, FuzzyProfile]:
    """membership(user, genre) = mean rating on that genre / scale max.

    Every profile spans the catalog's whole genre universe (sorted); genres
    a user never rated sit at 0.
    """
    genres = catalog.genre_universe()
    sums: dict[int, dict[str, list[float]]] = {}
    for r in catalog.ratings:
        per_user = sums.setdefault(r.user_id, {})
        for g in catalog.movies[r.movie_id].genres:
            per_user.setdefault(g, []).append(r.value)
    profiles = {}
    for uid in sorted(sums):
        memberships = []
        for g in genres:
            vals = sums[uid].get(g)
            degree = (sum(vals) / len(vals)) / catalog.scale.max if vals else 0.0
            memberships.append((g, degree))
        profiles[uid] = FuzzyProfile(uid, tuple(memberships))
    return profiles


def _fuzzy_weights(weights, n_genres: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_genres,):
        raise CinefuseError(f"weight vector of length {w.size}, expected {n_genres}")
    if np.any(w < 0):
        raise CinefuseError("negative weight")
    return w


def fuzzy_similarity(a: FuzzyProfile, b: FuzzyProfile, weights) -> float:
    """Weighted fuzzy Jaccard: sum(w*min) / sum(w*max), in [0, 1].

    Weights align with the sorted genre order the profiles share. A zero
    denominator (both profiles zero wherever weight is positive) counts as
    identical, i.e. 1.
    """
    if a.genres() != b.genres():
        raise CinefuseError("profiles do not share a genre universe")
    w = _fuzzy_weights(weights, len(a.genres()))
    da, db = a.degrees(), b.degrees()
    num = float((w * np.minimum(da, db)).sum())
    den = float((w * np.maximum(da, db)).sum())
    if den == 0.0:
        return 1.0
    return min(1.0, max(0.0, num / den))


def fuzzy_similarity_matrix(profiles: dict[int, FuzzyProfile], weights) -> SimilarityMatrix:
    """User-user similarity from fuzzy profiles: fuzzy_similarity for every
    pair, computed a block of pairs at a time with the same bits.

    Co-counts here are shared-support sizes (genres where both memberships
    are positive), which is what neighbor eligibility keys on.
    """
    ids = tuple(sorted(profiles))
    n = len(ids)
    genres = profiles[ids[0]].genres() if ids else ()
    if any(profiles[u].genres() != genres for u in ids):
        raise CinefuseError("profiles do not share a genre universe")
    w = _fuzzy_weights(weights, len(genres))
    degs = np.array([profiles[u].degrees() for u in ids]).reshape(n, len(genres))
    values = np.eye(n)
    co = np.diag(np.count_nonzero(degs, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j in _pair_blocks(n, len(genres)):
            a, b = degs[i], degs[j]
            lo = np.minimum(a, b)
            num = (w * lo).sum(axis=1)
            den = (w * np.maximum(a, b)).sum(axis=1)
            values[i, j] = values[j, i] = np.where(den == 0.0, 1.0, np.clip(num / den, 0.0, 1.0))
            co[i, j] = co[j, i] = np.count_nonzero(lo, axis=1)
    return SimilarityMatrix("user", "fuzzy", ids, values, co, min_overlap=0)


def _subsample(validation: list[Rating], cap: int, seed: int) -> list[Rating]:
    if cap is None or len(validation) <= cap:
        return list(validation)
    rng = np.random.default_rng(seed)
    idx = sorted(rng.choice(len(validation), size=cap, replace=False))
    return [validation[i] for i in idx]


def _sample_mae(matrix: RatingMatrix, sim: SimilarityMatrix, sample: list[Rating], k: int) -> float:
    """MAE of predict_many over `sample`, fallback predictions included."""
    values, _ = predict_many(matrix, sim, [r.user_id for r in sample], [r.movie_id for r in sample], k)
    err = 0.0
    for v, r in zip(values.tolist(), sample):
        err += abs(v - r.value)
    return err / len(sample)


def cf_mae_objective(
    train_matrix: RatingMatrix,
    validation_ratings: list[Rating],
    axis: str = "user",
    k: int = 20,
    min_overlap: int = 2,
    validation_cap: int | None = 2000,
    cap_seed: int = 0,
):
    """Objective: weights over the co-rated dimension -> validation MAE.

    Each candidate rebuilds a weighted pearson similarity matrix on `axis`
    and scores every held-out rating with predict_many (fallback
    predictions included). The validation set is subsampled once, at
    construction, when it exceeds `validation_cap`.
    """
    require_positive("k", k)
    if not validation_ratings:
        raise CinefuseError("empty validation set")
    for r in validation_ratings:
        if r.user_id not in train_matrix.user_index or r.movie_id not in train_matrix.item_index:
            raise CinefuseError(
                f"validation rating ({r.user_id}, {r.movie_id}) references entities absent from train"
            )
    sample = _subsample(validation_ratings, validation_cap, cap_seed)

    def objective(weights) -> float:
        sim = similarity_matrix(train_matrix, axis, "pearson", weights=weights, min_overlap=min_overlap)
        return _sample_mae(train_matrix, sim, sample, k)

    return objective


def fuzzy_mae_objective(
    train_matrix: RatingMatrix,
    profiles: dict[int, FuzzyProfile],
    validation_ratings: list[Rating],
    k: int = 20,
    validation_cap: int | None = 2000,
    cap_seed: int = 0,
):
    """Objective: genre weights -> validation MAE under fuzzy user similarity."""
    require_positive("k", k)
    if not validation_ratings:
        raise CinefuseError("empty validation set")
    sample = _subsample(validation_ratings, validation_cap, cap_seed)

    def objective(weights) -> float:
        return _sample_mae(train_matrix, fuzzy_similarity_matrix(profiles, weights), sample, k)

    return objective


def save_weights(wv: WeightVector, path, seed: int, objective_value: float) -> None:
    """One weight per line under a header naming provenance, seed, objective."""
    lines = [f"# provenance={wv.provenance} seed={seed} objective={objective_value!r}"]
    lines.extend(repr(float(w)) for w in wv.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path) -> tuple[WeightVector, int, float]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise CinefuseError(f"weight file {path} lacks a header line")
    try:
        header = dict(kv.split("=", 1) for kv in lines[0].lstrip("#").split())
        provenance = header["provenance"]
        seed = int(header["seed"])
        objective = float(header["objective"])
        values = tuple(float(ln) for ln in lines[1:])
    except (KeyError, ValueError) as exc:
        raise CinefuseError(f"corrupt weight file {path}: {exc}") from None
    if not values:
        raise CinefuseError(f"weight file {path} holds no weights")
    return WeightVector(values, provenance), seed, objective
