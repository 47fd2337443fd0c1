"""PSO/GA weight optimization, fuzzy profiles, and MAE objectives."""

from dataclasses import replace

import numpy as np
import pytest

from cinefuse import cf, optimize
from cinefuse.catalog import Movie, Rating, train_test_split
from cinefuse.cf import build_rating_matrix, predict_rating, similarity_matrix
from cinefuse.errors import CinefuseError
from cinefuse.optimize import (
    FuzzyProfile,
    GAConfig,
    SwarmConfig,
    WeightVector,
    _sample_scorer,
    build_fuzzy_profiles,
    cf_mae_objective,
    fuzzy_mae_objective,
    fuzzy_similarity_matrix,
    ga_optimize,
    load_weights,
    pso_optimize,
    save_weights,
)

from conftest import make_matrix, tiny_catalog


def sphere(x):
    x = np.asarray(x)
    return float((x * x).sum())


class TestPSO:
    def test_sphere_convergence(self):
        cfg = SwarmConfig(particles=30, iterations=100, seed=7, w_max=10.0)
        wv, best, trace = pso_optimize(sphere, 5, cfg)
        assert best < 1e-2
        assert wv.provenance == "pso"
        assert len(trace) == 100

    def test_trace_non_increasing(self):
        for seed in (0, 1, 2, 9):
            cfg = SwarmConfig(particles=12, iterations=40, seed=seed, w_max=5.0)
            _, _, trace = pso_optimize(sphere, 4, cfg)
            assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self):
        cfg = SwarmConfig(particles=10, iterations=25, seed=13, w_max=3.0)
        a = pso_optimize(sphere, 3, cfg)
        b = pso_optimize(sphere, 3, cfg)
        assert a[0].values == b[0].values
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_warm_start_never_worse(self):
        start = np.zeros(4)  # the sphere optimum
        cfg = SwarmConfig(particles=8, iterations=10, seed=2, w_max=5.0)
        _, best, trace = pso_optimize(sphere, 4, cfg, initial=start)
        assert best <= sphere(start) + 1e-12
        assert trace[0] <= sphere(start) + 1e-12

    def test_positions_stay_in_bounds(self):
        seen = []

        def probe(x):
            seen.append(np.array(x))
            return sphere(x)

        cfg = SwarmConfig(particles=6, iterations=15, seed=4, w_max=1.5)
        pso_optimize(probe, 3, cfg)
        stacked = np.vstack(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.5)

    def test_non_finite_objective_names_vector(self):
        def bad(x):
            return float("nan")

        cfg = SwarmConfig(particles=4, iterations=5, seed=1)
        with pytest.raises(CinefuseError, match="non-finite"):
            pso_optimize(bad, 2, cfg)

    def test_config_validation(self):
        with pytest.raises(CinefuseError):
            SwarmConfig(particles=0)
        with pytest.raises(CinefuseError):
            SwarmConfig(omega=-0.1)
        with pytest.raises(CinefuseError):
            SwarmConfig(w_max=0.0)


class TestGA:
    def test_sphere_convergence(self):
        cfg = GAConfig(population=40, generations=80, seed=3, w_max=10.0)
        wv, best, trace = ga_optimize(sphere, 5, cfg)
        assert best < 1e-1
        assert wv.provenance == "ga"
        assert len(trace) == 80

    def test_trace_non_increasing(self):
        for seed in (0, 5, 8):
            cfg = GAConfig(population=14, generations=30, seed=seed, w_max=4.0)
            _, _, trace = ga_optimize(sphere, 3, cfg)
            assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_deterministic_per_seed(self):
        cfg = GAConfig(population=10, generations=12, seed=6, w_max=2.0)
        a = ga_optimize(sphere, 4, cfg)
        b = ga_optimize(sphere, 4, cfg)
        assert a[0].values == b[0].values
        assert a[2] == b[2]

    def test_warm_start_never_worse(self):
        start = np.full(3, 0.1)
        cfg = GAConfig(population=8, generations=5, seed=9, w_max=2.0)
        _, best, _ = ga_optimize(sphere, 3, cfg, initial=start)
        assert best <= sphere(start) + 1e-12

    def test_elitism_keeps_best_alive(self):
        cfg = GAConfig(population=6, generations=25, seed=11, w_max=3.0, elitism=2)
        _, _, trace = ga_optimize(sphere, 2, cfg)
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_children_respect_bounds(self):
        seen = []

        def probe(x):
            seen.append(np.array(x))
            return sphere(x)

        cfg = GAConfig(population=8, generations=10, seed=5, w_max=1.0)
        ga_optimize(probe, 3, cfg)
        stacked = np.vstack(seen)
        assert np.all(stacked >= 0.0) and np.all(stacked <= 1.0)

    def test_config_validation(self):
        with pytest.raises(CinefuseError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(CinefuseError):
            GAConfig(elitism=40, population=40)
        with pytest.raises(CinefuseError):
            GAConfig(generations=0)


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(CinefuseError):
            WeightVector((1.0, -0.2), "ga")

    def test_uniform_constructor(self):
        wv = WeightVector.uniform(4)
        assert wv.values == (1.0, 1.0, 1.0, 1.0)
        assert wv.provenance == "uniform"

    def test_save_load_round_trip(self, tmp_path):
        wv = WeightVector((0.25, 1.5, 0.0), "pso")
        path = tmp_path / "w.txt"
        save_weights(wv, path, seed=7, objective_value=0.123456789)
        loaded, seed, objective = load_weights(path)
        assert loaded == wv
        assert seed == 7
        assert objective == 0.123456789

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\n0.5\n")
        with pytest.raises(CinefuseError, match="header"):
            load_weights(path)

    def test_header_token_without_equals_names_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance seed=1 objective=0.5\n1.0\n")
        with pytest.raises(CinefuseError, match="w.txt"):
            load_weights(path)


def fuzzy_similarity(a, b, weights):
    """Scalar weighted fuzzy Jaccard of two profiles: sum(w*min) / sum(w*max)
    clamped into [0, 1], and 1 for a zero denominator."""
    w = np.asarray(weights, dtype=float)
    da, db = a.degrees(), b.degrees()
    num = float((w * np.minimum(da, db)).sum())
    den = float((w * np.maximum(da, db)).sum())
    if den == 0.0:
        return 1.0
    return min(1.0, max(0.0, num / den))


def loop_fuzzy_similarity_matrix(profiles, weights):
    """The per-pair loop fuzzy_similarity_matrix used before it was
    vectorised; the kernel must reproduce its values bit for bit."""
    ids = tuple(sorted(profiles))
    n = len(ids)
    values = np.zeros((n, n))
    co = np.zeros((n, n), dtype=np.int64)
    degs = [profiles[u].degrees() for u in ids]
    for i in range(n):
        values[i, i] = 1.0
        co[i, i] = int(np.count_nonzero(degs[i]))
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = fuzzy_similarity(profiles[ids[i]], profiles[ids[j]], weights)
            co[i, j] = co[j, i] = int(np.count_nonzero(np.minimum(degs[i], degs[j])))
    return values, co


def random_profiles(rng, n_users, n_genres):
    genres = [f"g{t:03d}" for t in range(n_genres)]
    profiles = {}
    for uid in rng.permutation(np.arange(1, 3 * n_users))[:n_users]:
        # a share of exact zeros, and some users with no support at all
        degrees = rng.uniform(0.0, 1.0, size=n_genres) * (rng.uniform(size=n_genres) < 0.6)
        if rng.uniform() < 0.1:
            degrees[:] = 0.0
        profiles[int(uid)] = FuzzyProfile(int(uid), tuple(zip(genres, degrees.tolist())))
    return profiles


class TestFuzzySimilarityBitwise:
    def test_random_profiles_with_and_without_weights(self):
        rng = np.random.default_rng(606)
        # genre counts below 8, from 8 to 128 and above 128: numpy's
        # pairwise-sum regimes
        for n_genres in (1, 3, 7, 8, 19, 130, 300):
            for _ in range(3):
                profiles = random_profiles(rng, int(rng.integers(2, 25)), n_genres)
                sparse_w = rng.uniform(0.0, 2.0, size=n_genres) * (rng.uniform(size=n_genres) < 0.7)
                for w in (np.ones(n_genres), sparse_w):
                    sim = fuzzy_similarity_matrix(profiles, w)
                    values, co = loop_fuzzy_similarity_matrix(profiles, w)
                    assert np.array_equal(sim.values, values)
                    assert np.array_equal(sim.co_counts, co)

    def test_blocking_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(9)
        profiles = random_profiles(rng, 30, 12)
        w = rng.uniform(0.0, 2.0, size=12)
        want = fuzzy_similarity_matrix(profiles, w).values
        monkeypatch.setattr(cf, "_BLOCK_CELLS", 50)
        assert np.array_equal(fuzzy_similarity_matrix(profiles, w).values, want)
        assert np.array_equal(want, loop_fuzzy_similarity_matrix(profiles, w)[0])

    def test_weights_and_genres_validated(self):
        profiles = random_profiles(np.random.default_rng(1), 4, 3)
        with pytest.raises(CinefuseError, match="length"):
            fuzzy_similarity_matrix(profiles, [1.0, 1.0])
        with pytest.raises(CinefuseError, match="negative"):
            fuzzy_similarity_matrix(profiles, [1.0, -1.0, 1.0])
        profiles[99] = FuzzyProfile(99, (("other", 0.5), ("g001", 0.1), ("g002", 0.2)))
        with pytest.raises(CinefuseError, match="genre universe"):
            fuzzy_similarity_matrix(profiles, [1.0, 1.0, 1.0])


def loop_build_fuzzy_profiles(catalog):
    """build_fuzzy_profiles as it was before np.bincount: one list of
    ratings per (user, genre), summed in catalog order. The profiles must
    equal it exactly."""
    genres = catalog.genre_universe()
    sums = {}
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


class TestFuzzyProfiles:
    def test_equals_per_genre_list_loop(self, fixture_catalog):
        # a movie with no genres, rated alone by user 9 and with others by
        # user 1; random catalogs whose sums round differently in another
        # order
        cat = tiny_catalog()
        movies = dict(cat.movies)
        movies[5] = Movie(5, "Epsilon", frozenset(), summary="no genre at all")
        genreless = replace(cat, movies=movies, ratings=cat.ratings + [Rating(9, 5, 2.5), Rating(1, 5, 1.0)])
        catalogs = [fixture_catalog, cat, genreless]
        rng = np.random.default_rng(41)
        movie_ids = sorted(fixture_catalog.movies)
        for _ in range(4):
            cells = {(int(u), int(m)) for u, m in zip(rng.integers(1, 30, 400), rng.choice(movie_ids, 400))}
            ratings = [Rating(u, m, float(rng.integers(1, 11)) / 2.0 + rng.uniform(0, 1e-3)) for u, m in cells]
            catalogs.append(replace(fixture_catalog, ratings=[ratings[i] for i in rng.permutation(len(ratings))]))
        for catalog in catalogs:
            got = build_fuzzy_profiles(catalog)
            assert got == loop_build_fuzzy_profiles(catalog)
            assert all(type(d) is float for p in got.values() for _, d in p.memberships)
        assert set(build_fuzzy_profiles(genreless)[9].degrees()) == {0.0}

    def test_membership_is_scaled_genre_mean(self):
        cat = tiny_catalog()
        degree = dict(build_fuzzy_profiles(cat)[1].memberships)
        # user 1 rated Drama movies 1 (4.0) and 2 (3.0): mean 3.5 -> 0.7
        assert degree["Drama"] == pytest.approx(3.5 / 5.0)
        # user 1 rated the single Sci-Fi movie 3 at 5.0 -> 1.0
        assert degree["Sci-Fi"] == pytest.approx(1.0)
        # user 1 never rated a Romance movie
        assert degree["Romance"] == 0.0

    def test_profiles_span_genre_universe(self):
        cat = tiny_catalog()
        profiles = build_fuzzy_profiles(cat)
        genres = tuple(cat.genre_universe())
        for p in profiles.values():
            assert p.genres() == genres
            assert np.all(p.degrees() >= 0.0) and np.all(p.degrees() <= 1.0)

    def test_fuzzy_similarity_identity_and_bounds(self):
        a = FuzzyProfile(1, (("Action", 0.6), ("Drama", 0.2)))
        b = FuzzyProfile(2, (("Action", 0.3), ("Drama", 0.8)))
        values = fuzzy_similarity_matrix({1: a, 2: b}, [1.0, 1.0]).values
        s_ab = values[0, 1]
        assert 0.0 <= s_ab <= 1.0
        assert values[0, 0] == values[1, 1] == 1.0
        expect = (min(0.6, 0.3) + min(0.2, 0.8)) / (max(0.6, 0.3) + max(0.2, 0.8))
        assert s_ab == pytest.approx(expect)

    def test_both_zero_profiles_count_identical(self):
        a = FuzzyProfile(1, (("Action", 0.0),))
        b = FuzzyProfile(2, (("Action", 0.0),))
        assert fuzzy_similarity_matrix({1: a, 2: b}, [1.0]).values[0, 1] == 1.0

    def test_weight_length_mismatch_rejected(self):
        a = FuzzyProfile(1, (("Action", 0.5),))
        with pytest.raises(CinefuseError, match="length"):
            fuzzy_similarity_matrix({1: a}, [1.0, 2.0])

    def test_similarity_matrix_shape_and_co_counts(self):
        cat = tiny_catalog()
        profiles = build_fuzzy_profiles(cat)
        genres = cat.genre_universe()
        sim = fuzzy_similarity_matrix(profiles, np.ones(len(genres)))
        assert sim.metric == "fuzzy"
        assert sim.values.shape == (3, 3)
        assert np.all(np.diag(sim.values) == 1.0)
        da = profiles[1].degrees()
        db = profiles[2].degrees()
        shared = int(np.count_nonzero(np.minimum(da, db)))
        assert sim.co_counts[0, 1] == shared


def loop_sample_mae(matrix, sim, sample, k):
    """The objectives' MAE as it was before predict_many: one predict_rating
    per rating, summed left to right. _sample_scorer must match it bit for
    bit."""
    err = 0.0
    for r in sample:
        err += abs(predict_rating(matrix, sim, r.user_id, r.movie_id, k).value - r.value)
    return err / len(sample)


class TestObjectivesBitwise:
    def test_sample_mae_equals_per_pair_loop(self, fixture_catalog):
        rng = np.random.default_rng(5)
        for seed in range(4):
            train, test = train_test_split(fixture_catalog, 0.3, seed=seed)
            matrix = build_rating_matrix(train)
            n_genres = len(train.genre_universe())
            sims = [
                similarity_matrix(matrix, "user", "pearson", weights=rng.uniform(0.0, 2.0, len(matrix.item_ids))),
                similarity_matrix(matrix, "item", "pearson", weights=rng.uniform(0.0, 2.0, len(matrix.user_ids))),
                fuzzy_similarity_matrix(build_fuzzy_profiles(train), rng.uniform(0.0, 2.0, n_genres)),
            ]
            for sim in sims:
                for k in (1, 4, 20):
                    score = _sample_scorer(matrix, sim.axis, sim.ids, sim.co_counts, test, k)
                    assert score(sim) == loop_sample_mae(matrix, sim, test, k)

    def test_objectives_equal_per_pair_loop(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=2)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        rng = np.random.default_rng(3)
        for axis, dim in (("user", len(matrix.item_ids)), ("item", len(matrix.user_ids))):
            w = rng.uniform(0.0, 2.0, dim)
            sim = similarity_matrix(matrix, axis, "pearson", weights=w)
            assert cf_mae_objective(matrix, test, axis=axis, k=5)(w) == loop_sample_mae(matrix, sim, test, 5)
        w = rng.uniform(0.0, 2.0, len(train.genre_universe()))
        want = loop_sample_mae(matrix, fuzzy_similarity_matrix(profiles, w), test, 5)
        assert fuzzy_mae_objective(matrix, profiles, test, k=5)(w) == want


def random_split(rng, n_users, n_items, density):
    """A random half-step train matrix, rows or columns possibly empty, and
    held-out ratings on its cells, rated and unrated."""
    rated = rng.uniform(size=(n_users, n_items)) < density
    matrix = make_matrix(np.where(rated, rng.integers(1, 11, (n_users, n_items)) / 2.0, np.nan))
    cells = rng.integers(0, [n_users, n_items], size=(int(rng.integers(1, 40)), 2))
    held = [Rating(matrix.user_ids[u], matrix.item_ids[m], float(rng.integers(1, 11)) / 2.0) for u, m in cells.tolist()]
    return matrix, held


def random_weights(rng, d):
    """Weights in [0, 2) with a share of exact zeros."""
    return rng.uniform(0.0, 2.0, size=d) * (rng.uniform(size=d) < 0.7)


class TestObjectivesHeldPlan:
    """Each objective holds what no weight changes; its values must equal a
    fresh similarity and the per-rating loop, with ==."""

    def test_cf_objective_equals_fresh_similarity(self):
        rng = np.random.default_rng(1207)
        for _ in range(10):
            n_users, n_items = (int(v) for v in rng.integers(2, 16, size=2))
            matrix, held = random_split(rng, n_users, n_items, rng.uniform(0.2, 0.9))
            for axis, d in (("user", len(matrix.item_ids)), ("item", len(matrix.user_ids))):
                for min_overlap in range(4):
                    k = int(rng.integers(1, 21))
                    objective = cf_mae_objective(matrix, held, axis=axis, k=k, min_overlap=min_overlap)
                    for w in (np.ones(d), random_weights(rng, d), np.zeros(d)):
                        sim = similarity_matrix(matrix, axis, "pearson", weights=w, min_overlap=min_overlap)
                        assert objective(w) == loop_sample_mae(matrix, sim, held, k)

    def test_fuzzy_objective_equals_fresh_similarity(self):
        rng = np.random.default_rng(1208)
        for n_genres in (1, 4, 9):
            for _ in range(4):
                n_users, n_items = (int(v) for v in rng.integers(2, 16, size=2))
                matrix, held = random_split(rng, n_users, n_items, rng.uniform(0.2, 0.9))
                genres = [f"g{t}" for t in range(n_genres)]
                profiles = {
                    u: FuzzyProfile(u, tuple(zip(genres, random_weights(rng, n_genres).tolist())))
                    for u in matrix.user_ids
                }
                for k in (1, 3, 20):
                    objective = fuzzy_mae_objective(matrix, profiles, held, k=k)
                    for w in (np.ones(n_genres), random_weights(rng, n_genres), np.zeros(n_genres)):
                        assert objective(w) == loop_sample_mae(matrix, fuzzy_similarity_matrix(profiles, w), held, k)

    def test_repeated_calls_in_shuffled_order_do_not_change_the_plan(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        rng = np.random.default_rng(12)
        cases = [
            (cf_mae_objective(matrix, test, axis="user", k=4), len(matrix.item_ids),
             lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
            (cf_mae_objective(matrix, test, axis="item", k=4, min_overlap=1), len(matrix.user_ids),
             lambda w: similarity_matrix(matrix, "item", "pearson", weights=w, min_overlap=1)),
            (fuzzy_mae_objective(matrix, profiles, test, k=4), len(train.genre_universe()),
             lambda w: fuzzy_similarity_matrix(profiles, w)),
        ]
        for objective, d, fresh in cases:
            weights = [random_weights(rng, d) for _ in range(5)]
            want = [loop_sample_mae(matrix, fresh(w), test, 4) for w in weights]
            for i in np.concatenate([rng.permutation(5) for _ in range(3)]).tolist():
                assert objective(weights[i]) == want[i]

    def test_gather_and_positions_run_once_per_objective(self, monkeypatch, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        calls = {"gather": 0, "pairs": 0, "positions": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cf, "_corated_blocks", counted("gather", cf._corated_blocks))
        monkeypatch.setattr(optimize, "_pair_blocks", counted("pairs", optimize._pair_blocks))
        monkeypatch.setattr(optimize, "_targets", counted("positions", optimize._targets))
        objective = cf_mae_objective(matrix, test, axis="user")
        for _ in range(4):
            objective(random_weights(np.random.default_rng(0), len(matrix.item_ids)))
        assert calls == {"gather": 1, "pairs": 0, "positions": 1}
        objective = fuzzy_mae_objective(matrix, profiles, test)
        for _ in range(4):
            objective(np.ones(len(train.genre_universe())))
        assert calls == {"gather": 1, "pairs": 1, "positions": 2}


class TestRaterPlans:
    """Each objective gathers the raters of its sample once, from its own
    co-counts; every call must equal the per-rating loop, with ==."""

    def test_every_k_and_min_overlap_on_both_axes_and_fuzzy(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=6)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        n_genres = len(train.genre_universe())
        rng = np.random.default_rng(14)
        for k in (1, 4, 20):
            for axis, d in (("user", len(matrix.item_ids)), ("item", len(matrix.user_ids))):
                for min_overlap in range(4):
                    objective = cf_mae_objective(matrix, test, axis=axis, k=k, min_overlap=min_overlap)
                    w = random_weights(rng, d)
                    sim = similarity_matrix(matrix, axis, "pearson", weights=w, min_overlap=min_overlap)
                    assert objective(w) == loop_sample_mae(matrix, sim, test, k)
            w = random_weights(rng, n_genres)
            want = loop_sample_mae(matrix, fuzzy_similarity_matrix(profiles, w), test, k)
            assert fuzzy_mae_objective(matrix, profiles, test, k=k)(w) == want

    @pytest.mark.parametrize("cells", [1, 5, 23])
    def test_blocks_of_raters_do_not_change_bits(self, monkeypatch, cells, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=3)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        rng = np.random.default_rng(cells)
        w, g = random_weights(rng, len(matrix.item_ids)), random_weights(rng, len(train.genre_universe()))
        want = loop_sample_mae(matrix, similarity_matrix(matrix, "user", "pearson", weights=w), test, 6)
        want_fuzzy = loop_sample_mae(matrix, fuzzy_similarity_matrix(profiles, g), test, 6)
        monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
        assert cf_mae_objective(matrix, test, axis="user", k=6)(w) == want
        assert fuzzy_mae_objective(matrix, profiles, test, k=6)(g) == want_fuzzy

    def test_gather_runs_once_and_is_not_mutated(self, monkeypatch, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        gathered = []

        def counted(*args, **kwargs):
            blocks = list(cf._raters(*args, **kwargs))
            gathered.append([(g, [np.copy(f) for f in g]) for _, _, g in blocks])
            return blocks

        monkeypatch.setattr(optimize, "_raters", counted)
        rng = np.random.default_rng(21)
        cases = [
            (cf_mae_objective(matrix, test, axis="user", k=4), len(matrix.item_ids),
             lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
            (fuzzy_mae_objective(matrix, profiles, test, k=4), len(train.genre_universe()),
             lambda w: fuzzy_similarity_matrix(profiles, w)),
        ]
        assert len(gathered) == 2
        for objective, d, fresh in cases:
            weights = [random_weights(rng, d) for _ in range(4)]
            want = [loop_sample_mae(matrix, fresh(w), test, 4) for w in weights]
            for i in np.concatenate([rng.permutation(4) for _ in range(3)]).tolist():
                assert objective(weights[i]) == want[i]
        assert len(gathered) == 2
        for blocks in gathered:
            for held, copies in blocks:
                assert all(np.array_equal(f, c) for f, c in zip(held, copies))


class TestObjectives:
    def test_cf_objective_uniform_equals_plain_mae(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        objective = cf_mae_objective(matrix, test, axis="user", k=20)
        sim = similarity_matrix(matrix, "user", "pearson")
        manual = sum(
            abs(predict_rating(matrix, sim, r.user_id, r.movie_id, 20).value - r.value)
            for r in test
        ) / len(test)
        assert objective(np.ones(len(matrix.item_ids))) == pytest.approx(manual, abs=1e-9)

    def test_empty_validation_rejected(self, fixture_catalog):
        matrix = build_rating_matrix(fixture_catalog)
        with pytest.raises(CinefuseError, match="empty validation"):
            cf_mae_objective(matrix, [], axis="user")

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, fixture_catalog, k):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        with pytest.raises(CinefuseError, match=f"k must be >= 1, got {k}"):
            cf_mae_objective(matrix, test, axis="user", k=k)
        with pytest.raises(CinefuseError, match=f"k must be >= 1, got {k}"):
            fuzzy_mae_objective(matrix, profiles, test, k=k)

    def test_fuzzy_objective_runs(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        genres = train.genre_universe()
        objective = fuzzy_mae_objective(matrix, profiles, test, k=20)
        value = objective(np.ones(len(genres)))
        assert value >= 0.0

    def test_fuzzy_objective_checks_profiles_once_and_weights_each_call(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        n_genres = len(train.genre_universe())
        objective = fuzzy_mae_objective(matrix, profiles, test, k=20)
        with pytest.raises(CinefuseError, match="length"):
            objective(np.ones(n_genres + 1))
        with pytest.raises(CinefuseError, match="negative"):
            objective(-np.ones(n_genres))
        uid = next(iter(profiles))
        profiles[uid] = FuzzyProfile(uid, (("other", 0.5),) + profiles[uid].memberships[1:])
        with pytest.raises(CinefuseError, match="genre universe"):
            fuzzy_mae_objective(matrix, profiles, test, k=20)

    def test_validation_cap_subsamples_deterministically(self, fixture_catalog, monkeypatch):
        train, test = train_test_split(fixture_catalog, 0.4, seed=1)
        matrix = build_rating_matrix(train)
        monkeypatch.setattr(optimize, "VALIDATION_CAP", 5)
        monkeypatch.setattr(optimize, "VALIDATION_CAP_SEED", 3)
        obj_a = cf_mae_objective(matrix, test, axis="user")
        obj_b = cf_mae_objective(matrix, test, axis="user")
        w = np.ones(len(matrix.item_ids))
        assert obj_a(w) == obj_b(w)
        sample = [test[i] for i in sorted(np.random.default_rng(3).choice(len(test), size=5, replace=False))]
        assert obj_a(w) == loop_sample_mae(matrix, similarity_matrix(matrix, "user", "pearson", w), sample, 20)
