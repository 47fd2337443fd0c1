"""PSO/GA weight optimization, fuzzy profiles, and MAE objectives."""

from dataclasses import replace

import numpy as np
import pytest

from cinefuse import cf, optimize
from cinefuse.catalog import Movie, Rating, RatingColumns, train_test_split
from cinefuse.cf import _plan, build_rating_matrix, predict_rating, similarity_matrix
from cinefuse.errors import CinefuseError, DataFormatError
from cinefuse.optimize import (
    FuzzyProfiles,
    GAConfig,
    SwarmConfig,
    WeightVector,
    _fuzzy_plan,
    _objective,
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
            GAConfig(elitism=40, population=40)
        with pytest.raises(CinefuseError):
            GAConfig(generations=0)


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(CinefuseError):
            WeightVector((1.0, -0.2), "ga")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(CinefuseError, match="weights must be finite"):
            WeightVector((1.0, bad), "ga")

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_load_rejects_non_finite_weight_with_file_and_line(self, tmp_path, bad):
        path = tmp_path / "w.txt"
        path.write_text(f"# provenance=ga seed=1 objective=0.5\n1.0\n\n{bad}\n0.5\n")
        with pytest.raises(DataFormatError, match=rf"w\.txt, line 4: non-finite weight '{bad}'"):
            load_weights(path)

    def test_load_accepts_negative_zero(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance=ga seed=1 objective=0.5\n-0.0\n0.5\n")
        assert load_weights(path)[0].values == (-0.0, 0.5)

    def test_header_token_without_equals_names_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# provenance seed=1 objective=0.5\n1.0\n")
        with pytest.raises(CinefuseError, match="w.txt"):
            load_weights(path)


def fuzzy_similarity(da, db, weights):
    """Scalar weighted fuzzy Jaccard of two degree rows: sum(w*min) /
    sum(w*max) clamped into [0, 1], and 1 for a zero denominator."""
    w = np.asarray(weights, dtype=float)
    num = float((w * np.minimum(da, db)).sum())
    den = float((w * np.maximum(da, db)).sum())
    if den == 0.0:
        return 1.0
    return min(1.0, max(0.0, num / den))


def loop_fuzzy_similarity_matrix(profiles, weights):
    """The per-pair loop fuzzy_similarity_matrix used before it was
    vectorised; the kernel must reproduce its values bit for bit."""
    n = len(profiles.user_ids)
    values = np.zeros((n, n))
    co = np.zeros((n, n), dtype=np.int64)
    degs = list(profiles.degrees)
    for i in range(n):
        values[i, i] = 1.0
        co[i, i] = int(np.count_nonzero(degs[i]))
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = fuzzy_similarity(degs[i], degs[j], weights)
            co[i, j] = co[j, i] = int(np.count_nonzero(np.minimum(degs[i], degs[j])))
    return values, co


def random_profiles(rng, n_users, n_genres):
    genres = tuple(f"g{t:03d}" for t in range(n_genres))
    rows = {}
    for uid in rng.permutation(np.arange(1, 3 * n_users))[:n_users]:
        # a share of exact zeros, and some users with no support at all
        degrees = rng.uniform(0.0, 1.0, size=n_genres) * (rng.uniform(size=n_genres) < 0.6)
        if rng.uniform() < 0.1:
            degrees[:] = 0.0
        rows[int(uid)] = degrees
    ids = tuple(sorted(rows))
    return FuzzyProfiles(ids, genres, np.array([rows[u] for u in ids]).reshape(len(ids), n_genres))


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

    def test_weights_and_shape_validated(self):
        profiles = random_profiles(np.random.default_rng(1), 4, 3)
        with pytest.raises(CinefuseError, match="length"):
            fuzzy_similarity_matrix(profiles, [1.0, 1.0])
        with pytest.raises(CinefuseError, match="negative"):
            fuzzy_similarity_matrix(profiles, [1.0, -1.0, 1.0])
        with pytest.raises(CinefuseError, match=r"degrees of shape \(4, 3\) for 5 users and 3 genres"):
            FuzzyProfiles(profiles.user_ids + (99,), profiles.genres, profiles.degrees)
        with pytest.raises(CinefuseError, match=r"degrees of shape \(4, 3\) for 4 users and 2 genres"):
            FuzzyProfiles(profiles.user_ids, profiles.genres[:2], profiles.degrees)


def loop_build_fuzzy_profiles(catalog):
    """build_fuzzy_profiles as it was before np.bincount: one list of
    ratings per (user, genre), summed in catalog order, as (user ids,
    genres, degree rows). The profiles must equal it exactly."""
    genres = catalog.genre_universe()
    sums = {}
    for r in catalog.ratings:
        per_user = sums.setdefault(r.user_id, {})
        for g in catalog.movies[r.movie_id].genres:
            per_user.setdefault(g, []).append(r.value)
    rows = []
    for uid in sorted(sums):
        row = []
        for g in genres:
            vals = sums[uid].get(g)
            row.append((sum(vals) / len(vals)) / catalog.scale.max if vals else 0.0)
        rows.append(row)
    return tuple(sorted(sums)), tuple(genres), rows


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
            assert (got.user_ids, got.genres, got.degrees.tolist()) == loop_build_fuzzy_profiles(catalog)
            assert got.degrees.dtype == np.float64
        profiles = build_fuzzy_profiles(genreless)
        assert set(profiles.degrees[profiles.user_ids.index(9)].tolist()) == {0.0}

    def test_membership_is_scaled_genre_mean(self):
        profiles = build_fuzzy_profiles(tiny_catalog())
        degree = dict(zip(profiles.genres, profiles.degrees[profiles.user_ids.index(1)].tolist()))
        # user 1 rated Drama movies 1 (4.0) and 2 (3.0): mean 3.5 -> 0.7
        assert degree["Drama"] == pytest.approx(3.5 / 5.0)
        # user 1 rated the single Sci-Fi movie 3 at 5.0 -> 1.0
        assert degree["Sci-Fi"] == pytest.approx(1.0)
        # user 1 never rated a Romance movie
        assert degree["Romance"] == 0.0

    def test_profiles_span_genre_universe(self):
        cat = tiny_catalog()
        profiles = build_fuzzy_profiles(cat)
        assert profiles.user_ids == (1, 2, 3)
        assert profiles.genres == tuple(cat.genre_universe())
        assert profiles.degrees.shape == (3, len(profiles.genres))
        assert np.all(profiles.degrees >= 0.0) and np.all(profiles.degrees <= 1.0)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_degree_rejected(self, bad):
        degrees = np.array([[0.6, 0.2], [0.3, 0.8]])
        degrees[1, 0] = bad
        with pytest.raises(CinefuseError, match=rf"degree {bad!r} of user 7 in genre 'Action' is negative or not finite"):
            FuzzyProfiles((3, 7), ("Action", "Drama"), degrees)

    def test_degrees_above_one_and_negative_zero_accepted(self):
        profiles = FuzzyProfiles((1, 2), ("Action", "Drama"), np.array([[1.5, -0.0], [0.3, 0.0]]))
        assert fuzzy_similarity_matrix(profiles, [1.0, 1.0]).co_counts.tolist() == [[1, 1], [1, 1]]

    def test_fuzzy_similarity_identity_and_bounds(self):
        profiles = FuzzyProfiles((1, 2), ("Action", "Drama"), np.array([[0.6, 0.2], [0.3, 0.8]]))
        values = fuzzy_similarity_matrix(profiles, [1.0, 1.0]).values
        s_ab = values[0, 1]
        assert 0.0 <= s_ab <= 1.0
        assert values[0, 0] == values[1, 1] == 1.0
        expect = (min(0.6, 0.3) + min(0.2, 0.8)) / (max(0.6, 0.3) + max(0.2, 0.8))
        assert s_ab == pytest.approx(expect)

    def test_both_zero_profiles_count_identical(self):
        profiles = FuzzyProfiles((1, 2), ("Action",), np.zeros((2, 1)))
        assert fuzzy_similarity_matrix(profiles, [1.0]).values[0, 1] == 1.0

    def test_weight_length_mismatch_rejected(self):
        profiles = FuzzyProfiles((1,), ("Action",), np.array([[0.5]]))
        with pytest.raises(CinefuseError, match="length"):
            fuzzy_similarity_matrix(profiles, [1.0, 2.0])

    def test_similarity_matrix_shape_and_co_counts(self):
        cat = tiny_catalog()
        profiles = build_fuzzy_profiles(cat)
        genres = cat.genre_universe()
        sim = fuzzy_similarity_matrix(profiles, np.ones(len(genres)))
        assert sim.metric == "fuzzy"
        assert sim.values.shape == (3, 3)
        assert np.all(np.diag(sim.values) == 1.0)
        da, db = profiles.degrees[0], profiles.degrees[1]
        shared = int(np.count_nonzero(np.minimum(da, db)))
        assert sim.co_counts[0, 1] == shared


def loop_sample_mae(matrix, sim, sample, k):
    """The objectives' MAE as it was before predict_many: one predict_rating
    per rating, summed left to right. The objectives must match it bit for
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
            profiles = build_fuzzy_profiles(train)
            cases = [
                ("user", lambda: _plan(matrix, "user", "pearson", 2), len(matrix.item_ids),
                 lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
                ("item", lambda: _plan(matrix, "item", "pearson", 2), len(matrix.user_ids),
                 lambda w: similarity_matrix(matrix, "item", "pearson", weights=w)),
                ("user", lambda: _fuzzy_plan(profiles), len(profiles.genres),
                 lambda w: fuzzy_similarity_matrix(profiles, w)),
            ]
            for axis, plan, d, fresh in cases:
                w = rng.uniform(0.0, 2.0, d)
                sim = fresh(w)
                for k in (1, 4, 20):
                    objective = _objective(matrix, axis, plan, RatingColumns.of(test), k)
                    assert objective(w) == loop_sample_mae(matrix, sim, test, k)

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
                genres = tuple(f"g{t}" for t in range(n_genres))
                degrees = np.array([random_weights(rng, n_genres) for _ in matrix.user_ids])
                profiles = FuzzyProfiles(matrix.user_ids, genres, degrees)
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
        calls = {"co": 0, "positions": 0, "raters": 0, "gather": 0, "all pairs": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cf, "_co_counts", counted("co", cf._co_counts))
        monkeypatch.setattr(optimize, "_co_counts", cf._co_counts)
        monkeypatch.setattr(cf, "_targets", counted("positions", cf._targets))
        monkeypatch.setattr(cf, "_raters", counted("raters", cf._raters))
        monkeypatch.setattr(cf, "_corated_blocks", counted("gather", cf._corated_blocks))
        monkeypatch.setattr(cf, "_fill", counted("all pairs", cf._fill))
        monkeypatch.setattr(optimize, "_fill", cf._fill)
        objective = cf_mae_objective(matrix, test, axis="user")
        for _ in range(4):
            objective(random_weights(np.random.default_rng(0), len(matrix.item_ids)))
        assert calls == {"co": 1, "positions": 1, "raters": 1, "gather": 1, "all pairs": 0}
        objective = fuzzy_mae_objective(matrix, profiles, test)
        for _ in range(4):
            objective(np.ones(len(train.genre_universe())))
        assert calls == {"co": 2, "positions": 2, "raters": 2, "gather": 1, "all pairs": 0}

    def test_ids_looked_up_once_per_build(self, monkeypatch, fixture_catalog):
        # one _positions call for the pairs' users and one for their movies;
        # a target's similarity position is its matrix position, since these
        # plans' ids are the matrix axis ids
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        looked_up = []

        def counted(index, ids, what, positions=cf._positions):
            looked_up.append(what)
            return positions(index, ids, what)

        monkeypatch.setattr(cf, "_positions", counted)
        for build in (
            lambda: cf_mae_objective(matrix, test, axis="user"),
            lambda: cf_mae_objective(matrix, test, axis="item"),
            lambda: fuzzy_mae_objective(matrix, profiles, test),
        ):
            looked_up.clear()
            objective = build()
            assert looked_up == ["user", "movie"]
            objective(None)
            assert looked_up == ["user", "movie"]

    def test_objectives_past_the_held_cells_walk_raters_on_each_call(self, monkeypatch, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        rng = np.random.default_rng(22)
        cases = [
            (lambda: cf_mae_objective(matrix, test, axis="user", k=4), len(matrix.item_ids),
             lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
            (lambda: cf_mae_objective(matrix, test, axis="item", k=4), len(matrix.user_ids),
             lambda w: similarity_matrix(matrix, "item", "pearson", weights=w)),
            (lambda: fuzzy_mae_objective(matrix, profiles, test, k=4), len(profiles.genres),
             lambda w: fuzzy_similarity_matrix(profiles, w)),
        ]
        runs = []
        for build, d, fresh in cases:
            weights = [random_weights(rng, d) for _ in range(3)]
            runs.append((build, weights, [loop_sample_mae(matrix, fresh(w), test, 4) for w in weights]))
        walks = []

        def counted(*args, raters=cf._raters):
            walks.append(1)
            return raters(*args)

        monkeypatch.setattr(cf, "_HELD_CELLS", 0)
        monkeypatch.setattr(cf, "_raters", counted)
        for build, weights, want in runs:
            walks.clear()
            objective = build()
            assert [objective(w) for w in weights] == want
            assert len(walks) == 1 + len(weights)

    def test_calls_build_no_n_by_n_similarity(self, monkeypatch, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=5)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        rng = np.random.default_rng(31)
        cases = [
            (cf_mae_objective(matrix, test, axis="user", k=4), len(matrix.item_ids),
             lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
            (cf_mae_objective(matrix, test, axis="item", k=4), len(matrix.user_ids),
             lambda w: similarity_matrix(matrix, "item", "pearson", weights=w)),
            (fuzzy_mae_objective(matrix, profiles, test, k=4), len(profiles.genres),
             lambda w: fuzzy_similarity_matrix(profiles, w)),
        ]
        runs = []
        for objective, d, fresh in cases:
            w = random_weights(rng, d)
            runs.append((objective, w, loop_sample_mae(matrix, fresh(w), test, 4)))

        def refuse(*args, **kwargs):
            raise AssertionError("n x n similarity built")

        monkeypatch.setattr(cf, "_fill", refuse)
        monkeypatch.setattr(cf, "_by_rank", refuse)
        monkeypatch.setattr(optimize, "_fill", refuse)
        for objective, w, want in runs:
            assert objective(w) == want

    @staticmethod
    def read_pairs(matrix, axis, co, sample, min_overlap):
        """The distinct pairs (i, j), i < j, of a target and an eligible
        rater of a sample rating's other entity with co[i, j] >= min_overlap,
        one rating at a time."""
        pairs, rated = set(), ~np.isnan(matrix.values)
        for r in sample:
            u, m = matrix.user_index[r.user_id], matrix.item_index[r.movie_id]
            target, raters = (u, np.flatnonzero(rated[:, m])) if axis == "user" else (m, np.flatnonzero(rated[u]))
            for v in raters.tolist():
                if v != target and co[target, v] > 0 and co[target, v] >= min_overlap:
                    pairs.add((min(target, v), max(target, v)))
        return pairs

    def test_plan_gathers_the_read_pairs_alone(self, monkeypatch, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.3, seed=4)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        gathered = []

        def recorded(a, metric, i, j, counts, hold):
            gathered.append((i.tolist(), j.tolist(), counts.tolist()))
            return cf_gather(a, metric, i, j, counts, hold)

        def recorded_fuzzy(profiles):
            plan = fuzzy_plan(profiles)

            def recorded_gather(i, j, counts, hold):
                gathered.append((i.tolist(), j.tolist(), counts.tolist()))
                return plan.gather(i, j, counts, hold)

            return plan._replace(gather=recorded_gather)

        cf_gather, fuzzy_plan = cf._gather, optimize._fuzzy_plan
        monkeypatch.setattr(cf, "_gather", recorded)
        monkeypatch.setattr(optimize, "_fuzzy_plan", recorded_fuzzy)
        for axis in ("user", "item"):
            rated = (~np.isnan(matrix.values)).astype(int)
            co = rated.T @ rated if axis == "item" else rated @ rated.T
            for min_overlap in (1, 2, 3):
                gathered.clear()
                cf_mae_objective(matrix, test, axis=axis, min_overlap=min_overlap)
                [(i, j, counts)] = gathered
                pairs = list(zip(zip(i, j), counts))
                want = self.read_pairs(matrix, axis, co, test, min_overlap)
                assert len(pairs) == len(want) and {p for p, _ in pairs} == want
                assert [c for _, c in pairs] == [co[p] for p, _ in pairs] == sorted(c for _, c in pairs)
                if min_overlap == 2:
                    # the sample reads some pairs, and fewer than the similarity holds
                    assert 0 < len(want) < np.count_nonzero(np.triu(co >= min_overlap, 1))
        gathered.clear()
        fuzzy_mae_objective(matrix, profiles, test)
        [(i, j, counts)] = gathered
        support = (profiles.degrees > 0).astype(int)
        co = support @ support.T
        want = self.read_pairs(matrix, "user", co, test, 0)
        assert len(i) == len(want) and set(zip(i, j)) == want
        assert counts == [co[p] for p in zip(i, j)] == sorted(counts)
        assert 0 < len(want) < len(profiles.user_ids) * (len(profiles.user_ids) - 1) // 2

    def test_ids_in_any_order_rank_ties_by_id(self):
        # ids with gaps (a matrix's ids ascend), profiles listing users in
        # another order (some not at all), and coarse values that make many
        # equal similarities: the order among equals, by id, decides which k
        # raters count
        rng = np.random.default_rng(1209)
        for _ in range(8):
            n_users, n_items = (int(v) for v in rng.integers(4, 16, size=2))
            matrix, held = random_split(rng, n_users, n_items, rng.uniform(0.3, 0.9))
            user_ids = tuple(np.sort(rng.permutation(np.arange(1, 3 * n_users))[:n_users]).tolist())
            item_ids = tuple(np.sort(rng.permutation(np.arange(500, 500 + 3 * n_items))[:n_items]).tolist())
            new_user, new_item = dict(zip(matrix.user_ids, user_ids)), dict(zip(matrix.item_ids, item_ids))
            matrix = replace(matrix, user_ids=user_ids, item_ids=item_ids, values=np.round(matrix.values))
            held = [Rating(new_user[r.user_id], new_item[r.movie_id], r.value) for r in held]
            for axis, d in (("user", n_items), ("item", n_users)):
                for k in (1, 3):
                    objective = cf_mae_objective(matrix, held, axis=axis, k=k)
                    for w in (np.ones(d), random_weights(rng, d)):
                        sim = similarity_matrix(matrix, axis, "pearson", weights=w)
                        assert objective(w) == loop_sample_mae(matrix, sim, held, k)
            users = rng.permutation(n_users)[: int(rng.integers(2, n_users + 1))]
            degrees = rng.integers(0, 3, size=(users.size, 3)) / 2.0
            profiles = FuzzyProfiles(tuple(user_ids[u] for u in users.tolist()), ("a", "b", "c"), degrees)
            held = [r for r in held if r.user_id in profiles.user_ids]
            for k in (1, 2, 5):
                if held:
                    objective = fuzzy_mae_objective(matrix, profiles, held, k=k)
                    for w in (np.ones(3), random_weights(rng, 3)):
                        assert objective(w) == loop_sample_mae(matrix, fuzzy_similarity_matrix(profiles, w), held, k)


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

        def counted(*args, raters=cf._raters, **kwargs):
            blocks = list(raters(*args, **kwargs))
            gathered.append([(g, [np.copy(f) for f in g]) for _, _, g in blocks])
            return blocks

        rng = np.random.default_rng(21)
        # the loop's predictions run _raters too, so they are made first
        runs = []
        for d, fresh in (
            (len(matrix.item_ids), lambda w: similarity_matrix(matrix, "user", "pearson", weights=w)),
            (len(train.genre_universe()), lambda w: fuzzy_similarity_matrix(profiles, w)),
        ):
            weights = [random_weights(rng, d) for _ in range(4)]
            runs.append((weights, [loop_sample_mae(matrix, fresh(w), test, 4) for w in weights]))
        monkeypatch.setattr(cf, "_raters", counted)
        objectives = [
            cf_mae_objective(matrix, test, axis="user", k=4),
            fuzzy_mae_objective(matrix, profiles, test, k=4),
        ]
        assert len(gathered) == 2
        for objective, (weights, want) in zip(objectives, runs):
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

    def test_fuzzy_objective_checks_weights_each_call(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        n_genres = len(train.genre_universe())
        objective = fuzzy_mae_objective(matrix, profiles, test, k=20)
        with pytest.raises(CinefuseError, match="length"):
            objective(np.ones(n_genres + 1))
        with pytest.raises(CinefuseError, match="negative"):
            objective(-np.ones(n_genres))

    def test_profiles_with_another_genre_count_cannot_be_made(self, fixture_catalog):
        profiles = build_fuzzy_profiles(fixture_catalog)
        with pytest.raises(CinefuseError, match="degrees of shape"):
            replace(profiles, genres=profiles.genres + ("other",))

    def test_rating_absent_from_train_rejected_by_both_objectives(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)
        held = test + [Rating(999, matrix.item_ids[0], 3.0)]
        message = rf"validation rating \(999, {matrix.item_ids[0]}\) references entities absent from train"
        with pytest.raises(CinefuseError, match=message):
            cf_mae_objective(matrix, held, axis="user")
        with pytest.raises(CinefuseError, match=message):
            fuzzy_mae_objective(matrix, profiles, held)

    @pytest.mark.parametrize("bad", ["k", "empty", "absent"])
    def test_bad_arguments_rejected_before_any_plan_is_built(self, monkeypatch, fixture_catalog, bad):
        train, test = train_test_split(fixture_catalog, 0.2, seed=42)
        matrix = build_rating_matrix(train)
        profiles = build_fuzzy_profiles(train)

        def refuse(*args, **kwargs):
            raise AssertionError("plan built")

        monkeypatch.setattr(optimize, "_plan", refuse)
        monkeypatch.setattr(optimize, "_fuzzy_plan", refuse)
        k, held = (0, test) if bad == "k" else (20, [] if bad == "empty" else test + [Rating(999, 1, 3.0)])
        with pytest.raises(CinefuseError):
            cf_mae_objective(matrix, held, axis="user", k=k)
        with pytest.raises(CinefuseError):
            fuzzy_mae_objective(matrix, profiles, held, k=k)

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
