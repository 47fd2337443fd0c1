"""PSO/GA weight optimization, fuzzy profiles, and MAE objectives."""

import numpy as np
import pytest

from cinefuse import cf
from cinefuse.catalog import train_test_split
from cinefuse.cf import build_rating_matrix, predict_rating, similarity_matrix
from cinefuse.errors import CinefuseError
from cinefuse.optimize import (
    FuzzyProfile,
    GAConfig,
    SwarmConfig,
    WeightVector,
    _sample_mae,
    build_fuzzy_profiles,
    cf_mae_objective,
    fuzzy_mae_objective,
    fuzzy_similarity,
    fuzzy_similarity_matrix,
    ga_optimize,
    load_weights,
    pso_optimize,
    save_weights,
)

from conftest import tiny_catalog


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


class TestFuzzyProfiles:
    def test_membership_is_scaled_genre_mean(self):
        cat = tiny_catalog()
        profiles = build_fuzzy_profiles(cat)
        # user 1 rated Drama movies 1 (4.0) and 2 (3.0): mean 3.5 -> 0.7
        assert profiles[1].degree("Drama") == pytest.approx(3.5 / 5.0)
        # user 1 rated the single Sci-Fi movie 3 at 5.0 -> 1.0
        assert profiles[1].degree("Sci-Fi") == pytest.approx(1.0)
        # user 1 never rated a Romance movie
        assert profiles[1].degree("Romance") == 0.0

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
        w = [1.0, 1.0]
        s_ab = fuzzy_similarity(a, b, w)
        assert 0.0 <= s_ab <= 1.0
        assert fuzzy_similarity(a, a, w) == pytest.approx(1.0)
        expect = (min(0.6, 0.3) + min(0.2, 0.8)) / (max(0.6, 0.3) + max(0.2, 0.8))
        assert s_ab == pytest.approx(expect)

    def test_both_zero_profiles_count_identical(self):
        a = FuzzyProfile(1, (("Action", 0.0),))
        b = FuzzyProfile(2, (("Action", 0.0),))
        assert fuzzy_similarity(a, b, [1.0]) == 1.0

    def test_weight_length_mismatch_rejected(self):
        a = FuzzyProfile(1, (("Action", 0.5),))
        with pytest.raises(CinefuseError, match="length"):
            fuzzy_similarity(a, a, [1.0, 2.0])

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
    """_sample_mae as it was before predict_many: one predict_rating per
    rating, summed left to right. _sample_mae must match it bit for bit."""
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
                    assert _sample_mae(matrix, sim, test, k) == loop_sample_mae(matrix, sim, test, k)

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

    def test_validation_cap_subsamples_deterministically(self, fixture_catalog):
        train, test = train_test_split(fixture_catalog, 0.4, seed=1)
        matrix = build_rating_matrix(train)
        obj_a = cf_mae_objective(matrix, test, axis="user", validation_cap=5, cap_seed=3)
        obj_b = cf_mae_objective(matrix, test, axis="user", validation_cap=5, cap_seed=3)
        w = np.ones(len(matrix.item_ids))
        assert obj_a(w) == obj_b(w)
