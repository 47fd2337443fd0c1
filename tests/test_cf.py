"""Collaborative filtering: similarity, prediction, recommendation, implicit.

The similarity and prediction tests check against naive per-pair
reimplementations written with plain loops, over randomized matrices: to
1e-9 against scalar Python arithmetic, and bit for bit against the per-pair
numpy loops the vectorised kernels replaced.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cinefuse import cf
from cinefuse.catalog import ImplicitEvent, Rating, RatingScale
from cinefuse.cf import (
    SOURCE_EXPLICIT,
    SOURCE_IMPLICIT,
    RatingMatrix,
    SimilarityMatrix,
    augment_implicit,
    build_rating_matrix,
    predict_many,
    predict_rating,
    recommend_cf,
    similarity_matrix,
)
from cinefuse.errors import CinefuseError, UnknownEntityError
from cinefuse.optimize import FuzzyProfiles, fuzzy_similarity_matrix

from conftest import make_matrix, random_rating_matrix, tiny_catalog


def naive_pair(metric, row_a, row_b, weights, min_overlap):
    """Scalar reference for one pair of rating rows (NaN = missing)."""
    d = len(row_a)
    both = [t for t in range(d) if not math.isnan(row_a[t]) and not math.isnan(row_b[t])]
    if len(both) < min_overlap:
        return 0.0
    if metric == "pearson":
        sw = sum(weights[t] for t in both)
        if sw <= 0:
            return 0.0
        ma = sum(weights[t] * row_a[t] for t in both) / sw
        mb = sum(weights[t] * row_b[t] for t in both) / sw
        va = sum(weights[t] * (row_a[t] - ma) ** 2 for t in both)
        vb = sum(weights[t] * (row_b[t] - mb) ** 2 for t in both)
        if va <= 1e-15 or vb <= 1e-15:
            return 0.0
        cov = sum(weights[t] * (row_a[t] - ma) * (row_b[t] - mb) for t in both)
        s = cov / math.sqrt(va * vb)
    elif metric == "cosine":
        na = math.sqrt(sum(weights[t] * row_a[t] ** 2 for t in range(d) if not math.isnan(row_a[t])))
        nb = math.sqrt(sum(weights[t] * row_b[t] ** 2 for t in range(d) if not math.isnan(row_b[t])))
        if na == 0 or nb == 0:
            return 0.0
        s = sum(weights[t] * row_a[t] * row_b[t] for t in both) / (na * nb)
    else:
        union = [t for t in range(d) if not math.isnan(row_a[t]) or not math.isnan(row_b[t])]
        wu = sum(weights[t] for t in union)
        if wu == 0:
            return 0.0
        s = sum(weights[t] for t in both) / wu
    return min(1.0, max(-1.0, s))


def naive_predict(matrix, sim, axis, user_id, movie_id, k):
    """Reference weighted-deviation prediction.

    Neighbor similarities come from the (separately oracle-verified)
    similarity matrix; the eligibility rule, ordering, truncation, and
    deviation arithmetic are all re-derived here with scalar loops.
    """
    vals = matrix.values
    ui = matrix.user_index[user_id]
    mj = matrix.item_index[movie_id]
    rows = vals if axis == "user" else vals.T
    if axis == "user":
        pos, ids, means = ui, matrix.user_ids, matrix.user_means
    else:
        pos, ids, means = mj, matrix.item_ids, matrix.item_means
    d = rows.shape[1]
    scored = []
    for q, other in enumerate(ids):
        if q == pos:
            continue
        both = [
            t for t in range(d)
            if not math.isnan(rows[pos][t]) and not math.isnan(rows[q][t])
        ]
        if not both:
            continue
        scored.append((other, q, float(sim.values[pos, q])))
    scored.sort(key=lambda t: (-t[2], t[0]))
    if axis == "user":
        raters = [(other, q, s) for other, q, s in scored if not math.isnan(vals[q, mj])]
    else:
        raters = [(other, q, s) for other, q, s in scored if not math.isnan(vals[ui, q])]
    raters = raters[:k]
    base = float(means[pos])
    num = den = 0.0
    for _, q, s in raters:
        r = vals[q, mj] if axis == "user" else vals[ui, q]
        num += s * (float(r) - float(means[q]))
        den += abs(s)
    if not raters or den == 0.0:
        value, fallback = base, True
    else:
        value, fallback = base + num / den, False
    lo, hi = matrix.scale.min, matrix.scale.max
    return min(hi, max(lo, value)), fallback


def loop_pair_pearson(x, y, w):
    sw = w.sum()
    if sw <= 0.0:
        return 0.0
    xm = float((w * x).sum() / sw)
    ym = float((w * y).sum() / sw)
    dx, dy = x - xm, y - ym
    vx = float((w * dx * dx).sum())
    vy = float((w * dy * dy).sum())
    if vx <= 1e-15 or vy <= 1e-15:
        return 0.0
    return float((w * dx * dy).sum() / np.sqrt(vx * vy))


def loop_similarity(matrix, axis, metric, weights=None, min_overlap=2):
    """The per-pair numpy loop similarity_matrix used before it was
    vectorised; the kernel must reproduce its values bit for bit."""
    vals = matrix.values if axis == "user" else matrix.values.T
    n, d = vals.shape
    w = np.ones(d) if weights is None else np.asarray(weights, dtype=float)
    mask = ~np.isnan(vals)
    filled = np.where(mask, vals, 0.0)
    co = (mask.astype(np.int64) @ mask.astype(np.int64).T).astype(np.int64)
    sims = np.zeros((n, n))
    if metric == "cosine":
        norms = np.sqrt(((filled**2) * w).sum(axis=1))
    for i in range(n):
        for j in range(i + 1, n):
            if co[i, j] < min_overlap:
                continue
            both = mask[i] & mask[j]
            if metric == "pearson":
                s = loop_pair_pearson(vals[i][both], vals[j][both], w[both])
            elif metric == "cosine":
                denom = norms[i] * norms[j]
                s = float((w[both] * vals[i][both] * vals[j][both]).sum() / denom) if denom > 0 else 0.0
            else:
                union = mask[i] | mask[j]
                wu = float(w[union].sum())
                s = float(w[both].sum() / wu) if wu > 0 else 0.0
            sims[i, j] = sims[j, i] = s
    np.clip(sims, -1.0, 1.0, out=sims)
    np.fill_diagonal(sims, 1.0)
    return sims, co


def loop_eligible_sorted(sim, pos):
    out = []
    for j, other in enumerate(sim.ids):
        if j == pos or sim.co_counts[pos, j] <= 0:
            continue
        out.append((other, float(sim.values[pos, j])))
    out.sort(key=lambda t: (-t[1], t[0]))
    return out


def loop_predict(matrix, sim, user_id, movie_id, k):
    """The predictor before neighbor orders were cached: a Python sort of
    every row on every call. predict_rating must match it bit for bit."""
    ui = matrix.user_index[user_id]
    mj = matrix.item_index[movie_id]
    if sim.axis == "user":
        base = float(matrix.user_means[ui])
        index, means = matrix.user_index, matrix.user_means
        rating = lambda other: matrix.values[index[other], mj]  # noqa: E731
        pos = sim.index[user_id]
    else:
        base = float(matrix.item_means[mj])
        index, means = matrix.item_index, matrix.item_means
        rating = lambda other: matrix.values[ui, index[other]]  # noqa: E731
        pos = sim.index[movie_id]
    candidates = [(o, s) for o, s in loop_eligible_sorted(sim, pos) if not np.isnan(rating(o))][:k]
    num = den = 0.0
    for other, s in candidates:
        num += s * (float(rating(other)) - float(means[index[other]]))
        den += abs(s)
    if not candidates or den == 0.0:
        return matrix.scale.clamp(base), True
    return matrix.scale.clamp(base + num / den), False


def loop_build_rating_matrix(catalog):
    """build_rating_matrix as it was before it was vectorised: one cell write
    per rating, in catalog order. It must match it bit for bit."""
    user_ids = tuple(sorted({r.user_id for r in catalog.ratings}))
    item_ids = tuple(sorted({r.movie_id for r in catalog.ratings}))
    uix = {u: i for i, u in enumerate(user_ids)}
    mix = {m: j for j, m in enumerate(item_ids)}
    values = np.full((len(user_ids), len(item_ids)), np.nan)
    sources = np.zeros((len(user_ids), len(item_ids)), dtype=np.uint8)
    for r in catalog.ratings:
        values[uix[r.user_id], mix[r.movie_id]] = r.value
        sources[uix[r.user_id], mix[r.movie_id]] = SOURCE_EXPLICIT
    return user_ids, item_ids, values, sources


def scalar_pseudo_rating(scale, ev):
    """One event's pseudo-rating by the blend formula in scalar arithmetic."""
    raw = (
        cf.IMPLICIT_WATCH * (1.0 if ev.watched else 0.0)
        + cf.IMPLICIT_FRACTION * ev.watch_fraction
        + cf.IMPLICIT_FREQ * min(ev.watch_count, cf.IMPLICIT_FREQ_CAP) / cf.IMPLICIT_FREQ_CAP
    )
    return scale.clamp(scale.max * raw)


def loop_augment_implicit(matrix, events):
    """augment_implicit as it was before it was vectorised: one scalar
    pseudo-rating per event, the last per cell kept, then written cell by
    cell. It must match it bit for bit."""
    pseudo = {}
    for ev in events:
        pseudo[(ev.user_id, ev.movie_id)] = scalar_pseudo_rating(matrix.scale, ev)
    user_ids = tuple(sorted(set(matrix.user_ids) | {u for u, _ in pseudo}))
    item_ids = tuple(sorted(set(matrix.item_ids) | {m for _, m in pseudo}))
    uix = {u: i for i, u in enumerate(user_ids)}
    mix = {m: j for j, m in enumerate(item_ids)}
    values = np.full((len(user_ids), len(item_ids)), np.nan)
    sources = np.zeros((len(user_ids), len(item_ids)), dtype=np.uint8)
    old = np.ix_([uix[u] for u in matrix.user_ids], [mix[m] for m in matrix.item_ids])
    values[old] = matrix.values
    sources[old] = matrix.sources
    for (u, m), v in pseudo.items():
        if sources[uix[u], mix[m]] == SOURCE_EXPLICIT:
            continue
        values[uix[u], mix[m]] = v
        sources[uix[u], mix[m]] = SOURCE_IMPLICIT
    return user_ids, item_ids, values, sources


def half_step_matrix(rng, n_users, n_items, density):
    """Random half-step ratings; rows or columns may be empty."""
    rated = rng.uniform(size=(n_users, n_items)) < density
    values = np.where(rated, rng.integers(1, 11, size=(n_users, n_items)) / 2.0, np.nan)
    return make_matrix(values)


class TestRatingMatrixMeans:
    def test_empty_row_and_column_mean_nan(self):
        # np.nanmean's bits elsewhere, NaN (and no warning) where empty
        rng = np.random.default_rng(3)
        values = half_step_matrix(rng, 9, 11, 0.6).values
        values[4] = np.nan
        values[:, 7] = np.nan
        values[values == 2.5] += rng.uniform(0.0, 0.1, size=int((values == 2.5).sum()))  # inexact sums
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = make_matrix(values)
        for got, axis in ((matrix.user_means, 1), (matrix.item_means, 0)):
            empty = np.isnan(values).all(axis=axis)
            assert empty.sum() == 1 and np.isnan(got[empty]).all()
            with np.errstate(invalid="ignore"), pytest.warns(RuntimeWarning, match="Mean of empty slice"):
                want = np.nanmean(values, axis=axis)
            assert np.array_equal(got[~empty], want[~empty])


class TestSimilarityOracle:
    def test_random_matrices_all_metrics(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            matrix = random_rating_matrix(rng)
            for axis in ("user", "item"):
                rows = matrix.values if axis == "user" else matrix.values.T
                for metric in ("pearson", "cosine", "jaccard"):
                    sim = similarity_matrix(matrix, axis, metric)
                    n, d = rows.shape
                    ones = [1.0] * d
                    for i in range(n):
                        for j in range(n):
                            expect = 1.0 if i == j else naive_pair(
                                metric, list(rows[i]), list(rows[j]), ones, 2
                            )
                            assert sim.values[i, j] == pytest.approx(expect, abs=1e-9)

    def test_weighted_pearson_matches_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            matrix = random_rating_matrix(rng)
            d = matrix.values.shape[1]
            weights = rng.uniform(0.0, 2.0, size=d)
            sim = similarity_matrix(matrix, "user", "pearson", weights=weights)
            rows = matrix.values
            for i in range(rows.shape[0]):
                for j in range(rows.shape[0]):
                    if i == j:
                        continue
                    expect = naive_pair("pearson", list(rows[i]), list(rows[j]), list(weights), 2)
                    assert sim.values[i, j] == pytest.approx(expect, abs=1e-9)

    def test_all_ones_weights_equal_unweighted(self):
        rng = np.random.default_rng(5)
        matrix = random_rating_matrix(rng)
        d = matrix.values.shape[1]
        plain = similarity_matrix(matrix, "user", "pearson")
        weighted = similarity_matrix(matrix, "user", "pearson", weights=np.ones(d))
        assert np.allclose(plain.values, weighted.values, atol=1e-12)

    def test_min_overlap_zeroes_similarity(self):
        values = [
            [4.0, np.nan, np.nan],
            [4.0, 3.0, np.nan],
            [np.nan, 3.0, 2.0],
        ]
        matrix = make_matrix(values)
        sim = similarity_matrix(matrix, "user", "jaccard", min_overlap=2)
        assert sim.values[0, 1] == 0.0
        assert sim.co_counts[0, 1] == 1

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(77)
        matrix = random_rating_matrix(rng)
        for metric in ("pearson", "cosine", "jaccard"):
            sim = similarity_matrix(matrix, "item", metric)
            assert np.allclose(sim.values, sim.values.T)
            assert np.all(np.diag(sim.values) == 1.0)
            assert np.all(sim.values <= 1.0) and np.all(sim.values >= -1.0)

    def test_weight_validation(self):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        with pytest.raises(CinefuseError, match="length"):
            similarity_matrix(matrix, "user", "pearson", weights=[1.0])
        with pytest.raises(CinefuseError, match="negative"):
            similarity_matrix(matrix, "user", "pearson", weights=[1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        # a nan weight is not below 0, so only a finiteness check stops it
        matrix = make_matrix([[4.0, 3.0, 2.0], [3.5, 2.0, 4.0]])
        with pytest.raises(CinefuseError, match="non-finite weight"):
            similarity_matrix(matrix, "user", "pearson", weights=[1.0, bad, 1.0])
        with pytest.raises(CinefuseError, match="non-finite weight"):
            cf._weight_vector([bad, 1.0], 2)

    def test_zero_variance_pair_is_zero(self):
        values = [
            [3.0, 3.0, 3.0],
            [1.0, 4.5, 2.0],
        ]
        matrix = make_matrix(values)
        sim = similarity_matrix(matrix, "user", "pearson")
        assert sim.values[0, 1] == 0.0


class TestSimilarityBitwise:
    """The vectorised kernel against the per-pair loop, compared with
    np.array_equal: any change in the last bit of a similarity can reorder
    exactly tied neighbors."""

    def assert_matches_loop(self, matrix, axis, metric, weights=None, min_overlap=2):
        sim = similarity_matrix(matrix, axis, metric, weights=weights, min_overlap=min_overlap)
        values, co = loop_similarity(matrix, axis, metric, weights, min_overlap)
        assert np.array_equal(sim.values, values), (axis, metric, min_overlap)
        assert np.array_equal(sim.co_counts, co)

    def test_random_matrices_every_metric_and_weighting(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n_users, n_items = (int(v) for v in rng.integers(2, 31, size=2))
            matrix = half_step_matrix(rng, n_users, n_items, rng.uniform(0.1, 1.0))
            for axis, d in (("user", n_items), ("item", n_users)):
                # some zero weights, so a co-rated set can carry no weight at all
                weights = rng.uniform(0.0, 2.0, size=d) * (rng.uniform(size=d) < 0.8)
                for metric in ("pearson", "cosine", "jaccard"):
                    for w in (None, weights):
                        self.assert_matches_loop(matrix, axis, metric, w, int(rng.integers(0, 4)))

    def test_long_overlaps_cover_every_summation_regime(self):
        # co-rated sets below 8, from 8 to 128 and above 128 cells: numpy
        # sums each of these ranges with a different pairwise scheme
        rng = np.random.default_rng(77)
        wide = half_step_matrix(rng, 24, 300, 0.75)
        for axis, matrix in (("user", wide), ("item", make_matrix(wide.values.T))):
            co = similarity_matrix(matrix, axis, "jaccard").co_counts
            assert co[np.triu_indices(24, 1)].min() > 128
            weights = rng.uniform(0.0, 2.0, size=300)
            for metric in ("pearson", "cosine", "jaccard"):
                for w in (None, weights):
                    self.assert_matches_loop(matrix, axis, metric, w)
        sparse = half_step_matrix(rng, 30, 60, 0.35)
        counts = similarity_matrix(sparse, "user", "jaccard").co_counts[np.triu_indices(30, 1)]
        assert counts.min() < 8 <= counts.max()
        for metric in ("pearson", "cosine", "jaccard"):
            self.assert_matches_loop(sparse, "user", metric, rng.uniform(0.0, 2.0, size=60))

    def test_blocking_does_not_change_bits(self, monkeypatch):
        # blocks of a handful of pairs and of single rows must give the
        # same bits as one block holding every pair
        rng = np.random.default_rng(5)
        matrix = half_step_matrix(rng, 25, 40, 0.6)
        monkeypatch.setattr(cf, "_BLOCK_CELLS", 97)
        for axis in ("user", "item"):
            for metric in ("pearson", "cosine", "jaccard"):
                self.assert_matches_loop(matrix, axis, metric)


    @pytest.mark.parametrize("cells", [1, 5, 23])
    def test_cell_budgets_below_one_row(self, monkeypatch, cells):
        # one cell, a few cells, fewer cells than one row rates: every block
        # ends early, most hold a single pair
        rng = np.random.default_rng(cells)
        matrix = half_step_matrix(rng, 14, 40, 0.7)
        assert np.count_nonzero(~np.isnan(matrix.values), axis=1).min() > cells
        monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
        for axis, d in (("user", 40), ("item", 14)):
            weights = rng.uniform(0.0, 2.0, size=d)
            for metric in ("pearson", "cosine", "jaccard"):
                for w in (None, weights):
                    self.assert_matches_loop(matrix, axis, metric, w, int(rng.integers(0, 3)))

    def test_sparser_row_is_either_one(self, monkeypatch):
        # rows thin out down the matrix and thicken again, so some pairs
        # gather their co-rated cells from row i and others from row j
        rng = np.random.default_rng(17)
        density = np.concatenate((np.linspace(0.95, 0.1, 10), np.linspace(0.1, 0.95, 10)))
        rated = rng.uniform(size=(20, 50)) < density[:, None]
        matrix = make_matrix(np.where(rated, rng.integers(1, 11, size=(20, 50)) / 2.0, np.nan))
        counts = rated.sum(axis=1)
        i, j = np.triu_indices(20, 1)
        assert (counts[j] < counts[i]).any() and (counts[i] < counts[j]).any()
        weights = rng.uniform(0.0, 2.0, size=50)
        for cells in (7, 1 << 16):
            monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
            for metric in ("pearson", "cosine", "jaccard"):
                for w in (None, weights):
                    self.assert_matches_loop(matrix, "user", metric, w, 1)

    def test_empty_rows_and_pairs_sharing_nothing(self, monkeypatch):
        rng = np.random.default_rng(23)
        values = half_step_matrix(rng, 12, 15, 0.3).values
        values[[0, 5, 11]] = np.nan
        values[:, [2, 9]] = np.nan
        matrix = make_matrix(values)
        co = similarity_matrix(matrix, "user", "jaccard", min_overlap=0).co_counts
        assert (co[np.triu_indices(12, 1)] == 0).sum() > 12  # the empty rows' pairs and more
        for cells in (1, 1 << 16):
            monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
            for axis, d in (("user", 15), ("item", 12)):
                weights = rng.uniform(0.0, 2.0, size=d)
                for metric in ("pearson", "cosine", "jaccard"):
                    for w in (None, weights):
                        for min_overlap in (0, 1):
                            self.assert_matches_loop(matrix, axis, metric, w, min_overlap)

    def test_jaccard_union_is_every_cell_either_row_rated(self):
        # row 1 rates columns 0, 2, 3 and row 2 rates 1, 2, 4: the union is
        # columns 0-4, the co-rated set column 2; column 5 is unrated
        nan = np.nan
        matrix = make_matrix([[4.0, nan, 3.0, 2.0, nan, nan], [nan, 1.0, 5.0, nan, 2.5, nan]])
        w = np.array([0.5, 1.0, 2.0, 0.25, 0.125, 8.0])
        sim = similarity_matrix(matrix, "user", "jaccard", weights=w, min_overlap=1)
        assert sim.values[0, 1] == 2.0 / (0.5 + 1.0 + 2.0 + 0.25 + 0.125)
        self.assert_matches_loop(matrix, "user", "jaccard", w, 1)

    def test_stacked_row_sums_equal_one_dimensional_sums(self):
        # rows of fewer than 8, of 8 to 128 and of more than 128 cells, in
        # groups of one row and of many: every row of every stacked array
        # sums to the bits of its own 1-D sum
        rng = np.random.default_rng(31)
        counts = np.sort(
            np.concatenate((rng.integers(0, 8, 40), rng.integers(8, 129, 40), rng.integers(129, 400, 10), [1000]))
        )
        flat = rng.normal(size=(3, int(counts.sum())))
        got = cf._row_sums(flat, cf._groups(counts))
        ends = np.cumsum(counts)
        for row, (e, c) in enumerate(zip(ends.tolist(), counts.tolist())):
            for k in range(3):
                assert got[k, row] == flat[k, e - c : e].sum()


class TestSimilarityRow:
    """One entity's row from its own pairs against that row of the full
    matrix, compared with np.array_equal."""

    def assert_rows_equal(self, matrix, axis, metric, weights, min_overlap):
        sim = similarity_matrix(matrix, axis, metric, weights=weights, min_overlap=min_overlap)
        a = cf._axis(matrix, axis, metric, weights)
        for s in range(len(sim.ids)):
            row, co = cf._similarity_row(a, s, min_overlap)
            assert np.array_equal(row, sim.values[s]), (axis, metric, min_overlap, s)
            assert np.array_equal(co, sim.co_counts[s])

    def test_every_row_on_random_matrices(self):
        rng = np.random.default_rng(606)
        for _ in range(12):
            n_users, n_items = (int(v) for v in rng.integers(1, 16, size=2))
            matrix = half_step_matrix(rng, n_users, n_items, rng.uniform(0.05, 0.9))
            for axis, d in (("user", n_items), ("item", n_users)):
                # exact zeros, so a co-rated set can carry no weight at all
                weights = rng.uniform(0.0, 2.0, size=d) * (rng.uniform(size=d) < 0.8)
                for metric in ("pearson", "cosine", "jaccard"):
                    for w in (None, weights):
                        for min_overlap in range(4):
                            self.assert_rows_equal(matrix, axis, metric, w, min_overlap)

    def test_empty_rows_and_columns(self):
        rng = np.random.default_rng(607)
        values = half_step_matrix(rng, 10, 12, 0.5).values
        values[[0, 6]] = np.nan
        values[:, [3, 11]] = np.nan
        matrix = make_matrix(values)
        for axis, d in (("user", 12), ("item", 10)):
            weights = rng.uniform(0.0, 2.0, size=d) * (rng.uniform(size=d) < 0.7)
            for metric in ("pearson", "cosine", "jaccard"):
                for w in (None, weights):
                    for min_overlap in range(4):
                        self.assert_rows_equal(matrix, axis, metric, w, min_overlap)

    @pytest.mark.parametrize("cells", [1, 7])
    def test_blocks_of_one_row_do_not_change_bits(self, monkeypatch, cells):
        rng = np.random.default_rng(cells)
        matrix = half_step_matrix(rng, 14, 20, 0.6)
        monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
        for axis, d in (("user", 20), ("item", 14)):
            for metric in ("pearson", "cosine", "jaccard"):
                self.assert_rows_equal(matrix, axis, metric, rng.uniform(0.0, 2.0, size=d), 1)


class TestFlatCells:
    """cf._cells and cf._put, the one gather and scatter of matrix cells by
    flat position, against numpy's a[rows, cols] on the layouts the engine
    addresses: C-ordered arrays and F-ordered transposed views."""

    @staticmethod
    def layouts(rng, dtype):
        base = (rng.uniform(-5.0, 5.0, size=(6, 9)) * 4).astype(dtype)
        return {"C": base, "F": base.T}

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int32, np.uint8, np.bool_])
    @pytest.mark.parametrize("index", [np.int32, np.intp])
    def test_cells_equal_fancy_reads(self, dtype, index):
        rng = np.random.default_rng(11)
        for layout, a in self.layouts(rng, dtype).items():
            assert a.flags.c_contiguous == (layout == "C")
            rows = rng.integers(0, a.shape[0], size=40).astype(index)
            cols = rng.integers(0, a.shape[1], size=40).astype(index)
            got = cf._cells(a, rows, cols)
            assert got.dtype == a.dtype
            assert np.array_equal(got, a[rows, cols]), layout

    @pytest.mark.parametrize("index", [np.int32, np.intp])
    def test_put_equals_fancy_writes(self, index):
        rng = np.random.default_rng(12)
        for layout in ("C", "F"):
            ours, theirs = (self.layouts(np.random.default_rng(3), np.float64)[layout].copy(order="K") for _ in "ab")
            assert ours.flags.c_contiguous == (layout == "C")
            cells = rng.choice(ours.size, size=20, replace=False)
            rows, cols = (np.asarray(v, dtype=index) for v in np.unravel_index(cells, ours.shape))
            values = rng.uniform(size=20)
            cf._put(ours, rows, cols, values)
            theirs[rows, cols] = values
            assert np.array_equal(ours, theirs), layout

    def test_put_through_a_transposed_view_writes_the_matrix(self):
        matrix = np.zeros((4, 7))
        cf._put(matrix.T, np.array([6, 0]), np.array([1, 3]), np.array([2.5, -1.0]))
        expected = np.zeros((4, 7))
        expected[1, 6], expected[3, 0] = 2.5, -1.0
        assert np.array_equal(matrix, expected)

    def test_rows_broadcast_against_columns(self):
        # _rank_rows writes each row's permutation with the rows as a column
        # vector against the (rows, n) column orders
        ranks = np.full((3, 5), -1, dtype=np.int32)
        order = np.array([[4, 0, 1, 3, 2], [0, 1, 2, 3, 4], [2, 3, 4, 0, 1]])
        rows = np.arange(3)[:, None]
        cf._put(ranks, rows, order, np.arange(5, dtype=np.int32))
        expected = np.full((3, 5), -1, dtype=np.int32)
        expected[rows, order] = np.arange(5, dtype=np.int32)
        assert np.array_equal(ranks, expected)
        assert np.array_equal(cf._cells(ranks, rows, order), np.broadcast_to(np.arange(5), (3, 5)))

    @pytest.mark.parametrize("index", [np.int32, np.intp])
    def test_empty_index_arrays(self, index):
        rng = np.random.default_rng(13)
        empty = np.array([], dtype=index)
        for layout, a in self.layouts(rng, np.float64).items():
            got = cf._cells(a, empty, empty)
            assert got.shape == (0,) and got.dtype == a.dtype, layout
            before = a.copy()
            cf._put(a, empty, empty, np.array([]))
            assert np.array_equal(a, before), layout

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_positions_are_intp_so_int32_indices_cannot_wrap(self, layout):
        # a stride of 5,000 times an int32 index of 2**20 is past 2**31; the
        # positions are only computed here, never read
        a = np.zeros((3, 5000)) if layout == "C" else np.zeros((3, 5000)).T
        big = np.array([2**20], dtype=np.int32)
        small = np.array([7], dtype=np.int32)
        rows, cols = (big, small) if layout == "C" else (small, big)
        _, pos = cf._flat(a, rows, cols)
        assert pos.dtype == np.intp
        assert pos.tolist() == [2**20 * 5000 + 7]

    def test_non_contiguous_arrays_are_read_but_never_written(self):
        a = np.arange(48.0).reshape(6, 8)[::2, 1::3]
        rows, cols = np.array([0, 2, 1]), np.array([1, 0, 2])
        assert np.array_equal(cf._cells(a, rows, cols), a[rows, cols])
        with pytest.raises(ValueError, match="contiguous"):
            cf._put(a, rows, cols, 0.0)

    @pytest.mark.parametrize("axis", ["user", "item"])
    def test_axis_reads_the_matrix_buffer_without_a_transposed_copy(self, axis):
        matrix = random_rating_matrix(np.random.default_rng(14), 8, 9)
        a = cf._axis(matrix, axis)
        assert np.shares_memory(a.vals, matrix.values)
        flat, _ = cf._flat(a.vals, np.array([0]), np.array([0]))
        assert np.shares_memory(flat, matrix.values)
        # the rated mask keeps the matrix's layout, so it too is addressed
        # through the same strides
        assert a.mask.flags.c_contiguous == (axis == "user")
        assert a.mask.flags.f_contiguous == (axis == "item")
        expected = matrix.values if axis == "user" else matrix.values.T
        assert np.array_equal(a.vals, expected, equal_nan=True)


class TestNeighborOrder:
    def tied_sim(self):
        ids = (42, 7, 19, 3, 88, 11, 5, 60)
        values = np.zeros((8, 8))
        row = [1.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0]
        values[0] = values[:, 0] = row
        np.fill_diagonal(values, 1.0)
        co = np.full((8, 8), 3)
        co[0, 5] = co[5, 0] = 0  # no overlap: never a neighbor, whatever its score
        return SimilarityMatrix("user", "pearson", ids, values, co, 2)

    def test_exact_ties_break_by_ascending_id(self):
        sim = self.tied_sim()
        want = sorted(
            ((sim.ids[j], float(sim.values[0, j])) for j in range(1, 8) if sim.co_counts[0, j] > 0),
            key=lambda t: (-t[1], t[0]),
        )
        assert recommend_cf(sim, 42, 8) == want
        assert [o for o, _ in want] == [7, 88, 3, 60, 5, 19]
        assert recommend_cf(sim, 42, 3) == want[:3]

    def test_ties_from_ratings_match_python_sort(self):
        # shifted, reversed and constant rows give similarities of exactly
        # 1.0, -1.0 and 0.0 to user 1
        values = [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 3.0, 4.0, 5.0],
            [4.0, 3.0, 2.0, 1.0],
            [3.0, 3.0, 3.0, 3.0],
            [1.5, 2.5, 3.5, 4.5],
            [5.0, 4.0, 3.0, 2.0],
            [2.0, 2.0, np.nan, 2.0],
        ]
        matrix = make_matrix(values)
        sim = similarity_matrix(matrix, "user", "pearson")
        assert sorted(set(sim.values[0, 1:].tolist())) == [-1.0, 0.0, 1.0]
        for uid in matrix.user_ids:
            assert recommend_cf(sim, uid, 10) == loop_eligible_sorted(sim, sim.index[uid])


    @pytest.mark.parametrize("cells", [1, 7, 1 << 16])
    def test_padded_orders_equal_each_row_order(self, monkeypatch, cells):
        # the many-row neighbor sort (_rank_rows, in blocks of one row and of
        # many) and recommend_cf both give each row's loop order: hand
        # ties, rows with and without co-counts, ids out of order, and rows
        # asked for twice and in no order
        rng = np.random.default_rng(cells)
        sims = [self.tied_sim()]
        for _ in range(6):
            matrix = half_step_matrix(rng, int(rng.integers(1, 14)), int(rng.integers(1, 14)), rng.uniform(0.1, 0.9))
            for axis in ("user", "item"):
                sims.append(similarity_matrix(matrix, axis, "pearson", min_overlap=int(rng.integers(0, 4))))
        perm = rng.permutation(len(sims[-1].ids))
        sims.append(SimilarityMatrix(
            "item", "pearson", tuple(sims[-1].ids[p] for p in perm),
            sims[-1].values[np.ix_(perm, perm)], sims[-1].co_counts[np.ix_(perm, perm)], 0,
        ))
        monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
        for sim in sims:
            n = len(sim.ids)
            rows = np.concatenate((rng.permutation(n), rng.integers(0, n, size=3)))
            ranks = cf._rank_rows(sim.values, np.argsort(sim.ids), rows)
            assert ranks.shape == (rows.size, n)
            for rank, p in zip(ranks, rows.tolist()):
                want = loop_eligible_sorted(sim, p)
                order = [sim.index[o] for o, _ in want]
                assert sorted(rank.tolist()) == list(range(n))
                assert sorted(order, key=lambda j: rank[j]) == order
                assert recommend_cf(sim, sim.ids[p], n) == want
        assert cf._rank_rows(sims[1].values, np.argsort(sims[1].ids), np.array([], dtype=np.intp)).shape == (0, len(sims[1].ids))


class TestPredictionBitwise:
    def test_random_matrices_both_axes(self):
        rng = np.random.default_rng(8642)
        for _ in range(25):
            n_users, n_items = (int(v) for v in rng.integers(2, 16, size=2))
            matrix = half_step_matrix(rng, n_users, n_items, rng.uniform(0.2, 0.9))
            k = int(rng.integers(1, 8))
            for axis in ("user", "item"):
                sim = similarity_matrix(matrix, axis, "pearson", min_overlap=int(rng.integers(1, 3)))
                for uid in matrix.user_ids:
                    for mid in matrix.item_ids:
                        got = predict_rating(matrix, sim, uid, mid, k)
                        assert (got.value, got.fallback) == loop_predict(matrix, sim, uid, mid, k)

    def test_similarity_in_another_id_order(self):
        # a similarity whose rows are not in the matrix's order maps each
        # neighbor back by id and predicts the same bits
        rng = np.random.default_rng(31)
        matrix = random_rating_matrix(rng, 12, 12)
        for axis in ("user", "item"):
            sim = similarity_matrix(matrix, axis, "cosine", min_overlap=1)
            perm = rng.permutation(len(sim.ids))
            shuffled = SimilarityMatrix(
                axis, "cosine", tuple(sim.ids[p] for p in perm),
                sim.values[np.ix_(perm, perm)], sim.co_counts[np.ix_(perm, perm)], 1,
            )
            for uid in matrix.user_ids:
                for mid in matrix.item_ids:
                    got = predict_rating(matrix, shuffled, uid, mid, 3)
                    assert got == predict_rating(matrix, sim, uid, mid, 3)
                    assert (got.value, got.fallback) == loop_predict(matrix, shuffled, uid, mid, 3)
            assert_many_matches_loop(matrix, shuffled, *every_pair(matrix), 3)


def every_pair(matrix):
    """(user ids, movie ids) of every cell of the matrix, row after row."""
    users = [u for u in matrix.user_ids for _ in matrix.item_ids]
    return users, [m for _ in matrix.user_ids for m in matrix.item_ids]


def assert_many_matches_loop(matrix, sim, users, movies, k):
    values, fallback = predict_many(matrix, sim, users, movies, k)
    assert values.dtype == np.float64 and fallback.dtype == np.bool_
    assert values.shape == fallback.shape == (len(users),)
    for v, f, uid, mid in zip(values.tolist(), fallback.tolist(), users, movies):
        assert (v, f) == loop_predict(matrix, sim, uid, mid, k)
        got = predict_rating(matrix, sim, uid, mid, k)
        assert (got.value, got.fallback) == (v, f)


class TestPredictManyBitwise:
    def test_random_matrices_every_metric(self):
        rng = np.random.default_rng(2718)
        for _ in range(12):
            n_users, n_items = (int(v) for v in rng.integers(1, 14, size=2))
            # low densities leave rows and columns without ratings
            matrix = half_step_matrix(rng, n_users, n_items, rng.uniform(0.1, 0.9))
            for axis in ("user", "item"):
                for metric in ("pearson", "cosine", "jaccard"):
                    for min_overlap in (0, 1, 2):
                        sim = similarity_matrix(matrix, axis, metric, min_overlap=min_overlap)
                        k = int(rng.integers(1, 9))
                        assert_many_matches_loop(matrix, sim, *every_pair(matrix), k)

    def test_fuzzy_similarity(self):
        rng = np.random.default_rng(77)
        genres = [f"g{t}" for t in range(5)]
        for _ in range(10):
            matrix = half_step_matrix(rng, int(rng.integers(2, 14)), int(rng.integers(2, 14)), 0.5)
            degrees = np.array([rng.uniform(size=5) * (rng.uniform(size=5) < 0.6) for _ in matrix.user_ids])
            profiles = FuzzyProfiles(matrix.user_ids, tuple(genres), degrees)
            sim = fuzzy_similarity_matrix(profiles, rng.uniform(0.0, 2.0, size=5))
            for k in range(1, 9):
                assert_many_matches_loop(matrix, sim, *every_pair(matrix), k)

    def test_rows_without_ratings_clamp_to_scale_min(self):
        # a NaN mean falls back and clamps as min/max do: to scale.min
        nan = float("nan")
        matrix = make_matrix([[4.0, 3.0, nan], [nan, nan, nan], [3.5, 2.0, nan]])
        for axis, users, movies in (("user", [2, 2, 2], [101, 102, 103]), ("item", [1, 2, 3], [103, 103, 103])):
            sim = similarity_matrix(matrix, axis, "pearson", min_overlap=0)
            values, fallback = predict_many(matrix, sim, users, movies, 5)
            assert values.tolist() == [matrix.scale.min] * 3
            assert fallback.tolist() == [True] * 3
            assert_many_matches_loop(matrix, sim, *every_pair(matrix), 5)

    def test_repeated_unsorted_and_empty_pairs(self):
        rng = np.random.default_rng(12)
        matrix = half_step_matrix(rng, 8, 10, 0.5)
        sim = similarity_matrix(matrix, "user", "cosine", min_overlap=1)
        users, movies = every_pair(matrix)
        picks = rng.integers(0, len(users), size=3 * len(users))  # repeats, in no order
        assert_many_matches_loop(matrix, sim, [users[i] for i in picks], [movies[i] for i in picks], 3)
        values, fallback = predict_many(matrix, sim, [], [], 3)
        assert values.shape == fallback.shape == (0,)
        assert values.dtype == np.float64 and fallback.dtype == np.bool_

    def test_no_eligible_rater_and_all_zero_similarities_fall_back(self):
        # user 1 alone rated movie 103; user 4 shares no movie with anyone
        nan = float("nan")
        matrix = make_matrix([
            [4.0, 3.0, 5.0, nan],
            [3.5, 2.0, nan, nan],
            [2.0, 4.5, nan, nan],
            [nan, nan, nan, 1.0],
        ])
        sim = similarity_matrix(matrix, "user", "pearson", min_overlap=1)
        _, fallback = predict_many(matrix, sim, [1, 4, 4], [103, 101, 104], 3)
        assert fallback.tolist() == [True, True, True]
        for axis in ("user", "item"):
            sim = similarity_matrix(matrix, axis, "pearson", min_overlap=1)
            zero = SimilarityMatrix(axis, "pearson", sim.ids, np.zeros_like(sim.values), sim.co_counts, 1)
            assert predict_many(matrix, zero, *every_pair(matrix), 3)[1].all()
            for k in (1, 2, 5):
                assert_many_matches_loop(matrix, sim, *every_pair(matrix), k)
                assert_many_matches_loop(matrix, zero, *every_pair(matrix), k)

    def test_exact_ties_rank_by_id_in_any_id_order(self):
        # user 42's similarities tie exactly, and its similarity lists the
        # ids out of order: users 5 and 19 tie at -1.0 in the opposite
        # order to their positions
        sim = TestNeighborOrder().tied_sim()
        rng = np.random.default_rng(8)
        values = rng.integers(1, 11, size=(len(sim.ids), 5)) / 2.0
        matrix = RatingMatrix(
            tuple(sorted(sim.ids)), tuple(range(101, 106)), values, np.ones(values.shape, dtype=np.uint8), RatingScale()
        )
        for k in range(1, 9):
            assert_many_matches_loop(matrix, sim, *every_pair(matrix), k)

    def test_narrower_similarity_in_another_id_order(self):
        # raters the similarity lacks are skipped; its ids need not be the
        # matrix's nor in its order
        rng = np.random.default_rng(55)
        for _ in range(6):
            matrix = half_step_matrix(rng, 10, 9, rng.uniform(0.3, 0.8))
            for axis in ("user", "item"):
                full = similarity_matrix(matrix, axis, "cosine", min_overlap=1)
                sub = rng.permutation(len(full.ids))[: len(full.ids) - 3]
                narrower = SimilarityMatrix(
                    axis, "cosine", tuple(full.ids[p] for p in sub),
                    full.values[np.ix_(sub, sub)], full.co_counts[np.ix_(sub, sub)], 1,
                )
                pairs = [(u, m) for u, m in zip(*every_pair(matrix)) if (u if axis == "user" else m) in narrower.index]
                for k in (1, 3, 20):
                    assert_many_matches_loop(matrix, narrower, [u for u, _ in pairs], [m for _, m in pairs], k)

    @pytest.mark.parametrize("cells", [1, 5, 23])
    def test_blocking_does_not_change_bits(self, monkeypatch, cells):
        rng = np.random.default_rng(4)
        matrix = half_step_matrix(rng, 13, 12, 0.6)
        for axis in ("user", "item"):
            sim = similarity_matrix(matrix, axis, "pearson", min_overlap=1)
            pairs = every_pair(matrix)
            want = predict_many(matrix, sim, *pairs, 6)
            monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
            got = predict_many(matrix, sim, *pairs, 6)
            monkeypatch.undo()
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            monkeypatch.setattr(cf, "_BLOCK_CELLS", cells)
            assert_many_matches_loop(matrix, sim, *pairs, 6)
            monkeypatch.undo()

    def test_unknown_ids_name_the_id(self):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        sim = similarity_matrix(matrix, "user")
        with pytest.raises(UnknownEntityError, match="unknown user id 999"):
            predict_many(matrix, sim, [1, 999], [101, 101])
        with pytest.raises(UnknownEntityError, match="unknown movie id 998"):
            predict_many(matrix, sim, [1, 2], [101, 998])
        # the user is checked before the movie, as predict_rating does
        with pytest.raises(UnknownEntityError, match="unknown user id 999"):
            predict_many(matrix, sim, [999], [998])
        with pytest.raises(UnknownEntityError, match="unknown user id 999"):
            predict_rating(matrix, sim, 999, 998)

    def test_ids_missing_from_the_similarity_or_the_matrix_named(self):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0], [1.0, 5.0]])
        sim = similarity_matrix(make_matrix([[4.0, 3.0], [3.5, 2.0]]), "user")  # users 1 and 2
        with pytest.raises(UnknownEntityError, match="unknown similarity user id 3"):
            predict_many(matrix, sim, [1, 3], [101, 101])
        wider = similarity_matrix(matrix, "user")
        narrower = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        reordered = SimilarityMatrix("user", "pearson", (3, 2, 1), wider.values[::-1, ::-1], wider.co_counts[::-1, ::-1], 2)
        with pytest.raises(UnknownEntityError, match="unknown matrix user id 3"):
            predict_many(narrower, reordered, [1], [101])

    def test_pair_lists_of_different_lengths_rejected(self):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        sim = similarity_matrix(matrix, "user")
        with pytest.raises(CinefuseError, match="2 user ids but 1 movie ids"):
            predict_many(matrix, sim, [1, 2], [101])


class TestPredictionOracle:
    def test_random_matrices_both_axes(self):
        rng = np.random.default_rng(4321)
        for _ in range(40):
            matrix = random_rating_matrix(rng)
            k = int(rng.integers(1, 8))
            for axis in ("user", "item"):
                sim = similarity_matrix(matrix, axis, "pearson")
                for ui, uid in enumerate(matrix.user_ids):
                    for mj, mid in enumerate(matrix.item_ids):
                        got = predict_rating(matrix, sim, uid, mid, k)
                        want, want_fb = naive_predict(matrix, sim, axis, uid, mid, k)
                        assert got.value == pytest.approx(want, abs=1e-9)
                        assert got.fallback == want_fb
                        assert matrix.scale.min <= got.value <= matrix.scale.max

    def test_unknown_ids_raise(self):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        sim = similarity_matrix(matrix, "user")
        with pytest.raises(UnknownEntityError):
            predict_rating(matrix, sim, 999, 101)
        with pytest.raises(UnknownEntityError):
            predict_rating(matrix, sim, 1, 999)

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, k):
        matrix = make_matrix([[4.0, 3.0], [3.5, 2.0]])
        sim = similarity_matrix(matrix, "user")
        with pytest.raises(CinefuseError, match=f"k must be >= 1, got {k}"):
            predict_rating(matrix, sim, 1, 101, k)


class TestRecommendCF:
    def test_order_and_truncation(self):
        values = [
            [4.0, 3.0, 5.0, np.nan],
            [4.0, 3.0, 4.5, np.nan],
            [1.0, 4.0, 2.0, 3.0],
            [np.nan, np.nan, np.nan, 3.0],
        ]
        matrix = make_matrix(values)
        sim = similarity_matrix(matrix, "user", "pearson")
        out = recommend_cf(sim, 1, 2)
        assert len(out) == 2
        sims = [s for _, s in out]
        assert sims == sorted(sims, reverse=True)
        assert out == loop_eligible_sorted(sim, sim.index[1])[:2]

    def test_no_overlap_never_eligible(self):
        values = [
            [4.0, 3.0, np.nan],
            [np.nan, np.nan, 2.0],
        ]
        matrix = make_matrix(values)
        sim = similarity_matrix(matrix, "user", "pearson")
        assert recommend_cf(sim, 1, 5) == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_validation(self, fixture_catalog, n):
        sim_item = similarity_matrix(build_rating_matrix(fixture_catalog), "item", "pearson")
        with pytest.raises(CinefuseError, match=f"n must be >= 1, got {n}"):
            recommend_cf(sim_item, 1, n)

    def test_item_item_around_seed(self, fixture_catalog):
        matrix = build_rating_matrix(fixture_catalog)
        sim_item = similarity_matrix(matrix, "item", "pearson")
        out = recommend_cf(sim_item, 1, 10)
        assert len(out) == 10
        assert all(mid != 1 for mid, _ in out)
        keys = [(-s, mid) for mid, s in out]
        assert keys == sorted(keys)
        assert out == loop_eligible_sorted(sim_item, sim_item.index[1])[:10]

    def test_unknown_seed_rejected(self, fixture_catalog):
        sim_item = similarity_matrix(build_rating_matrix(fixture_catalog), "item", "pearson")
        with pytest.raises(UnknownEntityError):
            recommend_cf(sim_item, 999, 5)


def assert_matrix_equals(got, want):
    user_ids, item_ids, values, sources = want
    assert (got.user_ids, got.item_ids) == (user_ids, item_ids)
    assert all(type(i) is int for i in got.user_ids + got.item_ids)
    assert np.array_equal(got.values, values, equal_nan=True)
    assert np.array_equal(got.sources, sources)


class TestRatingMatrixBuild:
    def test_equals_per_rating_loop(self, fixture_catalog):
        assert_matrix_equals(build_rating_matrix(fixture_catalog), loop_build_rating_matrix(fixture_catalog))
        rng = np.random.default_rng(91)
        for _ in range(10):
            # ids in no order, gaps between them, and cells rated twice: the last wins
            n = int(rng.integers(1, 60))
            users, movies = rng.integers(1, 30, size=n) * 7, rng.integers(1, 40, size=n) * 3 + 1000
            ratings = [
                Rating(int(u), int(m), float(rng.integers(1, 11)) / 2.0, t)
                for t, (u, m) in enumerate(zip(users, movies))
            ]
            catalog = replace(tiny_catalog(), ratings=ratings)
            assert_matrix_equals(build_rating_matrix(catalog), loop_build_rating_matrix(catalog))

    def test_scale_round_trips_through_catalog(self):
        cat = tiny_catalog()
        matrix = build_rating_matrix(cat)
        assert matrix.scale == RatingScale()


class TestImplicitAugmentation:
    def test_equals_per_event_loop(self):
        rng = np.random.default_rng(92)
        for _ in range(12):
            matrix = half_step_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), rng.uniform(0.2, 0.9))
            n = int(rng.integers(0, 40))
            # users 1-11 and movies 101-111 cover rated, unrated and unseen
            # cells: repeats, explicit cells, and ids seen only in events;
            # fractions past 1 clamp to the top of the scale
            events = [
                ImplicitEvent(int(u), int(m), bool(w), float(f), int(c))
                for u, m, w, f, c in zip(
                    rng.integers(1, 12, n), rng.integers(101, 112, n), rng.uniform(size=n) < 0.6,
                    rng.uniform(0.0, 1.5, n), rng.integers(0, 15, n),
                )
            ]
            events += events[: n // 3]  # the same events again, after others on their cells
            assert_matrix_equals(augment_implicit(matrix, events), loop_augment_implicit(matrix, events))

    def test_pseudo_rating_formula(self):
        matrix = make_matrix([[4.0, np.nan], [3.0, 2.0]])
        events = [ImplicitEvent(1, 102, True, 0.8, 4)]
        aug = augment_implicit(matrix, events)
        expected = 5.0 * (0.2 * 1.0 + 0.5 * 0.8 + 0.3 * min(4, 10) / 10)
        j = aug.item_index[102]
        i = aug.user_index[1]
        assert aug.values[i, j] == pytest.approx(expected)
        assert aug.sources[i, j] == SOURCE_IMPLICIT

    def test_explicit_never_overwritten(self):
        matrix = make_matrix([[4.0, 3.0], [3.0, 2.0]])
        events = [ImplicitEvent(1, 101, True, 1.0, 10)]
        aug = augment_implicit(matrix, events)
        assert aug.values[aug.user_index[1], aug.item_index[101]] == 4.0
        assert aug.sources[aug.user_index[1], aug.item_index[101]] == SOURCE_EXPLICIT

    def test_last_event_wins(self):
        matrix = make_matrix([[4.0, np.nan], [3.0, 2.0]])
        events = [
            ImplicitEvent(1, 102, True, 1.0, 10),
            ImplicitEvent(1, 102, True, 0.0, 0),
        ]
        aug = augment_implicit(matrix, events)
        expected = 5.0 * 0.2
        assert aug.values[aug.user_index[1], aug.item_index[102]] == pytest.approx(expected)

    def test_new_entities_extend_axes(self):
        matrix = make_matrix([[4.0, 3.0], [3.0, 2.0]])
        events = [ImplicitEvent(9, 555, True, 0.5, 1)]
        aug = augment_implicit(matrix, events)
        assert 9 in aug.user_index
        assert 555 in aug.item_index
        assert np.count_nonzero(~np.isnan(matrix.values)) + 1 == np.count_nonzero(~np.isnan(aug.values))

    def test_matches_cell_by_cell_copy(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            matrix = half_step_matrix(rng, 8, 9, 0.5)
            users = [int(u) for u in rng.integers(1, 12, size=30)]
            items = [int(m) for m in rng.integers(101, 113, size=30)]
            events = [
                ImplicitEvent(u, m, bool(rng.uniform() < 0.7), float(rng.uniform()), int(rng.integers(0, 15)))
                for u, m in zip(users, items)
            ]
            aug = augment_implicit(matrix, events)
            # old rows and columns copied cell by cell, then events replayed
            values = np.full(aug.values.shape, np.nan)
            sources = np.zeros(aug.sources.shape, dtype=np.uint8)
            for i, u in enumerate(matrix.user_ids):
                for j, m in enumerate(matrix.item_ids):
                    if not np.isnan(matrix.values[i, j]):
                        values[aug.user_index[u], aug.item_index[m]] = matrix.values[i, j]
                        sources[aug.user_index[u], aug.item_index[m]] = matrix.sources[i, j]
            for ev in events:
                i, j = aug.user_index[ev.user_id], aug.item_index[ev.movie_id]
                if sources[i, j] == SOURCE_EXPLICIT:
                    continue
                values[i, j] = scalar_pseudo_rating(matrix.scale, ev)
                sources[i, j] = SOURCE_IMPLICIT
            assert np.array_equal(aug.values, values, equal_nan=True)
            assert np.array_equal(aug.sources, sources)

    def test_unwatched_event_clamps_to_scale_floor(self):
        matrix = make_matrix([[4.0, np.nan], [3.0, 2.0]])
        events = [ImplicitEvent(1, 102, False, 0.0, 0)]
        aug = augment_implicit(matrix, events)
        assert aug.values[aug.user_index[1], aug.item_index[102]] == 0.5
