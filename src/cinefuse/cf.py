"""Collaborative-filtering engine.

Builds the sparse user x item rating matrix, computes pairwise similarity
matrices (pearson / cosine / jaccard, optionally feature-weighted), selects
KNN neighborhoods, predicts unseen ratings by weighted deviation from the
mean, and lists a seed movie's item-item candidates. Implicit events can
densify the matrix with pseudo-ratings without ever touching explicit
entries.

Conventions, fixed here because the similarity literature leaves them open:
  * pearson is the correlation of the two entities' ratings over their
    co-rated set, with means taken over that set (weighted means when a
    weight vector is supplied);
  * cosine treats each entity's ratings as a sparse vector (missing = 0),
    so the dot product runs over the co-rated set while each norm runs over
    the entity's own rated set;
  * jaccard ignores values and compares rated sets;
  * pairs sharing fewer than `min_overlap` ratings score 0 under every
    metric, and zero-variance vectors score 0 under pearson;
  * neighbor eligibility everywhere requires a nonzero co-count, and ties
    break by ascending id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import Catalog, ImplicitEvent, RatingScale
from .errors import CinefuseError, UnknownEntityError, require_positive

DEFAULT_MIN_OVERLAP = 2
DEFAULT_K = 20
DEFAULT_LIKE_THRESHOLD = 3.5

SOURCE_NONE = 0
SOURCE_EXPLICIT = 1
SOURCE_IMPLICIT = 2


@dataclass
class RatingMatrix:
    """Dense-with-NaN user x item matrix plus per-axis means and source flags."""

    user_ids: tuple[int, ...]
    item_ids: tuple[int, ...]
    values: np.ndarray  # (n_users, n_items), NaN where unrated
    sources: np.ndarray  # uint8, SOURCE_* codes
    scale: RatingScale
    user_index: dict[int, int] = field(repr=False, default_factory=dict)
    item_index: dict[int, int] = field(repr=False, default_factory=dict)
    user_means: np.ndarray = field(repr=False, default=None)
    item_means: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        self.item_index = {m: j for j, m in enumerate(self.item_ids)}
        # np.nanmean's own steps, so the same bits, without its warning on
        # an empty row or column, whose mean is 0 / 0 = NaN
        rated = ~np.isnan(self.values)
        filled = np.array(self.values)
        filled[~rated] = 0.0
        with np.errstate(invalid="ignore"):
            self.user_means = filled.sum(axis=1) / rated.sum(axis=1)
            self.item_means = filled.sum(axis=0) / rated.sum(axis=0)


def _last_of_each(cells: np.ndarray) -> np.ndarray:
    """Index of the last occurrence of each distinct value of `cells`,
    ascending by value: where a later write to a cell replaces an earlier."""
    _, last = np.unique(cells[::-1], return_index=True)
    return cells.size - 1 - last


def build_rating_matrix(catalog: Catalog) -> RatingMatrix:
    """One matrix entry per explicit rating (the last, should a cell be
    rated twice); means computed per axis."""
    if not catalog.ratings:
        raise CinefuseError("no ratings")
    columns = catalog.columns
    user_ids, ui = np.unique(columns.user, return_inverse=True)
    item_ids, mj = np.unique(columns.movie, return_inverse=True)
    last = _last_of_each(ui * item_ids.size + mj)
    values = np.full((user_ids.size, item_ids.size), np.nan)
    sources = np.zeros((user_ids.size, item_ids.size), dtype=np.uint8)
    values[ui[last], mj[last]] = columns.value[last]
    sources[ui[last], mj[last]] = SOURCE_EXPLICIT
    return RatingMatrix(tuple(user_ids.tolist()), tuple(item_ids.tolist()), values, sources, catalog.scale)


@dataclass
class SimilarityMatrix:
    """Pairwise similarities along one axis."""

    axis: str  # "user" or "item"
    metric: str  # pearson | cosine | jaccard | fuzzy
    ids: tuple[int, ...]
    values: np.ndarray  # (n, n), symmetric, in [-1, 1]
    co_counts: np.ndarray  # (n, n) int, co-rated dimension counts
    min_overlap: int
    index: dict[int, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.ids)}


# Cells one block may hold in its temporaries, whatever the matrix size: the
# gathered rated cells of the similarity kernel, the pair-by-genre cells of
# the fuzzy kernel, the row-by-neighbor cells of neighbor ranks, the rater
# cells of the predictor.
_BLOCK_CELLS = 1 << 16


def _runs(need: np.ndarray) -> list[tuple[int, int]]:
    """[start, end) of consecutive runs of items, cut where the running
    total of `need`, the cells each item needs, crosses a multiple of
    _BLOCK_CELLS: a run holds at most _BLOCK_CELLS cells plus those of its
    last item."""
    block = (np.cumsum(need) - need) // _BLOCK_CELLS
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), need.size]
    return list(zip(cuts, cuts[1:]))


def _pair_blocks(n: int, cells, co=None, min_overlap: int = 0):
    """(I, J) index arrays of the pairs i < j with co[i, j] >= min_overlap
    (every pair when `co` is None), in row-major order, in _runs of
    `cells(I, J)`, the cells each pair needs."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for a in range(0, n, rows):
        b = min(n, a + rows)
        keep = np.ones((b - a, n), dtype=bool) if co is None else co[a:b] >= min_overlap
        li, cj = np.nonzero(np.triu(keep, a + 1))
        if not li.size:
            continue
        li += a
        for s, e in _runs(np.broadcast_to(cells(li, cj), li.shape)):
            yield li[s:e], cj[s:e]


def _rated_cells(indptr: np.ndarray, rows: np.ndarray):
    """(k, at): where in a CSR array with row pointers `indptr` the cells of
    each of `rows` lie, those of rows[k] after those of rows[k - 1]."""
    lengths = indptr[rows + 1] - indptr[rows]
    k = np.repeat(np.arange(rows.size), lengths)
    at = np.arange(k.size)
    at += np.repeat(indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    return k, at


def _groups(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, rows, length) of each run of equal `counts`, which must be
    ascending: the cells of those rows lie at [start, start + rows * length)
    of a ragged array stored row after row."""
    lengths, rows = np.unique(counts, return_counts=True)
    starts = np.cumsum(lengths * rows) - lengths * rows
    return list(zip(starts.tolist(), rows.tolist(), lengths.tolist()))


def _row_sums(flat: np.ndarray, groups) -> np.ndarray:
    """Sum of each row of a ragged array stored row after row along the last
    axis of `flat` (which may stack several such arrays), grouped by _groups.

    Rows of equal length are summed together as one (..., rows, length) view
    whose last axis is contiguous. numpy's sum along that axis gives the same
    bits as summing each row on its own as a 1-D array, so the result equals
    a per-row loop exactly, rounding included.
    """
    lead = flat.shape[:-1]
    return np.concatenate(
        [flat[..., s : s + r * c].reshape(*lead, r, c).sum(axis=-1) for s, r, c in groups], axis=-1
    )


def _pearson_pairs(x, y, w, counts, groups):
    """Weighted pearson of each pair over its co-rated cells.

    `x`, `y`, `w` hold the co-rated cells of every pair, pair after pair,
    `counts` the cells per pair, ascending, and `groups` their _groups. Each
    operation is the one a scalar per-pair computation would do, in the same
    order, so the result is bit-identical to it; the three sums of each pass
    are taken together.
    """
    sw, sx, sy = _row_sums(np.stack((w, w * x, w * y)), groups)
    xm, ym = sx / sw, sy / sw
    dx, dy = x - np.repeat(xm, counts), y - np.repeat(ym, counts)
    wdx = w * dx
    vx, vy, cov = _row_sums(np.stack((wdx * dx, w * dy * dy, wdx * dy)), groups)
    s = cov / np.sqrt(vx * vy)
    s[(sw <= 0.0) | (vx <= 1e-15) | (vy <= 1e-15)] = 0.0
    return s


class _Block(NamedTuple):
    """What no weight changes in the similarities of one block of pairs
    i < j: the pairs in ascending co-count, their co-counts and _groups, and
    their co-rated cells pair after pair, columns ascending, as row i's
    values `x`, row j's values `y` and the int32 columns. `union`, for
    jaccard only, holds (by_size, columns, groups): the pairs' order by
    ascending union size and the columns of each union, in that order."""

    i: np.ndarray
    j: np.ndarray
    counts: np.ndarray
    groups: list
    x: np.ndarray
    y: np.ndarray
    cols: np.ndarray
    union: tuple | None


def _axis_values(matrix: RatingMatrix, axis: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The rows to compare along `axis` (NaN where unrated) and their ids."""
    if axis not in ("user", "item"):
        raise CinefuseError(f"axis must be 'user' or 'item', got {axis!r}")
    return (matrix.values, matrix.user_ids) if axis == "user" else (matrix.values.T, matrix.item_ids)


def _weight_vector(weights, d: int) -> np.ndarray:
    if weights is None:
        return np.ones(d)
    w = np.asarray(weights, dtype=float)
    if w.shape != (d,):
        raise CinefuseError(f"weight vector of length {w.size}, expected {d}")
    if np.any(w < 0):
        raise CinefuseError("negative weight")
    return w


def _co_counts(mask: np.ndarray) -> np.ndarray:
    """Co-rated counts of every pair of rows; exact, as sums of 0/1
    products. The float copy and product are freed on return."""
    m = mask.astype(float)
    return (m @ m.T).astype(np.int64)


def _corated_blocks(vals, mask, co, min_overlap: int, union: bool = False):
    """The _Block of each block of pairs with co >= min_overlap, made as the
    blocks are consumed.

    Each row's rated columns are kept as CSR; a pair's co-rated cells are
    those of its sparser row that the other row rated too, ascending. A
    block holds about _BLOCK_CELLS gathered cells (both rows' cells too,
    for a union).
    """
    rated = np.count_nonzero(mask, axis=1)
    indptr = np.concatenate(([0], np.cumsum(rated)))
    indices = np.nonzero(mask)[1]

    def cells(i, j):
        need = np.minimum(rated[i], rated[j])
        return need + rated[i] + rated[j] if union else need

    for i, j in _pair_blocks(len(vals), cells, co, min_overlap):
        by_count = np.argsort(co[i, j], kind="stable")
        i, j = i[by_count], j[by_count]
        counts = co[i, j]
        src = np.where(rated[i] <= rated[j], i, j)
        pair, at = _rated_cells(indptr, src)
        cols = indices[at]
        hit = mask[(i + j - src)[pair], cols]
        pair, cols = pair[hit], cols[hit]
        merged = None
        if union:
            # i's cells and those of j that i did not rate, pairs in
            # ascending union size, columns ascending
            sizes = rated[i] + rated[j] - counts
            by_size = np.argsort(sizes, kind="stable")
            iu, ju = i[by_size], j[by_size]
            (pi, ai), (pj, aj) = _rated_cells(indptr, iu), _rated_cells(indptr, ju)
            ci, cj = indices[ai], indices[aj]
            extra = ~mask[iu[pj], cj]
            upair, ucols = np.concatenate((pi, pj[extra])), np.concatenate((ci, cj[extra]))
            merged = (by_size, ucols[np.lexsort((ucols, upair))], _groups(sizes[by_size]))
        x, y = vals[i[pair], cols], vals[j[pair], cols]
        yield _Block(i, j, counts, _groups(counts), x, y, cols.astype(np.int32), merged)


def _similarities(blocks, n: int, metric: str, w: np.ndarray, norms=None) -> np.ndarray:
    """The (n, n) similarity values from `blocks` (_corated_blocks) under
    weights `w`; cosine takes the rows' weighted norms."""
    sims = np.zeros((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in blocks:
            wc = w[b.cols]
            if metric == "pearson":
                s = _pearson_pairs(b.x, b.y, wc, b.counts, b.groups)
            elif metric == "cosine":
                denom = norms[b.i] * norms[b.j]
                s = np.where(denom > 0, _row_sums(wc * b.x * b.y, b.groups) / denom, 0.0)
            else:  # jaccard on rated sets, values ignored
                by_size, ucols, ugroups = b.union
                wu = np.empty(by_size.size)
                wu[by_size] = _row_sums(w[ucols], ugroups)
                s = np.where(wu > 0, _row_sums(wc, b.groups) / wu, 0.0)
            sims[b.i, b.j] = sims[b.j, b.i] = s
    np.clip(sims, -1.0, 1.0, out=sims)
    np.fill_diagonal(sims, 1.0)
    return sims


def similarity_matrix(
    matrix: RatingMatrix,
    axis: str,
    metric: str = "pearson",
    weights=None,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> SimilarityMatrix:
    """Full pairwise similarity matrix along one axis.

    `weights`, when given, must index the co-rated dimension (items for the
    user axis, users for the item axis) and be nonnegative; each dimension's
    contribution to the metric is scaled by its weight. All-ones weights
    reproduce the unweighted metric exactly.
    """
    vals, ids = _axis_values(matrix, axis)
    if metric not in ("pearson", "cosine", "jaccard"):
        raise CinefuseError(f"unknown metric {metric!r}")
    w = _weight_vector(weights, vals.shape[1])
    mask = ~np.isnan(vals)
    co = _co_counts(mask)
    norms = None
    if metric == "cosine":
        # norms over each entity's own rated set
        norms = np.sqrt(((np.where(mask, vals, 0.0) ** 2) * w).sum(axis=1))
    blocks = _corated_blocks(vals, mask, co, min_overlap, union=metric == "jaccard")
    return SimilarityMatrix(axis, metric, ids, _similarities(blocks, len(ids), metric, w, norms), co, min_overlap)


def _pearson_plan(matrix: RatingMatrix, axis: str, min_overlap: int):
    """(run, co): `run` is `weights -> similarity_matrix(matrix, axis,
    "pearson", weights, min_overlap)`, the same bits, for tuning the
    weights, and `co` the co-counts every similarity it returns holds. They
    and every block's co-rated cells are gathered once, here, and held (20 B
    per co-rated cell, 24 B per pair), so a call runs only the weighted
    kernel."""
    vals, ids = _axis_values(matrix, axis)
    mask = ~np.isnan(vals)
    co = _co_counts(mask)
    blocks = list(_corated_blocks(vals, mask, co, min_overlap))

    def run(weights) -> SimilarityMatrix:
        w = _weight_vector(weights, vals.shape[1])
        return SimilarityMatrix(axis, "pearson", ids, _similarities(blocks, len(ids), "pearson", w), co, min_overlap)

    return run, co


@dataclass
class Prediction:
    value: float
    fallback: bool  # True when no usable neighbor rated the movie


def _positions(index: dict, ids, what: str) -> np.ndarray:
    """Position of each id in `index`; an unknown id raises, naming it."""
    try:
        return np.array([index[i] for i in ids], dtype=np.intp)
    except KeyError as exc:
        raise UnknownEntityError(f"unknown {what} id {exc.args[0]}") from None


class _Targets(NamedTuple):
    """The (user, movie) pairs of a prediction, for similarities on one axis
    over fixed ids. Each pair's target (its user on the user axis, its movie
    on the item axis) is a similarity position `pos` with its mean `base`;
    `rows` are the distinct targets and `row_of` maps each pair to its row.
    The raters of each pair's other entity (the movie's users on the user
    axis, the user's movies on the item axis) are held as CSR over the
    distinct other entities: pair p's raters lie at [indptr[other[p]],
    indptr[other[p] + 1]) of `cols`, their similarity positions in matrix
    order (int32, -1 for an id the similarity lacks), and of `dev`, their
    rating minus their mean."""

    pos: np.ndarray
    base: np.ndarray
    rows: np.ndarray
    row_of: np.ndarray
    other: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    dev: np.ndarray


def _targets(matrix: RatingMatrix, axis: str, ids, index: dict, user_ids, movie_ids) -> _Targets:
    """The _Targets of (user, movie) pairs for similarities on `axis` whose
    ids are `ids`, with `index` mapping each id to its position."""
    ui = _positions(matrix.user_index, user_ids, "user")
    mj = _positions(matrix.item_index, movie_ids, "movie")
    if ui.size != mj.size:
        raise CinefuseError(f"{ui.size} user ids but {mj.size} movie ids")
    if axis == "user":
        target_ids, targets, other, means = user_ids, ui, mj, matrix.user_means
        axis_index, axis_ids, grid = matrix.user_index, matrix.user_ids, matrix.values.T
    else:
        target_ids, targets, other, means = movie_ids, mj, ui, matrix.item_means
        axis_index, axis_ids, grid = matrix.item_index, matrix.item_ids, matrix.values
    pos = _positions(index, target_ids, f"similarity {axis}")
    rows, row_of = np.unique(pos, return_inverse=True)
    others, other = np.unique(other, return_inverse=True)
    # the rated cells of the other entities' rows, a block of at most
    # _BLOCK_CELLS cells at a time, so one pair reads one row
    step = max(1, _BLOCK_CELLS // max(grid.shape[1], 1))
    rated = [~np.isnan(grid[others[a : a + step]]) for a in range(0, max(others.size, 1), step)]
    o, m = np.nonzero(np.concatenate(rated))
    dev = grid[others[o], m] - means[m]
    if ids != axis_ids:
        sim_of = np.full(len(axis_ids), -1)
        sim_of[_positions(axis_index, ids, f"matrix {axis}")] = np.arange(len(ids))
        m = sim_of[m]
    indptr = np.searchsorted(o, np.arange(others.size + 1))
    return _Targets(pos, means[targets], rows, row_of, other, indptr, m.astype(np.int32), dev)


class _Raters(NamedTuple):
    """What no similarity value changes in the predictions of a run of
    pairs: each pair's target position `pos`, mean `base`, row `row_of`
    (_Targets) and number `counts` of eligible raters, and those raters
    pair after pair, as int32 similarity positions `cols` and deviations
    `dev` (rating minus mean). Once each pair's raters are sorted by
    neighbor rank, `first` (int32) are the positions of each pair's first
    k and `first_pair` their pair."""

    pos: np.ndarray
    base: np.ndarray
    row_of: np.ndarray
    counts: np.ndarray
    cols: np.ndarray
    dev: np.ndarray
    first: np.ndarray
    first_pair: np.ndarray


def _raters(t: _Targets, co: np.ndarray, k: int):
    """(start, end, _Raters) of the pairs of `t`, for similarities with
    co-counts `co` and k neighbors, in _runs of the pairs' rater cells. A
    rater is eligible when the similarity holds it, shares a co-count with
    the target and is not the target."""
    for a, b in _runs(np.diff(t.indptr)[t.other]):
        pos = t.pos[a:b]
        pair, at = _rated_cells(t.indptr, t.other[a:b])
        cols, target = t.cols[at], pos[pair]
        keep = (cols >= 0) & (cols != target) & (co[target, cols] > 0)
        pair, cols, at = pair[keep], cols[keep], at[keep]
        counts = np.bincount(pair, minlength=b - a)
        slot = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first = np.flatnonzero(slot < k)
        yield a, b, _Raters(pos, t.base[a:b], t.row_of[a:b], counts, cols, t.dev[at], first.astype(np.int32), pair[first])


def _by_rank(values: np.ndarray, by_id: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(rows, n): every column of `values` in the neighbor order of each of
    `rows`, similarity desc then id asc (`by_id`: the columns in ascending
    id). The one ordering rule: the sort is stable over the columns in id
    order, so equal similarities rank by id."""
    return by_id[np.argsort(-values[rows][:, by_id], axis=1, kind="stable")]


def _rank_rows(values: np.ndarray, by_id: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(rows, n) int32: the rank of every column of `values` in the _by_rank
    order of each of `rows`, sorted a block of at most _BLOCK_CELLS cells at
    a time. Ineligible neighbors are ranked too; the predictor never looks
    them up."""
    n = by_id.size
    ranks = np.empty((rows.size, n), dtype=np.int32)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for a in range(0, rows.size, step):
        order = _by_rank(values, by_id, rows[a : a + step])
        ranks[a + np.arange(order.shape[0])[:, None], order] = np.arange(n, dtype=np.int32)
    return ranks


def _predict(scale: RatingScale, sims: np.ndarray, ranks: np.ndarray, g: _Raters) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and fallback flags of the pairs of `g` under similarity
    values `sims`, whose _rank_rows over the targets' rows are `ranks`: each
    pair's raters are sorted by rank with one sort of int64 keys and its
    first k summed."""
    n, cells = ranks.shape[1], g.cols.size
    # a cell's key is (its pair's first cell * n + its rank), with the cell's
    # own position in the low bits: unique, below 2 * cells**2 * n, and in
    # pair order, then rank order within each pair
    bits = cells.bit_length()
    key = np.repeat((np.cumsum(g.counts) - g.counts) * n, g.counts)
    key += ranks[np.repeat(g.row_of, g.counts), g.cols]
    key <<= bits
    key |= np.arange(cells)
    pick = np.sort(key)[g.first] & ((1 << bits) - 1)
    s = sims[g.pos[g.first_pair], g.cols[pick]]
    # np.bincount adds each pair's terms in input order, nearest first, from
    # 0.0, as the scalar sum does
    num = np.bincount(g.first_pair, weights=s * g.dev[pick], minlength=g.counts.size)
    den = np.bincount(g.first_pair, weights=np.abs(s), minlength=g.counts.size)
    fallback = (g.counts == 0) | (den == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(fallback, g.base, g.base + num / den)
    lo, hi = scale.min, scale.max
    values = np.where(values > lo, values, lo)  # RatingScale.clamp: max(lo, v), then min(hi, .)
    return np.where(values < hi, values, hi), fallback


def predict_many(
    matrix: RatingMatrix,
    sim: SimilarityMatrix,
    user_ids,
    movie_ids,
    k: int = DEFAULT_K,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-deviation KNN predictions for (user, movie) pairs, clamped to
    the rating scale: a float64 value and a bool fallback flag per pair.

    User-axis similarity gives the user-based form
        mean(u) + sum(s * (r_v - mean(v))) / sum(|s|)
    over the k nearest co-counted users who rated the movie; item-axis
    similarity gives the mirrored item-based form. With no usable neighbor
    (none rated it, or all similarities are exactly 0) the target's own mean
    is returned with the fallback flag set.

    Every pair gets the bits of a scalar loop over its neighbors: num and den
    are accumulated one neighbor rank at a time, left to right, and the
    clamp keeps Python's min/max semantics (a NaN mean clamps to scale.min).
    Each distinct target's neighbors are ranked once; the pairs' raters are
    gathered and summed a block of at most _BLOCK_CELLS cells at a time.
    """
    require_positive("k", k)
    t = _targets(matrix, sim.axis, sim.ids, sim.index, user_ids, movie_ids)
    ranks = _rank_rows(sim.values, np.argsort(sim.ids), t.rows)
    values, fallback = np.empty(t.pos.size), np.empty(t.pos.size, dtype=bool)
    for a, b, g in _raters(t, sim.co_counts, k):
        values[a:b], fallback[a:b] = _predict(matrix.scale, sim.values, ranks, g)
    return values, fallback


def predict_rating(
    matrix: RatingMatrix,
    sim: SimilarityMatrix,
    user_id: int,
    movie_id: int,
    k: int = DEFAULT_K,
) -> Prediction:
    """predict_many for one (user, movie) pair."""
    values, fallback = predict_many(matrix, sim, [user_id], [movie_id], k)
    return Prediction(float(values[0]), bool(fallback[0]))


def recommend_cf(sim_item: SimilarityMatrix, seed_id: int, n: int) -> list[tuple[int, float]]:
    """The `n` movies most similar to a seed movie, as (movie id, similarity)
    pairs: co-counted neighbors only, in _by_rank order."""
    require_positive("n", n)
    if seed_id not in sim_item.index:
        raise UnknownEntityError(f"unknown movie id {seed_id}")
    pos = sim_item.index[seed_id]
    order = _by_rank(sim_item.values, np.argsort(sim_item.ids), np.array([pos]))[0]
    order = order[(sim_item.co_counts[pos, order] > 0) & (order != pos)][:n]
    return [(sim_item.ids[j], float(sim_item.values[pos, j])) for j in order.tolist()]


@dataclass(frozen=True)
class ImplicitBlend:
    """Blend coefficients for pseudo-ratings; must sum to 1."""

    alpha_watch: float = 0.2
    alpha_fraction: float = 0.5
    alpha_freq: float = 0.3
    freq_cap: int = 10


def augment_implicit(
    matrix: RatingMatrix, events: list[ImplicitEvent], params: ImplicitBlend | None = None
) -> RatingMatrix:
    """New matrix with pseudo-ratings filled into explicitly-unrated cells.

    pseudo = scale_max * (a_w*[watched] + a_f*fraction + a_q*min(count, F)/F),
    clamped into the rating scale. Explicit entries are never overwritten;
    when several events hit one cell the last one wins. Users or movies seen
    only in events become new rows/columns. Means are recomputed.
    """
    params = params or ImplicitBlend()
    total = params.alpha_watch + params.alpha_fraction + params.alpha_freq
    if abs(total - 1.0) > 1e-9:
        raise CinefuseError(f"blend coefficients must sum to 1, got {total}")
    if params.freq_cap < 1:
        raise CinefuseError(f"freq_cap must be >= 1, got {params.freq_cap}")

    eu = np.array([ev.user_id for ev in events], dtype=np.int64)
    em = np.array([ev.movie_id for ev in events], dtype=np.int64)
    watched = np.array([1.0 if ev.watched else 0.0 for ev in events])
    fraction = np.array([ev.watch_fraction for ev in events], dtype=float)
    count = np.array([ev.watch_count for ev in events], dtype=np.int64)
    # the scalar formula's operations in its order, then RatingScale.clamp:
    # max(lo, v), then min(hi, .)
    raw = params.alpha_watch * watched + params.alpha_fraction * fraction
    raw += params.alpha_freq * np.minimum(count, params.freq_cap) / params.freq_cap
    pseudo = matrix.scale.max * raw
    pseudo = np.where(pseudo > matrix.scale.min, pseudo, matrix.scale.min)
    pseudo = np.where(pseudo < matrix.scale.max, pseudo, matrix.scale.max)

    # the old ids, then the events' ids, each at its place on the new axes
    user_ids, ui = np.unique(np.concatenate((np.array(matrix.user_ids, dtype=np.int64), eu)), return_inverse=True)
    item_ids, mj = np.unique(np.concatenate((np.array(matrix.item_ids, dtype=np.int64), em)), return_inverse=True)
    values = np.full((user_ids.size, item_ids.size), np.nan)
    sources = np.zeros((user_ids.size, item_ids.size), dtype=np.uint8)
    old = np.ix_(ui[: len(matrix.user_ids)], mj[: len(matrix.item_ids)])
    values[old] = matrix.values
    sources[old] = matrix.sources  # SOURCE_NONE wherever values is NaN

    ui, mj = ui[len(matrix.user_ids) :], mj[len(matrix.item_ids) :]
    last = _last_of_each(ui * item_ids.size + mj)
    ui, mj, pseudo = ui[last], mj[last], pseudo[last]
    fill = sources[ui, mj] != SOURCE_EXPLICIT
    values[ui[fill], mj[fill]] = pseudo[fill]
    sources[ui[fill], mj[fill]] = SOURCE_IMPLICIT
    return RatingMatrix(tuple(user_ids.tolist()), tuple(item_ids.tolist()), values, sources, matrix.scale)


def save_similarity(sim: SimilarityMatrix, path) -> None:
    """Write a similarity cache; byte-identical for identical inputs.

    Layout: a header line (axis, metric, entity count, min_overlap), the
    entity ids, the row-major similarity entries, then the co-count rows so
    a reload is lossless. Floats use shortest round-trip repr.
    """
    n = len(sim.ids)
    lines = [f"axis={sim.axis} metric={sim.metric} n={n} min_overlap={sim.min_overlap}"]
    lines.append("ids=" + ",".join(str(i) for i in sim.ids))
    for i in range(n):
        lines.append(" ".join(repr(float(v)) for v in sim.values[i]))
    lines.append("co_counts")
    for i in range(n):
        lines.append(" ".join(str(int(c)) for c in sim.co_counts[i]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_similarity(path) -> SimilarityMatrix:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        header = dict(kv.split("=", 1) for kv in lines[0].split())
        n = int(header["n"])
        ids = tuple(int(x) for x in lines[1].removeprefix("ids=").split(","))
        values = np.array([[float(x) for x in lines[2 + i].split()] for i in range(n)])
        if lines[2 + n] != "co_counts":
            raise CinefuseError(
                f"corrupt similarity cache {path}: line {3 + n} should read 'co_counts', got {lines[2 + n]!r}"
            )
        co = np.array(
            [[int(x) for x in lines[3 + n + i].split()] for i in range(n)], dtype=np.int64
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise CinefuseError(f"corrupt similarity cache {path}: {exc}") from None
    if len(ids) != n or values.shape != (n, n) or co.shape != (n, n):
        raise CinefuseError(f"corrupt similarity cache {path}: shape mismatch")
    return SimilarityMatrix(
        header["axis"], header["metric"], ids, values, co, int(header["min_overlap"])
    )
