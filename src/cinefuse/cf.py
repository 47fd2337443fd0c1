"""Collaborative-filtering engine.

Builds the dense user x item rating matrix (a float64 per cell, NaN where
unrated, plus a uint8 source flag), computes pairwise similarity
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
from functools import partial
from itertools import pairwise
from typing import Callable, NamedTuple

import numpy as np

from .catalog import Catalog, ImplicitColumns, ImplicitEvent, RatingScale
from .errors import CinefuseError, UnknownEntityError, require_positive

DEFAULT_MIN_OVERLAP = 2
DEFAULT_K = 20
DEFAULT_LIKE_THRESHOLD = 3.5

SOURCE_NONE = 0
SOURCE_EXPLICIT = 1
SOURCE_IMPLICIT = 2

# augment_implicit's pseudo-rating of an event:
#   scale.max * (IMPLICIT_WATCH * [watched] + IMPLICIT_FRACTION * fraction
#                + IMPLICIT_FREQ * min(count, IMPLICIT_FREQ_CAP) / IMPLICIT_FREQ_CAP)
# The three weights sum to 1.
IMPLICIT_WATCH = 0.2
IMPLICIT_FRACTION = 0.5
IMPLICIT_FREQ = 0.3
IMPLICIT_FREQ_CAP = 10


@dataclass(eq=False)
class RatingMatrix:
    """Dense-with-NaN user x item matrix plus per-axis means and source flags.
    The ids of each axis are distinct and ascend with their position."""

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
        for axis, ids in (("user", self.user_ids), ("item", self.item_ids)):
            bad = next(((a, b) for a, b in pairwise(ids) if not a < b), None)
            if bad is not None:
                raise CinefuseError(f"{axis} ids must be distinct and ascending: {axis} id {bad[1]} follows {bad[0]}")
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
    columns = catalog.columns
    if not len(columns.user):
        raise CinefuseError("no ratings")
    user_ids, ui = np.unique(columns.user, return_inverse=True)
    item_ids, mj = np.unique(columns.movie, return_inverse=True)
    last = _last_of_each(ui * item_ids.size + mj)
    values = np.full((user_ids.size, item_ids.size), np.nan)
    sources = np.zeros((user_ids.size, item_ids.size), dtype=np.uint8)
    ui, mj = ui.take(last), mj.take(last)
    _put(values, ui, mj, columns.value.take(last))
    _put(sources, ui, mj, SOURCE_EXPLICIT)
    return RatingMatrix(tuple(user_ids.tolist()), tuple(item_ids.tolist()), values, sources, catalog.scale)


@dataclass(eq=False)
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
# the fuzzy kernel, the rater cells of the predictor.
_BLOCK_CELLS = 1 << 16
# Rater cells a predictor holds for all its calls; with more, each call
# walks them again (_predictor).
_HELD_CELLS = 1 << 20


def _flat(a: np.ndarray, rows, cols) -> tuple[np.ndarray, np.ndarray]:
    """(buffer, positions): the cells of the C- or F-contiguous 2-D array
    `a` as the 1-D view of its memory-order buffer, and the intp position
    in it of each cell (rows, cols), rows * rs + cols * cs with the element
    strides of a's two axes (`rows` and `cols` broadcast together).
    Positions are computed in intp, so int32 indices times a stride cannot
    wrap. A transposed matrix is addressed through swapped strides, without
    a copy."""
    if a.flags.c_contiguous:
        rs, cs = a.shape[1], 1
    elif a.flags.f_contiguous:
        rs, cs = 1, a.shape[0]
    else:
        raise ValueError("cells are addressed only in a C- or F-contiguous array")
    pos = np.multiply(rows, rs, dtype=np.intp)
    return a.ravel(order="K"), pos + (cols if cs == 1 else np.multiply(cols, cs, dtype=np.intp))


def _cells(a: np.ndarray, rows, cols) -> np.ndarray:
    """a[rows, cols], read with one take at the cells' _flat positions; an
    array neither C- nor F-contiguous is read from a C copy."""
    flat, pos = _flat(a if a.flags.forc else np.ascontiguousarray(a), rows, cols)
    return flat.take(pos)


def _put(a: np.ndarray, rows, cols, values) -> None:
    """a[rows, cols] = values, written at the cells' _flat positions of the
    C- or F-contiguous `a`."""
    flat, pos = _flat(a, rows, cols)
    flat[pos] = values


def _runs(need: np.ndarray) -> list[tuple[int, int]]:
    """[start, end) of consecutive runs of items, cut where the running
    total of `need`, the cells each item needs, crosses a multiple of
    _BLOCK_CELLS: a run holds at most _BLOCK_CELLS cells plus those of its
    last item."""
    block = (np.cumsum(need) - need) // _BLOCK_CELLS
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), need.size]
    return list(zip(cuts, cuts[1:]))


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
    rows = np.bincount(counts)
    lengths = np.flatnonzero(rows)
    rows = rows.take(lengths)
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
        [np.add.reduce(flat[..., s : s + r * c].reshape(*lead, r, c), axis=-1) for s, r, c in groups], axis=-1
    )


def _pearson_pairs(x, y, w, counts, groups):
    """Weighted pearson of each pair over its co-rated cells.

    `x`, `y`, `w` hold the co-rated cells of every pair, pair after pair,
    `counts` the cells per pair, ascending, and `groups` their _groups. Each
    operation is the one a scalar per-pair computation would do, in the same
    order, so the result is bit-identical to it; the three sums of each pass
    are taken together.
    """
    sw, sx, sy = _row_sums(np.array((w, w * x, w * y)), groups)
    xm, ym = sx / sw, sy / sw
    dx, dy = x - np.repeat(xm, counts), y - np.repeat(ym, counts)
    wdx = w * dx
    vx, vy, cov = _row_sums(np.array((wdx * dx, w * dy * dy, wdx * dy)), groups)
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


def _weight_vector(weights, d: int) -> np.ndarray:
    if weights is None:
        return np.ones(d)
    w = np.asarray(weights, dtype=float)
    if w.shape != (d,):
        raise CinefuseError(f"weight vector of length {w.size}, expected {d}")
    if not np.all(np.isfinite(w)):
        raise CinefuseError("non-finite weight")
    if np.any(w < 0):
        raise CinefuseError("negative weight")
    return w


class _Axis(NamedTuple):
    """One axis of a rating matrix as its similarities read it, whatever
    the metric and weights: ids and each id's row, the rows (NaN where
    unrated), their rated mask and, as CSR, each row's rated count `rated`,
    row pointers `indptr` and rated columns `indices`. On the item axis
    `vals` is the matrix's transpose, a view, and `mask` keeps its
    layout."""

    ids: tuple[int, ...]
    index: dict[int, int]
    vals: np.ndarray
    mask: np.ndarray
    rated: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


def _axis(matrix: RatingMatrix, axis: str, metric: str = "pearson") -> _Axis:
    """The _Axis of `axis`; an unknown axis, then an unknown metric, raises."""
    if axis not in ("user", "item"):
        raise CinefuseError(f"axis must be 'user' or 'item', got {axis!r}")
    if metric not in ("pearson", "cosine", "jaccard"):
        raise CinefuseError(f"unknown metric {metric!r}")
    if axis == "user":
        vals, ids, index = matrix.values, matrix.user_ids, matrix.user_index
    else:
        vals, ids, index = matrix.values.T, matrix.item_ids, matrix.item_index
    mask = ~np.isnan(vals)
    rated = np.count_nonzero(mask, axis=1)
    indptr = np.concatenate(([0], np.cumsum(rated)))
    # a copy: np.nonzero's column array is a view of its whole (cells, 2) result
    return _Axis(ids, index, vals, mask, rated, indptr, np.nonzero(mask)[1].copy())


def _weigh(a: _Axis, metric: str, weights) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, norms): `weights` validated as weights of a's co-rated dimension
    and, for cosine, each row's weighted norm over its rated set, computed
    once per weight vector."""
    w = _weight_vector(weights, a.vals.shape[1])
    if metric != "cosine":
        return w, None
    sq = np.where(a.mask, a.vals, 0.0)  # squared and weighted in place: one rows x dimension temporary
    return w, np.sqrt(np.multiply(np.square(sq, out=sq), w, out=sq).sum(axis=1))


def _co_counts(mask: np.ndarray) -> np.ndarray:
    """Co-rated counts of every pair of rows, int32; exact, as sums of 0/1
    products: in float32 while a row is shorter than 2**24, below which
    float32 holds every integer, else in float64. The float copy and
    product are freed on return."""
    m = mask.astype(np.float32 if mask.shape[1] < 1 << 24 else np.float64)
    return (m @ m.T).astype(np.int32)


def _corated_blocks(a: _Axis, metric: str, pi: np.ndarray, pj: np.ndarray, pc: np.ndarray):
    """The _Block of each run of the pairs (pi, pj), i < j, on axis `a`
    under `metric`, made as the blocks are consumed.

    The pairs come in ascending co-count `pc`, so every block keeps them in
    that order. A pair's co-rated cells are those of its sparser row that
    the other row rated too, ascending, read from the axis' CSR. A block
    holds about _BLOCK_CELLS gathered cells (for jaccard, both rows' whole
    rated masks too).
    """
    if not pi.size:
        return
    vals, mask, rated, indptr, indices = a.vals, a.mask, a.rated, a.indptr, a.indices
    union = metric == "jaccard"
    need = np.minimum(rated[pi], rated[pj])
    for s, e in _runs(need + mask.shape[1] if union else need):
        i, j, counts = pi[s:e], pj[s:e], pc[s:e]
        src = np.where(rated[i] <= rated[j], i, j)
        pair, at = _rated_cells(indptr, src)
        cols = indices.take(at)
        del at  # unused past here; freeing it lowers the block's peak
        hit = np.flatnonzero(_cells(mask, (i + j - src).take(pair), cols))
        pair, cols = pair.take(hit), cols.take(hit)
        merged = None
        if union:
            # the columns either row rated, pairs in ascending union size,
            # columns ascending: row-major nonzero of the masks' union
            sizes = rated[i] + rated[j] - counts
            by_size = np.argsort(sizes, kind="stable")
            ucols = np.nonzero(mask[i.take(by_size)] | mask[j.take(by_size)])[1]
            merged = (by_size, ucols, _groups(sizes[by_size]))
        x, y = _cells(vals, i.take(pair), cols), _cells(vals, j.take(pair), cols)
        yield _Block(i, j, counts, _groups(counts), x, y, cols.astype(np.int32), merged)


def _kernel(b: _Block, metric: str, w: np.ndarray, norms=None) -> np.ndarray:
    """The similarity of each pair of block `b` under weights `w`, before
    clipping; cosine takes the rows' weighted norms."""
    wc = w.take(b.cols)
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric == "pearson":
            return _pearson_pairs(b.x, b.y, wc, b.counts, b.groups)
        if metric == "cosine":
            denom = norms[b.i] * norms[b.j]
            return np.where(denom > 0, _row_sums(wc * b.x * b.y, b.groups) / denom, 0.0)
        # jaccard on rated sets, values ignored
        by_size, ucols, ugroups = b.union
        wu = np.empty(by_size.size)
        wu[by_size] = _row_sums(w[ucols], ugroups)
        return np.where(wu > 0, _row_sums(wc, b.groups) / wu, 0.0)


def _gather(a: _Axis, metric: str, i: np.ndarray, j: np.ndarray, counts: np.ndarray, hold: bool):
    """A function of a _weigh output that returns the `metric` similarities
    of the pairs (i, j), i < j, of axis `a`, in order and clipped into
    [-1, 1], then 0.0; the pairs come in ascending co-count `counts`. With
    `hold` their co-rated cells are gathered once, for every call (20 B per
    co-rated cell, 24 B per pair held); without, each call gathers them
    again, a block at a time."""
    held = list(_corated_blocks(a, metric, i, j, counts)) if hold else None

    def run(weighed) -> np.ndarray:
        w, norms = weighed
        blocks = _corated_blocks(a, metric, i, j, counts) if held is None else held
        s = np.concatenate([*(_kernel(b, metric, w, norms) for b in blocks), [0.0]])
        return np.clip(s, -1.0, 1.0, out=s)

    return run


class _Plan(NamedTuple):
    """A similarity's values for any set of its pairs, with the bits of the
    full similarity. `weigh(weights)` checks a weight vector and returns what
    the gathers need of it; `gather(i, j, counts, hold)`, given pairs in
    ascending co-count `counts`, returns `weigh(weights) -> those pairs'
    values, in order, then 0.0`, holding what no weight changes when `hold`
    is set. `ids` and `co` are the similarity's ids and n x n co-counts, and
    a `symmetric` plan is asked for pairs i < j alone."""

    weigh: Callable
    gather: Callable
    ids: tuple
    co: np.ndarray
    min_overlap: int
    symmetric: bool


def _plan(matrix: RatingMatrix, axis: str, metric: str, min_overlap: int) -> _Plan:
    """The _Plan of `similarity_matrix(matrix, axis, metric, weights,
    min_overlap)`. The axis and the metric are checked here, the weights
    on each call."""
    a = _axis(matrix, axis, metric)
    return _Plan(partial(_weigh, a, metric), partial(_gather, a, metric), a.ids, _co_counts(a.mask), min_overlap, True)


def _similarity_plan(sim: SimilarityMatrix) -> _Plan:
    """The _Plan of a similarity already made: its gather reads sim.values
    at the pairs asked for, whatever the weights. Every co-counted rater
    keeps its own value (min_overlap 0), and a similarity may be
    asymmetric, so it is asked for ordered (target, rater) pairs."""

    def gather(i: np.ndarray, j: np.ndarray, counts: np.ndarray, hold: bool):
        s = np.concatenate((_cells(sim.values, i, j), [0.0]))
        return lambda weighed: s

    return _Plan(lambda weights: None, gather, sim.ids, sim.co_counts, 0, False)


def _fill(plan: _Plan, axis: str, metric: str, weights) -> SimilarityMatrix:
    """The full SimilarityMatrix of a symmetric `plan` under `weights`: the
    plan gathers the pairs i < j with a co-count of at least min_overlap,
    those of at most max(1, _BLOCK_CELLS // n) rows i at a time, in
    ascending co-count; each value is stored at (i, j) and (j, i), every
    other pair scores 0 and the diagonal 1. The weights are checked even
    when no pair reaches min_overlap."""
    weighed = plan.weigh(weights)
    co, n = plan.co, len(plan.ids)
    values = np.zeros((n, n))
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    for a in range(0, n, rows):
        i, j = np.nonzero(np.triu(co[a : a + rows] >= plan.min_overlap, a + 1))
        i += a
        counts = _cells(co, i, j)
        # cast to the smallest unsigned type that holds them, the counts
        # sort by radix, in the same stable order
        by_count = np.argsort(counts.astype(np.min_scalar_type(counts.max(initial=0))), kind="stable")
        i, j, counts = i.take(by_count), j.take(by_count), counts.take(by_count)
        s = plan.gather(i, j, counts, False)(weighed)[:-1]
        _put(values, i, j, s)
        _put(values, j, i, s)
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(axis, metric, plan.ids, values, co, plan.min_overlap)


def similarity_matrix(
    matrix: RatingMatrix,
    axis: str,
    metric: str = "pearson",
    weights=None,
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> SimilarityMatrix:
    """Full pairwise similarity matrix along one axis.

    `weights`, when given, must index the co-rated dimension (items for the
    user axis, users for the item axis) and be finite and nonnegative; each
    dimension's contribution to the metric is scaled by its weight. All-ones
    weights reproduce the unweighted metric exactly.
    """
    return _fill(_plan(matrix, axis, metric, min_overlap), axis, metric, weights)


def _similarity_row(a: _Axis, metric: str, weighed, s: int, min_overlap: int) -> tuple[np.ndarray, np.ndarray]:
    """Row `s` of similarity_matrix over axis `a` under `metric` and the
    _weigh output `weighed`, and its co-counts, with the same bits, from the
    pairs of s alone (_gather): each pair keeps its i < j orientation, and
    the co-counts are counted over s's rated columns, with no n x n one."""
    co = np.count_nonzero(a.mask[:, a.indices[a.indptr[s] : a.indptr[s + 1]]], axis=1)
    other = np.flatnonzero(co >= min_overlap)
    other = other[other != s]
    other = other.take(np.argsort(co.take(other), kind="stable"))
    row = np.zeros(len(a.ids))
    row[other] = _gather(a, metric, np.minimum(other, s), np.maximum(other, s), co.take(other), False)(weighed)[:-1]
    row[s] = 1.0
    return row, co


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
    on the item axis) is a similarity position `pos` with its mean `base`.
    The raters of each pair's other entity (the movie's users on the user
    axis, the user's movies on the item axis) are held as CSR over the
    distinct other entities: pair p's raters lie at [indptr[other[p]],
    indptr[other[p] + 1]) of `cols`, their similarity positions in matrix
    order (int32, -1 for an id the similarity lacks), and of `dev`, their
    rating minus their mean."""

    pos: np.ndarray
    base: np.ndarray
    other: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    dev: np.ndarray


def _targets(matrix: RatingMatrix, axis: str, ids, user_ids, movie_ids) -> _Targets:
    """The _Targets of (user, movie) pairs for similarities on `axis` whose
    ids are `ids`: a target's position is its matrix position when those
    are the matrix axis' ids, else its position in `ids`."""
    # id arrays as lists: a dict finds Python ints faster than numpy scalars
    user_ids, movie_ids = (v.tolist() if isinstance(v, np.ndarray) else v for v in (user_ids, movie_ids))
    ui = _positions(matrix.user_index, user_ids, "user")
    mj = _positions(matrix.item_index, movie_ids, "movie")
    if ui.size != mj.size:
        raise CinefuseError(f"{ui.size} user ids but {mj.size} movie ids")
    if axis == "user":
        target_ids, pos, other, means = user_ids, ui, mj, matrix.user_means
        axis_index, axis_ids, grid = matrix.user_index, matrix.user_ids, matrix.values.T
    else:
        target_ids, pos, other, means = movie_ids, mj, ui, matrix.item_means
        axis_index, axis_ids, grid = matrix.item_index, matrix.item_ids, matrix.values
    others, other = np.unique(other, return_inverse=True)
    # the rated cells of the other entities' rows, a block of at most
    # _BLOCK_CELLS cells at a time, so one pair reads one row
    step = max(1, _BLOCK_CELLS // max(grid.shape[1], 1))
    rated = [~np.isnan(grid[others[a : a + step]]) for a in range(0, max(others.size, 1), step)]
    o, m = np.nonzero(np.concatenate(rated))
    dev = grid[others[o], m] - means[m]
    base = means[pos]
    if ids != axis_ids:
        # each matrix position's similarity position, -1 where it has none
        sim_of = np.full(len(axis_ids), -1)
        sim_of[_positions(axis_index, ids, f"matrix {axis}")] = np.arange(len(ids))
        pos, m = sim_of.take(pos), sim_of[m]
        if pos.min(initial=0) < 0:
            raise UnknownEntityError(f"unknown similarity {axis} id {target_ids[int(pos.argmin())]}")
    indptr = np.searchsorted(o, np.arange(others.size + 1))
    return _Targets(pos, base, other, indptr, m.astype(np.int32), dev)


class _Raters(NamedTuple):
    """What no similarity value changes in the predictions of a run of
    pairs: each pair's target mean `base` (_Targets) and number `counts` of
    eligible raters, and those raters pair after pair, in matrix order,
    which is id order, as int32 similarity positions `cols`, deviations
    `dev` (rating minus mean) and the `key` of the pair each reads (_raters).
    Once each pair's raters are sorted by neighbor rank, `first` (int32)
    are the positions of each pair's first k and `first_pair` their pair."""

    base: np.ndarray
    counts: np.ndarray
    cols: np.ndarray
    dev: np.ndarray
    first: np.ndarray
    first_pair: np.ndarray
    key: np.ndarray | None


def _raters(t: _Targets, plan: _Plan, k: int):
    """(start, end, _Raters) of the pairs of `t`, for similarities of `plan`
    and k neighbors, in _runs of the pairs' rater cells. A rater is eligible
    when the similarity holds it, shares a co-count with the target and is
    not the target. Its (target, rater) pair is keyed target * n + rater
    (i * n + j, i < j, for a symmetric plan), or n * n below min_overlap."""
    co, n = plan.co, len(plan.ids)
    for a, b in _runs(np.diff(t.indptr)[t.other]):
        pair, at = _rated_cells(t.indptr, t.other[a:b])
        cols, target = t.cols.take(at), t.pos[a:b].take(pair)
        # a column of -1 reads a cell of the row before, or co's last cell,
        # in range either way; `cols >= 0` drops it
        shared = _cells(co, target, cols)
        keep = np.flatnonzero((cols >= 0) & (cols != target) & (shared > 0))
        pair, cols, at, target = pair.take(keep), cols.take(keep), at.take(keep), target.take(keep)
        counts = np.bincount(pair, minlength=b - a)
        slot = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        first = np.flatnonzero(slot < k)
        key = np.minimum(target, cols) * n + np.maximum(target, cols) if plan.symmetric else target * n + cols
        key[shared.take(keep) < plan.min_overlap] = n * n
        yield a, b, _Raters(t.base[a:b], counts, cols, t.dev[at], first.astype(np.int32), pair[first], key)


def _by_rank(rows: np.ndarray, by_id: np.ndarray) -> np.ndarray:
    """(len(rows), n): every column of the similarity `rows` in each row's
    neighbor order, similarity desc then id asc (`by_id`: the columns in
    ascending id). The one ordering rule: the sort is stable over the
    columns in id order, so equal similarities rank by id."""
    return by_id[np.argsort(-rows[:, by_id], axis=1, kind="stable")]


def _nearest(row: np.ndarray, co: np.ndarray, by_id: np.ndarray, s: int, n: int) -> np.ndarray:
    """The first `n` co-counted neighbors of entity `s`, whose similarity
    row is `row` and co-counts `co`, in _by_rank order."""
    order = _by_rank(row[None], by_id)[0]
    return order[(co[order] > 0) & (order != s)][:n]


def _desc_ranks(values: np.ndarray) -> np.ndarray:
    """The rank of each of `values` in descending order, below values.size,
    equal values (0.0 and -0.0 among them) sharing one; NaNs rank last."""
    order = np.argsort(-values)
    v = values.take(order)
    ranks = np.empty(values.size, dtype=np.intp)
    ranks[order] = np.cumsum(np.concatenate(([0], v[1:] != v[:-1])))
    return ranks


def _predict(
    scale: RatingScale, g: _Raters, rank: np.ndarray, n: int, sims: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and fallback flags of the pairs of `g`. Each rater cell
    has a neighbor rank `rank` (below n) in its target's order, equal ranks
    keeping the cells' order, and its similarity at sims[at]: each pair's
    raters are sorted by rank with one sort of int64 keys and its first k
    summed."""
    cells = g.cols.size
    # a cell's key is (its pair's first cell * n + its rank), with the cell's
    # own position in the low bits: unique, below 2 * cells**2 * n, and in
    # pair order, then rank order within each pair
    bits = cells.bit_length()
    key = np.repeat((np.cumsum(g.counts) - g.counts) * n, g.counts)
    key += rank
    key <<= bits
    key |= np.arange(cells)
    pick = np.sort(key).take(g.first) & ((1 << bits) - 1)
    s = sims.take(at.take(pick))
    # np.bincount adds each pair's terms in input order, nearest first, from
    # 0.0, as the scalar sum does
    num = np.bincount(g.first_pair, weights=s * g.dev.take(pick), minlength=g.counts.size)
    den = np.bincount(g.first_pair, weights=np.abs(s), minlength=g.counts.size)
    fallback = (g.counts == 0) | (den == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(fallback, g.base, g.base + num / den)
    lo, hi = scale.min, scale.max
    values = np.where(values > lo, values, lo)  # RatingScale.clamp: max(lo, v), then min(hi, .)
    return np.where(values < hi, values, hi), fallback


def _predictor(matrix: RatingMatrix, axis: str, plan, user_ids, movie_ids, k: int):
    """`weights -> (values, fallback)`: predict_many's values and fallback
    flags of the (user, movie) pairs, in input order, under the similarities
    on `axis` of `plan` (_plan, _similarity_plan or optimize._fuzzy_plan)
    for those weights.

    Built once, here: the pairs' positions and each pair's eligible raters
    (_raters, from the plan's co-counts), in id order within each pair; the
    distinct (target, rater) pairs those raters read with a co-count of at
    least min_overlap, as i < j for a symmetric plan, which the plan
    gathers in ascending co-count; and each rater cell's slot among the
    values the plan returns, the last, 0.0, for a rater below min_overlap.
    A call ranks those values (_desc_ranks) and sorts each pair's raters by
    rank, then id, which is the _by_rank order over the read pairs alone,
    and sums its first k (_predict). No n x n similarity is made and no
    full row ranked.

    While the pairs have at most _HELD_CELLS raters, the raters and what the
    plan gathers are held for every call (about 22 B per rater cell, plus
    the plan's own). Beyond that, only a 4 B slot per (target, rater)
    position is held, and each call walks the raters and has the plan
    gather again, a block at a time, so memory stays bounded.
    """
    require_positive("k", k)
    weigh, gather, ids, co, _, _ = plan
    n = len(ids)
    t = _targets(matrix, axis, ids, user_ids, movie_ids)
    hold = int(np.diff(t.indptr).take(t.other).sum()) <= _HELD_CELLS

    # each position is marked where first read, then holds its slot. A
    # block's new positions are those whose mark is still their own, one
    # per position, so the read pairs are found without a pass over all
    # n * n positions; they are gathered in position order, then stably by
    # co-count
    slot = np.zeros(n * n + 1, dtype=np.int32)
    found, held = [], []
    for a, b, g in _raters(t, plan, k):
        new = g.key.take(np.flatnonzero(slot.take(g.key) == 0))
        mark = np.arange(1, new.size + 1, dtype=np.int32)
        slot[new] = mark
        found.append(new.take(np.flatnonzero(slot.take(new) == mark)))
        if hold:
            held.append((a, b, g))
    pairs = np.sort(np.concatenate(found))
    i, j = np.divmod(pairs[pairs < n * n], n)
    counts = _cells(co, i, j)
    by_count = np.argsort(counts, kind="stable")
    i, j, counts = i.take(by_count), j.take(by_count), counts.take(by_count)
    del pairs, by_count  # unused past here; freeing them before the gather lowers its peak
    slot[i * n + j] = np.arange(i.size)
    slot[-1] = i.size
    if hold:
        held = [(a, b, g._replace(key=None), slot.take(g.key)) for a, b, g in held]  # slots held, keys dropped
        slot = None  # unused past here; freeing it before the gather lowers its peak
    run = gather(i, j, counts, hold)

    def predict(weights) -> tuple[np.ndarray, np.ndarray]:
        sims = run(weigh(weights))
        rank = _desc_ranks(sims)
        values, fallback = np.empty(t.pos.size), np.empty(t.pos.size, dtype=bool)
        for a, b, g, at in held if hold else ((a, b, g, slot.take(g.key)) for a, b, g in _raters(t, plan, k)):
            values[a:b], fallback[a:b] = _predict(matrix.scale, g, rank.take(at), sims.size, sims, at)
        return values, fallback

    return predict


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
    Neighbors rank by similarity desc, then id asc, NaN similarities last.
    The similarities the pairs' raters read are gathered once and ranked
    among themselves (_predictor over _similarity_plan); the raters are
    gathered and summed a block of at most _BLOCK_CELLS cells at a time.
    """
    return _predictor(matrix, sim.axis, _similarity_plan(sim), user_ids, movie_ids, k)(None)


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
    order = _nearest(sim_item.values[pos], sim_item.co_counts[pos], np.argsort(sim_item.ids), pos, n)
    return [(sim_item.ids[j], float(sim_item.values[pos, j])) for j in order.tolist()]


def augment_implicit(matrix: RatingMatrix, events: list[ImplicitEvent] | ImplicitColumns) -> RatingMatrix:
    """New matrix with pseudo-ratings filled into explicitly-unrated cells.

    Each event's pseudo-rating follows the IMPLICIT_* blend, clamped into
    the rating scale. Explicit entries are never overwritten; when several
    events hit one cell the last one wins. Users or movies seen only in
    events become new rows/columns. Means are recomputed. The events are
    records or their columns (`Catalog.implicit_columns`).
    """
    if not isinstance(events, ImplicitColumns):
        events = ImplicitColumns.of(events)
    eu, em, watched, fraction, count = events
    # the scalar formula's operations in its order, then RatingScale.clamp:
    # max(lo, v), then min(hi, .)
    raw = IMPLICIT_WATCH * watched + IMPLICIT_FRACTION * fraction
    raw += IMPLICIT_FREQ * np.minimum(count, IMPLICIT_FREQ_CAP) / IMPLICIT_FREQ_CAP
    pseudo = matrix.scale.max * raw
    pseudo = np.where(pseudo > matrix.scale.min, pseudo, matrix.scale.min)
    pseudo = np.where(pseudo < matrix.scale.max, pseudo, matrix.scale.max)

    # the old ids, then the events' ids, each at its place on the new axes
    user_ids, ui = np.unique(np.concatenate((np.array(matrix.user_ids, dtype=np.int64), eu)), return_inverse=True)
    item_ids, mj = np.unique(np.concatenate((np.array(matrix.item_ids, dtype=np.int64), em)), return_inverse=True)
    values = np.full((user_ids.size, item_ids.size), np.nan)
    sources = np.zeros((user_ids.size, item_ids.size), dtype=np.uint8)
    old = ui[: len(matrix.user_ids), None], mj[: len(matrix.item_ids)]
    _put(values, *old, matrix.values)
    _put(sources, *old, matrix.sources)  # SOURCE_NONE wherever values is NaN

    ui, mj = ui[len(matrix.user_ids) :], mj[len(matrix.item_ids) :]
    last = _last_of_each(ui * item_ids.size + mj)
    fill = last.take(np.flatnonzero(_cells(sources, ui.take(last), mj.take(last)) != SOURCE_EXPLICIT))
    ui, mj = ui.take(fill), mj.take(fill)
    _put(values, ui, mj, pseudo.take(fill))
    _put(sources, ui, mj, SOURCE_IMPLICIT)
    return RatingMatrix(tuple(user_ids.tolist()), tuple(item_ids.tolist()), values, sources, matrix.scale)
