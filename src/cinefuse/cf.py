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
        with np.errstate(invalid="ignore"):
            self.user_means = np.nanmean(self.values, axis=1)
            self.item_means = np.nanmean(self.values, axis=0)

    @property
    def entry_count(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))


def build_rating_matrix(catalog: Catalog) -> RatingMatrix:
    """One matrix entry per explicit rating; means computed per axis."""
    if not catalog.ratings:
        raise CinefuseError("no ratings")
    user_ids = tuple(sorted({r.user_id for r in catalog.ratings}))
    item_ids = tuple(sorted({r.movie_id for r in catalog.ratings}))
    uix = {u: i for i, u in enumerate(user_ids)}
    mix = {m: j for j, m in enumerate(item_ids)}
    values = np.full((len(user_ids), len(item_ids)), np.nan)
    sources = np.zeros((len(user_ids), len(item_ids)), dtype=np.uint8)
    for r in catalog.ratings:
        values[uix[r.user_id], mix[r.movie_id]] = r.value
        sources[uix[r.user_id], mix[r.movie_id]] = SOURCE_EXPLICIT
    return RatingMatrix(user_ids, item_ids, values, sources, catalog.scale)


@dataclass
class SimilarityMatrix:
    """Pairwise similarities along one axis; treated as read-only once built.

    Each row's neighbor order is sorted on first use and cached, so the
    values must not be changed afterwards.
    """

    axis: str  # "user" or "item"
    metric: str  # pearson | cosine | jaccard | fuzzy
    ids: tuple[int, ...]
    values: np.ndarray  # (n, n), symmetric, in [-1, 1]
    co_counts: np.ndarray  # (n, n) int, co-rated dimension counts
    min_overlap: int
    index: dict[int, int] = field(repr=False, default_factory=dict)
    _orders: dict[int, np.ndarray] = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.index = {e: i for i, e in enumerate(self.ids)}

    def neighbor_order(self, pos: int) -> np.ndarray:
        """Positions of the co-counted neighbors of row `pos`, similarity
        desc then id asc. Sorted once per row."""
        return self.neighbor_orders([pos])[0]

    def neighbor_orders(self, rows) -> list[np.ndarray]:
        """neighbor_order of each of `rows`; the rows not sorted yet are
        sorted together, a block of at most _PREDICT_CELLS cells at a time."""
        missing = np.array([p for p in rows if p not in self._orders], dtype=np.intp)
        ids = np.asarray(self.ids)
        step = max(1, _PREDICT_CELLS // max(ids.size, 1))
        for a in range(0, missing.size, step):
            block = missing[a : a + step]
            order = np.lexsort((np.broadcast_to(ids, (block.size, ids.size)), -self.values[block]))
            keep = (order != block[:, None]) & (np.take_along_axis(self.co_counts[block], order, axis=1) > 0)
            for p, o, kept in zip(block.tolist(), order, keep):
                self._orders[p] = o[kept]
        return [self._orders[p] for p in rows]


# Cells of the (pairs x dimension) temporaries one block of the pair kernels
# may hold; keeps their memory bounded whatever the matrix size.
_BLOCK_CELLS = 1 << 16
# Cells of the (rows x neighbors) temporaries of one block of neighbor sorts
# or of predict_many; small, since a few thousand cells already amortise the
# per-block cost.
_PREDICT_CELLS = 1 << 12


def _pair_blocks(n: int, d: int, co=None, min_overlap: int = 0):
    """(I, J) index arrays of the pairs i < j with co[i, j] >= min_overlap
    (every pair when `co` is None), in row-major order and in blocks of at
    most _BLOCK_CELLS // d pairs."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    per_block = max(1, _BLOCK_CELLS // max(d, 1))
    for a in range(0, n, rows):
        b = min(n, a + rows)
        keep = np.ones((b - a, n), dtype=bool) if co is None else co[a:b] >= min_overlap
        li, cj = np.nonzero(np.triu(keep, a + 1))
        for s in range(0, li.size, per_block):
            yield li[s : s + per_block] + a, cj[s : s + per_block]


def _row_sums(flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each row of a ragged array stored row after row in `flat`;
    `counts`, the row lengths, must be ascending.

    Rows of equal length are summed together as one C-contiguous
    (rows, length) block. numpy's row-wise sum of such a block gives the same
    bits as summing each row on its own as a 1-D array, so the result equals
    a per-row loop exactly, rounding included.
    """
    lengths, rows = np.unique(counts, return_counts=True)
    ends = np.cumsum(lengths * rows)
    blocks = [flat[e - c * r : e].reshape(r, c) for c, r, e in zip(lengths, rows, ends)]
    return np.concatenate([b.sum(axis=1) for b in blocks])


def _pearson_pairs(x, y, w, counts):
    """Weighted pearson of each pair over its co-rated cells.

    `x`, `y`, `w` hold the co-rated cells of every pair, pair after pair, and
    `counts` the cells per pair, ascending. Each operation is the one a
    scalar per-pair computation would do, in the same order, so the result
    is bit-identical to it.
    """
    sw = _row_sums(w, counts)
    xm = _row_sums(w * x, counts) / sw
    ym = _row_sums(w * y, counts) / sw
    dx, dy = x - np.repeat(xm, counts), y - np.repeat(ym, counts)
    vx = _row_sums(w * dx * dx, counts)
    vy = _row_sums(w * dy * dy, counts)
    s = _row_sums(w * dx * dy, counts) / np.sqrt(vx * vy)
    s[(sw <= 0.0) | (vx <= 1e-15) | (vy <= 1e-15)] = 0.0
    return s


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
    if axis not in ("user", "item"):
        raise CinefuseError(f"axis must be 'user' or 'item', got {axis!r}")
    if metric not in ("pearson", "cosine", "jaccard"):
        raise CinefuseError(f"unknown metric {metric!r}")

    if axis == "user":
        vals, ids = matrix.values, matrix.user_ids
    else:
        vals, ids = matrix.values.T, matrix.item_ids
    n, d = vals.shape

    if weights is None:
        w = np.ones(d)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (d,):
            raise CinefuseError(f"weight vector of length {w.size}, expected {d}")
        if np.any(w < 0):
            raise CinefuseError("negative weight")

    mask = ~np.isnan(vals)
    m = mask.astype(float)
    co = (m @ m.T).astype(np.int64)  # exact: sums of 0/1 products

    sims = np.zeros((n, n))
    if metric == "cosine":
        # norms over each entity's own rated set
        norms = np.sqrt(((np.where(mask, vals, 0.0) ** 2) * w).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i, j in _pair_blocks(n, d, co, min_overlap):
            by_count = np.argsort(co[i, j], kind="stable")
            i, j = i[by_count], j[by_count]
            counts = co[i, j]
            pair, cols = np.nonzero(mask[i] & mask[j])
            x, y, wc = vals[i[pair], cols], vals[j[pair], cols], w[cols]
            if metric == "pearson":
                s = _pearson_pairs(x, y, wc, counts)
            elif metric == "cosine":
                denom = norms[i] * norms[j]
                s = np.where(denom > 0, _row_sums(wc * x * y, counts) / denom, 0.0)
            else:  # jaccard on rated sets, values ignored
                union = mask[i] | mask[j]
                sizes = union.sum(axis=1)
                by_size = np.argsort(sizes, kind="stable")
                wu = np.empty(sizes.size)
                wu[by_size] = _row_sums(w[np.nonzero(union[by_size])[1]], sizes[by_size])
                s = np.where(wu > 0, _row_sums(wc, counts) / wu, 0.0)
            sims[i, j] = sims[j, i] = s
    np.clip(sims, -1.0, 1.0, out=sims)
    np.fill_diagonal(sims, 1.0)
    return SimilarityMatrix(axis, metric, ids, sims, co, min_overlap)


@dataclass
class NeighborSet:
    target_id: int
    neighbors: list[tuple[int, float]]  # (neighbor id, similarity), sim desc, id asc


def _eligible_sorted(sim: SimilarityMatrix, pos: int, limit: int | None = None):
    """The first `limit` (default all) co-counted neighbors of `pos`,
    similarity desc then id asc."""
    row = sim.values[pos]
    return [(sim.ids[j], float(row[j])) for j in sim.neighbor_order(pos)[:limit]]


def knn_neighbors(sim: SimilarityMatrix, target_id: int, k: int) -> NeighborSet:
    """Top-k neighbors with nonzero co-count; may return fewer than k."""
    require_positive("k", k)
    if target_id not in sim.index:
        raise UnknownEntityError(f"unknown {sim.axis} id {target_id}")
    return NeighborSet(target_id, _eligible_sorted(sim, sim.index[target_id], k))


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
    Pairs run in blocks of at most _PREDICT_CELLS pair-by-neighbor cells.
    """
    require_positive("k", k)
    ui = _positions(matrix.user_index, user_ids, "user")
    mj = _positions(matrix.item_index, movie_ids, "movie")
    if ui.size != mj.size:
        raise CinefuseError(f"{ui.size} user ids but {mj.size} movie ids")

    # rating of neighbor o for pair p: grid[other[p], o]
    if sim.axis == "user":
        target_ids, targets, other = user_ids, ui, mj
        grid, means, index, axis_ids = matrix.values.T, matrix.user_means, matrix.user_index, matrix.user_ids
    else:
        target_ids, targets, other = movie_ids, mj, ui
        grid, means, index, axis_ids = matrix.values, matrix.item_means, matrix.item_index, matrix.item_ids
    pos = _positions(sim.index, target_ids, f"similarity {sim.axis}")
    base = means[targets]

    # each distinct target's neighbor order, -1 padded, as similarity
    # positions (order) and as matrix rows or columns (where; its pads hold
    # any valid index and are masked by order >= 0)
    rows, row_of = np.unique(pos, return_inverse=True)
    orders = sim.neighbor_orders(rows.tolist())
    width = max((o.size for o in orders), default=0)
    order = np.full((rows.size, width), -1, dtype=np.intp)
    for r, o in enumerate(orders):
        order[r, : o.size] = o
    where = order if sim.ids == axis_ids else _positions(index, sim.ids, f"matrix {sim.axis}")[order]

    sums = np.zeros((pos.size, 2))  # num, den
    used = np.zeros(pos.size, dtype=np.intp)
    step = max(1, _PREDICT_CELLS // max(width, 1))
    for a in range(0, pos.size if width else 0, step):
        b = min(pos.size, a + step)
        r = row_of[a:b]
        rated = (order[r] >= 0) & ~np.isnan(grid[other[a:b, None], where[r]])
        rank = np.cumsum(rated, axis=1)
        used[a:b] = np.minimum(rank[:, -1], k)
        p, c = np.nonzero(rated & (rank <= k))
        s = sim.values[pos[a + p], order[r[p], c]]
        o = where[r[p], c]
        cols = int(used[a:b].max())
        terms = np.zeros((b - a, cols, 2))
        terms[p, rank[p, c] - 1] = np.stack((s * (grid[other[a + p], o] - means[o]), np.abs(s)), axis=1)
        for j in range(cols):  # left to right, as the scalar sum; +0.0 pads are exact
            sums[a:b] += terms[:, j]

    num, den = sums.T
    fallback = (used == 0) | (den == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(fallback, base, base + num / den)
    lo, hi = matrix.scale.min, matrix.scale.max
    values = np.where(values > lo, values, lo)  # RatingScale.clamp: max(lo, v), then min(hi, .)
    return np.where(values < hi, values, hi), fallback


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
    pairs: co-counted neighbors only, similarity desc then id asc."""
    if seed_id not in sim_item.index:
        raise UnknownEntityError(f"unknown movie id {seed_id}")
    return _eligible_sorted(sim_item, sim_item.index[seed_id], n)


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

    pseudo: dict[tuple[int, int], float] = {}
    for ev in events:
        raw = (
            params.alpha_watch * (1.0 if ev.watched else 0.0)
            + params.alpha_fraction * ev.watch_fraction
            + params.alpha_freq * min(ev.watch_count, params.freq_cap) / params.freq_cap
        )
        pseudo[(ev.user_id, ev.movie_id)] = matrix.scale.clamp(matrix.scale.max * raw)

    user_ids = tuple(sorted(set(matrix.user_ids) | {u for u, _ in pseudo}))
    item_ids = tuple(sorted(set(matrix.item_ids) | {m for _, m in pseudo}))
    uix = {u: i for i, u in enumerate(user_ids)}
    mix = {m: j for j, m in enumerate(item_ids)}
    values = np.full((len(user_ids), len(item_ids)), np.nan)
    sources = np.zeros((len(user_ids), len(item_ids)), dtype=np.uint8)
    old = np.ix_([uix[u] for u in matrix.user_ids], [mix[m] for m in matrix.item_ids])
    values[old] = matrix.values
    sources[old] = matrix.sources  # SOURCE_NONE wherever values is NaN

    for (u, m), v in pseudo.items():
        if sources[uix[u], mix[m]] == SOURCE_EXPLICIT:
            continue
        values[uix[u], mix[m]] = v
        sources[uix[u], mix[m]] = SOURCE_IMPLICIT

    return RatingMatrix(user_ids, item_ids, values, sources, matrix.scale)


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
