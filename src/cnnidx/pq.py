"""Product-quantization dictionary: per-segment k-means sub-codebooks whose
Cartesian product forms K^M visual words, plus exact S-nearest product-word
search by one of two strategies that `_nearest` picks by the call's shape
alone. A call of at most `DENSE_WORDS` = 8,192 (row, product word) pairs,
such as a one-row query at K^M = 4,096, adds up every product word's
distance, as asymmetric distance computation does (Jegou, Douze & Schmid,
"Product Quantization for Nearest Neighbor Search", TPAMI 2011), and keeps
its first S. A larger call, such as a build or batch chunk, runs a batched
prefix prune-and-merge over the segments, which never materializes K^M
words. Both add the same sums in the same order and give the same words.
The bound is where the dense form stops winning, with S = 40 on 2 vCPUs: one
row took 30 against 60 us by the dense form at K^M = 4,096 (K = 64, M = 2)
and 35 against 97 us at K = 8, M = 4, two rows 45 against 59 us; four rows
took 73 against 76 us, and one row at K^M = 16,384 44 against 55 us, by the
merge.

The merge folds the segments in left to right and keeps only the S best
prefixes at each step. A prefix of prefix rank i is paired with the sub-word
of rank j only when (i+1)(j+1) <= S: every other pair is dominated by at
least S pairs. Float rounding can break that dominance, so every row carries
a lower bound on the words the merge left out; a row whose bound does not
clear its S-th distance is answered by an exact multi-sequence heap merge
(Babenko & Lempitsky, "The Inverted Multi-Index", CVPR 2012).

Each merge step keeps its first S pairs by `first_in_order`, the selection
that `tifc.top_words_rows` makes too, of the pairs that `_pairs` lays out
for it at each step (13 us at S = 40, K = 64 and 40 prefixes, 2 vCPUs).

`segment_distances_batch` is the one kernel that word assignment uses, on the
build side and the query side alike. Its `einsum` contractions cover all M
segments at once with no BLAS call, and sum each distance in an order that
does not depend on the other rows, so a row gets bit-identical distances, and
so the same words, alone or in any batch. Its centroid terms are computed
once per codebook (see `PqCodebook`), as is the table that codes gather their
words' means from (`word_means`). K-means training, one k-means++ Lloyd run
per segment (see `train`), keeps its own matmul form (`_sq_dists`), and its
Lloyd update gives every centroid the bits of numpy's `mean` of its members
without grouping the rows (see `_kmeans`). Its k-means++ seeding screens
every row against each new seed with one matrix-vector product less a
rounding bound (`_screen`), and makes the exact differences only for the rows
that the screen cannot show to be no nearer, so every seed is the one that
exact passes over all rows give."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .embed import segment_means
from .vecio import FeatureSet, check_ints, chunk_rows

# The most (row, product word) pairs `_nearest` scores densely; the module
# docstring gives the measurements that set it
DENSE_WORDS = 8_192


@dataclass
class PqConfig:
    """M segments of K words each; each segment's sub-codebook is one
    k-means++ Lloyd run (see `train`)."""

    segments: int  # M
    words_per_segment: int  # K

    def __post_init__(self):
        check_ints(self, {"segments": 1, "words_per_segment": 1})
        # K >= 2 puts K^M at 2^64 or more past M = 63, so K^M is never
        # computed for a huge M
        if (self.words_per_segment > 1 and self.segments > 63
                or self.words_per_segment ** self.segments > 2**63 - 1):
            raise ValueError("K^M does not fit in a 64-bit word id")


@dataclass
class PqCodebook:
    """M sub-codebooks of K centroids each, dimension D/M: the shape of `sub_codebooks`.

    Product word id w encodes sub-word ids (w_1..w_M) in mixed-radix base K
    with segment 1 most significant.

    Construction derives the constants that every word assignment reads:
    `centroids`, the sub-codebooks cast to float64, and `sq_norms`, their
    (M, K) squared norms by `einsum`; `word_means` adds one table per code
    length to `mean_tables`. All are read-only, and `sub_codebooks` must not
    change after construction.
    """

    sub_codebooks: np.ndarray  # (M, K, D/M) float32
    centroids: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    mean_tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        c = self.sub_codebooks.astype(np.float64)
        self.centroids = _read_only(c)
        self.sq_norms = _read_only(np.einsum("mkd,mkd->mk", c, c))

    @property
    def dim(self) -> int:
        return self.sub_codebooks.shape[0] * self.sub_codebooks.shape[2]

    @property
    def word_count(self) -> int:
        return self.sub_codebooks.shape[1] ** len(self.sub_codebooks)

    @property
    def stage_width(self) -> int:
        """Float64 values per row of the word stage: M * K segment distances."""
        return self.sq_norms.size

    def words(self, xs: np.ndarray, count: int) -> np.ndarray:
        """Each row's `count` nearest product words, (N, count), in (distance, id) order."""
        return nearest_words_batch(xs, self, count)

    def mean_bytes(self, code_length: int) -> int:
        """Working bytes of a word in `word_means`: L float64 means and, where M
        does not divide L, its rebuilt D float32 values and their float64 copy."""
        return 8 * code_length + 12 * self.dim * (code_length % len(self.sub_codebooks) > 0)

    def word_means(self, wids: np.ndarray, code_length: int) -> np.ndarray:
        """The segment means of the words' reconstructions for L-bit codes,
        float64 of shape wids.shape + (L,): with M | L the same values from the
        sub-centroids' own in `mean_tables[L]`, else the rebuilt words'."""
        m, k, _ = self.sub_codebooks.shape
        if code_length % m:
            return segment_means(reconstruct_batch(wids, self), code_length)
        table = self.mean_tables.get(code_length)
        if table is None:  # threads that meet here all keep setdefault's table
            table = _read_only(segment_means(self.centroids, code_length // m).reshape(m * k, -1))
            table = self.mean_tables.setdefault(code_length, table)
        rows = self.stacked_rows(wids)
        return np.take(table, rows, axis=0).reshape(*rows.shape[:-1], code_length)

    def stacked_rows(self, wids) -> np.ndarray:
        """Each word's M sub-centroid rows in an (M*K, ...) stack of segment
        tables, on a new last axis: its mixed-radix digit s plus (s-1) * K."""
        wids = np.asarray(wids)
        m, k, _ = self.sub_codebooks.shape
        rows = np.empty((*wids.shape, m), dtype=np.intp)
        for s in range(m - 1, 0, -1):  # divmod by the scalar K: a fast integer path
            wids, digit = np.divmod(wids, k)
            np.add(digit, s * k, out=rows[..., s], dtype=np.intp)
        rows[..., 0] = wids
        return rows

    def payload(self) -> np.ndarray:
        return np.ascontiguousarray(self.sub_codebooks, dtype="<f4")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def encode_word(sub_ids, k: int) -> int:
    """Mixed-radix encode (w_1..w_M) -> product word id."""
    wid = 0
    for w in sub_ids:
        wid = wid * k + int(w)
    return wid


def decode_word(wid: int, k: int, m: int) -> tuple[int, ...]:
    """Mixed-radix decode of a product word id into (w_1..w_M)."""
    if not 0 <= wid < k**m:
        raise ValueError(f"word id {wid} out of range [0, {k**m})")
    out = []
    for _ in range(m):
        out.append(wid % k)
        wid //= k
    return tuple(reversed(out))


def train(training: FeatureSet, cfg: PqConfig) -> PqCodebook:
    """Train per-segment sub-codebooks, one k-means++ Lloyd run each.

    The segments run in order from one generator seeded with 0, and each run
    makes at most 25 iterations and no restart, as FAISS's k-means does by
    default (restarts bought no recall on the benchmark's data). Neither the
    seed nor the cap is a setting.
    """
    m, k = cfg.segments, cfg.words_per_segment
    n, d = training.n, training.dim
    if d % m != 0:
        raise ValueError(f"dimension {d} not divisible by {m} segments")
    if n < k:
        raise ValueError(f"need at least {k} training vectors, got {n}")
    seg_dim = d // m
    rng = np.random.default_rng(0)
    sub = np.empty((m, k, seg_dim), dtype=np.float32)
    for s in range(m):
        pts = training.vectors[:, s * seg_dim : (s + 1) * seg_dim].astype(np.float64)
        sub[s] = _kmeans(pts, k, 25, rng)
    return PqCodebook(sub)


def _kmeans(pts: np.ndarray, k: int, max_iters: int, rng) -> np.ndarray:
    """The (k, d) float64 centroids of one Lloyd run with k-means++ seeding:
    at most max_iters iterations of one distance pass each, stopping when
    the assignments stabilize. Seeding keeps each row's squared
    distance d2 to its nearest seed, as `sq_dist_to` gives it, and draws the
    next seed by `Generator.choice` with probability d2 / sum(d2), or
    uniformly once every d2 is 0. After a draw
    only the rows that `_screen` cannot show to be at least d2 from the new
    seed, about 6% of them on the benchmark's data, go through
    `sq_dist_to`; a row it shows lies no nearer, so its d2 would not move, and
    every d2, draw and seed has the bits of a full pass.
    Each iteration assigns every point to its nearest centroid (ties
    to the smaller index, see `_nearest_centroid`) and moves each centroid to
    the mean of its members, the values numpy's `mean` of the member rows
    gives. For d > 1 that mean sums in ascending row order, so each column's
    sums come from one `np.bincount` over `columns`, the points transposed
    to (d, n) in C order. For d = 1 numpy sums a
    (members, 1) block pairwise, so there the members are grouped by one
    stable sort and meaned.
    Every centroid left without members takes the same point: the one
    farthest from its nearest centroid before the update. Seeding and the
    iterations share the points' squared norms. Each iteration makes its
    distances in balanced row blocks of at most half of `CHUNK_BYTES`, as
    seeding does, through one reused (block, k) buffer, and writes every
    row's assignment and minimum into (n,) arrays, which the convergence
    test and the update read.
    """
    n, d = pts.shape
    pts_sq = _sq_norms(pts)
    lows = _screen_lows(pts_sq[:, 0], d)
    screen = np.empty(n)
    centroids = np.empty((k, d))
    centroids[0] = pts[rng.integers(n)]
    d2 = sq_dist_to(pts, centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = pts[idx]
        if j < k - 1:  # the last seed's distances draw nothing
            rows = np.flatnonzero(~(_screen(pts, lows, centroids[j], screen) >= d2))
            d2[rows] = np.minimum(d2[rows], sq_dist_to(pts, centroids[j], rows))

    columns = np.ascontiguousarray(pts.T)
    blocks = -(-n // chunk_rows(16 * k))
    step = -(-n // blocks)
    dists = np.empty((step, k))
    assign = None
    for _ in range(max_iters):
        new_assign = np.empty(n, dtype=np.intp)
        mins = np.empty(n)
        for lo in range(0, n, step):
            part = slice(lo, lo + step)
            block = dists[: min(step, n - lo)]
            _sq_dists(pts[part], pts_sq[part], centroids, block)
            new_assign[part], mins[part] = _nearest_centroid(block)
        if assign is not None and np.array_equal(assign, new_assign):
            break  # the centroids did not move
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        if d > 1:
            for j, column in enumerate(columns):
                centroids[:, j] = np.bincount(assign, weights=column, minlength=k)
            centroids /= np.maximum(counts, 1)[:, None]
        else:
            # a stable sort is unique; on the narrowest dtype numpy radix-sorts it
            grouped = pts[np.argsort(assign.astype(np.min_scalar_type(k - 1)), kind="stable")]
            edges = np.cumsum(counts).tolist()
            for j in np.flatnonzero(counts).tolist():
                centroids[j] = grouped[edges[j] - counts[j]:edges[j]].mean(axis=0)
        empty = counts == 0
        if empty.any():
            # steal the point currently worst-represented
            centroids[empty] = pts[int(mins.argmax())]
    return centroids


def _nearest_centroid(dists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest column of the (n, k) distances and that distance,
    as the argmin and min of the distances clamped at 0 give them: a row
    whose minimum is <= 0 takes its first column <= 0, at distance 0."""
    assign = dists.argmin(axis=1)
    mins = np.take_along_axis(dists, assign[:, None], axis=1)[:, 0]
    low = np.flatnonzero(mins <= 0)
    if len(low):
        assign[low] = (dists[low] <= 0).argmax(axis=1)
        mins[low] = 0.0
    return assign, mins


def sq_dist_to(pts: np.ndarray, c, rows: np.ndarray | None = None) -> np.ndarray:
    """Squared distances, float64, of the rows of pts (n, d) to the point c
    (d,), or of the rows `pts[rows]` alone when rows is given: k-means++
    seeding sends every row for its first seed and then only the rows that
    `_screen` leaves. The differences are made in float64 in row blocks of at
    most half of `CHUNK_BYTES`, in one reused buffer; a row's sum does not
    depend on its block, so the distances equal those of one whole (n, d)
    difference."""
    n, d = pts.shape if rows is None else (len(rows), pts.shape[1])
    c = np.asarray(c, dtype=np.float64)
    step = chunk_rows(16 * d)
    diff = np.empty((min(step, n), d))
    out = np.empty(n)
    for lo in range(0, n, step):
        block = diff[: min(step, n - lo)]
        part = slice(lo, lo + len(block))
        np.subtract(pts[part] if rows is None else pts[rows[part]], c, out=block)
        np.einsum("ij,ij->i", block, block, out=out[part])
    return out


# Below this no term of either form of a squared distance can overflow: the
# expanded form's terms sum to at most 2 (||x||^2 + ||c||^2) <= max / 2, and so
# does the sum of squared differences. `_screen` certifies no row whose squared
# norm, or c's, is above it.
_NORM_CAP = np.finfo(np.float64).max / 8


def _screen_lows(pts_sq: np.ndarray, d: int) -> np.ndarray:
    """The row terms of `_screen` for rows of width d with squared norms
    pts_sq: ||x||^2 (1 - s) with s = `_screen_slack(d)`, and NaN for a row
    whose squared norm is NaN or above `_NORM_CAP`."""
    lows = pts_sq * (1.0 - _screen_slack(d))
    lows[~(pts_sq <= _NORM_CAP)] = np.nan
    return lows


def _screen_slack(d: int) -> float:
    """s = 8 gamma_{d+4} for rows of width d, where gamma_m = m u / (1 - m u)
    and u is the float64 unit roundoff. In any summation order, the expanded
    ||x||^2 - 2 x.c + ||c||^2 and the summed squared differences of
    `sq_dist_to` differ by at most half of s (||x||^2 + ||c||^2 + tiny) while
    both squared norms are at most `_NORM_CAP`; tiny, the smallest normal
    float64, covers the products that underflow, and the other half covers
    the roundings of `_screen`'s own sums."""
    u = np.finfo(np.float64).eps / 2
    m = d + 4
    return 8 * m * u / (1 - m * u)


def _screen(pts: np.ndarray, lows: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A lower bound on `sq_dist_to(pts, c)` for every row, written into out
    (n,): the expanded squared distance less s (||x||^2 + ||c||^2 + tiny)
    (see `_screen_slack`), from one matrix-vector product, or 0 where that is
    below 0, so a row already at d2 = 0 (a copy of a seed) is never
    recomputed. lows is `_screen_lows` of the rows. A row is NaN, and so
    never at least any distance, when its norm or c's could overflow the
    expanded form, or when the row or c holds a NaN or an infinity."""
    s = _screen_slack(pts.shape[1])
    cc = float(c @ c)
    if cc <= _NORM_CAP:
        shift = cc * (1.0 - s) - s * np.finfo(np.float64).tiny
    else:
        shift = np.nan
    np.matmul(pts, -2.0 * c, out=out)
    out += lows
    out += shift
    return np.maximum(out, 0.0, out=out)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of x, shape (n, 1)."""
    return (x * x).sum(axis=1)[:, None]


def _sq_dists(x: np.ndarray, x_sq: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of x (n, d) and c (k, d),
    all float64, written into out (n, k); x_sq is `_sq_norms(x)`. The steps
    give exactly the values of x_sq - 2.0 * (x @ c.T) + cc: the -2 goes into
    the (d, k) operand, which scales every product and partial sum of the
    matmul by 2 exactly unless one of x's products with c is subnormal or
    overflows, and addition commutes. Rounding can leave a value below 0,
    which `_nearest_centroid` reads as 0, so no pass clamps them."""
    np.matmul(x, -2.0 * c.T, out=out)
    out += x_sq
    out += (c * c).sum(axis=1)
    return out


def segment_distances(x, cb: PqCodebook) -> np.ndarray:
    """Per-segment squared distances of one finite vector, shape (M, K); a
    NaN or infinite value is a ValueError, as for a `search` query."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (cb.dim,):
        raise ValueError(f"vector dim {x.shape} does not match codebook dim {cb.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector must be finite")
    return segment_distances_batch(x[None], cb)[0]


def segment_distances_batch(xs: np.ndarray, cb: PqCodebook) -> np.ndarray:
    """Per-segment squared distances for a batch, shape (N, M, K), clamped
    at 0: ||x_s||^2 - 2 x_s . c + ||c||^2 for every segment s of every row.

    The row terms are `einsum` contractions over (rows, M, D/M), which sum
    each value along D/M alone; unlike a matmul, which picks its BLAS routine
    by the row count, a row's values do not depend on the batch around it.
    The centroid terms are the codebook's cached `centroids` and `sq_norms`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m, k, seg_dim = cb.sub_codebooks.shape
    xr = xs.reshape(xs.shape[0], m, seg_dim)
    out = np.einsum("nmd,mkd->nmk", xr, cb.centroids)
    out *= -2.0
    out += np.einsum("nmd,nmd->nm", xr, xr)[..., None]
    out += cb.sq_norms
    np.maximum(out, 0.0, out=out)
    return out


def assign(x, cb: PqCodebook) -> int:
    """Nearest product word: the one-word case of `nearest_words`."""
    return nearest_words(x, cb, 1)[0][0]


def nearest_words(x, cb: PqCodebook, count: int) -> list[tuple[int, float]]:
    """The `count` product words nearest to x, ascending by summed segment
    distance, ties broken by smaller product word id."""
    wids, totals = _nearest(segment_distances(x, cb)[None], cb.sub_codebooks.shape[1], count)
    return [(int(w), float(t)) for w, t in zip(wids[0], totals[0])]


def nearest_words_batch(xs: np.ndarray, cb: PqCodebook, count: int) -> np.ndarray:
    """Word ids of each row's `count` nearest product words, (N, count), in
    (distance, word id) order and from that row alone. Callers bound N."""
    # all N rows at once: the distances and the merge's candidate arrays grow with N
    return _nearest(segment_distances_batch(xs, cb), cb.sub_codebooks.shape[1], count)[0]


def _nearest(dists: np.ndarray, k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The word ids and summed distances of each row's `count` nearest
    product words over (rows, M, K) segment distances, both (rows, count),
    ascending by (distance, word id). Sums are added left to right in
    float64, as `_merge_nearest` adds them.

    A call of at most `DENSE_WORDS` (row, product word) pairs scores every
    product word (`_dense_nearest`): a one-row query at K^M = 4,096 in half
    the merge's time, in a few large numpy calls where the merge makes many
    small ones. A larger call, such as a build or batch chunk of 3 rows or
    more at 4,096 words, runs `_pruned_merge`, which never makes the K^M
    table and wins from 4 rows on. Both give the same ids and the same bits,
    and the rule reads only the shape, so a row gets its words alone or in
    any batch.
    """
    rows, m, _ = dists.shape
    if not 1 <= count <= k**m:
        raise ValueError(f"count must be in [1, {k**m}], got {count}")
    if rows * k**m > DENSE_WORDS:
        return _pruned_merge(dists, k, count)
    return _dense_nearest(dists, count)


def _dense_nearest(dists: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`_nearest` by the (rows, K^M) table of every product word's summed
    distance, whose columns are the mixed-radix word ids: `first_in_order`
    of it with its default keys gives the (distance, word id) order, with no
    bound to check."""
    rows, m, _ = dists.shape
    totals = dists[:, 0]
    for s in range(1, m):
        totals = (totals[:, :, None] + dists[:, s, None, :]).reshape(rows, -1)
    sel, _ = first_in_order(totals, count)
    return sel, np.take_along_axis(totals, sel, axis=1)


def _pruned_merge(dists: np.ndarray, k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`_nearest` by a prefix prune-and-merge over the segments.

    Segment 1's first `count` sub-words are the first prefixes, in the order
    the stable sort gives them. A later step keeps each row's first `count`
    pairs by `first_in_order`, and the (count+1)-th distance it returns for a
    middle step joins the lower bound.
    """
    rows, m, _ = dists.shape
    order = np.argsort(dists, axis=2, kind="stable")
    sorted_d = np.take_along_axis(dists, order, axis=2)
    row = np.arange(rows)[:, None]
    # segment 1 alone: its first sub-words are the prefixes, already in
    # (distance, id) order, and the first one left out bounds the rest
    totals = sorted_d[:, 0, :count]
    wids = order[:, 0, :count]
    # lower bound on the summed distance of every word left out so far
    bound = sorted_d[:, 0, count] if count < k else np.full(rows, np.inf)
    for s in range(1, m):
        pre, sub, cut, cut_edge = _pairs(count, totals.shape[1], k)
        cand = totals[:, pre] + sorted_d[:, s, sub]
        cand_w = wids[:, pre] * k + order[:, s, sub]
        bound = bound + sorted_d[:, s, 0]
        if len(cut):
            bound = np.minimum(bound, (totals[:, cut] + sorted_d[:, s, cut_edge]).min(axis=1))
        sel, kth = first_in_order(cand, count, cand_w)
        if s < m - 1:
            bound = np.minimum(bound, kth)
        totals = cand[row, sel]
        wids = cand_w[row, sel]
    for r in np.flatnonzero(~(bound > totals[:, -1])):
        wids[r], totals[r] = zip(*_merge_nearest(dists[r], k, count))
    return wids, totals


def first_in_order(values: np.ndarray, count: int,
                   keys: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first `count` columns of the (rows, n) values in (value, key)
    order, keys (rows, n) defaulting to the column indices, and its (count+1)-th
    smallest value, or inf where count >= n: the one exact first-S selection of
    both quantizers. A partition keeps the `count` smallest values and sorts
    only those; a row whose count-th value ties the (count+1)-th, or that holds
    a NaN, is sorted whole, all such rows in one `lexsort`."""
    rows, n = values.shape
    row = np.arange(rows)[:, None]
    if count < n:
        part = np.argpartition(values, count, axis=1)
        sel = part[:, :count]
        first = values[row, sel]
        kth = values[row[:, 0], part[:, count]]
        sel = sel[row, np.lexsort((sel if keys is None else keys[row, sel], first), axis=1)]
        ties = np.flatnonzero(~(first.max(axis=1) < kth))
    else:
        sel, kth, ties = np.empty((rows, n), dtype=np.intp), np.full(rows, np.inf), row[:, 0]
    if len(ties):
        keys = np.broadcast_to(np.arange(n), values.shape) if keys is None else keys
        sel[ties] = np.lexsort((keys[ties], values[ties]), axis=1)[:, :count]
    return sel, kth


def _pairs(count: int, n_pre: int, k: int) -> tuple[np.ndarray, ...]:
    """The layout of one merge step over `n_pre` prefixes: the prefix rank
    and sub-word rank of every pair the step scores, (i+1)(j+1) <= count
    with j < K, and the prefix ranks whose pairs stop short of K with the
    first sub-word rank each leaves out."""
    # first sub-word rank left out after each prefix rank
    edge = count // np.arange(1, n_pre + 1)
    pre, sub = np.nonzero(edge[:, None] > np.arange(min(count, k)))
    cut = np.flatnonzero(edge < k)
    return pre, sub, cut, edge[cut]


def _merge_nearest(dists: np.ndarray, k: int, count: int) -> list[tuple[int, float]]:
    """Multi-sequence heap merge over one row's per-segment sorted distance
    lists: the exact answer for the rows `_pruned_merge` cannot certify, at
    the count it checked.

    Explores product words in nondecreasing summed distance, so at most
    O(count * M) heap operations; K^M candidates are never enumerated.
    """
    m = dists.shape[0]
    orders = np.argsort(dists, axis=1, kind="stable")
    sorted_d = np.take_along_axis(dists, orders, axis=1)

    def entry(pos: tuple[int, ...]):
        total = float(sum(sorted_d[s][p] for s, p in enumerate(pos)))
        wid = encode_word((orders[s][p] for s, p in enumerate(pos)), k)
        return (total, wid, pos)

    start = (0,) * m
    heap = [entry(start)]
    seen = {start}
    popped: list[tuple[float, int]] = []
    # Totals pop in nondecreasing order: float addition rounds monotonically,
    # so a successor's total is never below that of the entry whose pop
    # pushed it, and the heap pops its least. So the count-th pop holds the
    # count-th total. Keep popping while equal totals may remain, so the
    # (distance, word id) tie-break is globally correct; equal totals can pop
    # out of word id order, hence the final sort.
    while heap:
        if len(popped) >= count and heap[0][0] > popped[count - 1][0]:
            break
        total, wid, pos = heapq.heappop(heap)
        popped.append((total, wid))
        for s in range(m):
            if pos[s] + 1 < k:
                nxt = pos[:s] + (pos[s] + 1,) + pos[s + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, entry(nxt))
    popped.sort()
    return [(wid, total) for total, wid in popped[:count]]


def reconstruct_batch(wids: np.ndarray, cb: PqCodebook) -> np.ndarray:
    """Reconstructed centroids for an array of word ids, of shape
    wids.shape + (D,) at the codebook's dtype: the concatenation of the M
    sub-centroids each word id encodes."""
    rows = cb.stacked_rows(wids)
    subs = np.take(cb.sub_codebooks.reshape(-1, cb.sub_codebooks.shape[2]), rows, axis=0)
    return subs.reshape(*rows.shape[:-1], cb.dim)
