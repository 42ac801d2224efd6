import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnidx import pq, vecio
from cnnidx.baseline import LshConfig
from cnnidx.embed import EmbedConfig
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqCodebook, PqConfig
from cnnidx.search import QueryConfig
from cnnidx.vecio import FeatureSet, SynthSpec


def random_codebook(k, m, seg_dim, seed=0):
    """A codebook built directly from random centroids (no training)."""
    rng = np.random.default_rng(seed)
    sub = rng.standard_normal((m, k, seg_dim)).astype(np.float32)
    return PqCodebook(sub_codebooks=sub)


def exhaustive_ranking(x, cb):
    """Oracle: every product word scored by its summed segment distances,
    sorted by (distance, word id)."""
    m, k, _ = cb.sub_codebooks.shape
    x = np.asarray(x, dtype=np.float64)
    seg_dim = cb.dim // m
    rows = []
    for wid in range(k**m):
        total = 0.0
        for s, w in enumerate(pq.decode_word(wid, k, m)):
            diff = x[s * seg_dim : (s + 1) * seg_dim] - cb.sub_codebooks[s][w].astype(np.float64)
            total += float(diff @ diff)
        rows.append((total, wid))
    rows.sort()
    return rows


class TestWordCodec:
    def test_zero_tuple(self):
        assert pq.encode_word((0, 0, 0), 5) == 0
        assert pq.decode_word(0, 5, 3) == (0, 0, 0)

    def test_segment_one_most_significant(self):
        assert pq.encode_word((3, 7), 10) == 37
        assert pq.decode_word(37, 10, 2) == (3, 7)

    def test_round_trip_random_tuples(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            tup = tuple(int(v) for v in rng.integers(0, k, size=m))
            assert pq.decode_word(pq.encode_word(tup, k), k, m) == tup

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pq.decode_word(16, 4, 2)

    @pytest.mark.parametrize("k, m", [(1, 3), (5, 1), (4, 3), (64, 2)])
    def test_array_decode_matches_single(self, k, m):
        wids = np.arange(k**m).reshape(-1, 1)
        subs = pq.decode_words(wids, k, m)
        assert len(subs) == m and all(sub.shape == wids.shape for sub in subs)
        got = np.stack([sub[:, 0] for sub in subs], axis=1)
        assert [tuple(row) for row in got.tolist()] == [pq.decode_word(w, k, m)
                                                       for w in range(k**m)]


class TestPqConfig:
    def test_huge_segment_count_rejected_quickly(self):
        """K^M for K = 2, M = 10^7 has three million digits; the config
        refuses M before computing it."""
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"K\^M does not fit in a 64-bit word id"):
            PqConfig(segments=10**7, words_per_segment=2)
        assert time.perf_counter() - t0 < 1.0

    def test_word_id_bound(self):
        PqConfig(segments=62, words_per_segment=2)  # 2^62 words
        PqConfig(segments=10**7, words_per_segment=1)  # one word
        with pytest.raises(ValueError, match="64-bit word id"):
            PqConfig(segments=63, words_per_segment=2)
        with pytest.raises(ValueError, match="64-bit word id"):
            PqConfig(segments=2, words_per_segment=2**32)


# each config by name: how to make it, and valid values of its integer fields
CONFIGS = {
    "PqConfig": (PqConfig, dict(segments=2, words_per_segment=4)),
    "BuildConfig": (lambda **kw: BuildConfig(scheme="tifc", **kw),
                    dict(link_count=2, code_length=8)),
    "QueryConfig": (QueryConfig, dict(assignment_count=2, hamming_threshold=3, top_k=5)),
    "LshConfig": (LshConfig, dict(tables=2, bits_per_table=8)),
    "EmbedConfig": (EmbedConfig, dict(code_length=8)),
    "SynthSpec": (lambda **kw: SynthSpec(cluster_stddev=1.0, noise_stddev=0.1, **kw),
                  dict(n_clusters=2, points_per_cluster=3, dim=4, seed=0)),
}
INT_FIELDS = [(config, name) for config, (_, values) in CONFIGS.items() for name in values]


class TestIntegerFields:
    """Every integer field of the six configs goes through `vecio.check_ints`:
    a numpy integer passes and is kept as a Python int, and a bool, float,
    str or None is a ValueError that names the field."""

    @pytest.mark.parametrize("value", [2.5, True, "4", None])
    @pytest.mark.parametrize("config, name", INT_FIELDS)
    def test_non_integer_rejected(self, config, name, value):
        make, values = CONFIGS[config]
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(**{**values, name: value})

    @pytest.mark.parametrize("config, name", INT_FIELDS)
    def test_numpy_integer_kept_as_int(self, config, name):
        make, values = CONFIGS[config]
        cfg = make(**{**values, name: np.int64(4)})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 4

    def test_numpy_segments_do_not_wrap_the_word_bound(self):
        """3^40 wraps in int64 arithmetic; the bound sees Python ints."""
        with pytest.raises(ValueError, match="64-bit word id"):
            PqConfig(segments=np.int64(40), words_per_segment=np.int64(3))


class TestTrain:
    def test_k1_gives_segment_means(self):
        rng = np.random.default_rng(0)
        data = FeatureSet(rng.standard_normal((30, 6)).astype(np.float32))
        cb = pq.train(data, PqConfig(segments=3, words_per_segment=1))
        for s in range(3):
            seg = data.vectors[:, 2 * s : 2 * s + 2].astype(np.float64)
            np.testing.assert_allclose(cb.sub_codebooks[s][0], seg.mean(axis=0), rtol=1e-5)

    def test_two_separated_pairs(self):
        # exhaustive 2-partition oracle: the optimum clusters each pair together
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]],
                       dtype=np.float32)
        cb = pq.train(FeatureSet(pts), PqConfig(segments=1, words_per_segment=2))
        got = sorted(cb.sub_codebooks[0].tolist())
        np.testing.assert_allclose(got, [[0.1, 0.0], [10.1, 10.0]], atol=1e-5)

    def test_shapes(self):
        rng = np.random.default_rng(2)
        data = FeatureSet(rng.standard_normal((50, 4)).astype(np.float32))
        cb = pq.train(data, PqConfig(segments=2, words_per_segment=3))
        assert cb.sub_codebooks.shape == (2, 3, 2)
        assert cb.dim == 4 and cb.word_count == 9

    def test_determinism(self):
        rng = np.random.default_rng(3)
        data = FeatureSet(rng.standard_normal((60, 8)).astype(np.float32))
        cfg = PqConfig(segments=2, words_per_segment=4)
        a = pq.train(data, cfg)
        b = pq.train(data, cfg)
        np.testing.assert_array_equal(a.sub_codebooks, b.sub_codebooks)

    def test_too_few_training_vectors(self):
        data = FeatureSet(np.zeros((3, 4), dtype=np.float32) + np.arange(4))
        with pytest.raises(ValueError, match="at least"):
            pq.train(data, PqConfig(segments=2, words_per_segment=5))

    def test_dim_not_divisible(self):
        rng = np.random.default_rng(4)
        data = FeatureSet(rng.standard_normal((10, 5)).astype(np.float32))
        with pytest.raises(ValueError, match="divisible"):
            pq.train(data, PqConfig(segments=2, words_per_segment=2))

    def test_lloyd_wcss_monotone(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 4))
        wcss_by_iters = []
        for iters in (1, 2, 4, 8, 25):
            centroids = pq._kmeans(pts.copy(), 8, iters, np.random.default_rng(0))
            wcss_by_iters.append(reference_pairwise_sq_dists(pts, centroids).min(axis=1).sum())
        assert all(a >= b - 1e-9 for a, b in zip(wcss_by_iters, wcss_by_iters[1:]))


def reference_kmeans(pts, k, max_iters, rng):
    """Reference Lloyd run: `pq._kmeans` as it was before its iterations were
    made allocation-free, kept verbatim with its distance helpers."""
    n = pts.shape[0]
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    d2 = reference_sq_dist_to(pts, centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[j] = pts[idx]
        np.minimum(d2, reference_sq_dist_to(pts, centroids[j]), out=d2)

    assign = None
    for _ in range(max_iters):
        dists = reference_pairwise_sq_dists(pts, centroids)
        new_assign = dists.argmin(axis=1)
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
        mind = dists[np.arange(n), assign]
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
            else:
                # steal the point currently worst-represented
                centroids[j] = pts[int(mind.argmax())]
    return centroids


def reference_sq_dist_to(pts, c):
    diff = pts - c
    return np.einsum("ij,ij->i", diff, diff)


def reference_pairwise_sq_dists(x, c):
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def kmeans_points(kind, n, seg_dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal((n, seg_dim))
    if kind == "integer":
        return rng.integers(0, 3, (n, seg_dim)).astype(np.float64)
    if kind == "offset":
        # a few distinct rows near 1e6, each repeated: once every one is a
        # seed all d2 are 0, while a row's expanded distance to its own copy
        # rounds away from 0
        base = rng.standard_normal((1 + n // 8, seg_dim)) + 1e6
        return base[rng.integers(0, len(base), n)]
    # a few distinct rows, each repeated, far from the origin
    base = rng.standard_normal((max(1, n // 3), seg_dim)) * 1e3
    return base[rng.integers(0, len(base), n)]


class ScriptedRng:
    """Stands in for the generator: k-means++ seeds at the listed rows, which
    may have zero probability."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def integers(self, n):
        return next(self.rows)

    def choice(self, n, p):
        return next(self.rows)


class TestKmeansOracle:
    """`pq._kmeans` against the reference Lloyd run: equal centroids, bit for
    bit."""

    @settings(max_examples=300, deadline=None)
    @given(seg_dim=st.sampled_from([1, 2, 3, 32]), n=st.integers(1, 40),
           k_frac=st.floats(0.0, 1.0), iters=st.sampled_from([1, 2, 25]),
           kind=st.sampled_from(["gaussian", "integer", "repeated"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, seg_dim, n, k_frac, iters, kind, seed):
        pts = kmeans_points(kind, n, seg_dim, seed)
        k = 1 + int(k_frac * (n - 1))
        want = reference_kmeans(pts.copy(), k, iters, np.random.default_rng(seed))
        got = pq._kmeans(pts.copy(), k, iters, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    def test_early_convergence_reuses_last_distances(self, monkeypatch):
        # two far-apart blobs settle in a few iterations, well before 25
        rng = np.random.default_rng(40)
        pts = np.concatenate([rng.standard_normal((50, 3)), rng.standard_normal((50, 3)) + 20])
        calls = []
        sq_dists = pq._sq_dists

        def counting(*args):
            calls.append(1)
            return sq_dists(*args)

        monkeypatch.setattr(pq, "_sq_dists", counting)
        got = pq._kmeans(pts.copy(), 2, 25, np.random.default_rng(41))
        # one call per row block (here one) per iteration run, the last of
        # which saw no change
        assert len(calls) < 25
        want = reference_kmeans(pts.copy(), 2, 25, np.random.default_rng(41))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("iters", [1, 25])
    def test_empty_cluster_takes_worst_point(self, iters):
        # seeds 0, 10, 10: the second 10 wins no point (ties go to the
        # smaller index), so its cluster is empty after the first assignment
        # and takes 2, the point farthest from its own centroid
        pts = np.array([[0.0], [1.0], [2.0], [10.0]])
        got = pq._kmeans(pts.copy(), 3, iters, ScriptedRng([0, 3, 3]))
        want = reference_kmeans(pts.copy(), 3, iters, ScriptedRng([0, 3, 3]))
        np.testing.assert_array_equal(got, want)
        if iters == 1:
            assert got.tolist() == [[1.0], [10.0], [2.0]]

    def test_train_matches_reference_codebooks(self):
        """One reference run per segment, the segments in order, all drawn
        from the one generator that seed 0 seeds."""
        rng = np.random.default_rng(42)
        data = FeatureSet(np.abs(rng.standard_normal((300, 10))).astype(np.float32))
        cfg = PqConfig(segments=2, words_per_segment=8)
        ref_rng = np.random.default_rng(0)
        want = [reference_kmeans(data.vectors[:, 5 * s : 5 * s + 5].astype(np.float64),
                                 8, 25, ref_rng).astype(np.float32) for s in range(2)]
        np.testing.assert_array_equal(pq.train(data, cfg).sub_codebooks, np.stack(want))

    @pytest.mark.parametrize("block_rows", [1, 7, 13, 64])
    def test_seeding_in_row_blocks_matches_reference(self, block_rows, monkeypatch):
        """With `CHUNK_BYTES` cut to a few rows, k-means++ seeding makes its
        differences in blocks of `block_rows` rows and each Lloyd iteration
        its distances in balanced blocks of at most 3/4 as many (K = 8 rows
        of distances against width 6); at 13 and 64 both leave a short last
        block. The distances, centroids and codebooks equal those of one
        whole difference and one whole distance matrix."""
        rng = np.random.default_rng(50)
        data = FeatureSet(rng.standard_normal((300, 12)).astype(np.float32))
        cfg = PqConfig(segments=2, words_per_segment=8)
        want = pq.train(data, cfg).sub_codebooks
        monkeypatch.setattr(vecio, "CHUNK_BYTES", block_rows * 6 * 16)
        pts = data.vectors[:, :6].astype(np.float64)
        for c in (pts[0], pts[299], np.zeros(6)):
            np.testing.assert_array_equal(pq.sq_dist_to(pts, c), reference_sq_dist_to(pts, c))
        blocks = []
        sq_dists = pq._sq_dists

        def recording(x, x_sq, c, out):
            blocks.append(len(out))
            return sq_dists(x, x_sq, c, out)

        monkeypatch.setattr(pq, "_sq_dists", recording)
        got = pq._kmeans(pts.copy(), 8, 25, np.random.default_rng(52))
        ref = reference_kmeans(pts.copy(), 8, 25, np.random.default_rng(52))
        np.testing.assert_array_equal(got, ref)
        step = max(1, block_rows * 6 // 8)
        passes, rest = divmod(len(blocks), -(-300 // step))
        assert not rest and max(blocks) <= step and sum(blocks) == 300 * passes
        assert (blocks[-1] < blocks[0]) == (block_rows in (13, 64))
        np.testing.assert_array_equal(pq.train(data, cfg).sub_codebooks, want)

    def test_lloyd_peak_within_half_the_budget(self, monkeypatch):
        """4,000 rows of width 16 into K = 32 under a 256 KiB budget: one
        (n, K) distance matrix would take 1,000 KiB, nearly eight times half
        the budget. `_kmeans` holds the points' transposed copy (or,
        before it, their squares), a few (n,) arrays and one distance block,
        so its traced peak stays below two float64 copies of the points
        plus half the budget."""
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 256 << 10)
        pts = np.random.default_rng(55).standard_normal((4_000, 16))
        rng = np.random.default_rng(56)
        tracemalloc.start()
        try:
            pq._kmeans(pts, 32, 3, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 4_000 * 32 * 8 > vecio.CHUNK_BYTES // 2
        assert peak < 2 * pts.nbytes + vecio.CHUNK_BYTES // 2, peak

    @pytest.mark.parametrize("n, dim, m, k, seed", [
        (1_500, 12, 3, 16, 47), (2_000, 8, 1, 64, 48), (400, 16, 4, 5, 49),
    ])
    def test_train_matches_choice_seeding(self, n, dim, m, k, seed):
        """The reference draws the one run of every segment, in order, from
        one generator with `rng.choice(n, p=...)`, as `pq.train` does, and
        gives the same codebooks on larger data."""
        rng = np.random.default_rng(seed - 1)
        data = FeatureSet(np.abs(rng.standard_normal((n, dim))).astype(np.float32))
        cfg = PqConfig(segments=m, words_per_segment=k)
        ref_rng = np.random.default_rng(0)
        seg_dim = dim // m
        want = [reference_kmeans(data.vectors[:, seg_dim * s : seg_dim * (s + 1)]
                                 .astype(np.float64), k, 25, ref_rng).astype(np.float32)
                for s in range(m)]
        np.testing.assert_array_equal(pq.train(data, cfg).sub_codebooks, np.stack(want))

    def test_segment_distances_match_reference(self):
        """One row's distances are bit-identical to its row of a batch. They
        equal the sum of squared differences to 1e-12 relative, not bit for
        bit: the kernel expands ||x - c||^2 as ||x||^2 - 2 x.c + ||c||^2,
        which rounds differently."""
        cb = random_codebook(k=16, m=2, seg_dim=3, seed=44)
        xs = np.random.default_rng(45).standard_normal((30, 6))
        got = pq.segment_distances_batch(xs, cb)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(pq.segment_distances(x, cb), got[i])
        for s in range(2):
            seg = xs[:, 3 * s : 3 * s + 3]
            diff = seg[:, None, :] - cb.sub_codebooks[s].astype(np.float64)
            np.testing.assert_allclose(got[:, s], (diff * diff).sum(axis=-1), rtol=1e-12)
        # within 1e-9 of a word the expanded form rounds below 0 unless clamped
        near = pq.reconstruct_batch(np.arange(cb.word_count), cb).astype(np.float64)
        near += 1e-9 * np.random.default_rng(46).standard_normal(near.shape)
        assert pq.segment_distances_batch(near, cb).min() >= 0.0


class TestLloydExactness:
    """The traps of the Lloyd update that sums each column with one
    `np.bincount` and reads the unclamped distances, against the reference
    run, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_width_one_segments_match_reference(self, seed):
        """Hundreds of members per cluster: numpy means a (members, 1) block
        by a pairwise sum, which a row-order sum does not reproduce."""
        rng = np.random.default_rng(70 + seed)
        pts = rng.standard_normal((900, 1)) * 1e3 + rng.standard_normal((900, 1))
        want = reference_kmeans(pts.copy(), 3, 25, np.random.default_rng(seed))
        got = pq._kmeans(pts.copy(), 3, 25, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        # the trap is live: a row-order mean of some cluster differs
        assign = reference_pairwise_sq_dists(pts, want).argmin(axis=1)
        row_order = [np.cumsum(pts[assign == j, 0])[-1] / np.sum(assign == j)
                     for j in range(3)]
        means = [pts[assign == j].mean(axis=0)[0] for j in range(3)]
        assert min(np.bincount(assign)) > 100 and row_order != means

    @pytest.mark.parametrize("iters", [1, 2, 25])
    @pytest.mark.parametrize("seed", [3, 5])
    def test_negative_minimum_rows_match_reference(self, iters, seed, monkeypatch):
        """Rows repeated at the 1e3 scale: the expanded distance to a
        centroid on the row rounds below 0, and with more clusters than
        distinct rows several columns of a row tie at 0 once clamped."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((5, 3)) * 1e3
        pts = base[rng.integers(0, len(base), 400)]
        traps = []
        sq_dists = pq._sq_dists

        def recording(*args):
            out = sq_dists(*args)
            traps.append(int(((out.min(axis=1) < 0) & ((out <= 0).sum(axis=1) > 1)).sum()))
            return out

        monkeypatch.setattr(pq, "_sq_dists", recording)
        got = pq._kmeans(pts.copy(), 8, iters, np.random.default_rng(seed))
        want = reference_kmeans(pts.copy(), 8, iters, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        assert sum(traps) > 0

    def test_nearest_centroid_reads_negatives_as_zero(self):
        rng = np.random.default_rng(8)
        dists = rng.choice([-1.0, -1e-12, -0.0, 0.0, 1e-12, 1.0, 2.0], (500, 6))
        dists[0] = [3.0, -1e-9, 0.0, -2.0, 1.0, 0.5]
        assign, mins = pq._nearest_centroid(dists.copy())
        clamped = np.maximum(dists, 0.0)
        np.testing.assert_array_equal(assign, clamped.argmin(axis=1))
        np.testing.assert_array_equal(mins, clamped.min(axis=1))
        assert assign[0] == 1 and mins[0] == 0.0
        assert (dists.argmin(axis=1) != assign).sum() > 50

    def test_benchmark_shaped_run_matches_reference(self, monkeypatch):
        """5,000 rows of width 32 into K = 64 for all 25 iterations, as the
        segments of the benchmark's IFC build run."""
        pts = np.random.default_rng(62).standard_normal((5_000, 32))
        calls = []
        sq_dists = pq._sq_dists

        def counting(*args):
            calls.append(1)
            return sq_dists(*args)

        monkeypatch.setattr(pq, "_sq_dists", counting)
        got = pq._kmeans(pts.copy(), 64, 25, np.random.default_rng(63))
        # no early stop: one distance block (all 5,000 rows) per iteration
        assert len(calls) == 25
        want = reference_kmeans(pts.copy(), 64, 25, np.random.default_rng(63))
        np.testing.assert_array_equal(got, want)


class CountingRng:
    """A generator that counts its uniform integer draws: k-means++ takes one
    for its first seed and one for each seed drawn once every d2 is 0."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.integer_draws = 0

    def integers(self, n):
        self.integer_draws += 1
        return self.gen.integers(n)

    def choice(self, n, p):
        return self.gen.choice(n, p=p)


def recording_sq_dist_to(monkeypatch):
    """Route `pq.sq_dist_to` through a spy; returns the list of the `rows`
    argument of its calls: None for a call on every row."""
    calls = []
    sq_dist_to = pq.sq_dist_to

    def spy(pts, c, rows=None):
        calls.append(None if rows is None else rows.copy())
        return sq_dist_to(pts, c, rows)

    monkeypatch.setattr(pq, "sq_dist_to", spy)
    return calls


class TestSeedingScreen:
    """k-means++ seeding computes the exact distances only of the rows that
    `pq._screen` cannot certify, so every seed must stay bit-identical to
    the reference's full passes, and the screen must bound both forms."""

    @settings(max_examples=100, deadline=None)
    @given(seg_dim=st.sampled_from([1, 2, 3, 32]), n=st.integers(2, 40),
           extra=st.integers(1, 10), iters=st.sampled_from([1, 25]),
           seed=st.integers(0, 2**32 - 1))
    def test_offset_rows_reach_uniform_draws(self, seg_dim, n, extra, iters, seed):
        pts = kmeans_points("offset", n, seg_dim, seed)
        k = min(n, 1 + n // 8 + extra)  # more seeds than distinct rows
        rng = CountingRng(seed)
        got = pq._kmeans(pts.copy(), k, iters, rng)
        want = reference_kmeans(pts.copy(), k, iters, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        distinct = len(np.unique(pts, axis=0))
        assert rng.integer_draws == 1 + (k - distinct)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offset_rows_expanded_form_is_not_zero(self, seed, monkeypatch):
        """The trap is live: at 1e6 the expanded distance of some row to a copy
        of itself is not 0 where `sq_dist_to`'s is, and seeding still matches."""
        pts = kmeans_points("offset", 200, 32, seed)
        x_sq = pq._sq_norms(pts)
        expanded = x_sq - 2.0 * (pts @ pts.T) + x_sq.T
        same = (pts[:, None, :] == pts[None, :, :]).all(axis=2)
        assert (expanded[same] != 0).any() and (pq.sq_dist_to(pts, pts[0])[same[0]] == 0).all()
        calls = recording_sq_dist_to(monkeypatch)
        rng = CountingRng(seed)
        got = pq._kmeans(pts.copy(), 40, 25, rng)
        want = reference_kmeans(pts.copy(), 40, 25, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)
        assert rng.integer_draws > 1 and len(calls) == 39  # the last seed's are not needed
        # once every distinct row is a seed, every d2 is 0 and no row is recomputed
        assert len(calls[-1]) == 0

    @pytest.mark.parametrize("iters", [1, 25])
    @pytest.mark.parametrize("offset, seg_dim", [(1e154, 4), (5e153, 1)])
    def test_overflowing_norms_fall_back_to_exact(self, offset, seg_dim, iters, monkeypatch):
        """Rows far from the origin spread at the 1e150 scale: their squared
        norms overflow (at 1e154) or exceed 1/8 of the float64 maximum (at
        5e153), so the screen certifies no row and every step sends all of
        them to `sq_dist_to`, whose differences stay finite."""
        rng = np.random.default_rng(90)
        pts = offset + 1e150 * rng.standard_normal((40, seg_dim))
        calls = recording_sq_dist_to(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            assert (pq._sq_norms(pts) > np.finfo(np.float64).max / 8).all()
            got = pq._kmeans(pts.copy(), 6, iters, np.random.default_rng(91))
            want = reference_kmeans(pts.copy(), 6, iters, np.random.default_rng(91))
        np.testing.assert_array_equal(got, want)
        assert calls[0] is None and [len(rows) for rows in calls[1:]] == [40] * 4

    def test_rows_above_norm_cap_are_never_certified(self, monkeypatch):
        """Two rows at 5e153 among gaussian rows: their squared norms exceed
        1/8 of the float64 maximum, so every screened step recomputes them,
        even after a seed near the origin."""
        rng = np.random.default_rng(92)
        pts = np.concatenate([5e153 + 1e150 * rng.standard_normal((2, 1)),
                              rng.standard_normal((38, 1))])
        calls = recording_sq_dist_to(monkeypatch)
        got = pq._kmeans(pts.copy(), 8, 25, np.random.default_rng(93))
        want = reference_kmeans(pts.copy(), 8, 25, np.random.default_rng(93))
        np.testing.assert_array_equal(got, want)
        assert all({0, 1} <= set(rows.tolist()) for rows in calls[1:])
        assert min(len(rows) for rows in calls[1:]) < 40

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([1, 3, 32, 2048]), log_scale=st.floats(-3.0, 6.0),
           near=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_expanded_form_within_bound(self, d, log_scale, near, seed):
        """The expanded distance, summed in several orders, is within the
        bound of `sq_dist_to`'s; the screen is below it, and close enough to
        certify a row whose distance clears d2 by twice the bound."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        c = rng.standard_normal(d) * scale
        pts = rng.standard_normal((30, d)) * scale
        if near:  # rows next to c, where the expanded form cancels
            pts = c + 1e-6 * pts
        exact = pq.sq_dist_to(pts, c)
        x_sq = pq._sq_norms(pts)[:, 0]
        cc = float(c @ c)
        s = pq._screen_slack(d)
        bound = s / 2 * (x_sq + cc + np.finfo(np.float64).tiny)
        dots = (pts @ c, np.einsum("ij,j->i", pts, c), (pts[:, ::-1] * c[::-1]).sum(axis=1))
        for dot in dots:
            for expanded in (x_sq - 2.0 * dot + cc, (x_sq + cc) - 2.0 * dot):
                assert (np.abs(expanded - exact) <= bound).all()
        screen = pq._screen(pts, pq._screen_lows(x_sq, d), c, np.empty(len(pts)))
        assert (screen <= exact).all()
        assert (exact - screen <= 4 * bound).all()

    def test_fast_path_stays_live(self, monkeypatch):
        """The benchmark-shaped run (5,000 rows of width 32 into K = 64)
        computes at most 15% of its screened row-steps exactly."""
        pts = np.random.default_rng(62).standard_normal((5_000, 32))
        calls = recording_sq_dist_to(monkeypatch)
        pq._kmeans(pts.copy(), 64, 25, np.random.default_rng(63))
        assert calls[0] is None and len(calls) == 63
        assert sum(len(rows) for rows in calls[1:]) <= 0.15 * 5_000 * 62

    @pytest.mark.parametrize("kind", ["gaussian", "integer", "repeated"])
    @pytest.mark.parametrize("seg_dim", [1, 3, 32])
    def test_sq_dists_matches_expanded_formula(self, kind, seg_dim):
        """The -2 folded into the matmul operand leaves every bit of
        x_sq - 2 (x @ c.T) + cc."""
        x = kmeans_points(kind, 300, seg_dim, seg_dim)
        c = x[np.random.default_rng(seg_dim).choice(300, 16, replace=False)] + 0.5
        x_sq = pq._sq_norms(x)
        got = pq._sq_dists(x, x_sq, c, np.empty((300, 16)))
        assert np.array_equal(got, x_sq - 2.0 * (x @ c.T) + (c * c).sum(axis=1))


class TestMergeCutTies:
    """`_nearest` keeps each step's first `count` pairs by a partition, so a
    row whose count-th distance ties a left-out pair must still choose by
    word id. Integer distances tie often; the oracle ranks all K^M words."""

    @staticmethod
    def exhaustive(dists):
        """Every word's sum (added left to right) and the words of each row in
        (distance, word id) order."""
        rows, m, k = dists.shape
        totals = dists[:, 0]
        for s in range(1, m):
            totals = (totals[:, :, None] + dists[:, s, None, :]).reshape(rows, -1)
        wids = np.broadcast_to(np.arange(k**m), totals.shape)
        order = np.lexsort((wids, totals), axis=1)
        return np.take_along_axis(totals, order, axis=1), order

    @pytest.mark.parametrize("m, k", [(2, 6), (3, 4)])
    def test_integer_rows_match_exhaustive(self, m, k):
        dists = np.random.default_rng(m).integers(0, 3, (120, m, k)).astype(np.float64)
        totals, wids = self.exhaustive(dists)
        prefixes = np.sort((dists[:, 0, :, None] + dists[:, 1, None, :]).reshape(len(dists), -1))
        cut_ties = {"middle": 0, "last": 0}
        for count in range(1, k**m):
            got_wids, got_totals = pq._nearest(dists, k, count)
            np.testing.assert_array_equal(got_wids, wids[:, :count], err_msg=f"count {count}")
            np.testing.assert_array_equal(got_totals, totals[:, :count])
            cut_ties["last"] += (totals[:, count - 1] == totals[:, count]).sum()
            if m == 3 and count < k * k:
                cut_ties["middle"] += (prefixes[:, count - 1] == prefixes[:, count]).sum()
        assert cut_ties["last"] > 0 and (m == 2 or cut_ties["middle"] > 0)

    def test_one_row_matches_batch(self):
        dists = np.random.default_rng(9).integers(0, 3, (50, 3, 4)).astype(np.float64)
        for count in (1, 5, 16, 17, 40):
            batch = pq._nearest(dists, 4, count)
            for r in range(len(dists)):
                one = pq._nearest(dists[r:r + 1], 4, count)
                np.testing.assert_array_equal(one[0][0], batch[0][r])
                np.testing.assert_array_equal(one[1][0], batch[1][r])


class TestFirstInOrder:
    """`first_in_order` against a full lexsort of every row. Values in
    {0, 1, 2} tie at the cut in some rows of a call and not in others, so the
    whole-row sort of the tie rows and the partition of the rest both run."""

    @pytest.mark.parametrize("permuted", [False, True], ids=["column-keys", "permuted-keys"])
    def test_matches_full_lexsort_every_count(self, permuted):
        rng = np.random.default_rng(71 + permuted)
        rows, n = 60, 12
        values = rng.integers(0, 3, (rows, n)).astype(np.float64)
        values[0] = 1.0  # one row of equal values
        keys = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1) if permuted else None
        columns = np.broadcast_to(np.arange(n), values.shape)
        full = np.lexsort((columns if keys is None else keys, values), axis=1)
        ordered = np.take_along_axis(values, full, axis=1)
        for count in range(1, n + 1):
            sel, kth = pq.first_in_order(values, count, keys)
            np.testing.assert_array_equal(sel, full[:, :count], err_msg=f"count {count}")
            if count < n:
                np.testing.assert_array_equal(kth, ordered[:, count])
                ties = np.count_nonzero(ordered[:, count - 1] == ordered[:, count])
                assert 1 < ties < rows
            else:
                assert np.all(kth == np.inf)


class TestAssign:
    def test_exact_product_centroid(self):
        cb = random_codebook(k=8, m=2, seg_dim=3, seed=6)
        x = np.concatenate([cb.sub_codebooks[0][3], cb.sub_codebooks[1][7]])
        assert pq.assign(x, cb) == pq.encode_word((3, 7), 8)

    def test_matches_exhaustive_oracle(self):
        cb = random_codebook(k=4, m=2, seg_dim=2, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = rng.standard_normal(4)
            assert pq.assign(x, cb) == exhaustive_ranking(x, cb)[0][1]

    def test_m1_is_nearest_centroid(self):
        cb = random_codebook(k=6, m=1, seg_dim=5, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.standard_normal(5)
            dists = ((cb.sub_codebooks[0].astype(np.float64) - x) ** 2).sum(axis=1)
            assert pq.assign(x, cb) == int(dists.argmin())

    def test_tie_break_smaller_subword(self):
        # duplicate centroids with integer coordinates: distances are exact
        sub = np.array([[[2.0, 0.0], [1.0, 0.0], [1.0, 0.0]]], dtype=np.float32)
        cb = PqCodebook(sub_codebooks=sub)
        assert pq.assign(np.array([0.0, 0.0]), cb) == 1

    def test_dimension_mismatch(self):
        cb = random_codebook(k=2, m=2, seg_dim=2)
        with pytest.raises(ValueError):
            pq.assign(np.zeros(5), cb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["segment_distances", "assign", "nearest_words"])
    def test_non_finite_vector_rejected(self, entry, bad):
        """As `search` does for a query: NaN distances would rank words by
        id alone."""
        cb = random_codebook(k=4, m=2, seg_dim=2)
        x = np.zeros(4)
        x[1] = bad
        args = (3,) if entry == "nearest_words" else ()
        with pytest.raises(ValueError, match="vector must be finite"):
            getattr(pq, entry)(x, cb, *args)

    def test_rounding_tie_goes_to_smaller_word(self):
        """Words 0 = (0, 0) and 2 = (1, 0) sum to the same float64 distance,
        although sub-word 1 of segment 0 is strictly nearer: `assign` agrees
        with `nearest_words`, the codebook's `words` and the build (word 0),
        where a per-segment argmin gives 2."""
        sub = np.array([[[1 + 2.0**-23], [1.0]],
                        [[np.float32(2**16.5)], [3e5]]], dtype=np.float32)
        cb = PqCodebook(sub_codebooks=sub)
        x = np.zeros(2)
        dists = pq.segment_distances(x, cb)
        assert dists[0, 1] < dists[0, 0]
        ranked = pq.nearest_words(x, cb, 2)
        assert [w for w, _ in ranked] == [0, 2] and ranked[0][1] == ranked[1][1]
        assert pq.assign(x, cb) == 0 == cb.words(x[None], 1)[0, 0]


class TestNearestWords:
    def test_s1_consistent_with_assign(self):
        cb = random_codebook(k=5, m=2, seg_dim=2, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal(4)
            assert pq.nearest_words(x, cb, 1)[0][0] == pq.assign(x, cb)

    def test_full_enumeration_matches_oracle(self):
        cb = random_codebook(k=3, m=2, seg_dim=2, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.standard_normal(4)
            got = [w for w, _ in pq.nearest_words(x, cb, 9)]
            assert got == [w for _, w in exhaustive_ranking(x, cb)]

    def test_every_s_matches_oracle_prefix(self):
        cb = random_codebook(k=4, m=3, seg_dim=2, seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(6)
        oracle = [w for _, w in exhaustive_ranking(x, cb)]
        for s in range(1, 65):
            assert [w for w, _ in pq.nearest_words(x, cb, s)] == oracle[:s]

    def test_prefix_property(self):
        cb = random_codebook(k=6, m=2, seg_dim=3, seed=17)
        rng = np.random.default_rng(18)
        x = rng.standard_normal(6)
        prev = []
        for s in range(1, 37):
            cur = [w for w, _ in pq.nearest_words(x, cb, s)]
            assert cur[: len(prev)] == prev
            prev = cur

    def test_tie_break_by_smaller_word_id(self):
        # both centroids of segment 2 identical: words (w1, 0) and (w1, 1) tie
        sub = np.zeros((2, 2, 1), dtype=np.float32)
        sub[0, 0, 0] = 0.0
        sub[0, 1, 0] = 4.0
        cb = PqCodebook(sub_codebooks=sub)
        got = [w for w, _ in pq.nearest_words(np.array([1.0, 0.0]), cb, 4)]
        assert got == [0, 1, 2, 3]

    def test_count_out_of_range(self):
        cb = random_codebook(k=2, m=2, seg_dim=1)
        with pytest.raises(ValueError):
            pq.nearest_words(np.zeros(2), cb, 5)

    def test_batch_matches_single(self):
        cb = random_codebook(k=4, m=2, seg_dim=2, seed=19)
        rng = np.random.default_rng(20)
        xs = rng.standard_normal((25, 4))
        batch = pq.nearest_words_batch(xs, cb, 5)
        for i in range(25):
            single = [w for w, _ in pq.nearest_words(xs[i], cb, 5)]
            assert list(batch[i]) == single

    def test_many_rows_in_one_call_match_small_chunks(self):
        """2,100 rows in one call, more than 1,024, get the words they get in
        chunks of 7 and 64 rows; integer rows and centroids make ties."""
        cb = integer_codebook(k=16, m=2, seg_dim=2, seed=33)
        rng = np.random.default_rng(34)
        xs = np.vstack([rng.integers(0, 3, (1050, cb.dim)),
                        rng.standard_normal((1050, cb.dim))]).astype(np.float64)
        whole = pq.nearest_words_batch(xs, cb, 40)
        assert whole.shape == (2100, 40)
        for chunk in (7, 64):
            parts = [pq.nearest_words_batch(xs[lo:lo + chunk], cb, 40)
                     for lo in range(0, len(xs), chunk)]
            np.testing.assert_array_equal(whole, np.concatenate(parts), err_msg=f"chunk {chunk}")


def integer_codebook(k, m, seg_dim, seed):
    """Centroids with coordinates in {0, 1, 2}: distances to integer vectors
    are exact, and duplicate centroids and equal sums tie often."""
    rng = np.random.default_rng(seed)
    sub = rng.integers(0, 3, (m, k, seg_dim)).astype(np.float32)
    return PqCodebook(sub_codebooks=sub)


class TestPrunedMerge:
    """The batch kernel against the exhaustive oracle where it prunes: K or
    the prefix count exceeds `count`, so the rank grid drops pairs."""

    # (codebook, counts, integer-valued queries)
    CASES = [
        (random_codebook(k=16, m=2, seg_dim=2, seed=24), range(1, 257), False),
        (random_codebook(k=8, m=3, seg_dim=2, seed=25), range(1, 513), False),
        (random_codebook(k=1, m=1, seg_dim=3, seed=26), [1], False),
        (random_codebook(k=1, m=3, seg_dim=1, seed=27), [1], False),
        (random_codebook(k=6, m=1, seg_dim=2, seed=28), range(1, 7), False),
        (integer_codebook(k=16, m=2, seg_dim=2, seed=29), range(1, 257), True),
        (integer_codebook(k=6, m=3, seg_dim=2, seed=30), range(1, 217), True),
    ]

    @staticmethod
    def queries(dim, integer, seed):
        rng = np.random.default_rng(seed)
        if integer:
            return rng.integers(0, 3, (6, dim)).astype(np.float64)
        return rng.standard_normal((6, dim))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_batch_matches_oracle_every_count(self, case):
        cb, counts, integer = self.CASES[case]
        xs = self.queries(cb.dim, integer, case)
        oracle = np.array([[w for _, w in exhaustive_ranking(x, cb)] for x in xs])
        for s in counts:
            np.testing.assert_array_equal(pq.nearest_words_batch(xs, cb, s), oracle[:, :s],
                                          err_msg=f"count {s}")

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_single_matches_batch_and_heap(self, case):
        cb, counts, integer = self.CASES[case]
        k = cb.sub_codebooks.shape[1]
        xs = self.queries(cb.dim, integer, 100 + case)
        for s in list(counts)[::7] + [max(counts)]:
            batch = pq.nearest_words_batch(xs, cb, s)
            for i, x in enumerate(xs):
                single = pq.nearest_words(x, cb, s)
                assert [w for w, _ in single] == list(batch[i])
                assert single == pq._merge_nearest(pq.segment_distances(x, cb), k, s)

    # Rows where float rounding breaks the dominance the pruning relies on:
    # a left-out word's sum rounds to the same value as a kept word's, and
    # the tie goes to the left-out word's smaller id. 1 + 2**53 and
    # 0.75 + 2**53 both round to 2**53.
    ROUNDING_TIES = [
        # sub-word 0 of segment 1 (1.0) is past rank count = 1, yet word
        # (0, 0) ties word (1, 0) at 2**53 and has the smaller id
        ([[1.0, 0.0], [2.0**53, 2.0**53 + 2]], 1, [0], [2.0**53]),
        # prefix (0, 1) at 0.75 is dropped after segment 2 for (1, 0) at
        # 0.5, yet its word 2 ties word 4 at 2**53
        ([[0.0, 0.5], [0.0, 0.75], [2.0**53, 2.0**53 + 1024]], 2, [0, 2],
         [2.0**53, 2.0**53]),
    ]

    @pytest.mark.parametrize("dists,count,wids,totals", ROUNDING_TIES)
    def test_rounding_tie_takes_exact_path(self, monkeypatch, dists, count, wids, totals):
        assert 1.0 + 2.0**53 == 0.75 + 2.0**53 == 2.0**53
        dists = np.array([dists])
        slow_rows = []
        heap = pq._merge_nearest

        def recording(row, k, count):
            slow_rows.append(row.copy())
            return heap(row, k, count)

        monkeypatch.setattr(pq, "_merge_nearest", recording)
        got_wids, got_totals = pq._nearest(dists, 2, count)
        assert len(slow_rows) == 1
        np.testing.assert_array_equal(slow_rows[0], dists[0])
        assert got_wids.tolist() == [wids]
        assert got_totals.tolist() == [totals]
        # the expected words are the exhaustive ranking of the float sums
        exhaustive = sorted((sum(dists[0][s][w] for s, w in
                                 enumerate(pq.decode_word(wid, 2, len(dists[0])))), wid)
                            for wid in range(2 ** len(dists[0])))
        assert [w for _, w in exhaustive[:count]] == wids

    def test_random_rows_need_no_exact_path(self, monkeypatch):
        cb = random_codebook(k=64, m=2, seg_dim=8, seed=31)
        xs = np.random.default_rng(32).standard_normal((500, cb.dim))
        monkeypatch.setattr(pq, "_merge_nearest", None)
        ids = pq.nearest_words_batch(xs, cb, 40)
        assert ids.shape == (500, 40)


class TestMergeLayoutCache:
    """`_nearest` reads each step's pair layout from `_pairs`, memoised by
    (count, prefix count, K); calls with other counts in between must not
    see a stale layout."""

    @pytest.mark.parametrize("k, m", [(16, 1), (16, 2), (8, 3)])
    def test_alternating_counts_match_oracle(self, k, m):
        cb = random_codebook(k=k, m=m, seg_dim=2, seed=50 + m)
        xs = np.random.default_rng(60 + m).standard_normal((4, cb.dim))
        oracle = np.array([[w for _, w in exhaustive_ranking(x, cb)] for x in xs])
        counts = [c for c in (1, 5, k, 40, k + 3) if c <= k**m]
        pq._pairs.cache_clear()
        for count in counts + counts[::-1] + counts:
            want = oracle[:, :count]
            got, _ = pq._nearest(pq.segment_distances_batch(xs, cb), k, count)
            np.testing.assert_array_equal(got, want, err_msg=f"count {count}")
            np.testing.assert_array_equal(pq.nearest_words_batch(xs, cb, count), want)
            single = [w for w, _ in pq.nearest_words(xs[0], cb, count)]
            assert single == want[0].tolist()
        assert pq._pairs.cache_info().hits > 0

    def test_memoised_arrays_read_only(self):
        first = pq._pairs(40, 40, 64)
        assert pq._pairs(40, 40, 64) is first
        pre, sub, cut, cut_edge = first
        assert len(pre) == len(sub) > 0 and len(cut) == len(cut_edge) > 0
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0


class TestReconstruct:
    def test_word_zero(self):
        cb = random_codebook(k=3, m=2, seg_dim=2, seed=21)
        expected = np.concatenate([cb.sub_codebooks[0][0], cb.sub_codebooks[1][0]])
        np.testing.assert_array_equal(pq.reconstruct_batch([0], cb)[0], expected)

    def test_assign_reconstruct_fixed_point(self):
        cb = random_codebook(k=4, m=2, seg_dim=3, seed=22)
        for wid, c in enumerate(pq.reconstruct_batch(np.arange(16), cb)):
            assert pq.assign(c, cb) == wid
            np.testing.assert_array_equal(pq.reconstruct_batch([pq.assign(c, cb)], cb)[0], c)

    def test_batch_matches_single(self):
        """Each row is the concatenation of the sub-centroids that the scalar
        `decode_word` names."""
        cb = random_codebook(k=5, m=3, seg_dim=2, seed=23)
        wids = np.arange(125)
        batch = pq.reconstruct_batch(wids, cb)
        for wid in wids:
            subs = pq.decode_word(int(wid), 5, 3)
            expected = np.concatenate([cb.sub_codebooks[s][w] for s, w in enumerate(subs)])
            np.testing.assert_array_equal(batch[wid], expected)
