import tracemalloc

import numpy as np
import pytest

from cnnidx import baseline, pq, vecio
from cnnidx.baseline import LshConfig
from cnnidx.vecio import CHUNK_BYTES, FeatureSet, SynthSpec, generate_synthetic


class TestBruteForce:
    def test_self_match_ranks_first(self):
        rng = np.random.default_rng(0)
        db = FeatureSet(rng.standard_normal((20, 8)).astype(np.float32))
        assert baseline.brute_force(db, db.vectors[7], 5)[0] == 7

    def test_hand_sorted_order(self):
        db = FeatureSet(np.array([[0.0, 3.0], [1.0, 0.0], [0.0, 0.5]],
                                 dtype=np.float32))
        q = np.zeros(2)
        # distances: 9, 1, 0.25 -> order 2, 1, 0
        assert baseline.brute_force(db, q, 3) == [2, 1, 0]

    def test_top_k_truncates_to_n(self):
        db = FeatureSet(np.eye(3, dtype=np.float32))
        assert len(baseline.brute_force(db, np.zeros(3), 10)) == 3

    def test_tie_break_by_smaller_id(self):
        db = FeatureSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                                 dtype=np.float32))
        assert baseline.brute_force(db, np.zeros(2), 3) == [0, 1, 2]

    def test_dim_mismatch(self):
        db = FeatureSet(np.zeros((2, 4), dtype=np.float32) + 1)
        with pytest.raises(ValueError):
            baseline.brute_force(db, np.zeros(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        """A NaN distance would sort last and rank ids by id alone."""
        db = FeatureSet(np.eye(8, dtype=np.float32))
        with pytest.raises(ValueError, match="query must be finite"):
            baseline.brute_force(db, [bad] * 8, 3)

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected(self, top_k):
        """A slice `order[:-2]` would give all but two ids, and `[:0]` none."""
        db = FeatureSet(np.eye(3, dtype=np.float32))
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            baseline.brute_force(db, np.zeros(3), top_k)

    def test_peak_bounded_on_wide_rows(self):
        """One query over 10,000 x 2,048: the float64 rows and differences
        are chunked by bytes, not by a row count that ignores D (328 MB of
        them in one chunk of 65,536 rows)."""
        rng = np.random.default_rng(8)
        db = FeatureSet(rng.standard_normal((10_000, 2_048), dtype=np.float32))
        tracemalloc.start()
        try:
            top = baseline.brute_force(db, db.vectors[5], 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert top[0] == 5
        assert peak < 32 << 20

    def test_peak_within_chunk_budget(self):
        """1,000 x 2,048 in 256-row blocks of 4 MiB float64, made in one
        reused buffer, so the distances to a query stay within CHUNK_BYTES."""
        rng = np.random.default_rng(13)
        db = FeatureSet(rng.standard_normal((1_000, 2_048), dtype=np.float32))
        tracemalloc.start()
        try:
            dists = pq.sq_dist_to(db.vectors, db.vectors[7])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        diff = db.vectors.astype(np.float64) - db.vectors[7].astype(np.float64)
        np.testing.assert_array_equal(dists, np.einsum("ij,ij->i", diff, diff))
        assert peak < CHUNK_BYTES


class TestLsh:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LshConfig(tables=1, bits_per_table=0)

    def test_bits_beyond_a_bucket_key_rejected(self):
        """A 64-bit key holds 64 planes' sign bits; `1 << 64` and above would
        collapse planes onto the same weight."""
        assert LshConfig(tables=1, bits_per_table=64).bits_per_table == 64
        with pytest.raises(ValueError, match="<= 64"):
            LshConfig(tables=1, bits_per_table=65)

    def test_dim_mismatch(self):
        """The query's shape is checked before it is hashed."""
        db = FeatureSet(np.ones((20, 8), dtype=np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables=2, bits_per_table=4))
        with pytest.raises(ValueError, match="does not match database"):
            baseline.lsh_query(ix, np.zeros(5), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        db = FeatureSet(np.ones((20, 8), dtype=np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables=2, bits_per_table=4))
        q = np.zeros(8)
        q[3] = bad
        with pytest.raises(ValueError, match="query must be finite"):
            baseline.lsh_query(ix, q, 3)

    @pytest.mark.parametrize("top_k", [0, -2])
    def test_top_k_below_one_rejected(self, top_k):
        db = FeatureSet(np.ones((20, 8), dtype=np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables=2, bits_per_table=4))
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            baseline.lsh_query(ix, db.vectors[0], top_k)

    def test_exact_duplicate_always_candidate(self):
        rng = np.random.default_rng(1)
        db = FeatureSet(rng.standard_normal((100, 16)).astype(np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables=4, bits_per_table=8))
        for i in (0, 17, 99):
            got, _ = baseline.lsh_query(ix, db.vectors[i], 10)
            assert got[0] == i

    def test_scanned_count_is_bucket_union(self):
        rng = np.random.default_rng(7)
        db = FeatureSet(rng.standard_normal((300, 8)).astype(np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables=4, bits_per_table=3))
        db_keys = baseline._hash_keys(db.vectors, ix.planes)
        for q in rng.standard_normal((20, 8)):
            ids, scanned = baseline.lsh_query(ix, q, 10)
            q_keys = baseline._hash_keys(q[None, :], ix.planes)[0]
            union = np.flatnonzero((db_keys == q_keys).any(axis=1))
            assert scanned == len(union) >= len(ids)
            # the union ranked by (distance, id)
            dists = pq.sq_dist_to(db.vectors, q, union)
            assert ids == [int(union[i]) for i in np.lexsort((union, dists))[:10]]

    def test_recall_reasonable_on_clustered_data(self):
        db, queries, _ = generate_synthetic(
            SynthSpec(n_clusters=100, points_per_cluster=100, dim=32,
                      cluster_stddev=1.0, noise_stddev=0.1, seed=5))
        ix = baseline.lsh_build(db, LshConfig(tables=8, bits_per_table=16))
        hits = total = 0
        for q in queries.vectors:
            exact = set(baseline.brute_force(db, q, 10))
            approx = set(baseline.lsh_query(ix, q, 10)[0])
            hits += len(exact & approx)
            total += 10
        assert hits / total > 0.5

    def test_recall_non_decreasing_in_tables(self):
        db, queries, _ = generate_synthetic(
            SynthSpec(n_clusters=100, points_per_cluster=20, dim=32,
                      cluster_stddev=1.0, noise_stddev=0.1, seed=6))
        exact = [set(baseline.brute_force(db, q, 10)) for q in queries.vectors]

        def recall(tables):
            ix = baseline.lsh_build(db, LshConfig(tables=tables, bits_per_table=12))
            hits = sum(len(exact[i] & set(baseline.lsh_query(ix, q, 10)[0]))
                       for i, q in enumerate(queries.vectors))
            return hits / (10 * queries.n)

        r = [recall(t) for t in (1, 4, 16)]
        assert r[0] <= r[1] + 0.05 and r[1] <= r[2] + 0.05

    @pytest.mark.parametrize("rows", [1, 7, 64, 1_000])
    def test_keys_independent_of_chunking(self, rows, monkeypatch):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((300, 48), dtype=np.float32)
        planes = rng.standard_normal((5, 12, 48))
        whole = baseline._hash_keys(vectors, planes)
        # rows of float64 (D + T*B) per chunk
        monkeypatch.setattr(vecio, "CHUNK_BYTES", rows * (48 + 5 * 12) * 8)
        chunked = baseline._hash_keys(vectors, planes)
        np.testing.assert_array_equal(chunked, whole)
        weights = 1 << np.arange(12)
        ref = np.stack([(vectors.astype(np.float64) @ planes[t].T >= 0) @ weights
                        for t in range(5)], axis=1)
        np.testing.assert_array_equal(chunked, ref)

    def test_build_peak_bounded_on_wide_rows(self):
        """4,000 x 2,048 with 8 tables of 16 bits: the rows are hashed in
        chunks of float64 rows and projections (68.4 MiB traced when the
        whole database was cast and projected at once)."""
        rng = np.random.default_rng(12)
        db = FeatureSet(rng.standard_normal((4_000, 2_048), dtype=np.float32))
        tracemalloc.start()
        try:
            ix = baseline.lsh_build(db, LshConfig(tables=8, bits_per_table=16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        # every row lies in exactly one bucket per table, the run of its key
        np.testing.assert_array_equal(np.sort(ix.rows, axis=1),
                                      np.tile(np.arange(db.n), (8, 1)))
        keys = baseline._hash_keys(db.vectors, ix.planes).T
        np.testing.assert_array_equal(ix.keys, np.take_along_axis(keys, ix.rows, axis=1))
        assert (np.diff(ix.keys, axis=1) >= 0).all()

    @pytest.mark.parametrize("tables, bits, dim", [(1, 1, 3), (4, 8, 16), (8, 16, 32)])
    def test_planes_are_seed_zeros_draw(self, tables, bits, dim):
        """The planes are no setting: one draw of seed 0 for each shape."""
        db = FeatureSet(np.ones((5, dim), dtype=np.float32))
        ix = baseline.lsh_build(db, LshConfig(tables, bits))
        np.testing.assert_array_equal(
            ix.planes, np.random.default_rng(0).standard_normal((tables, bits, dim)))

    def test_build_determinism(self):
        rng = np.random.default_rng(3)
        db = FeatureSet(rng.standard_normal((50, 8)).astype(np.float32))
        cfg = LshConfig(tables=3, bits_per_table=6)
        a = baseline.lsh_build(db, cfg)
        b = baseline.lsh_build(db, cfg)
        q = rng.standard_normal(8)
        assert baseline.lsh_query(a, q, 10) == baseline.lsh_query(b, q, 10)


@pytest.mark.parametrize("lsh", [None, LshConfig(tables=4, bits_per_table=4)],
                         ids=["bf", "lsh"])
def test_run_is_the_per_query_calls(lsh):
    """`run` gives each query the ids and scanned count of one `brute_force`
    or `lsh_query` call, and one wall time of at least 0."""
    db, queries, _ = generate_synthetic(SynthSpec(5, 20, 16, 1.0, 0.1, seed=4))
    ranked, scanned, times = baseline.run(db, queries, 7, lsh)
    if lsh is None:
        want = [(baseline.brute_force(db, q, 7), db.n) for q in queries.vectors]
    else:
        ix = baseline.lsh_build(db, lsh)
        want = [baseline.lsh_query(ix, q, 7) for q in queries.vectors]
    assert list(zip(ranked, scanned)) == want
    assert len(times) == queries.n and all(t >= 0 for t in times)
