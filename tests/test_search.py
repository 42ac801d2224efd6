import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnidx import embed, invindex, pq, search, tifc, vecio
from cnnidx.embed import EmbedConfig
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.search import QueryConfig
from cnnidx.vecio import FeatureSet
from test_pq import exhaustive_ranking, integer_codebook, random_codebook


def tifc_code(x, reference):
    """The TIFC code of row x: its segment means >= the reference's."""
    return embed.pack_bits(embed.segment_means(x, len(reference)) >= reference)


def pipeline_oracle(ix, q, cfg, vectors):
    """Independent re-implementation of the query pipeline with plain dict
    loops and per-pair encode/hamming calls. Under TIFC the index's codes
    and reference are not read: the reference is worked out here from the
    database `vectors`, the lower median of each segment's float32 means by
    `sorted`, and so is every vector's one code and the query's one code."""
    wids = search.select_words(ix, q, cfg.assignment_count)
    votes = {}
    min_h = {}
    ecfg = EmbedConfig(ix.config.code_length)
    length = ix.config.code_length
    if ix.config.scheme == invindex.SCHEME_TIFC:
        means = embed.segment_means(vectors, length).astype(np.float32)
        reference = np.array([sorted(column)[(len(vectors) - 1) // 2] for column in means.T])
        codes = [tifc_code(v, reference) for v in vectors]
        entry_codes = np.array([codes[i] for i in ix.ids])
        q_code = tifc_code(q, reference)
    else:
        entry_codes = ix.codes
    lists = {int(w): (ix.ids[lo:hi], entry_codes[lo:hi])
             for w, lo, hi in zip(ix.wids, ix.offsets[:-1], ix.offsets[1:])}
    for wid in wids:
        if ix.config.scheme == invindex.SCHEME_IFC:
            q_code = embed.encode(q, pq.reconstruct_batch([wid], ix.quantizer)[0], ecfg)
        ids, codes = lists.get(wid, (np.array([], dtype=np.int32), None))
        for row, image_id in enumerate(ids):
            d = embed.hamming(q_code, codes[row])
            if d < cfg.hamming_threshold:
                votes[int(image_id)] = votes.get(int(image_id), 0) + 1
                min_h[int(image_id)] = min(min_h.get(int(image_id), d), d)
    ranked = sorted(votes, key=lambda i: (-votes[i], min_h[i], i))[: cfg.top_k]
    return [(i, votes[i], min_h[i]) for i in ranked]


@pytest.fixture(scope="module", params=["tifc", "ifc"])
def index_pair(request, tifc_index, ifc_index):
    return tifc_index if request.param == "tifc" else ifc_index


class TestQueryConfigDefaults:
    """`query_config` fills what params leave out, or give as None, with
    `cnnidx query`'s defaults and passes the rest as they are."""

    BUILD = BuildConfig("ifc", 6, 16, PqConfig(segments=2, words_per_segment=4))

    @pytest.mark.parametrize("params, want", [
        ({}, QueryConfig(6, 6, 10)),
        ({"W": None, "T": None, "top_k": None}, QueryConfig(6, 6, 10)),
        ({"W": 2, "T": 0, "top_k": 3, "S": 9, "L": 32}, QueryConfig(2, 0, 3)),
    ], ids=["left-out", "none", "given"])
    def test_defaults(self, params, want):
        assert search.query_config(self.BUILD, params) == want

    def test_value_passed_as_it_is(self):
        with pytest.raises(ValueError, match="assignment_count must be an integer, got '2'"):
            search.query_config(self.BUILD, {"W": "2"})


class TestQuery:
    def test_matches_pipeline_oracle(self, index_pair, small_dataset):
        queries = small_dataset[1]
        cfg = QueryConfig(assignment_count=4, hamming_threshold=5, top_k=20)
        for q in queries.vectors:
            got = search.query(index_pair, q, cfg).entries
            assert got == pipeline_oracle(index_pair, q, cfg, small_dataset[0].vectors)

    def test_threshold_zero_returns_nothing(self, index_pair, small_dataset):
        q = small_dataset[1].vectors[0]
        cfg = QueryConfig(assignment_count=3, hamming_threshold=0, top_k=10)
        assert search.query(index_pair, q, cfg).entries == []

    def test_self_retrieval_five_vector_db(self):
        rng = np.random.default_rng(0)
        db = FeatureSet(rng.standard_normal((5, 16)).astype(np.float32))
        length = 16
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=2,
                                            code_length=length))
        cfg = QueryConfig(assignment_count=2, hamming_threshold=length, top_k=5)
        for i in range(5):
            res = search.query(ix, db.vectors[i], cfg)
            top_id, top_votes, top_h = res.entries[0]
            assert top_id == i
            assert top_votes == 2  # one vote per shared linked word, W = S
            assert top_h == 0

    def test_self_retrieval_single_link(self):
        rng = np.random.default_rng(1)
        db = FeatureSet(rng.standard_normal((10, 8)).astype(np.float32))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=1, code_length=8))
        cfg = QueryConfig(assignment_count=1, hamming_threshold=8, top_k=10)
        res = search.query(ix, db.vectors[4], cfg)
        entry = next(e for e in res.entries if e[0] == 4)
        assert entry[1] == 1 and entry[2] == 0

    def test_votes_bounded_by_min_s_w(self, ifc_index, small_dataset):
        for w in (1, 2, 3, 5):
            cfg = QueryConfig(assignment_count=w, hamming_threshold=8, top_k=50)
            for q in small_dataset[1].vectors:
                for _, votes, _ in search.query(ifc_index, q, cfg).entries:
                    assert 1 <= votes <= min(ifc_index.config.link_count, w)

    def test_ranking_order_invariants(self, ifc_index, small_dataset):
        cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=50)
        for q in small_dataset[1].vectors:
            entries = search.query(ifc_index, q, cfg).entries
            keys = [(-v, h, i) for i, v, h in entries]
            assert keys == sorted(keys)

    def test_determinism(self, index_pair, small_dataset):
        q = small_dataset[1].vectors[2]
        cfg = QueryConfig(assignment_count=3, hamming_threshold=5, top_k=10)
        a = search.query(index_pair, q, cfg)
        b = search.query(index_pair, q, cfg)
        assert a.entries == b.entries

    def test_threshold_above_code_length_rejected(self, index_pair):
        cfg = QueryConfig(assignment_count=1, hamming_threshold=9, top_k=5)
        with pytest.raises(ValueError):
            search.query(index_pair, np.zeros(16), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, index_pair, small_dataset, bad):
        q = small_dataset[1].vectors[0].astype(np.float64)
        q[3] = bad
        cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=5)
        with pytest.raises(ValueError, match="finite"):
            search.query(index_pair, q, cfg)
        with pytest.raises(ValueError, match="finite"):
            search.select_words(index_pair, q, 3)

    def test_dim_mismatch_rejected(self, tifc_index):
        cfg = QueryConfig(assignment_count=1, hamming_threshold=4, top_k=5)
        with pytest.raises(ValueError):
            search.query(tifc_index, np.zeros(7), cfg)

    @pytest.mark.parametrize("shape", [(7,), (24,), (32,), (1, 16), ()])
    def test_query_shape_checked_against_index(self, index_pair, shape):
        """A 24-d query on the 16-d index is divisible into its 8 code
        segments, so only the dimension check stops it."""
        cfg = QueryConfig(assignment_count=2, hamming_threshold=4, top_k=5)
        with pytest.raises(ValueError, match="does not match index dim 16"):
            search.query(index_pair, np.zeros(shape), cfg)
        with pytest.raises(ValueError, match="does not match index dim 16"):
            search.batch_query(index_pair, np.zeros((2, *shape)), cfg)

    def test_assignment_count_beyond_the_ranking_key_rejected(self, index_pair, small_dataset):
        """W * (L + 1) * n must fit the int64 ranking key; W = 2^62 on a small
        index does not, and is refused before any word is assigned."""
        cfg = QueryConfig(assignment_count=2**62, hamming_threshold=4, top_k=5)
        message = "exceeds the int64 ranking key"
        with pytest.raises(ValueError, match=message):
            search.query(index_pair, small_dataset[1].vectors[0], cfg)
        with pytest.raises(ValueError, match=message):
            search.batch_query(index_pair, small_dataset[1], cfg)

    def test_batch_rejects_threshold_above_code_length(self, index_pair, small_dataset):
        cfg = QueryConfig(assignment_count=1, hamming_threshold=9, top_k=5)
        with pytest.raises(ValueError, match="exceeds code length"):
            search.batch_query(index_pair, small_dataset[1], cfg)


def random_index(scheme, seed, n, length, data):
    """A random small index with some duplicated rows, 24-d for codes of up to
    24 bits and 384-d for wider ones, and a query config drawn to include
    T = 0, T = L and W up to the word count: (index, vectors, config,
    generator). n is drawn odd and even, so a TIFC reference is the middle
    mean of a segment or the lower of its two middle ones."""
    rng = np.random.default_rng(seed)
    dim = 24 if length <= 24 else 384
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    dups = data.draw(st.integers(0, n // 2), label="duplicated rows")
    vectors[n - dups:] = vectors[:dups]
    training = None
    if scheme == "tifc":
        word_count, pq_cfg = dim, None
    else:
        k = data.draw(st.integers(2, 4), label="K")
        word_count = k * k
        pq_cfg = PqConfig(segments=2, words_per_segment=k)
        training = FeatureSet(rng.standard_normal((4 * k, dim)).astype(np.float32))
    s = data.draw(st.integers(1, min(4, word_count)), label="S")
    ix = invindex.build(FeatureSet(vectors),
                        BuildConfig(scheme=scheme, link_count=s, code_length=length, pq=pq_cfg),
                        training=training)
    w = data.draw(st.sampled_from([1, s, word_count]) | st.integers(1, word_count),
                  label="W")
    t = data.draw(st.sampled_from([0, length]) | st.integers(0, length), label="T")
    cfg = QueryConfig(assignment_count=w, hamming_threshold=t,
                      top_k=data.draw(st.integers(1, n + 3), label="top_k"))
    return ix, vectors, cfg, rng


def check_query_against_oracle(scheme, seed, n, length, data):
    ix, vectors, cfg, rng = random_index(scheme, seed, n, length, data)
    w = cfg.assignment_count
    lists = {int(wid): set(ix.ids[lo:hi].tolist())
             for wid, lo, hi in zip(ix.wids, ix.offsets[:-1], ix.offsets[1:])}
    queries = np.vstack([vectors[:2], rng.standard_normal((2, vectors.shape[1]))])
    batch, _ = search.batch_query(ix, queries, cfg)
    for q, counted in zip(queries, batch):
        res = search.query(ix, q, cfg)
        assert res.entries == pipeline_oracle(ix, q, cfg, vectors)
        union = set().union(*(lists.get(wid, set())
                              for wid in search.select_words(ix, q, w)))
        assert search.candidate_set(ix, q, w) == union
        assert counted.candidates == len(union)
        assert res == counted


def check_batch_against_query_and_oracle(scheme, seed, n, length, data):
    """Chunks of 1, 2 and 3 rows, so that chunk boundaries fall inside
    batches of up to 7 queries (database rows and random vectors)."""
    ix, vectors, cfg, rng = random_index(scheme, seed, n, length, data)
    pool = np.vstack([vectors, rng.standard_normal((7, vectors.shape[1]))])
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=7), label="queries")
    queries = pool[np.array(picks, dtype=np.int64)]
    expected = [search.query(ix, q, cfg) for q in queries]
    assert [r.entries for r in expected] == [pipeline_oracle(ix, q, cfg, vectors)
                                             for q in queries]
    counts = [len(search.candidate_set(ix, q, cfg.assignment_count)) for q in queries]
    assert [r.candidates for r in expected] == counts
    d = vectors.shape[1]
    stage = d if scheme == "tifc" else 2 * ix.quantizer.sub_codebooks.shape[1]
    # each word's means: L float64 values (IFC), none beside TIFC's one row
    means = cfg.assignment_count * ix.config.code_length if scheme == "ifc" else 0
    for chunk in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            # chunk rows of float64 (D + stage + W*L, or D + stage)
            mp.setattr(vecio, "CHUNK_BYTES", chunk * 8 * (d + stage + means))
            results, summary = search.batch_query(ix, queries, cfg)
        assert results == expected
        assert summary.candidate_counts == counts
        assert len(summary.query_times) == len(queries)


class TestVotingOracle:
    """`query` against `pipeline_oracle` on random small indexes: T = 0 and
    T = L, W up to the word count (most probed words then have no list),
    duplicate vectors, top_k beyond the hits, and short codes that tie on
    votes and on min Hamming.

    The wide-code tests draw codes of 128, 192 and 384 bits (2, 3 and 6 u8
    words) on 384-d vectors, with their own example budget, so the short codes
    keep theirs."""

    @settings(max_examples=200, deadline=None)
    @given(scheme=st.sampled_from(["tifc", "ifc"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 12), length=st.sampled_from([3, 4, 6, 8, 12, 24]),
           data=st.data())
    def test_query_matches_oracle(self, scheme, seed, n, length, data):
        check_query_against_oracle(scheme, seed, n, length, data)

    @settings(max_examples=70, deadline=None)
    @given(scheme=st.sampled_from(["tifc", "ifc"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 12), length=st.sampled_from([128, 192, 384]),
           data=st.data())
    def test_query_matches_oracle_wide_codes(self, scheme, seed, n, length, data):
        check_query_against_oracle(scheme, seed, n, length, data)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), half=st.integers(1, 6), odd=st.booleans(),
           length=st.sampled_from([3, 4, 8, 24, 128]), data=st.data())
    def test_tifc_reference_of_odd_and_even_counts(self, seed, half, odd, length, data):
        """TIFC indexes of 2 to 13 rows, odd and even, with duplicated rows
        drawn: the oracle's reference is the middle segment mean or the
        lower of the two middle ones."""
        check_query_against_oracle("tifc", seed, 2 * half + odd, length, data)

    @settings(max_examples=150, deadline=None)
    @given(scheme=st.sampled_from(["tifc", "ifc"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 12), length=st.sampled_from([3, 4, 6, 8, 12, 24]),
           data=st.data())
    def test_batch_matches_query_and_oracle(self, scheme, seed, n, length, data):
        check_batch_against_query_and_oracle(scheme, seed, n, length, data)

    @settings(max_examples=50, deadline=None)
    @given(scheme=st.sampled_from(["tifc", "ifc"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 12), length=st.sampled_from([128, 192, 384]),
           data=st.data())
    def test_batch_matches_query_and_oracle_wide_codes(self, scheme, seed, n, length, data):
        check_batch_against_query_and_oracle(scheme, seed, n, length, data)


class TestBatchWords:
    """A row's distances and words do not depend on the rows that are
    assigned together with it, on the build side or the query side."""

    def test_distances_independent_of_chunking(self):
        """`segment_distances_batch` is the only word-assignment kernel. Its
        `einsum` sums each value in an order that does not depend on the
        other rows; that is a property of numpy's implementation, not of its
        documented contract, so a numpy upgrade that breaks it fails here."""
        for k, m, seg_dim, n in ((64, 2, 32, 2100), (16, 4, 5, 1100), (256, 1, 64, 1100)):
            cb = random_codebook(k=k, m=m, seg_dim=seg_dim, seed=5)
            xs = np.random.default_rng(6).standard_normal((n, m * seg_dim))
            alone = np.stack([pq.segment_distances(x, cb) for x in xs])
            for chunk in (1, 2, 3, 16, 64, 1000, n):
                got = np.concatenate([pq.segment_distances_batch(xs[lo:lo + chunk], cb)
                                      for lo in range(0, n, chunk)])
                np.testing.assert_array_equal(
                    got, alone, err_msg=f"numpy {np.__version__}: distances of K={k}, "
                    f"M={m}, D/M={seg_dim} change with the chunk of {chunk} rows")
            diff = xs.reshape(n, m, 1, seg_dim) - cb.sub_codebooks.astype(np.float64)
            np.testing.assert_allclose(alone, (diff * diff).sum(axis=-1), rtol=1e-12)

    def test_integer_codebook_words_match_exhaustive(self, ifc_index):
        """Exact distances with many ties: the (distance, word id) order."""
        cb = integer_codebook(k=16, m=2, seg_dim=2, seed=29)
        # an index of the codebook's shape, L = 4 dividing its D = 4, built
        # on the rows below: its postings hold every rule whatever the
        # codebook, so it takes the integer one in place of its trained one
        cfg = dataclasses.replace(ifc_index.config, code_length=4,
                                  pq=PqConfig(segments=2, words_per_segment=16))
        xs = np.random.default_rng(7).integers(0, 3, (70, cb.dim)).astype(np.float64)
        ix = dataclasses.replace(invindex.build(FeatureSet(xs.astype(np.float32)), cfg),
                                 quantizer=cb)
        count = 40
        expected = [[w for _, w in exhaustive_ranking(x, cb)[:count]] for x in xs]
        for chunk in (1, 2, 16, 64):
            got = np.concatenate([cb.words(xs[lo:lo + chunk], count)
                                  for lo in range(0, len(xs), chunk)])
            assert got.tolist() == expected, f"chunk {chunk}"
            for i in (0, 69):
                assert search.select_words(ix, xs[i], count).tolist() == expected[i]

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(["tifc", "ifc"]), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 40), integer=st.booleans(), data=st.data())
    def test_database_rows_select_their_links(self, scheme, seed, n, integer, data):
        """`select_words` of every database row equals the S words that the
        build linked it to, in the build's selection order, whatever rows the
        build assigned together. Integer vectors and an integer codebook make
        exact ties, which the (distance, word id) order must break the same
        way on both sides; duplicate rows must get equal links."""
        rng = np.random.default_rng(seed)
        dim, length = 12, 4
        if integer:
            vectors = rng.integers(-2, 3, (n, dim)).astype(np.float32)
        else:
            vectors = rng.standard_normal((n, dim)).astype(np.float32)
        dups = data.draw(st.integers(0, n // 2), label="duplicated rows")
        vectors[n - dups:] = vectors[:dups]
        training, pq_cfg, word_count = None, None, dim
        if scheme == "ifc":
            k = data.draw(st.integers(2, 6), label="K")
            word_count = k * k
            pq_cfg = PqConfig(segments=2, words_per_segment=k)
            if integer:
                # K distinct integer points per segment, each repeated: k-means
                # keeps them as its centroids, so every distance is an integer
                picks = rng.choice(5**6, 2 * k, replace=False)
                pts = picks[:, None] // 5 ** np.arange(6) % 5 - 2  # in {-2..2}^6
                rows = np.hstack([pts[:k], pts[k:]])
                training = FeatureSet(np.tile(rows, (3, 1)).astype(np.float32))
            else:
                training = FeatureSet(rng.standard_normal((4 * k, dim)).astype(np.float32))
        s = data.draw(st.integers(1, min(6, word_count)), label="S")
        chunk_rows = data.draw(st.integers(1, n), label="build chunk rows")
        cfg = BuildConfig(scheme=scheme, link_count=s, code_length=length, pq=pq_cfg)
        built = []

        def recording(words):
            def wrapper(quantizer, xs, count):
                built.append(words(quantizer, xs, count))
                return built[-1]
            return wrapper

        with pytest.MonkeyPatch.context() as mp:
            # one CPU: the build's chunks come in row order, on this thread
            mp.setattr(invindex, "_cpus", lambda: 1)
            mp.setattr(vecio, "CHUNK_BYTES", chunk_rows * 8 * (
                dim + (dim if scheme == "tifc" else 2 * k) + s * length))
            for cls in (tifc.VirtualWordBank, pq.PqCodebook):
                mp.setattr(cls, "words", recording(cls.words))
            ix = invindex.build(FeatureSet(vectors), cfg, training=training)
        links = np.concatenate(built)
        assert links.shape == (n, s)
        if integer and scheme == "ifc":
            cents = ix.quantizer.sub_codebooks
            assert np.array_equal(cents, np.round(cents)), "distances would not be exact"
        words_of_row = {}
        for wid, lo, hi in zip(ix.wids, ix.offsets[:-1], ix.offsets[1:]):
            for image_id in ix.ids[lo:hi].tolist():
                words_of_row.setdefault(image_id, set()).add(int(wid))
        for i, x in enumerate(vectors):
            got = search.select_words(ix, x, s)
            assert got.tolist() == links[i].tolist(), f"row {i}"
            assert set(got.tolist()) == words_of_row[i]


class TestTracedCalls:
    """`perfbench` derives its search counters from the results of
    `select_words` and the calls of `hamming_to_many`: one query must call
    each once, and `batch_query` must not go through `query`."""

    def test_one_call_of_each_per_query(self, index_pair, small_dataset, monkeypatch):
        calls = {"select_words": [], "hamming_to_many": [], "query": 0}

        def recording(name):
            original = getattr(search, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                calls[name].append(len(out))
                return out
            return wrapper

        for name in ("select_words", "hamming_to_many"):
            monkeypatch.setattr(search, name, recording(name))
        cfg = QueryConfig(assignment_count=5, hamming_threshold=6, top_k=10)
        q = small_dataset[1].vectors[0]
        search.query(index_pair, q, cfg)
        assert calls["select_words"] == [5]
        assert len(calls["hamming_to_many"]) == 1

        original_query = search.query

        def counting_query(*args, **kwargs):
            calls["query"] += 1
            return original_query(*args, **kwargs)

        monkeypatch.setattr(search, "query", counting_query)
        search.batch_query(index_pair, small_dataset[1], cfg)
        assert calls["query"] == 0


class TestBatchMemory:
    def test_peak_bounded_at_wide_assignment(self):
        """64 TIFC queries at D = 2,048, L = 512, W = 512: chunks are sized
        by bytes, the rows and their word stage, not by a row count."""
        rng = np.random.default_rng(4)
        db = FeatureSet(rng.standard_normal((1_000, 2_048), dtype=np.float32))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=4, code_length=512))
        queries = rng.standard_normal((64, 2_048), dtype=np.float32)
        cfg = QueryConfig(assignment_count=512, hamming_threshold=200, top_k=10)
        tracemalloc.start()
        try:
            results, _ = search.batch_query(ix, queries, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 64
        assert peak < 32 << 20


class TestCandidateSet:
    def test_full_assignment_returns_everything(self, tifc_index, small_dataset):
        db, queries, _ = small_dataset
        got = search.candidate_set(tifc_index, queries.vectors[0], tifc_index.quantizer.word_count)
        assert got == set(range(db.n))

    def test_monotone_in_w(self, index_pair, small_dataset):
        for q in small_dataset[1].vectors:
            prev = set()
            for w in range(1, 9):
                cur = search.candidate_set(index_pair, q, w)
                assert prev <= cur
                prev = cur


class TestVoteMonotonicity:
    def test_votes_non_decreasing_in_t(self, index_pair, small_dataset):
        q = small_dataset[1].vectors[1]
        prev: dict[int, int] = {}
        for t in range(0, index_pair.config.code_length + 1):
            cfg = QueryConfig(assignment_count=3, hamming_threshold=t, top_k=100)
            cur = {i: v for i, v, _ in search.query(index_pair, q, cfg).entries}
            for image_id, votes in prev.items():
                assert cur.get(image_id, 0) >= votes
            prev = cur


class TestBatch:
    def test_batch_matches_individual(self, ifc_index, small_dataset):
        queries = small_dataset[1]
        cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
        results, summary = search.batch_query(ifc_index, queries, cfg)
        assert len(results) == queries.n
        assert len(summary.query_times) == queries.n
        for i, q in enumerate(queries.vectors):
            assert results[i] == search.query(ifc_index, q, cfg)

    def test_query_times_are_shares_of_their_chunk(self, index_pair, small_dataset,
                                                   monkeypatch):
        queries = small_dataset[1]
        # 2 rows of float64 (D + stage + W*L) at D = 16, W = 3, L = 8; TIFC
        # takes no means a word, and a stage of D
        row = 16 + 16 if index_pair.config.scheme == "tifc" else 16 + 2 * 4 + 3 * 8
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 2 * 8 * row)
        cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
        t0 = time.perf_counter()
        _, summary = search.batch_query(index_pair, queries, cfg)
        wall = time.perf_counter() - t0
        times = summary.query_times
        assert queries.n >= 3 and len(times) == queries.n
        assert all(times[i] == times[i + 1] for i in range(0, queries.n - 1, 2))
        assert 0 < sum(times) <= wall

    def test_candidate_counts_match_candidate_set(self, index_pair, small_dataset):
        queries = small_dataset[1]
        for w in (1, 3, 8):
            cfg = QueryConfig(assignment_count=w, hamming_threshold=6, top_k=10)
            results, summary = search.batch_query(index_pair, queries, cfg)
            expected = [len(search.candidate_set(index_pair, q, w)) for q in queries.vectors]
            assert summary.candidate_counts == expected
            assert [r.candidates for r in results] == expected
            assert search.query(index_pair, queries.vectors[0], cfg) == results[0]

    def test_written_outputs_are_deterministic(self, ifc_index, small_dataset, tmp_path):
        queries = small_dataset[1]
        cfg = QueryConfig(assignment_count=3, hamming_threshold=6, top_k=10)
        for run in ("a", "b"):
            results, summary = search.batch_query(ifc_index, queries, cfg)
            search.write_run(tmp_path / run, [r.ids for r in results],
                             summary.candidate_counts, summary.query_times,
                             config={"W": 3, "T": 6})
        assert (tmp_path / "a.ivecs").read_bytes() == (tmp_path / "b.ivecs").read_bytes()
        assert (tmp_path / "a.summary.json").read_text() == \
            (tmp_path / "b.summary.json").read_text()
