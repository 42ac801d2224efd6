import dataclasses
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from cnnidx import embed, invindex, pq, search, tifc
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.search import QueryConfig
from cnnidx.vecio import DataError, FeatureSet


def posting_lists(ix):
    """word id -> (ids, codes) of its list, read from the index arrays."""
    return {int(w): (ix.ids[lo:hi], ix.codes[lo:hi])
            for w, lo, hi in zip(ix.wids, ix.offsets[:-1], ix.offsets[1:])}


def entry_count(ix):
    return sum(len(ids) for ids, _ in posting_lists(ix).values())


def words_of_image(ix, image_id):
    return {wid for wid, (ids, _) in posting_lists(ix).items() if image_id in ids}


class TestBuild:
    def test_total_entries_is_n_times_s(self, tifc_index, ifc_index, small_dataset):
        db = small_dataset[0]
        assert entry_count(tifc_index) == db.n * 3
        assert entry_count(ifc_index) == db.n * 3

    def test_each_image_in_exactly_s_lists(self, ifc_index, small_dataset):
        for i in range(small_dataset[0].n):
            assert len(words_of_image(ifc_index, i)) == 3

    def test_lists_sorted_by_image_id(self, tifc_index, ifc_index):
        for ix in (tifc_index, ifc_index):
            for ids, _ in posting_lists(ix).values():
                assert np.all(np.diff(ids) > 0)

    def test_single_link_is_assign_word(self, small_dataset):
        db = small_dataset[0]
        cfg = BuildConfig(scheme="ifc", link_count=1, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4, kmeans_seed=3))
        ix = invindex.build(db, cfg)
        assert entry_count(ix) == db.n
        for i in range(db.n):
            (wid,) = words_of_image(ix, i)
            assert wid == pq.assign(db.vectors[i], ix.quantizer)

    def test_tifc_links_are_top_softmax_words(self, tifc_index, small_dataset):
        db = small_dataset[0]
        for i in range(0, db.n, 7):
            expected = {w for w, _ in tifc.top_words(tifc.softmax(db.vectors[i]), 3)}
            assert words_of_image(tifc_index, i) == expected

    def test_identical_vectors_identical_links_and_codes(self):
        rng = np.random.default_rng(0)
        row = rng.standard_normal(8).astype(np.float32)
        db = FeatureSet(np.vstack([row, rng.standard_normal(8).astype(np.float32), row]))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=4))
        assert words_of_image(ix, 0) == words_of_image(ix, 2)
        for wid in words_of_image(ix, 0):
            ids, codes = posting_lists(ix)[wid]
            np.testing.assert_array_equal(codes[ids == 0], codes[ids == 2])

    def test_link_count_exceeding_words_rejected(self, small_dataset):
        db = small_dataset[0]
        with pytest.raises(DataError, match="exceeds word count"):
            invindex.build(db, BuildConfig(scheme="tifc", link_count=17, code_length=8))

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_empty_database_rejected(self, scheme):
        """IFC gets its own training set, so only the empty database stops
        the build, and it stops before any training or table draw."""
        rng = np.random.default_rng(2)
        training, pq_cfg = None, None
        if scheme == "ifc":
            training = FeatureSet(rng.standard_normal((20, 8)).astype(np.float32))
            pq_cfg = PqConfig(segments=2, words_per_segment=3, kmeans_iters=2)
        cfg = BuildConfig(scheme=scheme, link_count=2, code_length=4, pq=pq_cfg)
        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((pq, "train"), (tifc, "make_virtual_words")):
                mp.setattr(module, name, lambda *a, **k: pytest.fail("drew a quantizer"))
            with pytest.raises(DataError, match="no vectors"):
                invindex.build(FeatureSet(np.zeros((0, 8), dtype=np.float32)), cfg,
                               training=training)

    def test_code_length_divisibility_enforced(self, small_dataset):
        db = small_dataset[0]
        with pytest.raises(DataError, match="divisible"):
            invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=5))

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_index_bytes_independent_of_chunk_size(self, scheme, small_dataset, tmp_path,
                                                   monkeypatch):
        db = small_dataset[0]
        cfg = BuildConfig(scheme=scheme, link_count=3, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4, kmeans_seed=3)
                          if scheme == "ifc" else None)
        whole, chunked = tmp_path / "whole.idx", tmp_path / "chunked.idx"
        invindex.save(invindex.build(db, cfg), whole)
        chunks = []

        def counting_pack_bits(bits):
            chunks.append(len(bits))
            return embed.pack_bits(bits)

        monkeypatch.setattr(invindex, "pack_bits", counting_pack_bits)
        monkeypatch.setattr(invindex, "_BUILD_BYTES", 3 * 3 * 8 * 8)  # 3 rows of (S, L) float64
        invindex.save(invindex.build(db, cfg), chunked)
        assert chunks == [3] * 16 + [2]
        assert chunked.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("scheme, dim, segments, seed", [
        ("tifc", 12, None, 0), ("tifc", 48, None, 1),
        ("ifc", 12, 2, 2),   # 16 words: uint8 keys
        ("ifc", 18, 9, 3),   # 4^9 = 262,144 words: uint32 keys
    ])
    def test_lists_equal_lexsort_grouping(self, scheme, dim, segments, seed):
        """The build's arrays equal every row's (word, id, code) entries
        grouped by `np.lexsort((ids, wids))`, on rows that share many words."""
        rng = np.random.default_rng(seed)
        x = rng.integers(-2, 3, size=(40, dim)).astype(np.float32)
        x = np.vstack([x, x[:10]])  # duplicate rows link to the same words
        n, s, length = len(x), 3, dim // 3
        cfg = BuildConfig(scheme=scheme, link_count=s, code_length=length,
                          pq=PqConfig(segments=segments, words_per_segment=4,
                                      kmeans_seed=seed) if scheme == "ifc" else None)
        ix = invindex.build(FeatureSet(x), cfg)
        if scheme == "tifc":
            wids = tifc.top_words_rows(tifc.softmax_rows(x), s)
            ref = ix.quantizer.means[wids]
        else:
            wids = pq.nearest_words_batch(x, ix.quantizer, s)
            ref = embed.segment_means(pq.reconstruct_batch(wids.ravel(), ix.quantizer),
                                      length).reshape(n, s, length)
        codes = embed.pack_bits(embed.segment_means(x, length)[:, None, :] >= ref)
        ids, wids = np.repeat(np.arange(n), s), wids.ravel()
        order = np.lexsort((ids, wids))
        starts = np.flatnonzero(np.diff(wids[order], prepend=-1))
        assert len(starts) <= (n - 10) * s  # some lists hold several entries
        np.testing.assert_array_equal(ix.wids, wids[order][starts])
        np.testing.assert_array_equal(ix.offsets, np.append(starts, n * s))
        np.testing.assert_array_equal(ix.ids, ids[order])
        np.testing.assert_array_equal(ix.codes, codes.reshape(n * s, -1)[order])

    def test_huge_tifc_table_rejected_by_build(self, monkeypatch):
        monkeypatch.setattr(invindex, "MAX_TABLE_ENTRIES", 12 * 3 - 1)
        db = FeatureSet(np.ones((2, 12), dtype=np.float32))
        with pytest.raises(DataError, match="TIFC table of 12 x 3 means"):
            invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=3))
        monkeypatch.setattr(invindex, "MAX_TABLE_ENTRIES", 12 * 3)
        invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=3))

    def test_build_determinism(self, small_dataset, tmp_path):
        db = small_dataset[0]
        cfg = BuildConfig(scheme="ifc", link_count=2, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4, kmeans_seed=9))
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        invindex.save(invindex.build(db, cfg), a)
        invindex.save(invindex.build(db, cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestPersistence:
    def test_tifc_round_trip_search_equality(self, tifc_index, small_dataset, tmp_path):
        queries = small_dataset[1]
        path = tmp_path / "t.idx"
        invindex.save(tifc_index, path)
        back = invindex.load(path)
        cfg = QueryConfig(assignment_count=3, hamming_threshold=5, top_k=10)
        for q in queries.vectors:
            assert search.query(back, q, cfg).entries == \
                search.query(tifc_index, q, cfg).entries

    def test_ifc_round_trip_assign_equality(self, ifc_index, tmp_path):
        path = tmp_path / "i.idx"
        invindex.save(ifc_index, path)
        back = invindex.load(path)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(16)
            assert pq.assign(x, back.quantizer) == pq.assign(x, ifc_index.quantizer)

    def test_bad_magic_rejected(self, tifc_index, tmp_path):
        path = tmp_path / "bad.idx"
        invindex.save(tifc_index, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(DataError, match="magic"):
            invindex.load(path)

    def test_corrupt_body_fails_checksum(self, tifc_index, tmp_path):
        path = tmp_path / "corrupt.idx"
        invindex.save(tifc_index, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(raw)
        with pytest.raises(DataError, match="checksum"):
            invindex.load(path)

    def test_truncated_file_rejected(self, tifc_index, tmp_path):
        path = tmp_path / "trunc.idx"
        invindex.save(tifc_index, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError):
            invindex.load(path)

    def test_old_format_asks_for_rebuild(self, tifc_index, tmp_path):
        path = tmp_path / "old.idx"
        invindex.save(tifc_index, path)
        path.write_bytes(b"CNNIDX01" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="CNNIDX01.*rebuild"):
            invindex.load(path)


def split_file(path):
    """(header dict, bytes after the header) of a saved index file."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + hlen]), blob[12 + hlen:-4]


def write_file(path, header, payload):
    """An index file from a header and the bytes after it, with a valid CRC."""
    head = json.dumps(header).encode()
    body = struct.pack("<I", len(head)) + head + payload
    path.write_bytes(invindex.MAGIC + body + struct.pack("<I", zlib.crc32(body)))


@pytest.fixture(scope="module")
def tiny_index():
    """Three 12-d vectors, each in two of the 12 TIFC words, with 12-bit codes
    (4 pad bits in the second byte); posting arrays written out by hand."""
    rng = np.random.default_rng(4)
    ix = invindex.build(FeatureSet(rng.standard_normal((3, 12)).astype(np.float32)),
                        BuildConfig(scheme="tifc", link_count=2, code_length=12))
    return dataclasses.replace(
        ix, wids=np.array([0, 5, 7]), offsets=np.array([0, 2, 4, 6]),
        ids=np.array([0, 1, 1, 2, 0, 2], dtype=np.int32),
        codes=np.zeros((6, 2), dtype=np.uint8))


class TestLoadValidation:
    """CRC-valid files that break the layout's rules raise DataError."""

    def test_hand_written_arrays_load(self, tiny_index, tmp_path):
        path = tmp_path / "ok.idx"
        invindex.save(tiny_index, path)
        back = invindex.load(path)
        for name in ("wids", "offsets", "ids", "codes"):
            np.testing.assert_array_equal(getattr(back, name), getattr(tiny_index, name))

    @pytest.mark.parametrize("change, message", [
        (dict(ids=[-1, 1, 1, 2, 0, 2]), "outside"),
        (dict(ids=[0, 1, 1, 3, 0, 2]), "outside"),
        (dict(ids=[1, 0, 1, 2, 0, 2]), "strictly increasing within"),
        (dict(ids=[1, 1, 1, 2, 0, 2]), "strictly increasing within"),
        (dict(wids=[-1, 5, 7]), "word ids"),
        (dict(wids=[0, 5, 12]), "word ids"),
        (dict(wids=[5, 0, 7]), "word ids"),
        (dict(wids=[0, 5, 5]), "word ids"),
        (dict(wids=[0, 3, 5, 7], offsets=[0, 2, 2, 4, 6]), "lengths"),
        (dict(offsets=[0, 2, 4, 5]), "lengths"),
        (dict(offsets=[0, 2, 4, 7]), "lengths"),
        (dict(codes=[[0, 0]] * 5 + [[0, 0x10]]), "pad bits"),
    ])
    def test_malformed_postings_rejected(self, tiny_index, tmp_path, change, message):
        arrays = {k: np.asarray(v, dtype=getattr(tiny_index, k).dtype)
                  for k, v in change.items()}
        path = tmp_path / "bad.idx"
        invindex.save(dataclasses.replace(tiny_index, **arrays), path)
        with pytest.raises(DataError, match=message):
            invindex.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("indexed_count"), "'indexed_count' missing"),
        (lambda h: h.update(word_count="12"), "'word_count' missing or not int"),
        (lambda h: h.update(link_count=True), "'link_count' missing or not int"),
        (lambda h: h.update(code_length=12.0), "'code_length' missing or not int"),
        (lambda h: h.update(indexed_count=0), "'indexed_count' is 0"),
        (lambda h: h.update(scheme=["tifc"]), "'scheme' missing or not str"),
        (lambda h: h.update(quantizer=[]), "'quantizer' missing or not dict"),
        (lambda h: h["quantizer"].pop("seed"), "'seed' missing"),
        (lambda h: h["quantizer"].update(dim="12"), "'dim' missing or not int"),
        (lambda h: h.update(scheme="ifc"), "quantizer kind 'means'"),
        (lambda h: h.update(word_count=13), "word_count 13"),
        (lambda h: h.update(link_count=13), "exceeds word count"),
        (lambda h: h.update(code_length=5), "not divisible by code length"),
    ])
    def test_malformed_header_rejected(self, tiny_index, tmp_path, edit, message):
        path = tmp_path / "bad.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        edit(header)
        write_file(path, header, payload)
        with pytest.raises(DataError, match=message):
            invindex.load(path)

    def test_pq_header_rejected(self, ifc_index, tmp_path):
        path = tmp_path / "bad.idx"
        invindex.save(ifc_index, path)
        header, payload = split_file(path)
        for key, value, message in (("kmeans_iters", 0, "below 1"),
                                    ("segments", "2", "not int"),
                                    ("segments", 3, "not divisible by 3 segments"),
                                    ("segments", 64, "64-bit word id")):
            edited = json.loads(json.dumps(header))
            edited["quantizer"][key] = value
            write_file(path, edited, payload)
            with pytest.raises(DataError, match=message):
                invindex.load(path)

    def test_wide_tifc_header_loads_in_bounded_memory(self, tiny_index, tmp_path):
        """A 260-byte file that declares dim 4,096 loads without the
        134 MB D x D virtual-word bank: only the (D, L) means table."""
        path = tmp_path / "wide.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        header.update(word_count=4096, code_length=16)
        header["quantizer"]["dim"] = 4096
        write_file(path, header, payload)
        tracemalloc.start()
        try:
            ix = invindex.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ix.quantizer.means.shape == (4096, 16)
        assert peak < 16 << 20

    def test_huge_tifc_table_rejected_before_allocating(self, tiny_index, tmp_path):
        """A small CRC-valid file that declares a 2^20 x 2^10 table (8 GiB of
        means) is rejected without drawing it."""
        path = tmp_path / "huge.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        header.update(word_count=1 << 20, code_length=1 << 10)
        header["quantizer"]["dim"] = 1 << 20
        write_file(path, header, payload)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="TIFC table of 1048576 x 1024 means"):
                invindex.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_old_virtual_kind_asks_for_rebuild(self, tiny_index, tmp_path):
        path = tmp_path / "old.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        assert header["quantizer"]["kind"] == "means"
        header["quantizer"]["kind"] = "virtual"
        write_file(path, header, payload)
        with pytest.raises(DataError, match="kind 'virtual'.*rebuild"):
            invindex.load(path)

    def test_unreadable_header_rejected(self, tiny_index, tmp_path):
        path = tmp_path / "bad.idx"
        invindex.save(tiny_index, path)
        _, payload = split_file(path)
        body = struct.pack("<I", 3) + b"\xff{]" + payload
        path.write_bytes(invindex.MAGIC + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(DataError, match="unreadable index header"):
            invindex.load(path)


class TestStats:
    def test_entry_and_code_byte_arithmetic(self):
        rng = np.random.default_rng(2)
        db = FeatureSet(rng.standard_normal((1000, 64)).astype(np.float32))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=4, code_length=32))
        st = invindex.stats(ix)
        assert st.total_entries == 4000
        assert st.code_bytes == 4000 * 4  # 32 bits -> 4 bytes per entry

    def test_histogram_counts_empty_lists(self, ifc_index):
        st = invindex.stats(ifc_index)
        occupied = len(posting_lists(ifc_index))
        assert st.list_length_histogram[0] == ifc_index.word_count - occupied
        assert sum(st.list_length_histogram.values()) == ifc_index.word_count

    def test_estimate_close_to_file_size(self, ifc_index, tifc_index, tmp_path):
        for name, ix in (("i", ifc_index), ("t", tifc_index)):
            path = tmp_path / f"{name}.idx"
            invindex.save(ix, path)
            est = invindex.stats(ix).estimated_file_bytes
            actual = path.stat().st_size
            assert est == actual
