import dataclasses
import json
import os
import struct
import sys
import threading
import time
import tracemalloc
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnidx import cli, embed, invindex, pq, search, tifc, vecio
from cnnidx.embed import EmbedConfig
from cnnidx.invindex import BuildConfig
from cnnidx.pq import PqConfig
from cnnidx.search import QueryConfig
from cnnidx.vecio import DataError, FeatureSet


def entry_codes(ix):
    """The code of every posting entry, list after list: its own (IFC) or
    its vector's one code (TIFC)."""
    return ix.codes if ix.config.pq else ix.codes[ix.ids]


def posting_lists(ix):
    """word id -> (ids, codes) of its list, read from the index arrays."""
    codes = entry_codes(ix)
    return {int(w): (ix.ids[lo:hi], codes[lo:hi])
            for w, lo, hi in zip(ix.wids, ix.offsets[:-1], ix.offsets[1:])}


def entry_count(ix):
    return sum(len(ids) for ids, _ in posting_lists(ix).values())


def words_of_image(ix, image_id):
    return {wid for wid, (ids, _) in posting_lists(ix).items() if image_id in ids}


def traced_peak(call):
    """call()'s result and the traced peak of the allocations it made, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def oracle_code(quantizer, x, wid, length):
    """The code of row x linked to word wid, by the codes' definition:
    `embed.encode` against the reconstructed word (IFC), or the row's
    segment means against the reference row, whatever the word (TIFC)."""
    if isinstance(quantizer, tifc.VirtualWordBank):
        return embed.pack_bits(embed.segment_means(x, length) >= quantizer.reference)
    return embed.encode(x, pq.reconstruct_batch([wid], quantizer)[0], EmbedConfig(length))


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
                          pq=PqConfig(segments=2, words_per_segment=4))
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
        """TIFC has D = 16 words and IFC K^M = 4: the word count comes from
        the config, so the IFC build stops before training a codebook."""
        db = small_dataset[0]
        with pytest.raises(DataError, match="link count 17 exceeds word count 16"):
            invindex.build(db, BuildConfig(scheme="tifc", link_count=17, code_length=8))
        cfg = BuildConfig(scheme="ifc", link_count=5, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pq, "train", lambda *a, **k: pytest.fail("trained a codebook"))
            with pytest.raises(DataError, match="link count 5 exceeds word count 4"):
                invindex.build(db, cfg)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_empty_database_rejected(self, scheme):
        """IFC gets its own training set, so only the empty database stops
        the build, and it stops before any training or table draw."""
        rng = np.random.default_rng(2)
        training, pq_cfg = None, None
        if scheme == "ifc":
            training = FeatureSet(rng.standard_normal((20, 8)).astype(np.float32))
            pq_cfg = PqConfig(segments=2, words_per_segment=3)
        cfg = BuildConfig(scheme=scheme, link_count=2, code_length=4, pq=pq_cfg)
        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((pq, "train"), (tifc, "make_virtual_words")):
                mp.setattr(module, name, lambda *a, **k: pytest.fail("drew a quantizer"))
            with pytest.raises(DataError, match="no vectors"):
                invindex.build(FeatureSet(np.zeros((0, 8), dtype=np.float32)), cfg,
                               training=training)

    def test_tifc_training_set_rejected(self):
        """A TIFC build reads no training set, so it refuses one, of any
        dimension, before it draws its table."""
        db = FeatureSet(np.random.default_rng(2).standard_normal((20, 16)).astype(np.float32))
        training = FeatureSet(np.zeros((3, 5), dtype=np.float32))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tifc, "make_virtual_words", lambda *a: pytest.fail("drew a table"))
            with pytest.raises(ValueError, match="a TIFC build takes no training set"):
                invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=4),
                               training=training)

    @pytest.mark.parametrize("db_rows, training_shape, segments, message", [
        (30, (20, 12), 2, "training dim 12 != database dim 8"),
        (30, (20, 8), 3, "dimension 8 not divisible by 3 segments"),
        (30, (10, 8), 2, "need at least 16 training vectors, got 10"),
        (10, None, 2, "need at least 16 training vectors, got 10"),  # the database trains
    ])
    def test_ifc_input_errors_rejected_before_training(self, db_rows, training_shape,
                                                       segments, message):
        rng = np.random.default_rng(3)
        db = FeatureSet(rng.standard_normal((db_rows, 8)).astype(np.float32))
        training = None if training_shape is None else FeatureSet(
            rng.standard_normal(training_shape).astype(np.float32))
        cfg = BuildConfig(scheme="ifc", link_count=2, code_length=4,
                          pq=PqConfig(segments=segments, words_per_segment=16))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pq, "train", lambda *a, **k: pytest.fail("trained a codebook"))
            with pytest.raises(DataError, match=message):
                invindex.build(db, cfg, training=training)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    @pytest.mark.parametrize("length", [0, -4])
    def test_code_length_below_one_rejected(self, scheme, length):
        with pytest.raises(ValueError, match="code_length must be >= 1"):
            BuildConfig(scheme=scheme, link_count=2, code_length=length,
                        pq=PqConfig(segments=2, words_per_segment=4))

    def test_code_length_divisibility_enforced(self, small_dataset):
        db = small_dataset[0]
        with pytest.raises(DataError, match="divisible"):
            invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=5))

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_index_bytes_independent_of_chunk_size(self, scheme, small_dataset, tmp_path,
                                                   monkeypatch):
        """On one CPU the chunks run in order on the calling thread, each of
        `CHUNK_BYTES`; `TestThreadedFill` covers more threads."""
        monkeypatch.setattr(invindex, "_cpus", lambda: 1)
        db = small_dataset[0]
        cfg = BuildConfig(scheme=scheme, link_count=3, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4)
                          if scheme == "ifc" else None)
        whole, chunked = tmp_path / "whole.idx", tmp_path / "chunked.idx"
        invindex.save(invindex.build(db, cfg), whole)
        chunks = []

        def counting_pack_bits(bits):
            chunks.append(len(bits))
            return embed.pack_bits(bits)

        # `invindex.list_codes` packs every code
        monkeypatch.setattr(invindex, "pack_bits", counting_pack_bits)
        # 3 rows of pass 2, of float64 (D + stage + S*L) for IFC (stage M*K)
        # and (D + stage) for TIFC (stage D), which takes no means a word;
        # TIFC's pass 1 takes chunks of one row, so its reference, the
        # payload, is filled row by row
        monkeypatch.setattr(vecio, "CHUNK_BYTES",
                            3 * (16 + (16 if scheme == "tifc" else 2 * 4 + 3 * 8)) * 8)
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
                          pq=PqConfig(segments=segments, words_per_segment=4)
                          if scheme == "ifc" else None)
        ix = invindex.build(FeatureSet(x), cfg)
        if scheme == "tifc":
            wids = tifc.top_words_rows(tifc.softmax_rows(x), s)
            # every link's reference is the rows' per-segment lower median
            means = np.sort(embed.segment_means(x, length).astype(np.float32), axis=0)
            ref = np.broadcast_to(means[(n - 1) // 2], (n, s, length))
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
        np.testing.assert_array_equal(entry_codes(ix), codes.reshape(n * s, -1)[order])

    def test_build_determinism(self, small_dataset, tmp_path):
        db = small_dataset[0]
        cfg = BuildConfig(scheme="ifc", link_count=2, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4))
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        invindex.save(invindex.build(db, cfg), a)
        invindex.save(invindex.build(db, cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestThreadedFill:
    """`build` encodes its chunks on the calling thread and one helper per
    further CPU, up to `invindex.MAX_THREADS`; tests set the CPU count by
    patching `invindex._cpus`, and raise `MAX_THREADS` to run more than two
    threads. Rows of 16 values at S = 3, L = 8 take 8 * (16 + stage + 24)
    bytes each."""

    @staticmethod
    def config(scheme):
        return BuildConfig(scheme=scheme, link_count=3, code_length=8,
                           pq=PqConfig(segments=2, words_per_segment=4)
                           if scheme == "ifc" else None)

    @staticmethod
    def recording_words(monkeypatch, record):
        """Patch both quantizers' `words` to call record(xs) first."""
        for cls in (tifc.VirtualWordBank, pq.PqCodebook):
            def words(self, xs, count, original=cls.words):
                record(xs)
                return original(self, xs, count)
            monkeypatch.setattr(cls, "words", words)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    @pytest.mark.parametrize("chunk_bytes", [1, 20_000, 200_000, 8 << 20])
    def test_index_bytes_equal_for_any_worker_count(self, scheme, chunk_bytes, tmp_path,
                                                    monkeypatch):
        """Chunks of 1 row to the whole database, on 1, 2 or 3 threads: one
        file. Every thread of the build encodes chunks: as many as there are
        CPUs, or chunks when fewer."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 16)).astype(np.float32)
        x[200:] = x[:100]  # duplicate rows
        db = FeatureSet(x)
        threads = set()
        self.recording_words(monkeypatch, lambda xs: threads.add(threading.current_thread()))
        monkeypatch.setattr(vecio, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(invindex, "MAX_THREADS", 3)
        files = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(invindex, "_cpus", lambda w=workers: w)
            threads.clear()
            before = threading.active_count()
            ix = invindex.build(db, self.config(scheme))
            assert threading.active_count() == before
            row_bytes = 8 * (16 + ix.quantizer.stage_width + 3 * 8)
            rows = vecio.chunk_rows(row_bytes * (4 * workers if workers > 1 else 1))
            assert len(threads) == min(workers, -(-300 // rows))
            files.append(tmp_path / f"w{workers}.idx")
            invindex.save(ix, files[-1])
        assert files[1].read_bytes() == files[0].read_bytes() == files[2].read_bytes()

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_many_threads_switching_often(self, scheme, monkeypatch):
        """Eight threads on 2-row chunks, the interpreter switching threads
        every microsecond: the arrays equal a one-thread build's."""
        x = np.random.default_rng(17).standard_normal((400, 16)).astype(np.float32)
        monkeypatch.setattr(invindex, "_cpus", lambda: 1)
        ref = invindex.build(FeatureSet(x), self.config(scheme))
        monkeypatch.setattr(invindex, "_cpus", lambda: 8)
        monkeypatch.setattr(invindex, "MAX_THREADS", 8)
        row_bytes = 8 * (16 + ref.quantizer.stage_width + 3 * 8)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 2 * 4 * 8 * row_bytes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = invindex.build(FeatureSet(x), self.config(scheme))
        finally:
            sys.setswitchinterval(interval)
        for name in ("wids", "offsets", "ids", "codes"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        if scheme == "ifc":  # one table of means, for L = 8, whichever thread made it
            assert list(got.quantizer.mean_tables) == [8]

    @pytest.mark.parametrize("workers", [1, 2, 64])
    def test_chunk_budget(self, workers, monkeypatch):
        """One CPU starts no thread and takes `CHUNK_BYTES` a chunk; two
        share a quarter of it, an eighth each, and so do 64, which run no
        more than `MAX_THREADS` = 2 threads."""
        rows = []
        self.recording_words(monkeypatch, lambda xs: rows.append(
            (len(xs), threading.active_count())))
        monkeypatch.setattr(invindex, "_cpus", lambda: workers)
        row_bytes = 8 * (16 + 16 + 3 * 8)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 16 * row_bytes)
        before = threading.active_count()
        x = np.random.default_rng(13).standard_normal((100, 16)).astype(np.float32)
        invindex.build(FeatureSet(x), self.config("tifc"))
        if workers == 1:
            assert rows == [(16, before)] * 6 + [(4, before)]
        else:
            assert sorted(r for r, _ in rows) == [2] * 50
            assert all(active <= before + 1 for _, active in rows)

    def test_rebuilt_words_shrink_only_the_code_chunks(self, monkeypatch):
        """With M = 3 not dividing L = 8 the codes rebuild each word, and
        `mean_bytes` charges a word its 24 float32 values and their float64
        copy beside its 8 means: pass 2 takes 8 * (24 + 12) + 3 * (64 + 288)
        bytes a row, while pass 1, which rebuilds nothing, keeps its
        8 * (24 + 12 + 24)."""
        cfg = BuildConfig(scheme="ifc", link_count=3, code_length=8,
                          pq=PqConfig(segments=3, words_per_segment=4))
        word_rows, code_rows = [], []
        self.recording_words(monkeypatch, lambda xs: word_rows.append(len(xs)))
        list_codes = invindex.list_codes

        def recording_codes(quantizer, xs, wids, code_length):
            code_rows.append(len(xs))
            return list_codes(quantizer, xs, wids, code_length)

        monkeypatch.setattr(invindex, "list_codes", recording_codes)
        monkeypatch.setattr(invindex, "_cpus", lambda: 1)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 10 * 8 * (24 + 12 + 24))
        x = np.random.default_rng(14).standard_normal((30, 24)).astype(np.float32)
        ix = invindex.build(FeatureSet(x), cfg)
        assert (ix.quantizer.mean_bytes(8), ix.quantizer.mean_bytes(6)) == (64 + 288, 48)
        assert word_rows == [10] * 3
        assert code_rows == [3] * 10

    @staticmethod
    def failing_chunk(monkeypatch, failing, boom):
        """A record(xs) for 1-row chunks whose first value names them, and
        the list of chunks it has seen. Chunk `failing` raises boom; every
        other chunk waits until the failing thread has left its chunks (a
        helper has ended, or the caller waits for the helpers), so the error
        is recorded before that chunk ends. Patches `threading.Thread` to see
        the caller's wait."""
        failed, joining = threading.Event(), threading.Event()
        raiser, started = [], []

        class Thread(threading.Thread):
            def join(self, timeout=None):
                if failed.is_set():
                    joining.set()  # the caller has left its chunks, or a waiter
                super().join(timeout)

        def record(xs):
            chunk = int(xs[0, 0])
            started.append(chunk)
            if chunk == failing:
                raiser.append(threading.current_thread())
                failed.set()
                raise boom
            assert failed.wait(timeout=30)
            if isinstance(raiser[0], Thread):
                raiser[0].join(timeout=30)
            else:
                assert joining.wait(timeout=30)

        monkeypatch.setattr(threading, "Thread", Thread)
        return record, started

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["caller", "helper-1", "helper-2"])
    def test_exception_in_a_chunk_stops_the_build(self, scheme, failing, monkeypatch):
        """Three threads over 1-row chunks: pass 1's `words` raises in chunk
        `failing`, the first of its thread (`failing_chunk`). The exception
        comes out of `build` as it was raised, no thread starts a later
        chunk, and every helper has ended."""
        n = 30
        x = np.random.default_rng(14).standard_normal((n, 16)).astype(np.float32)
        x[:, 0] = np.arange(n)  # a chunk's one row names it
        boom = RuntimeError("chunk failed")
        record, started = self.failing_chunk(monkeypatch, failing, boom)
        monkeypatch.setattr(invindex, "_cpus", lambda: 3)
        monkeypatch.setattr(invindex, "MAX_THREADS", 3)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        before = threading.active_count()
        self.recording_words(monkeypatch, record)
        with pytest.raises(RuntimeError) as info:
            invindex.build(FeatureSet(x), self.config(scheme))
        assert info.value is boom
        assert failing in started and set(started) <= {0, 1, 2}
        assert len(set(started)) == len(started)
        assert threading.active_count() == before

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
    def test_exception_in_a_code_chunk_stops_the_build(self, scheme, failing, monkeypatch):
        """Two threads over 1-row chunks: pass 1 runs through, and pass 2's
        `list_codes` raises in chunk `failing`, the caller's first or the
        helper's (`failing_chunk`). The exception comes out of `build` as it
        was raised, no thread starts a later code chunk, and the helper has
        ended."""
        n = 30
        x = np.random.default_rng(19).standard_normal((n, 16)).astype(np.float32)
        x[:, 0] = np.arange(n)
        boom = RuntimeError("code chunk failed")
        record, started = self.failing_chunk(monkeypatch, failing, boom)
        list_codes = invindex.list_codes

        def recording_codes(quantizer, xs, wids, code_length):
            record(xs)
            return list_codes(quantizer, xs, wids, code_length)

        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        monkeypatch.setattr(invindex, "list_codes", recording_codes)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            invindex.build(FeatureSet(x), self.config(scheme))
        assert info.value is boom
        assert failing in started and set(started) <= {0, 1}
        assert len(set(started)) == len(started)
        assert threading.active_count() == before

    def test_interrupt_while_waiting_stops_the_helpers(self, monkeypatch):
        """An exception that reaches the caller while it waits for a helper
        comes out of `build`, and the helper starts no chunk after its
        current one."""
        x = np.random.default_rng(18).standard_normal((10, 16)).astype(np.float32)
        x[:, 0] = np.arange(10)
        interrupt = KeyboardInterrupt()
        release = threading.Event()
        helpers, started = [], []

        class Thread(threading.Thread):
            def start(self):
                helpers.append(self)
                super().start()

            def join(self, timeout=None):
                if not release.is_set():
                    raise interrupt
                super().join(timeout)

        def record(xs):
            started.append(int(xs[0, 0]))
            if int(xs[0, 0]) == 1:  # the helper's first chunk
                assert release.wait(timeout=30)

        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        monkeypatch.setattr(threading, "Thread", Thread)
        self.recording_words(monkeypatch, record)
        with pytest.raises(KeyboardInterrupt) as info:
            invindex.build(FeatureSet(x), self.config("tifc"))
        assert info.value is interrupt
        release.set()
        helpers[0].join(timeout=30)
        assert not helpers[0].is_alive()
        assert sorted(started) == [0, 1, 2, 4, 6, 8]

    def test_helper_exception_after_caller_finishes(self, monkeypatch):
        """The caller's chunks all pass; a helper's last chunk raises, and
        its exception still comes out of `build`."""
        x = np.random.default_rng(15).standard_normal((10, 16)).astype(np.float32)
        x[:, 0] = np.arange(10)
        boom = ValueError("last helper chunk")

        def record(xs):
            if int(xs[0, 0]) == 9:
                raise boom

        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        self.recording_words(monkeypatch, record)
        before = threading.active_count()
        with pytest.raises(ValueError) as info:
            invindex.build(FeatureSet(x), self.config("tifc"))
        assert info.value is boom
        assert threading.active_count() == before

    def test_thread_that_cannot_start_stops_the_build(self, monkeypatch):
        """With three CPUs the second helper fails to start: its error comes
        out of `build`, and the first helper, already running, has ended."""
        refused = RuntimeError("can't start new thread")

        class Thread(threading.Thread):
            made = 0

            def start(self):
                Thread.made += 1
                if Thread.made == 2:
                    raise refused
                super().start()

        monkeypatch.setattr(invindex, "_cpus", lambda: 3)
        monkeypatch.setattr(invindex, "MAX_THREADS", 3)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        monkeypatch.setattr(threading, "Thread", Thread)
        before = threading.active_count()
        x = np.random.default_rng(16).standard_normal((30, 16)).astype(np.float32)
        with pytest.raises(RuntimeError) as info:
            invindex.build(FeatureSet(x), self.config("tifc"))
        assert info.value is refused and Thread.made == 2
        assert threading.active_count() == before


class TestFillRowsErrors:
    """`invindex._fill_rows` runs chunks t, t + w, ... on thread t, the
    caller being thread 0 and the others w - 1 helpers that it starts, stops
    and joins itself."""

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
    def test_exception_sets_stop_before_the_next_step(self, failing, monkeypatch):
        """Two threads over four 1-row chunks, 0 and 2 on the caller, 1 and
        3 on the helper. Chunk `failing` raises once the other thread's
        first chunk has begun; that chunk ends only once the raise has left
        its thread (the helper has ended, or the caller waits for the
        helper), and its thread starts no second chunk. The exception comes
        out as it was raised, and the helper has ended."""
        boom = RuntimeError("chunk failed")
        raised, joining = threading.Event(), threading.Event()
        began = [threading.Event() for _ in range(4)]
        raiser, started = [], []

        class Thread(threading.Thread):
            def join(self, timeout=None):
                joining.set()  # the caller has left its chunks
                super().join(timeout)

        def write(part, chunk):
            started.append(part.start)
            began[part.start].set()
            if part.start == failing:
                assert began[1 - failing].wait(timeout=30)
                raiser.append(threading.current_thread())
                raised.set()
                raise boom
            if part.start == 0:  # the helper raised: wait for it to end
                assert raised.wait(timeout=30)
                raiser[0].join(timeout=30)
            else:  # the caller raised: wait for it to wait for the helper
                assert joining.wait(timeout=30)

        monkeypatch.setattr(threading, "Thread", Thread)
        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            invindex._fill_rows(np.zeros((4, 1), dtype=np.float32), 8, write)
        assert info.value is boom
        assert sorted(started) == [0, 1]
        assert threading.active_count() == before

    def test_first_of_two_exceptions_comes_out(self, monkeypatch):
        """The helper's first chunk raises once the caller's has begun, and
        the caller's raises once the helper has ended: the helper's
        exception, the first, comes out as it was raised."""
        first, second = RuntimeError("helper chunk"), RuntimeError("caller chunk")
        began, raised, raiser = threading.Event(), threading.Event(), []

        def write(part, chunk):
            if part.start == 1:
                assert began.wait(timeout=30)
                raiser.append(threading.current_thread())
                raised.set()
                raise first
            began.set()
            assert raised.wait(timeout=30)
            raiser[0].join(timeout=30)
            raise second

        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        with pytest.raises(RuntimeError) as info:
            invindex._fill_rows(np.zeros((4, 1), dtype=np.float32), 8, write)
        assert info.value is first

    def test_build_interrupted_once_in_its_join_ends_its_helper(self, monkeypatch):
        """An interrupt in the caller's first wait for the helper stops the
        helper after its current chunk, and `build` raises it only once the
        helper has ended: the helper, held in its first chunk until the
        interrupt and for 0.1 s after it, is not alive when `build` raises."""
        x = np.random.default_rng(19).standard_normal((10, 16)).astype(np.float32)
        x[:, 0] = np.arange(10)
        interrupt = KeyboardInterrupt()
        interrupted = threading.Event()
        helpers, started = [], []

        class Thread(threading.Thread):
            def start(self):
                helpers.append(self)
                super().start()

            def join(self, timeout=None):
                if not interrupted.is_set():
                    interrupted.set()
                    raise interrupt
                super().join(timeout)

        def record(xs):
            started.append(int(xs[0, 0]))
            if int(xs[0, 0]) == 1:  # the helper's first chunk
                assert interrupted.wait(timeout=30)
                time.sleep(0.1)

        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        monkeypatch.setattr(threading, "Thread", Thread)
        TestThreadedFill.recording_words(monkeypatch, record)
        with pytest.raises(KeyboardInterrupt) as info:
            invindex.build(FeatureSet(x), TestThreadedFill.config("tifc"))
        assert not helpers[0].is_alive()
        assert info.value is interrupt
        assert sorted(started) == [0, 1, 2, 4, 6, 8]


class TestCpus:
    """`invindex._cpus` on a platform without `os.sched_getaffinity` counts
    `os.cpu_count()` CPUs, or one when that count is unknown."""

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_count_without_affinity_masks(self, count, cpus, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert invindex._cpus() == cpus

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_build_without_affinity_masks_writes_the_same_bytes(self, scheme, small_dataset,
                                                                tmp_path, monkeypatch):
        """On 1-row chunks, so that the fallback's three CPUs run two threads."""
        db, cfg = small_dataset[0], TestThreadedFill.config(scheme)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 1)
        default, fallback = tmp_path / "default.idx", tmp_path / "fallback.idx"
        invindex.save(invindex.build(db, cfg), default)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        started = []
        TestThreadedLoad.counting_thread(monkeypatch, started)
        invindex.save(invindex.build(db, cfg), fallback)
        assert len(started) == 2  # one helper in each pass
        assert fallback.read_bytes() == default.read_bytes()


class TestTwoPassBuild:
    """`build` fills the words in one pass and writes each code straight into
    its list slot (IFC) or its row (TIFC) in a second. The oracle is the
    one-pass grouping it replaced: every row's words, a stable argsort of
    them, then the ids in that order and each entry's code (IFC) or each
    row's (TIFC) by the codes' definition (`oracle_code`)."""

    CONFIGS = {
        "tifc": BuildConfig(scheme="tifc", link_count=3, code_length=8),
        "ifc": BuildConfig(scheme="ifc", link_count=3, code_length=8,
                           pq=PqConfig(segments=2, words_per_segment=4)),
        # L % M != 0: a code segment straddles two sub-centroids
        "ifc-straddling": BuildConfig(scheme="ifc", link_count=4, code_length=8,
                                      pq=PqConfig(segments=3, words_per_segment=3)),
    }

    @staticmethod
    def one_pass(quantizer, x, s, length):
        wids = quantizer.words(x.astype(np.float64), s).ravel()
        order = np.argsort(wids, kind="stable")
        links = order if isinstance(quantizer, pq.PqCodebook) else np.arange(len(x)) * s
        codes = np.array([oracle_code(quantizer, x[e // s], wids[e], length) for e in links])
        wids = wids[order]
        starts = np.flatnonzero(np.concatenate(([True], wids[1:] != wids[:-1])))
        return {"wids": wids[starts], "offsets": np.append(starts, len(wids)),
                "ids": order // s, "codes": codes}

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("chunk_bytes", [1, 20_000, 8 << 20])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_one_pass_grouping(self, name, chunk_bytes, workers, monkeypatch):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((150, 24)).astype(np.float32)
        x[100:] = x[:50]  # duplicate rows share their words and codes
        cfg = self.CONFIGS[name]
        monkeypatch.setattr(vecio, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(invindex, "MAX_THREADS", 3)
        monkeypatch.setattr(invindex, "_cpus", lambda: workers)
        ix = invindex.build(FeatureSet(x), cfg)
        want = self.one_pass(ix.quantizer, x, cfg.link_count, cfg.code_length)
        assert len(want["wids"]) < len(x) * cfg.link_count  # lists of several entries
        for key, value in want.items():
            np.testing.assert_array_equal(getattr(ix, key), value, err_msg=key)


class TestThreadedLoad:
    """`load` runs on the calling thread alone on any CPU count, and makes a
    TIFC bank with `tifc.make_virtual_words` only after the CRC. Tests set
    the CPU count by patching `invindex._cpus`."""

    @staticmethod
    def counting_thread(monkeypatch, started):
        """Patch `threading.Thread` to record each thread it starts."""
        class Thread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Thread)

    @pytest.mark.parametrize("chunk_bytes", [64, 128, 8 << 20])
    def test_load_equal_for_any_cpu_count(self, tifc_index, chunk_bytes, tmp_path,
                                          monkeypatch):
        """1, 2 and 3 CPUs load the same arrays and reference, and save the
        same bytes, and none starts a thread."""
        path = tmp_path / "x.idx"
        invindex.save(tifc_index, path)
        monkeypatch.setattr(vecio, "CHUNK_BYTES", chunk_bytes)
        started = []
        self.counting_thread(monkeypatch, started)
        loads = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(invindex, "_cpus", lambda c=cpus: c)
            loads.append(invindex.load(path))
            assert started == []
            invindex.save(loads[-1], tmp_path / "back.idx")
            assert (tmp_path / "back.idx").read_bytes() == path.read_bytes()
        for ix in loads[1:]:
            for name in ("wids", "offsets", "ids", "codes"):
                np.testing.assert_array_equal(getattr(ix, name), getattr(loads[0], name))
            np.testing.assert_array_equal(ix.quantizer.reference, loads[0].quantizer.reference)
        np.testing.assert_array_equal(loads[0].quantizer.reference,
                                      tifc_index.quantizer.reference)

    def test_ifc_load_starts_no_thread(self, ifc_index, tmp_path, monkeypatch):
        path = tmp_path / "i.idx"
        invindex.save(ifc_index, path)
        monkeypatch.setattr(invindex, "_cpus", lambda: 2)
        started = []
        self.counting_thread(monkeypatch, started)
        invindex.load(path)
        assert started == []

    def test_one_cpu_draws_after_the_crc(self, tifc_index, tmp_path, monkeypatch):
        """A corrupt body fails its checksum before the bank is made (as on
        any CPU count: `load` does not read it)."""
        path = tmp_path / "x.idx"
        invindex.save(tifc_index, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(raw)
        monkeypatch.setattr(invindex, "_cpus", lambda: 1)
        draws = []
        monkeypatch.setattr(tifc, "make_virtual_words", lambda *a: draws.append(a))
        with pytest.raises(DataError, match="checksum"):
            invindex.load(path)
        assert draws == []


class TestBuildConfig:
    """`build_config` maps the paper's names to a BuildConfig, reading only
    the keys of `BUILD_KEYS[scheme]`."""

    PARAMS = dict(S=3, L=8, K=4, M=2, T=4, W=3, scheme="tifc")

    def test_ifc_names(self):
        assert invindex.build_config("ifc", self.PARAMS) == BuildConfig(
            scheme="ifc", link_count=3, code_length=8,
            pq=PqConfig(segments=2, words_per_segment=4))

    def test_tifc_names(self):
        assert invindex.build_config("tifc", self.PARAMS) == BuildConfig(
            scheme="tifc", link_count=3, code_length=8)

    @pytest.mark.parametrize("scheme, missing", [
        ("tifc", "S"), ("tifc", "L"), ("ifc", "S"), ("ifc", "K"), ("ifc", "M")])
    def test_required_name_missing(self, scheme, missing):
        params = {k: v for k, v in self.PARAMS.items() if k != missing}
        with pytest.raises(KeyError, match=missing):
            invindex.build_config(scheme, params)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'lsh'"):
            invindex.build_config("lsh", self.PARAMS)

    @pytest.mark.parametrize("scheme, settings, message", [
        ("tifc", dict(pq=PqConfig(segments=2, words_per_segment=4)),
         "a PqConfig is given for an IFC build and for no other"),
        ("ifc", dict(), "a PqConfig is given for an IFC build and for no other"),
    ])
    def test_settings_the_scheme_does_not_read_rejected(self, scheme, settings, message):
        """A setting that the scheme's build never reads would not survive
        the header, so `load(save(ix)).config` would differ from the
        config: it is refused instead."""
        with pytest.raises(ValueError, match=message):
            BuildConfig(scheme=scheme, link_count=2, code_length=4, **settings)

    @pytest.mark.parametrize("key, value, message", [
        ("S", "4", "link_count must be an integer, got '4'"),
        ("L", True, "code_length must be an integer, got True"),
        ("K", 4.0, "words_per_segment must be an integer, got 4.0"),
        ("M", None, "segments must be an integer, got None"),
    ])
    def test_non_integer_value_rejected(self, key, value, message):
        """Values are passed as they are, never cast: "4" is not read as 4,
        nor True as 1."""
        with pytest.raises(ValueError, match=message):
            invindex.build_config("ifc", {**self.PARAMS, key: value})


class TestBuildMemory:
    """The build's traced peak stays bounded as n grows: rows are chunked by
    their whole footprint, input plus word stage plus word means, plus the
    reconstructed words where those means come from them."""

    LIMIT = 64 << 20

    @staticmethod
    def build_peak(db, cfg, training=None):
        return traced_peak(lambda: invindex.build(db, cfg, training=training))[1]

    def test_tifc_peak_bounded(self):
        """20,000 x 512 at S = 2, L = 8: each row's D term frequencies, not
        its 16 word means, set the chunk (164 MB of float64 rows and
        frequencies if the whole database went at once)."""
        rng = np.random.default_rng(5)
        db = FeatureSet(rng.standard_normal((20_000, 512)).astype(np.float32))
        cfg = BuildConfig(scheme="tifc", link_count=2, code_length=8)
        assert self.build_peak(db, cfg) < self.LIMIT

    def test_ifc_peak_bounded_by_segment_distances(self):
        """K = 256, M = 2 on 64-d rows at S = 1, L = 8: each row's 512
        segment distances outweigh its D + S*L = 72 other values, so they
        must be counted for the chunk to stay small."""
        rng = np.random.default_rng(6)
        db = FeatureSet(rng.standard_normal((20_000, 64)).astype(np.float32))
        training = FeatureSet(rng.standard_normal((1_000, 64)).astype(np.float32))
        cfg = BuildConfig(scheme="ifc", link_count=1, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=256))
        assert self.build_peak(db, cfg, training) < self.LIMIT

    def test_ifc_peak_bounded_by_reconstructed_words(self, monkeypatch):
        """K = 32, M = 3 on 768-d rows at S = 40, L = 8, on one CPU: with
        L % M != 0 each link's means are those of its reconstructed word, D
        float32 values and their float64 copy, 369 KB a row against 9 KB of
        the rest, so they must be counted for the 8 MiB chunk to stay small.
        The peak is 13.4 MiB, set by pass 1, which reconstructs nothing and
        takes 885-row chunks; reconstructing the 16,351 occupied words at
        once took 145."""
        monkeypatch.setattr(invindex, "_cpus", lambda: 1)
        rng = np.random.default_rng(8)
        db = FeatureSet(rng.standard_normal((2_000, 768)).astype(np.float32))
        cfg = BuildConfig(scheme="ifc", link_count=40, code_length=8,
                          pq=PqConfig(segments=3, words_per_segment=32))
        assert self.build_peak(db, cfg) < self.LIMIT

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_tifc_median_buffer_at_most_the_database(self, cpus, monkeypatch):
        """10,000 x 512 at S = 2 and L = D = 512, the widest code: pass 1's
        (L, n) float32 buffer of segment means is then as large as the
        database's own n * D * 4 bytes (19.5 MiB), and the peak adds at most
        one chunk budget to it: 25.6 MiB on one CPU, 21.1 on two."""
        monkeypatch.setattr(invindex, "_cpus", lambda: cpus)
        rng = np.random.default_rng(9)
        db = FeatureSet(rng.standard_normal((10_000, 512)).astype(np.float32))
        cfg = BuildConfig(scheme="tifc", link_count=2, code_length=512)
        assert self.build_peak(db, cfg) < db.vectors.nbytes + vecio.CHUNK_BYTES

    def postings_peak(self, cpus, monkeypatch):
        """The traced peak of a TIFC build of 4,000 x 2,048 at S = 40,
        L = 256 on `cpus` CPUs: its (n, B) codes take 125 KiB and its
        (L, n) buffer of segment means 3.9 MiB."""
        monkeypatch.setattr(invindex, "_cpus", lambda: cpus)
        rng = np.random.default_rng(7)
        db = FeatureSet(rng.standard_normal((4_000, 2_048), dtype=np.float32))
        return self.build_peak(db, BuildConfig(scheme="tifc", link_count=40, code_length=256))

    def test_tifc_postings_filled_in_place(self, monkeypatch):
        """Pass 1 fills the (n, S) words in place and pass 2 writes each
        row's code straight into its row, so the codes are held once: 5.1
        MiB on 2 CPUs."""
        assert self.postings_peak(2, monkeypatch) < 14 << 20

    def test_tifc_postings_peak_on_one_cpu(self, monkeypatch):
        """On one CPU the 8 MiB chunk sets the peak: 7.7 MiB."""
        assert self.postings_peak(1, monkeypatch) < 22 << 20


class TestDefaultsMemory:
    """`cnnidx build`'s defaults (IFC K = 1,000, M = 2, L = 512, S = 40) on
    1,000 x 512 rows occupy 39,927 of the 10^6 words. The codes gather their
    words' means from the codebook's (2,000, 256) table, 3.9 MiB, so neither
    the build nor the first query after a load holds one float64 row of L
    means per list (156 MiB): their traced peaks were 170 and 160 MiB when
    they did, and are 19 and 4.2 MiB."""

    FIRST_QUERY_LIMIT = 8 << 20

    def test_build_and_first_query_peaks(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["build", "--features", "db.fvecs", "--scheme", "ifc", "--out", "db.idx"])
        cfg = invindex.build_config("ifc", vars(args))
        assert (cfg.pq, cfg.code_length, cfg.link_count) == (PqConfig(2, 1000), 512, 40)
        x = np.random.default_rng(12).standard_normal((1_000, 512)).astype(np.float32)
        ix, peak = traced_peak(lambda: invindex.build(FeatureSet(x), cfg))
        assert peak < TestBuildMemory.LIMIT
        invindex.save(ix, tmp_path / "db.idx")
        ix = invindex.load(tmp_path / "db.idx")
        result, peak = traced_peak(lambda: search.query(ix, x[0], search.query_config(cfg, {})))
        assert result.entries[0] == (0, 40, 0)
        assert peak < self.FIRST_QUERY_LIMIT


class TestEncodeRows:
    """IFC codes (`invindex.list_codes` against `PqCodebook.word_means`)
    against the codes' definition: the bits of the row's segment means >= the
    segment means of the reconstructed word. With M | L the means are
    gathered from the codebook's table of the sub-centroids' own segment
    means, otherwise taken from the reconstructed words."""

    @staticmethod
    def codebook(dim, m, integer, seed):
        rng = np.random.default_rng(seed)
        shape = (m, 5, dim // m)
        sub = (rng.integers(0, 3, shape) if integer else rng.standard_normal(shape))
        return pq.PqCodebook(sub_codebooks=sub.astype(np.float32))

    @staticmethod
    def oracle(cb, xs, wids, length):
        means = embed.segment_means(pq.reconstruct_batch(wids.ravel(), cb), length)
        return embed.pack_bits(embed.segment_means(xs, length)[:, None, :]
                               >= means.reshape(*wids.shape, length))

    # (M, L) on 96-d rows: D/L from 1 to 24 values per segment mean
    @pytest.mark.parametrize("m, length", [
        (1, 8), (2, 8), (4, 8), (4, 4), (2, 32), (4, 96), (3, 12),  # M | L: gathered
        (3, 8), (2, 3), (4, 6),  # a code segment straddles two sub-centroids
    ])
    @pytest.mark.parametrize("integer", [False, True])
    def test_codes_equal_reconstructed_means(self, monkeypatch, m, length, integer):
        """Integer rows and centroids make row means equal word means, so the
        >= in the tie is checked too. Rows encoded 1, 3 or all at a time get
        the same codes."""
        cb = self.codebook(96, m, integer, seed=10 * m + length)
        rng = np.random.default_rng(length)
        xs = (rng.integers(0, 3, (20, 96)) if integer
              else rng.standard_normal((20, 96))).astype(np.float64)
        wids = rng.integers(0, cb.word_count, (20, 7))
        wids[:, 1] = wids[:, 0]  # a word twice in a row
        want = self.oracle(cb, xs, wids, length)
        if integer:
            bits = np.unpackbits(want, axis=-1, bitorder="little")[..., :length]
            x_means = embed.segment_means(xs, length)[:, None, :]
            ties = x_means == embed.segment_means(
                pq.reconstruct_batch(wids.ravel(), cb), length).reshape(20, 7, length)
            assert ties.any() and bits[ties].all()
        if length % m == 0:
            # gathered alone: reconstructing a word would be the other path
            monkeypatch.setattr(pq, "reconstruct_batch", None)
        for size in (1, 3, len(xs)):
            got = np.concatenate([invindex.list_codes(cb, xs[lo:lo + size],
                                                      wids[lo:lo + size], length)
                                  for lo in range(0, len(xs), size)])
            np.testing.assert_array_equal(got, want, err_msg=f"chunks of {size}")

    def test_reloaded_codebook_gives_equal_codes(self, tmp_path):
        rng = np.random.default_rng(8)
        db = FeatureSet(rng.standard_normal((300, 16)).astype(np.float32))
        cfg = BuildConfig(scheme="ifc", link_count=3, code_length=8,
                          pq=PqConfig(segments=2, words_per_segment=4))
        ix = invindex.build(db, cfg)
        invindex.save(ix, tmp_path / "i.idx")
        loaded = invindex.load(tmp_path / "i.idx")
        back = loaded.quantizer
        xs = rng.standard_normal((40, 16))
        wids = pq.nearest_words_batch(xs, ix.quantizer, 3)
        np.testing.assert_array_equal(pq.nearest_words_batch(xs, back, 3), wids)
        assert invindex.find_lists(ix, wids)[1].all()
        np.testing.assert_array_equal(invindex.list_codes(back, xs, wids, 8),
                                      invindex.list_codes(ix.quantizer, xs, wids, 8))
        np.testing.assert_array_equal(back.centroids, ix.quantizer.centroids)
        np.testing.assert_array_equal(back.sq_norms, ix.quantizer.sq_norms)

    def test_cached_constants_read_only(self):
        """The codebook's constants, and its table of the sub-centroids'
        segment means for L = 8, which it makes once, on first use."""
        cb = self.codebook(96, 2, False, seed=9)
        c = cb.sub_codebooks.astype(np.float64)
        np.testing.assert_array_equal(cb.centroids, c)
        np.testing.assert_array_equal(cb.sq_norms, np.einsum("mkd,mkd->mk", c, c))
        wids = np.arange(cb.word_count)
        assert not cb.mean_tables
        assert cb.word_means(wids, 8).shape == (cb.word_count, 8)
        table = cb.mean_tables[8]
        np.testing.assert_array_equal(table, embed.segment_means(c, 4).reshape(10, 4))
        cb.word_means(wids[::-1], 8)
        assert list(cb.mean_tables) == [8] and cb.mean_tables[8] is table
        for a in (cb.centroids, cb.sq_norms, table):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestListMeans:
    """Differential test of the reference means of an index's lists' words
    and of its stored codes: a loaded index's means equal the built one's,
    and every entry's code equals `oracle_code` of its row and its list's
    word, for IFC with M | L and with L % M != 0, and for TIFC, whose one
    reference row serves every word, with every word occupied and with an
    empty word."""

    CASES = {
        "ifc": (BuildConfig("ifc", 3, 8, PqConfig(2, 4)), None),
        "ifc-straddling": (BuildConfig("ifc", 4, 8, PqConfig(3, 3)), None),
        "tifc-full": (BuildConfig("tifc", 3, 8), None),
        # word 5 is every row's smallest activation, so no row links to it
        "tifc-empty-word": (BuildConfig("tifc", 3, 8), 5),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_means_and_codes_match_the_definition(self, name, tmp_path):
        cfg, empty = self.CASES[name]
        x = np.random.default_rng(31).standard_normal((120, 24)).astype(np.float32)
        if empty is not None:
            x[:, empty] = -100.0
        ix = invindex.build(FeatureSet(x), cfg)
        q, length = ix.quantizer, cfg.code_length
        means = q.word_means(ix.wids, length)
        if cfg.pq:
            want = embed.segment_means(pq.reconstruct_batch(ix.wids, q), length)
            np.testing.assert_array_equal(means, want)
        elif empty is None:
            assert len(ix.wids) == q.word_count
            np.testing.assert_array_equal(means, q.reference[None])
        else:
            assert empty not in ix.wids and len(ix.wids) == q.word_count - 1
            np.testing.assert_array_equal(means, q.reference[None])
        path = tmp_path / "x.idx"
        invindex.save(ix, path)
        back = invindex.load(path)
        np.testing.assert_array_equal(back.quantizer.word_means(back.wids, length), means)
        words = np.repeat(ix.wids, np.diff(ix.offsets))
        for e, (row, wid) in enumerate(zip(ix.ids, words)):
            np.testing.assert_array_equal(entry_codes(ix)[e],
                                          oracle_code(q, x[row], wid, length),
                                          err_msg=f"entry {e}")
        np.testing.assert_array_equal(back.codes, ix.codes)


@pytest.mark.parametrize("scheme", ["tifc", "ifc"])
class TestQuantizerContract:
    """Both quantizers have the same members, and what `save` writes of an
    index (the header of `_header_json` and the quantizer's `payload`) remakes
    its quantizer: `_read_header` gives back the build configuration and D,
    from which `load` makes the quantizer."""

    def test_header_and_payload_remake_the_quantizer(self, scheme, tifc_index, ifc_index,
                                                     tmp_path):
        ix = tifc_index if scheme == "tifc" else ifc_index
        q = ix.quantizer
        assert (q.word_count, q.stage_width) == {"tifc": (16, 16), "ifc": (16, 8)}[scheme]
        payload = q.payload()
        header = invindex._header_json(ix.config, q.dim, ix.indexed_count)
        cfg, dim, n = invindex._read_header("contract.idx", header)
        assert (cfg, dim, n) == (ix.config, q.dim, ix.indexed_count)
        assert cfg.word_count(dim, "contract.idx") == q.word_count
        path = tmp_path / "contract.idx"
        invindex.save(ix, path)
        loaded = invindex.load(path)
        back = loaded.quantizer
        assert type(back) is type(q)
        assert loaded.config == ix.config
        # the payload read back is the one written, at its full size
        assert back.payload().tobytes() == payload.tobytes()
        assert (back.dim, back.word_count, back.stage_width) == (q.dim, q.word_count,
                                                                 q.stage_width)
        length = ix.config.code_length
        xs = np.random.default_rng(11).standard_normal((30, q.dim))
        for count in (1, ix.config.link_count, q.word_count):
            wids = q.words(xs, count)
            assert wids.shape == (30, count)
            np.testing.assert_array_equal(back.words(xs, count), wids)
            means = q.word_means(wids, length)
            # TIFC: the one reference row, which broadcasts over the words
            assert means.shape == ((30, count, length) if scheme == "ifc" else (1, length))
            np.testing.assert_array_equal(back.word_means(wids, length), means)
        np.testing.assert_array_equal(loaded.quantizer.word_means(loaded.wids, length),
                                      q.word_means(ix.wids, length))

    def test_quantizer_bytes_is_payload_size(self, scheme, tifc_index, ifc_index):
        """IFC stores M * K * (D/M) float32 centroids; TIFC its L float32
        reference means."""
        ix = tifc_index if scheme == "tifc" else ifc_index
        expected = {"tifc": 8 * 4, "ifc": 2 * 4 * (16 // 2) * 4}[scheme]
        assert invindex.stats(ix).quantizer_bytes == ix.quantizer.payload().nbytes == expected


class TestQuantizerMatchesConfig:
    """An index holds only a quantizer that its `BuildConfig` makes: an
    (M, K, D/M) codebook for IFC, a bank of an L-value reference for TIFC. Any other is
    refused when the index is made, so `save` never writes a header that
    misstates the quantizer."""

    @pytest.fixture(scope="class")
    def indexes(self):
        db = FeatureSet(np.random.default_rng(24).standard_normal((200, 8)).astype(np.float32))
        return {
            "ifc": invindex.build(db, BuildConfig("ifc", 2, 4, PqConfig(2, 4))),
            "tifc": invindex.build(db, BuildConfig("tifc", 2, 4)),
        }

    @staticmethod
    def codebook(m, k, seg_dim):
        rng = np.random.default_rng(m * k)
        return pq.PqCodebook(rng.standard_normal((m, k, seg_dim)).astype(np.float32))

    @pytest.mark.parametrize("scheme, make, message", [
        # M = 4, K = 4 under M = 2, K = 4: the payload has the same size
        ("ifc", lambda: TestQuantizerMatchesConfig.codebook(4, 4, 2),
         r"payload has shape \(4, 4, 2\), not the \(2, 4, 4\) of its file section"),
        ("ifc", lambda: TestQuantizerMatchesConfig.codebook(2, 8, 4),  # K = 8 under K = 4
         r"payload has shape \(2, 8, 4\), not the \(2, 4, 4\) of its file section"),
        ("tifc", lambda: tifc.make_virtual_words(8, np.zeros(2)),  # L = 2 under L = 4
         r"payload has shape \(2,\), not the \(4,\) of its file section"),
        ("ifc", lambda: tifc.make_virtual_words(8, np.zeros(4)),
         "does not make a quantizer of this type"),
        ("tifc", lambda: TestQuantizerMatchesConfig.codebook(2, 4, 4),
         "does not make a quantizer of this type"),
    ], ids=["ifc-m4-same-size", "ifc-k8", "tifc-l2", "ifc-table", "tifc-codebook"])
    def test_other_quantizer_refused(self, indexes, scheme, make, message):
        ix, quantizer = indexes[scheme], make()
        assert quantizer.dim == ix.quantizer.dim
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ix, quantizer=quantizer)
        fields = {f.name: getattr(ix, f.name) for f in dataclasses.fields(ix) if f.init}
        with pytest.raises(ValueError, match=message):
            invindex.InvertedIndex(**{**fields, "quantizer": quantizer})

    def test_float64_codebook_refused(self, indexes):
        """`save` writes the codebook as float32, so a float64 one (the
        trained codebook plus 1e-9 noise) would answer otherwise in memory
        than after a round trip."""
        ix = indexes["ifc"]
        sub = ix.quantizer.sub_codebooks.astype(np.float64) + 1e-9
        fields = {f.name: getattr(ix, f.name) for f in dataclasses.fields(ix) if f.init}
        for make in (lambda q: dataclasses.replace(ix, quantizer=q),
                     lambda q: invindex.InvertedIndex(**{**fields, "quantizer": q})):
            with pytest.raises(ValueError, match="codebook dtype float64 is not float32"):
                make(pq.PqCodebook(sub))
        # a big-endian float32 codebook holds the same values: accepted
        dataclasses.replace(ix, quantizer=pq.PqCodebook(sub.astype(">f4")))

    def test_float64_reference_refused(self, indexes):
        """`save` writes the TIFC reference as float32 too, so a float64 one
        is refused as a float64 codebook is."""
        ix = indexes["tifc"]
        reference = ix.quantizer.reference.astype(np.float64) + 1e-9
        with pytest.raises(ValueError, match="reference dtype float64 is not float32"):
            dataclasses.replace(ix, quantizer=tifc.VirtualWordBank(8, reference))

    def test_quantizers_hold_only_their_arrays(self):
        assert [f.name for f in dataclasses.fields(pq.PqCodebook) if f.init] == ["sub_codebooks"]
        assert [f.name for f in dataclasses.fields(tifc.VirtualWordBank)] == ["dim", "reference"]

    def test_same_size_codebook_payload(self, indexes):
        """The refused M = 4 codebook would have saved under the M = 2 header
        and loaded reshaped into another codebook."""
        assert self.codebook(4, 4, 2).payload().size == indexes["ifc"].quantizer.payload().size

    @pytest.mark.parametrize("scheme", ["ifc", "tifc"])
    def test_round_trip_keeps_config_and_arrays(self, indexes, scheme, tmp_path):
        ix = indexes[scheme]
        invindex.save(ix, tmp_path / "x.idx")
        back = invindex.load(tmp_path / "x.idx")
        assert back.config == ix.config
        name = "sub_codebooks" if scheme == "ifc" else "reference"
        a, b = getattr(back.quantizer, name), getattr(ix.quantizer, name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


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

    def test_old_format_asks_for_rebuild(self, tifc_index, ifc_index, tmp_path):
        """Every retired format of `OLD_FORMATS`, of either scheme, asks for
        a rebuild; a header whose quantizer holds a retired key is not one
        that `save` writes, under the current magic too."""
        path = tmp_path / "old.idx"
        for magic, extra_keys in OLD_FORMATS.items():
            for ix in (tifc_index, ifc_index):
                write_old_file(ix, path, magic)
                with pytest.raises(DataError, match=f"old {magic} format; rebuild the index"):
                    invindex.load(path)
                if extra_keys.get(ix.config.scheme):
                    path.write_bytes(invindex.MAGIC + path.read_bytes()[8:])
                    with pytest.raises(DataError, match="index header is not the one `save` "
                                                        "writes"):
                        invindex.load(path)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_cnnidx04_file_asks_for_rebuild(self, scheme, tifc_index, ifc_index, tmp_path):
        path = tmp_path / "old.idx"
        write_old_file(tifc_index if scheme == "tifc" else ifc_index, path, "CNNIDX04")
        with pytest.raises(DataError, match="old CNNIDX04 format; rebuild the index"):
            invindex.load(path)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_cnnidx05_file_asks_for_rebuild(self, scheme, tifc_index, ifc_index, tmp_path):
        path = tmp_path / "old.idx"
        write_old_file(tifc_index if scheme == "tifc" else ifc_index, path, "CNNIDX05")
        with pytest.raises(DataError, match="old CNNIDX05 format; rebuild the index"):
            invindex.load(path)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_cnnidx07_file_asks_for_rebuild(self, scheme, tifc_index, ifc_index, tmp_path):
        """A file as `CNNIDX07` wrote it: no TIFC payload, an `nlists`
        section before the posting lists, and a code per link for both
        schemes."""
        ix = tifc_index if scheme == "tifc" else ifc_index
        header = invindex._header_json(ix.config, ix.quantizer.dim, ix.indexed_count)
        payload = ix.quantizer.payload() if scheme == "ifc" else np.empty(0, "<f4")
        sections = [payload, np.array([len(ix.wids)], "<u8"), ix.wids, np.diff(ix.offsets),
                    ix.ids, entry_codes(ix)]
        path = tmp_path / "old.idx"
        write_file(path, header, b"".join(np.ascontiguousarray(a).tobytes() for a in sections))
        path.write_bytes(b"CNNIDX07" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="old CNNIDX07 format; rebuild the index"):
            invindex.load(path)

    def test_cnnidx05_ifc_header_under_the_new_magic_rejected(self, ifc_index, tmp_path):
        """An IFC header that still holds the restart count is not one that
        `save` writes, whatever the magic."""
        path = tmp_path / "old.idx"
        invindex.save(ifc_index, path)
        header, payload = split_file(path)
        header["quantizer"]["kmeans_restarts"] = 3
        write_file(path, header, payload)
        with pytest.raises(DataError, match="index header is not the one `save` writes"):
            invindex.load(path)

    @pytest.mark.parametrize("scheme", ["tifc", "ifc"])
    def test_header_holds_only_the_configuration(self, scheme, tifc_index, ifc_index,
                                                 tmp_path):
        """The header is the BuildConfig with D and n: no quantizer kind and
        no word count, which the configuration fixes. Its bytes are
        `_header_json`'s, and a loaded file saves back to the same bytes."""
        ix = tifc_index if scheme == "tifc" else ifc_index
        cfg, dim = ix.config, ix.quantizer.dim
        path = tmp_path / "h.idx"
        invindex.save(ix, path)
        header, _ = split_file(path)
        quantizer = ({"dim": dim} if scheme == "tifc"
                     else {"dim": dim, **dataclasses.asdict(cfg.pq)})
        assert header == {"scheme": scheme, "link_count": cfg.link_count,
                          "code_length": cfg.code_length, "indexed_count": ix.indexed_count,
                          "quantizer": quantizer}
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, 8)
        assert blob[12:12 + hlen] == invindex._header_json(cfg, dim, ix.indexed_count)
        invindex.save(invindex.load(path), tmp_path / "again.idx")
        assert (tmp_path / "again.idx").read_bytes() == blob

    def test_header_bytes_are_the_cnnidx07_format(self):
        """The header's keys, their order and their spacing, which `CNNIDX08`
        keeps from `CNNIDX07`: a TIFC header is the one `CNNIDX05` to
        `CNNIDX07` files held, and an IFC header is that of `CNNIDX06`
        without the k-means seed and iteration cap."""
        tifc_cfg = BuildConfig(scheme="tifc", link_count=2, code_length=12)
        assert invindex._header_json(tifc_cfg, 12, 3) == (
            b'{"code_length": 12, "indexed_count": 3, "link_count": 2, '
            b'"quantizer": {"dim": 12}, "scheme": "tifc"}')
        ifc_cfg = BuildConfig(scheme="ifc", link_count=40, code_length=32,
                              pq=PqConfig(segments=2, words_per_segment=64))
        assert invindex._header_json(ifc_cfg, 64, 15000) == (
            b'{"code_length": 32, "indexed_count": 15000, "link_count": 40, '
            b'"quantizer": {"dim": 64, "segments": 2, "words_per_segment": 64}, '
            b'"scheme": "ifc"}')


def split_file(path):
    """(header dict, bytes after the header) of a saved index file."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12:12 + hlen]), blob[12 + hlen:-4]


def layout_of(ix):
    """`invindex._layout` for ix: its file's sections after the header."""
    return invindex._layout(ix.config, ix.quantizer.dim, ix.indexed_count, len(ix.wids))


def section_arrays(ix, **fields):
    """ix's arrays by the names of its file's sections, in file order, with
    the index fields of `fields` (a quantizer, wids, lengths, ids or codes)
    in place of ix's own: the sections of an index that need not be one
    that can be made."""
    given = {name: getattr(ix, name) for name in ("quantizer", "wids", "lengths", "ids", "codes")}
    given.update(fields)
    return {"payload": given.pop("quantizer").payload(), **given}


def sections_bytes(layout, sections):
    """The bytes after the header of a file of `layout`, each of the
    section arrays `sections` cast to its section's dtype."""
    return b"".join(np.ascontiguousarray(sections[name], dtype=dtype).tobytes()
                    for name, _, dtype in layout)


def write_file(path, header, payload):
    """An index file from a header and the bytes after it, with a valid CRC.
    A header dict is written with sorted keys, as `save` writes it; bytes
    are written as they are."""
    head = header if isinstance(header, bytes) else json.dumps(header, sort_keys=True).encode()
    body = struct.pack("<I", len(head)) + head + payload
    path.write_bytes(invindex.MAGIC + body + struct.pack("<I", zlib.crc32(body)))


def write_raw(path, ix, sections):
    """A file with ix's header and the section arrays `sections`, each cast
    to its section's dtype, for as many lists as `sections` has word ids:
    the file of an index that construction may refuse, so `load` meets it."""
    layout = invindex._layout(ix.config, ix.quantizer.dim, ix.indexed_count,
                              len(sections["wids"]))
    write_file(path, invindex._header_json(ix.config, ix.quantizer.dim, ix.indexed_count),
               sections_bytes(layout, sections))


# Every retired format by its magic, with the keys, by scheme, that its
# header's quantizer object held beyond today's, at their default values:
# the edit that makes a current file into one of that format. Before
# CNNIDX04 the layout differed beyond the header, and the magic alone stands
# for it.
_OLD_KMEANS = {"kmeans_iters": 25, "kmeans_seed": 0}
OLD_FORMATS = {
    "CNNIDX01": {}, "CNNIDX02": {}, "CNNIDX03": {},
    "CNNIDX04": {"tifc": {"seed": 0}, "ifc": {**_OLD_KMEANS, "kmeans_restarts": 3}},
    "CNNIDX05": {"ifc": {**_OLD_KMEANS, "kmeans_restarts": 3}},
    "CNNIDX06": {"ifc": _OLD_KMEANS},
    "CNNIDX07": {},
}


def write_old_file(ix, path, magic):
    """ix's file as the retired format `magic` of `OLD_FORMATS` wrote it."""
    invindex.save(ix, path)
    header, payload = split_file(path)
    header["quantizer"].update(OLD_FORMATS[magic].get(ix.config.scheme, {}))
    write_file(path, header, payload)
    path.write_bytes(magic.encode() + path.read_bytes()[8:])


@pytest.fixture(scope="module")
def tiny_index():
    """Three 12-d vectors, each in two of the 12 TIFC words, with one 12-bit
    code each (4 pad bits in the second byte); posting arrays written out by
    hand, at their file dtypes."""
    rng = np.random.default_rng(4)
    ix = invindex.build(FeatureSet(rng.standard_normal((3, 12)).astype(np.float32)),
                        BuildConfig(scheme="tifc", link_count=2, code_length=12))
    return dataclasses.replace(
        ix, wids=np.array([0, 5, 7], dtype=np.uint8), lengths=np.array([2, 2, 2], dtype=np.uint8),
        ids=np.array([0, 1, 1, 2, 0, 2], dtype=np.uint8),
        codes=np.zeros((3, 2), dtype=np.uint8))


# Changes to `tiny_index`'s arrays that break a rule of
# `invindex._check_sections`, each with the fragment of the message that
# `load` gives for its file and construction for the index. A -1 is cast
# to 255.
MALFORMED_POSTINGS = [
    (dict(ids=[-1, 1, 1, 2, 0, 2]), "outside"),
    (dict(ids=[0, 1, 1, 3, 0, 2]), "outside"),
    (dict(ids=[1, 0, 1, 2, 0, 2]), "strictly increasing within"),
    (dict(ids=[1, 1, 1, 2, 0, 2]), "strictly increasing within"),
    (dict(wids=[-1, 5, 7]), "word ids"),
    (dict(wids=[0, 5, 12]), "word ids"),
    (dict(wids=[5, 0, 7]), "word ids"),
    (dict(wids=[0, 5, 5]), "word ids"),
    (dict(wids=[0, 3, 5, 7], lengths=[2, 0, 2, 2]), "lengths"),
    (dict(lengths=[2, 2, 1]), "lengths"),
    (dict(lengths=[2, 2, 3]), "lengths"),
    (dict(codes=[[0, 0]] * 2 + [[0, 0x10]]), "pad bits"),
]


def hand_made(ix, change):
    """The index fields of `change`, each cast to the dtype ix holds it at:
    the fields of an index that `dataclasses.replace(ix, ...)` makes or
    refuses, and that `section_arrays(ix, ...)` writes out."""
    return {k: np.asarray(v).astype(getattr(ix, k).dtype) for k, v in change.items()}


class TestLoadValidation:
    """CRC-valid files that break the layout's rules raise DataError."""

    def test_hand_written_arrays_load(self, tiny_index, tmp_path):
        path = tmp_path / "ok.idx"
        invindex.save(tiny_index, path)
        back = invindex.load(path)
        for name in ("wids", "offsets", "ids", "codes"):
            np.testing.assert_array_equal(getattr(back, name), getattr(tiny_index, name))

    @pytest.mark.parametrize("change, message", MALFORMED_POSTINGS)
    def test_malformed_postings_rejected(self, tiny_index, tmp_path, change, message):
        path = tmp_path / "bad.idx"
        write_raw(path, tiny_index, section_arrays(tiny_index, **hand_made(tiny_index, change)))
        with pytest.raises(DataError, match=message):
            invindex.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("indexed_count"), "'indexed_count' missing"),
        (lambda h: h.pop("link_count"), "link_count must be an integer, got None"),
        (lambda h: h.update(link_count=True), "link_count must be an integer, got True"),
        (lambda h: h.update(code_length=12.0), "code_length must be an integer, got 12.0"),
        (lambda h: h.update(indexed_count=0), "'indexed_count' is 0"),
        (lambda h: h.update(scheme=5), "unknown scheme 5"),
        (lambda h: h.update(quantizer=[]), "'quantizer' missing or not dict"),
        (lambda h: h["quantizer"].update(dim="12"), "'dim' missing or not int"),
        (lambda h: h.update(scheme="ifc"), "segments must be an integer, got None"),
        (lambda h: h.update(link_count=13), "exceeds word count"),
        (lambda h: h.update(indexed_count=2**31), "exceeds int32 result ids"),
        (lambda h: h.update(code_length=5), "not divisible by code length"),
        (lambda h: h["quantizer"].update(dim=0), "dimension 0 below 1"),
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
        for key, value, message in (("words_per_segment", 0,
                                     "words_per_segment must be >= 1, got 0"),
                                    ("segments", "2", "segments must be an integer, got '2'"),
                                    ("segments", 3, "not divisible by 3 segments"),
                                    ("segments", 64, "64-bit word id")):
            edited = json.loads(json.dumps(header))
            edited["quantizer"][key] = value
            write_file(path, edited, payload)
            with pytest.raises(DataError, match=message):
                invindex.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_centroid_rejected(self, ifc_index, tmp_path, value):
        """A CRC-valid file whose first centroid is NaN or infinite would give
        other words than the intact index; `load` rejects it."""
        path = tmp_path / "bad.idx"
        invindex.save(ifc_index, path)
        header, payload = split_file(path)
        write_file(path, header, struct.pack("<f", value) + payload[4:])
        with pytest.raises(DataError, match="NaN or infinite centroid"):
            invindex.load(path)

    def test_wide_tifc_header_loads_in_bounded_memory(self, tiny_index, tmp_path):
        """A file of about 200 bytes that declares dim 4,096 loads without a
        134 MB D x D virtual-word bank: its bank holds the L reference means."""
        path = tmp_path / "wide.idx"
        invindex.save(tiny_index, path)
        header, _ = split_file(path)
        header["code_length"] = 16
        header["quantizer"]["dim"] = 4096
        # 4,096 words widen the file's word ids to 16 bits
        wide = section_arrays(tiny_index, quantizer=tifc.make_virtual_words(4096, np.zeros(16)))
        layout = invindex._layout(dataclasses.replace(tiny_index.config, code_length=16), 4096,
                                  tiny_index.indexed_count, len(tiny_index.wids))
        write_file(path, header, sections_bytes(layout, wide))
        ix, peak = traced_peak(lambda: invindex.load(path))
        assert ix.quantizer.reference.shape == (16,)
        assert peak < 16 << 20

    def test_old_virtual_kind_asks_for_rebuild(self, tiny_index, tmp_path):
        """A TIFC file whose table came from the old D x D bank (quantizer
        kind "virtual", beside a word_count) has a CNNIDX03 magic at the
        latest, which asks for the rebuild."""
        path = tmp_path / "old.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        header["word_count"] = 12
        header["quantizer"]["kind"] = "virtual"
        write_file(path, header, payload)
        path.write_bytes(b"CNNIDX03" + path.read_bytes()[8:])
        with pytest.raises(DataError, match="CNNIDX03.*rebuild"):
            invindex.load(path)

    @pytest.mark.parametrize("form", [
        # a CNNIDX03-style TIFC header under the current magic
        lambda h: json.dumps({**h, "word_count": 999, "quantizer": {**h["quantizer"],
                              "kind": "virtual"}}, sort_keys=True),
        # a CNNIDX04 TIFC header, which held the table's seed
        lambda h: json.dumps({**h, "quantizer": {**h["quantizer"], "seed": 0}},
                             sort_keys=True),
        lambda h: json.dumps({**h, "extra": 1}, sort_keys=True),
        lambda h: json.dumps({**h, "quantizer": {**h["quantizer"], "kind": "means"}},
                             sort_keys=True),
        lambda h: json.dumps(h, sort_keys=True).replace('"scheme": "tifc"',
                                                        '"scheme": "tifc", "scheme": "tifc"'),
        lambda h: json.dumps(dict(reversed(h.items()))),
        lambda h: json.dumps(h, sort_keys=True, separators=(",", ":")),
        lambda h: json.dumps(h, sort_keys=True, indent=1),
        lambda h: json.dumps(h, sort_keys=True).replace('"tifc"', '"\\u0074ifc"'),
    ], ids=["found-file", "cnnidx04-seed", "unknown-key", "unknown-quantizer-key",
            "repeated-key", "unsorted", "compact", "indented", "escaped"])
    def test_header_not_in_saved_form_rejected(self, tiny_index, tmp_path, form):
        """A header that states a valid configuration loads only in the
        exact form `save` writes for it, so every file that loads saves back
        to the same bytes: no other key, no repeat, order or spacing."""
        path = tmp_path / "bad.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        write_file(path, form(header).encode(), payload)
        with pytest.raises(DataError, match="index header is not the one `save` writes "
                                            "for its configuration"):
            invindex.load(path)

    def test_header_that_is_a_json_array_rejected(self, tiny_index, tmp_path):
        path = tmp_path / "bad.idx"
        invindex.save(tiny_index, path)
        header, payload = split_file(path)
        write_file(path, json.dumps([header]).encode(), payload)
        with pytest.raises(DataError, match="index header is not a JSON object"):
            invindex.load(path)

    def test_unreadable_header_rejected(self, tiny_index, tmp_path):
        path = tmp_path / "bad.idx"
        invindex.save(tiny_index, path)
        _, payload = split_file(path)
        body = struct.pack("<I", 3) + b"\xff{]" + payload
        path.write_bytes(invindex.MAGIC + body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(DataError, match="unreadable index header"):
            invindex.load(path)


class TestSaveValidation:
    """The indexes that `save` refused before construction held the rules:
    each is now refused, with ValueError, when it is made, with the message
    `load` gives for its file after the file's name; and `save` only
    writes."""

    @pytest.mark.parametrize("change, message", MALFORMED_POSTINGS)
    def test_malformed_postings_refused(self, tiny_index, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(tiny_index, **hand_made(tiny_index, change))

    @pytest.mark.parametrize("edit, message", [
        (lambda ix: dict(ids=np.r_[ix.ids[1::-1], ix.ids[2:]]), "strictly increasing within"),
        (lambda ix: dict(wids=np.r_[ix.wids[1::-1], ix.wids[2:]]), "word ids"),
        (lambda ix: dict(lengths=np.r_[0, ix.offsets[2], ix.lengths[2:]].astype(ix.lengths.dtype)),
         "lengths"),
    ], ids=["ids-swapped", "word-ids-swapped", "empty-list"])
    def test_built_index_edits_refused(self, golden_index, tmp_path, edit, message):
        """A built index with its first two ids or word ids swapped, or its
        first list emptied into the second: construction refuses it, and
        `load` rejects the file of its arrays, alike."""
        fields = edit(golden_index)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(golden_index, **fields)
        path = tmp_path / "bad.idx"
        write_raw(path, golden_index, section_arrays(golden_index, **fields))
        with pytest.raises(DataError, match=message):
            invindex.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_centroid_refused(self, ifc_index, tmp_path, value):
        """The index of `TestLoadValidation.test_non_finite_centroid_rejected`'s
        file: construction refuses it, and `load` rejects its file."""
        sub = ifc_index.quantizer.sub_codebooks.copy()
        sub[0, 0, 0] = value
        quantizer = pq.PqCodebook(sub)
        with pytest.raises(ValueError, match="NaN or infinite centroid"):
            dataclasses.replace(ifc_index, quantizer=quantizer)
        path = tmp_path / "bad.idx"
        write_raw(path, ifc_index, section_arrays(ifc_index, quantizer=quantizer))
        with pytest.raises(DataError, match="NaN or infinite centroid"):
            invindex.load(path)

    @pytest.mark.parametrize("change", [dict(ids=[0, 1, 1, 2, 256, 2]), dict(wids=[256, 5, 7])],
                             ids=["id", "word-id"])
    def test_values_the_file_width_wraps_refused(self, tiny_index, tmp_path, change):
        """An id and a word id of 256 where the file holds them as uint8:
        written raw, the file loads with no error as another index, the
        hand-written one's with 0 for 256; construction refuses the int64
        array that holds 256, as the file's dtype is uint8."""
        ((name, values),) = change.items()
        values = np.array(values, dtype=np.int64)
        with pytest.raises(ValueError, match=f"^{name} dtype int64 is not uint8, the dtype "
                                             "of its file section$"):
            dataclasses.replace(tiny_index, **{name: values})
        path = tmp_path / "bad.idx"
        write_raw(path, tiny_index, section_arrays(tiny_index, **{name: values}))
        back = invindex.load(path)
        assert not np.array_equal(getattr(back, name), values)
        for name in ("wids", "offsets", "ids", "codes"):
            np.testing.assert_array_equal(getattr(back, name), getattr(tiny_index, name))

    def test_index_with_no_entries_refused(self, tiny_index):
        """n = 0 with no lists meets every other rule vacuously (its empty
        ids at the dtype `posting_dtypes` gives for n = 0); `load` refuses
        its header, and construction refuses it by the lengths rule."""
        id_t = invindex.posting_dtypes(12, 0)[2]
        with pytest.raises(ValueError, match="lengths are not all >= 1 with sum .* = 0"):
            dataclasses.replace(tiny_index, indexed_count=0, wids=tiny_index.wids[:0],
                                lengths=tiny_index.lengths[:0], ids=np.empty(0, dtype=id_t),
                                codes=tiny_index.codes[:0])

    def test_swapped_neighbour_ids_found_anywhere(self):
        """Two neighbouring ids swapped at any of the 2,999 places in 3,000,
        in a list or across the end of one, break the id-order rule;
        unswapped, they pass."""
        db = FeatureSet(np.random.default_rng(8).standard_normal((1_500, 8)).astype(np.float32))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=8))

        def check(ids):
            invindex._check_sections(ix.config, 8, ix.indexed_count, section_arrays(ix, ids=ids))

        check(ix.ids)
        for p in range(len(ix.ids) - 1):
            ids = ix.ids.copy()
            ids[[p, p + 1]] = ids[[p + 1, p]]
            with pytest.raises(ValueError, match="strictly increasing within"):
                check(ids)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_construction_refuses_exactly_what_load_rejects(self, tiny_index, tmp_path_factory,
                                                            data):
        """Hand-made posting arrays around `tiny_index`, in and out of every
        rule (a -1 is 255 at the file's widths): construction refuses them
        exactly when `load` rejects their file, with `load`'s message after
        the file's name, and otherwise `load` gives back the arrays that
        construction was given."""
        # each image's two words, as a build links them, then up to two
        # values set anywhere in the posting arrays
        links = [data.draw(st.sets(st.integers(0, 11), min_size=2, max_size=2)) for _ in range(3)]
        wids = sorted(set().union(*links))
        lists = [[i for i in range(3) if w in links[i]] for w in wids]
        arrays = dict(wids=wids, lengths=[len(x) for x in lists],
                      ids=sum(lists, []), codes=[[0, 0] for _ in range(3)])
        for name, at, value in data.draw(st.lists(st.tuples(
                st.sampled_from(sorted(arrays)), st.integers(0, 6), st.integers(-1, 12)),
                max_size=2)):
            at %= len(arrays[name])
            arrays[name][at] = [0, (value & 15) << 4] if name == "codes" else value
        fields = hand_made(tiny_index, arrays)
        try:
            ix, refusal = dataclasses.replace(tiny_index, **fields), None
        except ValueError as exc:
            refusal = str(exc)
        base = tmp_path_factory.getbasetemp()
        path = base / "differential.idx"
        write_raw(path, tiny_index, section_arrays(tiny_index, **fields))
        try:
            back = invindex.load(path)
        except DataError as exc:
            assert refusal is not None and str(exc) == f"{path}: {refusal}"
            return
        assert refusal is None
        for name in ("wids", "lengths", "ids", "codes"):
            np.testing.assert_array_equal(getattr(back, name), fields[name])
        invindex.save(ix, base / "saved.idx")
        assert (base / "saved.idx").read_bytes() == path.read_bytes()



_OFFSETS_NOT_GIVEN = (r"field offsets is declared with init=False, it cannot be specified "
                      r"with replace\(\)")


class TestConstruction:
    """Edits of a built 50 x 16 TIFC index (S = 3, L = 8) that `save` did
    not refuse, or that a query met before `save` did: a query answered
    them wrongly or raised IndexError. Construction refuses each with
    ValueError, and an index's posting arrays cannot be written."""

    @pytest.fixture(scope="class")
    def built(self):
        db = FeatureSet(np.random.default_rng(48).standard_normal((50, 16)).astype(np.float32))
        return invindex.build(db, BuildConfig(scheme="tifc", link_count=3, code_length=8))

    @pytest.mark.parametrize("edit, message", [
        # the file holds the lengths, so the offsets are derived from them
        # and cannot be given: these ranked another image first, or were
        # refused only by a rule of their own
        (lambda ix: dict(offsets=ix.offsets + 1), _OFFSETS_NOT_GIVEN),
        (lambda ix: dict(offsets=ix.offsets.astype(np.int32)), _OFFSETS_NOT_GIVEN),
        (lambda ix: dict(codes=ix.codes.reshape(25, 2)),
         r"codes has shape \(25, 2\), not the \(50, 1\) of its file section"),
        # one code per link, as TIFC codes were before one per vector
        (lambda ix: dict(codes=np.zeros((150, 1), np.uint8)),
         r"codes has shape \(150, 1\), not the \(50, 1\) of its file section"),
        (lambda ix: dict(wids=ix.wids.astype(np.int64)),
         "wids dtype int64 is not uint8, the dtype of its file section"),
        (lambda ix: dict(quantizer=tifc.VirtualWordBank(
            16, np.r_[np.float32(np.nan), ix.quantizer.reference[1:]])),
         "NaN or infinite reference mean in the quantizer payload"),
        # a config whose shape rules fail on the quantizer's D: L = 5 does
        # not divide 12, which `build` and `load` refuse with DataError
        (lambda ix: dict(config=BuildConfig("tifc", 3, 5),
                         quantizer=tifc.VirtualWordBank(12, np.zeros(5, np.float32))),
         "index: dimension 12 not divisible by code length 5"),
    ], ids=["offsets-plus-one", "int32-offsets", "codes-reshaped", "per-link-codes",
            "int64-word-ids", "nan-reference", "config-fails-on-dim"])
    def test_edit_refused(self, built, edit, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(built, **edit(built))

    def test_offsets_are_derived(self, built, tmp_path):
        """`offsets` is no constructor argument either, and built or loaded
        it is the lengths' int64 running sum from 0, read-only."""
        init = [f.name for f in dataclasses.fields(built) if f.init]
        assert init == ["config", "indexed_count", "wids", "lengths", "ids", "codes",
                        "quantizer"]
        with pytest.raises(TypeError, match="offsets"):
            invindex.InvertedIndex(**{name: getattr(built, name) for name in init},
                                   offsets=built.offsets + 1)
        invindex.save(built, tmp_path / "ix.idx")
        for ix in (built, invindex.load(tmp_path / "ix.idx")):
            assert ix.offsets.dtype == np.int64 and not ix.offsets.flags.writeable
            np.testing.assert_array_equal(ix.offsets, np.r_[0, np.cumsum(ix.lengths)])

    def test_posting_arrays_are_read_only(self, built):
        """`ix.ids[:] = 0` gave a query 29 votes at W = 3; now no posting
        array of an index, built or loaded, takes a write."""
        for name in ("wids", "lengths", "offsets", "ids", "codes"):
            values = getattr(built, name)
            assert not values.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                values[:] = 0

    def test_loaded_arrays_are_read_only(self, built, tmp_path):
        invindex.save(built, tmp_path / "ix.idx")
        back = invindex.load(tmp_path / "ix.idx")
        for name in ("wids", "lengths", "offsets", "ids", "codes"):
            assert not getattr(back, name).flags.writeable, name


_PQ = PqConfig(segments=2, words_per_segment=3)


class TestConfigRules:
    """Each shape rule of `BuildConfig.word_count` holds for a build and a
    file alike: one bad configuration over 12-d vectors raises the same
    DataError through `build` and through a CRC-valid header in `load`, and
    neither trains a codebook or makes a TIFC bank."""

    @pytest.mark.parametrize("scheme, s, length, pq_cfg, message", [
        ("tifc", 2, 5, None, "dimension 12 not divisible by code length 5"),
        ("ifc", 2, 5, _PQ, "dimension 12 not divisible by code length 5"),
        ("ifc", 2, 4, PqConfig(segments=5, words_per_segment=3),
         "dimension 12 not divisible by 5 segments"),
        ("tifc", 13, 4, None, "link count 13 exceeds word count 12"),
        ("ifc", 10, 4, _PQ, "link count 10 exceeds word count 9"),
    ], ids=[  # the ids the cases had beside a since retired column of table caps
        "tifc-2-5-None-None-dimension 12 not divisible by code length 5",
        "ifc-2-5-pq_cfg1-None-dimension 12 not divisible by code length 5",
        "ifc-2-4-pq_cfg2-None-dimension 12 not divisible by 5 segments",
        "tifc-13-4-None-None-link count 13 exceeds word count 12",
        "ifc-10-4-pq_cfg5-None-link count 10 exceeds word count 9",
    ])
    def test_build_and_load_apply_one_rule(self, scheme, s, length, pq_cfg, message,
                                           tmp_path, monkeypatch):
        db = FeatureSet(np.random.default_rng(5).standard_normal((20, 12)).astype(np.float32))
        good = BuildConfig(scheme=scheme, link_count=2, code_length=4,
                           pq=_PQ if scheme == "ifc" else None)
        path = tmp_path / "bad.idx"
        invindex.save(invindex.build(db, good), path)
        header, payload = split_file(path)
        header.update(link_count=s, code_length=length)
        if pq_cfg is not None:
            header["quantizer"].update(dataclasses.asdict(pq_cfg))
        write_file(path, header, payload)
        bad = BuildConfig(scheme=scheme, link_count=s, code_length=length, pq=pq_cfg)
        for module, name in ((pq, "train"), (tifc, "make_virtual_words")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("drew a quantizer"))
        with pytest.raises(DataError, match=message):
            invindex.build(db, bad)
        with pytest.raises(DataError, match=message):
            invindex.load(path)


class TestPostingWidths:
    """Posting integers are stored at the narrowest unsigned width that the
    header allows, and held at that width in memory, built or loaded."""

    @pytest.mark.parametrize("n, dim, widths", [
        # TIFC with S = D = 2 puts every vector in both lists, so the list
        # lengths equal indexed_count and the ids reach indexed_count - 1
        (256, 2, ("u1", "u2", "u1")),
        (257, 2, ("u1", "u2", "u2")),
        (65_536, 2, ("u1", "u4", "u2")),
        (65_537, 2, ("u1", "u4", "u4")),
        (40, 256, ("u1", "u1", "u1")),
        (40, 257, ("u2", "u1", "u1")),
    ])
    def test_round_trip_at_width_boundaries(self, n, dim, widths, tmp_path):
        rng = np.random.default_rng(n + dim)
        db = FeatureSet(rng.standard_normal((n, dim)).astype(np.float32))
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=2, code_length=1))
        wid_t, len_t, id_t = (np.dtype("<" + w) for w in widths)
        assert invindex.posting_dtypes(ix.quantizer.word_count,
                                       ix.indexed_count) == (wid_t, len_t, id_t)
        assert (ix.wids.dtype, ix.ids.dtype) == (wid_t, id_t)
        path = tmp_path / "w.idx"
        invindex.save(ix, path)
        st = invindex.stats(ix)
        assert st.estimated_file_bytes == path.stat().st_size

        # the sections, read at the expected widths after the one float32
        # reference mean (L = 1), hold the arrays and every byte of the file
        _, payload = split_file(path)
        nlists, off = len(ix.wids), 4
        for dtype, count, want in ((wid_t, nlists, ix.wids),
                                   (len_t, nlists, np.diff(ix.offsets)),
                                   (id_t, len(ix.ids), ix.ids),
                                   (np.uint8, ix.codes.size, ix.codes.ravel())):
            got = np.frombuffer(payload, dtype=dtype, count=count, offset=off)
            np.testing.assert_array_equal(got, want)
            off += got.nbytes
        assert off == len(payload)
        assert st.posting_bytes == off - 4 - ix.codes.size

        back = invindex.load(path)
        assert (back.wids.dtype, back.ids.dtype) == (wid_t, id_t)
        for name in ("wids", "offsets", "ids", "codes"):
            assert getattr(back, name).dtype == getattr(ix, name).dtype
            np.testing.assert_array_equal(getattr(back, name), getattr(ix, name))


# The three shapes of `tests/test_golden.py`: TIFC, IFC with M | L and IFC
# with L % M != 0, by scheme and build parameters.
GOLDEN_SHAPES = {
    "tifc": ("tifc", dict(S=6, L=16)),
    "ifc-m-divides-l": ("ifc", dict(S=6, L=16, K=8, M=2)),
    "ifc-l-mod-m": ("ifc", dict(S=6, L=16, K=8, M=3)),
}


@pytest.fixture(scope="module", params=GOLDEN_SHAPES)
def golden_index(request):
    """An index of each golden shape over `tests/test_golden.py`'s data."""
    db, _, _ = vecio.generate_synthetic(vecio.SynthSpec(20, 30, 48, 1.0, 0.5, seed=31))
    scheme, params = GOLDEN_SHAPES[request.param]
    return invindex.build(db, invindex.build_config(scheme, params))


class TestLayout:
    """`_layout` lists the file's sections after the header, and `save`,
    `load` and `stats` follow it."""

    def test_saved_file_walks_by_the_layout(self, golden_index, tmp_path):
        """Each section holds the index's array of its name at its dtype, the
        sections end at the CRC, and `stats` sums their bytes by name. The
        layout `load` walks, with the count of lists that the file's size
        gives (`_count_lists`), reads the same sections."""
        ix = golden_index
        path = tmp_path / "g.idx"
        invindex.save(ix, path)
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 8)
        want = section_arrays(ix)
        at, sizes = 12 + hlen, {}
        for name, shape, dtype in layout_of(ix):
            got = np.frombuffer(raw, dtype=dtype, count=np.prod(shape), offset=at).reshape(shape)
            assert got.shape == want[name].shape, name
            np.testing.assert_array_equal(got, want[name], err_msg=name)
            at += got.nbytes
            sizes[name] = got.nbytes
        assert at == len(raw) - 4
        nlists = invindex._count_lists("g.idx", ix.config, ix.quantizer.dim, ix.indexed_count,
                                       len(raw) - 12 - hlen - 4)
        assert nlists == len(ix.wids)
        walk = invindex._layout(ix.config, ix.quantizer.dim, ix.indexed_count, nlists)
        at, read = 12 + hlen, {}
        for name, shape, dtype in walk:
            read[name] = np.frombuffer(raw, dtype=dtype, count=np.prod(shape),
                                       offset=at).reshape(shape)
            np.testing.assert_array_equal(read[name], want[name], err_msg=name)
            at += read[name].nbytes
        assert list(read) == list(sizes) and at == len(raw) - 4
        st = invindex.stats(ix)
        assert st.posting_bytes == sizes["wids"] + sizes["lengths"] + sizes["ids"]
        assert st.code_bytes == sizes["codes"]
        assert st.quantizer_bytes == sizes["payload"]
        assert st.estimated_file_bytes == len(raw)

    @pytest.mark.parametrize("cut", [
        lambda ix: dict(ids=ix.ids[:-1], codes=ix.codes[:-1]),
        lambda ix: dict(codes=ix.codes[:, :1]),
        lambda ix: dict(lengths=ix.lengths[:-1]),
    ], ids=["one-link-less", "one-code-byte", "one-list-length-less"])
    def test_save_refuses_arrays_the_file_cannot_describe(self, golden_index, cut):
        """An array whose size is not its section's count would make a file
        that `load` rejects, and that `stats` would misstate: construction
        refuses it with ValueError, so `save` never meets it."""
        with pytest.raises(ValueError, match="not the .* of its file section"):
            dataclasses.replace(golden_index, **cut(golden_index))

    def test_held_at_file_shapes_and_read_only(self, golden_index, tmp_path):
        """Built and loaded, each array of `_sections` has exactly its
        section's shape and dtype, so `save` and `load` neither reshape nor
        cast, and every array the index holds, `offsets` included, is
        read-only."""
        invindex.save(golden_index, tmp_path / "g.idx")
        for ix in (golden_index, invindex.load(tmp_path / "g.idx")):
            held = invindex._sections(ix)
            assert [(name, held[name].shape, held[name].dtype)
                    for name in held] == layout_of(ix)
            arrays = {f.name for f in dataclasses.fields(ix)
                      if isinstance(getattr(ix, f.name), np.ndarray)}
            assert arrays == {"wids", "lengths", "ids", "codes", "offsets"}
            for name in arrays:
                assert not getattr(ix, name).flags.writeable, name


def section_bounds(ix):
    """The byte offset in ix's index file where each part begins, by name:
    the magic, `hlen`, the header, each section of `invindex._layout` and
    the CRC; and the file size, as `end`."""
    header = invindex._header_json(ix.config, ix.quantizer.dim, ix.indexed_count)
    sizes = ([("magic", len(invindex.MAGIC)), ("hlen", 4), ("header", len(header))]
             + [(name, np.prod(shape) * dtype.itemsize) for name, shape, dtype in layout_of(ix)]
             + [("crc", 4), ("end", 0)])
    starts = np.cumsum([0] + [size for _, size in sizes]).tolist()
    return {name: start for (name, _), start in zip(sizes, starts)}


def with_crc(raw):
    """raw with its CRC trailer recomputed."""
    return bytes(raw[:-4]) + struct.pack("<I", zlib.crc32(bytes(raw[8:-4])))


def load_or_none(path, raw):
    """`invindex.load` of the bytes raw, or None on DataError. Any other
    exception fails the test."""
    path.write_bytes(bytes(raw))
    try:
        return invindex.load(path)
    except DataError:
        return None


def declare_many_words(header):
    """Edit an index header to declare 2^24 TIFC words (D) and as many links
    per vector, or 2^20 IFC words per segment (K)."""
    if header["scheme"] == "tifc":
        header.update(link_count=1 << 24, code_length=1)
        header["quantizer"]["dim"] = 1 << 24
    else:
        header["quantizer"]["words_per_segment"] = 1 << 20


def declared_words(header):
    """The word count that an index header declares: D or K^M."""
    q = header["quantizer"]
    return q["dim"] if header["scheme"] == "tifc" else q["words_per_segment"] ** q["segments"]


@pytest.fixture(params=["tifc", "ifc"])
def fuzz_case(request, tifc_index, ifc_index, tmp_path):
    """(index, its file's bytes) for the small TIFC and IFC indexes."""
    ix = tifc_index if request.param == "tifc" else ifc_index
    invindex.save(ix, tmp_path / "orig.idx")
    return ix, (tmp_path / "orig.idx").read_bytes()


class TestLoaderFuzz:
    """Damaged and hostile files end in DataError; no other exception."""

    def test_truncation_at_section_boundaries(self, fuzz_case, tmp_path):
        ix, raw = fuzz_case
        cuts = {q for b in section_bounds(ix).values() for q in (b - 1, b, b + 1)
                if 0 <= q < len(raw)}
        for q in sorted(cuts):
            assert load_or_none(tmp_path / "cut.idx", raw[:q]) is None, q
        assert load_or_none(tmp_path / "long.idx", raw + b"\0") is None

    def test_random_bit_flips_fail(self, fuzz_case, tmp_path):
        _, raw = fuzz_case
        rng = np.random.default_rng(13)
        for _ in range(200):
            bad = bytearray(raw)
            for bit in rng.choice(len(raw) * 8, size=rng.integers(1, 9), replace=False):
                bad[bit // 8] ^= 1 << (bit % 8)
            assert load_or_none(tmp_path / "flip.idx", bad) is None

    def test_crc_fixed_flips_in_header_and_postings(self, fuzz_case, small_dataset, tmp_path):
        """A flip under a valid CRC gives DataError or a file that loads as
        what it says. Most flips break a rule; the rest (a seed or a
        dimension in the header, an image id or word id moved to another
        valid value) give an index that saves back to the same bytes and
        answers a query of its dimension.
        Flips that leave the posting arrays whole load equal to them."""
        ix, raw = fuzz_case
        b = section_bounds(ix)
        # hlen and header; wids, lengths and ids
        spans = (list(range(b["hlen"] * 8, b["payload"] * 8))
                 + list(range(b["wids"] * 8, b["codes"] * 8)))
        rng = np.random.default_rng(17)
        query = small_dataset[1].vectors[0]
        cfg = QueryConfig(assignment_count=3, hamming_threshold=5, top_k=10)
        rejected = 0
        for bit in rng.choice(spans, size=400, replace=False):
            bad = bytearray(raw)
            bad[bit // 8] ^= 1 << (bit % 8)
            bad = with_crc(bad)
            back = load_or_none(tmp_path / "flip.idx", bad)
            if back is None:
                rejected += 1
                continue
            invindex.save(back, tmp_path / "again.idx")
            assert (tmp_path / "again.idx").read_bytes() == bad
            search.query(back, np.resize(query, back.quantizer.dim), cfg)
            if bit < b["payload"] * 8:
                for name in ("wids", "offsets", "ids", "codes"):
                    np.testing.assert_array_equal(getattr(back, name), getattr(ix, name))
        assert rejected > 300

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(indexed_count=2**31 - 1),
        lambda h: h.update(indexed_count=2**31 - 1, link_count=declared_words(h)),
        declare_many_words,
    ])
    def test_huge_declared_sizes_rejected_before_allocating(self, fuzz_case, edit, tmp_path):
        _, raw = fuzz_case
        path = tmp_path / "huge.idx"
        path.write_bytes(raw)
        header, payload = split_file(path)
        edit(header)
        write_file(path, header, payload)
        self.assert_truncated_in_bounded_memory(path)

    @pytest.mark.parametrize("nlists", [2**64 - 1, 2**63, 2**40, 10**6])
    def test_huge_nlists_rejected_before_allocating(self, fuzz_case, nlists, tmp_path,
                                                    monkeypatch):
        """A file whose size makes it hold nlists lists, more than its words
        or links allow: the size a stat of the file reports is that of the
        file with the lists beyond its own appended."""
        ix, raw = fuzz_case
        path = tmp_path / "huge.idx"
        path.write_bytes(raw)
        wid_t, len_t, _ = invindex.posting_dtypes(ix.quantizer.word_count, ix.indexed_count)
        size = len(raw) + (nlists - len(ix.wids)) * (wid_t.itemsize + len_t.itemsize)
        # `load` takes the size from `os.fstat` alone
        monkeypatch.setattr(invindex, "os", types.SimpleNamespace(
            fstat=lambda fd: types.SimpleNamespace(st_size=size)))
        self.assert_truncated_in_bounded_memory(path)

    @staticmethod
    def assert_truncated_in_bounded_memory(path):
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated index file"):
                invindex.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_previous_format_asks_for_rebuild(self, fuzz_case, tmp_path):
        _, raw = fuzz_case
        path = tmp_path / "old.idx"
        for magic in ("CNNIDX02", "CNNIDX03"):
            path.write_bytes(magic.encode() + raw[8:])
            with pytest.raises(DataError, match=f"{magic}.*rebuild"):
                invindex.load(path)


class TestStats:
    def test_entry_and_code_byte_arithmetic(self):
        rng = np.random.default_rng(2)
        db = FeatureSet(rng.standard_normal((1000, 64)).astype(np.float32))
        ix = invindex.build(db, BuildConfig(scheme="ifc", link_count=4, code_length=32,
                                            pq=PqConfig(segments=2, words_per_segment=4)))
        st = invindex.stats(ix)
        assert st.total_entries == 4000
        assert st.code_bytes == 4000 * 4  # 32 bits -> 4 bytes per entry
        ix = invindex.build(db, BuildConfig(scheme="tifc", link_count=4, code_length=32))
        st = invindex.stats(ix)
        assert st.total_entries == 4000
        assert st.code_bytes == 1000 * 4  # 4 bytes per vector

    def test_histogram_counts_empty_lists(self, ifc_index):
        st = invindex.stats(ifc_index)
        occupied = len(posting_lists(ifc_index))
        assert st.list_length_histogram[0] == ifc_index.quantizer.word_count - occupied
        assert sum(st.list_length_histogram.values()) == ifc_index.quantizer.word_count

    def test_estimate_close_to_file_size(self, ifc_index, tifc_index, tmp_path):
        for name, ix in (("i", ifc_index), ("t", tifc_index)):
            path = tmp_path / f"{name}.idx"
            invindex.save(ix, path)
            est = invindex.stats(ix).estimated_file_bytes
            actual = path.stat().st_size
            assert est == actual


class TestNarrowSections:
    """`stats` sizes the posting sections from their file widths, and `save`
    writes the posting arrays as they are held: neither makes a copy of
    them."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.fixture(scope="class")
    def wide_ids(self):
        """20,000 vectors at S = 4: 80,000 ids, 160,000 bytes at u2."""
        rng = np.random.default_rng(71)
        db = FeatureSet(rng.standard_normal((20_000, 8)).astype(np.float32))
        return invindex.build(db, BuildConfig(scheme="tifc", link_count=4, code_length=8))

    def test_no_narrow_copy(self, wide_ids, tmp_path):
        narrow = len(wide_ids.ids) * invindex.posting_dtypes(
            wide_ids.quantizer.word_count, wide_ids.indexed_count)[2].itemsize
        assert narrow == 160_000
        assert self.traced_peak(lambda: invindex.stats(wide_ids)) < narrow // 4
        path = tmp_path / "w.idx"
        assert self.traced_peak(lambda: invindex.save(wide_ids, path)) < narrow // 4
        assert invindex.stats(wide_ids).estimated_file_bytes == path.stat().st_size

    def test_load_keeps_file_widths(self, wide_ids, tmp_path):
        """`load` holds the arrays it reads: its peak is the file's bytes and
        the posting check's one-byte mask per id, with no widened copy of the
        ids (four bytes per id at int32) on top."""
        path = tmp_path / "w.idx"
        invindex.save(wide_ids, path)
        peak = self.traced_peak(lambda: invindex.load(path))
        assert peak < path.stat().st_size + 2 * len(wide_ids.ids)
