import os
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnidx import vecio
from cnnidx.vecio import DataError, FeatureSet, SynthSpec


def test_single_record_round_trip(tmp_path):
    path = tmp_path / "one.fvecs"
    fs = FeatureSet(np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32))
    vecio.write_feature_file(fs, path)
    back = vecio.read_feature_file(path)
    assert back.n == 1 and back.dim == 4
    np.testing.assert_array_equal(back.vectors, fs.vectors)


def test_hand_constructed_file_bytes(tmp_path):
    # 3 records of dim 2, built byte by byte against the format
    path = tmp_path / "hand.fvecs"
    buf = b""
    values = [(1.5, -2.0), (0.0, 7.0), (3.25, 4.5)]
    for rec in values:
        buf += np.int32(2).tobytes() + np.array(rec, dtype="<f4").tobytes()
    path.write_bytes(buf)
    fs = vecio.read_feature_file(path)
    assert fs.n == 3 and fs.dim == 2
    np.testing.assert_array_equal(fs.vectors, np.array(values, dtype=np.float32))


def test_write_single_zero_vector_is_12_bytes(tmp_path):
    path = tmp_path / "z.fvecs"
    vecio.write_feature_file(FeatureSet(np.zeros((1, 2), dtype=np.float32)), path)
    raw = path.read_bytes()
    assert len(raw) == 12
    assert raw[:4] == np.int32(2).tobytes()
    assert raw[4:] == b"\x00" * 8


def test_write_empty_set_rejected(tmp_path):
    with pytest.raises(DataError):
        vecio.write_feature_file(FeatureSet(np.empty((0, 3), dtype=np.float32)),
                                 tmp_path / "empty.fvecs")


def test_dimension_mismatch_reports_record(tmp_path):
    path = tmp_path / "bad.fvecs"
    buf = np.int32(2).tobytes() + np.zeros(2, dtype="<f4").tobytes()
    buf += np.int32(3).tobytes() + np.zeros(3, dtype="<f4").tobytes()
    path.write_bytes(buf)
    with pytest.raises(DataError, match="record 1"):
        vecio.read_feature_file(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.fvecs"
    path.write_bytes(np.int32(4).tobytes() + b"\x00" * 7)
    with pytest.raises(DataError, match="truncated"):
        vecio.read_feature_file(path)


def test_non_finite_vectors_rejected():
    with pytest.raises(DataError, match="finite"):
        FeatureSet(np.array([[1.0, np.nan]], dtype=np.float32))


def feature_bytes(dims) -> bytes:
    """Records of the given dimensions, record i filled with the value i."""
    return b"".join(np.int32(d).tobytes() + np.full(d, i, dtype="<f4").tobytes()
                    for i, d in enumerate(dims))


@pytest.mark.parametrize("buf, message", [
    (feature_bytes([3, 3, 2, 3]), "record 2 has dim 2, expected 3"),
    (feature_bytes([3, 3, 5]), "record 2 has dim 5, expected 3"),
    (feature_bytes([3, 3, 1]), "record 2 has dim 1, expected 3"),
    (feature_bytes([3, 0, 3]), "record 1 has dim 0, expected 3"),
    (feature_bytes([0, 3]), "record 0: bad length 0"),
    (feature_bytes([3, 3, 3])[:-2], "record 2: truncated payload"),
    (feature_bytes([3, 3])[:-16] + b"\x03\x00", "record 1: truncated header"),
    (b"", "no records"),
], ids=["short-mid", "long-last", "short-last", "zero-mid", "zero-first", "cut-payload",
        "cut-header", "empty"])
def test_malformed_feature_file_names_first_bad_record(tmp_path, buf, message):
    path = tmp_path / "bad.fvecs"
    path.write_bytes(buf)
    with pytest.raises(DataError, match=message):
        vecio.read_feature_file(path)


def record_bytes(matrix) -> bytes:
    """The feature-file bytes of a float32 matrix, built whole: every row's
    int32 dimension, then its float32 values."""
    n, dim = matrix.shape
    header = np.full((n, 1), dim, dtype="<i4").view(np.uint8)
    return np.hstack([header, matrix.astype("<f4").view(np.uint8)]).tobytes()


# two records of dimension 3 (16 bytes each) per chunk
TWO_RECORDS = 2 * 4 * (1 + 3)


@pytest.mark.parametrize("buf, message", [
    (feature_bytes([3] * 5 + [2, 3]), "record 5 has dim 2, expected 3"),
    (feature_bytes([3] * 7)[:-2], "record 6: truncated payload"),
    (feature_bytes([3] * 6) + np.int32(5).tobytes(), "record 6 has dim 5, expected 3"),
    (feature_bytes([3] * 6) + b"\x03\x00", "record 6: truncated header"),
    (record_bytes(np.where(np.arange(21).reshape(7, 3) == 16, np.nan, 0).astype("<f4")),
     "finite"),
], ids=["short-in-later-chunk", "cut-after-whole-chunks", "bad-trailing-header",
        "cut-header-after-whole-chunks", "nan-in-later-chunk"])
def test_malformed_feature_file_across_chunks(tmp_path, monkeypatch, buf, message):
    """Records numbered by their index in the file, not in their chunk, and
    NaN found in a chunk after the first (record 5, value 1)."""
    monkeypatch.setattr(vecio, "CHUNK_BYTES", TWO_RECORDS)
    path = tmp_path / "bad.fvecs"
    path.write_bytes(buf)
    with pytest.raises(DataError, match=message):
        vecio.read_feature_file(path)


def test_short_read_reported_as_truncated(tmp_path, monkeypatch):
    """A file that shrinks after its size is taken ends in a short read."""
    path = tmp_path / "shrunk.fvecs"
    path.write_bytes(feature_bytes([3] * 4)[:-6])
    fstat = os.fstat
    monkeypatch.setattr(vecio.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 6))
    with pytest.raises(DataError, match="record 3: truncated payload"):
        vecio.read_feature_file(path)


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_write_and_read_across_chunks(tmp_path, monkeypatch, rows):
    """The bytes of 7 records do not depend on how many go per chunk."""
    monkeypatch.setattr(vecio, "CHUNK_BYTES", rows * 4 * (1 + 3))
    vectors = np.arange(21, dtype="<f4").reshape(7, 3) - 10.5
    path = tmp_path / "chunked.fvecs"
    vecio.write_feature_file(FeatureSet(vectors), path)
    assert path.read_bytes() == b"".join(np.int32(3).tobytes() + v.tobytes() for v in vectors)
    np.testing.assert_array_equal(vecio.read_feature_file(path).vectors, vectors)


class TestFileMemory:
    """A 4,000 x 2,048 feature file (31.25 MiB of float32 payload) is read
    and written through one reused buffer of at most CHUNK_BYTES (8 MiB)."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        rng = np.random.default_rng(9)
        fs = FeatureSet(rng.standard_normal((4_000, 2_048), dtype=np.float32))
        path = tmp_path_factory.mktemp("wide") / "wide.fvecs"
        path.write_bytes(record_bytes(fs.vectors))
        return fs, path

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    def test_read_holds_one_copy(self, wide):
        """The result plus the buffer, 39.3 MiB; holding the file's bytes
        beside their float32 copy took 62.5 MiB."""
        fs, path = wide
        back, peak = self.traced_peak(lambda: vecio.read_feature_file(path))
        np.testing.assert_array_equal(back.vectors, fs.vectors)
        assert peak < 48 << 20

    def test_write_holds_no_copy(self, wide, tmp_path):
        """The buffer alone, 8 MiB; a cast and a stacked copy of the whole
        matrix took 62.5 MiB."""
        fs, path = wide
        out = tmp_path / "again.fvecs"
        _, peak = self.traced_peak(lambda: vecio.write_feature_file(fs, out))
        assert out.read_bytes() == path.read_bytes()
        assert peak < 16 << 20


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row, col", [(0, 0), (2, 1), (4, 2)])
def test_non_finite_value_in_feature_file_rejected(tmp_path, value, row, col):
    vectors = np.arange(15, dtype="<f4").reshape(5, 3)
    vectors[row, col] = value
    path = tmp_path / "nan.fvecs"
    path.write_bytes(b"".join(np.int32(3).tobytes() + v.tobytes() for v in vectors))
    with pytest.raises(DataError, match="finite"):
        vecio.read_feature_file(path)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 20),
    dim=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(tmp_path_factory, n, dim, seed):
    rng = np.random.default_rng(seed)
    fs = FeatureSet(rng.standard_normal((n, dim)).astype(np.float32))
    path = tmp_path_factory.mktemp("rt") / "fs.fvecs"
    vecio.write_feature_file(fs, path)
    assert path.read_bytes() == record_bytes(fs.vectors)
    np.testing.assert_array_equal(vecio.read_feature_file(path).vectors, fs.vectors)


def test_random_round_trip_100x16(tmp_path):
    rng = np.random.default_rng(7)
    fs = FeatureSet(rng.standard_normal((100, 16)).astype(np.float32))
    path = tmp_path / "r.fvecs"
    vecio.write_feature_file(fs, path)
    np.testing.assert_array_equal(vecio.read_feature_file(path).vectors, fs.vectors)


def test_int_lists_round_trip(tmp_path):
    lists = [np.array([3, 1, 4], dtype=np.int32), np.array([2], dtype=np.int32)]
    path = tmp_path / "ids.ivecs"
    vecio.write_int_lists(lists, path)
    back = vecio.read_int_lists(path)
    assert len(back) == 2
    np.testing.assert_array_equal(back[0], lists[0])
    np.testing.assert_array_equal(back[1], lists[1])


def test_int_lists_empty_records_round_trip(tmp_path):
    # a query with no result below T writes a zero-length record
    path = tmp_path / "ids.ivecs"
    vecio.write_int_lists([[], [3, 1], []], path)
    assert path.stat().st_size == 4 + 12 + 4
    assert [b.tolist() for b in vecio.read_int_lists(path)] == [[], [3, 1], []]


def test_int_lists_negative_length_rejected(tmp_path):
    path = tmp_path / "ids.ivecs"
    path.write_bytes(np.array([1, 7, -1], dtype="<i4").tobytes())
    with pytest.raises(DataError, match="record 1: bad length -1"):
        vecio.read_int_lists(path)


class TestGroundTruth:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0: 0 1 2\n")
        assert vecio.read_ground_truth(path) == {0: {0, 1, 2}}

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("# header\n\n1: 5 6  # trailing\n")
        assert vecio.read_ground_truth(path) == {1: {5, 6}}

    def test_empty_relevant_set_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("5:\n")
        with pytest.raises(DataError, match="empty relevant set"):
            vecio.read_ground_truth(path)

    def test_bad_query_id_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("abc: 1 2\n")
        with pytest.raises(DataError, match="bad query id"):
            vecio.read_ground_truth(path)

    def test_id_range_validation(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("0: 1 99\n")
        with pytest.raises(DataError, match="out of range"):
            vecio.read_ground_truth(path, n=10)

    @pytest.mark.parametrize("n", [None, 10])
    def test_negative_relevant_id_rejected(self, tmp_path, n):
        path = tmp_path / "gt.txt"
        path.write_text("0: -1 0\n")
        with pytest.raises(DataError, match="out of range"):
            vecio.read_ground_truth(path, n=n)

    @pytest.mark.parametrize("n", [None, 10])
    def test_repeated_query_id_rejected(self, tmp_path, n):
        # a second line for query 0 would silently replace its relevant set
        path = tmp_path / "gt.txt"
        path.write_text("0: 0 1 2 3\n1: 4\n0: 5\n")
        with pytest.raises(DataError, match="gt.txt:3: repeated query id 0"):
            vecio.read_ground_truth(path, n=n)

    def test_write_read_round_trip(self, tmp_path):
        gt = {0: {1, 2}, 3: {0, 5, 9}}
        path = tmp_path / "gt.txt"
        vecio.write_ground_truth(gt, path)
        assert vecio.read_ground_truth(path) == gt


class TestSynthetic:
    def test_determinism(self):
        spec = SynthSpec(3, 4, 8, 1.0, 0.1, seed=42)
        a = vecio.generate_synthetic(spec)
        b = vecio.generate_synthetic(spec)
        np.testing.assert_array_equal(a[0].vectors, b[0].vectors)
        np.testing.assert_array_equal(a[1].vectors, b[1].vectors)
        assert a[2] == b[2]

    def test_counts(self):
        db, queries, gt = vecio.generate_synthetic(SynthSpec(100, 100, 64, 1.0, 0.1, 0))
        assert db.n == 10000 and queries.n == 100
        assert all(len(v) == 100 for v in gt.values())

    def test_ukbench_style_groups_of_4(self):
        _, _, gt = vecio.generate_synthetic(SynthSpec(10, 4, 8, 1.0, 0.1, 0))
        assert all(len(v) == 4 for v in gt.values())

    def test_zero_noise_query_equals_member(self):
        db, queries, gt = vecio.generate_synthetic(SynthSpec(5, 6, 8, 1.0, 0.0, 3))
        for qid in gt:
            diffs = np.abs(db.vectors - queries.vectors[qid]).sum(axis=1)
            src = int(diffs.argmin())
            assert diffs[src] == 0.0
            assert src in gt[qid]

    def test_invalid_spec_rejected(self):
        """Each bad field is a ValueError that names it, before numpy sees it
        (the integer fields' types: `test_pq.py::TestIntegerFields`)."""
        for args, message in (
            ((0, 1, 4, 1.0, 0.1, 0), "n_clusters must be >= 1, got 0"),
            ((1, 0, 4, 1.0, 0.1, 0), "points_per_cluster must be >= 1, got 0"),
            ((1, 1, 0, 1.0, 0.1, 0), "dim must be >= 1, got 0"),
            ((1, 1, 4, 1.0, 0.1, -1), "seed must be >= 0, got -1"),
            ((1, 1, 4, -1.0, 0.1, 0), "stddevs must be >= 0"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SynthSpec(*args)

    def test_largest_stddevs_draw_finite_values(self):
        """The stddevs' bound leaves the draws finite: at it, every vector is
        finite and numpy warns of no overflow; just above it, for either
        stddev, the spec is refused and names the field."""
        budget = float(np.finfo(np.float32).max) / vecio._DRAW_BOUND - vecio._CENTER_SCALE
        for cluster, noise in ((budget, 0.0), (budget / 2, budget / 2), (0.0, budget)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                db, queries, _ = vecio.generate_synthetic(SynthSpec(4, 50, 8, cluster, noise, 9))
            assert np.isfinite(db.vectors).all() and np.isfinite(queries.vectors).all()
        for args, name in (((budget * 1.001, 0.0), "cluster_stddev"),
                           ((budget / 2, budget * 0.501), "noise_stddev")):
            with pytest.raises(ValueError, match=f"^{name} must be at most .* to stay finite"):
                SynthSpec(4, 50, 8, *args, 9)


class TestNormalize:
    def test_unit_norms_and_direction_preserved(self):
        rng = np.random.default_rng(7)
        fs = FeatureSet(rng.standard_normal((20, 12)).astype(np.float32))
        out = vecio.l2_normalize(fs)
        assert out.vectors.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(out.vectors, axis=1), 1.0,
                                   rtol=1e-6)
        cos = (out.vectors * fs.vectors).sum(axis=1) / \
            np.linalg.norm(fs.vectors, axis=1)
        np.testing.assert_allclose(cos, 1.0, rtol=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        fs = FeatureSet(rng.standard_normal((5, 6)).astype(np.float32))
        once = vecio.l2_normalize(fs)
        twice = vecio.l2_normalize(once)
        np.testing.assert_allclose(once.vectors, twice.vectors, rtol=1e-6)

    @pytest.mark.parametrize("row, want", [
        ([3e19, 4e19], [0.6, 0.8]),  # the float32 square of 3e19 overflows
        ([1e-30, 0.0], [1.0, 0.0]),  # and that of 1e-30 underflows to 0
    ])
    def test_norm_taken_in_float64(self, row, want):
        fs = FeatureSet(np.array([row, [1.0, 2.0]], dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = vecio.l2_normalize(fs)
        np.testing.assert_array_equal(out.vectors[0], np.array(want, dtype=np.float32))

    def test_blocks_give_the_whole_matrix(self, monkeypatch):
        """A block of one row gives the bits of one block of all rows; the
        zero row is named by its index in the whole matrix."""
        x = np.random.default_rng(9).standard_normal((7, 5)).astype(np.float32)
        whole = vecio.l2_normalize(FeatureSet(x)).vectors
        monkeypatch.setattr(vecio, "CHUNK_BYTES", 5 * 8)
        np.testing.assert_array_equal(vecio.l2_normalize(FeatureSet(x)).vectors, whole)
        x[4] = 0.0
        with pytest.raises(DataError, match="record 4 is a zero vector"):
            vecio.l2_normalize(FeatureSet(x))

    def test_zero_vector_rejected(self):
        fs = FeatureSet(np.array([[1.0, 2.0], [0.0, 0.0]], dtype=np.float32))
        with pytest.raises(DataError, match="record 1"):
            vecio.l2_normalize(fs)


def two_temporary_synthetic(spec: SynthSpec):
    """The reference form of `generate_synthetic`: each cluster's noise drawn
    into a new array, then scaled and shifted into another."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.n_clusters, spec.dim), dtype=np.float32)
    centers *= vecio._CENTER_SCALE
    ppc = spec.points_per_cluster
    db = np.empty((spec.n_clusters * ppc, spec.dim), dtype=np.float32)
    queries = np.empty((spec.n_clusters, spec.dim), dtype=np.float32)
    for c in range(spec.n_clusters):
        noise = rng.standard_normal((ppc, spec.dim), dtype=np.float32)
        block = centers[c] + noise * np.float32(spec.cluster_stddev)
        db[c * ppc : (c + 1) * ppc] = block
        qnoise = rng.standard_normal(spec.dim, dtype=np.float32)
        queries[c] = block[0] + qnoise * np.float32(spec.noise_stddev)
    return db, queries


@pytest.mark.parametrize("spec", [
    SynthSpec(5, 10, 16, 1.0, 0.1, seed=101),
    SynthSpec(3, 1, 7, 0.3, 0.0, seed=2),
    SynthSpec(4, 50, 130, 2.5, 0.7, seed=99),
])
def test_synthetic_blocks_drawn_in_place_equal_reference(spec):
    """Drawing each cluster's block in place gives the arrays of the
    two-temporary form, bit for bit, and the ground truth is each
    cluster's rows."""
    db, queries, gt = vecio.generate_synthetic(spec)
    want_db, want_queries = two_temporary_synthetic(spec)
    np.testing.assert_array_equal(db.vectors, want_db)
    np.testing.assert_array_equal(queries.vectors, want_queries)
    ppc = spec.points_per_cluster
    assert gt == {c: set(range(c * ppc, (c + 1) * ppc)) for c in range(spec.n_clusters)}
