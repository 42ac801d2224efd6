"""Feature-vector and ground-truth file I/O plus synthetic dataset generation.

File formats:

* Feature files: per-record ``[int32 LE dim][dim x float32 LE]``, records
  concatenated. All records must share the same dimension.
* Integer-list files: same layout with int32 payloads, record lengths may vary
  and may be 0 (a query with no result).
* Ground truth: UTF-8 text, one query per line, ``qid: id1 id2 ...``,
  ``#`` starts a comment.
* Reports (`write_json`): JSON with sorted keys, indent 2, a final newline.

Feature files are read and written in chunks of whole records through one
reused (rows, 1 + D) int32 buffer of at most `CHUNK_BYTES`. A read allocates
the (N, D) float32 result once, from the file's size, and fills it chunk by
chunk after checking each chunk's headers; a write fills the buffer's
payload columns from the matrix. Neither holds a second copy of the vectors.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np


# Bytes of working buffer per chunk of rows, the one budget of every pass
# over rows: a feature file's read and write here (int32 records),
# `invindex.encode_chunks` for batch queries, the build's two passes (words,
# then codes) over chunks of the same rows, `baseline`'s brute force and LSH
# hashing (float64 working arrays), and IFC training (`pq._kmeans`):
# k-means++ seeding makes its float64 differences, and each Lloyd iteration
# its (rows, K) float64 distances, in row blocks of half the budget. A row
# of the encoding stage takes D + stage + count*L float64 values: its input,
# its word stage (D term frequencies for TIFC, M*K segment distances for
# IFC) and the means of its `count` lists; both build passes size their
# chunks by that whole footprint, though each uses only part of it, as IFC's
# word stage holds temporaries beyond its M*K distances. A build on w > 1
# CPUs encodes on w threads (at most `invindex.MAX_THREADS`), each chunk at
# a 4w-th of the budget, so the chunks in flight take a quarter of it: each
# helper thread's malloc arena keeps its chunk's working set after the
# build. Median seconds of the build's encoding loop, then one pass of words
# and codes together, in process on the seed-1 benchmark data, interleaved,
# 7 runs (2 vCPUs):
#
#   threads, bytes per chunk   1, 8 MiB   2, 0.5 MiB   2, 1 MiB   2, 2 MiB
#   tifc-wide                  0.41       0.41         0.29       0.23
#   ifc-hard                   0.31       0.28         0.23       0.20
#
# Two threads at 4 MiB chunks took 0.23 and 0.19 s, but each helper's arena
# then holds a whole chunk. Chunks of one or a few rows cost more on two
# threads than on one, as the threads hand the GIL back and forth between
# many small calls. Earlier, on one thread, by budget (medians of 9 runs):
#
#   budget      2 MiB   4 MiB   8 MiB   16 MiB   64 MiB   S*L only
#   tifc-wide   0.57    0.58    0.47    0.55     0.83     0.98
#   ifc-hard    0.55    0.47    0.45    0.45     0.50     0.48
#
# The last column sizes chunks by the S*L means alone at 64 MiB (819 and
# 6,553 rows; IFC then merged 1,024 rows at a time). That leaves a row's
# input and stage unbounded: at S = 2, L = 8 a 20,000 x 512 TIFC build goes
# in one chunk and peaks at 244.5 MiB, against 12.7 MiB under this budget.
CHUNK_BYTES = 8 << 20


def chunk_rows(row_bytes: int) -> int:
    """Rows per chunk of rows that take `row_bytes` working bytes each: as
    many as `CHUNK_BYTES`, read at call time, holds, and at least one."""
    return max(1, CHUNK_BYTES // row_bytes)


class DataError(Exception):
    """Malformed or inconsistent input data (bad file, bad ids, bad shapes)."""


def check_ints(config, minimums: dict[str, int]) -> None:
    """Hold each named field of a config to be an integer at or above its
    minimum, and store it as a Python int. A Python or numpy integer passes;
    a bool, float, str or None is a ValueError that names the field, as is a
    value below the minimum."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        setattr(config, name, int(value))


@dataclass
class FeatureSet:
    """An ordered set of N vectors of uniform dimension D.

    Ids are implicit 0-based row positions, stable across persistence.
    """

    vectors: np.ndarray  # (N, D) float32

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if v.ndim != 2:
            raise DataError(f"feature matrix must be 2-d, got shape {v.shape}")
        if v.shape[1] < 1:
            raise DataError("feature dimension must be >= 1")
        # min and max carry any NaN or infinity, without an N x D temporary
        if v.size and not np.isfinite([v.min(), v.max()]).all():
            raise DataError("feature vectors must be finite (no NaN/Inf)")
        self.vectors = v

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.n


# spread of cluster centers relative to unit within-cluster noise; keeps
# clusters well separated for any reasonable cluster_stddev
_CENTER_SCALE = 10.0
# a bound on |x| for every float32 draw of numpy's standard normal: its
# ziggurat tail returns at most r - ln(2^-24) / r, about 8.21 (r = 3.654)
_DRAW_BOUND = 16.0


@dataclass
class SynthSpec:
    """Parameters for the clustered synthetic dataset generator."""

    n_clusters: int
    points_per_cluster: int
    dim: int
    cluster_stddev: float
    noise_stddev: float
    seed: int

    def __post_init__(self):
        check_ints(self, {"n_clusters": 1, "points_per_cluster": 1, "dim": 1, "seed": 0})
        if self.cluster_stddev < 0 or self.noise_stddev < 0:
            raise ValueError("stddevs must be >= 0")
        # `generate_synthetic` casts each stddev to float32, which must stay
        # finite, and scales float32 draws by it: no value of a query exceeds
        # _DRAW_BOUND (_CENTER_SCALE + cluster_stddev + noise_stddev) in
        # magnitude, which must stay below float32's largest value too
        top = float(np.finfo(np.float32).max)
        budget = top / _DRAW_BOUND - _CENTER_SCALE
        for name in ("cluster_stddev", "noise_stddev"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value > top:
                raise ValueError(f"{name} must be at most float32's largest value "
                                 f"{top:.8g}, got {value}")
            if value > budget:
                raise ValueError(f"{name} must be at most {budget:.8g} for float32 draws "
                                 f"to stay finite, got {value}")
            budget -= value




def read_feature_file(path) -> FeatureSet:
    """Read a binary feature file into a FeatureSet, preserving record order.

    Every record must have the first record's dimension D, so the file is
    read as (rows, 1 + D) int32 records, a chunk at a time, and each chunk's
    headers are checked in one comparison; the first record that breaks the
    layout is named by its index in the file."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size == 0:
            raise DataError(f"{path}: no records")
        head = f.read(4)
        if len(head) < 4:
            raise DataError(f"{path}: record 0: truncated header")
        dim = int(np.frombuffer(head, dtype="<i4")[0])
        if dim <= 0:
            raise DataError(f"{path}: record 0: bad length {dim}")
        width = 4 * (1 + dim)
        n, rest = divmod(size, width)
        out = np.empty((n, dim), dtype=np.float32)
        rows = chunk_rows(width)
        buf = np.empty((min(rows, n), 1 + dim), dtype="<i4")
        f.seek(0)
        for lo in range(0, n, rows):
            chunk = buf[: min(rows, n - lo)]
            got = f.readinto(chunk)
            if got < chunk.nbytes:  # the file shrank since its size was read
                raise _truncated(path, lo + got // width, got % width)
            _check_heads(path, lo, chunk[:, 0], dim)
            out[lo : lo + len(chunk)] = chunk[:, 1:].view("<f4")
        if rest:
            # a cut last record's header, when whole, is checked too
            tail = f.read(rest)
            if len(tail) >= 4:
                _check_heads(path, n, np.frombuffer(tail, dtype="<i4", count=1), dim)
            raise _truncated(path, n, len(tail))
    return FeatureSet(out)


def _check_heads(path, first: int, heads: np.ndarray, dim: int) -> None:
    """Name the first of the records numbered from `first` whose header is
    not dim. A record of another dimension shifts every later header out of
    place, so that record is the file's first bad one."""
    bad = np.flatnonzero(heads != dim)
    if len(bad):
        raise DataError(f"{path}: record {first + bad[0]} has dim {heads[bad[0]]}, "
                        f"expected {dim}")


def _truncated(path, record: int, nbytes: int) -> DataError:
    """The error for a file that ends `nbytes` into a record."""
    part = "payload" if nbytes >= 4 else "header"
    return DataError(f"{path}: record {record}: truncated {part}")


def l2_normalize(fs: FeatureSet) -> FeatureSet:
    """Return a copy with every vector scaled to unit Euclidean norm.

    Feature extraction pipelines differ on whether vectors arrive normalized,
    so indexing ingests them as-is and normalization stays opt-in. Zero
    vectors are rejected rather than silently passed through. Norms and
    quotients are taken in float64, where no square of a float32 overflows
    or underflows to 0, a `chunk_rows` block at a time.
    """
    out = np.empty_like(fs.vectors)
    rows = chunk_rows(fs.dim * 8)
    for lo in range(0, fs.n, rows):
        block = fs.vectors[lo:lo + rows].astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))  # no (rows, D) temporary
        if np.any(norms == 0):
            bad = lo + int(np.flatnonzero(norms == 0)[0])
            raise DataError(f"record {bad} is a zero vector, cannot normalize")
        block /= norms[:, None]
        out[lo:lo + rows] = block
    return FeatureSet(out)


def write_feature_file(fs: FeatureSet, path) -> None:
    """Write a FeatureSet so that read_feature_file reconstructs it exactly."""
    if fs.n == 0:
        raise DataError("refusing to write an empty feature set")
    rows = chunk_rows(4 * (1 + fs.dim))
    buf = np.empty((min(rows, fs.n), 1 + fs.dim), dtype="<i4")
    buf[:, 0] = fs.dim
    with open(path, "wb") as f:
        for lo in range(0, fs.n, rows):
            chunk = buf[: min(rows, fs.n - lo)]
            chunk[:, 1:].view("<f4")[...] = fs.vectors[lo : lo + len(chunk)]
            f.write(chunk)


def read_int_lists(path) -> list[np.ndarray]:
    """Read an integer-list file; record lengths may differ and may be 0."""
    raw = np.fromfile(path, dtype=np.uint8)
    records = []
    off = 0
    while off < raw.size:
        if off + 4 > raw.size:
            raise DataError(f"{path}: record {len(records)}: truncated header")
        count = int(raw[off : off + 4].view("<i4")[0])
        if count < 0:
            raise DataError(f"{path}: record {len(records)}: bad length {count}")
        off += 4
        if off + 4 * count > raw.size:
            raise DataError(f"{path}: record {len(records)}: truncated payload")
        records.append(raw[off : off + 4 * count].view("<i4"))
        off += 4 * count
    return records


def write_int_lists(lists, path) -> None:
    """Write integer lists (e.g. retrieved ids per query) in record layout."""
    with open(path, "wb") as f:
        for ids in lists:
            ids = np.asarray(ids, dtype=np.int32)
            f.write(np.int32(len(ids)).tobytes())
            f.write(ids.astype("<i4").tobytes())


def read_ground_truth(path, n: int | None = None) -> dict[int, set[int]]:
    """Read ground truth mapping query id -> set of relevant database ids. A
    query id may appear once; relevant ids must be >= 0, and below ``n`` if
    it is given."""
    entries: dict[int, set[int]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            head, sep, rest = line.partition(":")
            if not sep:
                raise DataError(f"{path}:{lineno}: missing ':' separator")
            try:
                qid = int(head)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad query id {head!r}") from None
            ids = rest.split()
            if not ids:
                raise DataError(f"{path}:{lineno}: empty relevant set for query {qid}")
            try:
                relevant = {int(s) for s in ids}
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer relevant id") from None
            limit = np.inf if n is None else n
            if not 0 <= min(relevant) <= max(relevant) < limit:
                raise DataError(f"{path}:{lineno}: relevant id out of range [0, {limit})")
            if qid in entries:
                raise DataError(f"{path}:{lineno}: repeated query id {qid}")
            entries[qid] = relevant
    if not entries:
        raise DataError(f"{path}: no ground-truth entries")
    return entries


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_ground_truth(gt: dict[int, set[int]], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(gt):
            ids = " ".join(str(i) for i in sorted(gt[qid]))
            f.write(f"{qid}: {ids}\n")


def generate_synthetic(spec: SynthSpec) -> tuple[FeatureSet, FeatureSet, dict[int, set[int]]]:
    """Generate a clustered database, one perturbed query per cluster, and
    exact ground truth (each query's relevant set = its cluster's members).

    Deterministic for a fixed seed. Queries are perturbed copies of the first
    member of each cluster, so with noise_stddev=0 each query equals a
    database vector exactly.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.n_clusters, spec.dim), dtype=np.float32)
    centers *= _CENTER_SCALE

    ppc = spec.points_per_cluster
    db = np.empty((spec.n_clusters * ppc, spec.dim), dtype=np.float32)
    queries = np.empty((spec.n_clusters, spec.dim), dtype=np.float32)
    gt: dict[int, set[int]] = {}
    for c in range(spec.n_clusters):
        # drawn, scaled and shifted in place: the values of
        # centers[c] + noise * stddev, with no temporary block
        block = db[c * ppc : (c + 1) * ppc]
        rng.standard_normal(dtype=np.float32, out=block)
        block *= np.float32(spec.cluster_stddev)
        block += centers[c]
        qnoise = rng.standard_normal(spec.dim, dtype=np.float32)
        queries[c] = block[0] + qnoise * np.float32(spec.noise_stddev)
        gt[c] = set(range(c * ppc, (c + 1) * ppc))
    return FeatureSet(db), FeatureSet(queries), gt
