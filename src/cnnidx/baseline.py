"""Comparison baselines: exact brute-force search over squared Euclidean
distance, and sign-random-projection LSH with exact re-ranking of bucket
candidates. `run` times either one query by query."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .pq import sq_dist_to
from .vecio import FeatureSet, check_ints, chunk_rows


@dataclass
class LshConfig:
    tables: int
    bits_per_table: int

    def __post_init__(self):
        check_ints(self, {"tables": 1, "bits_per_table": 1})
        if self.bits_per_table > 64:
            raise ValueError("bits_per_table must be <= 64, the bits of a bucket key")


@dataclass
class LshIndex:
    config: LshConfig
    planes: np.ndarray  # (tables, bits, D)
    # per table, its rows sorted by bucket key (by row within a key) and
    # their keys in that order: a bucket is one run of equal keys
    rows: np.ndarray  # (tables, n) row ids
    keys: np.ndarray  # (tables, n) int64
    db: FeatureSet = field(repr=False)


def brute_force(db: FeatureSet, q, top_k: int) -> list[int]:
    """Exact top_k (>= 1) nearest database ids to a finite query, ties broken
    by smaller id."""
    dists = sq_dist_to(db.vectors, _check_query(db.vectors, q, top_k))
    order = np.lexsort((np.arange(db.n), dists))
    return [int(i) for i in order[:top_k]]


def _check_query(vectors: np.ndarray, q, top_k: int) -> np.ndarray:
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (vectors.shape[1],):
        raise ValueError(f"query dim {q.shape} does not match database {vectors.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query must be finite")
    return q


def _hash_keys(vectors: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Bucket key per (vector, table): sign bits of the hyperplane projections."""
    tables, bits, d = planes.shape
    weights = 1 << np.arange(bits, dtype=np.int64)
    # rows are chunked so that their float64 copies and (T, B) projections,
    # rows * (D + T*B) values, stay within CHUNK_BYTES
    rows = chunk_rows((d + tables * bits) * 8)
    keys = np.empty((len(vectors), tables), dtype=np.int64)
    for lo in range(0, len(vectors), rows):
        # (T, B, D) x (rows, D) -> signs (rows, T, B); the float64 copy of
        # the chunk is freed before the next one is made
        proj = np.einsum("tbd,nd->ntb", planes,
                         np.asarray(vectors[lo : lo + rows], dtype=np.float64))
        keys[lo : lo + rows] = (proj >= 0) @ weights
    return keys


def lsh_build(db: FeatureSet, cfg: LshConfig) -> LshIndex:
    """Bucket db's rows by sign-random-projection planes, which are no
    setting: seed 0's draw of their (tables, bits, D) shape."""
    planes = np.random.default_rng(0).standard_normal((cfg.tables, cfg.bits_per_table, db.dim))
    keys = _hash_keys(db.vectors, planes).T
    rows = np.argsort(keys, axis=1, kind="stable")
    return LshIndex(config=cfg, planes=planes, rows=rows,
                    keys=np.take_along_axis(keys, rows, axis=1), db=db)


def lsh_query(ix: LshIndex, q, top_k: int) -> tuple[list[int], int]:
    """Union of the query's buckets across tables, re-ranked exactly.

    Returns the top_k ids and the size of the union, which is the number of
    database vectors the query scanned. May return fewer than top_k ids when
    the buckets are sparse. top_k below 1, or a query that is not finite, is
    a ValueError.
    """
    q = _check_query(ix.db.vectors, q, top_k)
    ids = np.unique(np.concatenate([
        rows[keys.searchsorted(key, "left") : keys.searchsorted(key, "right")]
        for rows, keys, key in zip(ix.rows, ix.keys, _hash_keys(q[None, :], ix.planes)[0])]))
    dists = sq_dist_to(ix.db.vectors, q, ids)
    order = np.lexsort((ids, dists))
    return [int(ids[i]) for i in order[:top_k]], len(ids)


def run(db: FeatureSet, queries: FeatureSet, top_k: int,
        lsh: LshConfig | None = None) -> tuple[list[list[int]], list[int], list[float]]:
    """Each query's ranked ids, the database rows it scanned and its wall
    time in seconds, by `brute_force` or, with an LshConfig, by `lsh_query`
    over one `lsh_build` of db that is not timed."""
    ix = None if lsh is None else lsh_build(db, lsh)
    ranked, scanned, times = [], [], []
    for q in queries.vectors:
        t0 = time.perf_counter()
        ids, count = lsh_query(ix, q, top_k) if ix else (brute_force(db, q, top_k), db.n)
        times.append(time.perf_counter() - t0)
        ranked.append(ids)
        scanned.append(count)
    return ranked, scanned, times
