"""Comparison baselines: exact brute-force search over squared Euclidean
distance, and sign-random-projection LSH with exact re-ranking of bucket
candidates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pq import sq_dist_to
from .vecio import FeatureSet, check_ints, chunk_rows


@dataclass
class LshConfig:
    tables: int
    bits_per_table: int
    seed: int = 0

    def __post_init__(self):
        check_ints(self, {"tables": 1, "bits_per_table": 1, "seed": 0})
        if self.bits_per_table > 64:
            raise ValueError("bits_per_table must be <= 64, the bits of a bucket key")


@dataclass
class LshIndex:
    config: LshConfig
    planes: np.ndarray  # (tables, bits, D)
    buckets: list[dict[int, np.ndarray]]  # per table: hash key -> ids
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
    rng = np.random.default_rng(cfg.seed)
    planes = rng.standard_normal((cfg.tables, cfg.bits_per_table, db.dim))
    keys = _hash_keys(db.vectors, planes)
    buckets: list[dict[int, np.ndarray]] = []
    for t in range(cfg.tables):
        table: dict[int, np.ndarray] = {}
        order = np.argsort(keys[:, t], kind="stable")
        sorted_keys = keys[order, t]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        bounds = np.append(starts, len(order))
        for i, key in enumerate(uniq):
            table[int(key)] = order[bounds[i] : bounds[i + 1]].astype(np.int32)
        buckets.append(table)
    return LshIndex(config=cfg, planes=planes, buckets=buckets, db=db)


def lsh_query(ix: LshIndex, q, top_k: int) -> tuple[list[int], int]:
    """Union of the query's buckets across tables, re-ranked exactly.

    Returns the top_k ids and the size of the union, which is the number of
    database vectors the query scanned. May return fewer than top_k ids when
    the buckets are sparse. top_k below 1, or a query that is not finite, is
    a ValueError.
    """
    q = _check_query(ix.db.vectors, q, top_k)
    keys = _hash_keys(q[None, :], ix.planes)[0]
    cand: set[int] = set()
    for t, key in enumerate(keys):
        hit = ix.buckets[t].get(int(key))
        if hit is not None:
            cand.update(int(i) for i in hit)
    if not cand:
        return [], 0
    ids = np.fromiter(cand, dtype=np.int64)
    dists = sq_dist_to(ix.db.vectors, q, ids)
    order = np.lexsort((ids, dists))
    return [int(ids[i]) for i in order[:top_k]], len(ids)
