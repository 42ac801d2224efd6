"""Seeded hard data for the benchmark, and its exact ground truth.

The database and the held-out queries are draws from one mixture of
overlapping, anisotropic Gaussian clusters passed through a ReLU, so the
vectors are non-negative like CNN activations. Cluster centres are spread no
wider than the clusters themselves, so neighbourhoods overlap and the index's
recall stays well below 1.0; with well-separated clusters a quality
regression could not show.
"""

from __future__ import annotations

import numpy as np

CLUSTERS = 100
RANK = 8  # principal directions per cluster; their scales decay as 1/sqrt(i)
CENTER_SCALE = 1.0
SPREAD = 1.0
NOISE = 0.5


def hard_vectors(seed: int, n: int, n_queries: int, dim: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(database (n, dim), queries (n_queries, dim)), float32, non-negative.

    The same seed gives the same arrays.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((CLUSTERS, dim), dtype=np.float32) * CENTER_SCALE
    scales = (SPREAD / np.sqrt(np.arange(1, RANK + 1))).astype(np.float32)
    total = n + n_queries
    labels = rng.integers(CLUSTERS, size=total)
    x = rng.standard_normal((total, dim), dtype=np.float32)
    x *= NOISE
    for c in range(CLUSTERS):
        rows = np.flatnonzero(labels == c)
        basis = rng.standard_normal((RANK, dim), dtype=np.float32)
        z = rng.standard_normal((rows.size, RANK), dtype=np.float32) * scales
        x[rows] += centers[c] + z @ basis
    np.maximum(x, 0.0, out=x)
    return x[:n], x[n:]


def exact_top_k(db: np.ndarray, queries: np.ndarray, k: int,
                chunk: int = 256) -> np.ndarray:
    """Exact L2 top-k database ids per query, shape (n_queries, k).

    Ordered by (squared distance, id), computed in float64 in query chunks so
    the distance matrix stays small.
    """
    db64 = db.astype(np.float64)
    db_norms = np.einsum("ij,ij->i", db64, db64)
    out = np.empty((len(queries), k), dtype=np.int64)
    for lo in range(0, len(queries), chunk):
        q = queries[lo:lo + chunk].astype(np.float64)
        # |q|^2 is constant per row, so it does not change the order
        d = db_norms[None, :] - 2.0 * (q @ db64.T)
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        order = np.lexsort((part, np.take_along_axis(d, part, axis=1)), axis=1)
        out[lo:lo + chunk] = np.take_along_axis(part, order, axis=1)
    return out
