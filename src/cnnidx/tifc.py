"""Term-frequency quantization: each vector dimension is a virtual concept
word; the softmax of a feature vector gives word probabilities, and the top-S
bins select the words the vector is linked to. Softmax is strictly increasing
within a row, so those bins are the row's S largest activations, and the word
stage ranks the activations themselves: no rounding of `exp` can tie or
underflow distinct values.

A TIFC code does not depend on the word: every vector has one L-bit code,
made against one reference row of L segment means, the per-segment lower
median of the database's segment means (Jegou, Douze & Schmid, "Hamming
Embedding and Weak Geometric Consistency for Large Scale Image Search", ECCV
2008, threshold each bit at a median; Gong & Lazebnik, "Iterative
Quantization", CVPR 2011, give each global descriptor one code). About half
of a code's bits are then 1, so the Hamming filter sees signal. The build
takes the row from its data (`invindex.build`), the file holds it as its
payload, and `make_virtual_words` makes the bank, D and that row, for the
build and for `invindex.load`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pq import first_in_order


def softmax(x) -> np.ndarray:
    """Term-frequency vector of x: probs[i] = e^{x_i} / sum_j e^{x_j}.

    Computed with max-subtraction so large activations do not overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("expected a non-empty 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("softmax input must be finite")
    return softmax_rows(x[None])[0]


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (N, D) matrix; each row's values depend on
    that row alone."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def top_words(tf: np.ndarray, count: int) -> list[tuple[int, float]]:
    """The `count` largest bins of a term-frequency vector, descending;
    ties broken by smaller word id."""
    tf = np.asarray(tf)
    return [(int(i), float(tf[i])) for i in top_words_rows(tf[None], count)[0]]


def top_words_rows(tf: np.ndarray, count: int) -> np.ndarray:
    """Row-wise word ids of the top-`count` bins, shape (N, count), in
    (-tf, id) order, the first `count` of a stable argsort of -tf: the
    selection `pq.first_in_order` makes of -tf."""
    if not 1 <= count <= tf.shape[1]:
        raise ValueError(f"count must be in [1, {tf.shape[1]}], got {count}")
    return first_in_order(-tf, count)[0]


@dataclass
class VirtualWordBank:
    """The D virtual words and the one reference row that every TIFC code is
    made against, whatever the word: the payload of the file."""

    dim: int
    reference: np.ndarray  # (L,) float32, the file's dtype

    @property
    def word_count(self) -> int:
        return self.dim

    @property
    def stage_width(self) -> int:
        """Float64 values per row of the word stage: D negated activations."""
        return self.dim

    def words(self, xs: np.ndarray, count: int) -> np.ndarray:
        """Each row's `count` largest activations, (N, count), in (-x, id)
        order: its largest softmax bins, ranked without rounding by `exp`."""
        return top_words_rows(np.asarray(xs, dtype=np.float64), count)

    def mean_bytes(self, code_length: int) -> int:
        """Working bytes of one word in `word_means`: none, as every word
        shares the one reference row."""
        return 0

    def word_means(self, wids: np.ndarray, code_length: int) -> np.ndarray:
        """The reference row for every word, of shape (1, L): it broadcasts
        against a row's segment means to give the row its one code."""
        return self.reference[None]

    def payload(self) -> np.ndarray:
        return np.ascontiguousarray(self.reference, dtype="<f4")


def lower_medians(means: np.ndarray) -> np.ndarray:
    """The lower median of each row of an (L, n) array, its (n - 1) // 2-th
    order statistic, as a view of that column after partitioning each row
    in place."""
    k = (means.shape[1] - 1) // 2
    means.partition(k, axis=1)
    return means[:, k]


def make_virtual_words(dim: int, reference) -> VirtualWordBank:
    """The bank of D = dim virtual words whose codes are made against
    `reference`, the L segment means, copied at float32, with L dividing D."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    reference = np.array(reference, dtype=np.float32)
    if reference.ndim != 1 or not reference.size or dim % reference.size:
        raise ValueError(f"a reference of shape {reference.shape} is not one row of L "
                         f"values, or its L does not divide dim {dim}")
    return VirtualWordBank(dim, reference)
