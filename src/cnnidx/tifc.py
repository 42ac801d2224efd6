"""Term-frequency quantization: each vector dimension is a virtual concept
word; the softmax of a feature vector gives word probabilities, and the top-S
bins select the words the vector is linked to. Softmax is strictly increasing
within a row, so those bins are the row's S largest activations, and the word
stage ranks the activations themselves: no rounding of `exp` can tie or
underflow distinct values.

The virtual words are D random N(0, 1) vectors that only ever enter through
their L segment means. Each mean averages D/L iid N(0, 1) draws, so it is
N(0, L/D): `make_virtual_words` draws the (D, L) table of means directly, no
D x D bank exists, and a `VirtualWordBank` is that table alone, whose rows
codes gather by word id (`word_means`): no index holds a copy. The draw is
one `default_rng(0)` draw, so D and L fix the table. It is memoised for the
last (D, L) asked for: the builds, loads and saves of that shape share one
read-only table, which stays referenced after its last index is dropped (at
most `invindex.MAX_TABLE_ENTRIES` x 8 B; 4 MiB at 2,048 x 256), and a
process's first TIFC load of a shape draws it serially, after the CRC."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class VirtualWordBank:
    """Reference segment means of the D virtual words, the (D, L) table that
    `make_virtual_words` draws. D and L give it, so the payload is empty.
    Frozen, as the memo hands one bank to every caller."""

    means: np.ndarray  # (D, L) float64

    @property
    def dim(self) -> int:
        return self.means.shape[0]

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
        """Working bytes of one word in `word_means`: its L float64 means."""
        return 8 * code_length

    def word_means(self, wids: np.ndarray, code_length: int) -> np.ndarray:
        """The table's rows of the given word ids, of shape wids.shape + (L,)."""
        return self.means[wids]

    def payload(self) -> np.ndarray:
        return np.empty(0, dtype="<f4")


@lru_cache(maxsize=1)
def make_virtual_words(dim: int, code_length: int) -> VirtualWordBank:
    """The table for D = dim and L = code_length,
    `np.random.default_rng(0).standard_normal((D, L)) * sqrt(L / D)`: the law
    of the segment means of D random N(0, 1) words, drawn at O(D * L) cost.
    Calls for the last (D, L) return one bank, its table read-only."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if code_length < 1 or dim % code_length:
        raise ValueError(f"code_length {code_length} does not divide dim {dim}")
    means = np.random.default_rng(0).standard_normal((dim, code_length))
    means *= np.sqrt(code_length / dim)
    means.flags.writeable = False
    return VirtualWordBank(means)
