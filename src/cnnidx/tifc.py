"""Term-frequency quantization: each vector dimension is a virtual concept
word; the softmax of a feature vector gives word probabilities, and the top-S
bins select the words the vector is linked to. Softmax is strictly increasing
within a row, so those bins are the row's S largest activations, and the word
stage ranks the activations themselves: no rounding of `exp` can tie or
underflow distinct values.

The virtual words are D random N(0, 1) vectors that only ever enter through
their L segment means. Each mean averages D/L iid N(0, 1) draws, so it is
N(0, L/D): `VirtualWordBank` draws the (D, L) table of means directly, and no
D x D bank exists."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embed import pack_bits, segment_means
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
    """Reference segment means of the D virtual words, a (D, L) table.

    `means` is `np.random.default_rng(seed).standard_normal((dim, code_length))
    * sqrt(code_length / dim)`: the law of the segment means of D random
    N(0, 1) words, drawn at O(D * L) cost. The table is regenerated
    deterministically from (dim, seed, code_length), so only those are
    persisted, and the payload is empty.
    """

    dim: int
    seed: int
    code_length: int
    means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d, length = self.dim, self.code_length
        if d < 1:
            raise ValueError("dim must be >= 1")
        if length < 1 or d % length:
            raise ValueError(f"code_length {length} does not divide dim {d}")
        self.means = np.random.default_rng(self.seed).standard_normal((d, length))
        self.means *= np.sqrt(length / d)

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

    def codes(self, xs: np.ndarray, wids: np.ndarray, code_length: int) -> np.ndarray:
        """Each row's packed codes against its words' rows of the table,
        (N, count, B) for (N, count) word ids."""
        return pack_bits(segment_means(xs, code_length)[:, None, :] >= self.means[wids])

    def payload(self) -> np.ndarray:
        return np.empty(0, dtype="<f4")


def make_virtual_words(dim: int, seed: int, code_length: int) -> VirtualWordBank:
    return VirtualWordBank(dim=dim, seed=seed, code_length=code_length)
