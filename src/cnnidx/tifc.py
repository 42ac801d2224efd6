"""Term-frequency quantization: each vector dimension is a virtual concept
word; the softmax of a feature vector gives word probabilities, and the top-S
bins select the words the vector is linked to.

The virtual words are D random vectors that only ever enter through their L
segment means, so `VirtualWordBank` keeps the (D, L) table of those means and
never the D x D bank itself."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Bytes of the bank rows drawn at once while the means table is computed.
_BANK_CHUNK_BYTES = 1 << 20


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
    if not 1 <= count <= tf.size:
        raise ValueError(f"count must be in [1, {tf.size}], got {count}")
    return [(int(i), float(tf[i])) for i in top_words_rows(tf[None], count)[0]]


def top_words_rows(tf: np.ndarray, count: int) -> np.ndarray:
    """Row-wise word ids of the top-`count` bins, shape (N, count)."""
    if not 1 <= count <= tf.shape[1]:
        raise ValueError(f"count must be in [1, {tf.shape[1]}], got {count}")
    # stable sort on negated probs keeps smaller ids first among ties
    return np.argsort(-tf, axis=1, kind="stable")[:, :count]


@dataclass
class VirtualWordBank:
    """Reference segment means of the D virtual words, a (D, L) table.

    Virtual word i is row i of
    `np.random.default_rng(seed).standard_normal((dim, dim))`, and
    `means[i]` is `embed.segment_means` of it. The table is regenerated
    deterministically from (dim, seed, code_length), so only those are
    persisted. The bank is drawn a few rows at a time into one reused
    buffer: the same draws in the same order, summed as `segment_means`
    sums them, so the table is bit-identical to the means of the full bank.
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
        rng = np.random.default_rng(self.seed)
        step = max(1, _BANK_CHUNK_BYTES // (8 * d))
        buf = np.empty((min(step, d), d))
        self.means = np.empty((d, length))
        for lo in range(0, d, step):
            rows = buf[: min(step, d - lo)]
            rng.standard_normal(out=rows)
            np.add.reduce(rows.reshape(len(rows), length, d // length), axis=-1,
                          out=self.means[lo : lo + len(rows)])
        self.means /= d // length


def make_virtual_words(dim: int, seed: int, code_length: int) -> VirtualWordBank:
    return VirtualWordBank(dim=dim, seed=seed, code_length=code_length)
