"""Binary embedding codes: a vector and its assigned word's vector are split
into L equal segments; bit i is 1 iff the vector's segment mean is >= the
word's segment mean. Codes are packed little-endian (bit i of the code is bit
i mod 8 of byte i div 8) and compared by Hamming distance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# hamming_to_many adds up the word popcounts of a code one word column at a
# time only where that was measured to beat numpy's row sum: codes of 2 to
# COLUMN_SUM_MAX_WORDS words over at least COLUMN_SUM_MIN_ROWS rows. Four words
# is the widest code a benchmark workload scans (tifc-wide, L = 256). Each
# column pass costs about a microsecond whatever the row count, so the loop
# loses on short scans and on wider codes. Measured as scripts/bench_hamming.py
# does (numpy 2.4.6, 2 vCPUs; median us, column loop / row sum): 4 words on
# 100, 200 and 8,000 rows 11.0 / 10.5, 8.7 / 10.2 and 57 / 198; 8 words on
# 300 rows 14.6 / 14.0.
COLUMN_SUM_MAX_WORDS = 4
COLUMN_SUM_MIN_ROWS = 200


@dataclass
class EmbedConfig:
    code_length: int  # L bits

    def __post_init__(self):
        if self.code_length < 1:
            raise ValueError("code_length must be >= 1")


def code_bytes(code_length: int) -> int:
    return (code_length + 7) // 8


def segment_means(x: np.ndarray, code_length: int) -> np.ndarray:
    """Means of the L contiguous equal-length segments of each row.

    Accepts a vector (D,) or matrix (N, D); D must be divisible by L.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if d % code_length != 0:
        raise ValueError(f"dimension {d} not divisible by code length {code_length}")
    return x.reshape(*x.shape[:-1], code_length, d // code_length).mean(axis=-1)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack boolean bit rows into uint8 codes; trailing pad bits are zero."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")


def encode(x, c, cfg: EmbedConfig) -> np.ndarray:
    """L-bit code of x relative to reference vector c, packed uint8."""
    x = np.asarray(x)
    c = np.asarray(c)
    if x.shape != c.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {c.shape}")
    bits = segment_means(x, cfg.code_length) >= segment_means(c, cfg.code_length)
    return pack_bits(bits)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two packed codes."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"code length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def word_popcounts(code: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Popcounts of the XOR of packed codes, one per word: (..., words) uint8.

    `code` is one code (B,) for every row, or one code per row (N, B). The
    XOR is taken on the widest unsigned word that divides B bytes (8, 4, 2
    or 1).
    """
    code = np.ascontiguousarray(code, dtype=np.uint8)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    nbytes = codes.shape[-1]
    if code.shape[-1] != nbytes:
        raise ValueError(f"code length mismatch: {codes.shape} vs {code.shape}")
    word = np.dtype(f"u{next(w for w in (8, 4, 2, 1) if nbytes % w == 0)}")
    return np.bitwise_count(codes.view(word) ^ code.view(word))


def hamming_to_many(code: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances from packed codes to each row of a code matrix.

    `code` is one code (B,) for every row, or one code per row (N, B); the
    per-word popcounts come from `word_popcounts`. A code of one word (at
    most 64 bits) takes no sum and gives its uint8 counts. A code of several
    words gives int64 sums. numpy's `sum(axis=-1)` reduces each short row on
    its own and pays a cost per row, so at 2 to `COLUMN_SUM_MAX_WORDS` words
    and at least `COLUMN_SUM_MIN_ROWS` rows the sum runs one word column at a
    time instead: one vectorised pass over the rows per word, about 3.5
    times as fast at 4 words on 8,000 rows. Wider codes and shorter scans
    keep the row sum, where the column passes' fixed cost makes them slower.
    """
    counts = word_popcounts(code, codes)
    words = counts.shape[-1]
    if words == 1:
        return counts[..., 0]
    if words > COLUMN_SUM_MAX_WORDS or counts.size < COLUMN_SUM_MIN_ROWS * words:
        return counts.sum(axis=-1, dtype=np.int64)
    out = np.add(counts[..., 0], counts[..., 1], dtype=np.int64)
    for j in range(2, words):
        out += counts[..., j]
    return out
