"""Binary embedding codes: a vector and its assigned word's vector are split
into L equal segments; bit i is 1 iff the vector's segment mean is >= the
word's segment mean. Codes are packed little-endian (bit i of the code is bit
i mod 8 of byte i div 8) and compared by Hamming distance.

`hamming_to_many` is the posting scan's kernel. It takes popcounts on the
widest unsigned word that divides a code, and sums the words of a wider code
in one float32 matrix-vector product, whatever the code width or the number
of rows: every partial sum is a whole number of at most 2^24, so float32
holds it exactly in any order of addition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vecio import check_ints


@dataclass
class EmbedConfig:
    code_length: int  # L bits

    def __post_init__(self):
        check_ints(self, {"code_length": 1})


def code_bytes(code_length: int) -> int:
    return (code_length + 7) // 8


def segment_means(x: np.ndarray, code_length: int) -> np.ndarray:
    """Means of the L contiguous equal-length segments of each row, with the
    bits of numpy's `mean` over each segment.

    Accepts a vector (D,) or matrix (N, D); D must be divisible by L. numpy
    sums fewer than 8 values one by one onto 0.0, so a segment narrower than
    8 is summed by the same adds over whole columns, in a fraction of
    `mean`'s time (1.4 against 7.7 ms on 15,000 x 64 rows at L = 32, on 2
    vCPUs).
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if d % code_length != 0:
        raise ValueError(f"dimension {d} not divisible by code length {code_length}")
    segments = x.reshape(*x.shape[:-1], code_length, d // code_length)
    width = segments.shape[-1]
    if width >= 8:
        return segments.mean(axis=-1)
    total = np.zeros(segments.shape[:-1])
    for j in range(width):
        total += segments[..., j]
    return np.divide(total, width, out=total)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack bit rows (bools, or integers with nonzero as 1) into uint8 codes
    as they come, with no cast; trailing pad bits are zero."""
    return np.packbits(bits, axis=-1, bitorder="little")


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


def hamming_to_many(code: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances from packed codes to each row of a code matrix.

    `code` is one code (B,) for every row, or one code per row (N, B). The
    XOR is popcounted on the widest unsigned word that divides B bytes (8, 4,
    2 or 1). A code of one word (at most 64 bits) takes no sum and gives its
    uint8 counts. A code of several words gives its sums at
    `np.min_scalar_type(8 * B)`, the narrowest unsigned type that holds
    every distance (uint16 up to 8,191 bytes), so the scan's per-id minima
    stay narrow. They are made as the product of the float32 word counts
    with a vector of ones: one BLAS call for every row and width, exact
    while a code has at most 2^24 bits, so longer codes (more than 2^21
    bytes) raise ValueError.
    """
    code = np.ascontiguousarray(code, dtype=np.uint8)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    nbytes = codes.shape[-1]
    if code.shape[-1] != nbytes:
        raise ValueError(f"code length mismatch: {codes.shape} vs {code.shape}")
    if nbytes > 1 << 21:
        raise ValueError(f"codes of {nbytes} bytes exceed the 2^24 bits a float32 sum holds")
    word = np.dtype(f"u{next(w for w in (8, 4, 2, 1) if nbytes % w == 0)}")
    counts = np.bitwise_count(codes.view(word) ^ code.view(word))
    words = counts.shape[-1]
    if words == 1:
        return counts[..., 0]
    sums = counts.astype(np.float32) @ np.ones(words, dtype=np.float32)
    return sums.astype(np.min_scalar_type(8 * nbytes))
