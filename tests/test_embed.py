import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnidx import embed
from cnnidx.embed import EmbedConfig


def unpack(code, length):
    return np.unpackbits(code, bitorder="little")[:length]


class TestEncode:
    def test_x_equals_c_is_all_ones(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        code = embed.encode(x, x, EmbedConfig(8))
        assert unpack(code, 8).tolist() == [1] * 8

    def test_hand_computed_d4_l2(self):
        code = embed.encode([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], EmbedConfig(2))
        assert unpack(code, 2).tolist() == [1, 0]
        assert code.tolist() == [0b01]

    def test_l_equals_d_compares_raw_components(self):
        x = np.array([1.0, -2.0, 3.0, 0.0])
        c = np.array([0.5, -1.0, 3.0, 1.0])
        code = embed.encode(x, c, EmbedConfig(4))
        assert unpack(code, 4).tolist() == [1, 0, 1, 0]

    def test_code_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="^code_length must be >= 1, got 0$"):
            EmbedConfig(0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(32)
            c = rng.standard_normal(32)
            a = embed.encode(x, c, EmbedConfig(8))
            b = embed.encode(2 * x, 2 * c, EmbedConfig(8))
            np.testing.assert_array_equal(a, b)

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            embed.encode(np.zeros(10), np.zeros(10), EmbedConfig(3))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            embed.encode(np.zeros(8), np.zeros(4), EmbedConfig(4))

    def test_pad_bits_are_zero(self):
        # L=5 uses 1 byte; the top 3 bits must stay zero
        x = np.ones(5)
        c = np.zeros(5)
        code = embed.encode(x, c, EmbedConfig(5))
        assert code.tolist() == [0b00011111]


def adversarial_rows(rows, d, seed):
    """Rows whose sums depend on the order of additions: magnitudes from
    1e-16 to 1e16 of both signs, so partial sums cancel and absorb, and rows
    of negative zeros, whose sum keeps its sign only without a 0.0 start."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-16, 17, (rows, d))
    x[::11] = -0.0
    x[1::11, ::2] = -0.0
    return x


class TestSegmentMeans:
    """`segment_means` has the bits of numpy's `mean` over each segment:
    column adds below width 8, `mean` itself from width 8."""

    @pytest.mark.parametrize("width", range(1, 10))
    def test_bits_of_mean(self, width):
        length = 5
        x = adversarial_rows(20_000, length * width, width)
        got = embed.segment_means(x, length)
        assert got.dtype == np.float64 and got.shape == (20_000, length)
        assert got.tobytes() == x.reshape(-1, length, width).mean(axis=-1).tobytes()

    @pytest.mark.parametrize("width", [2, 3, 7, 8, 9])
    def test_non_contiguous_rows(self, width):
        """Every other column of a wider matrix, and a Fortran-ordered
        matrix, get the bits of `mean` over the same segments."""
        length = 4
        wide = adversarial_rows(5_000, 2 * length * width, 30 + width)
        for x in (wide[:, ::2], np.asfortranarray(wide[:, :length * width])):
            assert not x.flags.c_contiguous
            want = x.reshape(-1, length, width).mean(axis=-1)
            assert embed.segment_means(x, length).tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 8])
    def test_vector(self, width):
        """A (D,) vector gives (L,) means, those of the vector as a row."""
        length = 6
        x = adversarial_rows(12, length * width, 40 + width)
        for row in x:
            got = embed.segment_means(row, length)
            assert got.shape == (length,)
            assert got.tobytes() == row.reshape(length, width).mean(axis=-1).tobytes()
            assert got.tobytes() == embed.segment_means(row[None], length)[0].tobytes()


class TestHamming:
    def test_identity(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, size=4, dtype=np.uint8)
        assert embed.hamming(a, a) == 0

    def test_complement_is_length(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
        a = embed.pack_bits(bits)
        b = embed.pack_bits(1 - bits)
        assert embed.hamming(a, b) == 10

    def test_frozen_5bit_example(self):
        a = embed.pack_bits(np.array([1, 0, 1, 1, 0], dtype=np.uint8))
        b = embed.pack_bits(np.array([1, 0, 0, 1, 1], dtype=np.uint8))
        assert embed.hamming(a, b) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            embed.hamming(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), nbytes=st.integers(1, 16))
    def test_symmetry_and_triangle(self, seed, nbytes):
        rng = np.random.default_rng(seed)
        a, b, c = rng.integers(0, 256, size=(3, nbytes), dtype=np.uint8)
        assert embed.hamming(a, b) == embed.hamming(b, a)
        assert embed.hamming(a, c) <= embed.hamming(a, b) + embed.hamming(b, c)

    def test_matches_bit_by_bit_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            bits_a = rng.integers(0, 2, size=24).astype(np.uint8)
            bits_b = rng.integers(0, 2, size=24).astype(np.uint8)
            expected = int((bits_a != bits_b).sum())
            assert embed.hamming(embed.pack_bits(bits_a), embed.pack_bits(bits_b)) == expected

    def test_hamming_to_many_width_mismatch(self):
        with pytest.raises(ValueError, match="code length mismatch"):
            embed.hamming_to_many(np.zeros(3, dtype=np.uint8), np.zeros((5, 4), dtype=np.uint8))

    def test_hamming_to_many(self):
        rng = np.random.default_rng(4)
        code = rng.integers(0, 256, size=4, dtype=np.uint8)
        codes = rng.integers(0, 256, size=(20, 4), dtype=np.uint8)
        got = embed.hamming_to_many(code, codes)
        for i in range(20):
            assert got[i] == embed.hamming(code, codes[i])

    @pytest.mark.parametrize("length", [4, 8, 12, 24, 32, 256])
    def test_hamming_to_many_word_widths(self, length):
        """Codes of 1, 2, 3, 4 and 32 bytes: popcounts on u1, u2, u1, u4 and
        u8 words, one code for all rows or one code per row."""
        rng = np.random.default_rng(length)
        codes = embed.pack_bits(rng.integers(0, 2, (30, length)))
        code = embed.pack_bits(rng.integers(0, 2, length))
        per_row = embed.pack_bits(rng.integers(0, 2, (30, length)))
        np.testing.assert_array_equal(embed.hamming_to_many(code, codes),
                                      [embed.hamming(code, c) for c in codes])
        np.testing.assert_array_equal(embed.hamming_to_many(per_row, codes),
                                      [embed.hamming(a, c) for a, c in zip(per_row, codes)])


def test_hamming_to_many_matches_hamming_across_widths():
    """Codes of 1 to 520 bytes: u1, u2, u4 and u8 words, with u8 codes of 1 to
    65 words, on 0, 1 and 37 rows; and scans of 8,192 rows at 2, 4, 8 and 16
    words, long enough for BLAS to split the sum across threads. One code for
    all rows or one per row. Every third row differs from its query code in
    every bit, so distances of 256 and 4,096 occur, where an 8-bit
    accumulator would wrap to 0."""
    rng = np.random.default_rng(17)
    cases = [(nbytes, rows) for nbytes in range(1, 521) for rows in (0, 1, 37)]
    cases += [(8 * words, 8192) for words in (2, 4, 8, 16)]
    seen = set()
    for nbytes, rows in cases:
        word = next(w for w in (8, 4, 2, 1) if nbytes % w == 0)
        codes = rng.integers(0, 256, (rows, nbytes), dtype=np.uint8)
        code = rng.integers(0, 256, nbytes, dtype=np.uint8)
        per_row = rng.integers(0, 256, (rows, nbytes), dtype=np.uint8)
        codes[::3] = ~code
        per_row[1::3] = ~codes[1::3]
        for query in (code, per_row):
            got = embed.hamming_to_many(query, codes)
            expected = [embed.hamming(a, c)
                        for a, c in zip(np.broadcast_to(query, codes.shape), codes)]
            assert got.shape == (rows,)
            assert got.dtype == (np.min_scalar_type(8 * nbytes) if nbytes > word else np.uint8)
            np.testing.assert_array_equal(got, np.array(expected, dtype=np.int64),
                                          err_msg=f"{nbytes} bytes, {rows} rows")
            seen.update(got.tolist())
    assert {256, 4096} <= seen


def test_hamming_to_many_exact_up_to_2_24_bits():
    """Codes of 2^21 bytes that differ in every bit give exactly 2^24, the
    most a float32 sum of popcounts holds exactly, as uint32; one byte more
    raises."""
    nbytes = 1 << 21
    code = np.zeros(nbytes, dtype=np.uint8)
    got = embed.hamming_to_many(code, np.full((2, nbytes), 255, dtype=np.uint8))
    assert got.dtype == np.uint32
    assert got.tolist() == [1 << 24, 1 << 24]
    with pytest.raises(ValueError, match="2\\^24"):
        embed.hamming_to_many(np.zeros(nbytes + 1, dtype=np.uint8),
                              np.full((1, nbytes + 1), 255, dtype=np.uint8))


def test_locality_of_codes():
    """Codes of nearby vectors differ in far fewer bits than codes of
    independent vectors (statistical, fixed seed)."""
    rng = np.random.default_rng(5)
    dim, length, trials = 64, 32, 1000
    cfg = EmbedConfig(length)
    near = 0
    far = 0
    for _ in range(trials):
        c = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        x_near = x + 0.05 * rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        near += embed.hamming(embed.encode(x, c, cfg), embed.encode(x_near, c, cfg))
        far += embed.hamming(embed.encode(x, c, cfg), embed.encode(y, c, cfg))
    # with a shared reference, two independent vectors disagree on a bit with
    # probability 1/3 (reference mean between the two segment means)
    assert near / trials <= 0.35 * length
    assert far / trials > 0.3 * length
    assert near < far
