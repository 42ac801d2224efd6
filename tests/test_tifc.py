import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cnnidx import tifc, vecio
from cnnidx.embed import segment_means

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 32),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestSoftmax:
    def test_all_zeros_is_uniform(self):
        np.testing.assert_allclose(tifc.softmax(np.zeros(4)), 0.25)

    def test_constant_vector_is_uniform(self):
        np.testing.assert_allclose(tifc.softmax(np.full(7, 3.9)), 1 / 7)

    def test_frozen_123_values(self):
        # e^1, e^2, e^3 evaluated directly at double precision
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(tifc.softmax([1.0, 2.0, 3.0]), expected, rtol=1e-14)

    def test_overflow_safety(self):
        out = tifc.softmax([1e4, 0.0, -1e4])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tifc.softmax([1.0, np.inf])

    @pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros(0)], ids=["2-d", "empty"])
    def test_rejects_other_than_a_non_empty_vector(self, x):
        with pytest.raises(ValueError, match="expected a non-empty 1-d vector"):
            tifc.softmax(x)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_vectors)
    def test_normalization(self, x):
        assert tifc.softmax(x).sum() == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_vectors, c=st.floats(-100, 100, allow_nan=False))
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(tifc.softmax(x + c), tifc.softmax(x), atol=1e-12)

    def test_rows_matches_single(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(20, 10))
        rows = tifc.softmax_rows(x)
        for i in range(20):
            np.testing.assert_allclose(rows[i], tifc.softmax(x[i]), rtol=1e-12)


class TestTopWords:
    def test_full_selection_is_sorted(self):
        tf = tifc.softmax([0.3, 1.2, -0.5, 0.3])
        out = tifc.top_words(tf, 4)
        probs = [p for _, p in out]
        assert probs == sorted(probs, reverse=True)
        assert sorted(w for w, _ in out) == [0, 1, 2, 3]

    def test_follows_raw_component_order(self):
        # softmax is strictly monotone, so top words track raw components
        tf = tifc.softmax([5.0, 1.0, 9.0, 3.0])
        assert [w for w, _ in tifc.top_words(tf, 2)] == [2, 0]

    def test_tie_goes_to_smaller_id(self):
        tf = np.full(10, 0.08)
        tf[3] = tf[7] = 0.18
        assert tifc.top_words(tf, 1)[0][0] == 3

    def test_count_out_of_range(self):
        tf = tifc.softmax([1.0, 2.0])
        with pytest.raises(ValueError):
            tifc.top_words(tf, 0)
        with pytest.raises(ValueError):
            tifc.top_words(tf, 3)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 24))
    def test_matches_argsort_of_raw_components(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(dim)
        s = rng.integers(1, dim + 1)
        got = [w for w, _ in tifc.top_words(tifc.softmax(x), int(s))]
        assert got == list(np.argsort(-x, kind="stable")[:s])


def argsort_top_words(tf, count):
    """Oracle: the first `count` ids of a full stable argsort of -tf."""
    return np.argsort(-tf, axis=1, kind="stable")[:, :count]


@st.composite
def tie_heavy_rows(draw):
    """(N, D) rows of a few integer values, so ties fall at the count-th bin
    often, and one count in {1, D - 1, D} or anywhere in [1, D]."""
    d = draw(st.integers(1, 64))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1000]))
    tf = draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), d),
                         elements=st.integers(0, levels - 1).map(float)))
    if draw(st.booleans()):  # one row all equal
        tf[0] = tf[0, 0]
    count = draw(st.sampled_from([1, max(1, d - 1), d, draw(st.integers(1, d))]))
    if count < d and draw(st.booleans()):
        # a tie exactly at the count-th bin: copy its value to a later bin
        order = argsort_top_words(tf[:1], d)[0]
        tf[0, order[count]] = tf[0, order[count - 1]]
    return tf, count


class TestTopWordsRows:
    @settings(max_examples=400, deadline=None)
    @given(case=tie_heavy_rows())
    def test_matches_stable_argsort(self, case):
        tf, count = case
        got = tifc.top_words_rows(tf, count)
        np.testing.assert_array_equal(got, argsort_top_words(tf, count))
        for i in range(len(tf)):  # a row alone gives what it gives in the batch
            np.testing.assert_array_equal(tifc.top_words_rows(tf[i:i + 1], count)[0], got[i])
        assert tifc.top_words(tf[0], count) == [
            (int(w), float(tf[0, w])) for w in argsort_top_words(tf[:1], count)[0]]

    @pytest.mark.parametrize("count", [1, 40, 2047, 2048])
    def test_wide_softmax_rows(self, count):
        """At D = 2,048 on softmax rows, with and without ties at the cut."""
        rng = np.random.default_rng(count)
        tf = tifc.softmax_rows(rng.standard_normal((50, 2048)))
        tf[::3] = np.round(tf[::3], 5)
        np.testing.assert_array_equal(tifc.top_words_rows(tf, count),
                                      argsort_top_words(tf, count))


class TestVirtualWordBank:
    def test_determinism(self):
        a = tifc.make_virtual_words(8, code_length=4)
        b = tifc.make_virtual_words(8, code_length=4)
        np.testing.assert_array_equal(a.means, b.means)

    def test_degenerate_dim_one(self):
        bank = tifc.make_virtual_words(1, code_length=1)
        assert bank.means.shape == (1, 1)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            tifc.make_virtual_words(0, code_length=1)

    def test_words_rank_activations_where_exp_underflows(self):
        """exp(-800) and exp(-900) are both 0 in float64, so the softmax bins
        of words 1 and 2 tie and would rank by word id; the activations
        themselves put word 2 (-800) before word 1 (-900)."""
        bank = tifc.make_virtual_words(6, code_length=3)
        row = np.array([[0.0, -900.0, -800.0, -1000.0, -950.0, -1200.0]])
        np.testing.assert_array_equal(bank.words(row, 3), [[0, 2, 1]])

    def test_code_length_must_divide_dim(self):
        with pytest.raises(ValueError, match="does not divide"):
            tifc.make_virtual_words(12, code_length=5)

    @pytest.mark.parametrize("dim", [12, 384, 2048])
    def test_table_is_scaled_direct_draw(self, dim):
        """Bit-identical to an independently drawn (D, L) standard-normal
        table of seed 0 scaled by sqrt(L / D), for each L in {1, 3, 256, D}
        that divides D: (2,048, 256) is the benchmark's shape."""
        for length in (1, 3, 256, dim):
            if dim % length:
                continue
            tifc.make_virtual_words.cache_clear()
            table = tifc.make_virtual_words(dim, length).means
            expected = (np.random.default_rng(0).standard_normal((dim, length))
                        * math.sqrt(length / dim))
            np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize("dim, length", [(12, 3), (384, 1), (96, 96), (2048, 256)])
    @pytest.mark.parametrize("rows", [1, 3, None], ids=["one-row", "few-rows", "default"])
    def test_blocked_fill_is_one_draw(self, dim, length, rows, monkeypatch):
        """The chunk budget does not block the draw: at a `CHUNK_BYTES` of
        one row of the table, three rows or the default, a fresh draw equals
        one draw of the whole table."""
        if rows is not None:
            monkeypatch.setattr(vecio, "CHUNK_BYTES", rows * 8 * length)
        expected = (np.random.default_rng(0).standard_normal((dim, length))
                    * math.sqrt(length / dim))
        tifc.make_virtual_words.cache_clear()
        np.testing.assert_array_equal(tifc.make_virtual_words(dim, length).means, expected)

    def test_memoised_table_is_drawn_once_and_read_only(self, monkeypatch):
        """Calls for one (D, L) share one bank, drawn once, whose table
        cannot be written; another (D, L) draws its own."""
        tifc.make_virtual_words.cache_clear()
        draws, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: draws.append(seed) or default_rng(seed))
        bank = tifc.make_virtual_words(16, 8)
        assert tifc.make_virtual_words(16, 8) is bank and draws == [0]
        assert not bank.means.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bank.means[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            bank.means = np.zeros((16, 8))
        assert tifc.make_virtual_words(16, 4).means.shape == (16, 4) and draws == [0, 0]

    def test_table_has_the_law_of_bank_segment_means(self):
        """At D = 2,048 and L = 256 the table's entries have mean 0 and
        variance L / D, as do the segment means of a D x D bank of N(0, 1)
        words. Over 524,288 entries one standard error is 0.2% of the
        variance and 0.0005 of the mean; the bounds are 1.5% and 0.002."""
        dim, length = 2048, 256
        table = tifc.make_virtual_words(dim, code_length=length).means
        bank = np.random.default_rng(3).standard_normal((dim, dim))
        for means in (table, segment_means(bank, length)):
            assert abs(means.mean()) < 0.002
            assert means.var() == pytest.approx(length / dim, rel=0.015)
