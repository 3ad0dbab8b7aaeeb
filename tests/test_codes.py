"""Shift/correlation primitives, code generators, and the text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasecode.codes import (
    ParseError,
    as_code,
    autocorrelation,
    format_code,
    head_masks,
    lag_responses,
    lag_values,
    legendre_code,
    pack_codes,
    parse_code,
    random_codes,
    shifted,
    symbol_bits,
    unique_rows,
    unpack_codes,
)
from reference import cross_correlation, packed_key, random_code


def bipolar(*vals):
    return as_code(vals)


class TestShifted:
    def test_zero_lag_is_identity(self):
        s = bipolar(1, -1, 1)
        assert shifted(s, 0).tolist() == [1, -1, 1]

    def test_positive_lag_pulls_later_symbols(self):
        s = bipolar(1, -1, 1)
        assert shifted(s, 1).tolist() == [-1, 1, 0]

    def test_negative_lag_pushes_right(self):
        s = bipolar(1, -1, 1)
        assert shifted(s, -2).tolist() == [0, 0, 1]

    def test_lag_out_of_range(self):
        s = bipolar(1, -1, 1)
        with pytest.raises(ValueError):
            shifted(s, 3)
        with pytest.raises(ValueError):
            shifted(s, -3)

    def test_nonzero_count_is_length_minus_lag(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 59):
            s = random_code(n, rng)
            for lag in range(-(n - 1), n):
                assert np.count_nonzero(shifted(s, lag)) == n - abs(lag)


class TestLagResponses:
    def test_is_each_lags_response_byte_for_byte(self):
        rng = np.random.default_rng(13)
        for n in (2, 7, 59, 100):
            s = random_code(n, rng)
            x = rng.normal(size=n)
            expected = np.array([x @ shifted(s, int(i)) for i in lag_values(n)])
            assert lag_responses(s, x).tobytes() == expected.tobytes()


class TestCrossCorrelation:
    def test_zero_lag_autocorrelation_is_length(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 59):
            s = random_code(n, rng)
            assert cross_correlation(np.asarray(s, float), s, 0) == n

    def test_two_overlapping_terms(self):
        assert cross_correlation([1, 1, 1], bipolar(1, 1, 1), 1) == 2

    def test_positive_lag_reads_later_symbols(self):
        assert cross_correlation([1, 0, 0], bipolar(1, 1, -1), 2) == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cross_correlation([1.0, 2.0], bipolar(1, 1, 1), 0)

    def test_adjoint_identity_exhaustive_small_n(self):
        # <x, shifted(s, i)> == <shifted(x, -i), s> over every bipolar s for N <= 8
        rng = np.random.default_rng(11)
        for n in range(2, 9):
            x = rng.normal(size=n)
            for bits in range(1 << n):
                s = as_code([1 if (bits >> k) & 1 else -1 for k in range(n)])
                for lag in range(-(n - 1), n):
                    lhs = float(x @ shifted(s, lag))
                    xs = np.zeros(n)
                    if lag <= 0:
                        xs[: n + lag] = x[-lag:]
                    else:
                        xs[lag:] = x[: n - lag]
                    rhs = float(xs @ np.asarray(s, float))
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_adjoint_identity_random_bipolar_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 16))
            x = random_code(n, rng)
            s = random_code(n, rng)
            lag = int(rng.integers(-(n - 1), n))
            fwd = cross_correlation(np.asarray(x, float), s, lag)
            back = cross_correlation(np.asarray(s, float), x, -lag)
            assert fwd == pytest.approx(back, abs=1e-12)


class TestAutocorrelation:
    def test_matches_definition(self):
        rng = np.random.default_rng(2)
        s = random_code(13, rng)
        r = autocorrelation(s)
        for d in range(13):
            assert r[d] == pytest.approx(cross_correlation(np.asarray(s, float), s, d))


class TestRandomCode:
    def test_rejects_short_lengths(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_code(1, rng)

    def test_deterministic_for_fixed_seed(self):
        a = random_code(59, np.random.default_rng(42))
        b = random_code(59, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_consecutive_draws_differ(self):
        rng = np.random.default_rng(42)
        assert not np.array_equal(random_code(59, rng), random_code(59, rng))

    def test_symbol_mean_near_zero(self):
        # ~1e6 symbols; the mean has std 1e-3, so |mean| <= 0.005 is a 5-sigma band
        rng = np.random.default_rng(1234)
        total, count = 0.0, 0
        for _ in range(17_000):
            code = random_code(59, rng)
            total += int(code.sum())
            count += 59
        assert count >= 1_000_000
        assert abs(total / count) <= 0.005

    def test_batch_matches_symbol_distribution(self):
        rng = np.random.default_rng(99)
        batch = random_codes(1000, 31, rng)
        assert batch.shape == (1000, 31)
        assert set(np.unique(batch)) == {-1, 1}


class TestLegendreCode:
    def test_length_three(self):
        assert legendre_code(3).tolist() == [1, 1, -1]

    def test_length_seven(self):
        # quadratic residues mod 7 are {1, 2, 4}
        assert legendre_code(7).tolist() == [1, 1, 1, -1, 1, -1, -1]

    def test_rejects_non_prime_and_even(self):
        for bad in (1, 2, 4, 9, 15, 58):
            with pytest.raises(ValueError):
                legendre_code(bad)

    def test_matches_published_59_constant(self):
        from phasecode.baselines import known_code

        assert np.array_equal(legendre_code(59), known_code("legendre").code)


class TestParseFormat:
    def test_parse_basic(self):
        assert parse_code("+1,-1,+1").tolist() == [1, -1, 1]

    def test_format_basic(self):
        assert format_code(bipolar(1, -1)) == "+1,-1"

    def test_bare_one_token_accepted(self):
        assert parse_code("1, 1, -1").tolist() == [1, 1, -1]

    def test_whitespace_separated(self):
        assert parse_code(" +1  -1\t+1 ").tolist() == [1, -1, 1]

    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            s = random_code(int(rng.integers(2, 80)), rng)
            assert np.array_equal(parse_code(format_code(s)), s)

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_code("+1, 2")
        assert err.value.token_index == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_code("   ")

    def test_single_symbol_rejected(self):
        with pytest.raises(ValueError):
            parse_code("+1")


class TestAsCode:
    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            as_code([1, 0, -1])
        with pytest.raises(ValueError):
            as_code([1.5, -1.0])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_code([[1, -1], [1, 1]])


def expected_key(code):
    """``packed_key`` as ``unique_rows`` returns it: a one-word key (N <= 64)
    as the integer of its big-endian bytes, a wider key as the bytes."""
    key = packed_key(code)
    return int.from_bytes(key, "big") if len(key) == 8 else key


def _code_blocks():
    """(B, N) int8 code blocks, B up to 40, drawn from a few distinct rows so repeats are common.

    N runs to 200, so keys span one to four 64-bit words and cross the
    64/65 and 128/129 word boundaries.
    """

    def block(shape):
        b, n, pool = shape
        rows = arrays(np.int8, (pool, n), elements=st.sampled_from([-1, 1]))
        picks = st.lists(st.integers(0, pool - 1), min_size=b, max_size=b)
        return st.tuples(rows, picks).map(lambda rp: rp[0][rp[1]].reshape(b, n))

    return st.tuples(st.integers(0, 40), st.integers(2, 200), st.integers(1, 6)).flatmap(block)


def assert_matches_dict_of_bytes_reference(codes):
    first_seen: dict[bytes, int] = {}
    for idx, row in enumerate(codes):
        first_seen.setdefault(packed_key(row), idx)
    ref_keys = sorted(first_seen)
    rank = {k: r for r, k in enumerate(ref_keys)}
    words = pack_codes(codes)
    keys, first, inverse = unique_rows(words)
    assert keys.tolist() == [expected_key(codes[first_seen[k]]) for k in ref_keys]
    # The keys ascend in bit-string order, the order of ``ref_keys``.
    assert np.array_equal(np.sort(keys), keys)
    assert first.tolist() == [first_seen[k] for k in ref_keys]
    assert inverse.tolist() == [rank[packed_key(row)] for row in codes]
    assert np.array_equal(words[first][inverse], words)


class TestUniqueRows:
    @settings(max_examples=200, deadline=None)
    @given(_code_blocks())
    def test_matches_dict_of_bytes_reference(self, codes):
        assert_matches_dict_of_bytes_reference(codes)

    @pytest.mark.parametrize("n", [16, 63, 64, 100])
    def test_matches_reference_at_scale(self, n):
        # Small inputs are sorted by insertion sort, which is stable in
        # practice; 20,000 rows with 400 copies of each code reach the
        # unstable sort, where each group's first occurrence must be found.
        rng = np.random.default_rng(31)
        pool = np.stack([random_code(n, rng) for _ in range(50)])
        assert_matches_dict_of_bytes_reference(pool[rng.integers(0, 50, 20_000)])

    @pytest.mark.parametrize("n, width", [(16, 8), (63, 8), (64, 8), (65, 16), (100, 16)])
    def test_empty_matrix(self, n, width):
        keys, first, inverse = unique_rows(pack_codes(np.empty((0, n), np.int8)))
        # A one-word key is a native uint64, a wider one a void of its bytes.
        assert keys.dtype == np.dtype(np.uint64 if width == 8 else f"V{width}")
        assert keys.size == first.size == inverse.size == 0


WORD_BOUNDARY_LENGTHS = [2, 16, 63, 64, 65, 100, 128, 256]


class TestPackCodes:
    @pytest.mark.parametrize("n", WORD_BOUNDARY_LENGTHS)
    def test_round_trip_and_reference_bytes(self, n):
        codes = random_codes(50, n, np.random.default_rng(n))
        words = pack_codes(codes)
        assert words.dtype == np.uint64 and words.shape == (50, -(-n // 64))
        back = unpack_codes(words, n)
        assert back.dtype == np.int8 and np.array_equal(back, codes)
        assert [row.astype(">u8").tobytes() for row in words] == [packed_key(c) for c in codes]

    @pytest.mark.parametrize("n", WORD_BOUNDARY_LENGTHS)
    def test_unpack_of_no_rows_is_an_empty_code_matrix(self, n):
        back = unpack_codes(np.empty((0, -(-n // 64)), np.uint64), n)
        assert back.dtype == np.int8 and back.shape == (0, n)

    @pytest.mark.parametrize("n, width", [(16, 2), (64, 2), (65, 1), (128, 3)])
    def test_unpack_rejects_a_width_that_does_not_match_n(self, n, width):
        with pytest.raises(ValueError, match=f"length-{n} codes pack into"):
            unpack_codes(np.zeros((3, width), np.uint64), n)

    @pytest.mark.parametrize("n", [2, 20, 63, 65, 100, 130])
    def test_unpack_rejects_a_pad_bit(self, n):
        # Symbol n is the first pad bit after a length-n code.
        words = pack_codes(random_codes(3, n, np.random.default_rng(n)))
        word, bit = symbol_bits(np.array([n]))
        words[1, word] |= bit
        with pytest.raises(ValueError, match=f"past symbol {n - 1} of a length-{n} code"):
            unpack_codes(words, n)

    @pytest.mark.parametrize("n", [64, 130])
    def test_head_masks_cover_the_first_symbols(self, n):
        W = -(-n // 64)
        splits = np.arange(n + 1)
        bits = np.unpackbits(head_masks(splits, W).astype(">u8").view(np.uint8), axis=1)
        assert np.array_equal(bits, np.arange(64 * W) < splits[:, None])

    @pytest.mark.parametrize("n", [16, 130])
    def test_symbol_bits_flip_one_symbol(self, n):
        code = random_code(n, np.random.default_rng(32))
        for p in range(n):
            words = pack_codes(code[None])
            word, bit = symbol_bits(np.array([p]))
            words[0, word] ^= bit
            flipped = code.copy()
            flipped[p] *= -1
            assert np.array_equal(unpack_codes(words, n)[0], flipped), p
