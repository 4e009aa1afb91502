"""The batched locator kernels, tested against their scalar twins.

`test_bch_batch.py` pins the end-to-end ``decode_many`` contract; this
module aims lower, at the kernels the dirty path is made of —
``_berlekamp_massey_batch`` against ``_berlekamp_massey`` and
``_chien_batch`` against ``_chien_search`` — plus the bookkeeping that
stitches them back into per-word results (``error_positions``,
``batch_index``) for mixed clean/dirty/failing batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import EccError
from repro.ecc.bch import get_code

#: (m, t) pairs small enough that hypothesis can sweep them repeatedly.
SMALL_PARAMS = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (7, 5)]

#: (m, t, word_len) of shipped codes: the fleet's hidden pages, the
#: public page pipeline's words, and the page pipeline's m = 14 default.
SHIPPED = [(10, 30, 640), (13, 8, 4512), (14, 40, 9000)]


def _corrupted_batch(code, rng, n_words, weights=None):
    """Corrupted (possibly shortened) codewords plus their clean twins."""
    words, cleans = [], []
    for i in range(n_words):
        k_use = int(rng.integers(1, code.k + 1))
        clean = code.encode(rng.integers(0, 2, k_use).astype(np.uint8))
        weight = (
            int(rng.integers(0, code.t + 2))
            if weights is None
            else weights[i % len(weights)]
        )
        bad = clean.copy()
        positions = rng.choice(
            clean.size, size=min(weight, clean.size), replace=False
        )
        bad[positions] ^= 1
        words.append(bad)
        cleans.append(clean)
    return words, cleans


class TestBerlekampMasseyBatch:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_real_syndromes(self, data):
        """Lockstep BM row-for-row equals the scalar loop on syndromes of
        genuinely corrupted words, error weights 0..t+1."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(code, rng, 8)
        rows = []
        scalars = []
        for word in words:
            syndromes = code._syndromes(word, code.n - word.size)
            rows.append(syndromes)
            scalars.append(code._berlekamp_massey(syndromes))
        batch = code._berlekamp_massey_batch(
            np.array(rows, dtype=np.int64)
        )
        for row, scalar in zip(batch, scalars):
            padded = scalar + [0] * (row.size - len(scalar))
            assert row.tolist() == padded

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_arbitrary_syndromes(self, data):
        """BM is defined for any syndrome sequence; the lockstep kernel
        must agree even on sequences no codeword could have produced."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_rows = data.draw(st.integers(min_value=1, max_value=8))
        syndromes = rng.integers(
            0, code.field.size, (n_rows, 2 * code.t)
        ).astype(np.int64)
        batch = code._berlekamp_massey_batch(syndromes)
        for row, syndrome_row in zip(batch, syndromes):
            scalar = code._berlekamp_massey(
                [int(s) for s in syndrome_row]
            )
            padded = scalar + [0] * (row.size - len(scalar))
            assert row.tolist() == padded

    @pytest.mark.parametrize(
        "m,t,word_len", SHIPPED, ids=[f"m{m}t{t}" for m, t, _ in SHIPPED]
    )
    def test_matches_scalar_at_shipped_sizes(self, m, t, word_len):
        """Row-for-row agreement at the shipped field sizes, where the
        hypothesis sweeps do not reach: syndromes of error patterns of
        weight 0..t+1 (a corrupted codeword's syndromes are its error
        pattern's), random words, all-zero rows, and arbitrary
        syndromes with zeros — in one mixed batch and one row at a
        time."""
        code = get_code(m, t)
        rng = np.random.default_rng(m * 100 + t)
        shortening = code.n - word_len
        patterns = []
        for weight in range(t + 2):
            pattern = np.zeros(word_len, dtype=np.uint8)
            pattern[rng.choice(word_len, size=weight, replace=False)] = 1
            patterns.append(pattern)
        patterns += [
            rng.integers(0, 2, word_len).astype(np.uint8) for _ in range(6)
        ]
        rows = [code._syndromes(p, shortening) for p in patterns]
        rows += [[0] * (2 * t)] * 3
        arbitrary = rng.integers(0, code.field.size, (6, 2 * t))
        arbitrary[rng.random(arbitrary.shape) < 0.3] = 0
        rows += arbitrary.tolist()
        syndromes = np.array(rows, dtype=np.int64)
        order = rng.permutation(len(rows))
        batch = code._berlekamp_massey_batch(syndromes[order])
        for position, index in enumerate(order):
            scalar = code._berlekamp_massey(rows[index])
            padded = scalar + [0] * (2 * t + 1 - len(scalar))
            assert batch[position].tolist() == padded
            single = code._berlekamp_massey_batch(syndromes[index:index + 1])
            assert single[0].tolist() == padded


class TestChienBatch:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_search(self, data):
        """The table-driven search returns exactly the scalar root set
        for every locator row, across shortened lengths."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        word_len = int(
            rng.integers(code.n_parity + 1, code.n + 1)
        )
        shortening = code.n - word_len
        locators = []
        for _ in range(6):
            weight = int(rng.integers(0, code.t + 1))
            clean = code.encode(
                rng.integers(0, 2, word_len - code.n_parity).astype(
                    np.uint8
                )
            )
            bad = clean.copy()
            positions = rng.choice(word_len, size=weight, replace=False)
            bad[positions] ^= 1
            locators.append(
                code._berlekamp_massey(
                    code._syndromes(bad, shortening)
                )
            )
        width = 2 * code.t + 1
        sigma = np.zeros((len(locators), width), dtype=np.int64)
        for row, locator in enumerate(locators):
            sigma[row, : len(locator)] = locator
        root_rows, root_cols = code._chien_batch(
            sigma, shortening, word_len
        )
        for row, locator in enumerate(locators):
            expected = code._chien_search(locator, shortening, word_len)
            got = root_cols[root_rows == row]
            assert np.array_equal(got, expected)

    def test_no_roots_case(self):
        """A locator with no roots in the window yields empty indices."""
        code = get_code(4, 2)
        # sigma(x) = 1: never zero anywhere.
        sigma = np.zeros((1, 2 * code.t + 1), dtype=np.int64)
        sigma[0, 0] = 1
        root_rows, root_cols = code._chien_batch(sigma, 0, code.n)
        assert root_rows.size == 0
        assert root_cols.size == 0


class TestMixedBatchBookkeeping:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_interleaved_clean_dirty_failing(self, data):
        """Clean, correctable and failing words interleaved: every slot
        matches its scalar outcome — data, codeword, error positions,
        and which indices fail with which message."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(
            code, rng, 9, weights=[0, t, t + 1]
        )
        batch = code.decode_many(words, on_error="return")
        failing = []
        for index, word in enumerate(words):
            try:
                scalar = code.decode(word)
            except EccError as error:
                scalar = error
            result = batch[index]
            if isinstance(scalar, EccError):
                failing.append(index)
                assert isinstance(result, EccError)
                assert str(result) == str(scalar)
                assert result.batch_index == index
            else:
                assert not isinstance(result, EccError)
                assert np.array_equal(result.data, scalar.data)
                assert result.corrected_errors == scalar.corrected_errors
                assert np.array_equal(result.codeword, scalar.codeword)
                assert np.array_equal(
                    np.asarray(result.error_positions),
                    np.asarray(scalar.error_positions),
                )
        if failing:
            with pytest.raises(EccError) as excinfo:
                code.decode_many(words)
            assert excinfo.value.batch_index == failing[0]

    def test_error_positions_ascending_and_match_flips(self):
        """Reported positions are ascending and are exactly the flipped
        bits of the corrected word."""
        code = get_code(6, 2)
        rng = np.random.default_rng(3)
        clean = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
        positions = np.sort(rng.choice(clean.size, 2, replace=False))
        bad = clean.copy()
        bad[positions] ^= 1
        (result,) = code.decode_many([bad])
        assert np.array_equal(np.asarray(result.error_positions), positions)
        assert np.array_equal(bad ^ result.codeword != 0, np.isin(
            np.arange(clean.size), positions
        ))
