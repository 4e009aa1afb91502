"""Batch BCH APIs: bit-identical to the scalar loops, plus the cache.

The contract under test is the tentpole guarantee: ``encode_many`` /
``decode_many`` are pure vectorisations — for every word they produce
exactly what a scalar ``encode`` / ``decode`` loop would, including which
words raise, across random field sizes, error counts beyond capacity, and
shortened lengths.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.ecc import BchCode, EccError
from repro.ecc.bch import get_code

CODE = BchCode(7, 5)  # n=127

#: (m, t) pairs small enough that hypothesis can sweep them repeatedly.
SMALL_PARAMS = [(4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (7, 5)]

#: (m, t, word_len) of the shipped codes: the fleet's hidden slots and
#: the page pipeline's words.
SHIPPED = [(10, 30, 639), (13, 8, 4512)]


def _random_words(code, rng, n_words, shortened=True):
    """Random (possibly shortened) data words for one code."""
    words = []
    for _ in range(n_words):
        k_use = int(rng.integers(1, code.k + 1)) if shortened else code.k
        words.append(rng.integers(0, 2, k_use).astype(np.uint8))
    return words


def _detected_overweight_word(code, clean, weight, max_tries=200):
    """A weight-``weight`` corruption the scalar decoder provably rejects.

    Beyond-capacity patterns (weight > t) can also miscorrect silently —
    the word lands inside another codeword's Hamming ball and decodes
    "successfully" to wrong data — so tests of failure *reporting* search
    deterministically over seeds for a pattern that is detected instead
    of skipping when the first draw miscorrects.
    """
    for seed in range(max_tries):
        rng = np.random.default_rng(seed)
        positions = rng.choice(clean.size, size=weight, replace=False)
        broken = clean.copy()
        broken[positions] ^= 1
        try:
            code.decode(broken)
        except EccError:
            return broken
    raise AssertionError(
        f"no detected weight-{weight} pattern within {max_tries} seeds"
    )


class TestEncodeMany:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_encode(self, data):
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_words = data.draw(st.integers(min_value=1, max_value=12))
        words = _random_words(code, rng, n_words)
        batch = code.encode_many(words)
        for word, coded in zip(words, batch):
            assert np.array_equal(coded, code.encode(word))

    def test_empty_batch(self):
        assert CODE.encode_many([]) == []

    def test_trailing_all_zero_word_does_not_truncate_predecessor(self):
        # Regression: an all-zero word at the end of a size group used to
        # clamp its reduceat boundary into the previous word's segment.
        code = get_code(4, 1)
        words = [
            np.array([1, 1], dtype=np.uint8),
            np.array([0, 0], dtype=np.uint8),
        ]
        batch = code.encode_many(words)
        for word, coded in zip(words, batch):
            assert np.array_equal(coded, code.encode(word))

    def test_mixed_shortened_lengths(self):
        words = [
            np.ones(k, dtype=np.uint8) for k in (1, 3, CODE.k, 3, 1)
        ]
        batch = CODE.encode_many(words)
        for word, coded in zip(words, batch):
            assert np.array_equal(coded, CODE.encode(word))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            CODE.encode_many([np.array([0, 1, 2], dtype=np.uint8)])

    def test_rejects_oversized_word(self):
        with pytest.raises(ValueError):
            CODE.encode_many([np.zeros(CODE.k + 1, dtype=np.uint8)])


class TestDecodeMany:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_decode(self, data):
        """Error counts 0..t+1 per word; batch and scalar agree bitwise —
        on data, corrected counts, and on *which* words fail."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_words = data.draw(st.integers(min_value=1, max_value=10))
        corrupted = []
        for word in _random_words(code, rng, n_words):
            codeword = code.encode(word)
            n_errors = int(rng.integers(0, code.t + 2))
            positions = rng.choice(
                codeword.size,
                size=min(n_errors, codeword.size),
                replace=False,
            )
            bad = codeword.copy()
            bad[positions] ^= 1
            corrupted.append(bad)

        batch = code.decode_many(corrupted, on_error="return")
        for index, received in enumerate(corrupted):
            try:
                scalar = code.decode(received)
            except EccError:
                scalar = None
            result = batch[index]
            if scalar is None:
                assert isinstance(result, EccError)
                assert result.batch_index == index
            else:
                assert not isinstance(result, EccError)
                assert np.array_equal(result.data, scalar.data)
                assert result.corrected_errors == scalar.corrected_errors
                assert np.array_equal(result.codeword, scalar.codeword)

    def test_empty_batch(self):
        assert CODE.decode_many([]) == []

    def test_error_free_fast_path_returns_codeword(self):
        words = [np.ones(CODE.k, dtype=np.uint8) for _ in range(4)]
        batch = CODE.decode_many(CODE.encode_many(words))
        for word, result in zip(words, batch):
            assert result.corrected_errors == 0
            assert np.array_equal(result.data, word)
            assert np.array_equal(result.codeword, CODE.encode(word))

    def test_raise_mode_reports_first_failing_index(self):
        clean = CODE.encode(np.ones(CODE.k, dtype=np.uint8))
        broken = _detected_overweight_word(CODE, clean, CODE.t + 1)
        with pytest.raises(EccError) as excinfo:
            CODE.decode_many([clean, broken, broken])
        assert excinfo.value.batch_index == 1

    def test_return_mode_keeps_good_words(self):
        clean = CODE.encode(np.zeros(CODE.k, dtype=np.uint8))
        broken = _detected_overweight_word(CODE, clean, CODE.t + 1)
        batch = CODE.decode_many([clean, broken, clean], on_error="return")
        assert not isinstance(batch[0], EccError)
        assert isinstance(batch[1], EccError)
        assert batch[1].batch_index == 1
        assert not isinstance(batch[2], EccError)

    def test_unknown_mode_refused_before_any_word(self):
        """A misspelt mode is refused even for a batch whose words would
        fail their own checks."""
        with pytest.raises(
            ValueError,
            match="on_error must be 'raise' or 'return', got 'retrun'",
        ):
            CODE.decode_many([np.zeros(3, dtype=np.uint8)], on_error="retrun")

    @pytest.mark.parametrize("m,t", SMALL_PARAMS)
    def test_weight_up_to_t_always_corrected(self, m, t):
        """Every pattern of weight <= t is corrected exactly — data
        restored, corrected count equal to the injected weight, and the
        flipped positions reported — in batch and scalar alike."""
        code = get_code(m, t)
        rng = np.random.default_rng(m * 100 + t)
        data = rng.integers(0, 2, code.k).astype(np.uint8)
        clean = code.encode(data)
        corrupted, injected = [], []
        for weight in range(code.t + 1):
            positions = np.sort(
                rng.choice(clean.size, size=weight, replace=False)
            )
            bad = clean.copy()
            bad[positions] ^= 1
            corrupted.append(bad)
            injected.append(positions)
        for result, positions in zip(code.decode_many(corrupted), injected):
            assert result.corrected_errors == positions.size
            assert np.array_equal(result.data, data)
            assert np.array_equal(result.codeword, clean)
            assert np.array_equal(
                np.asarray(result.error_positions), positions
            )

    @pytest.mark.parametrize("m,t", SMALL_PARAMS)
    def test_weight_t_plus_one_failure_is_reported(self, m, t):
        """A detected beyond-capacity word surfaces as an EccError slot
        (return mode) with the scalar decoder's message, never silently.

        Shortened words: the full-length t=1 code is a *perfect* Hamming
        code, where every weight-2 pattern miscorrects silently; with
        shortening, locator roots can fall outside the transmitted
        window, so detectable patterns exist for every (m, t).
        """
        code = get_code(m, t)
        clean = code.encode(np.ones(max(1, code.k // 2), dtype=np.uint8))
        broken = _detected_overweight_word(code, clean, code.t + 1)
        with pytest.raises(EccError) as scalar_error:
            code.decode(broken)
        batch = code.decode_many([broken, clean], on_error="return")
        assert isinstance(batch[0], EccError)
        assert str(batch[0]) == str(scalar_error.value)
        assert batch[0].batch_index == 0
        assert not isinstance(batch[1], EccError)

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValueError):
            CODE.decode_many([], on_error="ignore")

    def test_rejects_wrong_sizes(self):
        with pytest.raises(ValueError):
            CODE.decode_many([np.zeros(CODE.n_parity, dtype=np.uint8)])


class TestCodecRegistry:
    def test_same_instance_per_params(self):
        assert get_code(7, 5) is get_code(7, 5)

    def test_distinct_params_distinct_codes(self):
        assert get_code(7, 5) is not get_code(7, 4)

    def test_registry_code_matches_fresh_code(self):
        data = np.ones(10, dtype=np.uint8)
        assert np.array_equal(
            get_code(6, 2).encode(data), BchCode(6, 2).encode(data)
        )


def _mixed_words(code, word_len, rng, n_words):
    """Clean words, words with 1..t errors, weight-(t+1) words and
    random words (a mount scan's misses), in random order."""
    datas = rng.integers(0, 2, (n_words, word_len - code.n_parity))
    words = code.encode_many(list(datas.astype(np.uint8)))
    for word in words:
        kind = rng.choice(["clean", "dirty", "dirty", "over", "random"])
        if kind == "random":
            word[:] = rng.integers(0, 2, word_len)
        elif kind != "clean":
            weight = code.t + 1 if kind == "over" else rng.integers(1, code.t + 1)
            word[rng.choice(word_len, size=weight, replace=False)] ^= 1
    return words


def _decode_counted(code, words):
    """``decode_many(words, on_error="return")`` plus the call's
    ``bch.decode.*`` counter deltas."""
    with obs.collect(absorb=False) as scope:
        results = code.decode_many(words, on_error="return")
    counters = {
        name: value
        for name, value in scope.snapshot.counters.items()
        if name.startswith("bch.decode.")
    }
    return results, counters


def _raised(code, words):
    """``(batch_index, message)`` of the error ``decode_many`` raises,
    or None."""
    try:
        code.decode_many(words)
    except EccError as error:
        return error.batch_index, str(error)
    return None


def _assert_split_invariant(code, words, chunks):
    """``decode_many`` over the `chunks` (``(start, stop)`` pairs that
    tile `words`) equals one call over the whole: every result, every
    ``EccError`` message and ``batch_index`` in both ``on_error`` modes,
    and the ``bch.decode.*`` counters."""
    was_enabled = obs.is_enabled()
    obs.set_enabled(True)
    try:
        whole, whole_counters = _decode_counted(code, words)
        parts, part_counters = [], {}
        for start, stop in chunks:
            results, counters = _decode_counted(code, words[start:stop])
            parts += [(start, result) for result in results]
            for name, value in counters.items():
                part_counters[name] = part_counters.get(name, 0) + value
    finally:
        obs.set_enabled(was_enabled)
    assert part_counters == whole_counters
    for index, (got, (start, part)) in enumerate(zip(whole, parts)):
        if isinstance(got, EccError):
            assert isinstance(part, EccError)
            assert str(part) == str(got)
            assert got.batch_index == index == start + part.batch_index
            continue
        assert not isinstance(part, EccError)
        assert np.array_equal(part.data, got.data)
        assert part.corrected_errors == got.corrected_errors
        assert np.array_equal(part.codeword, got.codeword)
        assert part.error_positions.dtype == got.error_positions.dtype
        assert np.array_equal(part.error_positions, got.error_positions)
    first_part_error = None
    for start, stop in chunks:
        raised = _raised(code, words[start:stop])
        if raised is not None:
            first_part_error = (start + raised[0], raised[1])
            break
    assert first_part_error == _raised(code, words)


#: The fleet's slot code and word length.
FLEET = (10, 30, 639)


class TestSplitInvariance:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_split_decodes_like_the_whole(self, data):
        """Any split of a mixed batch, into chunks of any size, decodes
        like the whole."""
        m, t, word_len = data.draw(st.sampled_from(SHIPPED))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words = _mixed_words(
            code, word_len, rng, data.draw(st.integers(1, 40))
        )
        starts = [0]
        while starts[-1] < len(words):
            starts.append(
                starts[-1] + data.draw(st.integers(1, len(words)))
            )
        _assert_split_invariant(
            code, words, list(zip(starts[:-1], starts[1:]))
        )

    def test_split_across_the_chunk_bound(self):
        """300 fleet words, 260 of them random (mount-scan misses, all
        dirty) and 40 clean or corrupted codewords, so the chunks hold
        corrections too.  They cross ``decode_many``'s chunk bound (4M
        cells over 2t * n_parity = 17,700 per row: 225 rows), so the
        whole call runs a full and a partial chunk; pieces of 1, 149 and
        150 words decode like it."""
        m, t, word_len = FLEET
        code = get_code(m, t)
        rng = np.random.default_rng(300)
        words = [
            rng.integers(0, 2, word_len).astype(np.uint8)
            for _ in range(300)
        ]
        for index in rng.choice(300, size=40, replace=False):
            words[index] = _mixed_words(code, word_len, rng, 1)[0]
        _assert_split_invariant(code, words, [(0, 1), (1, 150), (150, 300)])


class TestDirtyChunkMemory:
    def test_dense_dirty_batch_peak_is_bounded(self):
        """One ``decode_many`` over 2,000 dirty fleet words stays within
        32 MiB of traced heap: the syndrome gather's ``(2t, set bits)``
        int64 array is bounded per chunk, not per call (unchunked it
        alone is ~140 MiB here).  Each word is a codeword with one
        flipped data bit, so its re-encode difference carries about
        n_parity / 2 set bits, as a random word's does, while its
        degree-1 locator keeps the traced Python work small."""
        m, t, word_len = FLEET
        code = get_code(m, t)
        rng = np.random.default_rng(2000)
        data = rng.integers(0, 2, (2000, word_len - code.n_parity))
        words = np.array(code.encode_many(data.astype(np.uint8)))
        words[np.arange(2000), rng.integers(0, data.shape[1], 2000)] ^= 1
        code.decode_many(words[:1])  # build the tables
        tracemalloc.start()
        try:
            results = code.decode_many(words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [result.corrected_errors for result in results] == [1] * 2000
        assert peak <= 32 * 2**20


class TestBatchChunkMemory:
    """A size group runs in chunks end to end — stack, re-encode, diff
    and dirty decode — so a batch's temporaries stay bounded however
    many words it holds; only the results grow with it."""

    WORDS = 5000

    def _transient_peak(self, fn, *args):
        """Traced peak heap of one call beyond what its result keeps."""
        tracemalloc.start()
        try:
            result = fn(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - kept

    def test_encode_many_temporaries_are_bounded(self):
        m, t, word_len = FLEET
        code = get_code(m, t)
        rng = np.random.default_rng(5000)
        data = rng.integers(
            0, 2, (self.WORDS, word_len - code.n_parity)
        ).astype(np.uint8)
        code.encode_many(data[:1])  # build the parity matrix
        codewords, transient = self._transient_peak(code.encode_many, data)
        assert np.array_equal(codewords[-1], code.encode(data[-1]))
        # Unchunked, the float32 GEMM operands and the int64 parity
        # reduction alone are ~17 MiB at 5,000 words.
        assert transient <= 8 * 2**20

    def test_decode_many_temporaries_are_bounded(self):
        m, t, word_len = FLEET
        code = get_code(m, t)
        rng = np.random.default_rng(5001)
        data = rng.integers(
            0, 2, (self.WORDS, word_len - code.n_parity)
        ).astype(np.uint8)
        words = [word.copy() for word in code.encode_many(data)]
        for word in words[::50]:
            word[rng.integers(word.size)] ^= 1
        code.decode_many(words[:60])  # build the tables
        results, transient = self._transient_peak(code.decode_many, words)
        assert sum(r.corrected_errors for r in results) == len(words[::50])
        # Unchunked, the stacked, re-encoded and difference arrays plus
        # the re-encode's GEMM temporaries are ~17 MiB at 5,000 words.
        assert transient <= 8 * 2**20
