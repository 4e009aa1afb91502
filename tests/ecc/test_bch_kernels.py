"""The dirty path's locator kernels, tested against their scalar twins.

`test_bch_batch.py` pins the end-to-end ``decode_many`` contract; this
module aims lower, at the kernels the dirty path is made of — the
per-word ``_berlekamp_massey_row`` against ``_berlekamp_massey`` and
``_chien_row`` against ``_chien_search`` — plus the bookkeeping that
stitches them back into per-word results (``error_positions``,
``batch_index``, the ``bch.decode.*`` counters) for mixed
clean/dirty/failing batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
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


def _assert_chien_matches_scalar(code, locators, shortening, word_len):
    """The per-word search over each of `locators` returns exactly the
    scalar root set."""
    for locator in locators:
        expected = code._chien_search(locator, shortening, word_len)
        assert np.array_equal(code._chien_row(locator, shortening), expected)


class TestBerlekampMasseyBatch:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_real_syndromes(self, data):
        """The per-word BM equals the scalar loop on syndromes of
        genuinely corrupted words, error weights 0..t+1, and of random
        words."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(code, rng, 8)
        words += [
            rng.integers(0, 2, code.n).astype(np.uint8) for _ in range(2)
        ]
        for word in words:
            syndromes = code._syndromes(word, code.n - word.size)
            assert code._berlekamp_massey_row(syndromes) == (
                code._berlekamp_massey(syndromes)
            )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_on_arbitrary_syndromes(self, data):
        """BM is defined for any syndrome sequence; the per-word kernel
        must agree even on sequences no codeword could have produced
        (there it takes all 2t steps)."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        n_rows = data.draw(st.integers(min_value=1, max_value=8))
        syndromes = rng.integers(
            0, code.field.size, (n_rows, 2 * code.t)
        ).astype(np.int64)
        for syndrome_row in syndromes.tolist():
            assert code._berlekamp_massey_row(syndrome_row) == (
                code._berlekamp_massey(syndrome_row)
            )

    @pytest.mark.parametrize(
        "m,t,word_len", SHIPPED, ids=[f"m{m}t{t}" for m, t, _ in SHIPPED]
    )
    def test_matches_scalar_at_shipped_sizes(self, m, t, word_len):
        """Agreement at the shipped field sizes, where the hypothesis
        sweeps do not reach: syndromes of error patterns of weight
        0..t+1 (a corrupted codeword's syndromes are its error
        pattern's), random words, a pattern with S_1 = 0, all-zero
        rows, and arbitrary syndromes with zeros."""
        code = get_code(m, t)
        field = code.field
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
        # Three error locators that sum to zero, so S_1 = 0: the binary
        # shortcut's first step has a zero discrepancy, and a later step
        # does not.  Position i is degree word_len - 1 - i.
        top = word_len - 1
        for second in range(1, word_len):
            third = top - field.log[field.exp[top] ^ field.exp[top - second]]
            if second < third < word_len:
                break
        pattern = np.zeros(word_len, dtype=np.uint8)
        pattern[[0, second, third]] = 1
        patterns.append(pattern)
        rows = [code._syndromes(p, shortening) for p in patterns]
        rows += [[0] * (2 * t)] * 3
        arbitrary = rng.integers(0, code.field.size, (6, 2 * t))
        arbitrary[rng.random(arbitrary.shape) < 0.3] = 0
        rows += arbitrary.tolist()
        for row in rows:
            assert code._berlekamp_massey_row(row) == (
                code._berlekamp_massey(row)
            )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_binary_row_takes_all_steps(self, data):
        """The binary shortcut's guard: a syndrome row with
        ``S_2j = S_j^2`` at every j but one random j, where the identity
        breaks, still equals the scalar loop — as do the binary rows of
        genuinely corrupted words."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS + [(10, 30)]))
        code = get_code(m, t)
        field = code.field
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(code, rng, 3)
        rows = [code._syndromes(w, code.n - w.size) for w in words]
        broken = []  # S_1..S_2t with S_2j = S_j^2, then one S_2j off
        for j in range(1, 2 * t + 1):
            broken.append(
                field.mul(broken[j // 2 - 1], broken[j // 2 - 1])
                if j % 2 == 0
                else int(rng.integers(1, field.size))
            )
        j = int(rng.integers(1, t + 1))
        broken[2 * j - 1] ^= int(rng.integers(1, field.size))
        rows.append(broken)
        for syndromes in rows:
            assert code._berlekamp_massey_row(syndromes) == (
                code._berlekamp_massey(syndromes)
            )


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
        _assert_chien_matches_scalar(code, locators, shortening, word_len)

    @pytest.mark.parametrize(
        "m,t,word_len", SHIPPED, ids=[f"m{m}t{t}" for m, t, _ in SHIPPED]
    )
    def test_matches_scalar_at_shipped_codes(self, m, t, word_len):
        """At every shipped code: the locators of error patterns of
        weight 0..t, and locators of degree t with zero inner
        coefficients, each rooted at a position where a zero
        coefficient's exponent table entry is 2.  That is the one entry
        at which an int16 index ``log_zero + 2`` would wrap to a nonzero
        antilog at m = 14, dropping the root."""
        code = get_code(m, t)
        field = code.field
        rng = np.random.default_rng(m * 100 + t)
        shortening = code.n - word_len
        locators = []
        for weight in range(t + 1):
            pattern = np.zeros(word_len, dtype=np.uint8)
            pattern[rng.choice(word_len, size=weight, replace=False)] = 1
            locators.append(
                code._berlekamp_massey(code._syndromes(pattern, shortening))
            )
        degrees = np.arange(word_len)
        for k in range(1, t):
            # Degrees d in the window (transmitted bit word_len - 1 - d)
            # where coefficient k's exponent, k * -d mod order, is 2.
            (wrapping,) = np.nonzero((k * -degrees) % field.order == 2)
            if wrapping.size == 0:
                continue
            root = field.exp[(-int(wrapping[0])) % field.order]
            top = 0
            while top == 0:
                locator = [1] + rng.integers(1, field.size, t).tolist()
                for zero in [k] + rng.integers(1, t, 3).tolist():
                    locator[zero] = 0
                value = 0
                for power, coeff in enumerate(locator[:t]):
                    value ^= field.mul(coeff, field.pow(root, power))
                top = field.div(value, field.pow(root, t))
            locator[t] = top
            assert field.poly_eval(locator, root) == 0
            locators.append(locator)
            position = word_len - 1 - int(wrapping[0])
            assert position in code._chien_search(
                locator, shortening, word_len
            )
        _assert_chien_matches_scalar(code, locators, shortening, word_len)

    @pytest.mark.parametrize("top", [0, 1, 2, 15, 29])
    def test_batches_below_t(self, top):
        """Locators of degree below t, down to 0 and 1, at the fleet code
        (t = 30): the search over the locator's own coefficients finds
        exactly the scalar roots."""
        code = get_code(10, 30)
        word_len = 639
        shortening = code.n - word_len
        rng = np.random.default_rng(top)
        locators = []
        for weight in [top] + rng.integers(0, top + 1, 5).tolist():
            pattern = np.zeros(word_len, dtype=np.uint8)
            pattern[rng.choice(word_len, size=weight, replace=False)] = 1
            locators.append(
                code._berlekamp_massey(code._syndromes(pattern, shortening))
            )
        assert max(len(locator) for locator in locators) == top + 1
        _assert_chien_matches_scalar(code, locators, shortening, word_len)

    def test_no_roots_case(self):
        """A locator with no roots in the window yields no positions."""
        code = get_code(4, 2)
        # sigma(x) = 1: never zero anywhere.
        roots = code._chien_row([1], 0)
        assert roots.size == 0
        assert roots.size == code._chien_search([1], 0, code.n).size


class TestMixedBatchBookkeeping:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_interleaved_clean_dirty_failing(self, data):
        """Clean, correctable and failing words interleaved: every slot
        matches its scalar outcome — data, codeword, error positions,
        and which indices fail with which message — and the batch's
        nonzero ``bch.decode.*`` counters equal the scalar loop's."""
        m, t = data.draw(st.sampled_from(SMALL_PARAMS))
        code = get_code(m, t)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        words, _ = _corrupted_batch(
            code, rng, 9, weights=[0, t, t + 1]
        )
        was_enabled = obs.is_enabled()
        obs.set_enabled(True)
        try:
            with obs.collect(absorb=False) as batch_scope:
                batch = code.decode_many(words, on_error="return")
            with obs.collect(absorb=False) as scalar_scope:
                scalars = []
                for word in words:
                    try:
                        scalars.append(code.decode(word))
                    except EccError as error:
                        scalars.append(error)
        finally:
            obs.set_enabled(was_enabled)
        counted = [
            {
                name: value
                for name, value in scope.snapshot.counters.items()
                if name.startswith("bch.decode.") and value
            }
            for scope in (batch_scope, scalar_scope)
        ]
        assert counted[0] == counted[1]
        failing = []
        for index, scalar in enumerate(scalars):
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
