"""Hidden-cell selection."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import HidingKey, KeyedPrng
from repro.hiding import SelectionError, select_cells

KEY = HidingKey.generate(b"sel")


def bits_with_ones(n, ones_fraction=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < ones_fraction).astype(np.uint8)


def test_selects_only_one_cells():
    bits = bits_with_ones(2048)
    cells = select_cells(KEY, 0, bits, 100)
    assert (bits[cells] == 1).all()


def test_deterministic_in_inputs():
    bits = bits_with_ones(2048)
    a = select_cells(KEY, 5, bits, 64)
    b = select_cells(KEY, 5, bits, 64)
    assert np.array_equal(a, b)


def test_page_dependent():
    bits = bits_with_ones(2048)
    a = select_cells(KEY, 0, bits, 64)
    b = select_cells(KEY, 1, bits, 64)
    assert not np.array_equal(a, b)


def test_key_dependent():
    bits = bits_with_ones(2048)
    other = HidingKey.generate(b"other")
    a = select_cells(KEY, 0, bits, 64)
    b = select_cells(other, 0, bits, 64)
    assert not np.array_equal(a, b)


def test_distinct_cells():
    bits = bits_with_ones(2048)
    cells = select_cells(KEY, 0, bits, 500)
    assert len(set(cells.tolist())) == 500


def test_insufficient_ones_rejected():
    bits = np.zeros(256, dtype=np.uint8)
    bits[:10] = 1
    with pytest.raises(SelectionError):
        select_cells(KEY, 0, bits, 11)
    assert select_cells(KEY, 0, bits, 10).size == 10


def test_selection_spreads_over_the_page():
    bits = np.ones(4096, dtype=np.uint8)
    cells = select_cells(KEY, 0, bits, 256)
    # keyed-uniform selection: both halves populated
    assert (cells < 2048).sum() > 64
    assert (cells >= 2048).sum() > 64


def keyed_order(prng, population):
    """Yield ``(cell, word_index)`` for every cell of [0, population) in
    keyed order, with the index of the 32-bit word that first drew it.

    The documented definition, one word at a time: a word below
    2**32 - 2**32 % population draws word % population, a larger one is
    rejected, and a cell takes its place in the order at its first draw.
    """
    limit = (1 << 32) - (1 << 32) % population
    seen = set()
    word_index = 0
    while len(seen) < population:
        word = int.from_bytes(prng.bytes(4), "little")
        cell = word % population
        if word < limit and cell not in seen:
            seen.add(cell)
            yield cell, word_index
        word_index += 1


def reference_order(prng, population):
    """``(order, first_word)`` arrays of the whole keyed order."""
    order, first_word = zip(*keyed_order(prng, population))
    return np.asarray(order, dtype=np.int64), np.asarray(first_word)


def reference_walk(prng, bits, count):
    """The first `count` '1' cells of the keyed order."""
    ones = (cell for cell, _ in keyed_order(prng, bits.size) if bits[cell] == 1)
    return np.fromiter(itertools.islice(ones, count), dtype=np.int64, count=count)


def test_local_robustness_is_exact():
    """A public-bit flip changes the map exactly as the keyed order says:
    not at all on a cell the walk has not reached; on a selected cell,
    that cell leaves and the next '1' cell of the order joins at the
    end; on a reached '0' cell, that cell joins at its place in the
    order."""
    bits = bits_with_ones(4096, seed=3)
    page, count = 0, 64
    order, _ = reference_order(KEY.selection_prng().for_page(page), bits.size)
    ones_in_order = order[bits[order] == 1]
    cells = select_cells(KEY, page, bits, count)
    np.testing.assert_array_equal(cells, ones_in_order[:count])
    reached = order[: int(np.flatnonzero(order == cells[-1])[0]) + 1]
    unreached = order[reached.size:]

    def after_flip(cell):
        flipped = bits.copy()
        flipped[cell] ^= 1
        return select_cells(KEY, page, flipped, count)

    tried = unreached[:: unreached.size // 40]
    assert set(bits[tried]) == {0, 1}
    for cell in tried:
        np.testing.assert_array_equal(after_flip(cell), cells)
    for at in (0, count // 2, count - 1):
        np.testing.assert_array_equal(
            after_flip(cells[at]),
            np.concatenate([cells[:at], cells[at + 1:],
                            ones_in_order[count:count + 1]]),
        )
    zeros = reached[bits[reached] == 0]
    assert zeros.size
    for cell in zeros[:: max(1, zeros.size // 10)]:
        before = reached[: int(np.flatnonzero(reached == cell)[0])]
        joins = int(np.count_nonzero(bits[before] == 1))
        np.testing.assert_array_equal(
            after_flip(cell),
            np.concatenate([cells[:joins], [cell], cells[joins:-1]]),
        )


@given(
    count=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_selection_size_and_range(count, seed):
    bits = bits_with_ones(512, seed=seed)
    if count > int((bits == 1).sum()):
        with pytest.raises(SelectionError):
            select_cells(KEY, 2, bits, count)
    else:
        cells = select_cells(KEY, 2, bits, count)
        assert cells.size == count
        assert ((cells >= 0) & (cells < 512)).all()


def test_shape_validation():
    with pytest.raises(ValueError):
        select_cells(KEY, 0, np.zeros((2, 2)), 1)


def half_ones(population, seed):
    """Exactly population // 2 '1' bits, at keyed-random cells."""
    bits = np.zeros(population, dtype=np.uint8)
    bits[: population // 2] = 1
    return np.random.default_rng(seed).permutation(bits)


#: Walk shapes ``(population, count)``: 700-cell pages with 1 + seed %
#: 128 bits, the fleet's host pages (707-804 '1' cells, as its cover
#: pages have), the Fig. 6 sweep's pages and paper-size pages, both half
#: '1'.
WALK_SHAPES = {
    "700": (700, None),
    "fleet": (1_504, 639),
    "fig6": (36_096, 128),
    "paper": (144_384, 639),
}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(sorted(WALK_SHAPES)),
)
@example(seed=1, shape="fleet")
@example(seed=2, shape="fig6")
@example(seed=3, shape="paper")
@settings(max_examples=25, deadline=None)
def test_matches_scalar_reference_walk(seed, shape):
    population, count = WALK_SHAPES[shape]
    if shape == "700":
        bits = bits_with_ones(700, seed=seed)
        count = min(int((bits == 1).sum()), 1 + seed % 128)
    elif shape == "fleet":
        bits = np.zeros(population, dtype=np.uint8)
        bits[: 707 + seed % 98] = 1
        bits = np.random.default_rng(seed).permutation(bits)
    else:
        bits = half_ones(population, seed)
    fast = select_cells(KEY, seed, bits, count)
    prng = KEY.selection_prng().for_page(seed)
    np.testing.assert_array_equal(fast, reference_walk(prng, bits, count))


class ForcedRejections(KeyedPrng):
    """A keystream whose chosen 32-bit words (by index) read `value`.

    The tests pick a rejected word, ``2**32 - 2**32 % population +
    cell``, which would draw `cell` if a walk accepted it.  Derived
    streams force the same words and log the size of every draw into
    the same ``calls`` list.
    """

    def __init__(self, key, context=b"", words=(), value=0, calls=None):
        super().__init__(key, context)
        self.words = frozenset(words)
        self.value = value
        self.calls = [] if calls is None else calls
        self.drawn = 0

    def derive(self, label):
        return ForcedRejections(
            self._key, self._context + b"/" + bytes(label),
            self.words, self.value, self.calls,
        )

    def bytes(self, n):
        out = bytearray(super().bytes(n))
        for word in self.words:
            at = 4 * word - self.drawn  # every walk draws whole words
            if 0 <= at < n:
                out[at:at + 4] = self.value.to_bytes(4, "little")
        self.drawn += n
        self.calls.append(n)
        return bytes(out)


#: Forced word indexes, given the length of the walk's first chunk.
REJECTIONS = {
    "first-word": lambda chunk: [0],
    "last-word": lambda chunk: [chunk - 1],
    "two-in-a-row": lambda chunk: [chunk // 2, chunk // 2 + 1],
    "second-chunk": lambda chunk: [chunk + 10],
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejected_words_match_reference_walk(case, monkeypatch):
    # 2**32 % 641 == 640: every cell but the last has a rejected word
    # that would draw it.
    population, n_ones, count, page = 641, 200, 100, 3
    rejected_base = (1 << 32) - (1 << 32) % population
    calls, words = [], []
    forced = dict(words=words, value=rejected_base, calls=calls)
    monkeypatch.setattr(
        HidingKey, "selection_prng",
        lambda key: ForcedRejections(b"forced", **forced),
    )
    # The first chunk's length depends only on the counts, not on which
    # cells hold the '1' bits.
    select_cells(KEY, page, np.arange(population) < n_ones, count)
    words.extend(REJECTIONS[case](calls[0] // 4))
    order, first_word = reference_order(
        ForcedRejections(b"forced", **forced).for_page(page), population
    )
    # '1' bits on the order's last cells, all first drawn after every
    # forced word.  The forced words read as the rejected word of the
    # last of them (cell 640 has none), so a walk that accepted one
    # would select that cell first.
    late = order[-n_ones:]
    assert first_word[-n_ones] > max(words)
    target = late[-1] if late[-1] < 640 else late[-2]
    forced["value"] = rejected_base + int(target)
    bits = np.zeros(population, dtype=np.uint8)
    bits[late] = 1
    reference = ForcedRejections(b"forced", **forced).for_page(page)
    expected = reference_walk(reference, bits, count)
    np.testing.assert_array_equal(expected, late[:count])
    calls.clear()
    cells = select_cells(KEY, page, bits, count)
    # The walk drew every forced word and went on past its first chunk.
    assert len(calls) > 1 and sum(calls) > 4 * max(words)
    np.testing.assert_array_equal(cells, expected)


def test_matches_reference_across_chunks(monkeypatch):
    # '1' bits only on the cells the fleet page's keyed order reaches
    # last: a first chunk sized for '1' cells spread over the page holds
    # few of them, so the walk runs on through further chunks.
    population, n_ones, count, page = 1_504, 750, 639, 11
    order, _ = reference_order(KEY.selection_prng().for_page(page), population)
    bits = np.zeros(population, dtype=np.uint8)
    bits[order[-n_ones:]] = 1
    calls = []
    draw = KeyedPrng.bytes
    monkeypatch.setattr(
        KeyedPrng, "bytes", lambda prng, n: calls.append(n) or draw(prng, n)
    )
    cells = select_cells(KEY, page, bits, count)
    assert len(calls) > 1
    np.testing.assert_array_equal(cells, order[-n_ones:][:count])


def chi_square_bound(dof, z=3.090):
    """The upper 0.1% point of chi-square with `dof` degrees of freedom
    (Wilson–Hilferty)."""
    return dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3


def test_selected_positions_are_uniform():
    # 2,000 pages, each selecting 12 of the same 48 '1' cells among 96:
    # each '1' cell is selected 500 times on average, and is the first
    # selection 2000 / 48 times.
    bits = half_ones(96, seed=7)
    ones = np.flatnonzero(bits)
    picked = np.zeros(bits.size)
    first = np.zeros(bits.size)
    for page in range(2_000):
        cells = select_cells(KEY, page, bits, 12)
        picked[cells] += 1
        first[cells[0]] += 1
    for counts in (picked, first):
        assert counts[bits == 0].sum() == 0
        expected = counts.sum() / ones.size
        statistic = ((counts[ones] - expected) ** 2 / expected).sum()
        assert statistic < chi_square_bound(ones.size - 1)
