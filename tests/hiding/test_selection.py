"""Hidden-cell selection."""

import signal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import HidingKey, KeyedPrng
from repro.hiding import SelectionError, select_cells
from repro.hiding.selection import _walk_plan

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


def test_local_robustness_to_public_bit_flip():
    """A flip on a NON-selected cell must not change the map at all —
    the property that makes raw-read decoding mostly safe."""
    bits = bits_with_ones(4096, seed=3)
    cells = select_cells(KEY, 0, bits, 64)
    flipped = bits.copy()
    victim = next(
        i for i in range(bits.size)
        if i not in set(cells.tolist()) and bits[i] == 1
    )
    # Only flips on cells the keyed walk visits before completion matter;
    # find a '1' cell that is not selected and comes after all selected
    # ones in the walk by checking the map is unchanged.
    flipped[victim] = 0
    cells_after = select_cells(KEY, 0, flipped, 64)
    changed = not np.array_equal(cells, cells_after)
    if changed:
        # if the victim was inside the walk prefix, the tail may shift,
        # but the prefix before it must be identical
        common = 0
        for a, b in zip(cells, cells_after):
            if a != b:
                break
            common += 1
        assert common > 0
    else:
        assert np.array_equal(cells, cells_after)


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


def reference_walk(page, bits, count):
    prng = KEY.selection_prng().for_page(page)
    chosen = []
    for offset in prng.index_stream(bits.size):
        if bits[offset] == 1:
            chosen.append(offset)
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64)


#: Walk shapes ``(population, count, dense)`` beyond the 700-cell pages
#: (``count`` None: 1 + seed % 128): paper-size pages on the sparse
#: map, the fleet's 1,504-cell pages on the dense list, and one count
#: each side of the ``5 * first_draws >= population`` crossover on
#: 36,096 cells with exactly half of them '1'.
WALK_SHAPES = {
    "700": (700, None, None),
    "36096-sparse": (36_096, "8-640", False),
    "144384-sparse": (144_384, "8-640", False),
    "fleet-dense": (1_504, 639, True),
    "crossover-sparse": (36_096, 3180, False),
    "crossover-dense": (36_096, 3181, True),
}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(sorted(WALK_SHAPES)),
)
@example(seed=1, shape="36096-sparse")
@example(seed=2, shape="144384-sparse")
@example(seed=3, shape="fleet-dense")
@example(seed=4, shape="crossover-sparse")
@example(seed=5, shape="crossover-dense")
@settings(max_examples=25, deadline=None)
def test_matches_reference_index_stream_walk(seed, shape):
    # The production selector inlines and bulk-decodes the keystream
    # and walks a dense list or a sparse swap map; either way it must
    # consume the exact same stream as the straightforward
    # ``KeyedPrng.index_stream`` walk and pick the same cells.
    population, count, dense = WALK_SHAPES[shape]
    if population == 700:
        bits = bits_with_ones(700, seed=seed)
        count = min(int((bits == 1).sum()), 1 + seed % 128)
    else:
        bits = half_ones(population, seed)
        if count == "8-640":
            count = 8 + seed % 633
        assert _walk_plan(count, population, population // 2)[1] is dense
    fast = select_cells(KEY, seed, bits, count)
    np.testing.assert_array_equal(fast, reference_walk(seed, bits, count))


class ForcedRejections(KeyedPrng):
    """A keystream whose chosen 8-byte words (by index) read 0xFF..FF.

    A 64-bit rejection test rejects that word for every bound that is
    not a power of two, so each chosen word forces one rejected draw.
    Derived streams force the same words and log the size of every draw
    into the same ``calls`` list.
    """

    def __init__(self, key, context=b"", words=(), calls=None):
        super().__init__(key, context)
        self.words = frozenset(words)
        self.calls = [] if calls is None else calls
        self.drawn = 0

    def derive(self, label):
        return ForcedRejections(
            self._key, self._context + b"/" + bytes(label),
            self.words, self.calls,
        )

    def bytes(self, n):
        out = bytearray(super().bytes(n))
        for word in self.words:
            at = 8 * word - self.drawn  # both walks draw whole words
            if 0 <= at < n:
                out[at:at + 8] = b"\xff" * 8
        self.drawn += n
        self.calls.append(n)
        return bytes(out)


def _walk_timed_out(signum, frame):
    raise TimeoutError("select_cells kept retrying a rejected word")


#: Forced word indexes, given the length of the walk's first chunk.
REJECTIONS = {
    "first-word": lambda chunk: [0],
    "last-word": lambda chunk: [chunk - 1],
    "two-in-a-row": lambda chunk: [chunk // 2, chunk // 2 + 1],
    "second-chunk": lambda chunk: [chunk + 10],
}


@pytest.mark.parametrize("case", list(REJECTIONS))
def test_rejected_words_match_reference_walk(case, monkeypatch):
    population, n_ones, page = 1000, 200, 3
    # 100 cells walk the dense list, 10 the sparse map.
    for count, dense in ((100, True), (10, False)):
        assert _walk_plan(count, population, n_ones)[1] is dense
        calls = []
        words = []
        monkeypatch.setattr(
            HidingKey, "selection_prng",
            lambda key: ForcedRejections(b"forced", words=words, calls=calls),
        )
        # The chunk length depends only on the counts, not on which
        # cells hold the '1' bits.
        select_cells(KEY, page, np.arange(population) < n_ones, count)
        words.extend(REJECTIONS[case](calls[0] // 8))
        reference = ForcedRejections(b"forced", words=words).for_page(page)
        walk = np.fromiter(
            reference.index_stream(population), dtype=np.int64
        )
        # Every forced word was drawn and rejected by the reference walk.
        assert reference.drawn == 8 * (population + len(words))
        # '1' bits on the walk's last cells: the selection must cross
        # into the second chunk, past every forced word.
        bits = np.zeros(population, dtype=np.uint8)
        bits[walk[-n_ones:]] = 1
        calls.clear()
        # A walk that kept a rejected word would retry it forever: fail
        # on a deadline instead of hanging the suite.
        previous = signal.signal(signal.SIGALRM, _walk_timed_out)
        signal.alarm(30)
        try:
            cells = select_cells(KEY, page, bits, count)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(calls) > 1
        np.testing.assert_array_equal(cells, walk[-n_ones:][:count])
