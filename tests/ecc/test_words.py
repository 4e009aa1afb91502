"""The BCH word layout both codecs share."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc import EccError
from repro.ecc.bch import get_code
from repro.ecc.words import WordLayout

CODE = get_code(9, 8)  # n = 511, 72 parity bits


@given(budget=st.integers(min_value=1, max_value=5000), data=st.data())
@settings(max_examples=60, deadline=None)
def test_fewest_near_equal_words_fill_in_order(budget, data):
    layout = WordLayout(CODE, budget)
    sizes = layout.sizes
    assert len(sizes) == -(-budget // CODE.n)
    assert sum(sizes) == budget
    assert max(sizes) <= CODE.n
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] - sizes[-1] <= 1
    if sizes[-1] <= CODE.n_parity:
        return
    bits = data.draw(st.integers(min_value=0, max_value=layout.data_bits))
    allocation = layout.allocate(bits)
    assert sum(allocation) == bits
    assert all(used > 0 for used in allocation)
    # Every word but the last one used is full.
    full = max(len(allocation) - 1, 0)
    assert allocation[:full] == layout.capacities[:full]
    assert layout.coded_bits(bits) == bits + CODE.n_parity * len(allocation)


def test_allocation_beyond_capacity_rejected():
    layout = WordLayout(CODE, 1200)
    with pytest.raises(ValueError, match="exceed"):
        layout.allocate(layout.data_bits + 1)


def test_decode_names_the_first_failing_word():
    layout = WordLayout(CODE, 1200)
    pages = [np.zeros(layout.data_bits, dtype=np.uint8)] * 2
    coded = layout.encode(pages)
    bad = coded[1].copy()
    bad[400:440] ^= 1  # swamp the second word
    clean, failed = layout.decode([coded[0], bad], layout.capacities)
    assert clean.corrected_errors == 0
    assert isinstance(failed, EccError)
    assert failed.word_start == 400
