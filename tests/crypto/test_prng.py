"""Keyed PRNG."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import KeyedPrng


def test_stream_is_deterministic():
    a = KeyedPrng(b"key").bytes(64)
    b = KeyedPrng(b"key").bytes(64)
    assert a == b


def test_stream_depends_on_key_and_context():
    base = KeyedPrng(b"key").bytes(32)
    assert KeyedPrng(b"other").bytes(32) != base
    assert KeyedPrng(b"key", b"ctx").bytes(32) != base


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        KeyedPrng(b"")


def test_stream_is_consumed_sequentially():
    # Uneven draws cross several re-squeezes of the XOF.
    prng = KeyedPrng(b"key")
    sizes = [16, 16, 1, 7, 0, 64, 3, 500, 2, 1000]
    pieces = [prng.bytes(n) for n in sizes]
    assert pieces[0] != pieces[1]
    assert b"".join(pieces) == KeyedPrng(b"key").bytes(sum(sizes))


def test_negative_draw_rejected():
    with pytest.raises(ValueError):
        KeyedPrng(b"key").bytes(-1)


def test_for_page_gives_page_dependent_streams():
    prng = KeyedPrng(b"key")
    assert prng.for_page(0).bytes(16) != prng.for_page(1).bytes(16)


def test_derive_does_not_disturb_parent():
    parent = KeyedPrng(b"key")
    expected = KeyedPrng(b"key").bytes(16)
    parent.derive(b"child")
    assert parent.bytes(16) == expected


def test_stream_is_the_framed_shake_256_xof():
    # Key and context are absorbed length-prefixed, so moving bytes
    # between them changes the stream.
    framed = (
        (3).to_bytes(8, "little") + b"key" + (3).to_bytes(8, "little") + b"ctx"
    )
    assert KeyedPrng(b"key", b"ctx").bytes(40) == hashlib.shake_256(
        framed
    ).digest(40)
    assert KeyedPrng(b"ke", b"yctx").bytes(16) != KeyedPrng(
        b"key", b"ctx"
    ).bytes(16)


@given(
    population=st.integers(min_value=1, max_value=500),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_sample_indices_is_exact_sampling(population, data):
    k = data.draw(st.integers(min_value=0, max_value=population))
    sample = KeyedPrng(b"key").sample_indices(population, k)
    assert len(sample) == k
    assert len(set(sample)) == k  # distinct
    assert all(0 <= v < population for v in sample)


def test_sample_more_than_population_rejected():
    with pytest.raises(ValueError):
        KeyedPrng(b"key").sample_indices(5, 6)


def test_sample_more_than_population_rejected():
    with pytest.raises(ValueError):
        KeyedPrng(b"key").sample_indices(5, 6)


def test_sample_of_everything_is_a_permutation():
    sample = KeyedPrng(b"key").sample_indices(100, 100)
    assert sorted(sample.tolist()) == list(range(100))


@given(
    population=st.integers(min_value=1, max_value=400),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_eligible_sample_restricts_the_keyed_order(population, data):
    # Skipping ineligible indices where they appear is the same as
    # filtering the full keyed order, however the chunks fall.
    eligible = np.asarray(data.draw(st.lists(
        st.booleans(), min_size=population, max_size=population
    )))
    k = data.draw(st.integers(min_value=0, max_value=int(eligible.sum())))
    order = KeyedPrng(b"key").sample_indices(population, population)
    sample = KeyedPrng(b"key").sample_indices(population, k, eligible)
    assert sample.tolist() == order[eligible[order]][:k].tolist()


def test_sample_arguments_are_checked():
    prng = KeyedPrng(b"key")
    with pytest.raises(ValueError):
        prng.sample_indices(10, 1, np.ones(9, dtype=bool))
    with pytest.raises(ValueError):
        prng.sample_indices(10, 4, np.arange(10) < 3)
    with pytest.raises(ValueError):
        prng.sample_indices(10, -1)
    with pytest.raises(ValueError):
        prng.sample_indices(1 << 31, 1)
