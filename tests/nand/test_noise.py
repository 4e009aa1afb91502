"""Voltage fields and their analytic counterparts.

A cell's erased and programmed voltages are counter-based fields
(DESIGN §11): one 64-bit counter word per cell, split into narrow
uniforms.  The statistical tests hold each field to the analytic
exceedance and underflow the capacity planner uses, at several
thresholds and wear levels, within a binomial tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nand import ChipParams
from repro.nand.noise import (
    erased_tail_exceedance,
    erased_voltages,
    page_levels,
    programmed_underflow,
    programmed_voltages,
)
from repro.rng import counter_words, derive_seed


def levels(pec=0, mean_offset=0.0, std_mult=1.0, tail_mult=1.0,
           tail_scale_mult=1.0):
    return page_levels(
        ChipParams(),
        pec=pec,
        mean_offset=mean_offset,
        std_mult=std_mult,
        tail_mult=tail_mult,
        tail_scale_mult=tail_scale_mult,
    )


def words(label, size):
    """`size` cells' counter words under a test label seed."""
    seed = derive_seed(0, "test-noise", label)
    return counter_words(np.arange(size, dtype=np.int64), ((seed, 0),))[0]


def assert_binomial(empirical, p, n):
    """`empirical` is a frequency over `n` draws of a probability `p`:
    within five standard errors, plus 1e-5 for the narrow uniforms'
    quantisation (steps of 2**-24 in probability)."""
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(empirical - p) <= 5.0 * sigma + 1e-5, (empirical, p, sigma)


ERASED_CELLS = 2_000_000
PROGRAMMED_CELLS = 4_000_000


@pytest.mark.parametrize("pec", [0, 1500, 3000])
def test_erased_field_matches_analytic_exceedance(pec):
    lv = levels(pec=pec, mean_offset=-1.3, tail_mult=1.4, tail_scale_mult=0.8)
    draws = erased_voltages(lv, words(f"erased-{pec}", ERASED_CELLS))
    assert draws.dtype == np.float32
    for threshold in (-3.0, 0.0, 5.0, 10.0, 15.0, 25.0, 34.0, 50.0, 65.0):
        assert_binomial(
            (draws > threshold).mean(),
            erased_tail_exceedance(lv, threshold),
            draws.size,
        )
    # The charged tail is truncated at start + span; the core normal's
    # 24-bit radius reaches 5.77 standard deviations.
    assert draws.max() <= lv.erased_tail_start + lv.erased_tail_span + 1e-3
    core_reach = math.sqrt(2 * 24 * math.log(2))
    assert draws.min() >= lv.erased_core_mean - core_reach * lv.erased_core_std - 1e-3


@pytest.mark.parametrize("pec", [0, 1500, 3000])
def test_programmed_field_matches_analytic_underflow(pec):
    lv = levels(pec=pec, mean_offset=0.7, std_mult=1.05)
    draws = programmed_voltages(lv, words(f"programmed-{pec}", PROGRAMMED_CELLS))
    assert draws.dtype == np.float32
    assert draws.mean() == pytest.approx(lv.programmed_mean, abs=0.03)
    assert draws.std() == pytest.approx(lv.programmed_std, rel=0.005)
    for sigmas in (-4.0, -3.0, -2.0, -1.0, 0.0, 2.0, 4.0):
        threshold = lv.programmed_mean + sigmas * lv.programmed_std
        assert_binomial(
            (draws < threshold).mean(),
            programmed_underflow(lv, threshold),
            draws.size,
        )
    assert_binomial(
        (draws < 127.0).mean(), programmed_underflow(lv, 127.0), draws.size
    )


def splitmix64(seed, counter):
    """The scalar SplitMix64 output at a counter (the counter layout)."""
    mask = (1 << 64) - 1
    x = (seed + counter * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def test_fields_follow_the_documented_word_layout():
    """A scalar re-derivation of both fields from the documented layout:
    lane 0 of cell c is counter 4c; the erased word's bits 63-40 and
    15-0 are the normal's radial and angular uniforms and bits 39-16
    the tail uniform; the programmed word's top and low 32 bits are its
    radial and angular uniforms."""
    lv = levels(pec=700, tail_mult=3.0)
    seed = derive_seed(5, "layout")
    cells = np.array([0, 1, 17, 4095, 36_095, 144_383], dtype=np.int64)
    erased = erased_voltages(lv, counter_words(cells, ((seed, 0),))[0])
    programmed = programmed_voltages(lv, counter_words(cells, ((seed, 0),))[0])
    for i, cell in enumerate(cells.tolist()):
        word = splitmix64(seed, 4 * cell)
        radial, tail, angular = word >> 40, (word >> 16) & 0xFFFFFF, word & 0xFFFF
        z = math.sqrt(-2.0 * math.log((2**24 - radial) / 2**24)) * math.cos(
            2.0 * math.pi * angular / 2**16
        )
        u = tail / 2**24
        if u < lv.erased_tail_frac:
            norm = 1.0 - math.exp(-lv.erased_tail_span / lv.erased_tail_scale)
            value = lv.erased_tail_start - lv.erased_tail_scale * math.log1p(
                -u / lv.erased_tail_frac * norm
            )
        else:
            value = lv.erased_core_mean + lv.erased_core_std * z
        assert erased[i] == pytest.approx(value, abs=1e-3)
        z = math.sqrt(-2.0 * math.log((2**32 - (word >> 32)) / 2**32)) * math.cos(
            2.0 * math.pi * (word & 0xFFFFFFFF) / 2**32
        )
        value = lv.programmed_mean + lv.programmed_std * z
        assert programmed[i] == pytest.approx(value, abs=1e-3)


@settings(max_examples=40, deadline=None)
@given(
    cells=st.lists(st.integers(0, 36_095), min_size=1, max_size=300),
    pec=st.sampled_from([0, 2000]),
)
def test_fields_at_any_cells_equal_the_whole_row(cells, pec):
    """Both fields are pure in (seed, cell): any subset, in any order,
    with repeats and odd lengths (numpy's SIMD tails), gives the whole
    row's values there."""
    lv = levels(pec=pec)
    seed = derive_seed(9, "subset")
    index = np.array(cells, dtype=np.int64)
    everywhere = np.arange(36_096, dtype=np.int64)
    for field in (erased_voltages, programmed_voltages):
        whole = field(lv, counter_words(everywhere, ((seed, 0),))[0])
        some = field(lv, counter_words(index, ((seed, 0),))[0])
        np.testing.assert_array_equal(some, whole[index])


def test_wear_grows_levels_monotonically():
    fresh = levels(pec=0)
    worn = levels(pec=3000)
    assert worn.erased_core_mean > fresh.erased_core_mean
    assert worn.programmed_mean > fresh.programmed_mean
    assert worn.erased_core_std > fresh.erased_core_std
    assert worn.erased_tail_frac > fresh.erased_tail_frac


def test_tail_scale_mult_moves_deep_band_more_than_shallow():
    base = levels()
    deep = levels(tail_scale_mult=1.4)
    shallow_ratio = (
        erased_tail_exceedance(deep, 15.0)
        / erased_tail_exceedance(base, 15.0)
    )
    deep_ratio = (
        erased_tail_exceedance(deep, 34.0)
        / erased_tail_exceedance(base, 34.0)
    )
    assert deep_ratio > shallow_ratio > 0.99


@given(
    threshold=st.floats(min_value=0.0, max_value=80.0),
    tail_mult=st.floats(min_value=0.3, max_value=3.0),
)
@settings(max_examples=50, deadline=None)
def test_exceedance_is_a_probability_and_monotone(threshold, tail_mult):
    lv = levels(tail_mult=tail_mult)
    value = erased_tail_exceedance(lv, threshold)
    assert 0.0 <= value <= 1.0
    # monotone decreasing in the threshold
    assert value >= erased_tail_exceedance(lv, threshold + 5.0) - 1e-12


def test_tail_frac_is_capped():
    lv = levels(tail_mult=100.0)
    assert lv.erased_tail_frac <= 0.5
