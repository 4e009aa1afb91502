"""Distribution samplers and their analytic counterparts.

The batch samplers are the chip's erase and program kernels; MLC mode
draws its erased cells from the scalar :func:`sample_erased`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nand import ChipParams
from repro.nand.noise import (
    erased_tail_exceedance,
    page_levels,
    programmed_underflow,
    sample_erased,
    sample_erased_batch,
    sample_programmed_batch,
    sample_truncated_exponential,
)


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


def test_truncated_exponential_respects_bounds():
    rng = np.random.default_rng(0)
    draws = sample_truncated_exponential(rng, 10_000, scale=20.0, span=58.0)
    assert draws.min() >= 0
    assert draws.max() <= 58.0


def test_truncated_exponential_rejects_bad_params():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_truncated_exponential(rng, 10, scale=0, span=5)
    with pytest.raises(ValueError):
        sample_truncated_exponential(rng, 10, scale=5, span=0)


def kernel_rng(seed):
    """A generator of the family the chip's kernels draw from."""
    return np.random.Generator(np.random.SFC64(seed))


def test_erased_sampler_matches_analytic_exceedance():
    lv = levels()
    batch = np.empty(400_000, dtype=np.float32)
    sample_erased_batch([kernel_rng(1)], [lv], [batch])
    scalar = sample_erased(np.random.default_rng(1), 400_000, lv)
    for draws in (batch, scalar):
        for threshold in (15.0, 34.0):
            empirical = (draws > threshold).mean()
            analytic = erased_tail_exceedance(lv, threshold)
            assert empirical == pytest.approx(analytic, rel=0.15, abs=5e-4)


def test_programmed_sampler_matches_analytic_underflow():
    lv = levels()
    draws = np.full(2_000_000, np.nan, dtype=np.float32)
    sample_programmed_batch(
        [kernel_rng(2)], [lv], [np.arange(draws.size)], [draws]
    )
    assert draws.mean() == pytest.approx(lv.programmed_mean, abs=0.05)
    assert draws.std() == pytest.approx(lv.programmed_std, rel=0.01)
    empirical = (draws < 127.0).mean()
    analytic = programmed_underflow(lv, 127.0)
    assert empirical == pytest.approx(analytic, rel=0.6, abs=3e-5)


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
