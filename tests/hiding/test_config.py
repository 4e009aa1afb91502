"""Hiding configuration."""

import pytest

from repro.fleet import FLEET_HIDING
from repro.hiding import (
    ENHANCED_CONFIG,
    STANDARD_CONFIG,
    HidingConfig,
    PayloadCodec,
)


def test_standard_matches_section_6_3():
    cfg = STANDARD_CONFIG
    assert cfg.threshold == 34.0
    assert cfg.pp_steps == 10
    assert cfg.bits_per_page == 256
    assert cfg.page_interval == 1


def test_enhanced_matches_section_8():
    cfg = ENHANCED_CONFIG
    assert cfg.threshold == 15.0
    assert cfg.pp_steps == 1
    assert cfg.bits_per_page == 2560  # 10x the standard


def test_hidden_pages_stride():
    cfg = HidingConfig(page_interval=1)
    assert list(cfg.hidden_pages(8)) == [0, 2, 4, 6]
    dense = HidingConfig(page_interval=0)
    assert list(dense.hidden_pages(4)) == [0, 1, 2, 3]
    sparse = HidingConfig(page_interval=3)
    assert list(sparse.hidden_pages(8)) == [0, 4]


def test_parity_accounting():
    cfg = HidingConfig(ecc_m=9, ecc_t=8)
    assert cfg.parity_bits == 72
    raw = HidingConfig(ecc_t=0)
    assert raw.parity_bits == 0
    # A page's capacity is the codec's: each BCH word pays its own parity.
    assert PayloadCodec(cfg).max_data_bits == cfg.bits_per_page - 72
    assert PayloadCodec(raw).max_data_bits == raw.bits_per_page
    assert PayloadCodec(ENHANCED_CONFIG).max_data_bits == 2560 - 2 * 968
    assert PayloadCodec(FLEET_HIDING).max_data_bits == 345


def test_replace_returns_modified_copy():
    cfg = STANDARD_CONFIG.replace(bits_per_page=128)
    assert cfg.bits_per_page == 128
    assert STANDARD_CONFIG.bits_per_page == 256


def test_replace_revalidates():
    # shrinking the budget below the parity cost must be caught
    with pytest.raises(ValueError):
        STANDARD_CONFIG.replace(bits_per_page=64)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(threshold=0.0),
        dict(threshold=127.0),
        dict(threshold=200.0),
        dict(pp_steps=0),
        dict(bits_per_page=0),
        dict(page_interval=-1),
        dict(ecc_t=-1),
        dict(bits_per_page=64, ecc_m=9, ecc_t=8),  # parity >= budget
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        HidingConfig(**kwargs)
