"""Host-side tester API."""

import numpy as np
import pytest

from repro.nand import NandTester, TEST_MODEL
from repro.nand.tester import histogram_block


def test_for_samples_creates_distinct_chips():
    tester = NandTester.for_samples(TEST_MODEL, 3, base_seed=9)
    assert len(tester.chips) == 3
    seeds = {chip.seed for chip in tester.chips}
    assert len(seeds) == 3


def test_tester_requires_chips():
    with pytest.raises(ValueError):
        NandTester([])


def test_program_random_block_covers_all_pages(chip):
    tester = NandTester([chip])
    data = tester.program_random_block(0, 0, seed=1)
    assert data.shape == (
        chip.geometry.pages_per_block, chip.geometry.cells_per_page
    )
    for page in range(chip.geometry.pages_per_block):
        assert chip.is_page_programmed(0, page)
    # pattern is balanced (pseudorandom)
    assert abs(data.mean() - 0.5) < 0.02


def test_measure_ber_agrees_with_manual_count(chip):
    tester = NandTester([chip])
    data = tester.program_random_block(0, 0, seed=2)
    ber = tester.measure_ber(0, 0, data)
    manual = np.mean([
        (chip.read_page(0, p) != data[p]).mean()
        for p in range(chip.geometry.pages_per_block)
    ])
    assert ber == pytest.approx(manual, abs=1e-4)


def test_probe_block_shape(chip):
    tester = NandTester([chip])
    tester.program_random_block(0, 0, seed=3)
    voltages = tester.probe_block(0, 0)
    assert voltages.shape == (
        chip.geometry.pages_per_block, chip.geometry.cells_per_page
    )
    assert voltages.dtype == np.uint8


def test_cycle_to_pec(chip):
    tester = NandTester([chip])
    tester.cycle_to_pec(0, 2, 1500)
    assert chip.block_pec(2) == 1500


def test_histogram_block_percent_sums_to_100(chip):
    tester = NandTester([chip])
    tester.program_random_block(0, 0, seed=5)
    voltages = tester.probe_block(0, 0)
    _, percent = histogram_block(voltages)
    assert percent.sum() == pytest.approx(100.0, abs=0.5)
