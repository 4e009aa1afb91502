"""MLC-mode view (§3, §6.2)."""

import numpy as np
import pytest

from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import ProgramError
from repro.nand.mlc import (
    LEVEL_BITS,
    MlcView,
    bits_to_levels,
    levels_to_bits,
)
from repro.rng import substream


def pages(chip, seed=0):
    rng = substream(seed, "mlc-test")
    n = chip.geometry.cells_per_page
    lower = (rng.random(n) < 0.5).astype(np.uint8)
    upper = (rng.random(n) < 0.5).astype(np.uint8)
    return lower, upper


class TestGrayCode:
    def test_level_bits_table_is_gray(self):
        for (l0, u0), (l1, u1) in zip(LEVEL_BITS, LEVEL_BITS[1:]):
            assert abs(l0 - l1) + abs(u0 - u1) == 1  # one bit per step

    def test_bits_levels_roundtrip(self):
        rng = np.random.default_rng(0)
        lower = rng.integers(0, 2, 1000).astype(np.uint8)
        upper = rng.integers(0, 2, 1000).astype(np.uint8)
        levels = bits_to_levels(lower, upper)
        lower2, upper2 = levels_to_bits(levels)
        assert np.array_equal(lower, lower2)
        assert np.array_equal(upper, upper2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bits_to_levels(np.zeros(3), np.zeros(4))


class TestMlcIo:
    def test_roundtrip_low_ber(self, chip):
        mlc = MlcView(chip)
        lower, upper = pages(chip)
        mlc.program_page(0, 0, lower, upper)
        lower_back, upper_back = mlc.read_page(0, 0)
        ber = ((lower_back != lower).mean() + (upper_back != upper).mean()) / 2
        # MLC intervals are narrow: raw BER is worse than SLC but small
        assert ber < 0.01

    def test_levels_land_in_their_intervals(self, chip):
        mlc = MlcView(chip)
        lower, upper = pages(chip, seed=1)
        mlc.program_page(0, 0, lower, upper)
        voltages = chip.probe_voltages(0, 0).astype(float)
        levels = bits_to_levels(lower, upper)
        thresholds = chip.params.mlc.read_thresholds
        assert voltages[levels == 0].mean() < thresholds[0]
        assert thresholds[0] < voltages[levels == 1].mean() < thresholds[1]
        assert thresholds[1] < voltages[levels == 2].mean() < thresholds[2]
        assert voltages[levels == 3].mean() > thresholds[2]

    def test_mlc_levels_are_narrower_than_slc(self, chip):
        """§3/Fig. 1: 'MLC distributions are typically narrower'."""
        mlc = MlcView(chip)
        lower, upper = pages(chip, seed=2)
        mlc.program_page(0, 0, lower, upper)
        levels = bits_to_levels(lower, upper)
        voltages = chip.probe_voltages(0, 0).astype(float)
        mlc_std = voltages[levels == 2].std()
        slc_bits = lower  # reuse pattern for an SLC page
        chip.program_page(0, 1, slc_bits)
        slc_voltages = chip.probe_voltages(0, 1).astype(float)
        slc_std = slc_voltages[slc_bits == 0].std()
        assert mlc_std < slc_std

    def test_level_voltages_are_normal_at_each_level(self, chip):
        """A programmed MLC cell sits at its level's mean plus the page's
        programmed mean offset, with its level's spread widened by the
        block's: a normal of one counter word per cell."""
        mlc = MlcView(chip)
        lower, upper = pages(chip, seed=6)
        mlc.program_page(0, 0, lower, upper)
        state = chip._block(0)
        params = chip.params
        offset = (
            state.levels(0, state.pec).programmed_mean
            - params.voltage.programmed_mean
        )
        voltages = state.voltages[0].astype(np.float64)
        levels = bits_to_levels(lower, upper)
        for level in (1, 2, 3):
            values = voltages[levels == level]
            mean = params.mlc.level_means[level - 1] + offset
            std = params.mlc.level_stds[level - 1] * state.std_mult
            # Five standard errors of the mean and of the deviation.
            assert abs(values.mean() - mean) < 5 * std / np.sqrt(values.size)
            assert abs(values.std() / std - 1) < 5 / np.sqrt(2 * values.size)

    def test_reprogram_rejected(self, chip):
        mlc = MlcView(chip)
        lower, upper = pages(chip, seed=3)
        mlc.program_page(0, 0, lower, upper)
        with pytest.raises(ProgramError):
            mlc.program_page(0, 0, lower, upper)

    def test_bad_block_rejected_like_slc(self):
        chip = FlashChip(
            TEST_MODEL.geometry, TEST_MODEL.params, seed=1234,
            factory_bad_blocks=1,
        )
        (bad,) = chip.factory_bad_blocks
        lower, upper = pages(chip, seed=5)
        with pytest.raises(ProgramError, match=f"^block {bad} is marked bad$"):
            chip.program_page(bad, 0, lower)
        with pytest.raises(ProgramError, match=f"^block {bad} is marked bad$"):
            MlcView(chip).program_page(bad, 0, lower, upper)
        assert not chip.is_page_programmed(bad, 0)
        assert chip.counters.programs == 0

    def test_mlc_costs_two_programs(self, chip):
        mlc = MlcView(chip)
        lower, upper = pages(chip, seed=4)
        before = chip.counters.programs
        mlc.program_page(0, 0, lower, upper)
        assert chip.counters.programs == before + 2

    def test_headroom_is_the_first_threshold(self, chip):
        assert MlcView(chip).erased_interval_headroom() == pytest.approx(
            chip.params.mlc.read_thresholds[0]
        )


class TestMlcExtensionExperiment:
    def test_reproduces_section_6_2(self):
        """Pooled over chip samples 0-7: one sample's coarse attempt can
        disturb no public bit by chance, so a single seed is a coin flip."""
        from repro.experiments import mlc_extension

        results = [mlc_extension.run(bits=256, seed=seed) for seed in range(8)]
        coarse = np.array([r.coarse_public_flips for r in results])
        precise = np.array([r.precise_public_flips for r in results])
        hidden_ber = np.array([r.precise_hidden_ber for r in results])
        # coarse external PP disrupts public bits; precision fixes it
        assert np.count_nonzero(coarse > precise) >= 6
        assert coarse.mean() >= 2.0
        assert np.count_nonzero(hidden_ber < 0.05) >= 7
        assert hidden_ber.mean() < 0.05
