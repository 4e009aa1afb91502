"""FlashChip semantics: program/read/erase, vendor ops, determinism."""

import numpy as np
import pytest

from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import AddressError, EraseError, ProgramError, WearOutError


def programmed_bits(chip, index=0):
    rng = np.random.default_rng(index)
    return (rng.random(chip.geometry.cells_per_page) < 0.5).astype(np.uint8)


class TestProgramRead:
    def test_roundtrip_bits(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        back = chip.read_page(0, 0)
        # raw BER is ~3e-5; on a 9024-bit page expect at most a few flips
        assert (back != bits).sum() <= 3

    def test_roundtrip_bytes(self, chip):
        data = (bytes(range(256)) * (chip.geometry.page_bytes // 256 + 1))[
            : chip.geometry.page_bytes
        ]
        chip.program_page(0, 0, data)
        back = np.packbits(chip.read_page(0, 0)).tobytes()
        errors = sum(
            bin(a ^ b).count("1") for a, b in zip(back, data)
        )
        assert errors <= 3

    def test_unprogrammed_page_reads_all_ones(self, chip):
        chip.erase_block(0)
        assert (chip.read_page(0, 0) == 1).all()

    def test_reprogram_without_erase_rejected(self, chip):
        chip.program_page(0, 0, programmed_bits(chip))
        with pytest.raises(ProgramError):
            chip.program_page(0, 0, programmed_bits(chip))

    def test_program_after_erase_allowed(self, chip):
        chip.program_page(0, 0, programmed_bits(chip))
        chip.erase_block(0)
        chip.program_page(0, 0, programmed_bits(chip, 1))

    def test_wrong_size_data_rejected(self, chip):
        with pytest.raises(ProgramError):
            chip.program_page(0, 0, b"short")
        with pytest.raises(ProgramError):
            chip.program_page(0, 0, np.zeros(7, dtype=np.uint8))

    def test_non_binary_bits_rejected(self, chip):
        bad = np.full(chip.geometry.cells_per_page, 2, dtype=np.uint8)
        with pytest.raises(ProgramError):
            chip.program_page(0, 0, bad)

    def test_address_bounds(self, chip):
        with pytest.raises(AddressError):
            chip.read_page(chip.geometry.n_blocks, 0)
        with pytest.raises(AddressError):
            chip.program_page(0, chip.geometry.pages_per_block,
                              programmed_bits(chip))


class TestVoltageSemantics:
    def test_programmed_cells_high_erased_low(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        voltages = chip.probe_voltages(0, 0).astype(float)
        assert voltages[bits == 0].mean() > 150
        assert voltages[bits == 1].mean() < 40

    def test_probe_is_quantised_uint8(self, chip):
        chip.program_page(0, 0, programmed_bits(chip))
        voltages = chip.probe_voltages(0, 0)
        assert voltages.dtype == np.uint8

    def test_threshold_shifted_read(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        voltages = chip.probe_voltages(0, 0)
        shifted = chip.read_page(0, 0, threshold=34.0)
        # Reading at 34 must agree with the probe (modulo disturb overlay).
        expected = (voltages < 34).astype(np.uint8)
        assert (shifted != expected).mean() < 1e-3

    def test_erased_block_probes_near_zero(self, chip):
        chip.erase_block(0)
        # Erased cells sit at the full erased-state mixture (near-zero
        # core plus the small charged tail), far below the SLC threshold.
        probed = chip.probe_voltages(0, 0).astype(float)
        assert probed.mean() < 15
        assert (probed < chip.params.voltage.slc_threshold).all()


class TestPartialProgram:
    def test_pp_raises_voltage_only(self, chip):
        bits = np.ones(chip.geometry.cells_per_page, dtype=np.uint8)
        chip.program_page(0, 0, bits)
        before = chip.probe_voltages(0, 0).astype(np.int32)
        cells = np.arange(0, 64)
        chip.partial_program(0, 0, cells)
        after = chip.probe_voltages(0, 0).astype(np.int32)
        delta = after - before
        assert (delta[cells] >= 0).all()
        untouched = np.setdiff1d(np.arange(before.size), cells)
        assert (delta[untouched] == 0).all()

    def test_pp_fraction_scales_charge(self, chip):
        bits = np.ones(chip.geometry.cells_per_page, dtype=np.uint8)
        chip.program_page(0, 0, bits)
        chip.program_page(0, 1, bits)
        full = np.arange(0, 512)
        chip.partial_program(0, 0, full, fraction=1.0)
        chip.partial_program(0, 1, full, fraction=0.3)
        v_full = chip.probe_voltages(0, 0).astype(float)[full].mean()
        v_frac = chip.probe_voltages(0, 1).astype(float)[full].mean()
        assert v_full > v_frac

    def test_pp_validates_arguments(self, chip):
        chip.program_page(0, 0, np.ones(chip.geometry.cells_per_page,
                                        dtype=np.uint8))
        with pytest.raises(ValueError):
            chip.partial_program(0, 0, [0], fraction=0.0)
        with pytest.raises(ValueError):
            chip.partial_program(0, 0, [0], fraction=2.5)
        with pytest.raises(ValueError):
            chip.partial_program(0, 0, [0], precision=0.0)
        with pytest.raises(AddressError):
            chip.partial_program(0, 0, [chip.geometry.cells_per_page])


class TestDeterminism:
    def test_same_seed_same_chip(self, chip_factory):
        chips = [chip_factory(42), chip_factory(42)]
        bits = programmed_bits(chips[0])
        for chip in chips:
            chip.program_page(1, 2, bits)
        assert np.array_equal(
            chips[0].probe_voltages(1, 2), chips[1].probe_voltages(1, 2)
        )

    def test_different_seed_different_sample(self, chip_factory):
        a, b = chip_factory(1), chip_factory(2)
        bits = programmed_bits(a)
        a.program_page(0, 0, bits)
        b.program_page(0, 0, bits)
        assert not np.array_equal(
            a.probe_voltages(0, 0), b.probe_voltages(0, 0)
        )

    def test_repeated_reads_are_stable(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        first = chip.read_page(0, 0)
        for _ in range(5):
            assert np.array_equal(chip.read_page(0, 0), first)

    def test_reprogram_after_erase_gives_fresh_noise(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        v1 = chip.probe_voltages(0, 0).copy()
        chip.erase_block(0)
        chip.program_page(0, 0, bits)
        v2 = chip.probe_voltages(0, 0)
        assert not np.array_equal(v1, v2)


class TestClock:
    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_rejected_advance_leaves_clock_and_reads(self, chip, seconds):
        chip.program_page(0, 0, programmed_bits(chip))
        chip.advance_time(3600.0)
        bits = chip.read_page(0, 0)
        voltages = chip.probe_voltages(0, 0).copy()
        with pytest.raises(ValueError, match="cannot advance time"):
            chip.advance_time(seconds)
        assert chip.clock == 3600.0
        assert np.array_equal(chip.read_page(0, 0), bits)
        assert np.array_equal(chip.probe_voltages(0, 0), voltages)


class TestWearManagement:
    def test_erase_increments_pec(self, chip):
        assert chip.block_pec(0) == 0
        chip.erase_block(0)
        assert chip.block_pec(0) == 1

    def test_age_block_jumps_pec(self, chip):
        chip.age_block(3, 2000)
        assert chip.block_pec(3) == 2000

    def test_age_block_rejects_negative(self, chip):
        with pytest.raises(ValueError):
            chip.age_block(0, -1)

    def test_cycle_block_runs_real_cycles(self, chip):
        chip.cycle_block(0, 3)
        assert chip.block_pec(0) == 4  # 3 cycles + final erase

    def test_strict_endurance_marks_bad(self, chip_factory):
        from repro.nand import TEST_MODEL, FlashChip
        import dataclasses
        params = dataclasses.replace(
            TEST_MODEL.params,
            wear=dataclasses.replace(TEST_MODEL.params.wear, endurance_pec=2),
        )
        chip = FlashChip(TEST_MODEL.geometry, params, seed=1,
                         strict_endurance=True)
        chip.erase_block(0)
        chip.erase_block(0)
        with pytest.raises(WearOutError):
            chip.erase_block(0)
        assert chip.is_bad_block(0)
        with pytest.raises(EraseError):
            chip.erase_block(0)


class TestCounters:
    def test_ops_are_counted_with_costs(self, chip):
        costs = chip.params.costs
        start = chip.counters.copy()
        chip.erase_block(0)
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        chip.read_page(0, 0)
        chip.partial_program(0, 0, [0, 1])
        delta = chip.counters.diff(start)
        assert (delta.erases, delta.programs, delta.reads,
                delta.partial_programs) == (1, 1, 1, 1)
        expected_time = (
            costs.t_erase + costs.t_program + costs.t_read
            + costs.t_partial_program
        )
        assert delta.busy_time_s == pytest.approx(expected_time)
        expected_energy = (
            costs.e_erase + costs.e_program + costs.e_read
            + costs.e_partial_program
        )
        assert delta.energy_j == pytest.approx(expected_energy)

    def test_probe_costs_a_read(self, chip):
        chip.program_page(0, 0, programmed_bits(chip))
        before = chip.counters.reads
        chip.probe_voltages(0, 0)
        assert chip.counters.reads == before + 1


class TestReleaseBlock:
    def test_release_forgets_state(self, chip):
        bits = programmed_bits(chip)
        chip.program_page(0, 0, bits)
        chip.release_block(0)
        assert not chip.is_page_programmed(0, 0)

    def test_release_is_idempotent(self, chip):
        chip.release_block(5)
        chip.release_block(5)


class TestStress:
    def test_stress_advances_wear_and_traps(self, chip, key):
        chip.apply_stress(0, {0: np.arange(32)}, cycles=100)
        assert chip.block_pec(0) == 100
        state = chip._block(0)
        assert state.page_trap[0][:32].min() > 0
        assert state.page_trap[0][32:].max() == 0

    def test_stress_trap_survives_erase(self, chip):
        chip.apply_stress(0, {0: np.arange(8)}, cycles=50)
        trap_before = chip._block(0).page_trap[0].copy()
        chip.erase_block(0)
        assert np.array_equal(chip._block(0).page_trap[0], trap_before)

    def test_stress_accounting(self, chip):
        start = chip.counters.copy()
        chip.apply_stress(0, {0: [1], 2: [3]}, cycles=10)
        delta = chip.counters.diff(start)
        assert delta.programs == 20  # 10 cycles x 2 pages
        assert delta.erases == 10  # 9 internal + the final real erase

    def test_stress_rejects_bad_args(self, chip):
        with pytest.raises(ValueError):
            chip.apply_stress(0, {0: [0]}, cycles=0)
        with pytest.raises(AddressError):
            chip.apply_stress(0, {0: [chip.geometry.cells_per_page]},
                              cycles=1)
