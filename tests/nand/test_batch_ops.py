"""Batched chip operations are bit-identical to the single-page loops.

Two identically-seeded chips run the same workload — one through
``program_pages``/``probe_voltages_batch``/``read_pages``, the other
through loops of the single-page ops — and must end in the same state:
same voltages, same readback, same ``OpCounters`` (including the float
time/energy totals).  ``VtHi.embed_locations`` is held to the same
standard against a per-location ``embed_bits`` loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import HidingKey
from repro.hiding import STANDARD_CONFIG, VtHi
from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import AddressError, ProgramError
from repro.rng import substream

PAGES_PER_BLOCK = TEST_MODEL.geometry.pages_per_block


def page_bits(chip, index):
    rng = substream(777, "batch-page", index)
    return (rng.random(chip.geometry.cells_per_page) < 0.5).astype(np.uint8)


def counters_tuple(chip):
    c = chip.counters
    return (
        c.reads, c.programs, c.erases, c.partial_programs,
        c.busy_time_s, c.energy_j,
    )


def chip_pair(seed=42):
    return (
        FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=seed),
        FlashChip(TEST_MODEL.geometry, TEST_MODEL.params, seed=seed),
    )


def program_both(batch_chip, loop_chip, block, pages):
    data = [page_bits(batch_chip, page) for page in pages]
    batch_chip.program_pages(block, pages, data)
    for page, bits in zip(pages, data):
        loop_chip.program_page(block, page, bits)
    return data


class TestProgramPages:
    def test_matches_single_page_loop(self):
        batch_chip, loop_chip = chip_pair()
        pages = [0, 2, 5, 3]
        program_both(batch_chip, loop_chip, 0, pages)
        np.testing.assert_array_equal(
            batch_chip._block(0).voltages, loop_chip._block(0).voltages
        )
        assert counters_tuple(batch_chip) == counters_tuple(loop_chip)

    def test_2d_array_payload(self):
        batch_chip, loop_chip = chip_pair()
        pages = [1, 4]
        data = np.stack([page_bits(batch_chip, p) for p in pages])
        batch_chip.program_pages(0, pages, data)
        for page, bits in zip(pages, data):
            loop_chip.program_page(0, page, bits)
        np.testing.assert_array_equal(
            batch_chip._block(0).voltages, loop_chip._block(0).voltages
        )

    def test_rejects_duplicate_pages(self, chip):
        bits = page_bits(chip, 0)
        with pytest.raises(AddressError):
            chip.program_pages(0, [1, 1], [bits, bits])

    def test_rejects_empty_pages(self, chip):
        with pytest.raises(AddressError):
            chip.program_pages(0, [], [])

    def test_rejects_programmed_page(self, chip):
        chip.program_page(0, 1, page_bits(chip, 1))
        with pytest.raises(ProgramError):
            chip.program_pages(0, [0, 1], [page_bits(chip, 0)] * 2)

    def test_rejects_payload_count_mismatch(self, chip):
        with pytest.raises(ProgramError):
            chip.program_pages(0, [0, 1], [page_bits(chip, 0)])


class TestCheckPagesMessages:
    """The vectorised bounds check must keep the serial loop's exact
    error text (callers match on it)."""

    def test_out_of_range_page_message_matches_serial(self, chip):
        bits = page_bits(chip, 0)
        with pytest.raises(AddressError) as batch_err:
            chip.program_pages(0, [0, PAGES_PER_BLOCK], [bits, bits])
        with pytest.raises(AddressError) as serial_err:
            chip.program_page(0, PAGES_PER_BLOCK, bits)
        assert str(batch_err.value) == str(serial_err.value)

    def test_negative_page_message_matches_serial(self, chip):
        bits = page_bits(chip, 0)
        with pytest.raises(AddressError) as batch_err:
            chip.read_pages(0, [2, -1])
        with pytest.raises(AddressError) as serial_err:
            chip.read_page(0, -1)
        assert str(batch_err.value) == str(serial_err.value)

    def test_first_offender_in_list_order_wins(self, chip):
        # Two bad pages: the message names the first one in list order,
        # exactly as the serial loop would have failed.
        with pytest.raises(AddressError) as err:
            chip.probe_voltages_batch(0, [1, -3, PAGES_PER_BLOCK])
        assert "-3" in str(err.value)

    def test_read_batch_rejects_duplicates_and_empty(self, chip):
        with pytest.raises(AddressError):
            chip.read_pages(0, [2, 2])
        with pytest.raises(AddressError):
            chip.probe_voltages_batch(0, [])


class TestProbeReadBatch:
    def test_probe_matches_stacked_probes(self):
        batch_chip, loop_chip = chip_pair()
        pages = [0, 3, 1]
        program_both(batch_chip, loop_chip, 0, pages)
        batch = batch_chip.probe_voltages_batch(0, pages)
        stacked = np.stack(
            [loop_chip.probe_voltages(0, p) for p in pages]
        )
        np.testing.assert_array_equal(batch, stacked)
        assert batch.dtype == stacked.dtype
        assert counters_tuple(batch_chip) == counters_tuple(loop_chip)

    def test_read_matches_single_reads(self):
        batch_chip, loop_chip = chip_pair()
        pages = [4, 0, 2]
        program_both(batch_chip, loop_chip, 0, pages)
        batch = batch_chip.read_pages(0, pages)
        stacked = np.stack([loop_chip.read_page(0, p) for p in pages])
        np.testing.assert_array_equal(batch, stacked)
        assert counters_tuple(batch_chip) == counters_tuple(loop_chip)

    def test_read_with_threshold_matches(self):
        batch_chip, loop_chip = chip_pair()
        pages = [0, 1]
        program_both(batch_chip, loop_chip, 0, pages)
        threshold = STANDARD_CONFIG.threshold
        batch = batch_chip.read_pages(0, pages, threshold=threshold)
        stacked = np.stack(
            [loop_chip.read_page(0, p, threshold=threshold) for p in pages]
        )
        np.testing.assert_array_equal(batch, stacked)

    def test_retention_leak_path_matches(self):
        batch_chip, loop_chip = chip_pair()
        pages = [0, 2]
        program_both(batch_chip, loop_chip, 0, pages)
        batch_chip.advance_time(3600.0)
        loop_chip.advance_time(3600.0)
        np.testing.assert_array_equal(
            batch_chip.probe_voltages_batch(0, pages),
            np.stack([loop_chip.probe_voltages(0, p) for p in pages]),
        )
        np.testing.assert_array_equal(
            batch_chip.read_pages(0, pages),
            np.stack([loop_chip.read_page(0, p) for p in pages]),
        )

    def test_mixed_programmed_and_erased_pages(self):
        batch_chip, loop_chip = chip_pair()
        program_both(batch_chip, loop_chip, 0, [0])
        pages = [0, 1]  # page 1 never programmed
        np.testing.assert_array_equal(
            batch_chip.read_pages(0, pages),
            np.stack([loop_chip.read_page(0, p) for p in pages]),
        )


@settings(max_examples=10, deadline=None)
@given(
    pages=st.lists(
        st.integers(0, PAGES_PER_BLOCK - 1),
        unique=True, min_size=1, max_size=PAGES_PER_BLOCK,
    ),
    seed=st.integers(0, 2**16),
)
def test_batch_ops_property(pages, seed):
    """Any distinct page subset, any chip sample: batch == loop."""
    batch_chip, loop_chip = chip_pair(seed)
    program_both(batch_chip, loop_chip, 0, pages)
    np.testing.assert_array_equal(
        batch_chip.probe_voltages_batch(0, pages),
        np.stack([loop_chip.probe_voltages(0, p) for p in pages]),
    )
    np.testing.assert_array_equal(
        batch_chip.read_pages(0, pages),
        np.stack([loop_chip.read_page(0, p) for p in pages]),
    )
    assert counters_tuple(batch_chip) == counters_tuple(loop_chip)


def assert_embed_matches_loop(locations, pass_publics, key, seed=42):
    """``embed_locations`` == a per-location ``embed_bits`` loop on a twin
    chip; float counters sum in another order, so to near-ulp only."""
    batch_chip, loop_chip = chip_pair(seed)
    config = STANDARD_CONFIG.replace(ecc_t=0, bits_per_page=64)
    publics = [page_bits(batch_chip, b * PAGES_PER_BLOCK + p) for b, p in locations]
    batch_chip.program_locations(locations, publics)
    for location, bits in zip(locations, publics):
        loop_chip.program_page(*location, bits)
    hiddens = [
        (substream(888, "batch-hidden", *loc).random(64) < 0.5).astype(np.uint8)
        for loc in locations
    ]
    supplied = [bits if keep else None for bits, keep in zip(publics, pass_publics)]
    batch = VtHi(batch_chip, config).embed_locations(
        locations, hiddens, key, public_bits=supplied
    )
    loop_vthi = VtHi(loop_chip, config)
    assert batch == [
        loop_vthi.embed_bits(*loc, hidden, key, public_bits=public)
        for loc, hidden, public in zip(locations, hiddens, supplied)
    ]
    for block in {block for block, _ in locations}:
        np.testing.assert_array_equal(
            batch_chip._block(block).voltages, loop_chip._block(block).voltages
        )
    batch_counts, loop_counts = map(counters_tuple, (batch_chip, loop_chip))
    assert batch_counts[:4] == loop_counts[:4]
    np.testing.assert_allclose(batch_counts[4:], loop_counts[4:], rtol=1e-12)


class TestEmbedPages:
    def test_matches_sequential_embed_bits(self, key):
        # Spans three blocks, out of block order, public bits half given.
        assert_embed_matches_loop(
            [(2, 1), (0, 3), (2, 0), (1, 5), (0, 0)],
            [True, False, True, False, True],
            key,
        )

    def test_all_ones_hidden_vector_costs_no_read(self, chip, key):
        public = page_bits(chip, 0)
        chip.program_page(0, 0, public)
        VtHi(chip, STANDARD_CONFIG).embed_bits(
            0, 0, np.ones(64, np.uint8), key, public_bits=public
        )
        assert chip.counters.reads == 0


@settings(max_examples=10, deadline=None)
@given(
    locations=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, PAGES_PER_BLOCK - 1)),
        unique=True, min_size=1, max_size=6,
    ),
    pass_publics=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_embed_locations_property(locations, pass_publics, seed):
    """Any location subset, in any order: embed_locations == embed_bits."""
    key = HidingKey.generate(b"batch-property-key")
    assert_embed_matches_loop(locations, pass_publics, key, seed)
