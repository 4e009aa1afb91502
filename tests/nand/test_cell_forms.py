"""Cell-addressed reads and probes equal full-page indexing.

``read_locations(..., cells=)`` and ``probe_voltages_locations(...,
cells=)`` return, per location, the full-page row indexed by that
location's cell list, with the full-page call's side effects: one read
accounted per location and the same read-disturb exposure, so every
later full-page read is unchanged too.  The property runs under wear,
clock advances (the retention-leak path), prior partial-program pulses,
repeated reads (growing exposure) and any location order, on the
in-process chip and on a served chip over the wire.

Reads here flip often: the test model's read-disturb probability is
raised so that exposure from earlier reads visibly changes later masks.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL, FlashChip
from repro.onfi import RemoteChip, spawn_chip_server
from repro.rng import substream

GEOMETRY = TEST_MODEL.geometry
CELLS = GEOMETRY.cells_per_page
PAGES = GEOMETRY.pages_per_block
BLOCKS = (0, 1)
PARAMS = replace(
    TEST_MODEL.params,
    disturb=replace(TEST_MODEL.params.disturb, read_flip_prob=2e-3),
)


def pattern(seed, block, page):
    rng = substream(seed, "cell-form-pattern", block, page)
    return (rng.random(CELLS) < 0.5).astype(np.uint8)


def scenario(data, seed):
    """Device state, then rounds of (clock advance, locations, cells)."""
    pec = data.draw(st.sampled_from([0, 900, 2500]), label="pec")
    pulsed = data.draw(
        st.lists(st.integers(0, len(BLOCKS) * PAGES - 1), max_size=3),
        label="pulsed",
    )
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(data.draw(st.integers(1, 3), label="rounds")):
        hours = data.draw(st.sampled_from([0.0, 1.0, 2000.0]), label="hours")
        flat = data.draw(
            st.lists(
                st.integers(0, len(BLOCKS) * PAGES - 1),
                min_size=1, max_size=5, unique=True,
            ),
            label="locations",
        )
        locations = [divmod(i, PAGES) for i in flat]
        # Empty, small, repeated and whole-page lists, any order.
        sizes = [
            data.draw(st.sampled_from([0, 1, 40, CELLS]), label="size")
            for _ in locations
        ]
        cells = [rng.integers(0, CELLS, size) for size in sizes]
        threshold = data.draw(
            st.sampled_from([None, 40.0, 128.0]), label="threshold"
        )
        rounds.append((hours, locations, cells, threshold))
    return pec, pulsed, rounds


def prepare(chip, seed, pec, pulsed, state=None):
    """Wear, program and pulse; `state` is the chip holding the state
    (the served chip for a remote one, which has no ``age_block``)."""
    for block in BLOCKS:
        (state or chip).age_block(block, pec)
        chip.program_pages(
            block, range(PAGES), [pattern(seed, block, p) for p in range(PAGES)]
        )
    for flat in pulsed:
        block, page = divmod(flat, PAGES)
        chip.partial_program(block, page, np.arange(0, CELLS, 11))


def exposure(chip):
    return [chip._block(block).page_exposure.copy() for block in BLOCKS]


def counters_of(chip):
    c = chip.counters
    return (
        c.reads, c.programs, c.erases, c.partial_programs,
        c.busy_time_s, c.energy_j,
    )


def assert_rows_indexed(rows, full, cells):
    assert isinstance(rows, list) and len(rows) == len(cells)
    for row, full_row, index in zip(rows, full, cells):
        assert row.dtype == np.uint8 and row.ndim == 1
        np.testing.assert_array_equal(row, full_row[index])


def check_rounds(full_chip, cell_chip, rounds, full_state, cell_state):
    """Full-page calls on one chip, cell forms on the other, compared."""
    for hours, locations, cells, threshold in rounds:
        for chip in (full_chip, cell_chip):
            chip.advance_time(hours * 3600.0)
        assert_rows_indexed(
            cell_chip.probe_voltages_locations(locations, cells=cells),
            full_chip.probe_voltages_locations(locations),
            cells,
        )
        assert_rows_indexed(
            cell_chip.read_locations(locations, threshold, cells=cells),
            full_chip.read_locations(locations, threshold),
            cells,
        )
        assert counters_of(cell_chip) == counters_of(full_chip)
        for a, b in zip(exposure(cell_state), exposure(full_state)):
            np.testing.assert_array_equal(a, b)
    # A later full-page read sees the same exposure and the same caches.
    everything = [(block, page) for block in BLOCKS for page in range(PAGES)]
    np.testing.assert_array_equal(
        cell_chip.read_locations(everything),
        full_chip.read_locations(everything),
    )
    np.testing.assert_array_equal(
        cell_chip.probe_voltages_locations(everything),
        full_chip.probe_voltages_locations(everything),
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_cell_forms_equal_full_page_indexing(data, seed):
    pec, pulsed, rounds = scenario(data, seed)
    full_chip = FlashChip(GEOMETRY, PARAMS, seed=seed)
    cell_chip = FlashChip(GEOMETRY, PARAMS, seed=seed)
    for chip in (full_chip, cell_chip):
        prepare(chip, seed, pec, pulsed)
    check_rounds(full_chip, cell_chip, rounds, full_chip, cell_chip)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_remote_cell_forms_equal_local_full_page_indexing(data, seed):
    pec, pulsed, rounds = scenario(data, seed)
    local = FlashChip(GEOMETRY, PARAMS, seed=seed)
    sock, handle = spawn_chip_server(
        GEOMETRY, PARAMS, seed=seed, backend="thread"
    )
    remote = RemoteChip(sock, GEOMETRY, PARAMS)
    try:
        prepare(local, seed, pec, pulsed)
        prepare(remote, seed, pec, pulsed, state=handle.chip)
        check_rounds(local, remote, rounds, local, handle.chip)
    finally:
        remote.close()
        handle.close()


def test_unprogrammed_and_empty_lists_still_account_reads():
    """An erased page and an empty list each cost one read, like the
    full-page call, and return what the full page holds there."""
    full_chip = FlashChip(GEOMETRY, PARAMS, seed=5)
    cell_chip = FlashChip(GEOMETRY, PARAMS, seed=5)
    locations = [(2, 0), (2, 1)]
    cells = [np.array([7, 7, 0]), np.array([], dtype=np.int64)]
    assert_rows_indexed(
        cell_chip.read_locations(locations, cells=cells),
        full_chip.read_locations(locations),
        cells,
    )
    assert_rows_indexed(
        cell_chip.probe_voltages_locations(locations, cells=cells),
        full_chip.probe_voltages_locations(locations),
        cells,
    )
    assert counters_of(cell_chip) == counters_of(full_chip)
    assert cell_chip.counters.reads == 4
