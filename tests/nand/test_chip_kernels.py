"""Property tests for the block-level chip kernels (DESIGN §11).

The chip data plane runs as batched ndarray kernels with lazy
per-(page, epoch) latent-field caches.  These tests pin the contracts
the rebuild relies on:

* batch ops equal the serial single-page loops bit for bit under any
  wear level, clock position, partial-program history, and any page
  subset in any order;
* cached latent fields (leakage, disturb, effective rows, PP response)
  never survive an erase and always equal a cold recompute;
* ``cycle_block`` equals the explicit erase + per-page program loop it
  replaced, pattern draws and wear accounting included;
* an erase draws no row: erasing a block the chip has not materialised
  leaves what touch-then-erase leaves, refused erases (factory-bad,
  strict endurance) included, and every row is drawn on first use.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL, EraseError, FlashChip, WearOutError
from repro.rng import substream

GEOMETRY = TEST_MODEL.geometry
PAGES_PER_BLOCK = GEOMETRY.pages_per_block
CELLS = GEOMETRY.cells_per_page


def fresh_chip(seed=1234):
    return FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)


def chip_pair(seed=1234):
    return fresh_chip(seed), fresh_chip(seed)


def pattern(seed, page):
    rng = substream(seed, "kernel-test-pattern", page)
    return (rng.random(CELLS) < 0.5).astype(np.uint8)


def counters_tuple(chip):
    c = chip.counters
    return (
        c.reads, c.programs, c.erases, c.partial_programs,
        c.busy_time_s, c.energy_j,
    )


# ----------------------------------------------------------------------
# batch == serial under arbitrary device state


@settings(max_examples=10, deadline=None)
@given(
    pages=st.lists(
        st.integers(0, PAGES_PER_BLOCK - 1),
        unique=True, min_size=1, max_size=PAGES_PER_BLOCK,
    ),
    pec=st.integers(0, 2500),
    hours=st.floats(0.0, 2000.0),
    pp_pulses=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_batch_equals_serial_under_wear_clock_and_pp(
    pages, pec, hours, pp_pulses, seed
):
    """Any wear, clock, and PP history: batch ops == serial loops."""
    batch_chip, loop_chip = chip_pair(seed)
    for c in (batch_chip, loop_chip):
        c.age_block(0, pec)
    data = [pattern(seed, p) for p in pages]
    batch_chip.program_pages(0, pages, data)
    for page, bits in zip(pages, data):
        loop_chip.program_page(0, page, bits)
    cells = np.arange(0, CELLS, 7)
    for _ in range(pp_pulses):
        for c in (batch_chip, loop_chip):
            c.partial_program(0, pages[0], cells, fraction=0.5)
    for c in (batch_chip, loop_chip):
        c.advance_time(hours * 3600.0)
    np.testing.assert_array_equal(
        batch_chip.probe_voltages_batch(0, pages),
        np.stack([loop_chip.probe_voltages(0, p) for p in pages]),
    )
    np.testing.assert_array_equal(
        batch_chip.read_pages(0, pages),
        np.stack([loop_chip.read_page(0, p) for p in pages]),
    )
    assert counters_tuple(batch_chip) == counters_tuple(loop_chip)


@settings(max_examples=10, deadline=None)
@given(perm=st.permutations(range(PAGES_PER_BLOCK)))
def test_batch_rows_follow_request_order(perm):
    """Row i of a batch is page ``pages[i]`` regardless of ordering."""
    chip = fresh_chip(31)
    chip.program_pages(
        0, range(PAGES_PER_BLOCK),
        [pattern(31, p) for p in range(PAGES_PER_BLOCK)],
    )
    chip.advance_time(3600.0)
    in_order = chip.probe_voltages_batch(0, range(PAGES_PER_BLOCK))
    permuted = chip.probe_voltages_batch(0, perm)
    np.testing.assert_array_equal(permuted, in_order[list(perm)])


# ----------------------------------------------------------------------
# latent-field cache lifecycle


def test_erase_drops_every_latent_cache():
    chip = fresh_chip(7)
    chip.program_page(0, 0, pattern(7, 0))
    chip.partial_program(0, 1, [3, 5], fraction=0.5)
    chip.advance_time(90 * 24 * 3600.0)
    chip.read_page(0, 0)  # warms leak/disturb/effective caches
    state = chip._block(0)
    assert state.leak_fields and state.effective_rows
    assert state.pulse_labels
    chip.erase_block(0)
    assert not state.leak_fields
    assert not state.disturb_fields
    assert not state.effective_rows
    assert not state.pulse_labels


def test_warm_caches_do_not_leak_across_erase():
    """A chip whose caches were warmed before an erase behaves exactly
    like one that never read in the first epoch: stale leakage, disturb
    or effective rows surviving the erase would split these probes."""
    warm, cold = chip_pair(19)
    for c in (warm, cold):
        c.program_page(0, 0, pattern(19, 0))
        c.advance_time(90 * 24 * 3600.0)
    warm.probe_voltages(0, 0)  # populate epoch-1 caches on `warm` only
    for c in (warm, cold):
        c.erase_block(0)
        c.program_page(0, 0, pattern(20, 0))
        c.advance_time(90 * 24 * 3600.0)
    np.testing.assert_array_equal(
        warm.probe_voltages(0, 0), cold.probe_voltages(0, 0)
    )


def test_cache_hit_equals_cold_recompute():
    chip = fresh_chip(11)
    chip.program_page(0, 0, pattern(11, 0))
    chip.advance_time(3600.0)
    state = chip._block(0)
    row = chip._effective_voltages(state, 0).copy()
    leak = chip._leak_field(state, 0)
    disturb = chip._disturb_field(state, 0).copy()
    everywhere = np.arange(chip.geometry.cells_per_page)
    response = chip._pp_response(state, 2, everywhere)
    state.leak_fields.clear()
    state.disturb_fields.clear()
    state.effective_rows.clear()
    state.pulse_labels.clear()
    np.testing.assert_array_equal(chip._effective_voltages(state, 0), row)
    refreshed = chip._leak_field(state, 0)
    np.testing.assert_array_equal(refreshed.leaky_idx, leak.leaky_idx)
    np.testing.assert_array_equal(
        refreshed.neg_log_magnitude, leak.neg_log_magnitude
    )
    np.testing.assert_array_equal(chip._disturb_field(state, 0), disturb)
    # The PP response keeps no field: a subset evaluation is the full
    # one at those cells.
    subset = np.array([everywhere.size - 1, 5, 0, 77])
    np.testing.assert_array_equal(
        chip._pp_response(state, 2, subset), response[subset]
    )


def test_partial_program_invalidates_effective_row():
    """A PP pulse after a probe must show up in the next probe — the
    cached effective row may not shadow the new charge."""
    warm, control = chip_pair(23)
    for c in (warm, control):
        c.program_page(0, 0, pattern(23, 0))
        c.advance_time(3600.0)
    warm.probe_voltages(0, 0)  # caches the pre-pulse effective row
    cells = np.arange(0, CELLS, 5)
    for c in (warm, control):
        c.partial_program(0, 0, cells, fraction=1.0)
    np.testing.assert_array_equal(
        warm.probe_voltages(0, 0), control.probe_voltages(0, 0)
    )


# ----------------------------------------------------------------------
# cycle_block == explicit serial loop


def test_cycle_block_matches_explicit_serial_loop():
    cycles = 3
    fast, slow = chip_pair(777)
    fast.cycle_block(0, cycles)
    pattern_rng = substream(slow.seed, "cycle-pattern", 0)
    for _ in range(cycles):
        slow.erase_block(0)
        for page in range(PAGES_PER_BLOCK):
            draws = pattern_rng.random(CELLS)
            slow.program_page(0, page, (draws < 0.5).astype(np.uint8))
    slow.erase_block(0)
    assert fast.block_pec(0) == slow.block_pec(0)
    np.testing.assert_array_equal(
        fast._block(0).voltages, slow._block(0).voltages
    )
    assert counters_tuple(fast) == counters_tuple(slow)


def test_cycle_block_without_program_only_erases():
    a, b = chip_pair(81)
    a.cycle_block(0, 4, program=False)
    for _ in range(4):
        b.erase_block(0)
    assert a.block_pec(0) == b.block_pec(0) == 4
    np.testing.assert_array_equal(a._block(0).voltages, b._block(0).voltages)


# ----------------------------------------------------------------------
# erased-state kernels


def test_fresh_block_equals_epoch_zero_erase_draws():
    """"NAND ships erased": a never-touched block carries the same
    erased-state sample a block erased in epoch 0 would."""
    chip = fresh_chip(101)
    fresh_rows = chip._block(0).voltages.copy()
    assert chip.block_pec(0) == 0
    # An aged twin erased into epoch 1 differs (new epoch, new draws) …
    other = fresh_chip(101)
    other.erase_block(0)
    assert not np.array_equal(other._block(0).voltages, fresh_rows)
    # … but the same chip re-materialised reproduces epoch 0 exactly.
    again = fresh_chip(101)
    np.testing.assert_array_equal(again._block(0).voltages, fresh_rows)


def test_erased_pages_read_all_ones_when_fresh():
    chip = fresh_chip(5)
    bits = chip.read_pages(0, range(PAGES_PER_BLOCK))
    assert (bits == 1).all()


# ----------------------------------------------------------------------
# erasing a block the chip has not materialised


def block_snapshot(chip, block):
    """Everything an erase leaves behind: voltages, levels, wear."""
    state = chip._block(block)
    return (
        state.voltages.copy(),
        [state.levels(page, state.pec) for page in range(PAGES_PER_BLOCK)],
        (state.pec, state.erase_epoch, state.bad),
        counters_tuple(chip),
    )


def assert_same_block(left, right):
    np.testing.assert_array_equal(left[0], right[0])
    assert left[1:] == right[1:]


ERASES = {
    "erase": lambda chip: chip.erase_block(0),
    "age": lambda chip: chip.age_block(0, 1200),
    "cycle": lambda chip: chip.cycle_block(0, 2),
}


@pytest.mark.parametrize("how", list(ERASES))
def test_erase_of_untouched_block_equals_touch_then_erase(how):
    """An erase draws no row, and the block ends exactly as touching it
    first (and drawing its epoch-0 rows) and then erasing leaves it."""
    fresh, touched = chip_pair(61)
    touched._block(0).voltages  # materialises block 0, epoch-0 rows drawn
    for chip in (fresh, touched):
        ERASES[how](chip)
        assert chip._block(0).owed.all()
    assert_same_block(block_snapshot(fresh, 0), block_snapshot(touched, 0))
    np.testing.assert_array_equal(
        fresh.probe_voltages_batch(0, range(PAGES_PER_BLOCK)),
        touched.probe_voltages_batch(0, range(PAGES_PER_BLOCK)),
    )


@pytest.mark.parametrize("how", ["erase", "age"])
def test_refused_erase_of_untouched_block_leaves_it_filled(how):
    """A factory-bad block still raises EraseError and keeps its
    epoch-0 rows, exactly as when it was touched first."""
    fresh = FlashChip(GEOMETRY, TEST_MODEL.params, seed=3, factory_bad_blocks=1)
    touched = FlashChip(
        GEOMETRY, TEST_MODEL.params, seed=3, factory_bad_blocks=1
    )
    (bad,) = fresh.factory_bad_blocks
    touched._block(bad).voltages
    for chip in (fresh, touched):
        with pytest.raises(EraseError, match="marked bad"):
            if how == "erase":
                chip.erase_block(bad)
            else:
                chip.age_block(bad, 500)
    assert_same_block(block_snapshot(fresh, bad), block_snapshot(touched, bad))
    assert fresh.counters.total_ops == 0
    np.testing.assert_array_equal(
        fresh.read_pages(bad, range(PAGES_PER_BLOCK)),
        touched.read_pages(bad, range(PAGES_PER_BLOCK)),
    )


def test_strict_endurance_refusal_of_untouched_block_leaves_it_filled():
    """Aging an untouched block past strict endurance raises WearOutError
    and leaves its epoch-0 rows at the wear they were drawn at — not at
    the wear the refused erase set — while an erase within endurance
    leaves what touch-then-erase leaves."""
    endurance = TEST_MODEL.params.wear.endurance_pec
    fresh, touched = (
        FlashChip(GEOMETRY, TEST_MODEL.params, seed=9, strict_endurance=True)
        for _ in range(2)
    )
    for block in (0, 1):
        touched._block(block).voltages
    for chip in (fresh, touched):
        with pytest.raises(WearOutError, match="exceeded endurance"):
            chip.age_block(0, endurance + 2)
        chip.erase_block(1)
    for block in (0, 1):
        assert_same_block(
            block_snapshot(fresh, block), block_snapshot(touched, block)
        )
    assert fresh.is_bad_block(0) and not fresh.is_bad_block(1)
    assert fresh.block_pec(0) == endurance + 1
