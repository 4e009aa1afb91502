"""Every command that names cells takes 1-D integer lists only.

A float, bool or multi-dimensional cell list is rejected with one
:class:`AddressError`, in process and over the wire alike, before the
chip changes; it is never truncated or flattened into cell indices.  An
empty list of any dtype stays valid.  ``apply_stress`` checks every page
and every cell list before it touches a trap.
"""

import numpy as np
import pytest

from repro.nand import TEST_MODEL, AddressError, FlashChip, OpCounters
from repro.onfi import RemoteChip, spawn_chip_server

GEOMETRY = TEST_MODEL.geometry
PARAMS = TEST_MODEL.params
CELLS = GEOMETRY.cells_per_page
PAGES = GEOMETRY.pages_per_block

BAD_LISTS = {
    "float array": np.array([1.7, 2.2]),
    "float list": [0.9],
    "bool": [True, False],
    "2-D": [[1, 2]],
}

COMMANDS = {
    "partial_program": lambda chip, cells: chip.partial_program(0, 0, cells),
    "embed_locations": lambda chip, cells: chip.embed_locations(
        [(0, 0, cells)], 200.0, 1
    ),
    "read_locations": lambda chip, cells: chip.read_locations(
        [(0, 0)], cells=[cells]
    ),
    "probe_voltages_locations": lambda chip, cells: (
        chip.probe_voltages_locations([(0, 0)], cells=[cells])
    ),
}


@pytest.fixture
def chips():
    """A local chip and a served one with page 0 of block 0 programmed,
    plus the chip each one's state lives on."""
    local = FlashChip(GEOMETRY, PARAMS, seed=5)
    sock, handle = spawn_chip_server(GEOMETRY, PARAMS, seed=5, backend="thread")
    remote = RemoteChip(sock, GEOMETRY, PARAMS)
    data = (np.arange(CELLS) % 3 == 0).astype(np.uint8)
    for chip in (local, remote):
        chip.program_page(0, 0, data)
    remote.drain()
    try:
        yield [(local, local), (remote, handle.chip)]
    finally:
        remote.close()
        handle.close()


def snapshot(state_chip):
    state = state_chip._block(0)
    return (
        state.voltages.tobytes(),
        state.page_pp_pulses.tobytes(),
        state.page_exposure.tobytes(),
        state_chip.counters.copy(),
    )


@pytest.mark.parametrize("kind", list(BAD_LISTS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bad_cell_list_is_one_error_in_process_and_over_the_wire(
    chips, command, kind
):
    messages = []
    for chip, state_chip in chips:
        before = snapshot(state_chip)
        with pytest.raises(
            AddressError, match="must be a 1-D integer array"
        ) as raised:
            COMMANDS[command](chip, BAD_LISTS[kind])
        messages.append(str(raised.value))
        if isinstance(chip, RemoteChip):
            chip.drain()
        assert snapshot(state_chip) == before
    assert messages[0] == messages[1]


@pytest.mark.parametrize("command", ["partial_program", "embed_locations"])
def test_empty_cell_list_stays_valid(chips, command):
    for chip, _ in chips:
        COMMANDS[command](chip, [])
        if isinstance(chip, RemoteChip):
            chip.drain()
    assert snapshot(chips[0][1]) == snapshot(chips[1][1])


@pytest.mark.parametrize("kind", list(BAD_LISTS))
def test_apply_stress_rejects_bad_cell_lists(kind):
    chip = FlashChip(GEOMETRY, PARAMS, seed=5)
    with pytest.raises(
        AddressError,
        match=r"^apply_stress cells of page 1 must be a 1-D integer array",
    ):
        chip.apply_stress(0, {0: [1, 2], 1: BAD_LISTS[kind]}, cycles=10)
    assert_unstressed(chip)


@pytest.mark.parametrize(
    "cells_by_page, match",
    [
        ({0: [1, 2], 1: [CELLS + 5]}, "apply_stress cell index out of range"),
        ({0: [1, 2], 1: [-1]}, "apply_stress cell index out of range"),
        ({0: [1, 2], PAGES: [3]}, f"page {PAGES} out of range"),
    ],
)
def test_rejected_apply_stress_changes_nothing(cells_by_page, match):
    chip = FlashChip(GEOMETRY, PARAMS, seed=5)
    with pytest.raises(AddressError, match=match):
        chip.apply_stress(0, cells_by_page, cycles=10)
    assert_unstressed(chip)


def assert_unstressed(chip):
    state = chip._block(0)
    assert state.page_trap == {}
    assert state.page_stress_pec == {}
    assert state.pec == 0 and state.erase_epoch == 0
    assert chip.counters == OpCounters()
