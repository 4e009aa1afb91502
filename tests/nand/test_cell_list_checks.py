"""Every command that names cells takes 1-D integer lists only, and
every command that names a location takes integer block and page numbers.

A float, bool or multi-dimensional cell list, and a float or bool block
or page number, is rejected with one :class:`AddressError`, in process
and over the wire alike, before the chip changes; it is never truncated
or flattened into cell indices or addresses.  An empty list of any dtype
stays valid.  ``apply_stress`` checks every page and every cell list
before it touches a trap.
"""

import numpy as np
import pytest

from repro.nand import TEST_MODEL, AddressError, FlashChip, OpCounters
from repro.nand.errors import CommandError
from repro.onfi import RemoteChip, spawn_chip_server
from repro.onfi.wire import OPS, Op, encode

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


def snapshot(state_chip, blocks=(0,)):
    states = [state_chip._block(block) for block in blocks]
    return [
        (
            state.voltages.tobytes(),
            state.page_programmed.tobytes(),
            state.page_pp_pulses.tobytes(),
            state.page_exposure.tobytes(),
        )
        for state in states
    ] + [state_chip.counters.copy()]


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


#: Location numbers that name no block or page: the chip must not
#: truncate them (1.7 -> block 1) or read a bool as 0 or 1.
BAD_NUMBERS = {
    "float block": (1.7, 0),
    "float page": (0, 0.2),
    "numpy float block": (np.float64(1.0), 0),
    "bool block": (True, 0),
    "bool page": (0, np.bool_(False)),
}

LOCATION_COMMANDS = {
    "probe_voltages_locations": lambda chip, block, page: (
        chip.probe_voltages_locations([(0, 1), (block, page)])
    ),
    "read_locations": lambda chip, block, page: chip.read_locations(
        [(block, page)], cells=[[1, 2]]
    ),
    "program_page": lambda chip, block, page: chip.program_page(
        block, page, np.zeros(CELLS, dtype=np.uint8)
    ),
    "partial_program": lambda chip, block, page: chip.partial_program(
        block, page, [1, 2]
    ),
    "embed_locations": lambda chip, block, page: chip.embed_locations(
        [(block, page, [1, 2])], 200.0, 1
    ),
}


@pytest.mark.parametrize("kind", list(BAD_NUMBERS))
@pytest.mark.parametrize("command", list(LOCATION_COMMANDS))
def test_bad_location_number_is_one_error_in_process_and_over_the_wire(
    chips, command, kind
):
    messages = []
    for chip, state_chip in chips:
        before = snapshot(state_chip, blocks=(0, 1))
        with pytest.raises(
            AddressError, match="number must be an integer"
        ) as raised:
            LOCATION_COMMANDS[command](chip, *BAD_NUMBERS[kind])
        messages.append(str(raised.value))
        if isinstance(chip, RemoteChip):
            chip.drain()
        assert snapshot(state_chip, blocks=(0, 1)) == before
    assert messages[0] == messages[1]


def test_wire_encoder_rejects_non_integral_arrays():
    request = dict(
        target=36.0, steps=3, fraction=1.0, precision=1.0, count=1,
        locations=[(0, 0)], sizes=[1.9], cells=[2],
    )
    with pytest.raises(CommandError, match="sizes must hold integers"):
        encode(OPS[Op.EMBED_LOCATIONS].request, request)
    with pytest.raises(CommandError, match="locations must hold integers"):
        encode(
            OPS[Op.EMBED_LOCATIONS].request,
            {**request, "sizes": [1], "locations": [(0.5, 0)]},
        )


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
