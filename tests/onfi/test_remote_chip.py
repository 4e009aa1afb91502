"""RemoteChip vs FlashChip: bit-identity for every op, property-tested.

The acceptance bar of the wire transport: the same operation sequence
against a served chip and an in-process chip with the same seed yields
identical arrays, identical error types and messages, identical
counters and clocks — across batch shapes and issue orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand import TEST_MODEL, FlashChip
from repro.nand.errors import (
    AddressError,
    CommandError,
    NandError,
    ProgramError,
)
from repro.onfi import FLAG_PARTIAL, Op, RemoteChip, Status, spawn_chip_server

from .conftest import SEED, page_bits

SETTINGS = dict(max_examples=8, deadline=None)

GEOMETRY = TEST_MODEL.geometry


def chip_pair(seed=SEED):
    """A fresh (local, remote, cleanup) triple over a thread server."""
    local = FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)
    sock, handle = spawn_chip_server(
        GEOMETRY, TEST_MODEL.params, seed=seed, backend="thread"
    )
    remote = RemoteChip(sock, GEOMETRY, TEST_MODEL.params)

    def cleanup():
        remote.close()
        handle.close()

    return local, remote, cleanup


# ----------------------------------------------------------------------
# fixed scenarios


def test_hello_verifies_seed_and_clock(remote, local):
    assert remote.seed == local.seed
    assert remote.clock == local.clock == 0.0


def test_hello_rejects_geometry_mismatch():
    from repro.nand import scaled_geometry

    sock, handle = spawn_chip_server(
        GEOMETRY, TEST_MODEL.params, seed=SEED, backend="thread"
    )
    wrong = scaled_geometry(GEOMETRY, n_blocks=GEOMETRY.n_blocks // 2)
    with pytest.raises(CommandError, match="geometry"):
        RemoteChip(sock, wrong, TEST_MODEL.params)
    handle.close()


def test_single_page_ops_identical(remote, local, geometry):
    bits = page_bits(geometry, 1)
    local.program_page(0, 0, bits)
    remote.program_page(0, 0, bits)
    assert np.array_equal(local.read_page(0, 0), remote.read_page(0, 0))
    assert np.array_equal(
        local.read_page(0, 0, threshold=77.5),
        remote.read_page(0, 0, threshold=77.5),
    )
    assert np.array_equal(
        local.probe_voltages(0, 0), remote.probe_voltages(0, 0)
    )
    local.erase_block(0)
    remote.erase_block(0)
    assert np.array_equal(local.read_page(0, 0), remote.read_page(0, 0))


def test_bytes_payloads_canonicalise_identically(remote, local, geometry):
    payload = bytes(range(256)) * (geometry.page_bytes // 256 + 1)
    payload = payload[: geometry.page_bytes]
    local.program_page(1, 0, payload)
    remote.program_page(1, 0, payload)
    assert np.array_equal(local.read_page(1, 0), remote.read_page(1, 0))


def test_partial_program_identical(remote, local):
    cells = [3, 17, 902, 8000]
    local.partial_program(0, 1, cells, fraction=0.6, precision=0.8)
    remote.partial_program(0, 1, cells, fraction=0.6, precision=0.8)
    assert np.array_equal(
        local.probe_voltages(0, 1), remote.probe_voltages(0, 1)
    )


def test_program_reset_sequence_matches_bus_partial_program(
    remote, local, geometry
):
    """The wire PROGRAM + early-RESET charges the pattern's '0' cells at
    the abort time's share of the 600 us partial-program pulse."""
    pattern = np.ones(geometry.cells_per_page, dtype=np.uint8)
    pattern[[5, 99, 1000]] = 0
    local.partial_program(
        0, 2, np.flatnonzero(pattern == 0), fraction=250 / 600
    )
    remote.partial_program_via_reset(0, 2, pattern, abort_after_us=250.0)
    assert np.array_equal(
        local.probe_voltages(0, 2), remote.probe_voltages(0, 2)
    )


def test_later_reset_abort_charges_more(remote, geometry):
    """A partial program really is PROGRAM + early RESET: the later the
    abort, the more charge the held pattern's '0' cells take."""
    cells = np.arange(256)
    pattern = np.ones(geometry.cells_per_page, dtype=np.uint8)
    pattern[cells] = 0
    remote.partial_program_via_reset(0, 0, pattern, abort_after_us=600.0)
    remote.partial_program_via_reset(0, 1, pattern, abort_after_us=120.0)
    late = remote.probe_voltages(0, 0).astype(float)[cells].mean()
    early = remote.probe_voltages(0, 1).astype(float)[cells].mean()
    assert late > early


def test_reset_abort_time_bounds(remote, geometry):
    """An abort time outside (0, 600 us], or NaN, fails the RESET and
    charges nothing."""
    pattern = np.zeros(geometry.cells_per_page, dtype=np.uint8)
    before = remote.probe_voltages(0, 4)
    counters = remote.counters
    for abort_after_us in (0.0, 601.0, float("nan")):
        remote.partial_program_via_reset(
            0, 4, pattern, abort_after_us=abort_after_us
        )
        with pytest.raises(CommandError, match="abort time"):
            remote.drain()
    assert remote.counters.diff(counters).partial_programs == 0
    assert np.array_equal(remote.probe_voltages(0, 4), before)


def test_held_program_aborted_by_other_command(remote):
    """Any frame other than RESET aborts a held PROGRAM, uncharged."""
    before = remote.probe_voltages(0, 3)
    pattern = np.zeros(GEOMETRY.cells_per_page, dtype=np.uint8)
    remote._request(Op.PROGRAM, FLAG_PARTIAL, block=0, page=3, bits=pattern)
    with pytest.raises(CommandError, match="held open"):
        remote.read_page(0, 3)
    # No charge landed, and the connection still serves.
    assert np.array_equal(remote.probe_voltages(0, 3), before)


def test_reset_abort_without_held_program_is_defined(remote):
    remote._request(Op.RESET, abort_after_us=300.0)
    with pytest.raises(CommandError, match="no PROGRAM is held open"):
        remote.drain()


def test_counters_and_clock_track_exactly(remote, local, geometry):
    bits = page_bits(geometry, 2)
    for chip in (local, remote):
        chip.program_page(2, 0, bits)
        chip.read_page(2, 0)
        chip.erase_block(2)
        chip.partial_program(2, 1, [1, 2], fraction=0.5)
        chip.advance_time(3600.0)
    assert local.counters == remote.counters
    assert local.clock == remote.clock
    assert local.block_pec(2) == remote.block_pec(2)
    assert local.is_page_programmed(2, 1) == remote.is_page_programmed(2, 1)


def test_error_parity_types_and_messages(served, local, geometry):
    remote, server_chip = served
    bits = page_bits(geometry, 7)
    for chip in (local, remote):
        chip.program_page(1, 0, bits)
    nan = float("nan")
    n_cells = geometry.cells_per_page
    bad_page = geometry.pages_per_block
    operations = [
        lambda c: c.read_page(0, geometry.pages_per_block),
        lambda c: c.read_page(-1, 0),
        lambda c: c.erase_block(geometry.n_blocks),
        lambda c: c.program_page(0, 0, b"short"),
        lambda c: c.read_pages(0, []),
        lambda c: c.read_pages(0, [0, 0]),
        lambda c: c.read_locations([(0, 0), (0, 0)]),
        lambda c: c.program_pages(0, [0, 1], [b"x"]),
        lambda c: c.partial_program(0, 0, [0], fraction=3.0),
        lambda c: c.partial_program(0, 0, [10**6]),
        lambda c: c.advance_time(-1.0),
        lambda c: c.advance_time(float("nan")),
        lambda c: c.advance_time(float("inf")),
        lambda c: c.embed_locations([(1, 1, [3])], 36.0, 10),
        lambda c: c.embed_locations([(1, 0, [10**6])], 36.0, 10),
        lambda c: c.embed_locations([(1, 0, [3]), (1, 0, [4])], 36.0, 10),
        lambda c: c.embed_locations([(1, 0, [3])], 36.0, 0),
        lambda c: c.embed_locations([(1, 0, [3])], nan, 10),
        lambda c: c.embed_locations([(1, 0, [3])], 36.0, 10, fraction=0.0),
        lambda c: c.embed_locations([(1, 0, [3])], 36.0, 10, fraction=2.5),
        lambda c: c.embed_locations([(1, 0, [3])], 36.0, 10, precision=0.0),
        # Cell lists are checked before locations, client-side on the
        # wire; a bad location with good lists still reaches the server.
        lambda c: c.read_locations([(1, 0)], cells=[[1], [2]]),
        lambda c: c.probe_voltages_locations([(1, 0)], cells=[]),
        lambda c: c.read_locations([(1, 0)], cells=[[n_cells]]),
        lambda c: c.probe_voltages_locations([(1, 0)], cells=[[-1]]),
        lambda c: c.read_locations([(1, 0)], cells=[[[1, 2]]]),
        lambda c: c.probe_voltages_locations([(1, 0)], cells=[[1.5]]),
        lambda c: c.read_locations([(1, bad_page)], cells=[[n_cells]]),
        lambda c: c.probe_voltages_locations(
            [(1, bad_page), (1, 0)], cells=[[1]]
        ),
        lambda c: c.read_locations([(1, bad_page)], cells=[[1]]),
        lambda c: c.probe_voltages_locations([(1, 0), (1, 0)], cells=[[1], []]),
        # A pulse charges each listed cell once.
        lambda c: c.partial_program(1, 0, [5, 9, 5]),
        lambda c: c.embed_locations([(1, 0, [3, 4, 3])], 36.0, 10),
    ]
    pages = range(geometry.pages_per_block)
    for operation in operations:
        outcomes = []
        for chip, state in ((local, local), (remote, server_chip)):
            voltages = chip.probe_voltages_batch(1, pages)
            counters = chip.counters
            exposure = [state._block(b).page_exposure.copy() for b in (0, 1)]
            try:
                operation(chip)
                if chip is remote:
                    remote.drain()
                outcomes.append(None)
            except (NandError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
            # A rejected operation changes nothing.
            assert chip.counters == counters
            for block, before in zip((0, 1), exposure):
                assert np.array_equal(
                    state._block(block).page_exposure, before
                )
            probed = chip.probe_voltages_batch(1, pages)
            assert np.array_equal(probed, voltages)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] is not None


def test_pipelined_error_surfaces_at_sync_point(geometry):
    local, remote, cleanup = chip_pair()
    try:
        bits = page_bits(geometry, 3)
        remote.program_page(0, 0, bits)
        remote.program_page(0, 0, bits)  # second program must fail
        remote.program_page(0, 1, bits)  # still executed server-side
        with pytest.raises(ProgramError, match="already programmed"):
            remote.drain()
        # The failure was consumed; later ops proceed normally.
        local.program_page(0, 0, bits)
        try:
            local.program_page(0, 0, bits)
        except ProgramError:
            pass
        local.program_page(0, 1, bits)
        assert np.array_equal(
            local.read_page(0, 1), remote.read_page(0, 1)
        )
    finally:
        cleanup()


def test_status_register_over_the_wire(remote):
    assert remote.read_status() == Status()
    with pytest.raises(AddressError):
        remote.read_page(0, 10**9)
    status = remote.read_status()
    assert status.failed
    remote.read_page(0, 0)
    status = remote.read_status()
    assert not status.failed and status.failed_previous
    remote.reset()
    remote.drain()
    assert remote.read_status() == Status()


def test_set_read_threshold_wire_state(remote, local, geometry):
    bits = page_bits(geometry, 4)
    local.program_page(3, 0, bits)
    remote.program_page(3, 0, bits)
    remote.set_read_threshold(60.0)
    shifted = local.read_page(3, 0, threshold=60.0)
    assert np.array_equal(remote.read_page(3, 0), shifted)
    remote.set_read_threshold(None)
    default = local.read_page(3, 0)
    assert np.array_equal(remote.read_page(3, 0), default)
    assert not np.array_equal(shifted, default)


def test_reset_clears_threshold(remote, local, geometry):
    """A plain RESET drops the server-held read shift: the next read
    is at the default threshold again."""
    bits = page_bits(geometry, 6)
    local.program_page(3, 2, bits)
    remote.program_page(3, 2, bits)
    remote.set_read_threshold(60.0)
    shifted = local.read_page(3, 2, threshold=60.0)
    assert np.array_equal(remote.read_page(3, 2), shifted)
    remote.reset()
    default = local.read_page(3, 2)
    assert not np.array_equal(shifted, default)
    assert np.array_equal(remote.read_page(3, 2), default)


def test_set_read_threshold_rejects_out_of_range(remote, local, geometry):
    """The level arrives off the wire: outside 0-255, or NaN, the frame
    fails, FAIL is set and the previous shift stays in force."""
    bits = page_bits(geometry, 5)
    local.program_page(3, 1, bits)
    remote.program_page(3, 1, bits)
    remote.set_read_threshold(60.0)
    for level in (300.0, -2.0, float("nan")):
        remote.set_read_threshold(level)
        with pytest.raises(CommandError, match="outside 0-255"):
            remote.drain()
        assert remote.read_status().failed
    shifted = local.read_page(3, 1, threshold=60.0)
    assert not np.array_equal(shifted, local.read_page(3, 1))
    assert np.array_equal(remote.read_page(3, 1), shifted)


def test_read_threshold_rejected_off_the_wire(served, local, geometry):
    """A read's own level gets SET_READ_THRESHOLD's 0-255 check on the
    server: NaN, -5 and 256 fail with CommandError and charge nothing,
    0 and 255 read as the in-process chip does."""
    remote, server_chip = served
    bits = page_bits(geometry, 8)
    for chip in (local, remote):
        chip.program_page(2, 0, bits)
    for level in (float("nan"), -5.0, 256.0):
        counters = remote.counters
        exposure = server_chip._block(2).page_exposure.copy()
        with pytest.raises(CommandError, match="outside 0-255"):
            remote.read_locations([(2, 0)], threshold=level)
        assert remote.read_status().failed
        assert remote.counters == counters
        assert np.array_equal(server_chip._block(2).page_exposure, exposure)
    for level in (0.0, 255.0):
        assert np.array_equal(
            remote.read_page(2, 0, threshold=level),
            local.read_page(2, 0, threshold=level),
        )


# ----------------------------------------------------------------------
# property: batch shapes × issue order


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(**SETTINGS)
def test_batch_ops_bit_identical_across_shapes(data, seed):
    rng = np.random.default_rng(seed)
    local, remote, cleanup = chip_pair(seed=seed % 97)
    try:
        n_ops = data.draw(st.integers(1, 5), label="n_ops")
        for _ in range(n_ops):
            kind = data.draw(
                st.sampled_from(
                    ["program_locs", "read_locs", "probe_locs",
                     "program_pages", "read_pages", "probe_pages",
                     "partial", "erase", "advance"]
                ),
                label="op",
            )
            if kind in ("program_locs", "read_locs", "probe_locs"):
                count = data.draw(st.integers(1, 6), label="n_locs")
                flat = rng.choice(
                    GEOMETRY.n_blocks * GEOMETRY.pages_per_block,
                    size=count, replace=False,
                )
                locations = [
                    (int(i) // GEOMETRY.pages_per_block,
                     int(i) % GEOMETRY.pages_per_block)
                    for i in flat
                ]
                if kind == "program_locs":
                    payloads = [
                        rng.integers(
                            0, 2, GEOMETRY.cells_per_page, dtype=np.uint8
                        )
                        for _ in locations
                    ]
                    for block, _ in {b: None for b, _ in locations}.items():
                        local.erase_block(block)
                        remote.erase_block(block)
                    local.program_locations(locations, payloads)
                    remote.program_locations(locations, payloads)
                elif kind == "read_locs":
                    threshold = data.draw(
                        st.sampled_from([None, 40.0, 128.0]),
                        label="threshold",
                    )
                    assert np.array_equal(
                        local.read_locations(locations, threshold=threshold),
                        remote.read_locations(locations, threshold=threshold),
                    )
                else:
                    assert np.array_equal(
                        local.probe_voltages_locations(locations),
                        remote.probe_voltages_locations(locations),
                    )
            elif kind in ("program_pages", "read_pages", "probe_pages"):
                block = int(rng.integers(GEOMETRY.n_blocks))
                count = data.draw(st.integers(1, 4), label="n_pages")
                pages = rng.choice(
                    GEOMETRY.pages_per_block, size=count, replace=False
                )
                if kind == "program_pages":
                    payloads = [
                        rng.integers(
                            0, 2, GEOMETRY.cells_per_page, dtype=np.uint8
                        )
                        for _ in pages
                    ]
                    local.erase_block(block)
                    remote.erase_block(block)
                    local.program_pages(block, pages, payloads)
                    remote.program_pages(block, pages, payloads)
                elif kind == "read_pages":
                    assert np.array_equal(
                        local.read_pages(block, pages),
                        remote.read_pages(block, pages),
                    )
                else:
                    assert np.array_equal(
                        local.probe_voltages_batch(block, pages),
                        remote.probe_voltages_batch(block, pages),
                    )
            elif kind == "partial":
                block = int(rng.integers(GEOMETRY.n_blocks))
                page = int(rng.integers(GEOMETRY.pages_per_block))
                cells = rng.choice(
                    GEOMETRY.cells_per_page, size=8, replace=False
                )
                fraction = float(rng.uniform(0.1, 1.0))
                local.partial_program(block, page, cells, fraction=fraction)
                remote.partial_program(block, page, cells, fraction=fraction)
            elif kind == "erase":
                block = int(rng.integers(GEOMETRY.n_blocks))
                local.erase_block(block)
                remote.erase_block(block)
            else:
                seconds = float(rng.uniform(0.0, 1e4))
                local.advance_time(seconds)
                remote.advance_time(seconds)
        remote.drain()
        # Full-state equivalence: every page voltage map agrees.
        blocks = rng.choice(GEOMETRY.n_blocks, size=3, replace=False)
        for block in blocks:
            pages = np.arange(GEOMETRY.pages_per_block)
            assert np.array_equal(
                local.probe_voltages_batch(int(block), pages),
                remote.probe_voltages_batch(int(block), pages),
            )
        assert local.counters == remote.counters
        assert local.clock == remote.clock
    finally:
        cleanup()
