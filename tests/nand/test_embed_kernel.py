"""``FlashChip.embed_locations``: Algorithm 1's loop as one chip command.

The kernel must equal the host-side loop it replaced — one probe over
the active items per step, then one pulse per item still below target,
in item order — bit for bit: outcomes, every touched block's voltages,
pulse counts, disturb exposure, ``OpCounters`` and the ``chip.*`` obs
counters.  :func:`reference_embed` keeps that loop as the test oracle,
and the same property runs against a served chip over the wire.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.mlc_extension import (
    COARSE_MLC_CONFIG,
    PRECISE_MLC_CONFIG,
)
from repro.hiding import ENHANCED_CONFIG, STANDARD_CONFIG
from repro.nand import BENCH_MODEL, TEST_MODEL, FlashChip
from repro.nand.errors import AddressError, ProgramError
from repro.onfi import RemoteChip, spawn_chip_server
from repro.rng import substream

GEOMETRY = TEST_MODEL.geometry
CELLS = GEOMETRY.cells_per_page

#: The shipped (target, fraction, precision) operating points.
SHIPPED = [
    (config.threshold + config.guard, config.pp_fraction, config.pp_precision)
    for config in (
        STANDARD_CONFIG, ENHANCED_CONFIG, COARSE_MLC_CONFIG, PRECISE_MLC_CONFIG
    )
]


@pytest.fixture(autouse=True)
def obs_on():
    was = obs.is_enabled()
    obs.set_enabled(True)
    yield
    obs.set_enabled(was)


def reference_embed(chip, items, target, steps, fraction, precision):
    """The host-side loop ``VtHi.embed_prepared`` ran before the kernel."""
    prepared = [
        (int(block), int(page), np.asarray(cells, dtype=np.int64))
        for block, page, cells in items
    ]
    used = [0] * len(prepared)
    below = [cells for _, _, cells in prepared]
    active = [i for i in range(len(prepared)) if below[i].size]
    for _ in range(steps):
        if not active:
            break
        voltages = chip.probe_voltages_locations(
            [prepared[i][:2] for i in active]
        )
        still_active = []
        for row, i in enumerate(active):
            zero_cells = prepared[i][2]
            below[i] = zero_cells[voltages[row, zero_cells] < target]
            if below[i].size == 0:
                continue
            chip.partial_program(
                prepared[i][0], prepared[i][1], below[i],
                fraction=fraction, precision=precision,
            )
            used[i] += 1
            still_active.append(i)
        active = still_active
    return [(used[i], int(below[i].size)) for i in range(len(prepared))]


def cover(seed, block, page):
    rng = substream(seed, "embed-kernel-cover", block, page)
    return (rng.random(CELLS) < 0.5).astype(np.uint8)


def scenario(data, seed):
    """Programmed items across blocks, some already pulsed."""
    n_items = data.draw(st.integers(1, 6), label="n_items")
    flat = data.draw(
        st.lists(
            st.integers(0, GEOMETRY.n_blocks * GEOMETRY.pages_per_block - 1),
            min_size=n_items, max_size=n_items, unique=True,
        ),
        label="locations",
    )
    locations = [divmod(i, GEOMETRY.pages_per_block) for i in flat]
    rng = np.random.default_rng(seed)
    items = []
    for block, page in locations:
        ones = np.flatnonzero(cover(seed, block, page) == 1)
        size = data.draw(
            st.sampled_from([0, 1, 17, 40, 300, 333]), label="cells"
        )
        items.append((block, page, rng.choice(ones, size=size, replace=False)))
    pulsed = data.draw(
        st.lists(st.sampled_from(range(n_items)), max_size=3), label="pulsed"
    )
    steps = data.draw(st.integers(1, 12), label="steps")
    target, fraction, precision = data.draw(
        st.sampled_from(SHIPPED), label="point"
    )
    return items, pulsed, steps, target, fraction, precision


def prepare(chip, seed, items, pulsed):
    chip.program_locations(
        [(block, page) for block, page, _ in items],
        [cover(seed, block, page) for block, page, _ in items],
    )
    for i in pulsed:
        block, page, _ = items[i]
        chip.partial_program(block, page, np.arange(0, CELLS, 9), fraction=0.5)


def block_state(chip, blocks):
    return {
        block: (
            chip._block(block).voltages.copy(),
            chip._block(block).page_pp_pulses.copy(),
            chip._block(block).page_exposure.copy(),
        )
        for block in blocks
    }


def assert_same_state(left, right):
    assert left.keys() == right.keys()
    for block in left:
        for a, b in zip(left[block], right[block]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def counters_of(chip):
    c = chip.counters
    return (
        c.reads, c.programs, c.erases, c.partial_programs,
        c.busy_time_s, c.energy_j,
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_kernel_equals_host_loop(data, seed):
    items, pulsed, steps, target, fraction, precision = scenario(data, seed)
    loop_chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)
    kernel_chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)
    for chip in (loop_chip, kernel_chip):
        prepare(chip, seed, items, pulsed)
    with obs.collect(absorb=False) as by_loop:
        expected = reference_embed(
            loop_chip, items, target, steps, fraction, precision
        )
    with obs.collect(absorb=False) as by_kernel:
        got = kernel_chip.embed_locations(
            items, target, steps, fraction=fraction, precision=precision
        )
    assert got == expected
    assert all(type(v) is int for outcome in got for v in outcome)
    blocks = sorted({block for block, _, _ in items})
    assert_same_state(
        block_state(kernel_chip, blocks), block_state(loop_chip, blocks)
    )
    assert counters_of(kernel_chip) == counters_of(loop_chip)
    assert by_kernel.snapshot.counters == by_loop.snapshot.counters


@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_remote_kernel_equals_local_host_loop(data, seed):
    items, pulsed, steps, target, fraction, precision = scenario(data, seed)
    local = FlashChip(GEOMETRY, TEST_MODEL.params, seed=seed)
    sock, handle = spawn_chip_server(
        GEOMETRY, TEST_MODEL.params, seed=seed, backend="thread"
    )
    remote = RemoteChip(sock, GEOMETRY, TEST_MODEL.params)
    try:
        for chip in (local, remote):
            prepare(chip, seed, items, pulsed)
        remote.obs_collect(reset=True)
        with obs.collect(absorb=False) as by_loop:
            expected = reference_embed(
                local, items, target, steps, fraction, precision
            )
        got = remote.embed_locations(
            items, target, steps, fraction=fraction, precision=precision
        )
        served = remote.obs_collect(reset=True)
        assert got == expected
        assert all(type(v) is int for outcome in got for v in outcome)
        blocks = sorted({block for block, _, _ in items})
        assert_same_state(
            block_state(handle.chip, blocks), block_state(local, blocks)
        )
        assert counters_of(remote) == counters_of(local)
        assert served.counters == by_loop.snapshot.counters
    finally:
        remote.close()
        handle.close()


@pytest.mark.parametrize("pec", [0, 2000])
def test_kernel_equals_host_loop_on_paper_size_pages(pec):
    """Odd-length items on 144,384-cell pages, fresh and worn: each
    item's response is evaluated once at its cells and indexed per
    step, which must equal a pulse evaluating its own cells."""
    geometry = BENCH_MODEL.geometry
    n_cells = geometry.cells_per_page
    chips = [FlashChip(geometry, BENCH_MODEL.params, seed=41) for _ in "ab"]
    rng = substream(41, "paper-size-items")
    items = []
    for block, page, size in [(0, 3, 641), (1, 0, 257), (0, 5, 1)]:
        ones = np.flatnonzero(rng.random(n_cells) < 0.5)
        items.append((block, page, rng.choice(ones, size, replace=False)))
    covers = [
        np.isin(np.arange(n_cells), cells).astype(np.uint8)
        for _, _, cells in items
    ]
    for chip in chips:
        for block in (0, 1):
            chip.age_block(block, pec)
        chip.program_locations([item[:2] for item in items], covers)
    target, fraction, precision = SHIPPED[0]
    loop_chip, kernel_chip = chips
    expected = reference_embed(
        loop_chip, items, target, 10, fraction, precision
    )
    got = kernel_chip.embed_locations(
        items, target, 10, fraction=fraction, precision=precision
    )
    assert got == expected
    assert_same_state(
        block_state(kernel_chip, [0, 1]), block_state(loop_chip, [0, 1])
    )
    assert counters_of(kernel_chip) == counters_of(loop_chip)


# ----------------------------------------------------------------------
# validation: everything is checked before the first probe


def programmed_chip():
    chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=3)
    chip.program_page(1, 0, cover(3, 1, 0))
    return chip


@pytest.mark.parametrize(
    "items, target, steps, kwargs, error, match",
    [
        ([], 36.0, 10, {}, AddressError, "non-empty"),
        ([(1, 0, [1]), (1, 0, [2])], 36.0, 10, {}, AddressError, "distinct"),
        ([(1, 0, [1]), (1, 1, [1])], 36.0, 10, {}, ProgramError,
         "holds no public data"),
        ([(1, 0, [CELLS])], 36.0, 10, {}, AddressError, "cell index"),
        ([(1, 0, [-1])], 36.0, 10, {}, AddressError, "cell index"),
        ([(1, 0, [1])], 36.0, 0, {}, ValueError, "steps must be >= 1"),
        ([(1, 0, [1])], math.nan, 10, {}, ValueError, "target must be finite"),
        ([(1, 0, [1])], math.inf, 10, {}, ValueError, "target must be finite"),
        ([(1, 0, [1])], 36.0, 10, {"fraction": 0.0}, ValueError, "fraction"),
        ([(1, 0, [1])], 36.0, 10, {"fraction": 2.5}, ValueError, "fraction"),
        ([(1, 0, [1])], 36.0, 10, {"precision": 0.0}, ValueError,
         "precision"),
        ([(1, 0, [1, 7, 1])], 36.0, 10, {}, AddressError,
         "repeats a cell index"),
    ],
)
def test_rejected_call_changes_nothing(
    items, target, steps, kwargs, error, match
):
    chip = programmed_chip()
    before = block_state(chip, [1])
    counters = counters_of(chip)
    with obs.collect(absorb=False) as col:
        with pytest.raises(error, match=match):
            chip.embed_locations(items, target, steps, **kwargs)
    assert counters_of(chip) == counters
    assert_same_state(block_state(chip, [1]), before)
    assert col.snapshot.counters == {}


def test_bad_block_is_a_program_error():
    chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=3, factory_bad_blocks=1)
    (bad,) = chip.factory_bad_blocks
    with pytest.raises(ProgramError, match=f"block {bad} is marked bad"):
        chip.embed_locations([(bad, 0, [1])], 36.0, 10)
    assert chip.counters.total_ops == 0


def test_item_without_cells_is_never_probed():
    chip = programmed_chip()
    reads = chip.counters.reads
    assert chip.embed_locations([(1, 0, [])], 36.0, 10) == [(0, 0)]
    assert chip.counters.reads == reads
