"""Erased rows drawn on first touch (DESIGN §11).

Manufacture and every erase only mark a block's rows owed; a row's
erased voltages are drawn, from the epoch's ``("erase", block, epoch,
page)`` stream at the wear the opening erase left, the first time a
kernel reads, probes, programs or pulses it.  So when a row is drawn
must change nothing: a lazy chip and one forced eager after every
command (by reading ``BlockState.voltages``) agree on every output,
error, voltage, exposure, pulse count and counter.  Three rules make
that hold, and the trace below exercises each:

* a writer of a whole row (the MLC program) settles it without drawing;
* a writer of some cells (a pulse, :class:`IntervalHider`) draws first;
* a refused erase leaves owed rows at the wear of the erase that opened
  their epoch, not at the wear it set.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import HidingKey
from repro.hiding.interval import IntervalHider, IntervalHidingConfig
from repro.nand import TEST_MODEL, FlashChip, MlcView, NandError

GEOMETRY = TEST_MODEL.geometry
PAGES = GEOMETRY.pages_per_block
CELLS = GEOMETRY.cells_per_page
ENDURANCE = TEST_MODEL.params.wear.endurance_pec
#: Blocks the trace works in; the blocks above are only ever refused.
BLOCKS = 5


def new_chip(seed):
    return FlashChip(
        GEOMETRY, TEST_MODEL.params, seed=seed,
        strict_endurance=True, factory_bad_blocks=1,
    )


def observe(chip):
    """Everything a command can change, the owed rows aside."""
    c = chip.counters
    return (
        (c.reads, c.programs, c.erases, c.partial_programs,
         c.busy_time_s.hex(), c.energy_j.hex()),
        {
            block: (
                state.page_exposure.tobytes(),
                state.page_pp_pulses.tobytes(),
                state.page_programmed.tobytes(),
                (state.pec, state.erase_epoch, state.bad),
            )
            for block, state in chip._blocks.items()
        },
    )


def drawn_rows(lazy, eager):
    """The rows the lazy chip has drawn, and the eager chip's same rows."""
    ours, theirs = {}, {}
    for block, state in lazy._blocks.items():
        drawn = ~state.owed
        ours[block] = state._voltages[drawn].tobytes()
        theirs[block] = eager._blocks[block]._voltages[drawn].tobytes()
    return ours, theirs


def summary(out):
    """What a command returned, as comparable bytes and reprs."""
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, (list, tuple)):
        return [summary(item) for item in out]
    return repr(out)


def outcome(command, chip, mlc, hider):
    try:
        return summary(command(chip, mlc, hider))
    except NandError as exc:
        return type(exc).__name__, str(exc)


def commands(seed, lazy):
    """A seeded stream of commands, each a function of (chip, mlc view,
    interval hider); arguments are drawn once, for both chips."""
    rnd = random.Random(seed)
    cells_rng = np.random.default_rng(seed)
    key = HidingKey.generate(b"owed-rows-%d" % seed)

    def location():
        return rnd.randrange(BLOCKS), rnd.randrange(PAGES)

    def locations():
        return list(dict.fromkeys(location() for _ in range(rnd.randint(1, 3))))

    def cells(size=None, repeats=False):
        size = rnd.randint(0, 40) if size is None else size
        if repeats:
            return cells_rng.integers(0, CELLS, size)
        return cells_rng.choice(CELLS, size=size, replace=False)

    def bits():
        return (cells_rng.random(CELLS) < 0.5).astype(np.uint8)

    def programmed():
        found = [
            (block, int(page))
            for block, state in sorted(lazy._blocks.items()) if block < BLOCKS
            for page in np.flatnonzero(state.page_programmed)
        ]
        return rnd.sample(found, min(len(found), 2)) or locations()

    def program():
        locs = locations()
        data = [bits() for _ in locs]
        return lambda chip, mlc, hider: chip.program_locations(locs, data)

    def read():
        locs, threshold = locations(), rnd.choice([None, 40.0])
        lists = [cells(repeats=True) for _ in locs] if rnd.random() < 0.5 else None
        return lambda chip, mlc, hider: chip.read_locations(
            locs, threshold=threshold, cells=lists
        )

    def probe():
        locs = locations()
        lists = [cells(repeats=True) for _ in locs] if rnd.random() < 0.5 else None
        return lambda chip, mlc, hider: chip.probe_voltages_locations(
            locs, cells=lists
        )

    def pulse():
        (block, page), chosen = location(), cells()
        fraction = rnd.choice([0.5, 1.0, 1.7])
        return lambda chip, mlc, hider: chip.partial_program(
            block, page, chosen, fraction=fraction
        )

    def embed():
        items = [(block, page, cells()) for block, page in programmed()]
        target, steps = rnd.choice([40.0, 60.0]), rnd.randint(1, 3)
        return lambda chip, mlc, hider: chip.embed_locations(
            items, target, steps
        )

    def erase():
        block = rnd.randrange(BLOCKS)
        return lambda chip, mlc, hider: chip.erase_block(block)

    def age():
        # Near the end of life, a later stress's closing erase is refused.
        block, pec = rnd.randrange(BLOCKS), rnd.choice([0, 800, 2990])
        return lambda chip, mlc, hider: chip.age_block(block, pec)

    def refuse():
        # A block outside the trace's own: materialised by one command
        # (so the eager chip draws its epoch-0 rows at PEC 0), then aged
        # past strict endurance and probed by the next.
        block = rnd.randrange(BLOCKS, GEOMETRY.n_blocks)
        pec, page = ENDURANCE + 1 + rnd.randrange(5), rnd.randrange(PAGES)

        def run(chip, mlc, hider):
            refused = outcome(
                lambda chip, mlc, hider: chip.age_block(block, pec),
                chip, mlc, hider,
            )
            return refused, chip.probe_voltages_locations([(block, page)])
        return [lambda chip, mlc, hider: chip.is_bad_block(block), run]

    def stress():
        block, cycles = rnd.randrange(BLOCKS), rnd.choice([1, 20])
        by_page = {
            page: cells(rnd.randint(1, 8))
            for page in rnd.sample(range(PAGES), 2)
        }
        return lambda chip, mlc, hider: chip.apply_stress(
            block, by_page, cycles
        )

    def cycle():
        block, program_too = rnd.randrange(BLOCKS), rnd.random() < 0.5
        return lambda chip, mlc, hider: chip.cycle_block(
            block, 1, program=program_too
        )

    def release():
        block = rnd.randrange(BLOCKS)
        return lambda chip, mlc, hider: chip.release_block(block)

    def mlc_program():
        (block, page), lower, upper = location(), bits(), bits()
        return lambda chip, mlc, hider: mlc.program_page(
            block, page, lower, upper
        )

    def mlc_read():
        block, page = location()
        return lambda chip, mlc, hider: mlc.read_page(block, page)

    def hide():
        (block, page), lower, upper = location(), bits(), bits()
        hidden = (cells_rng.random(64) < 0.5).astype(np.uint8)
        return lambda chip, mlc, hider: hider.program_with_hidden(
            block, page, lower, upper, hidden, key
        )

    def hide_read():
        block, page = location()
        return lambda chip, mlc, hider: hider.read_hidden(
            block, page, key, 64
        )

    def advance():
        seconds = rnd.choice([3600.0, 30 * 86400.0])
        return lambda chip, mlc, hider: chip.advance_time(seconds)

    makers = [
        program, program, read, read, probe, probe, pulse, pulse, embed,
        erase, age, refuse, stress, cycle, release, mlc_program, mlc_read,
        hide, hide_read, advance,
    ]
    while True:
        made = rnd.choice(makers)()
        yield from made if isinstance(made, list) else [made]


def views_of(chip):
    """(chip, MLC view, interval hider): what a command acts through."""
    mlc = MlcView(chip)
    return chip, mlc, IntervalHider(mlc, IntervalHidingConfig(bits_per_page=64))


def check_trace(seed, n_commands):
    lazy, eager = new_chip(seed), new_chip(seed)
    views = [views_of(lazy), views_of(eager)]
    stream = commands(seed, lazy)
    for _ in range(n_commands):
        command = next(stream)
        assert outcome(command, *views[0]) == outcome(command, *views[1])
        assert observe(lazy) == observe(eager)
        ours, theirs = drawn_rows(lazy, eager)
        assert ours == theirs
        for state in eager._blocks.values():
            state.voltages
    return lazy, eager


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_lazy_chip_equals_chip_drawn_eagerly_after_every_command(seed):
    lazy, eager = check_trace(seed, 60)
    # The lazy chip still owes rows the trace never touched ...
    assert any(state.owed.any() for state in lazy._blocks.values())
    # ... and drawing them now gives the rows the eager chip holds.
    assert lazy._blocks.keys() == eager._blocks.keys()
    for block, state in lazy._blocks.items():
        np.testing.assert_array_equal(
            state.voltages, eager._blocks[block].voltages
        )


def test_untouched_rows_are_never_drawn_nor_written():
    """Erasing draws nothing; programming and reading draw only the rows
    they use, and a row never drawn stays as allocated (all zeros)."""
    chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=4)
    chip.erase_block(0)
    state = chip._block(0)
    assert state.owed.all()
    chip.program_pages(0, [0, 2], [np.zeros(CELLS, np.uint8)] * 2)
    chip.read_page(0, 5)
    chip.probe_voltages_locations([(0, 6)], cells=[np.array([3])])
    drawn = [0, 2, 5, 6]
    assert np.flatnonzero(~state.owed).tolist() == drawn
    assert not state._voltages[state.owed].any()
    assert state._voltages[drawn].all(axis=1).all()


def test_mlc_program_settles_an_owed_row_and_reads_keep_it():
    """The MLC program replaces the whole row: the owed erase draw must
    never land on top of it later."""
    lazy, eager = (
        FlashChip(GEOMETRY, TEST_MODEL.params, seed=8) for _ in range(2)
    )
    eager._block(1).voltages
    rng = np.random.default_rng(8)
    lower = (rng.random(CELLS) < 0.5).astype(np.uint8)
    upper = (rng.random(CELLS) < 0.5).astype(np.uint8)
    for chip in (lazy, eager):
        MlcView(chip).program_page(1, 3, lower, upper)
    assert np.flatnonzero(~lazy._block(1).owed).tolist() == [3]
    reads = [
        (chip.read_page(1, 3), MlcView(chip).read_page(1, 3))
        for chip in (lazy, eager)
    ]
    assert summary(reads[0]) == summary(reads[1])
    np.testing.assert_array_equal(
        lazy._block(1).voltages, eager._block(1).voltages
    )
