"""Cells settled on first touch (DESIGN §11).

A cell's voltage is a counter-based field of its page's labels and its
index: the epoch's erased field, or, for a '0' cell of the epoch's
program, the programmed field.  Manufacture, an erase and a program
evaluate nothing; a cell settles — its value is evaluated and stored —
the first time a kernel names it, and whole-row users (full-page reads
and probes, leakage rows, MLC, ``BlockState.voltages``) settle the rest
of the row.  So when and in what batch a cell settles must change
nothing: a lazy chip and one forced eager after every command (by
reading ``BlockState.voltages``) agree on every output, error, settled
voltage, exposure, pulse count and counter.  The rules the trace below
exercises:

* a '1' cell settled before its page is programmed keeps its erased
  value, and a settled cell the program sets to '0' takes the
  programmed field;
* a pulse settles the cells it charges first; a writer that sets cells
  (:class:`IntervalHider`) settles them without evaluating them;
* a refused erase leaves the erased field at the wear of the erase that
  opened the epoch, not at the wear it set.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import HidingKey
from repro.hiding.interval import IntervalHider, IntervalHidingConfig
from repro.nand import TEST_MODEL, FlashChip, MlcView, NandError
from repro.nand.block import SETTLED

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
    """Everything a command can change, the unsettled cells aside."""
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


def settled_mask(state):
    """Which cells of the block hold their value in the store."""
    mask = np.zeros(state._voltages.shape, dtype=bool)
    mask[state.row_settled] = True
    for page, codes in state.settle_codes.items():
        mask[page] |= codes == SETTLED
    return mask


def settled_cells(lazy, eager):
    """The lazy chip's settled cells, and the eager chip's same cells."""
    ours, theirs = {}, {}
    for block, state in lazy._blocks.items():
        settled = settled_mask(state)
        ours[block] = state._voltages[settled].tobytes()
        theirs[block] = eager._blocks[block]._voltages[settled].tobytes()
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


class Commands:
    """Command makers: each draws its arguments once, from seeded
    generators, and returns a function of (chip, mlc view, interval
    hider) — or a list of them — to run on both chips."""

    def __init__(self, seed, lazy):
        self.rnd = random.Random(seed)
        self.cells_rng = np.random.default_rng(seed)
        self.key = HidingKey.generate(b"settled-cells-%d" % seed)
        self.lazy = lazy

    def location(self):
        return self.rnd.randrange(BLOCKS), self.rnd.randrange(PAGES)

    def locations(self):
        picks = (self.location() for _ in range(self.rnd.randint(1, 3)))
        return list(dict.fromkeys(picks))

    def cells(self, size=None, repeats=False):
        """A random subset of a page's cells in random order: distinct,
        or with repeats, or (sometimes, for lists that may repeat) every
        cell of the page permuted."""
        size = self.rnd.randint(0, 40) if size is None else size
        if repeats:
            if self.rnd.random() < 0.1:
                return self.cells_rng.permutation(CELLS)
            return self.cells_rng.integers(0, CELLS, size)
        return self.cells_rng.choice(CELLS, size=size, replace=False)

    def bits(self):
        return (self.cells_rng.random(CELLS) < 0.5).astype(np.uint8)

    def programmed(self):
        found = [
            (block, int(page))
            for block, state in sorted(self.lazy._blocks.items())
            if block < BLOCKS
            for page in np.flatnonzero(state.page_programmed)
        ]
        return self.rnd.sample(found, min(len(found), 2)) or self.locations()

    def cell_lists(self, count):
        if self.rnd.random() < 0.3:
            return None
        return [self.cells(repeats=True) for _ in range(count)]

    def program(self):
        locs = self.locations()
        data = [self.bits() for _ in locs]
        return lambda chip, mlc, hider: chip.program_locations(locs, data)

    def read(self):
        locs, threshold = self.locations(), self.rnd.choice([None, 40.0])
        lists = self.cell_lists(len(locs))
        return lambda chip, mlc, hider: chip.read_locations(
            locs, threshold=threshold, cells=lists
        )

    def probe(self):
        locs = self.locations()
        lists = self.cell_lists(len(locs))
        return lambda chip, mlc, hider: chip.probe_voltages_locations(
            locs, cells=lists
        )

    def pulse(self):
        (block, page), chosen = self.location(), self.cells()
        fraction = self.rnd.choice([0.5, 1.0, 1.7])
        return lambda chip, mlc, hider: chip.partial_program(
            block, page, chosen, fraction=fraction
        )

    def embed(self):
        items = [(block, page, self.cells()) for block, page in self.programmed()]
        target, steps = self.rnd.choice([40.0, 60.0]), self.rnd.randint(1, 3)
        return lambda chip, mlc, hider: chip.embed_locations(
            items, target, steps
        )

    def erase(self):
        block = self.rnd.randrange(BLOCKS)
        return lambda chip, mlc, hider: chip.erase_block(block)

    def age(self):
        # Near the end of life, a later stress's closing erase is refused.
        block = self.rnd.randrange(BLOCKS)
        pec = self.rnd.choice([0, 800, 2990])
        return lambda chip, mlc, hider: chip.age_block(block, pec)

    def refuse(self):
        # A block outside the trace's own: materialised by one command
        # (so the eager chip settles its epoch-0 cells at PEC 0), then
        # aged past strict endurance and probed by the next.
        block = self.rnd.randrange(BLOCKS, GEOMETRY.n_blocks)
        pec = ENDURANCE + 1 + self.rnd.randrange(5)
        page = self.rnd.randrange(PAGES)

        def run(chip, mlc, hider):
            refused = outcome(
                lambda chip, mlc, hider: chip.age_block(block, pec),
                chip, mlc, hider,
            )
            return refused, chip.probe_voltages_locations([(block, page)])
        return [lambda chip, mlc, hider: chip.is_bad_block(block), run]

    def stress(self):
        block, cycles = self.rnd.randrange(BLOCKS), self.rnd.choice([1, 20])
        by_page = {
            page: self.cells(self.rnd.randint(1, 8))
            for page in self.rnd.sample(range(PAGES), 2)
        }
        return lambda chip, mlc, hider: chip.apply_stress(
            block, by_page, cycles
        )

    def cycle(self):
        block = self.rnd.randrange(BLOCKS)
        program_too = self.rnd.random() < 0.5
        return lambda chip, mlc, hider: chip.cycle_block(
            block, 1, program=program_too
        )

    def release(self):
        block = self.rnd.randrange(BLOCKS)
        return lambda chip, mlc, hider: chip.release_block(block)

    def mlc_program(self):
        (block, page), lower, upper = self.location(), self.bits(), self.bits()
        return lambda chip, mlc, hider: mlc.program_page(
            block, page, lower, upper
        )

    def mlc_read(self):
        block, page = self.location()
        return lambda chip, mlc, hider: mlc.read_page(block, page)

    def hide(self):
        (block, page), lower, upper = self.location(), self.bits(), self.bits()
        hidden = (self.cells_rng.random(64) < 0.5).astype(np.uint8)
        key = self.key
        return lambda chip, mlc, hider: hider.program_with_hidden(
            block, page, lower, upper, hidden, key
        )

    def hide_read(self):
        (block, page), key = self.location(), self.key
        return lambda chip, mlc, hider: hider.read_hidden(
            block, page, key, 64
        )

    def advance(self):
        seconds = self.rnd.choice([3600.0, 30 * 86400.0])
        return lambda chip, mlc, hider: chip.advance_time(seconds)


#: Command kinds, weighted by repetition.
KINDS = [
    "program", "program", "read", "read", "probe", "probe", "pulse",
    "pulse", "embed", "erase", "age", "refuse", "stress", "cycle",
    "release", "mlc_program", "mlc_read", "hide", "hide_read", "advance",
]


def views_of(chip):
    """(chip, MLC view, interval hider): what a command acts through."""
    mlc = MlcView(chip)
    return chip, mlc, IntervalHider(mlc, IntervalHidingConfig(bits_per_page=64))


def check_trace(seed, kinds):
    lazy, eager = new_chip(seed), new_chip(seed)
    views = [views_of(lazy), views_of(eager)]
    makers = Commands(seed, lazy)
    for kind in kinds:
        made = getattr(makers, kind)()
        for command in made if isinstance(made, list) else [made]:
            assert outcome(command, *views[0]) == outcome(command, *views[1])
            assert observe(lazy) == observe(eager)
            ours, theirs = settled_cells(lazy, eager)
            assert ours == theirs
            for state in eager._blocks.values():
                state.voltages
    return lazy, eager


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(KINDS), min_size=30, max_size=60),
)
def test_lazy_chip_equals_chip_settled_eagerly_after_every_command(seed, kinds):
    lazy, eager = check_trace(seed, kinds)
    # Settling every cell the lazy chip has not settled yet gives the
    # voltages the eager chip holds.
    assert lazy._blocks.keys() == eager._blocks.keys()
    for block, state in lazy._blocks.items():
        np.testing.assert_array_equal(
            state.voltages, eager._blocks[block].voltages
        )


def test_a_fixed_trace_leaves_cells_unsettled():
    """The property above is not vacuous: a lazy chip still holds
    unsettled cells after a long trace."""
    lazy, _ = check_trace(7, [KINDS[i % len(KINDS)] for i in range(60)])
    assert any(
        not settled_mask(state).all() for state in lazy._blocks.values()
    )


def test_untouched_cells_are_never_evaluated_nor_written():
    """Erasing and programming settle nothing; reads, probes and pulses
    settle only the cells they name (a whole-page call names every
    cell), and a cell never settled stays as allocated (zero)."""
    chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=4)
    chip.erase_block(0)
    state = chip._block(0)
    chip.program_pages(0, [0, 2], [np.zeros(CELLS, np.uint8)] * 2)
    assert not settled_mask(state).any()
    assert not state._voltages.any()
    chip.read_page(0, 5)
    chip.probe_voltages_locations([(0, 6)], cells=[np.array([3, 3, 9])])
    chip.read_locations([(0, 2)], cells=[np.array([7, 1])])
    chip.partial_program(0, 0, np.array([11, 4]))
    expected = np.zeros(state._voltages.shape, dtype=bool)
    expected[5] = True
    expected[6, [3, 9]] = True
    expected[2, [1, 7]] = True
    expected[0, [4, 11]] = True
    np.testing.assert_array_equal(settled_mask(state), expected)
    assert not state._voltages[~expected].any()
    assert state._voltages[expected].all()


def test_program_unsettles_only_its_zero_cells():
    """A '1' cell settled before its page is programmed keeps its erased
    value; a settled cell the program sets to '0' takes the programmed
    field, whether the row was settled in part or whole."""
    threshold = TEST_MODEL.params.voltage.slc_threshold
    bits = np.ones(CELLS, np.uint8)
    bits[:10] = 0
    for whole in (False, True):
        chip = FlashChip(GEOMETRY, TEST_MODEL.params, seed=12)
        touched = np.arange(20)
        if whole:
            before = chip.probe_voltages(0, 1)[touched]
        else:
            before = chip.probe_voltages_locations(
                [(0, 1)], cells=[touched]
            )[0]
        chip.program_page(0, 1, bits)
        after = chip.probe_voltages_locations([(0, 1)], cells=[touched])[0]
        np.testing.assert_array_equal(after[10:], before[10:])
        assert (after[:10] > threshold).all()
        assert (before[:10] < threshold).all()


def test_mlc_program_settles_the_row_and_reads_keep_it():
    """The MLC program settles the whole row — level-0 cells keep the
    epoch's erased values — so no later evaluation lands on top of it."""
    lazy, eager = (
        FlashChip(GEOMETRY, TEST_MODEL.params, seed=8) for _ in range(2)
    )
    eager._block(1).voltages
    rng = np.random.default_rng(8)
    lower = (rng.random(CELLS) < 0.5).astype(np.uint8)
    upper = (rng.random(CELLS) < 0.5).astype(np.uint8)
    erased = eager._block(1).voltages[3].copy()
    for chip in (lazy, eager):
        MlcView(chip).program_page(1, 3, lower, upper)
    assert np.flatnonzero(lazy._block(1).row_settled).tolist() == [3]
    level_0 = (lower == 1) & (upper == 1)
    np.testing.assert_array_equal(
        lazy._block(1).voltages[3][level_0], erased[level_0]
    )
    reads = [
        (chip.read_page(1, 3), MlcView(chip).read_page(1, 3))
        for chip in (lazy, eager)
    ]
    assert summary(reads[0]) == summary(reads[1])
    np.testing.assert_array_equal(
        lazy._block(1).voltages, eager._block(1).voltages
    )
