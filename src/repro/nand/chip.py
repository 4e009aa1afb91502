"""The NAND flash chip simulator.

:class:`FlashChip` exposes the operations the paper's experimental platform
provides (§6.1-§6.2):

* the standard ONFI command set — :meth:`program_page`, :meth:`read_page`,
  :meth:`erase_block`;
* the vendor's non-public commands the authors obtained under NDA —
  :meth:`probe_voltages` (per-cell voltage measurement in normalised 0-255
  units) and :meth:`partial_program` (a program aborted midway, injecting an
  imprecise positive charge into selected cells);
* :meth:`embed_locations` — Algorithm 1's probe-and-pulse loop as one
  device command, the in-controller programming §6.2 argues a vendor
  could provide;
* threshold-shifted reads (``read_page(threshold=...)``), the vendor command
  "that shifts the reference threshold voltage for reading" used to decode
  hidden data (§1, §5.3);
* wear management — :meth:`cycle_block` (real program/erase cycling) and
  :meth:`age_block` (the simulator's fast equivalent of the paper's
  pre-cycling step, jumping the PEC counter directly);
* a wall clock (:meth:`advance_time`) that drives the retention model; the
  accelerated-bake emulation in :mod:`repro.nand.bake` advances it.

Reads, probes and programs run as ``(block, page)`` location-list kernels
(:meth:`read_locations`, :meth:`probe_voltages_locations`,
:meth:`program_locations`); the page and same-block forms are thin
rewrites in :class:`PageOps`, shared with the wire client.  Reads and
probes also take one cell-index list per location and then cost in
proportion to the cells listed, not the page: a cell's voltage is
evaluated the first time a command names it (:class:`BlockState`), so
an erase or a program evaluates none.

Determinism: a chip is fully determined by ``(geometry, params, seed)``.
Distinct seeds model distinct physical samples of the same chip model — the
paper's "four flash chip samples from the same model" are four seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..rng import (
    box_muller, counter_words, seed_from_prefix, substream, word_uniforms,
)
from .block import BlockState, PageLabels
from .errors import AddressError, EraseError, ProgramError, WearOutError
from .geometry import ChipGeometry, check_integer
from .noise import word_normals
from .params import ChipParams
from .retention import (
    LeakField,
    disturb_field,
    disturb_flips_from_field,
    leak_field,
    leakage_from_field,
)

DataLike = Union[bytes, bytearray, np.ndarray]


def as_bits(geometry: ChipGeometry, data: DataLike) -> np.ndarray:
    """Canonicalise page data into a ``cells_per_page`` uint8 bit array.

    The single validation/conversion path for program payloads: both the
    in-process chip and the wire client (:mod:`repro.onfi`) route through
    it, so a payload rejected locally is rejected remotely with the same
    error type and message — and an accepted one yields the same bits.
    """
    n_cells = geometry.cells_per_page
    if isinstance(data, (bytes, bytearray)):
        if len(data) != geometry.page_bytes:
            raise ProgramError(
                f"page data must be {geometry.page_bytes} bytes, "
                f"got {len(data)}"
            )
        return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
    bits = np.asarray(data)
    if bits.shape != (n_cells,):
        raise ProgramError(
            f"bit array must have shape ({n_cells},), got {bits.shape}"
        )
    if not ((bits == 0) | (bits == 1)).all():
        raise ProgramError("bit array must contain only 0 and 1")
    return bits.astype(np.uint8)


def stack_payloads(geometry: ChipGeometry, data, count: int) -> np.ndarray:
    """Canonicalise `count` program payloads into a ``(count, cells)`` array.

    Shared, like :func:`as_bits`, by the in-process chip and the wire
    client, so both reject a payload list with the same error.
    """
    payloads = list(data)
    if len(payloads) != count:
        raise ProgramError(
            f"got {len(payloads)} payloads for {count} locations"
        )
    return np.stack([as_bits(geometry, payload) for payload in payloads])


def check_locations(geometry: ChipGeometry, locations: Sequence) -> list:
    """Validate a location batch -> ``[(block, page)]``.

    Bounds errors come from ``check_page`` for the first offender in
    list order, so the message matches the serial loop's exactly;
    duplicates are rejected (the serial loops these mirror never legally
    touch the same location twice in one batch).  Pure in geometry and
    inputs — shared by the in-process chip and the wire client.
    """
    locs = integer_locations(locations)
    if not locs:
        raise AddressError("locations must be a non-empty sequence")
    for block, page in locs:
        geometry.check_page(block, page)
    if len(set(locs)) != len(locs):
        raise AddressError("batched locations must be distinct")
    return locs


def integer_locations(locations: Sequence) -> list:
    """``[(block, page)]`` as Python ints, else :class:`AddressError`.

    The type half of :func:`check_locations`, run over every location
    before any range: a float or bool number is rejected, not
    truncated.  The wire client runs it before encoding and leaves the
    ranges to the served chip, whose status register records them.
    """
    pairs = []
    for block, page in locations:
        if type(block) is not int or type(page) is not int:
            check_integer("block", block)
            check_integer("page", page)
            block, page = int(block), int(page)
        pairs.append((block, page))
    return pairs


def check_cell_lists(
    geometry: ChipGeometry, cells: Sequence, count: int
) -> List[np.ndarray]:
    """Validate per-location cell lists -> ``[int64 index array]``.

    Exactly one 1-D integer array per location, every index in
    ``[0, cells_per_page)``; repeated indices are allowed, since reads
    and probes change no cell.  Pure in geometry and inputs, like
    :func:`check_locations`, and run before it on both chips: the wire
    client checks cell lists itself and leaves locations to the served
    chip, so the two raise the same error for every bad call.
    """
    lists = list(cells)
    if len(lists) != count:
        raise AddressError(
            f"got {len(lists)} cell lists for {count} locations"
        )
    n_cells = geometry.cells_per_page
    return [
        _check_cells(
            geometry, index, f"cell list {i}",
            f"cell list {i} has a cell index outside [0, {n_cells})",
        )
        for i, index in enumerate(lists)
    ]


def cell_array(cells, name: str) -> np.ndarray:
    """A cell list as a 1-D int64 array, else :class:`AddressError`.

    A float, bool or multi-dimensional list is rejected, not truncated
    or flattened; an empty list of any dtype is valid.  `name` names the
    list in the error.  Pure in its inputs: the wire client runs it
    before encoding, and the commands it serves run it first too, so
    both chips raise the same error for every bad call.
    """
    array = np.asarray(cells)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise AddressError(
            f"{name} must be a 1-D integer array, got shape "
            f"{array.shape} of {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


def _check_cells(
    geometry: ChipGeometry,
    cells,
    name: str,
    out_of_range: str,
    distinct: str = "",
) -> np.ndarray:
    """One location's cell indices as int64, each in ``[0, cells_per_page)``.

    The cell check of every command that names cells: :func:`cell_array`
    under `name`, then the range, with `out_of_range` as its
    :class:`AddressError` text.  A non-empty `distinct` names a pulse
    command: a pulse charges each listed cell once, so a repeated index
    is an error too.
    """
    cells = cell_array(cells, name)
    # One reduction for both bounds: a negative index is a huge unsigned.
    if cells.size and cells.view(np.uint64).max() >= geometry.cells_per_page:
        raise AddressError(out_of_range)
    if distinct and cells.size > 1:
        ordered = np.sort(cells, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise AddressError(f"{distinct} repeats a cell index")
    return cells


def _check_pulse(fraction: float, precision: float) -> None:
    """Range checks of a partial-program pulse (they also reject NaN)."""
    if not 0.0 < fraction <= 2.0:
        raise ValueError(f"fraction must be in (0, 2], got {fraction}")
    if not 0.0 < precision <= 1.0:
        raise ValueError(f"precision must be in (0, 1], got {precision}")


@dataclass(slots=True)
class OpCounters:
    """Cumulative operation counts plus the time/energy they cost.

    Timing and energy use the per-op figures of §6.1 and do not include
    host/transfer overheads, matching the paper's accounting ("our
    calculations do not take into account data transfer and hardware
    overheads").
    """

    reads: int = 0
    programs: int = 0
    erases: int = 0
    partial_programs: int = 0
    busy_time_s: float = 0.0
    energy_j: float = 0.0

    @property
    def total_ops(self) -> int:
        """All discrete chip operations, regardless of kind."""
        return (
            self.reads + self.programs + self.erases + self.partial_programs
        )

    def copy(self) -> "OpCounters":
        return replace(self)

    def __add__(self, other: "OpCounters") -> "OpCounters":
        """Field-wise sum — merging per-worker counter snapshots."""
        if not isinstance(other, OpCounters):
            return NotImplemented
        return OpCounters(
            self.reads + other.reads,
            self.programs + other.programs,
            self.erases + other.erases,
            self.partial_programs + other.partial_programs,
            self.busy_time_s + other.busy_time_s,
            self.energy_j + other.energy_j,
        )

    def diff(self, earlier: "OpCounters") -> "OpCounters":
        """Counters accumulated since an earlier snapshot."""
        return OpCounters(
            self.reads - earlier.reads,
            self.programs - earlier.programs,
            self.erases - earlier.erases,
            self.partial_programs - earlier.partial_programs,
            self.busy_time_s - earlier.busy_time_s,
            self.energy_j - earlier.energy_j,
        )


#: Per-op metric counters mirroring :class:`OpCounters` into the
#: observability registry, so cross-worker aggregation and the `repro
#: obs` summary see chip activity by name.
#: Pulse normals :meth:`FlashChip.embed_locations` evaluates per item in
#: one counter call, at most: a batch covers as many of the item's next
#: pulses as fit at the cells charging when it starts (at least one).
PULSE_CELLS = 1024


def _pulse_keys(labels: PageLabels, pulses: range) -> List[Tuple[int, int]]:
    """Counter keys of the page's `pulses`: lane 0 of each pulse's
    ``("pp-pulse", block, page, epoch, n)`` label seed, hashed onto the
    page's pulse prefix."""
    return [(seed_from_prefix(labels.pulse, n), 0) for n in pulses]

_OBS_OP_COUNTERS = {
    "read": obs.counter("chip.reads"),
    "program": obs.counter("chip.programs"),
    "erase": obs.counter("chip.erases"),
    "partial_program": obs.counter("chip.partial_programs"),
}


class PageOps:
    """Page and same-block forms of the three location kernels.

    ``read_locations``, ``probe_voltages_locations`` and
    ``program_locations`` are the whole data plane; each form here
    rewrites its call into a ``(block, page)`` list, so
    :class:`FlashChip` and :class:`repro.onfi.RemoteChip` share one copy.
    A one-location kernel call is bit-identical to a single-page op:
    same output, counters, stored voltages and read-disturb exposure.
    """

    geometry: ChipGeometry

    def read_page(
        self, block: int, page: int, threshold: Optional[float] = None
    ) -> np.ndarray:
        """Read a page as a bit array (1 = low voltage).

        With the default threshold this is a standard SLC read.  Passing an
        explicit `threshold` models the vendor's reference-voltage-shift
        command; VT-HI decodes hidden bits by reading at the hiding
        threshold (§5.3).
        """
        return self.read_locations([(block, page)], threshold=threshold)[0]

    def read_pages(
        self,
        block: int,
        pages: Sequence[int],
        threshold: Optional[float] = None,
    ) -> np.ndarray:
        """Read many pages of one block as a ``(len(pages), cells)`` array."""
        return self.read_locations(
            [(block, page) for page in pages], threshold=threshold
        )

    def probe_voltages(self, block: int, page: int) -> np.ndarray:
        """Measure per-cell voltages in normalised units (uint8, 0-255).

        Negative analog voltages read as 0 — the interface "only allows
        measurement of positive voltage in discrete normalized units"
        (§4 footnote 1).  Costs one read operation.
        """
        return self.probe_voltages_locations([(block, page)])[0]

    def probe_voltages_batch(
        self, block: int, pages: Sequence[int]
    ) -> np.ndarray:
        """Per-cell voltages of many pages, shape ``(len(pages), cells)``."""
        return self.probe_voltages_locations([(block, page) for page in pages])

    def program_page(self, block: int, page: int, data: DataLike) -> None:
        """Program public data into an erased page.

        `data` is either ``page_bytes`` bytes or a bit array of
        ``cells_per_page`` 0/1 values.  Bit value 1 leaves the cell erased;
        bit value 0 charges it to the programmed distribution (§5.3: "flash
        cells typically use low voltage levels to store a '1'").
        """
        self.program_locations([(block, page)], [data])

    def program_pages(self, block: int, pages: Sequence[int], data) -> None:
        """Program many erased pages of one block.

        `data` is a ``(len(pages), cells_per_page)`` bit array or a
        sequence of per-page :data:`DataLike` payloads.
        """
        self.program_locations([(block, page) for page in pages], data)


class FlashChip(PageOps):
    """A simulated NAND flash package (SLC view)."""

    def __init__(
        self,
        geometry: ChipGeometry,
        params: Optional[ChipParams] = None,
        seed: int = 0,
        strict_endurance: bool = False,
        factory_bad_blocks: int = 0,
    ) -> None:
        self.geometry = geometry
        self.params = params if params is not None else ChipParams()
        self.seed = seed
        #: If True, erasing a block beyond its specified endurance raises
        #: :class:`WearOutError`; otherwise the block keeps degrading.
        self.strict_endurance = strict_endurance
        #: Blocks marked bad at manufacture (real NAND ships with a few;
        #: the FTL must skip them).  Chosen pseudo-randomly per sample.
        if factory_bad_blocks < 0 or factory_bad_blocks >= geometry.n_blocks:
            raise ValueError(
                f"factory_bad_blocks must be in [0, {geometry.n_blocks})"
            )
        bad_rng = substream(seed, "factory-bad-blocks")
        self.factory_bad_blocks = frozenset(
            int(b)
            for b in bad_rng.choice(
                geometry.n_blocks, size=factory_bad_blocks, replace=False
            )
        )
        #: Wall-clock seconds since power-on; drives retention.
        self.clock = 0.0
        self.counters = OpCounters()
        # The current obs scope captures this chip's op accounting, so
        # worker-created chips report their totals back to the parent.
        obs.register_op_counters(self.counters)
        self._chip_offset = float(
            substream(seed, "chip-mfg").normal(
                0.0, self.params.variation.chip_mean_std
            )
        )
        self._blocks: Dict[int, BlockState] = {}

    # ------------------------------------------------------------------
    # state access

    @property
    def chip_mean_offset(self) -> float:
        """This sample's manufacturing mean offset (voltage units)."""
        return self._chip_offset

    def _block(self, index: int) -> BlockState:
        """The block's state, materialised on first access.

        NAND ships erased: a freshly manufactured block's cells take
        their epoch-0 erased field (deterministic in seed/block) when
        they settle.
        """
        self.geometry.check_block(index)
        state = self._blocks.get(index)
        if state is None:
            state = BlockState(
                index, self.geometry, self.params, self.seed, self._chip_offset
            )
            if index in self.factory_bad_blocks:
                state.bad = True
            self._blocks[index] = state
        return state

    def _good_block(self, block: int) -> BlockState:
        """The block's state, if it may be programmed or pulsed."""
        state = self._block(block)
        if state.bad:
            raise ProgramError(f"block {block} is marked bad")
        return state

    def _checked(self, locations: Sequence, cells) -> Tuple[list, list]:
        """Checked locations and cell lists (None: the whole page), the
        cell lists first, as the wire client checks them."""
        if cells is not None:
            locations = list(locations)
            cells = check_cell_lists(self.geometry, cells, len(locations))
        locs = check_locations(self.geometry, locations)
        return locs, [None] * len(locs) if cells is None else cells

    def block_pec(self, block: int) -> int:
        return self._block(block).pec

    def is_bad_block(self, block: int) -> bool:
        return self._block(block).bad

    def is_page_programmed(self, block: int, page: int) -> bool:
        self.geometry.check_page(block, page)
        return bool(self._block(block).page_programmed[page])

    def release_block(self, block: int) -> None:
        """Forget the in-memory state of a block (frees its voltage array).

        The block reappears freshly manufactured on next access; only useful
        for sweeping experiments that touch many blocks once.
        """
        self._blocks.pop(block, None)

    # ------------------------------------------------------------------
    # time

    def advance_time(self, seconds: float) -> None:
        """Advance the retention clock (power-off storage, bake, ...)."""
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(f"cannot advance time by {seconds}")
        self.clock += seconds

    # ------------------------------------------------------------------
    # standard ONFI operations

    def erase_block(self, block: int) -> None:
        """Erase a block: all cells return to the deep-erased state."""
        self._erase(block)

    def _erase(self, block: int, pec: Optional[int] = None) -> None:
        """Erase `block`, first setting its wear counter to `pec` if given.

        The erase evaluates nothing: it opens a new epoch in which every
        cell is unsettled, each taking the epoch's ``("erase", block,
        epoch, page)`` field at the wear the erase left the first time
        a kernel names it.  A refused erase (factory-bad block, strict
        endurance) opens no epoch; the wear it sets does not reach the
        erased field of the epoch still open.
        """
        state = self._block(block)
        if state.bad:
            raise EraseError(f"block {block} is marked bad")
        endurance = self.params.wear.endurance_pec
        state.pec = state.pec if pec is None else pec
        if self.strict_endurance and state.pec >= endurance:
            state.bad = True
            raise WearOutError(
                f"block {block} exceeded endurance ({endurance} PEC)"
            )
        state.reset_for_erase()
        self._account("erase")

    # ------------------------------------------------------------------
    # location kernels
    #
    # The data plane: ``(block, page)`` location lists, spanning blocks
    # so a fleet-style service can coalesce requests from many tenants
    # into one call.  All mutable operation state (voltages, exposure,
    # latent caches) lives on ``BlockState``, so operations on distinct
    # blocks commute exactly, and within one call every location is
    # distinct — each call is bit-identical to the serial loop of
    # one-location calls in list order, counters included.

    def read_locations(
        self,
        locations: Sequence,
        threshold: Optional[float] = None,
        cells: Optional[Sequence] = None,
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """Read many ``(block, page)`` locations as a bit array.

        With `cells` — one index array per location, checked by
        :func:`check_cell_lists` before the locations — the result is a
        list whose entry ``i`` is row ``i`` of the full read indexed by
        ``cells[i]``, at the cost of those cells: the disturb mask is
        the page's cached latent field at them.  The side effects are
        the full read's: one read accounted per location and the same
        read-disturb exposure.
        """
        locs, lists = self._checked(locations, cells)
        if threshold is None:
            threshold = self.params.voltage.slc_threshold
        prob = self.params.disturb.read_flip_prob
        # Whole-page rows are written straight into the result.
        rows = [None] * len(locs) if cells is not None else np.empty(
            (len(locs), self.geometry.cells_per_page), dtype=np.bool_
        )
        for i, ((block, page), index) in enumerate(zip(locs, lists)):
            state = self._block(block)
            voltages = self._effective_voltages(state, page, index)
            if index is None:
                row = np.less(voltages, threshold, out=rows[i])
            else:
                row = rows[i] = np.less(voltages, threshold)
            row ^= self._disturb_mask(state, page, index)
            # Read disturb: every read slightly raises its own page's
            # future error exposure — after its own mask, and locations
            # are distinct, so each mask sees the serial loop's exposure.
            state.page_exposure[page] += prob
        self._account("read", len(locs))
        if cells is None:
            return rows.view(np.uint8)
        return [row.view(np.uint8) for row in rows]

    def probe_voltages_locations(
        self, locations: Sequence, cells: Optional[Sequence] = None
    ) -> Union[np.ndarray, List[np.ndarray]]:
        """Per-cell voltages of many ``(block, page)`` locations.

        The vendor probe command (§6.1), in normalised uint8 units; one
        read operation is accounted per location probed.  With `cells`,
        as in :meth:`read_locations`, the result is the list of full
        rows indexed by them.
        """
        locs, lists = self._checked(locations, cells)
        rows = self._probe_locations(locs, lists)
        return rows if cells is not None else np.stack(rows)

    def _probe_locations(
        self,
        locs: Sequence,
        cells: Sequence[Optional[np.ndarray]],
        settled: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """The probe kernel over checked locations: one row per location,
        the whole page's where its `cells` entry is None.  `settled`
        holds each location's store row with its `cells` settled in it,
        if the caller has them (:meth:`_effective_voltages`)."""
        probe_max = self.params.voltage.probe_max
        rows = []
        if settled is None:
            settled = [None] * len(locs)
        for (block, page), index, row in zip(locs, cells, settled):
            voltages = self._effective_voltages(
                self._block(block), page, index, row
            )
            # Clipped to [0, probe_max]: np.clip's wrapper costs more
            # than the two ufuncs at these sizes.
            levels = np.rint(voltages)
            np.maximum(levels, 0, out=levels)
            np.minimum(levels, probe_max, out=levels)
            rows.append(levels.astype(np.uint8))
        self._account("read", len(locs))
        return rows

    def program_locations(self, locations: Sequence, data) -> None:
        """Program public data at many ``(block, page)`` locations.

        Equivalent to programming each location in list order, except
        every location is validated before any cell is touched.
        Locations are grouped per block (in first-appearance order,
        preserving each block's internal list order) and run through the
        block program kernel; the grouping is sound because blocks share
        no mutable state.
        """
        locs = check_locations(self.geometry, locations)
        all_bits = stack_payloads(self.geometry, data, len(locs))
        grouped: Dict[int, list] = {}
        for i, (block, page) in enumerate(locs):
            grouped.setdefault(block, []).append(i)
        for block, indices in grouped.items():
            state = self._good_block(block)
            pages = [locs[i][1] for i in indices]
            already = [int(p) for p in pages if state.page_programmed[p]]
            if already:
                raise ProgramError(
                    f"pages {already} of block {block} already programmed; "
                    "NAND requires erase before reprogram"
                )
        for block, indices in grouped.items():
            pages = [locs[i][1] for i in indices]
            self._program_rows(
                self._block(block), block, pages, all_bits[indices]
            )
        self._account("program", len(locs))

    def _program_rows(
        self,
        state: BlockState,
        block: int,
        pages: Sequence[int],
        all_bits: np.ndarray,
    ) -> None:
        """The block program kernel behind :meth:`program_locations`.

        It evaluates nothing: each page records its '0' cells
        (:meth:`BlockState.program`), which take the programmed field
        at the block's current wear when they settle; a '1' cell keeps
        the epoch's erased value.
        """
        page_list = [int(p) for p in pages]
        index = np.asarray(page_list, dtype=np.int64)
        state.page_programmed[index] = True
        state.page_program_time[index] = self.clock
        state.page_pec[index] = state.pec
        state.page_epoch[index] = state.erase_epoch
        for i, page in enumerate(page_list):
            state.program(page, all_bits[i] == 0)
        self._expose_neighbours(
            state, page_list, self.params.disturb.program_flip_prob
        )

    # ------------------------------------------------------------------
    # vendor (NDA) operations

    def partial_program(
        self,
        block: int,
        page: int,
        cells: Sequence[int],
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> None:
        """Apply one partial-programming pulse to selected cells (§6.2).

        A PP step is a normal program aborted midway; the injected charge is
        positive and imprecise.  `fraction` models how late the abort
        happened (1.0 = the standard 600 us abort; values up to 2.0 model
        the longer in-controller pulses only firmware can issue, §6.2),
        `precision` scales the pulse's spread — values below 1.0 model the
        finer in-controller programming §6.2 argues a vendor could provide.
        """
        cells = cell_array(cells, "partial_program cells")
        self.geometry.check_page(block, page)
        _check_pulse(fraction, precision)
        state = self._good_block(block)
        cells = _check_cells(
            self.geometry, cells, "partial_program cells",
            "partial_program cell index out of range",
            distinct="partial_program",
        )
        row = state.settle(page, cells)
        pulse = int(state.page_pp_pulses[page])
        response, normals = self._pp_draws(
            state, page, cells, range(pulse, pulse + 1)
        )
        self._pulse(
            state, page, row, cells, fraction,
            self._pulse_charges(normals[0], fraction, precision) * response,
        )

    def _pulse_charges(
        self, normals: np.ndarray, fraction: float, precision: float
    ) -> np.ndarray:
        """Pulse charges before the cells' responses: ``mean + std·z``
        for standard normals `z`, clipped to [0, mean + 2 std] — the
        charge per pulse is bounded (float32, the shape of `normals`)."""
        pp = self.params.partial_program
        mean = pp.pulse_mean * fraction
        std = pp.pulse_std * fraction * precision
        charges = normals * np.float32(std)
        charges += np.float32(mean)
        np.maximum(charges, 0.0, out=charges)
        np.minimum(charges, mean + 2.0 * std, out=charges)
        return charges

    def _pulse(
        self,
        state: BlockState,
        page: int,
        row: np.ndarray,
        cells: np.ndarray,
        fraction: float,
        charges: np.ndarray,
    ) -> None:
        """The pulse behind :meth:`partial_program`, on checked inputs:
        distinct in-range `cells` of a good block's page, settled in its
        `row` (:meth:`BlockState.settle`), take `charges` — this
        pulse's :meth:`_pulse_charges` times the page's PP response at
        them (:meth:`_pp_draws`).
        """
        row[cells] += charges.astype(np.float32)
        state.invalidate_page_voltages(page)
        state.page_pp_pulses[page] += 1
        self._expose_neighbours(
            state, [page], self.params.disturb.pp_flip_prob * fraction
        )
        self._account("partial_program")

    def embed_locations(
        self,
        items: Sequence,
        target: float,
        steps: int,
        fraction: float = 1.0,
        precision: float = 1.0,
    ) -> list:
        """Algorithm 1's probe–compare–pulse loop as one chip command.

        Each item is ``(block, page, zero_cells)``: the distinct cells
        to charge above `target` on a programmed page.  Each of up to
        `steps` steps is one probe of the active items' cells, in item
        order, then one :meth:`partial_program` pulse of every item
        whose cells are not all above `target` yet, in item order; an
        item without cells is never probed.  Every input is
        per-(block, page) state and per-page RNG streams, so the outcome
        — voltages, pulse counts, exposure, counters — equals that loop
        run by the host.  Everything is validated once, before the
        first probe: a rejected call changes nothing, and the probes
        and pulses run unchecked.

        Returns ``(steps_used, cells_left)`` per item.
        """
        items = list(items)
        lists = [
            cell_array(cells, f"embed_locations item {i} cells")
            for i, (_, _, cells) in enumerate(items)
        ]
        locs = check_locations(self.geometry, [item[:2] for item in items])
        _check_pulse(fraction, precision)
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target}")
        for block, page in locs:
            if not self._good_block(block).page_programmed[page]:
                raise ProgramError(
                    f"page {page} of block {block} holds no public data; "
                    "VT-HI hides inside public data (§5.1)"
                )
        for i, cells in enumerate(lists):
            _check_cells(
                self.geometry, cells, f"embed_locations item {i} cells",
                "embed_locations cell index out of range",
                distinct="embed_locations",
            )
        states = [self._block(block) for block, _ in locs]
        used = [0] * len(lists)
        below = list(lists)
        active = [i for i, cells in enumerate(lists) if cells.size]
        # Nothing a response depends on changes within the call: each
        # item's is evaluated once, at its cells, and indexed per step.
        # Its cells settle first; the probes read them in that row.
        rows, responses, batches = {}, {}, {}
        for i in active:
            page = locs[i][1]
            rows[i] = states[i].settle(page, lists[i])
            responses[i] = self._pp_draws(states[i], page, lists[i])[0]
        for _ in range(steps):
            if not active:
                break
            probed = self._probe_locations(
                [locs[i] for i in active], [lists[i] for i in active],
                [rows[i] for i in active],
            )
            still_active = []
            for row, i in zip(probed, active):
                charging = row < target
                below[i] = lists[i][charging]
                if below[i].size == 0:
                    continue
                state, page = states[i], locs[i][1]
                pulse = int(state.page_pp_pulses[page])
                # Pulse normals come in batches evaluated at the cells
                # charging when the batch starts.  A cell's voltage never
                # falls within the call (a pulse adds charge >= 0), so
                # the cells a later step charges are among them.
                first, within, charges = batches.get(i, (pulse, None, ()))
                if pulse - first >= len(charges):
                    count = min(steps - used[i], PULSE_CELLS // below[i].size)
                    first, within = pulse, charging
                    charges = self._pulse_charges(
                        self._pulse_normals(
                            state, page, below[i],
                            range(pulse, pulse + max(count, 1)),
                        ),
                        fraction, precision,
                    )
                    batches[i] = (first, within, charges)
                self._pulse(
                    state, page, rows[i], below[i], fraction,
                    charges[pulse - first][charging[within]]
                    * responses[i][charging],
                )
                used[i] += 1
                still_active.append(i)
            active = still_active
        return [(used[i], int(below[i].size)) for i in range(len(lists))]

    # ------------------------------------------------------------------
    # wear helpers

    def cycle_block(self, block: int, cycles: int, program: bool = True) -> None:
        """Run real program/erase cycles with pseudorandom data.

        This is the paper's pre-conditioning procedure executed literally.
        For large cycle counts prefer :meth:`age_block`, which applies the
        same wear state without simulating every intermediate cycle.
        """
        pattern_rng = substream(self.seed, "cycle-pattern", block)
        n_cells = self.geometry.cells_per_page
        n_pages = self.geometry.pages_per_block
        all_pages = range(n_pages)
        for _ in range(cycles):
            self.erase_block(block)
            if program:
                # One block-shaped draw per cycle.  numpy fills a
                # (pages, cells) array row-major, so this is the same
                # uniform sequence as pages_per_block consecutive
                # per-page draws from the single pattern stream — the
                # historical per-page loop's patterns, bit for bit.
                draws = pattern_rng.random((n_pages, n_cells))
                self.program_pages(
                    block, all_pages, (draws < 0.5).astype(np.uint8)
                )
        if program and cycles:
            self.erase_block(block)

    def age_block(self, block: int, pec: int) -> None:
        """Jump a block's wear counter to `pec`, leaving it erased.

        Fast-path equivalent of the paper's "cycled to N PEC" setup: the
        physics models consume the PEC number, so the intermediate cycles
        carry no additional state.  Counts one erase operation.
        """
        if pec < 0:
            raise ValueError(f"pec must be non-negative, got {pec}")
        self._erase(block, pec=max(pec - 1, 0))

    # ------------------------------------------------------------------
    # internals

    def _effective_voltages(
        self,
        state: BlockState,
        page: int,
        cells: Optional[np.ndarray] = None,
        row: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stored voltages minus retention leakage at the current clock,
        at `cells` (None: the whole row).

        Without leakage only `cells` settle, unless the caller passes
        the `row` in which it settled them (:meth:`BlockState.settle`):
        then nothing is looked up.  Leakage is a whole-row evaluation,
        cached per (page, clock): repeated reads of an unchanged page at
        the same time cost a dict lookup, not a leakage evaluation.
        Callers must treat the returned array as read-only (it may alias
        the store or the cache).
        """
        elapsed = self.clock - state.page_program_time[page]
        if not state.page_programmed[page] or elapsed <= 0:
            if cells is None:
                return state.row(page)
            if row is None:
                row = state.settle(page, cells)
            return row[cells]
        cached = state.effective_rows.get(page)
        if cached is not None and cached[0] == self.clock:
            row = cached[1]
        else:
            leak = leakage_from_field(
                self.params.retention,
                self._leak_field(state, page),
                elapsed_s=elapsed,
            )
            row = state.row(page) - leak
            state.effective_rows[page] = (self.clock, row)
        return row if cells is None else row[cells]

    def _leak_field(self, state: BlockState, page: int) -> LeakField:
        """The page's cached leak latents (fixed for its program epoch)."""
        field = state.leak_fields.get(page)
        if field is None:
            field = leak_field(
                self.params.retention,
                chip_seed=self.seed,
                block=state.index,
                page=page,
                epoch=int(state.page_epoch[page]),
                pec_at_program=int(state.page_pec[page]),
                n_cells=self.geometry.cells_per_page,
            )
            state.leak_fields[page] = field
        return field

    def _disturb_field(self, state: BlockState, page: int) -> np.ndarray:
        """The page's cached disturb latents (fixed for its program epoch)."""
        field = state.disturb_fields.get(page)
        if field is None:
            field = disturb_field(
                chip_seed=self.seed,
                block=state.index,
                page=page,
                epoch=int(state.page_epoch[page]),
                n_cells=self.geometry.cells_per_page,
            )
            state.disturb_fields[page] = field
        return field

    def _disturb_mask(
        self,
        state: BlockState,
        page: int,
        cells: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The page's read-disturb flips, at `cells` only if given."""
        size = self.geometry.cells_per_page if cells is None else cells.size
        if not state.page_programmed[page]:
            return np.zeros(size, dtype=bool)
        wear = self.params.wear
        pec = int(state.page_pec[page])
        base = (
            wear.base_disturb_ber
            * (1.0 + (pec / wear.ber_growth_kpec) ** 2)
            * state.ber_mult
        )
        probability = base + float(state.page_exposure[page])
        if probability <= 0:
            return np.zeros(size, dtype=bool)
        field = self._disturb_field(state, page)
        return disturb_flips_from_field(
            field if cells is None else field[cells], probability
        )

    def _pp_draws(
        self,
        state: BlockState,
        page: int,
        cells: np.ndarray,
        pulses: range = range(0),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The page's PP response at `cells`, and the float32 standard
        normals of its `pulses` there (``(len(pulses), cells.size)``,
        :meth:`_pulse_normals`), from one counter evaluation.

        The response — per-cell programming-speed factors — has three
        components that multiply:

        * a fixed manufacturing lognormal (plus rare hard cells);
        * a per-erase-epoch wear jitter that grows with PEC;
        * the deliberate stress-trap gain PT-HI encodes through, attenuated
          as general wear accumulates (worn cells all carry trapped charge,
          masking the deliberate signal — why PT-HI degrades with PEC).

        Each cell's response is a pure function of the chip seed, block,
        page, cell and — for the wear part — epoch (uniforms of
        :func:`repro.rng.counter_words` over the page's label seeds,
        :meth:`BlockState.labels_for_page`), given the block's PEC and the
        page's trap: so it costs in proportion to the cells asked for,
        and no page-size array is drawn or kept.
        """
        pp = self.params.partial_program
        labels = state.labels_for_page(page)
        mfg, wear = labels.response, labels.wear
        wear_sigma = pp.wear_response_sigma_per_kpec * state.pec / 1000.0
        # One (seed, lane) row per uniform: the radial rows of the
        # lognormals (manufacturing, then wear if any), their angular
        # rows, then the hard-cell draw; then one row per pulse.
        if wear_sigma > 0:
            sigmas = [pp.response_sigma, wear_sigma]
            keys = [(mfg, 0), (wear, 0), (mfg, 1), (wear, 1), (mfg, 2)]
        else:
            sigmas = [pp.response_sigma]
            keys = [(mfg, 0), (mfg, 1), (mfg, 2)]
        parts, rows = len(sigmas), len(keys)
        words = counter_words(cells, keys + _pulse_keys(labels, pulses))
        uniforms = word_uniforms(words[:rows])
        factors = box_muller(uniforms[:parts], uniforms[parts:-1])
        factors *= np.array(sigmas, dtype=np.float64)[:, None]
        np.exp(factors, out=factors)
        response = factors[0]
        response[uniforms[-1] < pp.hard_cell_frac] = pp.hard_cell_response
        if parts > 1:
            response *= factors[1]
        # Charge injection saturates: process + wear variation is bounded
        # above (the low side — slow/hard cells — is not).
        np.minimum(response, pp.response_cap, out=response)
        trap = state.page_trap.get(page)
        if trap is not None:
            pec_since = max(
                state.pec - state.page_stress_pec.get(page, state.pec), 0
            )
            gain = pp.trap_gain / (1.0 + pec_since / pp.trap_decay_pec)
            response = response * (1.0 + gain * trap[cells])
        return response, word_normals(words[rows:])

    def _pulse_normals(
        self, state: BlockState, page: int, cells: np.ndarray, pulses: range
    ) -> np.ndarray:
        """Float32 standard normals of the page's `pulses` at `cells`:
        ``(len(pulses), cells.size)``.

        Pulse ``n``'s normal at a cell is
        :func:`~repro.nand.noise.word_normals` of the cell's lane-0
        counter word under the ``("pp-pulse", block, page, epoch, n)``
        label seed: a pure function of the pulse count and the cell, so
        pulses evaluated together or one by one, at any cells, agree.
        """
        labels = state.labels_for_page(page)
        return word_normals(counter_words(cells, _pulse_keys(labels, pulses)))

    # ------------------------------------------------------------------
    # deliberate stress (PT-HI's encoding mechanism)

    def apply_stress(
        self, block: int, cells_by_page: Dict[int, Sequence[int]], cycles: int
    ) -> None:
        """Stress-cycle selected cells, accumulating trapped charge.

        Models the PT-HI encoding procedure of Wang et al. (§2): hundreds of
        program/erase cycles with patterns that repeatedly program the
        chosen cells change their programming speed persistently (the trap
        survives erases).  All listed pages are stressed within the *same*
        block cycles.  Accounting matches the physical procedure — each
        cycle programs every listed page once and erases the block once —
        and the block's wear advances by the cycle count, which is where
        PT-HI's 625x write amplification comes from.

        The block is left erased, as the real procedure leaves it.
        """
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        state = self._good_block(block)
        checked = []
        for page, cells in cells_by_page.items():
            self.geometry.check_page(block, page)
            checked.append((page, _check_cells(
                self.geometry, cells, f"apply_stress cells of page {page}",
                "apply_stress cell index out of range",
            )))
        # Every page and cell list is valid: only now does a trap change.
        for page, cells in checked:
            trap = state.trap_for_page(page)
            trap[cells] += self.params.partial_program.trap_per_cycle * cycles
            state.page_stress_pec[page] = state.pec + cycles
        state.pec += cycles - 1
        self.erase_block(block)
        costs = self.params.costs
        n_programs = cycles * len(cells_by_page)
        self.counters.programs += n_programs
        self.counters.erases += cycles - 1
        self.counters.busy_time_s += (
            n_programs * costs.t_program + (cycles - 1) * costs.t_erase
        )
        self.counters.energy_j += (
            n_programs * costs.e_program + (cycles - 1) * costs.e_erase
        )
        _OBS_OP_COUNTERS["program"].inc(n_programs)
        if cycles > 1:
            _OBS_OP_COUNTERS["erase"].inc(cycles - 1)

    def _expose_neighbours(
        self, state: BlockState, pages: Sequence[int], flip_prob: float
    ) -> None:
        """Accumulate program/PP disturb onto the neighbours of `pages`.

        Visits pages in list order, so a batch accumulates each page's
        exposure in the same float order as one call per page.
        """
        if flip_prob <= 0:
            return
        distance = self.params.disturb.neighbour_distance
        for page in pages:
            for offset in range(1, distance + 1):
                for neighbour in (page - offset, page + offset):
                    if 0 <= neighbour < self.geometry.pages_per_block:
                        state.page_exposure[neighbour] += flip_prob

    def _account(self, op: str, count: int = 1) -> None:
        costs = self.params.costs
        if op == "read":
            self.counters.reads += count
            time, energy = costs.t_read, costs.e_read
        elif op == "program":
            self.counters.programs += count
            time, energy = costs.t_program, costs.e_program
        elif op == "erase":
            self.counters.erases += count
            time, energy = costs.t_erase, costs.e_erase
        elif op == "partial_program":
            self.counters.partial_programs += count
            time, energy = costs.t_partial_program, costs.e_partial_program
        else:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown op {op!r}")
        _OBS_OP_COUNTERS[op].inc(count)
        # Accumulate per operation so batched calls reproduce the serial
        # loop's float totals exactly (addition is not associative).
        for _ in range(count):
            self.counters.busy_time_s += time
            self.counters.energy_j += energy
