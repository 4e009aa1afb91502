"""Per-block simulator state.

A :class:`BlockState` owns the analog voltage array for its pages plus the
bookkeeping the physics models need: manufacturing offsets fixed at
construction (the block's position in the chip's variation hierarchy), wear
(PEC), per-page program timestamps/epochs, and accumulated disturb exposure.

A cell's voltage is a counter-based field of its labels and its index
until a command names it: an erase and a program only record what the
cell's value is, and the cell *settles* — its value is evaluated and
stored — the first time a kernel reads, probes or pulses it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from ..rng import counter_words, derive_seed, label_prefix, substream
from .geometry import ChipGeometry
from .noise import (
    PageLevels, erased_voltages, page_levels, programmed_voltages,
)
from .params import ChipParams


#: A cell's settle code (:attr:`BlockState.settle_codes`): unsettled,
#: to take the epoch's erased field; unsettled, to take the programmed
#: field (a '0' cell of the epoch's program); or settled, its value in
#: the store.  ERASED and PROGRAMMED are a program's '0'-cell mask as
#: uint8.
ERASED, PROGRAMMED, SETTLED = 0, 1, 2


class PageLabels:
    """A page's label seeds in one erase epoch (DESIGN §11), each hashed
    the first time a kernel needs it: a read of erased cells hashes one."""

    def __init__(self, seed: int, block: int, page: int, epoch: int) -> None:
        self.seed, self.block, self.page, self.epoch = seed, block, page, epoch

    @cached_property
    def pulse(self) -> bytes:
        """Encoded head of the ``("pp-pulse", block, page, epoch)``
        labels; pulse ``n`` hashes ``n`` onto it
        (:func:`repro.rng.seed_from_prefix`)."""
        return label_prefix(
            self.seed, "pp-pulse", self.block, self.page, self.epoch
        )

    @cached_property
    def response(self) -> int:
        """``("pp-response", block, page)``: the PP response's
        manufacturing part."""
        return derive_seed(self.seed, "pp-response", self.block, self.page)

    @cached_property
    def wear(self) -> int:
        """``("pp-wear", block, page, epoch)``: the PP response's wear part."""
        return derive_seed(
            self.seed, "pp-wear", self.block, self.page, self.epoch
        )

    @cached_property
    def erase(self) -> int:
        """``("erase", block, epoch, page)``: the erased field."""
        return derive_seed(
            self.seed, "erase", self.block, self.epoch, self.page
        )

    @cached_property
    def program(self) -> int:
        """``("program", block, page, epoch)``: the programmed field."""
        return derive_seed(
            self.seed, "program", self.block, self.page, self.epoch
        )


class BlockState:
    """Mutable physical state of one erase block."""

    def __init__(
        self,
        index: int,
        geometry: ChipGeometry,
        params: ChipParams,
        chip_seed: int,
        chip_mean_offset: float,
    ) -> None:
        self.index = index
        self.geometry = geometry
        self.params = params
        self.chip_seed = chip_seed
        n_pages = geometry.pages_per_block
        variation = params.variation

        mfg = substream(chip_seed, "block-mfg", index)
        #: Summed chip + block manufacturing mean offset (voltage units).
        self.mean_offset = chip_mean_offset + mfg.normal(0.0, variation.block_mean_std)
        #: Per-block distribution-width multiplier.
        self.std_mult = float(mfg.lognormal(0.0, variation.block_std_jitter))
        #: Per-block charged-tail-mass multiplier.
        self.tail_mult = float(mfg.lognormal(0.0, variation.block_tail_jitter))
        #: Per-block charged-tail-depth multiplier.
        self.tail_scale_mult = float(
            mfg.lognormal(0.0, variation.block_tail_scale_jitter)
        )
        #: Per-block raw-BER multiplier.
        self.ber_mult = float(mfg.lognormal(0.0, variation.block_ber_jitter))
        #: Per-page manufacturing mean offsets.
        self.page_offsets = mfg.normal(0.0, variation.page_mean_std, n_pages)
        #: Per-page charged-tail-mass multipliers.
        self.page_tail_mults = mfg.lognormal(0.0, variation.page_tail_jitter, n_pages)
        #: Per-page charged-tail-depth multipliers.
        self.page_tail_scale_mults = mfg.lognormal(
            0.0, variation.page_tail_scale_jitter, n_pages
        )

        # The voltage store behind :attr:`voltages`, :meth:`row` and
        # :meth:`settle`.  A cell is written first when it settles, so
        # at paper size the rows no command touches never become
        # resident.
        self._voltages = np.zeros(
            (n_pages, geometry.cells_per_page), dtype=np.float32
        )
        #: Program/erase cycles endured.
        self.pec = 0
        #: Incremented on every erase; scopes the per-page latent fields.
        self.erase_epoch = 0
        #: Wear left by the erase that opened the epoch (0 at manufacture):
        #: erased values are evaluated at it even after a refused erase
        #: moves ``pec``.
        self.erase_pec = 0
        #: Rows whose every cell is settled.  NAND ships erased, so no
        #: cell is settled at manufacture, nor after an erase.
        self.row_settled = np.zeros(n_pages, dtype=bool)
        #: page -> the settle code of each cell (:data:`ERASED`,
        #: :data:`PROGRAMMED` or :data:`SETTLED`) of a row not wholly
        #: settled; absent, every cell is unsettled and erased.
        self.settle_codes: dict = {}
        #: Whether the block exceeded endurance and was retired.
        self.bad = False
        self.page_programmed = np.zeros(n_pages, dtype=bool)
        #: Chip clock when each page was programmed.
        self.page_program_time = np.zeros(n_pages, dtype=np.float64)
        #: Block PEC when each page was programmed.
        self.page_pec = np.zeros(n_pages, dtype=np.int32)
        #: Erase epoch in force when each page was programmed.
        self.page_epoch = np.zeros(n_pages, dtype=np.int64)
        #: Accumulated disturb flip probability beyond the wear baseline.
        self.page_exposure = np.zeros(n_pages, dtype=np.float64)
        #: Partial-program pulses issued per page since last erase (used to
        #: derive distinct pulse randomness and for wear accounting).
        self.page_pp_pulses = np.zeros(n_pages, dtype=np.int64)
        #: Per-cell trapped charge from deliberate stress cycling (PT-HI's
        #: encoding medium).  Lazily allocated per page; *survives erases* —
        #: that persistence is exactly what program-time hiding exploits.
        self.page_trap: dict = {}
        #: Block PEC at the time each page was stress-encoded; the trap
        #: signal fades relative to wear accumulated *after* encoding.
        self.page_stress_pec: dict = {}

        # Lazy per-page latent caches, all scoped to the current erase
        # epoch.  Materialised on first use by the chip's kernels and
        # cleared wholesale by :meth:`reset_for_erase`, so a cached value
        # can never outlive the (page, epoch) physics it encodes.
        #: page -> :class:`repro.nand.retention.LeakField`.
        self.leak_fields: dict = {}
        #: page -> latent disturb uniforms (float64, one per cell).
        self.disturb_fields: dict = {}
        #: page -> (clock, leakage-adjusted float32 voltage row).
        self.effective_rows: dict = {}
        #: page -> the page's label seeds (:meth:`labels_for_page`).
        self.page_labels: dict = {}
        #: (page, pec) -> :meth:`levels`.
        self._levels: dict = {}

    @property
    def voltages(self) -> np.ndarray:
        """Analog cell voltages (pages x cells), every cell settled.

        Deep-erased state is a small positive residue; values may go
        negative under leakage.  The whole-block view for code outside
        the chip kernels: writes into it stick, since every cell is
        settled once it is returned.  The kernels use :meth:`row` and
        :meth:`settle` instead.
        """
        for page in np.flatnonzero(~self.row_settled):
            self.row(int(page))
        return self._voltages

    def row(self, page: int) -> np.ndarray:
        """The page's voltage row (a writable view), every cell settled."""
        row = self._voltages[page]
        if not self.row_settled[page]:
            codes = self.settle_codes.pop(page, None)
            if codes is None or np.maximum.reduce(codes) != SETTLED:
                row[:] = self.field(page, codes=codes)
            else:
                (cells,) = (codes != SETTLED).nonzero()
                row[cells] = self.field(page, cells, codes[cells])
            self.row_settled[page] = True
        return row

    def settle(self, page: int, cells: np.ndarray) -> np.ndarray:
        """Settle `cells` of the page (repeats allowed); returns the row,
        a writable view whose other cells may be unsettled."""
        row = self._voltages[page]
        if self.row_settled[page]:
            return row
        if page not in self.settle_codes:
            # Every cell unsettled and erased: no code to look up.
            codes, named = self._codes(page), None
        else:
            # SETTLED is the largest code: one reduction answers "all
            # settled" (a repeat touch, the common case) and another
            # "none settled", without a comparison pass.
            codes = self.settle_codes[page]
            named = codes[cells]
            if np.minimum.reduce(named, initial=SETTLED) == SETTLED:
                return row
            if np.maximum.reduce(named) == SETTLED:
                unsettled = named != SETTLED
                cells, named = cells[unsettled], named[unsettled]
        row[cells] = self.field(page, cells, named)
        codes[cells] = SETTLED
        return row

    def field(
        self,
        page: int,
        cells: Optional[np.ndarray] = None,
        codes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The page's voltage fields at `cells` (None: every cell), float32.

        `codes` are the cells' settle codes, none of them
        :data:`SETTLED` (None: every cell erased).
        A cell's value is the epoch's erased field at :attr:`erase_pec`,
        or, for a :data:`PROGRAMMED` cell, the programmed field at the
        wear the program ran at — each a pure function of the page's
        labels (:meth:`labels_for_page`) and the cell index, so when and
        in what batch a cell settles changes nothing.
        """
        labels = self.labels_for_page(page)
        whole = cells is None
        if whole:
            cells = np.arange(self.geometry.cells_per_page, dtype=np.int64)
        if codes is None or (
            np.maximum.reduce(codes, initial=ERASED) == ERASED
        ):
            return self._erased(page, labels, cells)
        charged = codes == PROGRAMMED
        values = np.empty(cells.size, dtype=np.float32)
        (erased,) = (~charged).nonzero()
        (charged,) = charged.nonzero()
        # In a whole row a cell's position is its index: no gathers.
        values[erased] = self._erased(
            page, labels, erased if whole else cells[erased]
        )
        values[charged] = programmed_voltages(
            self.levels(page, int(self.page_pec[page])),
            counter_words(
                charged if whole else cells[charged], ((labels.program, 0),)
            )[0],
        )
        return values

    def _erased(
        self, page: int, labels: PageLabels, cells: np.ndarray
    ) -> np.ndarray:
        """The epoch's erased field of the page at `cells`."""
        return erased_voltages(
            self.levels(page, self.erase_pec),
            counter_words(cells, ((labels.erase, 0),))[0],
        )

    def program(self, page: int, zeros: np.ndarray) -> None:
        """Record the epoch's program of the page: the bool mask `zeros`
        (the block keeps it) marks the '0' cells, which take the
        programmed field.  Nothing is evaluated; a settled '0' cell is
        unsettled, a settled '1' cell keeps its value."""
        codes = self.settle_codes.get(page)
        if codes is None and not self.row_settled[page]:
            # No cell settled: the mask is the codes (PROGRAMMED == True).
            self.settle_codes[page] = zeros.view(np.uint8)
        else:
            if codes is None:
                self.row_settled[page] = False
                codes = self.settle_codes[page] = np.full(
                    self.geometry.cells_per_page, SETTLED, dtype=np.uint8
                )
            codes[zeros] = PROGRAMMED
        self.invalidate_page_voltages(page)

    def write_cells(
        self, page: int, cells: np.ndarray, voltages: np.ndarray
    ) -> None:
        """Set `cells` of the page to `voltages`: they settle there, and
        the page's other cells are not evaluated."""
        if not self.row_settled[page]:
            self._codes(page)[cells] = SETTLED
        self._voltages[page, cells] = voltages
        self.invalidate_page_voltages(page)

    def _codes(self, page: int) -> np.ndarray:
        """The page's settle codes, allocated on first use (every cell
        unsettled and erased)."""
        codes = self.settle_codes.get(page)
        if codes is None:
            codes = self.settle_codes[page] = np.zeros(
                self.geometry.cells_per_page, dtype=np.uint8
            )
        return codes

    def levels(self, page: int, pec: int) -> PageLevels:
        """The page's distribution levels at wear `pec` (kept per block:
        the page's offsets never change)."""
        levels = self._levels.get((page, pec))
        if levels is None:
            levels = self._levels[page, pec] = page_levels(
                self.params,
                pec=pec,
                mean_offset=float(self.mean_offset + self.page_offsets[page]),
                std_mult=self.std_mult,
                tail_mult=float(self.tail_mult * self.page_tail_mults[page]),
                tail_scale_mult=float(
                    self.tail_scale_mult * self.page_tail_scale_mults[page]
                ),
            )
        return levels

    def labels_for_page(self, page: int) -> PageLabels:
        """The page's label seeds in the current epoch, each hashed once
        per page and epoch, so a pulse hashes only its pulse count and a
        settle hashes nothing after the page's first."""
        labels = self.page_labels.get(page)
        if labels is None:
            labels = self.page_labels[page] = PageLabels(
                self.chip_seed, self.index, page, self.erase_epoch
            )
        return labels

    def trap_for_page(self, page: int) -> np.ndarray:
        """Trapped-charge array for a page, allocating on first use."""
        trap = self.page_trap.get(page)
        if trap is None:
            trap = np.zeros(self.geometry.cells_per_page, dtype=np.float32)
            self.page_trap[page] = trap
        return trap

    def invalidate_page_voltages(self, page: int) -> None:
        """Drop the cached effective-voltage row after a direct write.

        Must be called by any code that changes a page's voltages outside
        an erase (programs, partial-program pulses, hiding-layer writes);
        the latent leak/disturb caches stay valid because they depend only
        on the (page, epoch) label, not on the stored voltages.
        """
        self.effective_rows.pop(page, None)

    def reset_for_erase(self) -> None:
        """Apply the state changes of an erase operation.

        The voltage store is *not* touched: every cell becomes
        unsettled, to take the new epoch's erased field on first use.
        """
        self.pec += 1
        self.erase_epoch += 1
        self.erase_pec = self.pec
        self.row_settled[:] = False
        self.settle_codes.clear()
        self.page_programmed[:] = False
        self.page_program_time[:] = 0.0
        self.page_pec[:] = 0
        self.page_epoch[:] = 0
        self.page_exposure[:] = 0.0
        self.page_pp_pulses[:] = 0
        self.leak_fields.clear()
        self.disturb_fields.clear()
        self.effective_rows.clear()
        self.page_labels.clear()
        self._levels.clear()
