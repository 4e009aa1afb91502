"""Per-block simulator state.

A :class:`BlockState` owns the analog voltage array for its pages plus the
bookkeeping the physics models need: manufacturing offsets fixed at
construction (the block's position in the chip's variation hierarchy), wear
(PEC), per-page program timestamps/epochs, and accumulated disturb exposure.

Erased voltages are drawn a row at a time, the first time a row is used:
manufacture and every erase only mark the block's rows *owed*.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..rng import derive_seed, label_prefix, substream
from .geometry import ChipGeometry
from .noise import PageLevels, kernel_rngs, page_levels, sample_erased_batch
from .params import ChipParams


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

        # The voltage store behind :attr:`voltages` and :meth:`row`.  A
        # row is written first when it is drawn, so at paper size the
        # rows no command touches never become resident.
        self._voltages = np.zeros(
            (n_pages, geometry.cells_per_page), dtype=np.float32
        )
        #: Program/erase cycles endured.
        self.pec = 0
        #: Incremented on every erase; scopes the per-page latent fields.
        self.erase_epoch = 0
        #: Rows whose erased-state draw is still owed.  NAND ships erased,
        #: so every row is owed at manufacture, and again after each erase.
        self.owed = np.ones(n_pages, dtype=bool)
        #: Wear left by the erase that opened the epoch (0 at manufacture):
        #: owed rows draw at it even after a refused erase moves ``pec``.
        self.erase_pec = 0
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
        #: page -> the page's pulse labels (:meth:`labels_for_page`).
        self.pulse_labels: dict = {}

    @property
    def voltages(self) -> np.ndarray:
        """Analog cell voltages (pages x cells), every owed row drawn.

        Deep-erased state is a small positive residue; values may go
        negative under leakage.  The whole-block view for code outside
        the chip kernels: writes into it stick, since no row is owed
        once it is returned.  The kernels use :meth:`row` instead.
        """
        if self.owed.any():
            self.draw_rows(np.flatnonzero(self.owed))
        return self._voltages

    def row(self, page: int) -> np.ndarray:
        """The page's voltage row (a writable view), drawn if owed."""
        if self.owed[page]:
            self.draw_rows((page,))
        return self._voltages[page]

    def draw_rows(self, pages: Sequence[int]) -> None:
        """Draw the owed rows among `pages` from the epoch's erase streams.

        Row ``p`` comes from ``SFC64(derive_seed(seed, "erase", block,
        epoch, p))`` at :attr:`erase_pec`, its own stream at the epoch's
        wear, so when a row is drawn changes none of its values.  The
        owed rows of one call share one batched seed derivation.
        """
        owed = [int(page) for page in pages if self.owed[page]]
        if not owed:
            return
        rngs = kernel_rngs(
            self.chip_seed, ("erase", self.index, self.erase_epoch), owed
        )
        levels = [self.levels(page, self.erase_pec) for page in owed]
        sample_erased_batch(rngs, levels, [self._voltages[p] for p in owed])
        self.owed[owed] = False

    def write_row(self, page: int, voltages: np.ndarray) -> None:
        """Replace a whole row; it is settled without being drawn."""
        self._voltages[page] = voltages
        self.owed[page] = False
        self.invalidate_page_voltages(page)

    def levels(self, page: int, pec: int) -> PageLevels:
        """The page's distribution levels at wear `pec`."""
        return page_levels(
            self.params,
            pec=pec,
            mean_offset=float(self.mean_offset + self.page_offsets[page]),
            std_mult=self.std_mult,
            tail_mult=float(self.tail_mult * self.page_tail_mults[page]),
            tail_scale_mult=float(
                self.tail_scale_mult * self.page_tail_scale_mults[page]
            ),
        )

    def labels_for_page(self, page: int) -> Tuple[bytes, int, int]:
        """``(pulse prefix, response seed, wear seed)`` of the page.

        The encoded head of its ``("pp-pulse", block, page, epoch)``
        pulse labels (:func:`repro.rng.label_prefix`), and the label
        seeds of its PP response's manufacturing part, ``("pp-response",
        block, page)``, and wear part, ``("pp-wear", block, page,
        epoch)``: hashed once per page and epoch, so a pulse hashes only
        its pulse count.
        """
        labels = self.pulse_labels.get(page)
        if labels is None:
            seed, block, epoch = self.chip_seed, self.index, self.erase_epoch
            labels = self.pulse_labels[page] = (
                label_prefix(seed, "pp-pulse", block, page, epoch),
                derive_seed(seed, "pp-response", block, page),
                derive_seed(seed, "pp-wear", block, page, epoch),
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

        Must be called by any code that mutates ``voltages[page]`` outside
        an erase (programs, partial-program pulses, hiding-layer writes);
        the latent leak/disturb caches stay valid because they depend only
        on the (page, epoch) label, not on the stored voltages.
        """
        self.effective_rows.pop(page, None)

    def reset_for_erase(self) -> None:
        """Apply the state changes of an erase operation.

        The voltage array is *not* touched: every row becomes owed, to
        be drawn from the new epoch's erase streams on first use.
        """
        self.pec += 1
        self.erase_epoch += 1
        self.erase_pec = self.pec
        self.owed[:] = True
        self.page_programmed[:] = False
        self.page_program_time[:] = 0.0
        self.page_pec[:] = 0
        self.page_epoch[:] = 0
        self.page_exposure[:] = 0.0
        self.page_pp_pulses[:] = 0
        self.leak_fields.clear()
        self.disturb_fields.clear()
        self.effective_rows.clear()
        self.pulse_labels.clear()
