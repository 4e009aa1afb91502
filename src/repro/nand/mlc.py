"""MLC-mode access on top of the chip simulator (§3, §6.2).

Devices "commonly transition cells between SLC and MLC/TLC mode
dynamically" (§1); this module provides the MLC view: four voltage levels
per cell, Gray-coded so each read threshold decides exactly one bit:

    level   L0 (erased)   L1     L2     L3
    bits    lower=1       1      0      0
            upper=1       0      0      1

§6.2 reports the authors *could not* reliably hide within MLC intervals
using the coarse external PP command ("the PP command on our test device
was too coarse ... and tended to disrupt public bits"), while predicting
that finer in-controller programming would work.  The
:mod:`repro.experiments.mlc_extension` experiment reproduces both halves
of that claim on this view.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..rng import substream
from .chip import FlashChip
from .errors import ProgramError
from .noise import sample_erased

#: Gray code: (lower, upper) per level L0..L3.
LEVEL_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))


def bits_to_levels(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Map per-cell (lower, upper) bits to level indices 0..3."""
    lower = np.asarray(lower, dtype=np.uint8)
    upper = np.asarray(upper, dtype=np.uint8)
    if lower.shape != upper.shape:
        raise ValueError("lower and upper pages must align")
    levels = np.empty(lower.shape, dtype=np.uint8)
    levels[(lower == 1) & (upper == 1)] = 0
    levels[(lower == 1) & (upper == 0)] = 1
    levels[(lower == 0) & (upper == 0)] = 2
    levels[(lower == 0) & (upper == 1)] = 3
    return levels


def levels_to_bits(levels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`bits_to_levels`."""
    levels = np.asarray(levels)
    lower = np.where(levels <= 1, 1, 0).astype(np.uint8)
    upper = np.where((levels == 0) | (levels == 3), 1, 0).astype(np.uint8)
    return lower, upper


class MlcView:
    """Program and read a chip's cells in four-level MLC mode."""

    def __init__(self, chip: FlashChip) -> None:
        self.chip = chip

    def program_page(
        self, block: int, page: int, lower: np.ndarray, upper: np.ndarray
    ) -> None:
        """Program two logical pages into one physical wordline.

        (Real chips program lower then upper; the simulator applies the
        combined four-level result in one pass — the paper's measurements
        are always of the settled state.)
        """
        chip = self.chip
        levels = bits_to_levels(lower, upper)
        if levels.shape != (chip.geometry.cells_per_page,):
            raise ProgramError(
                f"MLC pages must cover {chip.geometry.cells_per_page} cells"
            )
        chip.geometry.check_page(block, page)
        if chip.is_bad_block(block):
            raise ProgramError(f"block {block} is marked bad")
        state = chip._block(block)
        if state.page_programmed[page]:
            raise ProgramError(
                f"page {page} of block {block} already programmed"
            )
        page_levels = state.levels(page, state.pec)
        mlc = chip.params.mlc
        rng = substream(
            chip.seed, "program-mlc", block, page, state.erase_epoch
        )
        n = chip.geometry.cells_per_page
        voltages = np.empty(n, dtype=np.float32)
        erased_mask = levels == 0
        n_erased = int(erased_mask.sum())
        if n_erased:
            voltages[erased_mask] = sample_erased(rng, n_erased, page_levels)
        # Programmed levels reuse the SLC mean offset (manufacturing +
        # wear) with the narrower MLC spreads.
        offset = page_levels.programmed_mean - chip.params.voltage.programmed_mean
        for level in (1, 2, 3):
            mask = levels == level
            count = int(mask.sum())
            if not count:
                continue
            voltages[mask] = rng.normal(
                mlc.level_means[level - 1] + offset,
                mlc.level_stds[level - 1] * state.std_mult,
                count,
            ).astype(np.float32)
        state.write_row(page, voltages)
        state.page_programmed[page] = True
        state.page_program_time[page] = chip.clock
        state.page_pec[page] = state.pec
        state.page_epoch[page] = state.erase_epoch
        chip._expose_neighbours(
            state, [page], chip.params.disturb.program_flip_prob
        )
        # An MLC program is two logical page programs' worth of work.
        chip._account("program")
        chip._account("program")

    def read_page(
        self, block: int, page: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read back (lower, upper) logical pages."""
        chip = self.chip
        state = chip._block(block)
        chip.geometry.check_page(block, page)
        voltages = chip._effective_voltages(state, page)
        thresholds = chip.params.mlc.read_thresholds
        levels = (
            (voltages >= thresholds[0]).astype(np.uint8)
            + (voltages >= thresholds[1])
            + (voltages >= thresholds[2])
        )
        flip = chip._disturb_mask(state, page)
        lower, upper = levels_to_bits(levels)
        if flip.any():
            lower[flip] ^= 1
        chip._account("read")
        chip._account("read")
        return lower, upper

    def erased_interval_headroom(self) -> float:
        """Voltage span of the MLC erased interval — the room VT-HI's
        trick has to work with in MLC mode (much less than SLC's)."""
        return float(self.chip.params.mlc.read_thresholds[0])
