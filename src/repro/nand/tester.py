"""Host-side NAND tester API.

Stands in for the commercial SigNAS-II tester of §6.1: "the flash packages
were operated using a commercial NAND flash tester ... voltage level
characterization of cells as well as the hiding algorithm were implemented
as host software on a PC".  :class:`NandTester` provides the
characterisation procedures the paper runs (program random data, probe
distributions, cycle to a wear level, measure BER).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..rng import substream
from .chip import FlashChip


class NandTester:
    """Drives one or more flash chip samples from the host side."""

    def __init__(self, chips: List[FlashChip]) -> None:
        if not chips:
            raise ValueError("tester needs at least one chip")
        self.chips = list(chips)

    @classmethod
    def for_samples(
        cls, model, n_samples: int, base_seed: int = 0
    ) -> "NandTester":
        """A tester loaded with `n_samples` samples of one chip model.

        Mirrors the paper's setup of multiple samples "from the same
        vendor, batch and chip model": same geometry and parameters,
        different manufacturing randomness.
        """
        chips = [
            FlashChip(model.geometry, model.params, seed=base_seed + i)
            for i in range(n_samples)
        ]
        return cls(chips)

    # ------------------------------------------------------------------
    # characterisation procedures (§4)

    def program_random_block(
        self, chip_index: int, block: int, seed: int = 0
    ) -> np.ndarray:
        """Erase a block and program pseudorandom data into every page.

        Returns the programmed bits, shape (pages, cells) — the "previously
        saved input data" the paper compares against when measuring BER.
        """
        chip = self.chips[chip_index]
        rng = substream(seed, "tester-pattern", chip_index, block)
        chip.erase_block(block)
        n_pages = chip.geometry.pages_per_block
        n_cells = chip.geometry.cells_per_page
        data = (rng.random((n_pages, n_cells)) < 0.5).astype(np.uint8)
        for page in range(n_pages):
            chip.program_page(block, page, data[page])
        return data

    def probe_block(self, chip_index: int, block: int) -> np.ndarray:
        """Probe every page of a block; returns (pages, cells) uint8."""
        chip = self.chips[chip_index]
        return np.stack(
            [
                chip.probe_voltages(block, page)
                for page in range(chip.geometry.pages_per_block)
            ]
        )

    def measure_ber(
        self, chip_index: int, block: int, expected: np.ndarray
    ) -> float:
        """Raw bit error rate of a block against the saved input data."""
        chip = self.chips[chip_index]
        n_pages, n_cells = expected.shape
        errors = 0
        for page in range(n_pages):
            bits = chip.read_page(block, page)
            errors += int((bits != expected[page]).sum())
        return errors / float(n_pages * n_cells)

    def cycle_to_pec(self, chip_index: int, block: int, pec: int) -> None:
        """Pre-condition a block to a wear level (the paper's 0-3000 PEC)."""
        self.chips[chip_index].age_block(block, pec)


def histogram_block(
    voltages: np.ndarray, bins: int = 256, value_range: Tuple[int, int] = (0, 256)
) -> Tuple[np.ndarray, np.ndarray]:
    """Voltage histogram in % of cells, like the paper's figures.

    Returns (bin_left_edges, percent_of_cells).
    """
    counts, edges = np.histogram(
        voltages.ravel(), bins=bins, range=value_range
    )
    percent = 100.0 * counts / voltages.size
    return edges[:-1], percent
