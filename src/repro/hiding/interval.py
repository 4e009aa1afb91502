"""Interval hiding: the "TLC in MLC" capacity vision (§6.2, §9.2).

§6.2: "The ability to control voltage targets and the width of voltage
intervals might improve our hiding technique since narrower voltage
intervals have been shown to easily fit into wider programming intervals
(e.g., TLC in MLC)."  §9.2 repeats it as the capacity endgame: "hide data
as TLC in MLC cells".

The scheme: a firmware-capable hider programs every selected cell to the
*lower or upper half* of whatever MLC interval its public level occupies —
splitting each of the four MLC levels into two sub-levels, i.e. operating
the cell as an 8-level TLC whose extra bit is secret.  Unlike classic
VT-HI this hides **one bit per selected cell of any public value**, not
only in erased cells.

Requirements and costs, as the paper predicts:

* it needs in-controller precision (sub-level spreads far narrower than
  external PP can hit) — modelled by programming the sub-level directly;
* the sub-level margin is small, so raw BER is higher and retention is
  the binding constraint;
* public MLC reads are untouched: both sub-levels sit strictly inside the
  public level's read interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..crypto.keys import HidingKey
from ..nand.chip import FlashChip
from ..nand.mlc import MlcView, bits_to_levels
from ..rng import substream
from .selection import select_cells

Location = Tuple[int, int]


@dataclass(frozen=True)
class IntervalHidingConfig:
    """Sub-level layout inside each MLC programmed level."""

    #: Hidden cells per page.
    bits_per_page: int = 2048
    #: Half-distance between the two sub-level centres within a level.
    sublevel_separation: float = 6.0
    #: Std of a firmware-programmed sub-level.
    sublevel_std: float = 1.8

    def __post_init__(self) -> None:
        if self.bits_per_page < 1:
            raise ValueError("bits_per_page must be positive")
        if self.sublevel_separation <= 0 or self.sublevel_std <= 0:
            raise ValueError("sub-level parameters must be positive")


class IntervalHider:
    """Hide one secret bit per selected cell by sub-level placement.

    This models the in-controller implementation §6.2 wishes for: the
    controller owns the program-verify loop, so it can place a cell at an
    exact sub-level target.  The external-command path cannot do this —
    that asymmetry is exactly the MLC-extension experiment's finding.
    """

    def __init__(
        self,
        mlc: MlcView,
        config: IntervalHidingConfig = IntervalHidingConfig(),
    ) -> None:
        self.mlc = mlc
        self.chip: FlashChip = mlc.chip
        self.config = config

    # ------------------------------------------------------------------

    def _centres(self, level: int) -> Tuple[float, float]:
        """(hidden-0 centre, hidden-1 centre) for a public MLC level."""
        mlc = self.chip.params.mlc
        if level == 0:
            # The erased level's measurable band: centre a narrow pair in
            # the interference hump, well under the first read threshold.
            base = 22.0
        else:
            base = mlc.level_means[level - 1]
        sep = self.config.sublevel_separation
        return (base + sep, base - sep)

    def program_with_hidden(
        self,
        block: int,
        page: int,
        lower: np.ndarray,
        upper: np.ndarray,
        hidden: np.ndarray,
        key: HidingKey,
    ) -> np.ndarray:
        """Program an MLC page, placing hidden bits in sub-levels.

        Returns the selected cell indices.  The page is programmed once,
        with selected cells routed to their sub-level directly (an
        in-controller single pass — the "second fine-grained programming
        pass" §6.2 mentions vendors already use).
        """
        hidden = np.asarray(hidden, dtype=np.uint8)
        if hidden.size != self.config.bits_per_page:
            raise ValueError(
                f"expected {self.config.bits_per_page} hidden bits, got "
                f"{hidden.size}"
            )
        self.mlc.program_page(block, page, lower, upper)
        address = self.chip.geometry.page_address(block, page)
        # Any cell qualifies: selection runs over an all-ones mask.
        every_cell = np.ones(self.chip.geometry.cells_per_page, np.uint8)
        cells = select_cells(key, address, every_cell, hidden.size)
        levels = bits_to_levels(lower, upper)[cells]
        rng = substream(
            self.chip.seed, "interval-hide", block, page,
            int(self.chip._block(block).erase_epoch),
        )
        state = self.chip._block(block)
        targets = np.empty(cells.size, dtype=np.float32)
        for level in range(4):
            for bit in (0, 1):
                mask = (levels == level) & (hidden == bit)
                count = int(mask.sum())
                if not count:
                    continue
                centre = self._centres(level)[bit]
                targets[mask] = rng.normal(
                    centre, self.config.sublevel_std, count
                ).astype(np.float32)
        state.row(page)[cells] = targets
        state.invalidate_page_voltages(page)
        # The fine pass costs another program's worth of work.
        self.chip._account("program")
        return cells

    def read_hidden(
        self,
        block: int,
        page: int,
        key: HidingKey,
        n_bits: int,
    ) -> np.ndarray:
        """Recover hidden bits: public MLC read + per-level mid reads."""
        lower, upper = self.mlc.read_page(block, page)
        address = self.chip.geometry.page_address(block, page)
        every_cell = np.ones(self.chip.geometry.cells_per_page, np.uint8)
        cells = select_cells(key, address, every_cell, n_bits)
        levels = bits_to_levels(lower, upper)[cells]
        voltages = self.chip.probe_voltages(block, page).astype(
            np.float64
        )[cells]
        hidden = np.empty(n_bits, dtype=np.uint8)
        for level in range(4):
            mask = levels == level
            if not mask.any():
                continue
            high, low = self._centres(level)
            midpoint = (high + low) / 2.0
            # hidden 0 occupies the upper sub-level.
            hidden[mask] = (voltages[mask] < midpoint).astype(np.uint8)
        return hidden

    def capacity_ratio_vs_vthi(self, vthi_bits_per_page: int = 256) -> float:
        """How many times classic VT-HI's per-page budget this carries."""
        return self.config.bits_per_page / float(vthi_bits_per_page)
